/**
 * @file
 * dtc_fuzz — the conformance & fuzzing driver.
 *
 * Modes (see src/testing/fuzz.h for the campaign semantics):
 *
 *   dtc_fuzz --smoke
 *       Bounded, deterministic sweep: every structure family x fixed
 *       seeds through the full differential oracle (all kernels x
 *       precisions x SIMD backend x thread counts), the metamorphic
 *       property sweep, and the fault-injection sweep.  The ctest /
 *       CI entry point; exits nonzero on any failure.
 *
 *   dtc_fuzz --minutes N [--seed S]
 *       Timed campaign with fresh seeds until the budget expires
 *       (the CI nightly).  Failures are shrunk and dumped under
 *       --corpus-out for upload.
 *
 *   dtc_fuzz --replay DIR
 *       Re-judges every .case artifact in DIR (the checked-in
 *       regression corpus): each must now pass the oracle.
 *
 *   dtc_fuzz --serve-soak [--rounds N]
 *       Serving-layer soak: randomized concurrent clients against
 *       the multi-tenant SpmmService (shared matrix pool, random
 *       precisions/deadlines/queue sizes, occasional armed fault).
 *       Every request must end typed or verified-correct.  CI runs
 *       this leg under ThreadSanitizer.
 */
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "testing/fuzz.h"

namespace {

int
usage(const char* argv0)
{
    std::cerr
        << "usage: " << argv0 << " MODE [options]\n"
        << "modes:\n"
        << "  --smoke            bounded deterministic sweep (CI gate)\n"
        << "  --soak [--rounds N] resilience soak: runtime under randomized\n"
        << "                     deadlines + fault sweep (CI gate)\n"
        << "  --serve-soak [--rounds N] serving-layer soak: concurrent\n"
        << "                     clients against SpmmService (TSan leg)\n"
        << "  --minutes N        timed fuzzing campaign\n"
        << "  --replay DIR       re-judge checked-in corpus artifacts\n"
        << "options:\n"
        << "  --seed S           base seed for --minutes/--soak\n"
        << "  --rounds N         scenarios for --soak (default 64)\n"
        << "  --scale K          generator scale 0..2 (default 0 smoke, 1 timed)\n"
        << "  --width N          dense operand width (default 16)\n"
        << "  --corpus-out DIR   dump shrunk failure artifacts here\n"
        << "  --quiet            suppress per-case progress lines\n";
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace dtc::testing;

    enum class Mode
    {
        None,
        Smoke,
        Soak,
        ServeSoak,
        Timed,
        Replay,
    };
    Mode mode = Mode::None;
    double minutes = 0.0;
    std::string replay_dir;
    std::string corpus_out;
    uint64_t base_seed = 1000;
    bool seed_given = false;
    int64_t rounds = 64;
    int scale = -1;
    int64_t width = 16;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char* what) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs " << what << "\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--smoke") {
            mode = Mode::Smoke;
        } else if (arg == "--soak") {
            mode = Mode::Soak;
        } else if (arg == "--serve-soak") {
            mode = Mode::ServeSoak;
        } else if (arg == "--rounds") {
            rounds = std::stoll(next("a count"));
        } else if (arg == "--minutes") {
            mode = Mode::Timed;
            minutes = std::stod(next("a duration"));
        } else if (arg == "--replay") {
            mode = Mode::Replay;
            replay_dir = next("a directory");
        } else if (arg == "--seed") {
            base_seed = std::stoull(next("a seed"));
            seed_given = true;
        } else if (arg == "--scale") {
            scale = std::stoi(next("a scale"));
        } else if (arg == "--width") {
            width = std::stoll(next("a width"));
        } else if (arg == "--corpus-out") {
            corpus_out = next("a directory");
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            return usage(argv[0]);
        }
    }
    if (mode == Mode::None)
        return usage(argv[0]);

    try {
        FuzzOptions opt;
        opt.denseWidth = width;
        opt.log = quiet ? nullptr : &std::cout;
        if (!corpus_out.empty()) {
            std::filesystem::create_directories(corpus_out);
            opt.corpusDir = corpus_out;
        }

        FuzzStats stats;
        switch (mode) {
          case Mode::Smoke:
            opt.scale = scale < 0 ? 0 : scale;
            opt.seeds = {1, 2};
            stats = runSmokeCampaign(opt);
            break;
          case Mode::Soak:
            opt.scale = scale < 0 ? 0 : scale;
            stats = runSoakCampaign(opt, rounds,
                                    seed_given ? base_seed : 5000);
            break;
          case Mode::ServeSoak:
            opt.scale = scale < 0 ? 0 : scale;
            stats = runServeSoakCampaign(
                opt, rounds, seed_given ? base_seed : 7000);
            break;
          case Mode::Timed:
            opt.scale = scale < 0 ? 1 : scale;
            stats = runTimedCampaign(opt, minutes, base_seed);
            break;
          case Mode::Replay:
            stats = replayCorpus(replay_dir,
                                 quiet ? nullptr : &std::cout);
            break;
          case Mode::None:
            return 2;
        }

        std::cout << "dtc_fuzz: " << stats.summary() << "\n";
        for (const std::string& line : stats.failureLines)
            std::cout << "  FAIL " << line << "\n";
        return stats.ok() ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "dtc_fuzz: fatal: " << e.what() << "\n";
        return 1;
    }
}
