/**
 * @file
 * Benchmark entry point: one workload per process.
 *
 *   dtc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Prints progress and every metric by name, unit and sample count,
 * then, as the last line, one JSON object {"correct", "attempted",
 * "failed", "metrics"}.  --trace 0 reports the end-to-end metrics,
 * --trace 1 the per-layer metrics (and writes the run's spans as
 * chrome-trace JSON under .bench_out/).  Exits 1 when any output
 * check fails.
 */
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"
#include "spans.h"
#include "workloads.h"

namespace {

/** Where a traced run writes its chrome-trace file (in the checkout). */
constexpr const char* kTraceDir = ".bench_out";

void
usage()
{
    std::fprintf(stderr,
                 "usage: dtc_perfbench --workload "
                 "<iter_long_rows|iter_short_rows|serve_mixed> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
}

bool
parse(int argc, char** argv, perfbench::Options& opt)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            opt.workload = v;
        else if (k == "--seed")
            opt.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            opt.seconds = std::atof(v.c_str());
        else if (k == "--trace")
            opt.trace = v == "1";
        else
            return false;
    }
    return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0;
}

} // namespace

int
main(int argc, char** argv)
{
    perfbench::Options opt;
    if (!parse(argc, argv, opt)) {
        usage();
        return 2;
    }
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    if (opt.trace)
        perfbench::spans::enable();

    perfbench::Report report;
    perfbench::OpCounts ops;
    try {
        if (perfbench::isIterWorkload(opt.workload))
            perfbench::runIterWorkload(opt, report, ops);
        else if (opt.workload == "serve_mixed")
            perfbench::runServeWorkload(opt, report, ops);
        else {
            usage();
            return 2;
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
        return 1;
    }

    if (opt.trace) {
        for (const auto& [name, st] : perfbench::spans::selfTimes())
            std::printf("span %-34s count %6lld total %10.3f ms self "
                        "%10.3f ms\n",
                        name.c_str(), static_cast<long long>(st.count),
                        st.totalMs, st.selfMs);
        ::mkdir(kTraceDir, 0755);
        const std::string path =
            std::string(kTraceDir) + "/trace_" + opt.workload + ".json";
        if (perfbench::spans::writeChromeTrace(path))
            std::printf("trace written to %s\n", path.c_str());
    }
    std::printf("ops: %lld attempted, %lld failed, %lld outputs checked, "
                "%lld wrong\n",
                static_cast<long long>(ops.attempted),
                static_cast<long long>(ops.failed),
                static_cast<long long>(ops.checked),
                static_cast<long long>(ops.wrong));
    report.printHuman();
    std::printf("%s\n", report.toJson(ops).c_str());
    return ops.wrong == 0 ? 0 : 1;
}
