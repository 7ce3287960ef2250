/**
 * @file
 * SIMD backend suite (src/engine/simd/).  Bitwise identity of every
 * backend with the naive reference lives in
 * tests/test_engine_equivalence.cc; this file pins the rest:
 *   1. Dispatch — cpuid detection, the typed DTC_SIMD override
 *      (scalar|avx2|avx512, unknown/unsupported raise
 *      DtcError(InvalidInput)), and ScopedSimdMode nesting.
 *   2. Observability — engine.simd.vector_elems / tail_elems follow
 *      the fixed 8-wide definitional split, independent of the
 *      physical vector width.
 *   3. The panel-width auto-tune.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/aligned.h"
#include "common/error.h"
#include "common/precision.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "engine/prepared_dense.h"
#include "engine/simd/simd.h"

namespace dtc {
namespace {

using engine::simd::Isa;
using engine::simd::ScopedSimdMode;

/** Saves/restores DTC_SIMD around a test (CI legs may force it). */
class EnvGuard
{
  public:
    explicit EnvGuard(const char* name) : varName(name)
    {
        const char* v = std::getenv(name);
        if (v) {
            had = true;
            saved = v;
        }
        ::unsetenv(name);
    }
    ~EnvGuard()
    {
        if (had)
            ::setenv(varName.c_str(), saved.c_str(), 1);
        else
            ::unsetenv(varName.c_str());
    }
    void set(const std::string& v)
    {
        ::setenv(varName.c_str(), v.c_str(), 1);
    }
    void unset() { ::unsetenv(varName.c_str()); }

  private:
    std::string varName;
    bool had = false;
    std::string saved;
};

/** Every backend the host can actually run (always includes Scalar). */
std::vector<Isa>
supportedBackends()
{
    std::vector<Isa> out = {Isa::Scalar};
    for (Isa isa : {Isa::Avx2, Isa::Avx512})
        if (engine::simd::isaSupported(isa))
            out.push_back(isa);
    return out;
}

// ---------------------------------------------------------------------
// 1. Dispatch.
// ---------------------------------------------------------------------

TEST(SimdDispatch, DetectedIsaIsSupportedAndDefault)
{
    EnvGuard guard("DTC_SIMD");
    const Isa detected = engine::simd::detectedIsa();
    EXPECT_TRUE(engine::simd::isaSupported(detected));
    // With no env and no override, activeIsa is the detection.
    EXPECT_EQ(engine::simd::activeIsa(), detected);
    EXPECT_EQ(engine::simd::kernels().isa, detected);
}

TEST(SimdDispatch, EnvOverrideIsHonoured)
{
    EnvGuard guard("DTC_SIMD");
    guard.set("scalar");
    EXPECT_EQ(engine::simd::activeIsa(), Isa::Scalar);
    for (Isa isa : {Isa::Avx2, Isa::Avx512}) {
        guard.set(engine::simd::isaName(isa));
        if (engine::simd::isaSupported(isa))
            EXPECT_EQ(engine::simd::activeIsa(), isa);
        else
            EXPECT_THROW(engine::simd::activeIsa(), DtcError);
    }
}

TEST(SimdDispatch, UnknownEnvValueRaisesTypedError)
{
    EnvGuard guard("DTC_SIMD");
    // A typo'd knob must fail loudly; so must "off", which no longer
    // names a backend.
    for (const char* value : {"avx-512", "off"}) {
        SCOPED_TRACE(value);
        guard.set(value);
        try {
            engine::simd::activeIsa();
            FAIL() << "expected DtcError";
        } catch (const DtcError& e) {
            EXPECT_EQ(e.code(), ErrorCode::InvalidInput);
            EXPECT_NE(std::string(e.what()).find("DTC_SIMD"),
                      std::string::npos);
        }
    }
}

TEST(SimdDispatch, ScopedModeOverridesEnvAndNests)
{
    EnvGuard guard("DTC_SIMD");
    guard.set("scalar");
    const Isa detected = engine::simd::detectedIsa();
    {
        ScopedSimdMode outer(detected);
        EXPECT_EQ(engine::simd::activeIsa(), detected);
        {
            ScopedSimdMode inner(Isa::Scalar);
            EXPECT_EQ(engine::simd::activeIsa(), Isa::Scalar);
        }
        EXPECT_EQ(engine::simd::activeIsa(), detected);
    }
    EXPECT_EQ(engine::simd::activeIsa(), Isa::Scalar); // env again
}

TEST(SimdDispatch, KernelsForUnavailableBackendRaises)
{
    for (Isa isa : {Isa::Avx2, Isa::Avx512}) {
        if (engine::simd::isaSupported(isa)) {
            EXPECT_EQ(engine::simd::kernelsFor(isa).isa, isa);
        } else {
            EXPECT_THROW(engine::simd::kernelsFor(isa), DtcError);
        }
    }
    EXPECT_EQ(engine::simd::kernelsFor(Isa::Scalar).isa, Isa::Scalar);
}

// ---------------------------------------------------------------------
// 2. Observability counters.
// ---------------------------------------------------------------------

TEST(SimdCounters, FollowTheFixed8WideSplit)
{
    AlignedVector<float> c(33, 0.0f);
    AlignedVector<float> b(33, 1.0f);
    for (Isa isa : supportedBackends()) {
        SCOPED_TRACE(engine::simd::isaName(isa));
        const engine::simd::Kernels& K = engine::simd::kernelsFor(isa);
        engine::simd::resetStats();
        K.axpy(c.data(), b.data(), 2.0f, 33);
        // Definitional split: vector = n - n%8, tail = n%8, except
        // the scalar backend books everything to the tail.
        if (isa == Isa::Scalar) {
            EXPECT_EQ(engine::simd::stats().vectorElems.load(), 0u);
            EXPECT_EQ(engine::simd::stats().tailElems.load(), 33u);
        } else {
            EXPECT_EQ(engine::simd::stats().vectorElems.load(), 32u);
            EXPECT_EQ(engine::simd::stats().tailElems.load(), 1u);
        }
    }
}

TEST(SimdCounters, PreparedDenseBooksWholePasses)
{
    Rng rng(31);
    DenseMatrix b(15, 33); // 495 elements: 61 vectors + 7-wide tail
    b.fillRandom(rng);
    const uint64_t total = 15 * 33;
    ScopedSimdMode mode(engine::simd::detectedIsa());
    engine::simd::resetStats();
    engine::PreparedDense pd(b, Precision::Tf32);
    if (engine::simd::detectedIsa() == Isa::Scalar) {
        EXPECT_EQ(engine::simd::stats().tailElems.load(), total);
    } else {
        EXPECT_EQ(engine::simd::stats().vectorElems.load(),
                  total - total % 8);
        EXPECT_EQ(engine::simd::stats().tailElems.load(), total % 8);
    }
}

// ---------------------------------------------------------------------
// 3. Panel-width auto-tune (engine::panelColsBase).
// ---------------------------------------------------------------------

TEST(PanelCols, OverridesResolveStrongestFirst)
{
    // Probe/default path: multiple of kJBlock inside the clamp.
    const int64_t base = engine::panelColsBase();
    EXPECT_GE(base, 64);
    EXPECT_LE(base, 4096);
    EXPECT_EQ(base % engine::kJBlock, 0);

    // Scoped override beats the probe.
    {
        engine::ScopedPanelCols pin(64);
        EXPECT_EQ(engine::panelColsBase(), 64);
        EXPECT_EQ(engine::panelCols(1000), 64);
        EXPECT_EQ(engine::panelCols(128), 128); // single panel
    }
    EXPECT_EQ(engine::panelColsBase(), base);
}

} // namespace
} // namespace dtc
