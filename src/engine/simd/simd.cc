#include "engine/simd/simd.h"

#include <string>

#include "common/env.h"
#include "common/error.h"
#include "engine/simd/tables.h"

namespace dtc {
namespace engine {
namespace simd {

namespace {

/** -1: no override; else the forced Isa of a ScopedSimdMode. */
thread_local int tlsSimdOverride = -1;

#if defined(DTC_SIMD_HAVE_X86)
bool
cpuHasAvx2()
{
    static const bool has = __builtin_cpu_supports("avx2") != 0;
    return has;
}

bool
cpuHasAvx512()
{
    // The backend uses F (512-bit base), VL (256-bit EVEX remainder
    // step), and DQ/BW for completeness of the integer/blend forms.
    static const bool has = __builtin_cpu_supports("avx512f") &&
                            __builtin_cpu_supports("avx512vl") &&
                            __builtin_cpu_supports("avx512dq") &&
                            __builtin_cpu_supports("avx512bw");
    return has;
}
#endif

/**
 * Parses a DTC_SIMD value.  Unknown strings raise
 * DtcError(InvalidInput) naming the variable (env.h convention).
 */
Isa
parseIsa(const std::string& s)
{
    if (s == "scalar")
        return Isa::Scalar;
    if (s == "avx2")
        return Isa::Avx2;
    if (s == "avx512")
        return Isa::Avx512;
    DTC_RAISE(ErrorCode::InvalidInput,
              "DTC_SIMD must be one of scalar|avx2|avx512, got \""
                  << s << "\"");
}

} // namespace

const char*
isaName(Isa isa)
{
    switch (isa) {
      case Isa::Scalar:
        return "scalar";
      case Isa::Avx2:
        return "avx2";
      case Isa::Avx512:
        return "avx512";
    }
    return "?";
}

Isa
detectedIsa()
{
#if defined(DTC_SIMD_HAVE_X86)
    static const Isa isa = [] {
        if (cpuHasAvx512())
            return Isa::Avx512;
        if (cpuHasAvx2())
            return Isa::Avx2;
        return Isa::Scalar;
    }();
    return isa;
#else
    return Isa::Scalar;
#endif
}

bool
isaSupported(Isa isa)
{
    switch (isa) {
      case Isa::Scalar:
        return true;
      case Isa::Avx2:
#if defined(DTC_SIMD_HAVE_X86)
        return cpuHasAvx2();
#else
        return false;
#endif
      case Isa::Avx512:
#if defined(DTC_SIMD_HAVE_X86)
        return cpuHasAvx512();
#else
        return false;
#endif
    }
    return false;
}

Isa
activeIsa()
{
    if (tlsSimdOverride >= 0)
        return static_cast<Isa>(tlsSimdOverride);
    if (const auto s = env::readString("DTC_SIMD")) {
        const Isa isa = parseIsa(*s);
        DTC_CHECK_CODE(isaSupported(isa), ErrorCode::InvalidInput,
                       "DTC_SIMD=" << *s
                                   << " requested but this build/CPU "
                                      "does not support it (detected: "
                                   << isaName(detectedIsa()) << ")");
        return isa;
    }
    return detectedIsa();
}

ScopedSimdMode::ScopedSimdMode(Isa isa) : prev(tlsSimdOverride)
{
    tlsSimdOverride = static_cast<int>(isa);
}

ScopedSimdMode::~ScopedSimdMode()
{
    tlsSimdOverride = prev;
}

const Kernels&
kernelsFor(Isa isa)
{
    switch (isa) {
      case Isa::Scalar:
        return detail::scalarTable();
      case Isa::Avx2:
#if defined(DTC_SIMD_HAVE_X86)
        if (cpuHasAvx2())
            return detail::avx2Table();
#endif
        break;
      case Isa::Avx512:
#if defined(DTC_SIMD_HAVE_X86)
        if (cpuHasAvx512())
            return detail::avx512Table();
#endif
        break;
    }
    DTC_RAISE(ErrorCode::InvalidInput,
              "SIMD backend \"" << isaName(isa)
                                << "\" is not available on this "
                                   "build/CPU (detected: "
                                << isaName(detectedIsa()) << ")");
}

const Kernels&
kernels()
{
    const Isa isa = activeIsa();
    static obs::Gauge& g = obs::metrics::gauge("engine.simd.isa");
    g.set(static_cast<double>(isa));
    return kernelsFor(isa);
}

SimdStats&
stats()
{
    static SimdStats s{
        obs::metrics::counter("engine.simd.vector_elems"),
        obs::metrics::counter("engine.simd.tail_elems"),
    };
    return s;
}

void
resetStats()
{
    stats().vectorElems.reset();
    stats().tailElems.reset();
}

} // namespace simd
} // namespace engine
} // namespace dtc
