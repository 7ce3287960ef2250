/**
 * @file
 * Internal: per-backend dispatch-table accessors, defined by the
 * kernels_*.cc translation units and consumed by simd.cc.  The AVX
 * backends exist only in x86-64 builds (CMake compiles those TUs and
 * defines DTC_SIMD_HAVE_X86 when the toolchain supports the flags).
 */
#ifndef DTC_HOST_ENGINE_SIMD_TABLES_H
#define DTC_HOST_ENGINE_SIMD_TABLES_H

#include "engine/simd/simd.h"

namespace dtc {
namespace engine {
namespace simd {
namespace detail {

const Kernels& scalarTable();
#if defined(DTC_SIMD_HAVE_X86)
const Kernels& avx2Table();
const Kernels& avx512Table();
#endif

} // namespace detail
} // namespace simd
} // namespace engine
} // namespace dtc

#endif // DTC_HOST_ENGINE_SIMD_TABLES_H
