/**
 * @file
 * Validated environment-variable parsing.
 *
 * Every DTC_* knob used to be read with strtol-and-shrug: a typo'd
 * value (DTC_NUM_THREADS=fuor, DTC_GUARD_SAMPLE=1%, DTC_DEADLINE_MS=
 * "10 ms") was silently ignored and the default ran instead — the
 * worst failure mode for a knob that exists to change behaviour.
 * These helpers parse strictly and raise a typed
 * DtcError(InvalidInput) naming the variable, the offending value and
 * the accepted range, so a misconfigured deployment fails loudly at
 * the first use instead of silently running with defaults.
 *
 * All helpers re-read the environment on every call (the established
 * pattern of DTC_NUM_THREADS / DTC_SIMD, so tests can toggle knobs
 * with setenv); callers that need one-shot semantics cache the result
 * behind their own atomic.
 */
#ifndef DTC_COMMON_ENV_H
#define DTC_COMMON_ENV_H

#include <cstdint>
#include <optional>
#include <string>

namespace dtc {
namespace env {

/**
 * Integer knob: unset/empty returns nullopt; anything that is not a
 * whole base-10 integer within [lo, hi] raises
 * DtcError(InvalidInput).
 */
std::optional<int64_t> readInt64(const char* name, int64_t lo,
                                 int64_t hi);

/**
 * Floating-point knob: unset/empty returns nullopt; anything that is
 * not a finite decimal number within [lo, hi] raises
 * DtcError(InvalidInput).
 */
std::optional<double> readDouble(const char* name, double lo,
                                 double hi);

/** String knob: unset or empty returns nullopt. */
std::optional<std::string> readString(const char* name);

/**
 * Strictly parses @p text as a whole base-10 integer (no trailing
 * garbage, no empty string).  @p what labels the error message, e.g.
 * "DTC_FAULT nth".  Raises DtcError(InvalidInput) on anything else.
 */
int64_t parseInt64(const std::string& text, const char* what,
                   int64_t lo, int64_t hi);

} // namespace env
} // namespace dtc

#endif // DTC_COMMON_ENV_H
