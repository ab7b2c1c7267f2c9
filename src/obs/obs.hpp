// Umbrella header for pdc::obs plus the instrumentation macros the rest
// of the library uses on its hot paths.
//
// The macros cache the metric reference in a function-local static, so
// the registry's name lookup (a mutex + map walk) happens once per call
// site and every subsequent hit is a relaxed fetch_add on a sharded slot.
// Under PDCKIT_OBS_NOOP they name their arguments only inside an
// unevaluated sizeof, so nothing runs, yet a local or parameter that only
// feeds a metric still counts as used; the tracing inlines constant-fold
// away (see obs/trace.hpp). Instrumented code carries zero overhead when
// observability is compiled out, provided a clock read that only feeds a
// histogram sits behind obs::kObsEnabled.
#pragma once

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

#ifdef PDCKIT_OBS_NOOP

namespace pdc::obs::detail {
template <class... Args>
constexpr int noop_metric(const Args&...) noexcept {
  return 0;
}
}  // namespace pdc::obs::detail

#define PDC_OBS_NOOP_USE(...) \
  ((void)sizeof(::pdc::obs::detail::noop_metric(__VA_ARGS__)))
#define PDC_OBS_COUNT(...) PDC_OBS_NOOP_USE(__VA_ARGS__)
#define PDC_OBS_GAUGE_ADD(name, delta) PDC_OBS_NOOP_USE(name, delta)
#define PDC_OBS_GAUGE_SUB(name, delta) PDC_OBS_NOOP_USE(name, delta)
#define PDC_OBS_HIST(name, value) PDC_OBS_NOOP_USE(name, value)

#else

#define PDC_OBS_COUNT(name, ...)                               \
  do {                                                         \
    static ::pdc::obs::Counter& pdc_obs_metric_ =              \
        ::pdc::obs::MetricsRegistry::instance().counter(name); \
    pdc_obs_metric_.inc(__VA_ARGS__);                          \
  } while (0)

#define PDC_OBS_GAUGE_ADD(name, delta)                       \
  do {                                                       \
    static ::pdc::obs::Gauge& pdc_obs_metric_ =              \
        ::pdc::obs::MetricsRegistry::instance().gauge(name); \
    pdc_obs_metric_.add(delta);                              \
  } while (0)

#define PDC_OBS_GAUGE_SUB(name, delta)                       \
  do {                                                       \
    static ::pdc::obs::Gauge& pdc_obs_metric_ =              \
        ::pdc::obs::MetricsRegistry::instance().gauge(name); \
    pdc_obs_metric_.sub(delta);                              \
  } while (0)

#define PDC_OBS_HIST(name, value)                                \
  do {                                                           \
    static ::pdc::obs::Histogram& pdc_obs_metric_ =              \
        ::pdc::obs::MetricsRegistry::instance().histogram(name); \
    pdc_obs_metric_.record(value);                               \
  } while (0)

#endif  // PDCKIT_OBS_NOOP
