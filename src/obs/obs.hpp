// Umbrella header for pdc::obs plus the instrumentation macros the rest
// of the library uses on its hot paths.
//
// The macros cache the metric reference in a function-local static, so
// the registry's name lookup (a mutex + map walk) happens once per call
// site and every subsequent hit is a relaxed fetch_add on a sharded slot.
// Under PDCKIT_OBS_NOOP they expand to ((void)0) and the tracing inlines
// constant-fold away (see obs/trace.hpp), so instrumented code carries
// zero overhead when observability is compiled out.
#pragma once

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

#ifdef PDCKIT_OBS_NOOP

#define PDC_OBS_COUNT(name, ...) ((void)0)
#define PDC_OBS_GAUGE_ADD(name, delta) ((void)0)
#define PDC_OBS_GAUGE_SUB(name, delta) ((void)0)
#define PDC_OBS_HIST(name, value) ((void)0)

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
