#include "dist/clock_sync.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "support/check.hpp"

namespace pdc::dist {

namespace {
/// One-way delay: exponential around the mean (always positive).
double draw_delay(double mean_delay, support::Rng& rng) {
  return rng.exponential(1.0 / mean_delay);
}

double max_abs_error_vs(const std::vector<DriftingClock>& clocks,
                        double true_time, double reference) {
  double worst = 0.0;
  for (const auto& clock : clocks) {
    worst = std::max(worst, std::abs(clock.read(true_time) - reference));
  }
  return worst;
}
}  // namespace

SyncResult cristian_sync(std::vector<DriftingClock>& clocks, double true_time,
                         double mean_delay, support::Rng& rng) {
  PDC_CHECK(clocks.size() >= 2);
  SyncResult result;
  const double server_now = clocks[0].read(true_time);
  result.max_error_before = max_abs_error_vs(clocks, true_time, server_now);

  for (std::size_t client = 1; client < clocks.size(); ++client) {
    // Request travels to the server, response travels back.
    const double d_request = draw_delay(mean_delay, rng);
    const double d_response = draw_delay(mean_delay, rng);
    result.messages += 2;
    // Server stamps its clock when the request arrives (true_time+d_req);
    // the client receives it at true_time + d_req + d_resp and estimates
    // "server time now" as stamp + RTT/2.
    const double stamp = clocks[0].read(true_time + d_request);
    const double rtt = d_request + d_response;
    const double estimate = stamp + rtt / 2.0;
    const double local = clocks[client].read(true_time + rtt);
    clocks[client].adjust(estimate - local);
  }

  const double server_after = clocks[0].read(true_time);
  result.max_error_after = max_abs_error_vs(clocks, true_time, server_after);
  return result;
}

namespace {
constexpr int kTagTimeRequest = 60;
constexpr int kTagTimeResponse = 61;

/// The request carries the sender-drawn one-way delay so the server can
/// stamp its clock at the simulated arrival time (the fabric itself is
/// eager; the delay model lives in the payload).
struct TimeRequest {
  double request_delay;
};
}  // namespace

MpSyncResult cristian_sync_mp(mp::Communicator& comm, DriftingClock& clock,
                              double true_time, double mean_delay,
                              support::Rng& rng) {
  const int me = comm.rank();
  const int p = comm.size();
  MpSyncResult result;
  obs::set_trace_thread_name("clocksync.rank", static_cast<std::uint64_t>(me));

  if (me == 0) {
    obs::ScopedSpan span("clocksync.serve");
    for (int served = 0; served + 1 < p; ++served) {
      const mp::Message message = comm.take(mp::kAnySource, kTagTimeRequest);
      const auto request = message.as<TimeRequest>();
      const double stamp = clock.read(true_time + request.request_delay);
      comm.send_value(stamp, message.envelope.source, kTagTimeResponse);
      ++result.messages;
      PDC_OBS_COUNT("pdc.clocksync.served");
    }
    return result;
  }

  obs::ScopedSpan span("clocksync.exchange", static_cast<std::uint64_t>(me));
  const double d_request = draw_delay(mean_delay, rng);
  const double d_response = draw_delay(mean_delay, rng);
  comm.send_value(TimeRequest{d_request}, 0, kTagTimeRequest);
  ++result.messages;
  const double stamp = comm.recv_value<double>(0, kTagTimeResponse);
  const double rtt = d_request + d_response;
  const double estimate = stamp + rtt / 2.0;
  const double local = clock.read(true_time + rtt);
  result.applied_delta = estimate - local;
  clock.adjust(result.applied_delta);
  obs::trace_instant("clocksync.adjust");
  PDC_OBS_COUNT("pdc.clocksync.syncs");
  return result;
}

SyncResult berkeley_sync(std::vector<DriftingClock>& clocks, double true_time,
                         double mean_delay, support::Rng& rng) {
  PDC_CHECK(clocks.size() >= 2);
  SyncResult result;

  // Pre-sync error vs the ensemble average (Berkeley's own reference).
  double sum_before = 0.0;
  for (const auto& clock : clocks) sum_before += clock.read(true_time);
  const double avg_before = sum_before / static_cast<double>(clocks.size());
  result.max_error_before = max_abs_error_vs(clocks, true_time, avg_before);

  // Master polls every slave; RTT/2 compensation on each reading.
  std::vector<double> estimated_offsets(clocks.size(), 0.0);  // vs master
  const double master_now = clocks[0].read(true_time);
  for (std::size_t slave = 1; slave < clocks.size(); ++slave) {
    const double d_request = draw_delay(mean_delay, rng);
    const double d_response = draw_delay(mean_delay, rng);
    result.messages += 2;
    const double reading = clocks[slave].read(true_time + d_request);
    const double compensated = reading + d_response;  // RTT/2-ish correction
    estimated_offsets[slave] = compensated - master_now;
  }

  double average_offset = 0.0;
  for (double offset : estimated_offsets) average_offset += offset;
  average_offset /= static_cast<double>(clocks.size());

  // Send each node its delta to the average (master included).
  for (std::size_t node = 0; node < clocks.size(); ++node) {
    const double delta = average_offset - estimated_offsets[node];
    clocks[node].adjust(delta);
    if (node != 0) ++result.messages;
  }

  double sum_after = 0.0;
  for (const auto& clock : clocks) sum_after += clock.read(true_time);
  const double avg_after = sum_after / static_cast<double>(clocks.size());
  result.max_error_after = max_abs_error_vs(clocks, true_time, avg_after);
  return result;
}

}  // namespace pdc::dist
