// The benchmark's closed-loop client: one thread, a few connections, each
// with a fixed window of requests outstanding. It blocks in
// ReadySet::poll while nothing is readable, so it takes no processor time
// from the servers while it waits.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "net/framing.hpp"
#include "net/network.hpp"
#include "obs/span.hpp"
#include "refbench.hpp"

namespace refbench {

/// What a workload sends and how its replies are checked. Replies on a
/// connection arrive in request order, so check_reply() always answers
/// for the oldest outstanding request of `conn`.
class Traffic {
 public:
  virtual ~Traffic() = default;
  /// Appends the next request of `conn`, tagged with request `id`, to
  /// `payload`.
  virtual void make_request(std::size_t conn, std::uint64_t id,
                            net::Bytes& payload) = 0;
  /// True when `reply` is exactly the right answer.
  virtual bool check_reply(std::size_t conn, net::BytesView reply) = 0;
};

struct Phase {
  std::uint64_t per_conn = 0;       // requests per connection
  std::uint64_t first_id = 0;       // ids run first_id, first_id + 1, ...
  std::vector<std::int64_t>* latencies = nullptr;  // send -> reply, ns
  SpanTable* spans = nullptr;       // record client-side spans
  bool program_spans = false;       // every frame carries an obs SpanContext
  std::uint64_t tick_every = 0;     // call `tick` every N completions
  std::function<void()> tick;
  std::uint64_t slice = 0;          // note the time every N completions
  std::vector<std::int64_t>* slice_ends = nullptr;
};

struct PhaseStats {
  std::uint64_t attempted = 0;  // per_conn x connections
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;  // correct replies
  std::uint64_t wrong = 0;     // replies that failed the check
  std::uint64_t lost = 0;      // sent, no reply: connection closed or stalled
  std::uint64_t unsent = 0;    // never sent: the connection was already gone
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  [[nodiscard]] std::uint64_t failed() const { return wrong + lost + unsent; }
  /// The request ledger: every request sent was answered or failed.
  [[nodiscard]] bool balanced() const {
    return sent == answered + wrong + lost && attempted == sent + unsent;
  }
};

class ClosedLoopClient {
 public:
  /// Opens one connection from `host` per entry of `targets`; requests on
  /// a connection that failed to open count as failed.
  ClosedLoopClient(net::Network& net, int host,
                   const std::vector<net::Address>& targets,
                   std::size_t window);
  ~ClosedLoopClient();
  ClosedLoopClient(const ClosedLoopClient&) = delete;
  ClosedLoopClient& operator=(const ClosedLoopClient&) = delete;

  [[nodiscard]] std::size_t connections() const { return conns_.size(); }

  /// Sends phase.per_conn requests on every connection, keeping `window`
  /// outstanding on each, and returns when all are answered or lost.
  PhaseStats run(Traffic& traffic, const Phase& phase);

 private:
  struct Outstanding {
    std::uint64_t id = 0;
    std::int64_t start_ns = 0;
    obs::ActiveSpan root;
  };
  struct Conn {
    net::StreamSocket socket;
    net::Bytes rx;
    std::size_t off = 0;
    std::deque<Outstanding> inflight;
    std::uint64_t sent = 0;
    bool dead = false;
  };

  net::ReadySet ready_;
  std::vector<Conn> conns_;
  std::size_t window_;
  std::uint64_t next_trace_id_ = 1;
  net::Bytes payload_;
  net::Bytes wire_;
};

}  // namespace refbench
