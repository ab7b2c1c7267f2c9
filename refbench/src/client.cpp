#include "client.hpp"

#include <chrono>

namespace refbench {

namespace {

// A phase that sees no reply for this long counts its outstanding
// requests as lost and ends, so a wedged server fails the run instead of
// hanging it. Longer than the KV client's own 10 s timeout.
constexpr std::int64_t kStallNs = 20'000'000'000;

}  // namespace

ClosedLoopClient::ClosedLoopClient(net::Network& net, int host,
                                   const std::vector<net::Address>& targets,
                                   std::size_t window)
    : conns_(targets.size()), window_(window) {
  for (std::size_t c = 0; c < targets.size(); ++c) {
    auto socket = net.connect(host, targets[c]);
    if (!socket.is_ok()) {
      conns_[c].dead = true;
      continue;
    }
    conns_[c].socket = std::move(socket).value();
    conns_[c].socket.watch(&ready_, c);
  }
}

ClosedLoopClient::~ClosedLoopClient() {
  for (Conn& conn : conns_) {
    if (!conn.socket.valid()) continue;
    conn.socket.unwatch();
    conn.socket.close();
  }
}

PhaseStats ClosedLoopClient::run(Traffic& traffic, const Phase& phase) {
  PhaseStats stats;
  std::uint64_t next_id = phase.first_id;
  std::uint64_t completed = 0;

  auto lose_all = [&](Conn& conn) {
    stats.lost += conn.inflight.size();
    for (Outstanding& out : conn.inflight) obs::span_end(out.root, true);
    conn.inflight.clear();
    stats.unsent += phase.per_conn - conn.sent;
    conn.sent = phase.per_conn;
    conn.dead = true;
  };

  auto send_next = [&](std::size_t c) {
    Conn& conn = conns_[c];
    Outstanding out;
    out.id = next_id++;
    payload_.clear();
    traffic.make_request(c, out.id, payload_);
    out.start_ns = now_ns();
    wire_.clear();
    if (phase.program_spans) {
      out.root = obs::span_root("request", next_trace_id_++);
      net::MessageCodec::encode_message(payload_, wire_, out.root.context());
    } else {
      net::MessageCodec::encode_message(payload_, wire_);
    }
    if (phase.spans != nullptr) {
      phase.spans->record(out.id, kEncode, out.start_ns, now_ns());
    }
    ++conn.sent;
    ++stats.sent;
    conn.inflight.push_back(std::move(out));
    if (!conn.socket.send(wire_).is_ok()) lose_all(conn);
  };

  stats.start_ns = now_ns();
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    Conn& conn = conns_[c];
    conn.sent = 0;
    if (conn.dead) {
      lose_all(conn);
      continue;
    }
    while (!conn.dead && conn.sent < phase.per_conn &&
           conn.inflight.size() < window_) {
      send_next(c);
    }
  }

  stats.attempted = phase.per_conn * conns_.size();
  std::vector<std::uint64_t> tags;
  std::int64_t last_progress = now_ns();
  while (stats.answered + stats.failed() < stats.attempted) {
    if (now_ns() - last_progress > kStallNs) {
      for (Conn& conn : conns_) {
        if (!conn.dead) lose_all(conn);
      }
      break;
    }
    tags.clear();
    ready_.poll(tags, std::chrono::milliseconds(100));
    for (const std::uint64_t tag : tags) {
      Conn& conn = conns_[tag];
      if (conn.dead) continue;
      const auto drained = conn.socket.try_recv_into(conn.rx);
      for (;;) {
        net::BytesView reply;
        const std::int64_t scan_start =
            phase.spans != nullptr ? now_ns() : 0;
        const auto scan =
            net::MessageCodec::scan_message(conn.rx, conn.off, reply);
        if (scan == net::MessageCodec::Scan::kNeedMore) break;
        if (scan == net::MessageCodec::Scan::kCorrupt ||
            conn.inflight.empty()) {
          lose_all(conn);
          break;
        }
        const std::int64_t end = now_ns();
        Outstanding out = std::move(conn.inflight.front());
        conn.inflight.pop_front();
        const bool ok = traffic.check_reply(tag, reply);
        ok ? ++stats.answered : ++stats.wrong;
        if (phase.latencies != nullptr) {
          phase.latencies->push_back(end - out.start_ns);
        }
        if (phase.spans != nullptr) {
          phase.spans->record(out.id, kScan, scan_start, end);
          phase.spans->record(out.id, kClient, out.start_ns, end);
        }
        obs::span_end(out.root, !ok);
        last_progress = end;
        ++completed;
        if (phase.slice != 0 && completed % phase.slice == 0) {
          phase.slice_ends->push_back(end);
        }
        if (phase.tick_every != 0 && completed % phase.tick_every == 0) {
          phase.tick();
        }
        if (conn.sent < phase.per_conn) send_next(tag);
        if (conn.dead) break;
      }
      if (conn.dead) continue;
      if (conn.off == conn.rx.size()) {
        conn.rx.clear();
        conn.off = 0;
      } else if (conn.off >= 4096 && conn.off * 2 >= conn.rx.size()) {
        conn.rx.erase(conn.rx.begin(),
                      conn.rx.begin() + static_cast<std::ptrdiff_t>(conn.off));
        conn.off = 0;
      }
      if (drained.closed) {
        lose_all(conn);
        continue;
      }
      conn.socket.rearm();
    }
  }
  stats.end_ns = now_ns();
  return stats;
}

}  // namespace refbench
