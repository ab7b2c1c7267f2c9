// Tests for pdc::net: datagram and stream semantics under impairments,
// checksums/integrity, framing, ARQ correctness under loss, client-server
// threading models, RPC dispatch.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "net/arq.hpp"
#include "net/checksum.hpp"
#include "net/framing.hpp"
#include "net/network.hpp"
#include "net/server.hpp"
#include "support/rng.hpp"

namespace {

using namespace pdc::net;
using namespace std::chrono_literals;
using pdc::support::StatusCode;

NetConfig net_at(double latency_ms) {
  NetConfig config;
  config.latency_ms = latency_ms;
  return config;
}

NetConfig fast_net() { return net_at(0.01); }

// The fabric's two stream delivery paths: at 0 ms the sender's thread
// delivers, with any latency the dispatcher does. Suites that touch the
// readiness plane or the servers run on both.
const auto kBothDelays = ::testing::Values(0.0, 0.01);

std::string delay_name(double latency_ms) {
  return latency_ms == 0.0 ? "zero_delay" : "delayed";
}

Bytes make_data(std::size_t n, std::uint64_t seed = 1) {
  pdc::support::Rng rng(seed);
  Bytes data(n);
  for (auto& b : data) b = static_cast<std::byte>(rng.next_u64() & 0xff);
  return data;
}

// ---------------------------------------------------------------- datagrams

TEST(Datagram, DeliversPayloadAndSource) {
  Network net(2, fast_net());
  auto a = net.open_datagram(0, 100);
  auto b = net.open_datagram(1, 200);
  a->send_to(b->local(), to_bytes("ping"));
  const auto dgram = b->recv_for(5s);
  ASSERT_TRUE(dgram.is_ok());
  EXPECT_EQ(to_string(dgram.value().payload), "ping");
  EXPECT_EQ(dgram.value().from, a->local());
}

TEST(Datagram, RecvTimesOutWhenNothingArrives) {
  Network net(1, fast_net());
  auto sock = net.open_datagram(0, 1);
  EXPECT_EQ(sock->recv_for(20ms).status().code(), StatusCode::kTimeout);
}

TEST(Datagram, LossDropsSomeDatagrams) {
  NetConfig config = fast_net();
  config.loss = 0.5;
  config.seed = 7;
  Network net(2, config);
  auto tx = net.open_datagram(0, 1);
  auto rx = net.open_datagram(1, 2);
  for (int i = 0; i < 200; ++i) tx->send_to(rx->local(), to_bytes("x"));
  int received = 0;
  while (rx->recv_for(20ms).is_ok()) ++received;
  EXPECT_GT(received, 50);
  EXPECT_LT(received, 150);
  EXPECT_EQ(net.dropped(), 200u - static_cast<unsigned>(received));
}

TEST(Datagram, DuplicationDeliversExtras) {
  NetConfig config = fast_net();
  config.duplicate = 1.0;  // every datagram twice
  Network net(2, config);
  auto tx = net.open_datagram(0, 1);
  auto rx = net.open_datagram(1, 2);
  for (int i = 0; i < 10; ++i) tx->send_to(rx->local(), to_bytes("d"));
  int received = 0;
  while (rx->recv_for(20ms).is_ok()) ++received;
  EXPECT_EQ(received, 20);
}

TEST(Datagram, SendToUnboundAddressIsSilentlyDropped) {
  Network net(2, fast_net());
  auto tx = net.open_datagram(0, 1);
  tx->send_to(Address{1, 999}, to_bytes("void"));
  EXPECT_EQ(tx->recv_for(20ms).status().code(), StatusCode::kTimeout);
}

TEST(Datagram, DoubleBindIsACheckFailure) {
  Network net(1, fast_net());
  auto first = net.open_datagram(0, 5);
  EXPECT_THROW((void)net.open_datagram(0, 5), pdc::support::CheckFailure);
}

TEST(Datagram, PortFreedAfterSocketDestroyed) {
  Network net(1, fast_net());
  { auto temp = net.open_datagram(0, 5); }
  EXPECT_NO_THROW((void)net.open_datagram(0, 5));
}

// ------------------------------------------------------------------ streams

TEST(Stream, ConnectAcceptRoundTrip) {
  Network net(2, fast_net());
  auto listener = net.listen(1, 80);
  std::thread server([&] {
    auto conn = listener->accept();
    ASSERT_TRUE(conn.is_ok());
    Bytes request;
    EXPECT_EQ(conn.value().recv_into(request).bytes, 5u);
    EXPECT_EQ(to_string(request), "hello");
    ASSERT_TRUE(conn.value().send_text("world").is_ok());
    conn.value().close();
  });
  auto client = net.connect(0, Address{1, 80});
  ASSERT_TRUE(client.is_ok());
  ASSERT_TRUE(client.value().send_text("hello").is_ok());
  Bytes reply;
  EXPECT_EQ(client.value().recv_into(reply).bytes, 5u);
  EXPECT_EQ(to_string(reply), "world");
  server.join();
}

TEST(Stream, ReliableInOrderUnderLossyConfig) {
  // Stream traffic must be unaffected by the datagram impairments.
  NetConfig config = fast_net();
  config.loss = 0.9;
  config.jitter_ms = 1.0;
  Network net(2, config);
  auto listener = net.listen(1, 80);
  std::thread server([&] {
    auto conn = listener->accept().value();
    Bytes all;
    while (!conn.recv_into(all).closed) {
    }
    EXPECT_EQ(all.size(), 100u * 64);
    // In-order: the i-th byte encodes i/64.
    for (std::size_t i = 0; i < all.size(); ++i) {
      ASSERT_EQ(static_cast<unsigned>(all[i]), (i / 64) % 256) << i;
    }
  });
  auto client = net.connect(0, Address{1, 80}).value();
  for (unsigned i = 0; i < 100; ++i) {
    Bytes chunk(64, static_cast<std::byte>(i % 256));
    ASSERT_TRUE(client.send(chunk).is_ok());
  }
  client.close();
  server.join();
}

// A blocking reader waits for each chunk in turn, then sees the close
// behind them, with nothing more to read.
TEST(Stream, RecvIntoCollectsBothChunksThenSeesTheClose) {
  Network net(2, fast_net());
  auto listener = net.listen(1, 80);
  std::thread server([&] {
    auto conn = listener->accept().value();
    conn.send(make_data(10));
    std::this_thread::sleep_for(10ms);
    conn.send(make_data(10, 2));
    conn.close();
  });
  auto client = net.connect(0, Address{1, 80}).value();
  Bytes data;
  bool closed = false;
  while (data.size() < 20 && !closed) closed = client.recv_into(data).closed;
  EXPECT_EQ(data.size(), 20u);
  Bytes expect = make_data(10);
  const Bytes second = make_data(10, 2);
  expect.insert(expect.end(), second.begin(), second.end());
  EXPECT_EQ(data, expect);
  const auto end = client.recv_into(data);
  EXPECT_TRUE(end.closed);
  EXPECT_EQ(end.bytes, 0u);
  server.join();
}

TEST(Stream, ConnectToNothingFails) {
  Network net(2, fast_net());
  EXPECT_EQ(net.connect(0, Address{1, 4242}).status().code(),
            StatusCode::kNotFound);
}

TEST(Stream, ListenerShutdownUnblocksAccept) {
  Network net(1, fast_net());
  auto listener = net.listen(0, 80);
  std::thread acceptor([&] {
    EXPECT_EQ(listener->accept().status().code(), StatusCode::kClosed);
  });
  std::this_thread::sleep_for(10ms);
  listener->shutdown();
  acceptor.join();
}

// ------------------------------------------------------- checksums/security

TEST(Checksum, Fletcher16KnownValuesAndSensitivity) {
  EXPECT_EQ(fletcher16(to_bytes("abcde")), 0xC8F0);
  EXPECT_EQ(fletcher16(to_bytes("abcdef")), 0x2057);
  EXPECT_NE(fletcher16(to_bytes("abcdef")), fletcher16(to_bytes("abcdeg")));
}

TEST(Checksum, FnvDiffersAcrossInputs) {
  EXPECT_NE(fnv1a(to_bytes("a")), fnv1a(to_bytes("b")));
  EXPECT_EQ(fnv1a(to_bytes("same")), fnv1a(to_bytes("same")));
}

TEST(Integrity, KeyedTagDetectsTamperingAndWrongKey) {
  const Bytes msg = to_bytes("transfer 100 to alice");
  const std::uint64_t key = 0xdeadbeef;
  const auto tag = keyed_tag(key, msg);
  EXPECT_TRUE(verify_tag(key, msg, tag));
  EXPECT_FALSE(verify_tag(key, to_bytes("transfer 900 to alice"), tag));
  EXPECT_FALSE(verify_tag(key + 1, msg, tag));
}

TEST(Integrity, XorCipherRoundTripsAndScrambles) {
  const Bytes msg = to_bytes("secret payload");
  const auto encrypted = xor_cipher(42, msg);
  EXPECT_NE(encrypted, msg);
  EXPECT_EQ(xor_cipher(42, encrypted), msg);
  EXPECT_NE(xor_cipher(43, encrypted), msg);  // wrong key garbles
}

// ------------------------------------------------------------------ framing

TEST(Framing, MessageCodecRoundTrip) {
  Network net(2, fast_net());
  auto listener = net.listen(1, 80);
  std::thread server([&] {
    auto conn = listener->accept().value();
    RxBuffer rx;
    for (int i = 0; i < 3; ++i) {
      auto msg = MessageCodec::recv_message(conn, rx);
      ASSERT_TRUE(msg.is_ok());
      MessageCodec::send_message(conn, msg.value());  // echo
    }
    conn.close();
  });
  auto client = net.connect(0, Address{1, 80}).value();
  RxBuffer rx;
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{5000}}) {
    const Bytes msg = make_data(n, n + 1);
    ASSERT_TRUE(MessageCodec::send_message(client, msg).is_ok());
    auto echo = MessageCodec::recv_message(client, rx);
    ASSERT_TRUE(echo.is_ok());
    EXPECT_EQ(echo.value(), msg);
  }
  server.join();
}

TEST(Framing, FrameEncodeDecodeRoundTrip) {
  Frame frame;
  frame.type = Frame::Type::kData;
  frame.seq = 12345;
  frame.final = true;
  frame.payload = make_data(100);
  const auto decoded = Frame::decode(frame.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, Frame::Type::kData);
  EXPECT_EQ(decoded->seq, 12345u);
  EXPECT_TRUE(decoded->final);
  EXPECT_EQ(decoded->payload, frame.payload);
}

TEST(Framing, CorruptedFrameRejected) {
  Frame frame;
  frame.payload = make_data(64);
  Bytes wire = frame.encode();
  wire[10] ^= std::byte{0xff};
  EXPECT_FALSE(Frame::decode(wire).has_value());
  Bytes truncated(wire.begin(), wire.begin() + 4);
  EXPECT_FALSE(Frame::decode(truncated).has_value());
}

// ---------------------------------------------------------------------- ARQ

class ArqLossTest : public ::testing::TestWithParam<double> {};

TEST_P(ArqLossTest, StopAndWaitDeliversExactly) {
  NetConfig config = fast_net();
  config.loss = GetParam();
  config.seed = 11;
  Network net(2, config);
  auto tx = net.open_datagram(0, 1);
  auto rx = net.open_datagram(1, 2);
  const Bytes data = make_data(16 * 1024);

  std::thread receiver_thread([&] {
    auto received = arq_receive(*rx);
    ASSERT_TRUE(received.is_ok());
    EXPECT_EQ(received.value(), data);
  });
  auto stats = arq_send_stop_and_wait(*tx, rx->local(), data, {});
  receiver_thread.join();
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(stats.value().bytes_delivered, data.size());
  if (GetParam() == 0.0) {
    EXPECT_EQ(stats.value().retransmissions, 0u);
    EXPECT_DOUBLE_EQ(stats.value().efficiency(), 1.0);
  } else {
    EXPECT_GT(stats.value().retransmissions, 0u);
  }
}

TEST_P(ArqLossTest, GoBackNDeliversExactly) {
  NetConfig config = fast_net();
  config.loss = GetParam();
  config.seed = 13;
  Network net(2, config);
  auto tx = net.open_datagram(0, 1);
  auto rx = net.open_datagram(1, 2);
  const Bytes data = make_data(16 * 1024, 99);

  std::thread receiver_thread([&] {
    auto received = arq_receive(*rx);
    ASSERT_TRUE(received.is_ok());
    EXPECT_EQ(received.value(), data);
  });
  ArqConfig arq;
  arq.window = 8;
  auto stats = arq_send_go_back_n(*tx, rx->local(), data, arq);
  receiver_thread.join();
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(stats.value().bytes_delivered, data.size());
}

TEST_P(ArqLossTest, SelectiveRepeatDeliversExactly) {
  NetConfig config = fast_net();
  config.loss = GetParam();
  config.seed = 17;
  Network net(2, config);
  auto tx = net.open_datagram(0, 1);
  auto rx = net.open_datagram(1, 2);
  const Bytes data = make_data(16 * 1024, 55);

  std::thread receiver_thread([&] {
    auto received = arq_receive_selective(*rx);
    ASSERT_TRUE(received.is_ok());
    EXPECT_EQ(received.value(), data);
  });
  ArqConfig arq;
  arq.window = 8;
  auto stats = arq_send_selective_repeat(*tx, rx->local(), data, arq);
  receiver_thread.join();
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(stats.value().bytes_delivered, data.size());
  if (GetParam() == 0.0) EXPECT_EQ(stats.value().retransmissions, 0u);
}

INSTANTIATE_TEST_SUITE_P(LossRates, ArqLossTest,
                         ::testing::Values(0.0, 0.05, 0.2),
                         [](const auto& info) {
                           return "loss" + std::to_string(static_cast<int>(
                                               info.param * 100));
                         });

TEST(Arq, SelectiveRepeatRetransmitsLessThanGoBackN) {
  // At meaningful loss, SR resends only the lost frames while GBN resends
  // whole windows — the defining efficiency difference.
  NetConfig config = fast_net();
  config.loss = 0.1;
  config.seed = 23;
  const Bytes data = make_data(32 * 1024, 77);
  ArqConfig arq;
  arq.window = 16;

  Network net_gbn(2, config);
  auto tx1 = net_gbn.open_datagram(0, 1);
  auto rx1 = net_gbn.open_datagram(1, 2);
  std::thread r1([&] { (void)arq_receive(*rx1); });
  const auto gbn = arq_send_go_back_n(*tx1, rx1->local(), data, arq);
  r1.join();

  Network net_sr(2, config);
  auto tx2 = net_sr.open_datagram(0, 1);
  auto rx2 = net_sr.open_datagram(1, 2);
  std::thread r2([&] { (void)arq_receive_selective(*rx2); });
  const auto sr = arq_send_selective_repeat(*tx2, rx2->local(), data, arq);
  r2.join();

  ASSERT_TRUE(gbn.is_ok());
  ASSERT_TRUE(sr.is_ok());
  EXPECT_LT(sr.value().retransmissions, gbn.value().retransmissions);
  EXPECT_GT(sr.value().efficiency(), gbn.value().efficiency());
}

TEST(Arq, SelectiveRepeatZeroBytes) {
  Network net(2, fast_net());
  auto tx = net.open_datagram(0, 1);
  auto rx = net.open_datagram(1, 2);
  std::thread receiver([&] {
    auto received = arq_receive_selective(*rx);
    ASSERT_TRUE(received.is_ok());
    EXPECT_TRUE(received.value().empty());
  });
  EXPECT_TRUE(arq_send_selective_repeat(*tx, rx->local(), {}, {}).is_ok());
  receiver.join();
}

TEST(Arq, GoBackNFasterThanStopAndWaitOnLatency) {
  // With 1ms one-way latency, stop-and-wait pays an RTT per frame while a
  // window of 16 pipelines them.
  NetConfig config;
  config.latency_ms = 1.0;
  Network net(2, config);
  const Bytes data = make_data(32 * 1024);

  auto run = [&](bool gbn) {
    auto tx = net.open_datagram(0, gbn ? 11 : 21);
    auto rx = net.open_datagram(1, gbn ? 12 : 22);
    std::thread receiver_thread([&] { (void)arq_receive(*rx); });
    ArqConfig arq;
    arq.window = 16;
    arq.timeout = 50ms;
    auto stats = gbn ? arq_send_go_back_n(*tx, rx->local(), data, arq)
                     : arq_send_stop_and_wait(*tx, rx->local(), data, arq);
    receiver_thread.join();
    return stats.value().seconds;
  };
  const double t_saw = run(false);
  const double t_gbn = run(true);
  EXPECT_LT(t_gbn * 2, t_saw);  // at least 2x from pipelining
}

TEST(Arq, ZeroByteTransferCompletes) {
  Network net(2, fast_net());
  auto tx = net.open_datagram(0, 1);
  auto rx = net.open_datagram(1, 2);
  std::thread receiver_thread([&] {
    auto received = arq_receive(*rx);
    ASSERT_TRUE(received.is_ok());
    EXPECT_TRUE(received.value().empty());
  });
  auto stats = arq_send_stop_and_wait(*tx, rx->local(), {}, {});
  receiver_thread.join();
  EXPECT_TRUE(stats.is_ok());
}

TEST(Arq, SenderGivesUpWithoutReceiver) {
  Network net(2, fast_net());
  auto tx = net.open_datagram(0, 1);
  ArqConfig config;
  config.timeout = 1ms;
  config.max_retries = 3;
  const auto stats =
      arq_send_stop_and_wait(*tx, Address{1, 999}, make_data(100), config);
  EXPECT_EQ(stats.status().code(), StatusCode::kTimeout);
}

// ---------------------------------------------------------------- readiness

class ReadySetAtDelay : public ::testing::TestWithParam<double> {};

TEST_P(ReadySetAtDelay, WatchSignalsOnceUntilRearm) {
  Network net(2, net_at(GetParam()));
  auto listener = net.listen(0, 80);
  auto client = net.connect(1, Address{0, 80});
  ASSERT_TRUE(client.is_ok());
  auto accepted = listener->accept();
  ASSERT_TRUE(accepted.is_ok());
  StreamSocket server = std::move(accepted).value();

  ReadySet ready;
  std::vector<std::uint64_t> tags;
  server.watch(&ready, 42);
  EXPECT_EQ(ready.poll(tags, 0ms), 0u);  // nothing buffered yet

  ASSERT_TRUE(client.value().send(to_bytes("a")).is_ok());
  tags.clear();
  ASSERT_EQ(ready.poll(tags, 1000ms), 1u);
  EXPECT_EQ(tags[0], 42u);

  // The tag is enqueued at most once between rearm()s: more data arriving
  // before the consumer rearms does not re-signal.
  ASSERT_TRUE(client.value().send(to_bytes("b")).is_ok());
  std::this_thread::sleep_for(5ms);
  tags.clear();
  EXPECT_EQ(ready.poll(tags, 0ms), 0u);

  Bytes buffer;
  const auto drained = server.try_recv_into(buffer);
  EXPECT_EQ(drained.bytes, 2u);
  EXPECT_FALSE(drained.closed);
  EXPECT_EQ(to_string(buffer), "ab");

  // Drained and rearmed: quiet until new bytes or a close arrive.
  server.rearm();
  tags.clear();
  EXPECT_EQ(ready.poll(tags, 0ms), 0u);
  client.value().close();
  tags.clear();
  ASSERT_EQ(ready.poll(tags, 1000ms), 1u);
  buffer.clear();
  EXPECT_TRUE(server.try_recv_into(buffer).closed);
  server.unwatch();
}

TEST_P(ReadySetAtDelay, RearmResignalsWhenDataIsStillPending) {
  Network net(2, net_at(GetParam()));
  auto listener = net.listen(0, 80);
  auto client = net.connect(1, Address{0, 80});
  ASSERT_TRUE(client.is_ok());
  StreamSocket server = std::move(listener->accept()).value();

  ReadySet ready;
  std::vector<std::uint64_t> tags;
  server.watch(&ready, 7);
  ASSERT_TRUE(client.value().send(to_bytes("x")).is_ok());
  ASSERT_EQ(ready.poll(tags, 1000ms), 1u);

  // Consumer drains, then more bytes arrive before it rearms. The tag is
  // still queued, so their arrival does not signal; rearm() must re-signal
  // for them at once — no lost wakeup.
  Bytes buffer;
  EXPECT_EQ(server.try_recv_into(buffer).bytes, 1u);
  ASSERT_TRUE(client.value().send(to_bytes("y")).is_ok());
  std::this_thread::sleep_for(5ms);
  tags.clear();
  EXPECT_EQ(ready.poll(tags, 0ms), 0u);
  server.rearm();
  tags.clear();
  ASSERT_EQ(ready.poll(tags, 1000ms), 1u);
  EXPECT_EQ(tags[0], 7u);
  EXPECT_EQ(server.try_recv_into(buffer).bytes, 1u);
  EXPECT_EQ(to_string(buffer), "xy");
  server.unwatch();
}

// A bounded poll takes only the oldest tags, in arrival order, and leaves
// the rest queued for the next poll; an unbounded one takes them all.
TEST_P(ReadySetAtDelay, BoundedPollTakesTheOldestAndLeavesTheRest) {
  Network net(2, net_at(GetParam()));
  auto listener = net.listen(0, 80);
  ReadySet ready;
  std::vector<StreamSocket> clients;
  std::vector<StreamSocket> servers;
  for (std::uint64_t tag = 1; tag <= 3; ++tag) {
    auto client = net.connect(1, Address{0, 80});
    ASSERT_TRUE(client.is_ok());
    clients.push_back(std::move(client).value());
    servers.push_back(std::move(listener->accept()).value());
    servers.back().watch(&ready, tag);
  }
  for (std::size_t i = 0; i < clients.size(); ++i) {
    ASSERT_TRUE(clients[i].send(to_bytes("x")).is_ok());
    while (ready.size() < i + 1) std::this_thread::yield();
  }
  std::vector<std::uint64_t> tags;
  EXPECT_EQ(ready.poll(tags, 1000ms, 2), 2u);
  EXPECT_EQ(tags, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(ready.size(), 1u);
  ready.push(4);
  EXPECT_EQ(ready.poll(tags, 1000ms), 2u);
  EXPECT_EQ(tags, (std::vector<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(ready.size(), 0u);
  for (auto& server : servers) server.unwatch();
}

INSTANTIATE_TEST_SUITE_P(Delays, ReadySetAtDelay, kBothDelays,
                         [](const auto& info) { return delay_name(info.param); });

TEST(Stream, ZeroDelayBytesVisibleWhenSendReturns) {
  // At 0 ms nothing is queued: when send() returns the bytes are in the
  // peer's buffer and a watching ReadySet already holds the tag; when
  // close() returns the peer sees the FIN behind the data.
  Network net(2, net_at(0.0));
  auto listener = net.listen(1, 80);
  auto client = net.connect(0, Address{1, 80});
  ASSERT_TRUE(client.is_ok());
  StreamSocket server = std::move(listener->accept()).value();
  ReadySet ready;
  server.watch(&ready, 3);

  std::vector<std::uint64_t> tags;
  Bytes got;
  for (int i = 0; i < 200; ++i) {
    const Bytes chunk = make_data(1 + i % 64, static_cast<std::uint64_t>(i));
    ASSERT_TRUE(client.value().send(chunk).is_ok());
    // Read first, with no system call in between: a dispatcher hop would
    // not have delivered yet.
    got.clear();
    const auto drained = server.try_recv_into(got);
    ASSERT_EQ(got, chunk) << "send " << i;
    EXPECT_FALSE(drained.closed);
    tags.clear();
    ASSERT_EQ(ready.poll(tags, 0ms), 1u) << "send " << i;
    EXPECT_EQ(tags[0], 3u);
    server.rearm();
  }

  ASSERT_TRUE(client.value().send(to_bytes("last")).is_ok());
  client.value().close();
  got.clear();
  const auto drained = server.try_recv_into(got);
  EXPECT_EQ(to_string(got), "last");
  EXPECT_TRUE(drained.closed);
  EXPECT_EQ(client.value().send(to_bytes("late")).code(), StatusCode::kClosed);
  server.unwatch();
}

TEST(Stream, ConnectAsyncReportsMissingListenerInline) {
  Network net(2, fast_net());
  bool called = false;
  net.connect_async(0, Address{1, 9},
                    [&](pdc::support::Result<StreamSocket> result) {
                      called = true;
                      EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
                    });
  EXPECT_TRUE(called);
}

TEST(Stream, ConnectAsyncCompletesOffThread) {
  Network net(2, fast_net());
  auto listener = net.listen(1, 7);
  std::promise<pdc::support::Result<StreamSocket>> done;
  net.connect_async(0, Address{1, 7},
                    [&](pdc::support::Result<StreamSocket> result) {
                      done.set_value(std::move(result));
                    });
  auto client = done.get_future().get();
  ASSERT_TRUE(client.is_ok());
  auto server = listener->accept();
  ASSERT_TRUE(server.is_ok());
  ASSERT_TRUE(client.value().send(to_bytes("hi")).is_ok());
  Bytes got;
  EXPECT_EQ(server.value().recv_into(got).bytes, 2u);
  EXPECT_EQ(to_string(got), "hi");
}

TEST(Stream, ImpairedStreamStaysReliableAndOrdered) {
  NetConfig config = fast_net();
  config.impair_streams = true;
  config.jitter_ms = 2.0;  // without an injector, jitter supplies the delays
  config.seed = 42;
  Network net(2, config);
  auto listener = net.listen(1, 5);
  auto client = net.connect(0, Address{1, 5});
  ASSERT_TRUE(client.is_ok());
  StreamSocket server = std::move(listener->accept()).value();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        client.value().send(to_bytes("m" + std::to_string(i) + ";")).is_ok());
  }
  // Reliable in-order delivery even though each chunk drew its own delay:
  // the per-direction due-time clamp forbids overtaking.
  Bytes got;
  while (got.size() < 4 * 50 - 60) {  // enough bytes that order would break
    ASSERT_FALSE(server.recv_into(got).closed);
  }
  const std::string all = to_string(got);
  std::string expect;
  for (int i = 0; expect.size() < all.size(); ++i) {
    expect += "m" + std::to_string(i) + ";";
  }
  EXPECT_EQ(all, expect.substr(0, all.size()));
}

// ------------------------------------------------- zero-copy frame scanning

TEST(Framing, ScanMessageParsesFramesInPlace) {
  Bytes wire;
  MessageCodec::encode_message(to_bytes("alpha"), wire);
  Bytes second;
  MessageCodec::encode_message(to_bytes("beta"), second);
  wire.insert(wire.end(), second.begin(), second.end());

  std::size_t offset = 0;
  BytesView view{};
  ASSERT_EQ(MessageCodec::scan_message(wire, offset, view),
            MessageCodec::Scan::kFrame);
  EXPECT_EQ(to_string(view.to_owned()), "alpha");
  ASSERT_EQ(MessageCodec::scan_message(wire, offset, view),
            MessageCodec::Scan::kFrame);
  EXPECT_EQ(to_string(view.to_owned()), "beta");
  EXPECT_EQ(MessageCodec::scan_message(wire, offset, view),
            MessageCodec::Scan::kNeedMore);
  EXPECT_EQ(offset, wire.size());
}

TEST(Framing, ScanMessageNeedsWholeHeaderAndBody) {
  Bytes wire;
  MessageCodec::encode_message(to_bytes("payload"), wire);
  BytesView view{};
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    Bytes partial(wire.begin(), wire.begin() + static_cast<long>(cut));
    std::size_t offset = 0;
    EXPECT_EQ(MessageCodec::scan_message(partial, offset, view),
              MessageCodec::Scan::kNeedMore);
    EXPECT_EQ(offset, 0u);
  }
}

TEST(Framing, ScanMessageFlagsCorruption) {
  Bytes wire;
  MessageCodec::encode_message(to_bytes("payload"), wire);
  wire.back() ^= std::byte{0x01};
  std::size_t offset = 0;
  BytesView view{};
  EXPECT_EQ(MessageCodec::scan_message(wire, offset, view),
            MessageCodec::Scan::kCorrupt);
}

// ------------------------------------------------------------ client-server

class ServerModelTest
    : public ::testing::TestWithParam<std::tuple<ThreadingModel, double>> {
 protected:
  [[nodiscard]] NetConfig net_config() const {
    return net_at(std::get<1>(GetParam()));
  }
  [[nodiscard]] ServerConfig server_config() const {
    ServerConfig config;
    config.model = std::get<0>(GetParam());
    config.workers = 3;
    return config;
  }
};

TEST_P(ServerModelTest, EchoServesConcurrentClients) {
  Network net(4, net_config());
  Server server(net, 0, 80,
                [](const Bytes& request) { return request; }, server_config());

  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int c = 1; c <= 3; ++c) {
    clients.emplace_back([&, c] {
      Client client(net, c);
      ASSERT_TRUE(client.connect(server.address()).is_ok());
      for (int i = 0; i < 20; ++i) {
        const std::string msg = "c" + std::to_string(c) + "#" + std::to_string(i);
        auto reply = client.call_text(msg);
        ASSERT_TRUE(reply.is_ok());
        EXPECT_EQ(reply.value(), msg);
      }
      client.close();
      ++ok;
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), 3);
  EXPECT_EQ(server.requests_served(), 60u);
  server.stop();
}

TEST_P(ServerModelTest, ViewHandlerEchoes) {
  Network net(3, net_config());
  ServerConfig config = server_config();
  config.view_handler = [](BytesView request) { return request.to_owned(); };
  Server server(net, 0, 80, nullptr, config);
  Client client(net, 1);
  ASSERT_TRUE(client.connect(server.address()).is_ok());
  for (int i = 0; i < 10; ++i) {
    const std::string msg = "zero-copy#" + std::to_string(i);
    auto reply = client.call_text(msg);
    ASSERT_TRUE(reply.is_ok());
    EXPECT_EQ(reply.value(), msg);
  }
  client.close();
  server.stop();
  EXPECT_EQ(server.requests_served(), 10u);
}

// Returning true from the raw handler suppresses the reply: the handler
// owns the socket's response schedule, and sees the request in place. It
// can also write a broken reply, which is how the client end's errors are
// driven: a flipped checksum byte and an oversized length word are
// kAborted (the latter at once, no body ever follows), a reply torn by
// the server's close is kClosed, and a Client that reconnects after any
// of them reads the new connection's reply, not the old bytes.
TEST_P(ServerModelTest, RawHandlerCanSuppressReplies) {
  Network net(2, net_config());
  ServerConfig config = server_config();
  config.raw_handler = [](BytesView request, StreamSocket& socket) {
    const std::string text = to_string(request.to_owned());
    Bytes reply;
    MessageCodec::encode_message(to_bytes("raw:" + text), reply);
    if (text == "flip") reply[4] ^= std::byte{0x01};  // checksum, low byte
    if (text == "huge") {  // length word ~2 GB, far above kMaxMessage
      reply[3] = std::byte{0x7f};
      reply.resize(MessageCodec::kHeaderBytes);
    }
    if (text == "torn") reply.resize(MessageCodec::kHeaderBytes + 2);
    (void)socket.send(reply);
    if (text == "torn") socket.close();
    return true;
  };
  Server server(net, 0, 80, [](const Bytes& b) { return b; }, config);
  Client client(net, 1);
  ASSERT_TRUE(client.connect(server.address()).is_ok());
  auto reply = client.call_text("ignored");
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(reply.value(), "raw:ignored");
  for (const auto& [request, code] :
       {std::pair{"flip", StatusCode::kAborted},
        std::pair{"huge", StatusCode::kAborted},
        std::pair{"torn", StatusCode::kClosed}}) {
    EXPECT_EQ(client.call_text(request).status().code(), code) << request;
    client.close();
    ASSERT_TRUE(client.connect(server.address()).is_ok());
    reply = client.call_text("ignored");
    ASSERT_TRUE(reply.is_ok()) << "after " << request;
    EXPECT_EQ(reply.value(), "raw:ignored");
  }
  client.close();
  server.stop();
  EXPECT_EQ(server.requests_served(), 7u);
}

// However the stream splits the frames — three in one send, one torn
// across two sends with a pause between — every model answers them in
// order, then closes the connection at a corrupt frame.
TEST_P(ServerModelTest, ServesPipelinedAndSplitFramesThenClosesOnCorruption) {
  Network net(2, net_config());
  Server server(net, 0, 80, [](const Bytes& b) { return b; }, server_config());
  auto connected = net.connect(1, server.address());
  ASSERT_TRUE(connected.is_ok());
  StreamSocket socket = std::move(connected).value();

  Bytes three;
  for (const char* msg : {"one", "two", "three"}) {
    MessageCodec::encode_message(to_bytes(msg), three);
  }
  ASSERT_TRUE(socket.send(three).is_ok());
  Bytes fourth;
  MessageCodec::encode_message(to_bytes("four"), fourth);
  // Cut inside the payload: the header parses, the body has to wait.
  const auto cut = static_cast<std::ptrdiff_t>(MessageCodec::kHeaderBytes + 2);
  ASSERT_TRUE(socket.send(Bytes(fourth.begin(), fourth.begin() + cut)).is_ok());
  std::this_thread::sleep_for(20ms);
  ASSERT_TRUE(socket.send(Bytes(fourth.begin() + cut, fourth.end())).is_ok());
  Bytes corrupt;
  MessageCodec::encode_message(to_bytes("five"), corrupt);
  corrupt.back() ^= std::byte{0x01};
  ASSERT_TRUE(socket.send(corrupt).is_ok());

  RxBuffer rx;
  for (const char* msg : {"one", "two", "three", "four"}) {
    auto reply = MessageCodec::recv_message(socket, rx);
    ASSERT_TRUE(reply.is_ok());
    EXPECT_EQ(to_string(reply.value()), msg);
  }
  EXPECT_EQ(MessageCodec::recv_message(socket, rx).status().code(),
            StatusCode::kClosed);
  EXPECT_EQ(server.requests_served(), 4u);
  socket.close();
  server.stop();
}

INSTANTIATE_TEST_SUITE_P(
    Models, ServerModelTest,
    ::testing::Combine(::testing::Values(ThreadingModel::kThreadPerConnection,
                                         ThreadingModel::kWorkerPool,
                                         ThreadingModel::kEventDriven),
                       kBothDelays),
    [](const auto& info) -> std::string {
      const std::string delay = "_" + delay_name(std::get<1>(info.param));
      switch (std::get<0>(info.param)) {
        case ThreadingModel::kThreadPerConnection:
          return "thread_per_conn" + delay;
        case ThreadingModel::kWorkerPool:
          return "worker_pool" + delay;
        case ThreadingModel::kEventDriven:
          return "event_driven" + delay;
      }
      return "unknown" + delay;
    });

TEST(Server, WorkerPoolStopDrainsQueuedConnections) {
  Network net(6, fast_net());
  ServerConfig config;
  config.model = ThreadingModel::kWorkerPool;
  config.workers = 1;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> blocked{false};
  Server server(
      net, 0, 80,
      [&](const Bytes& request) {
        if (to_string(request) == "block") {
          blocked = true;
          released.wait();
        }
        return request;
      },
      config);

  // Occupy the only worker: its connection is held until the handler is
  // released, so everything after it waits in the accept queue.
  std::thread blocker([&] {
    Client client(net, 1);
    ASSERT_TRUE(client.connect(server.address()).is_ok());
    (void)client.call_text("block");  // reply races stop(); not asserted
  });
  while (!blocked.load()) std::this_thread::yield();

  // Four more clients connect and send complete frames; nobody serves them.
  std::vector<std::thread> waiters;
  std::atomic<int> ok{0};
  for (int c = 2; c <= 5; ++c) {
    waiters.emplace_back([&, c] {
      Client client(net, c);
      ASSERT_TRUE(client.connect(server.address()).is_ok());
      const std::string msg = "q" + std::to_string(c);
      auto reply = client.call_text(msg);
      if (reply.is_ok() && reply.value() == msg) ++ok;
    });
  }
  std::this_thread::sleep_for(50ms);  // frames reach the server's buffers

  // stop() must serve the queued connections' buffered requests before
  // tearing down — none of the four may be silently dropped.
  std::thread stopper([&] { server.stop(); });
  std::this_thread::sleep_for(10ms);
  release.set_value();
  stopper.join();
  blocker.join();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(ok.load(), 4);
}

// connect() on a connected Client hangs up the old connection. Otherwise
// the only worker of a worker-pool server stays parked on it, and the new
// connection waits in the accept queue until stop().
TEST(Server, ClientReconnectClosesThePreviousConnection) {
  Network net(2, fast_net());
  ServerConfig config;
  config.model = ThreadingModel::kWorkerPool;
  config.workers = 1;
  Server server(net, 0, 80, [](const Bytes& b) { return b; }, config);
  Client client(net, 1);
  ASSERT_TRUE(client.connect(server.address()).is_ok());
  ASSERT_EQ(client.call_text("first").value(), "first");
  ASSERT_TRUE(client.connect(server.address()).is_ok());
  auto second = std::async(std::launch::async,
                           [&] { return client.call_text("second"); });
  const bool answered = second.wait_for(2s) == std::future_status::ready;
  server.stop();  // answers a call still queued, so get() cannot hang
  EXPECT_TRUE(answered) << "second call not answered within 2 s";
  const auto reply = second.get();
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(reply.value(), "second");
}

// The thread that takes a connection's tag owns it until it re-arms, so no
// two workers ever serve one connection at once, and its pipelined frames
// are answered in order.
TEST(Server, EventEngineServesEachConnectionOnOneThreadInOrder) {
  constexpr int kConns = 8;
  constexpr int kFrames = 500;
  for (const double latency_ms : {0.0, 0.01}) {
    Network net(2, net_at(latency_ms));
    std::array<std::atomic<int>, kConns> inside{};
    std::atomic<bool> overlapped{false};
    ServerConfig config;
    config.model = ThreadingModel::kEventDriven;
    config.workers = 4;
    config.view_handler = [&](BytesView request) {
      auto& in = inside[static_cast<std::size_t>(request.data[0]) % kConns];
      if (in.fetch_add(1) != 0) overlapped = true;
      std::this_thread::yield();
      in.fetch_sub(1);
      return request.to_owned();
    };
    Server server(net, 0, 80, nullptr, config);

    std::vector<std::thread> clients;
    std::atomic<int> in_order{0};
    for (int c = 0; c < kConns; ++c) {
      clients.emplace_back([&, c] {
        auto connected = net.connect(1, server.address());
        ASSERT_TRUE(connected.is_ok());
        StreamSocket socket = std::move(connected).value();
        auto frame = [c](int i) {
          Bytes payload = to_bytes("?" + std::to_string(i));
          payload[0] = static_cast<std::byte>(c);
          return payload;
        };
        // Ten frames per send, so readiness arrives in bursts.
        for (int i = 0; i < kFrames; i += 10) {
          Bytes burst;
          for (int k = i; k < i + 10; ++k) {
            MessageCodec::encode_message(frame(k), burst);
          }
          ASSERT_TRUE(socket.send(burst).is_ok());
        }
        RxBuffer rx;
        int matched = 0;
        for (int i = 0; i < kFrames; ++i) {
          auto reply = MessageCodec::recv_message(socket, rx);
          ASSERT_TRUE(reply.is_ok());
          if (reply.value() == frame(i)) ++matched;
        }
        if (matched == kFrames) ++in_order;
        socket.close();
      });
    }
    for (auto& t : clients) t.join();
    server.stop();
    EXPECT_FALSE(overlapped.load()) << "latency " << latency_ms;
    EXPECT_EQ(in_order.load(), kConns) << "latency " << latency_ms;
    EXPECT_EQ(server.requests_served(),
              static_cast<std::uint64_t>(kConns * kFrames));
  }
}

// One turn on a connection is bounded: a connection whose client never
// stops sending, and never reads, does not keep a one-worker engine from
// another connection's request.
TEST(Server, EventEngineFloodDoesNotStarveAnotherConnection) {
  Network net(3, net_at(0.0));
  StreamSocket flooded;  // the flooding client's end
  std::atomic<bool> flooding{true};
  const auto deadline = std::chrono::steady_clock::now() + 3s;
  Bytes frame;
  MessageCodec::encode_message(to_bytes("f"), frame);
  ServerConfig config;
  config.model = ThreadingModel::kEventDriven;
  config.workers = 1;
  // The flood sustains itself for up to 3 s: each flood frame the server
  // takes makes the client send another, so every pass over the
  // connection finds new bytes, however the threads are scheduled. Flood
  // frames get no reply, so nothing piles up unread.
  config.raw_handler = [&](BytesView request, StreamSocket&) {
    if (to_string(request.to_owned()) != "f") return false;
    if (flooding.load() && std::chrono::steady_clock::now() < deadline) {
      (void)flooded.send(frame);
    }
    return true;
  };
  Server server(net, 0, 80, [](const Bytes& b) { return b; }, config);

  auto connected = net.connect(1, server.address());
  ASSERT_TRUE(connected.is_ok());
  flooded = std::move(connected).value();
  Bytes burst;
  for (int k = 0; k < 64; ++k) burst.insert(burst.end(), frame.begin(), frame.end());
  ASSERT_TRUE(flooded.send(burst).is_ok());

  Client client(net, 2);
  ASSERT_TRUE(client.connect(server.address()).is_ok());
  auto call = std::async(std::launch::async,
                         [&] { return client.call_text("ping"); });
  const bool answered = call.wait_for(1s) == std::future_status::ready;
  flooding = false;
  EXPECT_TRUE(answered) << "call starved behind the flood";
  const auto reply = call.get();
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(reply.value(), "ping");
  client.close();
  flooded.close();
  server.stop();
}

/// The process's mapped address space, from /proc/self/status (0 if absent).
long vm_size_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stol(line.substr(7));
  }
  return 0;
}

// A connection thread is joined once its connection closes, not only at
// stop(): sequential clients must not pile up finished threads with their
// stacks still mapped (each is 8 MB of VmSize by default).
TEST(Server, ThreadPerConnectionReapsClosedConnections) {
  constexpr int kClients = 300;
  Network net(2, fast_net());
  Server server(net, 0, 80, [](const Bytes& b) { return b; });
  const long before_kb = vm_size_kb();
  ASSERT_GT(before_kb, 0);
  for (int i = 0; i < kClients; ++i) {
    Client client(net, 1);
    ASSERT_TRUE(client.connect(server.address()).is_ok());
    ASSERT_TRUE(client.call_text("ping").is_ok());
    client.close();
  }
  const long grown_kb = vm_size_kb() - before_kb;
  EXPECT_LT(grown_kb, 64 * 1024) << "VmSize grew by " << grown_kb << " kB";
  server.stop();
  EXPECT_EQ(server.requests_served(), static_cast<std::uint64_t>(kClients));
}

TEST(Server, StopUnblocksEverything) {
  Network net(2, fast_net());
  auto server = std::make_unique<Server>(
      net, 0, 80, [](const Bytes& b) { return b; });
  Client client(net, 1);
  ASSERT_TRUE(client.connect(server->address()).is_ok());
  ASSERT_TRUE(client.call(to_bytes("x")).is_ok());
  server->stop();
  server.reset();  // no hang
}

// ---------------------------------------------------------------------- RPC

TEST(Rpc, DispatchesRegisteredProcedures) {
  Network net(2, fast_net());
  RpcServer server(net, 0, 90);
  server.register_procedure("upper", [](const Bytes& in) {
    std::string s = to_string(in);
    for (auto& ch : s) ch = static_cast<char>(std::toupper(ch));
    return to_bytes(s);
  });
  server.register_procedure("len", [](const Bytes& in) {
    return to_bytes(std::to_string(in.size()));
  });

  RpcClient client(net, 1);
  ASSERT_TRUE(client.connect(server.address()).is_ok());
  EXPECT_EQ(client.call_text("upper", "hello").value(), "HELLO");
  EXPECT_EQ(client.call_text("len", "12345").value(), "5");
}

TEST(Rpc, UnknownProcedureReturnsNotFound) {
  Network net(2, fast_net());
  RpcServer server(net, 0, 90);
  RpcClient client(net, 1);
  ASSERT_TRUE(client.connect(server.address()).is_ok());
  EXPECT_EQ(client.call_text("nope", "x").status().code(), StatusCode::kNotFound);
}

TEST(Rpc, HandlerExceptionBecomesAbortedStatus) {
  Network net(2, fast_net());
  RpcServer server(net, 0, 90);
  server.register_procedure("boom", [](const Bytes&) -> Bytes {
    throw std::runtime_error("handler exploded");
  });
  RpcClient client(net, 1);
  ASSERT_TRUE(client.connect(server.address()).is_ok());
  const auto reply = client.call_text("boom", "");
  EXPECT_EQ(reply.status().code(), StatusCode::kAborted);
  EXPECT_NE(reply.status().message().find("exploded"), std::string::npos);
}

}  // namespace
