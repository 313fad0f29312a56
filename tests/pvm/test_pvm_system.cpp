#include "pvm/pvm_system.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mach/platforms_db.hpp"
#include "util/fatal.hpp"

namespace {

using opalsim::mach::Machine;
using opalsim::mach::NetSpec;
using opalsim::mach::PlatformSpec;
using opalsim::pvm::kAny;
using opalsim::pvm::Message;
using opalsim::pvm::PackBuffer;
using opalsim::pvm::PvmSystem;
using opalsim::pvm::PvmTask;
using opalsim::sim::Engine;
using opalsim::sim::Task;

// A simple test platform: switched 1 MB/s links, 1 ms latency, 0.5 ms sync.
PlatformSpec test_platform() {
  PlatformSpec p;
  p.name = "test";
  p.cpu.name = "test-cpu";
  p.cpu.clock_mhz = 100;
  p.cpu.adjusted_mflops = 100;
  p.net.kind = NetSpec::Kind::Switched;
  p.net.observed_MBps = 1.0;
  p.net.hw_peak_MBps = 2.0;
  p.net.latency_s = 1e-3;
  p.sync_time_s = 5e-4;
  return p;
}

class PvmSystemTest : public ::testing::Test {
 protected:
  PvmSystemTest() : machine(engine, test_platform(), 4), pvm(machine) {}
  Engine engine;
  Machine machine;
  PvmSystem pvm;
};

TEST_F(PvmSystemTest, SpawnAssignsSequentialTids) {
  auto noop = [](PvmTask&) -> Task<void> { co_return; };
  EXPECT_EQ(pvm.spawn(0, noop), 0);
  EXPECT_EQ(pvm.spawn(1, noop), 1);
  EXPECT_EQ(pvm.spawn(1, noop), 2);
  engine.run();
  EXPECT_EQ(pvm.num_tasks(), 3);
}

TEST_F(PvmSystemTest, SpawnRejectsBadNode) {
  auto noop = [](PvmTask&) -> Task<void> { co_return; };
  EXPECT_THROW(pvm.spawn(99, noop), std::out_of_range);
  EXPECT_THROW(pvm.spawn(-1, noop), std::out_of_range);
}

TEST_F(PvmSystemTest, SendRecvDeliversPayload) {
  std::string got;
  pvm.spawn(0, [&](PvmTask& t) -> Task<void> {
    PackBuffer b;
    b.pack_string("hello");
    co_await t.send(1, 7, std::move(b));
  });
  pvm.spawn(1, [&](PvmTask& t) -> Task<void> {
    Message m = co_await t.recv(kAny, 7);
    got = m.body.unpack_string();
    EXPECT_EQ(m.src, 0);
    EXPECT_EQ(m.tag, 7);
  });
  engine.run();
  EXPECT_EQ(got, "hello");
}

TEST_F(PvmSystemTest, SendChargesWireTime) {
  pvm.spawn(0, [&](PvmTask& t) -> Task<void> {
    PackBuffer b;
    b.pack_f64_array(std::vector<double>(125'000, 1.0));  // 1 MB + 8 bytes
    co_await t.send(1, 0, std::move(b));
  });
  pvm.spawn(1, [&](PvmTask& t) -> Task<void> {
    (void)co_await t.recv();
  });
  engine.run();
  // 1 MB at 1 MB/s + 1 ms latency, plus the 8-byte length header.
  EXPECT_NEAR(engine.now(), 1.001, 1e-4);
}

TEST_F(PvmSystemTest, RecvFiltersBySource) {
  std::vector<int> order;
  pvm.spawn(0, [&](PvmTask& t) -> Task<void> {
    PackBuffer b;
    b.pack_i32(1);
    co_await t.send(2, 5, std::move(b));
  });
  pvm.spawn(1, [&](PvmTask& t) -> Task<void> {
    co_await t.engine().delay(0.5);
    PackBuffer b;
    b.pack_i32(2);
    co_await t.send(2, 5, std::move(b));
  });
  pvm.spawn(2, [&](PvmTask& t) -> Task<void> {
    // Receive specifically from tid 1 first, although tid 0's message
    // arrives earlier.
    Message m1 = co_await t.recv(1, 5);
    order.push_back(m1.body.unpack_i32());
    Message m0 = co_await t.recv(0, 5);
    order.push_back(m0.body.unpack_i32());
  });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST_F(PvmSystemTest, TryRecvNonBlocking) {
  bool checked = false;
  pvm.spawn(0, [&](PvmTask& t) -> Task<void> {
    EXPECT_FALSE(t.try_recv().has_value());
    PackBuffer b;
    b.pack_i32(9);
    co_await t.send(0, 3, std::move(b));  // self-send
    auto m = t.try_recv(kAny, 3);
    EXPECT_TRUE(m.has_value());
    if (m.has_value()) {
      EXPECT_EQ(m->body.unpack_i32(), 9);
      checked = true;
    }
  });
  engine.run();
  EXPECT_TRUE(checked);
}

TEST_F(PvmSystemTest, UnreceiveRestoresMessageForIdenticalRereceive) {
  // The rollback-side inverse of recv: unreceive returns the message to
  // the HEAD of the mailbox, so a re-executed receive matches the same
  // message again — even when a younger message is already queued behind
  // it.  (The optimistic engine's mailbox-unconsume audit rides on this.)
  bool checked = false;
  pvm.spawn(0, [&](PvmTask& t) -> Task<void> {
    PackBuffer a;
    a.pack_i32(1);
    co_await t.send(0, 5, std::move(a));  // self-send: oldest
    PackBuffer b;
    b.pack_i32(2);
    co_await t.send(0, 5, std::move(b));  // self-send: younger
    Message first = co_await t.recv(kAny, 5);
    PackBuffer peek = first.body;  // read cursor is per-copy
    EXPECT_EQ(peek.unpack_i32(), 1);
    t.unreceive(std::move(first));
    Message again = co_await t.recv(kAny, 5);
    EXPECT_EQ(again.body.unpack_i32(), 1);  // same message, not the younger
    Message second = co_await t.recv(kAny, 5);
    EXPECT_EQ(second.body.unpack_i32(), 2);
    checked = true;
  });
  engine.run();
  EXPECT_TRUE(checked);
}

TEST_F(PvmSystemTest, McastSerializesAtSender) {
  std::vector<double> recv_times;
  pvm.spawn(0, [&](PvmTask& t) -> Task<void> {
    PackBuffer b;
    b.pack_f64_array(std::vector<double>(125'000, 0.0));  // ~1 s each
    const std::vector<int> dsts{1, 2, 3};
    co_await t.mcast(dsts, 1, b);
  });
  for (int i = 1; i <= 3; ++i) {
    pvm.spawn(i, [&](PvmTask& t) -> Task<void> {
      (void)co_await t.recv();
      recv_times.push_back(t.engine().now());
    });
  }
  engine.run();
  ASSERT_EQ(recv_times.size(), 3u);
  // Sender's link serializes the three copies: ~1, ~2, ~3 seconds.
  EXPECT_NEAR(recv_times[0], 1.0, 0.01);
  EXPECT_NEAR(recv_times[1], 2.0, 0.01);
  EXPECT_NEAR(recv_times[2], 3.0, 0.01);
}

TEST_F(PvmSystemTest, BarrierReleasesAllAfterSyncTime) {
  std::vector<double> times;
  for (int i = 0; i < 3; ++i) {
    pvm.spawn(i, [&, i](PvmTask& t) -> Task<void> {
      co_await t.engine().delay(static_cast<double>(i));  // arrive 0,1,2
      co_await t.barrier("grp", 3);
      times.push_back(t.engine().now());
    });
  }
  engine.run();
  ASSERT_EQ(times.size(), 3u);
  // Last arrival at t=2; release b5=0.5ms later.
  for (double t : times) EXPECT_NEAR(t, 2.0005, 1e-9);
}

TEST_F(PvmSystemTest, BarrierIsReusableAcrossGenerations) {
  std::vector<double> times;
  for (int i = 0; i < 2; ++i) {
    pvm.spawn(i, [&, i](PvmTask& t) -> Task<void> {
      for (int round = 0; round < 2; ++round) {
        co_await t.engine().delay(1.0 + i);
        co_await t.barrier("grp", 2);
        if (i == 0) times.push_back(t.engine().now());
      }
    });
  }
  engine.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_NEAR(times[0], 2.0005, 1e-9);
  EXPECT_NEAR(times[1], 4.001, 1e-9);
}

TEST_F(PvmSystemTest, BarrierInconsistentCountThrows) {
  pvm.spawn(0, [&](PvmTask& t) -> Task<void> {
    co_await t.barrier("g", 2);
  });
  pvm.spawn(1, [&](PvmTask& t) -> Task<void> {
    co_await t.engine().delay(0.1);
    co_await t.barrier("g", 3);  // wrong count
  });
  try {
    engine.run();
    FAIL() << "expected FatalError";
  } catch (const opalsim::util::FatalError& e) {
    EXPECT_EQ(e.subsystem(), "pvm");
    EXPECT_DOUBLE_EQ(e.vtime(), 0.1);
    EXPECT_NE(std::string(e.what()).find("inconsistent party count"),
              std::string::npos);
  }
}

TEST_F(PvmSystemTest, ProcessJoinWorks) {
  int tid = pvm.spawn(0, [&](PvmTask& t) -> Task<void> {
    co_await t.engine().delay(2.0);
  });
  bool joined = false;
  // The closure must outlive engine.run(): a coroutine reads its captures
  // through the lambda object, so an immediately-invoked temporary would
  // dangle once the statement ends.
  auto waiter = [&]() -> Task<void> {
    co_await pvm.process(tid).join();
    joined = true;
    EXPECT_DOUBLE_EQ(engine.now(), 2.0);
  };
  engine.spawn(waiter());
  engine.run();
  EXPECT_TRUE(joined);
}

TEST_F(PvmSystemTest, AccountsTraffic) {
  pvm.spawn(0, [&](PvmTask& t) -> Task<void> {
    PackBuffer b;
    b.pack_f64(1.0);
    co_await t.send(1, 0, std::move(b));
  });
  pvm.spawn(1, [&](PvmTask& t) -> Task<void> { (void)co_await t.recv(); });
  engine.run();
  EXPECT_EQ(pvm.messages_sent(), 1u);
  EXPECT_EQ(pvm.bytes_sent(), 8u);
}

// -- delivery under fault injection: corruption verdict and checksum stamp --

/// Reference FNV-1a, independent of PackBuffer::checksum().
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Sends each body from task 0 to task 1 (tag = index) on a platform with
/// the given message fault rates; returns everything task 1 receives.
std::vector<Message> deliver_all(const std::vector<PackBuffer>& bodies,
                                 double drop, double dup, double corrupt) {
  Engine engine;
  PlatformSpec p = test_platform();
  p.fault.seed = 5;
  p.fault.drop_rate = drop;
  p.fault.duplicate_rate = dup;
  p.fault.corrupt_rate = corrupt;
  Machine machine(engine, p, 2);
  PvmSystem pvm(machine);
  std::vector<Message> got;
  pvm.spawn(0, [&](PvmTask& t) -> Task<void> {
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      co_await t.send(1, static_cast<int>(i), bodies[i]);
    }
  });
  pvm.spawn(1, [&](PvmTask& t) -> Task<void> {
    for (;;) {
      auto m = co_await t.recv_timeout(kAny, kAny, 1.0);
      if (!m) co_return;
      got.push_back(std::move(*m));
    }
  });
  engine.run();
  return got;
}

TEST(PvmFaultDelivery, CorruptionFlagsNonEmptyBodiesWithSentChecksum) {
  std::vector<PackBuffer> bodies(4);
  bodies[0].pack_i32(7);                                // inline storage
  bodies[1].pack_f64_array(std::vector<double>(64, 1.5));  // heap storage
  bodies[2].pack_string("x");
  // bodies[3] stays empty: nothing to flip.
  const std::vector<Message> got = deliver_all(bodies, 0.0, 0.0, 1.0);
  ASSERT_EQ(got.size(), bodies.size());
  for (const Message& m : got) {
    const PackBuffer& sent = bodies.at(static_cast<std::size_t>(m.tag));
    SCOPED_TRACE("tag " + std::to_string(m.tag));
    // The stamp is the FNV-1a of the bytes as sent, not as received.
    EXPECT_EQ(m.checksum, fnv1a(sent.raw_bytes()));
    EXPECT_EQ(m.stamped_checksum(), m.checksum);
    if (sent.raw_size() == 0) {
      EXPECT_FALSE(m.corrupted);
    } else {
      EXPECT_TRUE(m.corrupted);
      EXPECT_NE(fnv1a(m.body.raw_bytes()), m.checksum);
    }
  }
}

TEST(PvmFaultDelivery, CleanDeliveriesCarryNoChecksumInFlight) {
  std::vector<PackBuffer> bodies(40);
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    bodies[i].pack_u64(i);
    if (i % 3 == 0) bodies[i].pack_f64_array(std::vector<double>(i + 9, 0.25));
  }
  const std::vector<Message> got = deliver_all(bodies, 0.2, 0.3, 0.0);
  ASSERT_FALSE(got.empty());
  ASSERT_NE(got.size(), bodies.size());  // some dropped or duplicated
  for (const Message& m : got) {
    SCOPED_TRACE("tag " + std::to_string(m.tag));
    EXPECT_FALSE(m.corrupted);
    EXPECT_EQ(m.checksum, 0u);
    // Owed, not lost: a checkpoint would record the hash of the intact body.
    EXPECT_EQ(m.stamped_checksum(), fnv1a(m.body.raw_bytes()));
    EXPECT_EQ(m.stamped_checksum(),
              fnv1a(bodies.at(static_cast<std::size_t>(m.tag)).raw_bytes()));
  }
}

TEST(PvmFaultDelivery, FaultFreeDeliveriesOweNoChecksum) {
  std::vector<PackBuffer> bodies(3);
  for (auto& b : bodies) b.pack_string("payload");
  const std::vector<Message> got = deliver_all(bodies, 0.0, 0.0, 0.0);
  ASSERT_EQ(got.size(), bodies.size());
  for (const Message& m : got) {
    EXPECT_FALSE(m.corrupted);
    EXPECT_EQ(m.stamped_checksum(), 0u);
  }
}

}  // namespace
