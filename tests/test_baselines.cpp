// Tests for the Fig. 9 comparison baselines: TFA (HyFlow) and DecentSTM.
#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>

#include "baselines/decent.h"
#include "baselines/tfa.h"
#include "common/serde.h"

namespace qrdtm::baselines {
namespace {

Bytes enc_i64(std::int64_t v) {
  Writer w;
  w.i64(v);
  return std::move(w).take();
}

std::int64_t dec_i64(const Bytes& b) {
  Reader r(b);
  return r.i64();
}

// ------------------------------------------------------------------- TFA

TEST(Tfa, SingleTransferCommits) {
  TfaCluster c(TfaConfig{});
  ObjectId a = c.seed_new_object(enc_i64(100));
  ObjectId b = c.seed_new_object(enc_i64(100));
  c.spawn_client(0, [a, b](TfaTxn& t) -> sim::Task<void> {
    std::int64_t va = dec_i64(co_await t.read_for_write(a));
    std::int64_t vb = dec_i64(co_await t.read_for_write(b));
    t.write(a, enc_i64(va - 10));
    t.write(b, enc_i64(vb + 10));
  });
  c.run_to_completion();
  EXPECT_EQ(c.metrics().commits, 1u);

  std::int64_t got_a = 0, got_b = 0;
  c.spawn_client(3, [&, a, b](TfaTxn& t) -> sim::Task<void> {
    got_a = dec_i64(co_await t.read(a));
    got_b = dec_i64(co_await t.read(b));
  });
  c.run_to_completion();
  EXPECT_EQ(got_a, 90);
  EXPECT_EQ(got_b, 110);
}

TEST(Tfa, ReadOnlyCommitsWithoutCommitMessages) {
  TfaCluster c(TfaConfig{});
  ObjectId a = c.seed_new_object(enc_i64(1));
  c.spawn_client(0, [a](TfaTxn& t) -> sim::Task<void> {
    (void)co_await t.read(a);
  });
  c.run_to_completion();
  EXPECT_EQ(c.metrics().commits, 1u);
  EXPECT_EQ(c.metrics().commit_messages, 0u);
  EXPECT_EQ(c.metrics().local_commits, 1u);
}

TEST(Tfa, ReadsAreUnicast) {
  TfaCluster c(TfaConfig{});
  ObjectId a = c.seed_new_object(enc_i64(1));
  ObjectId b = c.seed_new_object(enc_i64(2));
  c.spawn_client(0, [a, b](TfaTxn& t) -> sim::Task<void> {
    (void)co_await t.read(a);
    (void)co_await t.read(b);
  });
  c.run_to_completion();
  EXPECT_EQ(c.metrics().read_messages, 2u) << "one unicast per object";
}

TEST(Tfa, ConcurrentIncrementsSerialise) {
  TfaCluster c(TfaConfig{});
  ObjectId ctr = c.seed_new_object(enc_i64(0));
  constexpr int kClients = 10;
  for (int i = 0; i < kClients; ++i) {
    c.spawn_client(static_cast<net::NodeId>(i % c.num_nodes()),
                   [ctr](TfaTxn& t) -> sim::Task<void> {
                     std::int64_t v = dec_i64(co_await t.read_for_write(ctr));
                     t.write(ctr, enc_i64(v + 1));
                   });
  }
  c.run_to_completion();
  EXPECT_EQ(c.metrics().commits, static_cast<std::uint64_t>(kClients));
  std::int64_t final_v = 0;
  c.spawn_client(0, [&, ctr](TfaTxn& t) -> sim::Task<void> {
    final_v = dec_i64(co_await t.read(ctr));
  });
  c.run_to_completion();
  EXPECT_EQ(final_v, kClients);
}

TEST(Tfa, TransfersConserveBalance) {
  TfaCluster c(TfaConfig{});
  constexpr int kAccounts = 8;
  std::vector<ObjectId> accts;
  for (int i = 0; i < kAccounts; ++i) {
    accts.push_back(c.seed_new_object(enc_i64(100)));
  }
  for (int i = 0; i < 30; ++i) {
    ObjectId from = accts[i % kAccounts];
    ObjectId to = accts[(i + 3) % kAccounts];
    c.spawn_client(static_cast<net::NodeId>(i % c.num_nodes()),
                   [from, to](TfaTxn& t) -> sim::Task<void> {
                     std::int64_t f = dec_i64(co_await t.read_for_write(from));
                     std::int64_t g = dec_i64(co_await t.read_for_write(to));
                     t.write(from, enc_i64(f - 5));
                     t.write(to, enc_i64(g + 5));
                   });
  }
  c.run_to_completion();
  std::int64_t total = 0;
  c.spawn_client(0, [&](TfaTxn& t) -> sim::Task<void> {
    for (ObjectId a : accts) total += dec_i64(co_await t.read(a));
  });
  c.run_to_completion();
  EXPECT_EQ(total, kAccounts * 100);
}

// ------------------------------------------------------------- DecentSTM

DecentConfig fast_decent() {
  DecentConfig cfg;
  cfg.snapshot_compute = 0;  // isolate protocol logic in unit tests
  return cfg;
}

TEST(Decent, SingleTransferCommits) {
  DecentCluster c(fast_decent());
  ObjectId a = c.seed_new_object(enc_i64(100));
  ObjectId b = c.seed_new_object(enc_i64(100));
  c.spawn_client(0, [a, b](DecentTxn& t) -> sim::Task<void> {
    std::int64_t va = dec_i64(co_await t.read_for_write(a));
    std::int64_t vb = dec_i64(co_await t.read_for_write(b));
    t.write(a, enc_i64(va - 10));
    t.write(b, enc_i64(vb + 10));
  });
  c.run_to_completion();
  EXPECT_EQ(c.metrics().commits, 1u);

  std::int64_t got_a = 0, got_b = 0;
  c.spawn_client(5, [&, a, b](DecentTxn& t) -> sim::Task<void> {
    got_a = dec_i64(co_await t.read(a));
    got_b = dec_i64(co_await t.read(b));
  });
  c.run_to_completion();
  EXPECT_EQ(got_a, 90);
  EXPECT_EQ(got_b, 110);
}

TEST(Decent, ReadOnlySnapshotIsConsistentAndFree) {
  DecentCluster c(fast_decent());
  ObjectId a = c.seed_new_object(enc_i64(1));
  ObjectId b = c.seed_new_object(enc_i64(2));
  std::uint64_t snapshot = 0;
  c.spawn_client(0, [&, a, b](DecentTxn& t) -> sim::Task<void> {
    (void)co_await t.read(a);
    (void)co_await t.read(b);
    snapshot = t.snapshot_ts();
  });
  c.run_to_completion();
  EXPECT_EQ(c.metrics().commit_messages, 0u);
  EXPECT_EQ(c.metrics().local_commits, 1u);
  EXPECT_EQ(snapshot, 1u) << "first read pins the seeded version";
}

TEST(Decent, OldVersionsServeLaggingSnapshots) {
  // A reader that pinned its window before an update must still be served
  // the *old* version from the history.
  DecentCluster c(fast_decent());
  ObjectId a = c.seed_new_object(enc_i64(10));
  ObjectId b = c.seed_new_object(enc_i64(20));

  std::int64_t reader_a = 0, reader_b = 0;
  c.spawn_client(0, [&, a, b](DecentTxn& t) -> sim::Task<void> {
    reader_a = dec_i64(co_await t.read(a));  // pins window at version 1
    co_await c.simulator().delay(sim::msec(200));
    reader_b = dec_i64(co_await t.read(b));
  });
  // Writer bumps b mid-way through the reader.
  c.simulator().schedule_at(sim::msec(50), [&c, b] {
    c.spawn_client(1, [b](DecentTxn& t) -> sim::Task<void> {
      std::int64_t v = dec_i64(co_await t.read_for_write(b));
      t.write(b, enc_i64(v + 100));
    });
  });
  c.run_to_completion();
  EXPECT_EQ(c.metrics().commits, 2u);
  EXPECT_EQ(reader_a, 10);
  // The reader's window was pinned below the writer's timestamp; the
  // history must serve the old value 20, not 120.
  EXPECT_EQ(reader_b, 20);
}

TEST(Decent, FirstCommitterWinsOnWriteWriteConflict) {
  DecentCluster c(fast_decent());
  ObjectId a = c.seed_new_object(enc_i64(0));
  constexpr int kClients = 6;
  for (int i = 0; i < kClients; ++i) {
    c.spawn_client(static_cast<net::NodeId>(i % c.num_nodes()),
                   [a](DecentTxn& t) -> sim::Task<void> {
                     std::int64_t v = dec_i64(co_await t.read_for_write(a));
                     t.write(a, enc_i64(v + 1));
                   });
  }
  c.run_to_completion();
  EXPECT_EQ(c.metrics().commits, static_cast<std::uint64_t>(kClients));
  std::int64_t final_v = 0;
  c.spawn_client(0, [&, a](DecentTxn& t) -> sim::Task<void> {
    final_v = dec_i64(co_await t.read(a));
  });
  c.run_to_completion();
  EXPECT_EQ(final_v, kClients);
}

TEST(Decent, CommitBroadcastsToAllReplicas) {
  DecentCluster c(fast_decent());
  ASSERT_EQ(DecentCluster::kReplication, 3u);
  ObjectId a = c.seed_new_object(enc_i64(0));
  c.spawn_client(0, [a](DecentTxn& t) -> sim::Task<void> {
    std::int64_t v = dec_i64(co_await t.read_for_write(a));
    t.write(a, enc_i64(v + 1));
  });
  c.run_to_completion();
  // Vote + apply, each to all three replicas of the one written object.
  EXPECT_EQ(c.metrics().commit_messages, 6u);
}

// ------------------------------------------------- orphaned-lock leases
//
// Both baselines grant an exclusive lock during 2PC and release it with a
// later message from the coordinator.  If the coordinator fail-stops in
// between, that release never arrives; the lock lease must shed the orphan
// so the object becomes writable again.

template <class Cluster>
class BaselineLease : public ::testing::Test {};

using Clusters = ::testing::Types<TfaCluster, DecentCluster>;
TYPED_TEST_SUITE(BaselineLease, Clusters);

/// The nodes that hold `obj`'s lock: its TFA home, or its Decent replicas.
template <class Cluster>
std::vector<net::NodeId> lock_holders(const Cluster& c, ObjectId obj) {
  if constexpr (std::is_same_v<Cluster, TfaCluster>) {
    return {c.home_of(obj)};
  } else {
    return c.replicas_of(obj);
  }
}

/// The first node above `after` that holds no lock on `obj`.
template <class Cluster>
net::NodeId first_off_holders(const Cluster& c, ObjectId obj,
                              int after = -1) {
  const std::vector<net::NodeId> holders = lock_holders(c, obj);
  net::NodeId n = static_cast<net::NodeId>(after + 1);
  while (std::find(holders.begin(), holders.end(), n) != holders.end()) ++n;
  return n;
}

template <class Cluster>
sim::Task<void> run_bounded(Cluster* c, net::NodeId node,
                            typename Cluster::Body body,
                            std::uint32_t attempts, bool* committed) {
  *committed =
      co_await c->run_transaction_bounded(node, std::move(body), attempts);
}

TYPED_TEST(BaselineLease, OrphanedLockShedByLeaseUnwedgesObject) {
  using Cluster = TypeParam;
  typename Cluster::Config cfg;
  if constexpr (std::is_same_v<Cluster, DecentCluster>) {
    cfg.snapshot_compute = 0;  // isolate protocol logic in unit tests
  }
  cfg.lock_lease = sim::msec(200);
  Cluster c(cfg);
  const ObjectId obj = c.seed_new_object(enc_i64(0));
  // Doomed coordinator off the lock holders: its writeback/apply must cross
  // the (soon dead) network link, so killing it after the lock is granted
  // orphans the lock.
  const net::NodeId doomed = first_off_holders(c, obj);
  typename Cluster::Body bump = [obj](auto& t) -> sim::Task<void> {
    std::int64_t v = dec_i64(co_await t.read_for_write(obj));
    t.write(obj, enc_i64(v + 1));
  };

  bool doomed_committed = false;
  c.simulator().spawn(run_bounded(&c, doomed, bump, 1, &doomed_committed));
  // Run until a holder has granted the lock, then fail-stop the coordinator
  // before its writeback/apply is sent: the lock is now orphaned.
  bool locked = false;
  sim::Tick poll_at = 0;
  for (int i = 0; i < 1000 && !locked; ++i) {
    poll_at += sim::usec(250);
    c.simulator().advance_to(poll_at);
    locked = c.object_locked(obj);
  }
  ASSERT_TRUE(locked) << "test setup: the lock was never granted";
  c.network().kill(doomed);

  bool committed = false;
  const net::NodeId writer = first_off_holders(c, obj, doomed);
  c.simulator().spawn(run_bounded(&c, writer, bump, 50, &committed));
  c.run_to_completion();

  EXPECT_TRUE(committed) << "object stayed wedged behind the orphaned lock";
  EXPECT_GT(c.metrics().lease_breaks, 0u);
  EXPECT_FALSE(doomed_committed);
  std::int64_t final_v = -1;
  c.spawn_client(writer, [&, obj](auto& t) -> sim::Task<void> {
    final_v = dec_i64(co_await t.read(obj));
  });
  c.run_to_completion();
  EXPECT_EQ(final_v, 1) << "only the second writer's increment commits";
}

// ------------------------------------------------------ golden counters
//
// A short closed-loop bank run on each baseline at a fixed seed.  The
// counters and the final tick pin the whole event schedule: the RNG draw
// order (network seed, the per-client streams, the backoff draws), the
// abort paths and every message count.

struct BaselineGoldenCase {
  const char* name;
  std::uint64_t commits;
  std::uint64_t root_aborts;
  std::uint64_t ct_aborts;
  std::uint64_t read_messages;
  std::uint64_t commit_messages;
  sim::Tick end;
};

struct BankStep {
  bool read;
  ObjectId a, b;
  std::int64_t amount;
};

template <class Txn>
sim::Task<void> bank_step(Txn& t, BankStep s) {
  if (s.read) {
    (void)co_await t.read(s.a);
    (void)co_await t.read(s.b);
    co_return;
  }
  std::int64_t f = dec_i64(co_await t.read_for_write(s.a));
  std::int64_t g = dec_i64(co_await t.read_for_write(s.b));
  t.write(s.a, enc_i64(f - s.amount));
  t.write(s.b, enc_i64(g + s.amount));
}

/// Four loop clients over six accounts for 800 ms, then drained.  Each TFA
/// step is a nested scope, so N-TFA can retry it alone.
template <class Cluster>
void expect_golden(typename Cluster::Config cfg,
                   const BaselineGoldenCase& want) {
  SCOPED_TRACE(want.name);
  constexpr std::uint64_t kAccounts = 6;
  cfg.num_nodes = 7;
  cfg.seed = 2013;
  Cluster c(cfg);
  for (std::uint64_t i = 0; i < kAccounts; ++i) {
    c.seed_new_object(enc_i64(100));
  }
  for (net::NodeId n = 0; n < 4; ++n) {
    c.spawn_loop_client(n, [](Rng& rng) -> typename Cluster::Body {
      std::vector<BankStep> plan;
      for (int i = 0; i < 2; ++i) {
        BankStep s;
        s.read = rng.chance(0.4);
        s.a = 1 + rng.below(kAccounts);
        s.b = 1 + rng.below(kAccounts - 1);
        if (s.b >= s.a) ++s.b;
        s.amount = rng.range(1, 9);
        plan.push_back(s);
      }
      return [plan](auto& t) -> sim::Task<void> {
        for (const BankStep& s : plan) {
          if constexpr (std::is_same_v<Cluster, TfaCluster>) {
            co_await t.nested([s](TfaTxn& ct) -> sim::Task<void> {
              co_await bank_step(ct, s);
            });
          } else {
            co_await bank_step(t, s);
          }
        }
      };
    });
  }
  c.run_for(sim::msec(800));
  c.run_to_completion();
  const core::Metrics& m = c.metrics();
  EXPECT_EQ(m.commits, want.commits);
  EXPECT_EQ(m.root_aborts, want.root_aborts);
  EXPECT_EQ(m.ct_aborts, want.ct_aborts);
  EXPECT_EQ(m.read_messages, want.read_messages);
  EXPECT_EQ(m.commit_messages, want.commit_messages);
  EXPECT_EQ(c.simulator().now(), want.end);
}

TEST(BaselineGolden, BankCountersAndFinalTick) {
  expect_golden<TfaCluster>(TfaConfig{},
                            {"tfa", 42, 74, 0, 416, 326, 1586230004});
  TfaConfig ntfa;
  ntfa.closed_nesting = true;
  expect_golden<TfaCluster>(ntfa, {"ntfa", 36, 70, 6, 403, 322, 1472363469});
  expect_golden<DecentCluster>(DecentConfig{},
                               {"decent", 8, 8, 0, 144, 116, 1798698917});
}

}  // namespace
}  // namespace qrdtm::baselines
