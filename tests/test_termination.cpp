// Cooperative 2PC termination tests (DESIGN.md §17): fault-point steered
// coordinator crashes in the vote->confirm window, in-doubt resolution by
// peer query, presumed-abort after a coordinator restart, decision-record
// re-drive, and the prepared-vs-protected lease distinction.
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "core/faultpoint.h"
#include "core/history.h"
#include "store/replica_store.h"

namespace qrdtm::core {
namespace {

TxnBody bump_body(ObjectId id) {
  return [id](Txn& t) -> sim::Task<void> {
    Bytes b = co_await t.read_for_write(id);
    b[0] += 1;
    t.write(id, b);
  };
}

sim::Task<void> run_bounded(Cluster* c, net::NodeId node, TxnBody body,
                            std::uint32_t attempts, bool* committed) {
  *committed = co_await c->runtime(node).run_transaction_bounded(
      std::move(body), attempts);
}

std::size_t replicas_at_version(Cluster& c, ObjectId obj, Version v) {
  std::size_t n = 0;
  for (std::uint32_t i = 0; i < c.num_nodes(); ++i) {
    const store::ReplicaEntry* e =
        c.server(static_cast<net::NodeId>(i)).store().find(obj);
    if (e != nullptr && e->version == v) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Satellite regression: the lease may shed a merely-protected entry but must
// refuse a *prepared* one (durable yes-vote) -- only a confirm or a
// termination decision releases those.

TEST(Termination, LeaseShedsProtectedButRefusesPrepared) {
  store::ReplicaStore s;
  s.seed(1, Bytes{1});
  s.seed(2, Bytes{1});

  s.protect(1, 77, /*now=*/1000);
  s.protect(2, 77, /*now=*/1000);
  s.mark_prepared(2, 77);

  const std::uint64_t lease = 500;
  const std::uint64_t later = 2000;  // both leases long expired
  EXPECT_TRUE(s.lease_expired(1, later, lease));
  EXPECT_TRUE(s.lease_expired(2, later, lease));

  EXPECT_TRUE(s.expire_protection(1, later, lease))
      << "a plain protection past its lease must shed";
  EXPECT_FALSE(s.find(1)->is_protected);

  EXPECT_FALSE(s.expire_protection(2, later, lease))
      << "a prepared protection must never shed on a timer";
  EXPECT_TRUE(s.find(2)->is_protected);
  EXPECT_TRUE(s.prepared(2));
  EXPECT_TRUE(s.holds_protection(2, 77));
  EXPECT_FALSE(s.holds_protection(2, 78));

  // A confirm-style release clears both flags; the entry sheds normally
  // afterwards if re-protected without a prepare.
  s.unprotect(2, 77);
  EXPECT_FALSE(s.prepared(2));
  s.protect(2, 99, /*now=*/3000);
  EXPECT_TRUE(s.expire_protection(2, 4000, lease));
}

// ---------------------------------------------------------------------------
// Race (a): the coordinator dies BEFORE logging a decision record.  No
// confirm can ever have left it, so once it restarts (newer liveness epoch,
// empty decision log) a full termination round presumed-aborts the orphan
// and a later writer gets through.

TEST(Termination, CoordinatorDeadBeforeDecisionIsPresumedAborted) {
  ClusterConfig cfg;
  cfg.seed = 21;
  cfg.protection_lease = sim::msec(300);
  Cluster c(cfg);
  HistoryRecorder rec;
  c.set_history_recorder(&rec);
  const ObjectId obj = c.seed_new_object(Bytes{1});

  c.fault_points().arm(fp::kDecisionBeforeLog, FaultAction::kPanic, 4);
  bool doomed = false;
  c.simulator().spawn(run_bounded(&c, 4, bump_body(obj), 1, &doomed));
  c.run_to_completion();
  EXPECT_FALSE(doomed) << "no decision was logged: the commit was never acked";
  ASSERT_FALSE(c.network().alive(4));
  EXPECT_GT(c.fault_points().hits(fp::kDecisionBeforeLog), 0u);

  // The write quorum's voters hold prepared protections for the orphan.
  // Restart the coordinator: its epoch moves past the vote-time epoch and
  // its decision log stays empty, which is exactly the presumed-abort proof.
  c.recover_node(4);
  c.run_to_completion();

  bool committed = false;
  c.simulator().spawn(run_bounded(&c, 0, bump_body(obj), 50, &committed));
  c.run_to_completion();

  EXPECT_TRUE(committed) << "presumed-abort must free the orphaned write-set";
  EXPECT_GT(c.metrics().indoubt_resolved_abort, 0u);
  EXPECT_GT(c.metrics().termination_rounds, 0u);
  EXPECT_EQ(c.metrics().indoubt_resolved_commit, 0u);

  const CheckResult res = check_history(rec, CheckLevel::kSerializable);
  EXPECT_TRUE(res.ok) << res.report;

  std::int64_t seen = 0;
  c.spawn_client(2, [&, obj](Txn& t) -> sim::Task<void> {
    seen = (co_await t.read(obj))[0];
  });
  c.run_to_completion();
  EXPECT_EQ(seen, 2) << "only the second writer's bump may survive";
}

// ---------------------------------------------------------------------------
// Race (b): the coordinator dies AFTER the decision record but before any
// confirm leaves.  The client ack stands (decision durable); the restarted
// coordinator must re-drive the logged confirm so every voter applies.

TEST(Termination, AckedCommitSurvivesCrashBeforeAnyConfirm) {
  ClusterConfig cfg;
  cfg.seed = 22;
  cfg.protection_lease = sim::msec(300);
  Cluster c(cfg);
  HistoryRecorder rec;
  c.set_history_recorder(&rec);
  const ObjectId obj = c.seed_new_object(Bytes{1});

  // delay_fires=0: panic before the FIRST confirm send -- the decision is
  // durable, zero confirms are delivered (a dead sender's sends are cut).
  c.fault_points().arm(fp::kConfirmPartial, FaultAction::kPanic, 4);
  bool doomed = false;
  c.simulator().spawn(run_bounded(&c, 4, bump_body(obj), 1, &doomed));
  c.run_to_completion();
  EXPECT_TRUE(doomed) << "the decision was durable: this commit is acked";
  ASSERT_FALSE(c.network().alive(4));
  EXPECT_EQ(replicas_at_version(c, obj, 2), 0u)
      << "no confirm may have been delivered before the crash";

  // Coordinator failover: replay finds the open decision record and
  // re-drives the confirm broadcast; receivers dedupe, voters apply.
  c.recover_node(4);
  c.run_to_completion();

  EXPECT_GT(replicas_at_version(c, obj, 2), c.num_nodes() / 2)
      << "the re-driven confirm must reach the whole write quorum";
  const CheckResult res = check_history(rec, CheckLevel::kSerializable);
  EXPECT_TRUE(res.ok) << res.report;

  std::int64_t seen = 0;
  c.spawn_client(2, [&, obj](Txn& t) -> sim::Task<void> {
    seen = (co_await t.read(obj))[0];
  });
  c.run_to_completion();
  EXPECT_EQ(seen, 2) << "the acked commit must be readable after failover";
}

// ---------------------------------------------------------------------------
// Race (c): the coordinator dies after confirms reached a strict subset of
// the write quorum and NEVER comes back.  The applied subset is living proof
// of the commit decision; a termination round started by a later conflicting
// writer must propagate it to the prepared holdouts (indoubt_resolved_commit
// > 0), and the acked commit must survive into the serializable order.

TEST(Termination, PartialConfirmResolvedCommitByPeerQuery) {
  ClusterConfig cfg;
  cfg.seed = 23;
  cfg.protection_lease = sim::msec(300);
  Cluster c(cfg);
  HistoryRecorder rec;
  c.set_history_recorder(&rec);
  const ObjectId obj = c.seed_new_object(Bytes{1});

  // delay_fires=1: the first confirm send goes through, the panic lands on
  // the second -- exactly one member applies, the rest stay prepared.
  c.fault_points().arm(fp::kConfirmPartial, FaultAction::kPanic, 4, 1, 1);
  bool doomed = false;
  c.simulator().spawn(run_bounded(&c, 4, bump_body(obj), 1, &doomed));
  c.run_to_completion();
  EXPECT_TRUE(doomed) << "the decision was durable: this commit is acked";
  ASSERT_FALSE(c.network().alive(4));
  ASSERT_EQ(replicas_at_version(c, obj, 2), 1u)
      << "exactly one confirm may land before the crash";

  // The coordinator stays dead.  A later writer collides with the prepared
  // protections; after the lease expires its voters run the termination
  // protocol, find the applied peer, and resolve commit.
  bool committed = false;
  c.simulator().spawn(run_bounded(&c, 0, bump_body(obj), 50, &committed));
  c.run_to_completion();

  EXPECT_TRUE(committed);
  EXPECT_GT(c.metrics().indoubt_resolved_commit, 0u)
      << "the holdouts must learn the commit from the applied peer";
  EXPECT_GT(c.metrics().termination_rounds, 0u);
  EXPECT_GT(c.metrics().confirm_duplicates, 0u)
      << "the resolution retransmit hits the applied peer, which dedupes";
  EXPECT_EQ(c.metrics().indoubt_resolved_abort, 0u)
      << "nothing may presume abort while the decision is discoverable";

  const CheckResult res = check_history(rec, CheckLevel::kSerializable);
  EXPECT_TRUE(res.ok) << res.report;

  // Both bumps survive: the acked in-doubt commit AND the second writer.
  std::int64_t seen = 0;
  c.spawn_client(2, [&, obj](Txn& t) -> sim::Task<void> {
    seen = (co_await t.read(obj))[0];
  });
  c.run_to_completion();
  EXPECT_EQ(seen, 3) << "the acked partial-confirm commit must not be lost";
}

// ---------------------------------------------------------------------------
// Satellite regression: duplicate confirm delivery (at-least-once) is
// counted and dropped, never double-applied.  A recovered coordinator whose
// broadcast partially landed re-drives the SAME confirm to every member;
// the member that already applied it must dedupe on (txn, epoch).

TEST(Termination, RedrivenConfirmIsDedupedNotReapplied) {
  ClusterConfig cfg;
  cfg.seed = 24;
  cfg.protection_lease = sim::msec(300);
  Cluster c(cfg);
  const ObjectId obj = c.seed_new_object(Bytes{1});

  c.fault_points().arm(fp::kConfirmPartial, FaultAction::kPanic, 4, 1, 1);
  bool doomed = false;
  c.simulator().spawn(run_bounded(&c, 4, bump_body(obj), 1, &doomed));
  c.run_to_completion();
  ASSERT_TRUE(doomed);
  ASSERT_EQ(replicas_at_version(c, obj, 2), 1u);

  // Failover re-drive: every member gets the confirm again, including the
  // one that already applied it.
  c.recover_node(4);
  c.run_to_completion();

  EXPECT_GT(replicas_at_version(c, obj, 2), c.num_nodes() / 2);
  EXPECT_GT(c.metrics().confirm_duplicates, 0u)
      << "the already-applied member must count the repeat, not re-apply";
  std::uint64_t dup_servers = 0;
  for (std::uint32_t n = 0; n < c.num_nodes(); ++n) {
    dup_servers += c.server(static_cast<net::NodeId>(n)).confirm_duplicates();
  }
  EXPECT_EQ(dup_servers, c.metrics().confirm_duplicates)
      << "per-server counters must roll up to the cluster metric";

  std::int64_t seen = 0;
  c.spawn_client(2, [&, obj](Txn& t) -> sim::Task<void> {
    seen = (co_await t.read(obj))[0];
  });
  c.run_to_completion();
  EXPECT_EQ(seen, 2) << "dedupe must not double-apply the increment";
}

// ---------------------------------------------------------------------------
// Satellite regression: a voter that restarts across the confirm replays its
// prepare as pending, and the confirm it missed was addressed to its old
// incarnation.  Once the recovery sync is done a termination round must
// settle that prepare -- for a flat commit and a QR-Q batch alike -- or the
// node carries it in its commit log forever.

void expect_restarted_voter_settles(NestingMode mode) {
  ClusterConfig cfg;
  cfg.num_nodes = 7;
  cfg.quorum = QuorumKind::kMajority;
  cfg.seed = 32;
  cfg.runtime.mode = mode;
  Cluster c(cfg);
  const ObjectId obj = c.seed_new_object(Bytes{1});

  c.fault_points().arm(fp::kCommitBeforeConfirm, FaultAction::kSuspend, 0);
  bool committed = false;
  c.simulator().spawn(run_bounded(&c, 0, bump_body(obj), 1, &committed));
  c.run_to_completion();
  ASSERT_EQ(c.fault_points().suspended(fp::kCommitBeforeConfirm), 1u);
  ASSERT_EQ(c.server(1).commit_log().in_flight(), 1u)
      << "node 1 must have voted (and prepared) in the parked round";

  c.kill_node(1);
  c.fault_points().resume(fp::kCommitBeforeConfirm);
  c.run_to_completion();
  EXPECT_TRUE(committed);
  c.recover_node(1);
  c.run_to_completion();

  EXPECT_EQ(c.server(1).store().version_of(obj), 2u);
  for (std::uint32_t n = 0; n < c.num_nodes(); ++n) {
    EXPECT_EQ(c.server(static_cast<net::NodeId>(n)).commit_log().in_flight(),
              0u)
        << "node " << n << " still holds a prepare";
  }
  EXPECT_EQ(c.metrics().indoubt_resolved_commit, 1u)
      << "the coordinator's decision settles the replayed prepare";
  EXPECT_EQ(c.metrics().indoubt_resolved_abort, 0u);
}

TEST(Termination, RestartedVoterSettlesReplayedPrepareFlat) {
  expect_restarted_voter_settles(NestingMode::kFlat);
}

TEST(Termination, RestartedVoterSettlesReplayedPrepareQueued) {
  expect_restarted_voter_settles(NestingMode::kQueued);
}

}  // namespace
}  // namespace qrdtm::core
