// The one 2PC round (TxnRuntime::two_phase_commit) under every mode that
// runs it: the decision record, the confirm broadcast and the commit_settle
// charge follow one rule derived from the nesting mode and the round's
// write-set.
//
//   * A decision is logged exactly when the round writes.
//   * A writing round always confirms to its whole write quorum.
//   * A read-only round confirms under the per-transaction modes (the
//     paper's 2PC) and sends nothing under QR-Q, whose vote alone validates
//     the read bases.
//   * commit_settle is charged exactly when a confirm is sent.
#include <gtest/gtest.h>

#include <string>

#include "core/cluster.h"
#include "core/trace.h"
#include "store/commit_log.h"

namespace qrdtm::core {
namespace {

struct RoundCase {
  const char* name;
  NestingMode mode;
  bool writes;
};

// Without this gtest prints the raw bytes of a RoundCase, whose first field
// is a pointer: the listed test names (and so the ctest names) would change
// with the load address.
void PrintTo(const RoundCase& rc, std::ostream* os) {
  *os << to_string(rc.mode) << (rc.writes ? "/writing" : "/read-only");
}

constexpr sim::Tick kSettle = sim::msec(200);  // far above a vote round trip

class TwoPhaseReadOnlyRule : public ::testing::TestWithParam<RoundCase> {};

TEST_P(TwoPhaseReadOnlyRule, DecisionConfirmAndSettleFollowTheRound) {
  const RoundCase& rc = GetParam();
  ClusterConfig cfg;
  cfg.num_nodes = 7;
  cfg.quorum = QuorumKind::kMajority;
  cfg.seed = 5;
  cfg.runtime.mode = rc.mode;
  // QR-CN would commit a read-only root locally, with no round at all.
  cfg.runtime.cn_local_readonly_commit = false;
  cfg.runtime.commit_settle = kSettle;
  Cluster c(cfg);
  TraceRecorder tracer;
  c.set_trace_recorder(&tracer);
  const ObjectId obj = c.seed_new_object(Bytes{1});

  const bool writes = rc.writes;
  c.spawn_client(0, [obj, writes](Txn& t) -> sim::Task<void> {
    if (!writes) {
      (void)co_await t.read(obj);
      co_return;
    }
    Bytes b = co_await t.read_for_write(obj);
    b[0] += 1;
    t.write(obj, b);
  });
  c.run_to_completion();
  ASSERT_EQ(c.metrics().commits, 1u);

  // Exactly one (non-local) 2PC round ran; its span names the round id.
  const TraceSpan* round = nullptr;
  for (const TraceSpan& s : tracer.spans()) {
    if (s.kind != TraceKind::kCommit2pc) continue;
    ASSERT_EQ(round, nullptr) << "more than one commit round";
    round = &s;
  }
  ASSERT_NE(round, nullptr);
  EXPECT_EQ(round->a1, 0u) << "the round must not commit locally";

  EXPECT_EQ(c.server(0).commit_log().decision_verdict(round->txn).has_value(),
            writes)
      << "a decision is logged exactly when the round writes";

  const net::NetStats& net = c.network().stats();
  const std::uint64_t confirms = net.sent_by_kind(msg::kCommitConfirm) +
                                 net.sent_by_kind(msg::kBatchCommitConfirm);
  const std::size_t wq = c.quorums().write_quorum(0, obj).size();
  const bool confirmed = writes || rc.mode != NestingMode::kQueued;
  EXPECT_EQ(confirms, confirmed ? wq : 0u)
      << "a confirmed round reaches its whole write quorum";

  const sim::Tick took = round->end - round->start;
  EXPECT_EQ(took >= kSettle, confirmed)
      << "commit_settle is charged exactly when a confirm is sent";
}

INSTANTIATE_TEST_SUITE_P(
    ModesByWriteSet, TwoPhaseReadOnlyRule,
    ::testing::Values(RoundCase{"FlatReadOnly", NestingMode::kFlat, false},
                      RoundCase{"FlatWriting", NestingMode::kFlat, true},
                      RoundCase{"ClosedReadOnly", NestingMode::kClosed, false},
                      RoundCase{"ClosedWriting", NestingMode::kClosed, true},
                      RoundCase{"CheckpointReadOnly", NestingMode::kCheckpoint,
                                false},
                      RoundCase{"CheckpointWriting", NestingMode::kCheckpoint,
                                true},
                      RoundCase{"QueuedReadOnly", NestingMode::kQueued, false},
                      RoundCase{"QueuedWriting", NestingMode::kQueued, true}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace qrdtm::core
