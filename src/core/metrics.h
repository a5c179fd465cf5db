// Cluster-wide experiment metrics.
//
// These counters back every number the paper reports: throughput
// (commits / simulated second), abort rates (root + child aborts, partial
// rollbacks), and message counts split into read and commit requests
// (Fig. 8 reports percentage deltas of exactly these two categories).
//
// QRDTM_METRICS is the one declaration of every counter: X(name, help).
// It generates the Metrics fields and Metrics::for_each, and every exporter
// walks for_each, so a counter added here reaches every export.
#pragma once

#include <cstdint>
#include <limits>

#include "sim/simulator.h"

// clang-format off
#define QRDTM_METRICS(X)                                                      \
  /* --- outcomes --- */                                                      \
  X(commits, "root transactions committed")                                   \
  X(root_aborts, "full aborts (root restarted)")                              \
  X(ct_aborts, "QR-CN: closed-nested scope retries")                          \
  X(partial_rollbacks, "QR-CHK: rollbacks to a checkpoint")                   \
  X(local_commits, "commits that needed no 2PC (Rqv)")                        \
  /* --- mechanism counters --- */                                            \
  X(remote_reads, "read requests issued (per quorum op)")                     \
  X(local_read_hits, "reads served from own/ancestor data-set")               \
  X(commit_requests, "2PC rounds started")                                    \
  X(validation_failures, "Rqv abort replies received")                        \
  X(vote_aborts, "2PC rounds that lost a vote")                               \
  X(checkpoints_created, "QR-CHK checkpoints created")                        \
  X(step_guard_trips, "zombie executions cut short")                          \
  /* --- QR-Q (queued speculative batching) --- */                            \
  X(batches_committed, "batch 2PC rounds that committed")                     \
  X(speculation_rollbacks, "batch rounds aborted + re-run")                   \
  X(batch_read_hits, "reads served from the batch cache")                     \
  /* --- recovery (churn experiments) --- */                                  \
  X(node_recoveries, "replicas that completed catch-up")                      \
  /* Objects shipped over the wire by delta-bounded catch-up pulls (the      \
     rejoining node sent post-log-replay version bounds, servers returned    \
     only strictly-newer copies).  Compare against recovery_full_objects:    \
     delta recovery is the point of the commit log, and the test suite       \
     asserts delta << full on the same workload. */                          \
  X(recovery_delta_objects, "objects shipped by delta-bounded catch-up pulls") \
  /* Objects shipped by legacy full-store pulls (no bounds: durable logging  \
     off, or the local log was unusable). */                                 \
  X(recovery_full_objects, "objects shipped by full-store catch-up pulls")    \
  X(log_replay_applies, "apply ops replayed from local logs")                 \
  X(checkpoint_cuts, "commit-log cuts taken cluster-wide")                    \
  /* Recovery attempts that exhausted every delta-pull round without         \
     gathering a full read quorum.  The node stays syncing and a re-attempt  \
     is scheduled; a nonzero count under churn is expected, a *growing*      \
     count with no matching node_recoveries means a wedged replica. */       \
  X(recovery_failures, "recovery attempts that found no full read quorum")    \
  X(log_autocuts, "checkpoint cuts forced by max_tail_bytes")                 \
  /* --- cooperative 2PC termination (DESIGN.md §17) --- */                   \
  /* In-doubt prepares resolved to commit by a termination round (a peer or  \
     the coordinator supplied the decision, or an applied copy proved it). */\
  X(indoubt_resolved_commit, "in-doubt prepares resolved to commit")          \
  /* In-doubt prepares resolved to abort: an authoritative abort answer, or  \
     presumed-abort after a full round of "no decision + coordinator         \
     restarted into a newer liveness epoch". */                              \
  X(indoubt_resolved_abort, "in-doubt prepares resolved to abort")            \
  /* TxnStatusRequest rounds issued (each round multicasts one query to the  \
     coordinator and the write-quorum peers, then waits out a backoff). */   \
  X(termination_rounds, "termination query rounds issued")                    \
  /* Confirms dropped as duplicates by the (txn, epoch) applied-set --       \
     at-least-once retransmission from recovered coordinators and resolving  \
     peers makes these routine, never double-applied. */                     \
  X(confirm_duplicates, "confirms dropped as duplicates")                     \
  /* Merely-protected entries (no durable yes-vote) shed by the              \
     coordinator-liveness lease on a later conflicting read or vote. */      \
  X(lease_breaks, "protections shed by the coordinator-liveness lease")       \
  /* --- sharded cohorts --- */                                               \
  /* 2PC vote rounds whose read+write set spanned more than one quorum       \
     cohort (the multicast covered several cohorts' write quorums). */       \
  X(cross_shard_rounds, "2PC rounds spanning several cohorts")                \
  /* --- QR-ON (open nesting extension) --- */                                \
  X(open_commits, "open-nested bodies committed")                             \
  X(compensations_run, "open-nested bodies undone after a root abort")        \
  X(lock_conflicts, "abstract-lock acquisition retries")                      \
  X(lock_messages, "abstract-lock acquire + release traffic")                 \
  /* --- message counts (paper Fig. 8 categories) --- */                      \
  /* One multicast to a quorum of size q counts as q messages, matching the  \
     paper's JGroups accounting. */                                          \
  X(read_messages, "read request messages")                                   \
  X(commit_messages, "commit (2PC) messages")
// clang-format on

namespace qrdtm::core {

struct Metrics {
#define QRDTM_METRIC_FIELD(name, help) std::uint64_t name = 0;
  QRDTM_METRICS(QRDTM_METRIC_FIELD)
#undef QRDTM_METRIC_FIELD

  /// Calls f(name, help, value) once per counter, in declaration order.
  template <class F>
  void for_each(F&& f) const {
#define QRDTM_METRIC_VISIT(name, help) f(#name, help, name);
    QRDTM_METRICS(QRDTM_METRIC_VISIT)
#undef QRDTM_METRIC_VISIT
  }

  /// Every event that discarded work and restarted it.  QR-Q's unit of
  /// abort is a batch 2PC round (one speculation_rollback discards the
  /// whole batch's speculative state), mirroring how a flat abort discards
  /// one transaction's attempt.
  std::uint64_t total_aborts() const {
    return root_aborts + ct_aborts + partial_rollbacks + speculation_rollbacks;
  }
  std::uint64_t total_messages() const {
    return read_messages + commit_messages + lock_messages;
  }

  double throughput(sim::Tick duration) const {
    double s = sim::to_seconds(duration);
    return s > 0 ? static_cast<double>(commits) / s : 0.0;
  }

  /// Aborts per committed transaction (dimensionless abort rate).  With no
  /// commits the ratio is undefined: NaN, never the raw abort count (which
  /// would silently change units in report output -- printers show "n/a").
  double abort_rate() const {
    return commits ? static_cast<double>(total_aborts()) /
                         static_cast<double>(commits)
                   : std::numeric_limits<double>::quiet_NaN();
  }

  /// Messages per commit (normalising message counts across modes whose
  /// runs commit different transaction counts in the same duration); 0 with
  /// no commits.
  double messages_per_commit() const {
    return commits ? static_cast<double>(total_messages()) /
                         static_cast<double>(commits)
                   : 0.0;
  }
};

}  // namespace qrdtm::core
