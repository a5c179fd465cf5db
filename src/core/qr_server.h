// QR replica server: the per-node, server-side half of the QR / QR-CN /
// QR-CHK protocols.
//
// All handlers are synchronous local work (validate versions, copy an
// object, vote, apply) -- replicas never block on other nodes, exactly as in
// the paper where the remote side of every operation is a local decision.
//
//   * kRead          -- Rqv validation of the requester's data-set (Alg. 1 /
//     Alg. 4), then serve the local copy (Alg. 2 "Remote").  No PR/PW
//     lists are kept (DESIGN.md §7).
//   * kCommitRequest / kBatchCommitRequest -- 2PC vote: validate read-set
//     versions and write-set bases, check protection, protect the write-set
//     on a commit vote.  One routine serves both: a flat commit is a batch
//     of one (steps = 1).
//   * kCommitConfirm / kBatchCommitConfirm -- apply (or roll back) the
//     protected write-set, again through one routine.
//   * kSyncPull      -- recovery catch-up: serve the full committed store to
//     a rejoining replica (Cluster::recover_node's anti-entropy pull).
//
// Protections carry a coordinator-liveness lease: one held longer than the
// lease means the coordinator died between vote and confirm (a confirm is
// one-way and near-immediate).  Merely-protected entries (no durable
// yes-vote) are still shed lazily on the next conflicting read/vote.
// *Prepared* entries -- the protection backs a WAL prepare -- instead run
// the cooperative termination protocol (DESIGN.md §17): query the
// coordinator and the write-quorum peers with TxnStatusRequest, propagate
// any decision found, and presumed-abort only after a full round of "no
// decision anywhere + coordinator restarted into a newer liveness epoch".
// The check is pure tick arithmetic on the conflict path only -- chaos-free
// runs never shed (the default lease far exceeds any legitimate
// vote->confirm gap) and their event schedule is unchanged.
#pragma once

#include <cstdint>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/faultpoint.h"
#include "core/metrics.h"
#include "core/trace.h"
#include "core/wire.h"
#include "net/rpc.h"
#include "quorum/quorum.h"
#include "sim/task.h"
#include "store/commit_log.h"
#include "store/replica_store.h"

namespace qrdtm::core {

class QrServer {
 public:
  /// Wires the three QR services into `rpc` and counts into `metrics`.
  /// The server must outlive the endpoint's registered handlers, and the
  /// metrics sink must outlive the server (the Cluster owns all three).
  QrServer(net::RpcEndpoint& rpc, Metrics& metrics);

  store::ReplicaStore& store() { return store_; }
  const store::ReplicaStore& store() const { return store_; }

  net::NodeId id() const { return id_; }

  /// The per-node durable commit log (the in-sim "disk").  Populated only
  /// while durable logging is on; survives a crash by construction (crash =
  /// wiping the ReplicaStore, never the log).
  store::CommitLog& commit_log() { return log_; }
  const store::CommitLog& commit_log() const { return log_; }

  /// Durable-logging regime.  Off (the pre-commit-log default for
  /// standalone rigs): committed versions survive a crash wholesale and
  /// recovery full-pulls a read quorum.  On (ClusterConfig default): the
  /// store is truly volatile, crashes wipe it, and recovery replays the log
  /// then pulls a version-bounded delta.  Set before seeding.
  void set_durable_log(bool on) { durable_log_ = on; }
  bool durable_log() const { return durable_log_; }

  /// Attach the fault-point registry (nullptr = all points unarmed).
  void set_fault_points(FaultPointRegistry* faults) { faults_ = faults; }

  /// Attach the cluster's quorum provider so the replica knows which
  /// objects it holds (nullptr = full replication, the classic providers).
  /// Under sharded cohorts a commit multicast spans the union of several
  /// cohorts' write quorums, so every recipient filters protect/log/apply
  /// down to the entries it actually replicates.
  void set_quorum_provider(const quorum::QuorumProvider* quorums) {
    quorums_ = quorums;
  }

  /// Tail-growth bound for the commit log: once the record tail exceeds
  /// this many bytes a checkpoint cut is taken right after the append.
  /// 0 disables the auto-cut (the pre-bound behaviour: the tail grows
  /// without bound until recovery or a chaos-scheduled cut).
  void set_max_tail_bytes(std::size_t bytes) { max_tail_bytes_ = bytes; }
  std::size_t max_tail_bytes() const { return max_tail_bytes_; }

  /// Seed an object at setup time: installs it in the store and, under
  /// durable logging, records it so a crashed node can replay it.
  void seed_object(ObjectId id, Bytes data, Version version = 1);

  /// Take a checkpoint cut on the commit log: snapshot the store image,
  /// carry in-flight prepares (unless fp::kChkCutCarry is armed kSkip --
  /// the Greengage bug), discard the record tail.
  void cut_checkpoint();

  /// Crash recovery, local half: wipe the store and rebuild it from the
  /// commit log.  Returns the number of apply operations replayed.
  std::size_t replay_commit_log();

  /// Recovery catch-up state.  While syncing, the replica refuses service
  /// (reads answer kMissing, votes abort, sync pulls answer !ok): its store
  /// may be stale, and Q1 only tolerates stale *excluded* replicas.
  void set_syncing(bool syncing) { syncing_ = syncing; }
  bool syncing() const { return syncing_; }

  /// Coordinator-liveness lease on protections; 0 disables shedding.
  void set_protection_lease(sim::Tick lease) { protection_lease_ = lease; }
  sim::Tick protection_lease() const { return protection_lease_; }

  /// In-doubt transactions currently running a termination round.
  std::size_t terminations_in_flight() const { return term_.size(); }

  /// Re-send the confirms of every unsettled decision in the commit log
  /// (Cluster::recover_node calls this after replay: a coordinator that
  /// crashed between decision and broadcast finishes the broadcast in its
  /// new incarnation).  Returns the number of decisions re-driven.
  std::size_t redrive_open_decisions();

  /// Start a termination round for every prepare the log replay left
  /// pending (Cluster::recover_task calls this once the recovery sync is
  /// done).  A restart loses the protections and vote metadata with the
  /// store, so nothing else would ever resolve a prepare whose confirm
  /// arrived while this node was down.
  void terminate_replayed_prepares();

  /// Attach a trace recorder; replica-side read/vote instants are tagged
  /// with the requester's span context from the message envelope (nullptr =
  /// tracing off).
  void set_trace_recorder(TraceRecorder* tracer) { tracer_ = tracer; }

  /// Test-only: make this replica vote commit without validating read-set
  /// versions or write protection.  Exists solely to prove the history
  /// checker detects real 1-copy serializability violations (the fuzz
  /// harness's deliberately-broken mode); never set in production paths.
  void set_validation_disabled_for_test(bool disabled) {
    skip_commit_validation_ = disabled;
  }

 private:
  /// Per-prepared-transaction metadata for cooperative termination: who the
  /// coordinator is and what its liveness epoch was when this replica voted
  /// (an epoch bump since then means the coordinator was killed or revived).
  struct PreparedMeta {
    net::NodeId coordinator = 0;
    std::uint32_t coord_epoch = 0;
  };

  /// In-flight termination state for one in-doubt transaction.
  struct Termination {
    net::NodeId coordinator = 0;
    std::uint32_t coord_epoch = 0;  // epoch recorded at vote time
    std::vector<net::NodeId> targets;  // coordinator + union WQ peers, no self
    /// Targets that answered this round without a decision (kUnknown /
    /// kPrepared).  Presumed-abort needs ALL of them to have answered.
    std::set<net::NodeId> round_no_decision;
    /// The coordinator answered without a decision from a NEWER liveness
    /// epoch: it restarted, and its empty decision log proves no confirm
    /// ever left it (decisions are logged before the first confirm).
    bool coord_no_decision_newer = false;
    /// The prepare predates a restart (terminate_replayed_prepares).  A
    /// retried root reuses its id, so the verdict may be a later attempt's:
    /// it only settles the log entry, with no apply and no re-send.
    bool replayed = false;
  };

  ReadResponse handle_read(const ReadRequest& req);

  /// The 2PC vote, written once for both wire families (kCommitRequest and
  /// kBatchCommitRequest; a CommitWriteEntry counts as steps = 1): validate
  /// every read version and write base, report the ids that failed, and on
  /// a commit vote protect and durably prepare the write-set.
  template <class WriteEntry>
  BatchVoteResponse vote(TxnId txn, const std::vector<CommitReadEntry>& reads,
                         const std::vector<WriteEntry>& updates);
  /// The one-way 2PC confirm for both families: log the outcome, then apply
  /// base+steps (commit) or just unprotect (abort).
  template <class WriteEntry>
  void confirm(TxnId txn, bool commit, const std::vector<WriteEntry>& updates);

  /// Termination metadata for a prepare of `txn`: its coordinator and that
  /// node's liveness epoch as of now.
  PreparedMeta prepared_meta(TxnId txn) const;

  /// Rqv (Alg. 1 + Alg. 4): returns an abort-carrying response when any
  /// data-set entry is invalid on this replica, nullopt when valid.
  std::optional<ReadResponse> validate(const ReadRequest& req);

  /// protected_against with the coordinator-liveness lease applied: an
  /// expired merely-protected entry is shed (counted) and reads as
  /// unprotected; an expired *prepared* entry stays protected and kicks off
  /// a termination round for its transaction.
  bool check_protected(ObjectId id, TxnId txn);

  /// True when a confirm for (txn) was already applied in this liveness
  /// epoch; counts the duplicate when so.
  bool confirm_is_duplicate(TxnId txn);
  /// Record the applied outcome for (txn) in this liveness epoch.
  void record_outcome(TxnId txn, bool commit);

  /// Begin cooperative termination for an in-doubt prepared transaction
  /// (no-op when one is already running or metadata is missing).
  /// `replayed` marks a prepare left over from before a restart.
  void start_termination(TxnId txn, bool replayed = false);
  /// The driving coroutine: bounded rounds of query -> wait -> evaluate.
  sim::Task<void> termination_task(TxnId txn);
  /// Answer a peer's status query from the applied-set, the decision log,
  /// and the pending prepares -- via a one-way kTxnStatusResponse notify.
  void handle_txn_status_request(net::NodeId from, const TxnStatusRequest& req);
  /// Fold a peer's answer into the in-flight termination state; an
  /// authoritative decision resolves immediately.
  void handle_txn_status_response(net::NodeId from,
                                  const TxnStatusResponse& resp);
  /// Apply the resolved outcome locally (WAL first), then retransmit the
  /// confirm to the write-quorum peers (at-least-once; they dedupe).
  void resolve_indoubt(TxnId txn, bool commit);
  /// Re-send an encoded confirm to `to` (at-least-once; receivers dedupe).
  void send_confirm(const std::vector<net::NodeId>& to, net::MsgKind kind,
                    const Bytes& payload);

  SyncPullResponse handle_sync_pull(net::NodeId from,
                                    const Bytes& payload) const;

  /// Whether this node replicates `id` (true under full replication).
  bool replicated_here(ObjectId id) const {
    return quorums_ == nullptr || quorums_->replicates(id_, id);
  }

  /// Cut a checkpoint when the record tail outgrew max_tail_bytes_.
  void maybe_autocut();

  /// The node's current liveness epoch, stamped into every log record so
  /// replay can pair prepares with confirms from the same incarnation.
  std::uint32_t liveness_epoch() const;

  /// fire() on the attached registry, kNone when detached.
  FaultAction fault(const char* point);

  net::RpcEndpoint& rpc_;
  net::NodeId id_;
  TraceRecorder* tracer_ = nullptr;
  FaultPointRegistry* faults_ = nullptr;
  const quorum::QuorumProvider* quorums_ = nullptr;
  Metrics& metrics_;
  store::ReplicaStore store_;
  store::CommitLog log_;
  bool durable_log_ = false;
  std::size_t max_tail_bytes_ = 0;
  sim::Tick protection_lease_ = 0;
  bool syncing_ = false;
  bool skip_commit_validation_ = false;

  // --- cooperative termination state (DESIGN.md §17) ---
  /// Applied 2PC outcomes, keyed txn -> (liveness epoch, commit): the
  /// idempotence set that lets confirms be retransmitted at-least-once.
  /// Rebuilt from the log's confirm records at replay.
  std::unordered_map<TxnId, std::pair<std::uint32_t, bool>> outcomes_;
  /// Prepared (yes-voted, WAL'd) transactions awaiting their confirm.
  std::unordered_map<TxnId, PreparedMeta> prepared_;
  /// In-doubt transactions with a termination round in flight.
  std::unordered_map<TxnId, Termination> term_;
  /// Jitters the between-round backoff; seeded per node so the schedule is
  /// deterministic and distinct across replicas.
  Rng term_rng_{1};
};

}  // namespace qrdtm::core
