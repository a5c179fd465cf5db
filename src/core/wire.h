// QR-family wire messages (read / commit-request / confirm) and their serde.
//
// ReadRequest doubles as the Rqv validation carrier: under QR-CN / QR-CHK it
// ships the requesting transaction's entire data-set (read-set + write-set,
// including every ancestor's) so the replica can validate incrementally
// before serving the object (paper Alg. 1, 2, 4).  Under flat QR the
// data-set is empty and replicas skip validation.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/serde.h"
#include "core/types.h"
#include "net/message.h"

namespace qrdtm::core {

namespace msg {
// Message kinds (0x01xx = QR family).
constexpr net::MsgKind kRead = 0x0101;
constexpr net::MsgKind kCommitRequest = 0x0102;
constexpr net::MsgKind kCommitConfirm = 0x0103;  // one-way, commit or abort
constexpr net::MsgKind kSyncPull = 0x0104;       // recovery anti-entropy
constexpr net::MsgKind kBatchCommitRequest = 0x0105;  // QR-Q: batch 2PC vote
constexpr net::MsgKind kBatchCommitConfirm = 0x0106;  // QR-Q: one-way confirm
constexpr net::MsgKind kTxnStatusRequest = 0x0107;    // termination: one-way
constexpr net::MsgKind kTxnStatusResponse = 0x0108;   // termination: one-way
}  // namespace msg

/// One validated object in the requester's data-set.
struct DataSetEntry {
  ObjectId id = 0;
  Version version = 0;
  /// QR-CN: the scope (root or CT) that owns the copy, and its depth in the
  /// nesting hierarchy (0 = root).  The replica reports the *shallowest*
  /// invalid owner as abortClosed (paper Alg. 1 line 9-10).
  TxnId owner = 0;
  std::uint32_t owner_depth = 0;
  /// QR-CHK: checkpoint epoch current when the copy was fetched.  The
  /// replica reports the *minimum* invalid epoch as abortChk (Alg. 4).
  ChkEpoch owner_chk = 0;
};

struct ReadRequest {
  // Root transaction id: keys only the requester's own protection, which
  // check_protected lets it read through.
  TxnId root = 0;
  NestingMode mode = NestingMode::kFlat;
  ObjectId object = 0;
  // Unread by the server; the benchmark-scope wire change (ROADMAP item 3)
  // removes it together with perfbench's positional encoder.
  bool for_write = false;
  std::vector<DataSetEntry> dataset;  // empty under flat QR

  Bytes encode() const;
  void encode_into(Writer& w) const;
  static ReadRequest decode(const Bytes& b);
};

/// Encode a ReadRequest straight from its fields, with the data-set borrowed
/// rather than copied into a ReadRequest struct first.  This is the hot read
/// path: under QR-CN / QR-CHK every remote read ships the root's full
/// data-set (Rqv), so avoiding the intermediate vector copy matters.
void encode_read_request(Writer& w, TxnId root, NestingMode mode,
                         ObjectId object, bool for_write,
                         const std::vector<DataSetEntry>& dataset);

enum class ReadStatus : std::uint8_t {
  kOk = 0,       // copy attached (version may be 0 if replica never saw it)
  kMissing = 1,  // replica has no copy (stale replica or unknown object)
  kAbort = 2     // Rqv validation failed; abort info attached
};

struct ReadResponse {
  ReadStatus status = ReadStatus::kMissing;
  Version version = 0;
  Bytes data;
  // Abort info (status == kAbort):
  TxnId abort_scope = 0;
  std::uint32_t abort_depth = 0;
  ChkEpoch abort_chk = 0;

  Bytes encode() const;
  void encode_into(Writer& w) const;
  static ReadResponse decode(const Bytes& b);
};

/// One read-set entry validated at commit time.
struct CommitReadEntry {
  ObjectId id = 0;
  Version version = 0;
};

/// One write-set entry: `base` is the version the writer read; the committed
/// version becomes base+1 (globally fresh by Q1 -- see qr_server.cpp).
struct CommitWriteEntry {
  ObjectId id = 0;
  Version base = 0;
  Bytes data;
};

struct CommitRequest {
  TxnId txn = 0;
  std::vector<CommitReadEntry> readset;
  std::vector<CommitWriteEntry> writeset;

  Bytes encode() const;
  void encode_into(Writer& w) const;
  static CommitRequest decode(const Bytes& b);
};

struct VoteResponse {
  bool commit = false;

  Bytes encode() const;
  void encode_into(Writer& w) const;
  static VoteResponse decode(const Bytes& b);
};

/// One committed copy shipped during recovery catch-up.
struct SyncEntry {
  ObjectId id = 0;
  Version version = 0;
  Bytes data;
};

/// Per-object bound in a SyncPullRequest: "I already hold `id` at `version`".
struct SyncBound {
  ObjectId id = 0;
  Version version = 0;
};

/// Recovery anti-entropy pull.  `have` lists the puller's post-log-replay
/// versions, ids ascending, so the server ships only strictly-newer copies
/// (the version-bounded delta).  A puller whose replay rebuilt nothing (its
/// log was lost or voided) sends an empty `have` and so receives every
/// copy it replicates.
struct SyncPullRequest {
  std::vector<SyncBound> have;

  Bytes encode() const;
  void encode_into(Writer& w) const;
  static SyncPullRequest decode(const Bytes& b);
};

/// Reply to a kSyncPull: the serving replica's committed copies that are
/// strictly newer than the requester's bounds (all of them when no bounds
/// were given), ids ascending.  The recovering node installs each entry
/// through ReplicaStore::apply, which keeps only strictly-newer copies, so
/// merging pulls from a whole read quorum is order-independent.  `ok` is
/// false while the *server* is itself still syncing -- a catching-up replica
/// must not seed another one.  `total_objects` is the size of the server's
/// committed store, letting the puller report delta-vs-full metrics.
struct SyncPullResponse {
  bool ok = false;
  std::uint64_t total_objects = 0;
  std::vector<SyncEntry> entries;

  Bytes encode() const;
  void encode_into(Writer& w) const;
  static SyncPullResponse decode(const Bytes& b);
};

/// One collapsed per-object queue in a QR-Q batch commit: the batch read
/// `base` through a read quorum and speculatively absorbed `steps` writes,
/// of which `data` is the final value.  The replica validates `base` like a
/// CommitWriteEntry and applies version base+steps at confirm -- one wire
/// entry and one protection per object regardless of how many transactions
/// in the batch wrote it.
struct BatchWriteEntry {
  ObjectId id = 0;
  Version base = 0;
  std::uint32_t steps = 0;  // writes absorbed (>= 1; 0 fails to decode)
  Bytes data;               // value after the last write in queue order
};

/// QR-Q batch 2PC vote request: one protected write-set push for the whole
/// batch.  `readset` holds objects the batch only read (one entry per
/// object, at the quorum-fetched base version); written objects are
/// validated through their BatchWriteEntry base.
struct BatchCommitRequest {
  TxnId batch = 0;  // batch id (protection/bookkeeping key, like a txn id)
  std::vector<CommitReadEntry> readset;
  std::vector<BatchWriteEntry> writeset;

  Bytes encode() const;
  void encode_into(Writer& w) const;
  static BatchCommitRequest decode(const Bytes& b);
};

/// Reply to a batch vote.  On an abort vote `stale` names every entry that
/// failed validation on this replica, so the coordinator invalidates (and
/// re-fetches) only those queues before re-speculating -- the targeted
/// rollback that keeps QR-Q's retry cost near zero under contention.
struct BatchVoteResponse {
  bool commit = false;
  std::vector<ObjectId> stale;

  Bytes encode() const;
  void encode_into(Writer& w) const;
  static BatchVoteResponse decode(const Bytes& b);
};

/// One-way confirm for a batch commit round; applies base+steps per object
/// (commit) or just unprotects (abort).
struct BatchCommitConfirm {
  TxnId batch = 0;
  bool commit = false;
  std::vector<BatchWriteEntry> writeset;

  Bytes encode() const;
  void encode_into(Writer& w) const;
  static BatchCommitConfirm decode(const Bytes& b);
};

/// What a peer knows about a transaction's 2PC outcome, in answer to a
/// TxnStatusRequest during cooperative termination (DESIGN.md §17).  Any
/// other byte on the wire is rejected at decode.
enum class TxnStatus : std::uint8_t {
  kUnknown = 0,    // no decision record, no prepare: never heard of it (or
                   // already settled and garbage-collected)
  kCommitted = 1,  // applied it, or holds a commit decision / confirm record
  kAborted = 2,    // holds an abort decision
  kPrepared = 3    // voted yes and still holds the prepared protection
};

/// One-way in-doubt query sent by a replica whose prepared protection
/// outlived its lease: "what happened to txn?".  Sent to the coordinator and
/// the write-quorum peers; answered with a TxnStatusResponse notify (both
/// directions are one-way so a dead peer just never answers).
struct TxnStatusRequest {
  TxnId txn = 0;

  Bytes encode() const;
  void encode_into(Writer& w) const;
  static TxnStatusRequest decode(const Bytes& b);
};

/// One-way answer to a TxnStatusRequest.  `epoch` is the responder's current
/// liveness epoch: the inquirer compares a coordinator's epoch against the
/// epoch it recorded at vote time to distinguish "same incarnation, still
/// deciding" (wait) from "restarted with no decision on disk" (the
/// presumed-abort precondition).
struct TxnStatusResponse {
  TxnId txn = 0;
  TxnStatus status = TxnStatus::kUnknown;
  std::uint32_t epoch = 0;

  Bytes encode() const;
  void encode_into(Writer& w) const;
  static TxnStatusResponse decode(const Bytes& b);
};

/// One-way confirm broadcast to the write quorum after gathering votes.
struct CommitConfirm {
  TxnId txn = 0;
  bool commit = false;  // false = abort: just unprotect + drop bookkeeping
  std::vector<CommitWriteEntry> writeset;  // applied as version base+1

  Bytes encode() const;
  void encode_into(Writer& w) const;
  static CommitConfirm decode(const Bytes& b);
};

/// The committed-version step of one write entry: a per-transaction write
/// is the degenerate QR-Q queue of one.
inline std::uint32_t steps_of(const CommitWriteEntry&) { return 1; }
inline std::uint32_t steps_of(const BatchWriteEntry& e) { return e.steps; }

/// The two 2PC wire families -- per transaction (Commit*) and per QR-Q
/// batch (BatchCommit*) -- run through one server vote/confirm pair
/// (qr_server.cpp) and one client round (TxnRuntime::two_phase_commit).
/// TwoPhaseWire<Request> names the rest of a family for that shared code.
/// Both families stay on the wire until one merged trio replaces them:
/// perfbench encodes each by name (DESIGN.md §17).
template <class Request>
struct TwoPhaseWire;

template <>
struct TwoPhaseWire<CommitRequest> {
  using Vote = VoteResponse;
  using Confirm = CommitConfirm;
  static constexpr net::MsgKind kRequest = msg::kCommitRequest;
  static constexpr net::MsgKind kConfirm = msg::kCommitConfirm;
  static TxnId id(const CommitRequest& r) { return r.txn; }
};

template <>
struct TwoPhaseWire<BatchCommitRequest> {
  using Vote = BatchVoteResponse;
  using Confirm = BatchCommitConfirm;
  static constexpr net::MsgKind kRequest = msg::kBatchCommitRequest;
  static constexpr net::MsgKind kConfirm = msg::kBatchCommitConfirm;
  static TxnId id(const BatchCommitRequest& r) { return r.batch; }
};

}  // namespace qrdtm::core
