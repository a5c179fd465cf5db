#include "store/commit_log.h"

#include <algorithm>
#include <utility>

#include "common/serde.h"

namespace qrdtm::store {

namespace {

// Tail record types.
constexpr std::uint8_t kApply = 1;
constexpr std::uint8_t kPrepare = 2;
constexpr std::uint8_t kConfirm = 3;
constexpr std::uint8_t kDecision = 4;

void put_decision(Writer& w, TxnId txn, const Decision& d) {
  w.u32(d.epoch);
  w.u64(txn);
  w.boolean(d.commit);
  w.u16(d.confirm_kind);
  encode_vec(w, d.members, [](Writer& w2, std::uint32_t n) { w2.u32(n); });
  w.blob(d.payload);
}

std::pair<TxnId, Decision> get_decision(Reader& r) {
  Decision d;
  d.epoch = r.u32();
  const TxnId txn = r.u64();
  d.commit = r.boolean();
  d.confirm_kind = r.u16();
  d.members =
      decode_vec<std::uint32_t>(r, [](Reader& r2) { return r2.u32(); });
  d.payload = r.blob();
  return {txn, std::move(d)};
}

void put_write(Writer& w, const LoggedWrite& lw) {
  w.u64(lw.id);
  w.u64(lw.base);
  w.u32(lw.steps);
  w.blob(lw.data);
}

LoggedWrite get_write(Reader& r) {
  LoggedWrite lw;
  lw.id = r.u64();
  lw.base = r.u64();
  lw.steps = r.u32();
  lw.data = r.blob();
  return lw;
}

/// Frame one record: u32 length prefix + payload.  The prefix is what lets
/// replay drop a torn (partially written) final record instead of
/// misparsing it.
void frame(Bytes& tail, const Writer& payload) {
  Writer len;
  len.u32(static_cast<std::uint32_t>(payload.size()));
  tail.insert(tail.end(), len.bytes().begin(), len.bytes().end());
  tail.insert(tail.end(), payload.bytes().begin(), payload.bytes().end());
}

}  // namespace

void CommitLog::append_apply(ObjectId id, Version version, const Bytes& data,
                             std::uint32_t epoch) {
  Writer w;
  w.reserve(1 + 4 + 8 + 8 + 4 + data.size());
  w.u8(kApply);
  w.u32(epoch);
  w.u64(id);
  w.u64(version);
  w.blob(data);
  frame(tail_, w);
  ++tail_records_;
  high_version_ = std::max(high_version_, version);
}

void CommitLog::append_prepare(TxnId txn, std::vector<LoggedWrite> writes,
                               std::uint32_t epoch) {
  Writer w;
  w.u8(kPrepare);
  w.u32(epoch);
  w.u64(txn);
  encode_vec(w, writes, put_write);
  frame(tail_, w);
  ++tail_records_;
  for (const LoggedWrite& lw : writes) {
    high_version_ = std::max(high_version_, lw.base + lw.steps);
  }
  pending_[txn] = Pending{epoch, std::move(writes)};
}

void CommitLog::append_confirm(TxnId txn, bool commit, std::uint32_t epoch) {
  Writer w;
  w.reserve(1 + 4 + 8 + 1);
  w.u8(kConfirm);
  w.u32(epoch);
  w.u64(txn);
  w.boolean(commit);
  frame(tail_, w);
  ++tail_records_;
  pending_.erase(txn);
}

void CommitLog::append_decision(TxnId txn, Decision d) {
  Writer w;
  w.reserve(1 + 4 + 8 + 1 + 2 + 4 + d.members.size() * 4 + 4 +
            d.payload.size());
  w.u8(kDecision);
  // put_decision leads with the epoch, matching the other records' layout.
  put_decision(w, txn, d);
  frame(tail_, w);
  ++tail_records_;
  verdicts_[txn] = d.commit;
  decisions_[txn] = std::move(d);
}

void CommitLog::settle_decision(TxnId txn) { decisions_.erase(txn); }

std::optional<bool> CommitLog::decision_verdict(TxnId txn) const {
  auto it = verdicts_.find(txn);
  if (it == verdicts_.end()) return std::nullopt;
  return it->second;
}

const std::vector<LoggedWrite>* CommitLog::find_pending(TxnId txn) const {
  auto it = pending_.find(txn);
  return it == pending_.end() ? nullptr : &it->second.writes;
}

std::vector<TxnId> CommitLog::pending_txns() const {
  std::vector<TxnId> txns;
  txns.reserve(pending_.size());
  // Collect-then-sort below.  qrdtm-lint: allow(det-unordered-iter)
  for (const auto& [txn, p] : pending_) txns.push_back(txn);
  std::sort(txns.begin(), txns.end());
  return txns;
}

void CommitLog::cut(const ReplicaStore& store, std::uint32_t epoch,
                    bool carry_in_flight) {
  // Snapshot the committed image, ids ascending (the store map is
  // unordered; the disk bytes must not depend on hash order).
  std::vector<ObjectId> ids;
  ids.reserve(store.num_objects());
  // Collect-then-sort below.  qrdtm-lint: allow(det-unordered-iter)
  for (const auto& [id, e] : store.entries()) ids.push_back(id);
  std::sort(ids.begin(), ids.end());

  Writer w;
  w.u32(epoch);
  Version high = high_version_;
  for (ObjectId id : ids) high = std::max(high, store.find(id)->version);
  w.u64(high);
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (ObjectId id : ids) {
    const ReplicaEntry* e = store.find(id);
    w.u64(id);
    w.u64(e->version);
    w.blob(e->data);
  }

  // Carry the in-flight prepares (the getDtxCheckPointInfo analogue): a
  // transaction mid-2PC at cut time will be confirmed AFTER the cut, and
  // its confirm record carries no writeset -- without the carry, replay
  // silently loses the write (the Greengage bug the chk.cut.carry fault
  // point re-creates).
  if (carry_in_flight) {
    const std::vector<TxnId> txns = pending_txns();
    w.u32(static_cast<std::uint32_t>(txns.size()));
    for (TxnId txn : txns) {
      const Pending& p = pending_.at(txn);
      w.u32(p.epoch);
      w.u64(txn);
      encode_vec(w, p.writes, put_write);
    }
  } else {
    w.u32(0);
  }

  // Carry the unsettled coordinator decisions: a decision whose confirm
  // broadcast has not completed must survive the cut, or a restart after
  // the cut could presumed-abort a transaction whose confirms were already
  // partially delivered.  decisions_ is a std::map, so iteration is already
  // txn-ordered (deterministic disk bytes).
  w.u32(static_cast<std::uint32_t>(decisions_.size()));
  for (const auto& [txn, d] : decisions_) put_decision(w, txn, d);

  image_ = std::move(w).take();
  tail_.clear();
  tail_records_ = 0;
  high_version_ = high;
  ++cuts_;
}

std::size_t CommitLog::replay_into(
    ReplicaStore& store,
    std::unordered_map<TxnId, std::pair<std::uint32_t, bool>>* outcomes)
    const {
  std::size_t applied = 0;
  std::unordered_map<TxnId, Pending> pending;

  if (!image_.empty()) {
    try {
      Reader r(image_);
      r.u32();  // image epoch (observability; not needed to replay)
      r.u64();  // high version bound
      const std::uint32_t nobj = r.u32();
      for (std::uint32_t i = 0; i < nobj; ++i) {
        const ObjectId id = r.u64();
        const Version version = r.u64();
        Bytes data = r.blob();
        store.apply(id, version, std::move(data));
        ++applied;
      }
      const std::uint32_t ncarry = r.u32();
      for (std::uint32_t i = 0; i < ncarry; ++i) {
        Pending p;
        p.epoch = r.u32();
        const TxnId txn = r.u64();
        p.writes = decode_vec<LoggedWrite>(r, get_write);
        pending[txn] = std::move(p);
      }
      // Carried decisions (see cut()).  Nothing to apply here -- the live
      // decisions_/verdicts_ members survive with the log object; parsing
      // keeps the image walk aligned and validates the bytes.  Images cut
      // before the decisions section existed simply end here.
      if (r.remaining() > 0) {
        const std::uint32_t ndec = r.u32();
        for (std::uint32_t i = 0; i < ndec; ++i) get_decision(r);
      }
    } catch (const SerdeError&) {
      // A corrupt image voids the whole log: the tail's confirms would
      // resolve against prepares we may have lost.  The delta pull becomes
      // a full pull, which is safe (just slow).
      return 0;
    }
  }

  Reader r(tail_);
  while (r.remaining() >= 4) {
    const std::uint32_t len = r.u32();
    if (len > r.remaining()) break;  // torn tail: partial record dropped
    Bytes payload(len);
    try {
      // Re-read the framed payload through a bounded sub-reader so a
      // corrupt record cannot consume its successors.
      for (std::uint32_t i = 0; i < len; ++i) payload[i] = r.u8();
      Reader rec(payload);
      const std::uint8_t type = rec.u8();
      const std::uint32_t epoch = rec.u32();
      switch (type) {
        case kApply: {
          const ObjectId id = rec.u64();
          const Version version = rec.u64();
          Bytes data = rec.blob();
          store.apply(id, version, std::move(data));
          ++applied;
          break;
        }
        case kPrepare: {
          const TxnId txn = rec.u64();
          Pending p;
          p.epoch = epoch;
          p.writes = decode_vec<LoggedWrite>(rec, get_write);
          pending[txn] = std::move(p);
          break;
        }
        case kConfirm: {
          const TxnId txn = rec.u64();
          const bool commit = rec.boolean();
          auto it = pending.find(txn);
          // Epoch stamping: a prepare taken in incarnation e can only be
          // confirmed in incarnation e (the network drops cross-epoch
          // traffic), so a mismatched pair is a stale record, not a commit.
          if (it != pending.end() && it->second.epoch == epoch) {
            if (commit) {
              for (const LoggedWrite& lw : it->second.writes) {
                store.apply(lw.id, lw.base + lw.steps, lw.data);
                ++applied;
              }
            }
            pending.erase(it);
            if (outcomes != nullptr) (*outcomes)[txn] = {epoch, commit};
          }
          break;
        }
        case kDecision:
          // Coordinator decision: nothing to apply to the store (its own
          // confirm record, if it is a quorum member, does that).  The
          // decisions_/verdicts_ members survive with the log object and
          // drive the re-delivery (Cluster::recover_node).
          break;
        default:
          break;  // unknown record type: skip (forward compatibility)
      }
    } catch (const SerdeError&) {
      break;  // torn/corrupt record payload: drop it and everything after
    }
  }
  // Whatever is still pending is in-doubt: the crash landed between this
  // node's vote and the coordinator's confirm.  Not applied here -- the
  // termination protocol (DESIGN.md §17) resolves it once the lease runs
  // out, and a commit resolved elsewhere also arrives via the delta pull.
  return applied;
}

void CommitLog::clear() {
  image_.clear();
  tail_.clear();
  pending_.clear();
  decisions_.clear();
  verdicts_.clear();
  high_version_ = 0;
  tail_records_ = 0;
  cuts_ = 0;
}

void CommitLog::truncate_tail_for_test(std::size_t bytes) {
  const std::size_t drop = std::min(bytes, tail_.size());
  tail_.resize(tail_.size() - drop);
}

}  // namespace qrdtm::store
