#include "core/batch.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "core/history.h"

namespace qrdtm::core {

BatchPlanner::BatchPlanner(TxnRuntime& rt)
    : rt_(rt), order_rng_(rt.rng().split(0x5155)) {}

sim::Future<bool> BatchPlanner::submit(TxnBody body,
                                       std::uint32_t max_attempts) {
  Pending p{std::move(body), sim::Promise<bool>(rt_.simulator()), max_attempts,
            rt_.simulator().now()};
  sim::Future<bool> fut = p.done.future();
  pending_.push_back(std::move(p));
  if (!loop_active_) {
    loop_active_ = true;
    rt_.simulator().spawn(run_loop());
  }
  return fut;
}

bool BatchPlanner::lookup(ObjectId id, ObjectCopy* out) const {
  auto it = objects_.find(id);
  if (it == objects_.end()) return false;
  const BatchObject& bo = it->second;
  *out = ObjectCopy{id, bo.base + bo.steps, bo.data};
  return true;
}

void BatchPlanner::admit(const ObjectCopy& fetched) {
  auto [it, inserted] = objects_.try_emplace(fetched.id);
  QRDTM_CHECK_MSG(inserted, "object admitted to the batch cache twice");
  BatchObject& bo = it->second;
  bo.base = fetched.version;
  bo.base_data = fetched.data;
  bo.data = fetched.data;
  bo.fetched = true;
  order_.push_back(fetched.id);
}

sim::Task<void> BatchPlanner::run_loop() {
  // Formation window: let concurrent submitters on this node join the first
  // batch.  Later batches form from whatever queued while the previous one
  // executed -- those members already waited at least a batch's worth.
  if (rt_.config().batch_window > 0) {
    co_await rt_.simulator().delay(rt_.config().batch_window);
  }
  while (!pending_.empty()) {
    const std::size_t n =
        std::min<std::size_t>(pending_.size(), rt_.config().batch_max_txns);
    std::vector<Pending> batch;
    batch.reserve(n);
    std::move(pending_.begin(),
              pending_.begin() + static_cast<std::ptrdiff_t>(n),
              std::back_inserter(batch));
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(n));
    // Seeded batch order (Fisher-Yates): deterministic per run, independent
    // of the runtime's workload RNG stream.
    for (std::size_t i = batch.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(order_rng_.below(i));
      std::swap(batch[i - 1], batch[j]);
    }
    co_await run_batch(std::move(batch));
  }
  loop_active_ = false;
}

void BatchPlanner::absorb(Txn& txn, std::vector<CommittedTxn>* records) {
  // The member's copies sit at the speculative head, so its record reads
  // base -> base+1 per write exactly like a flat commit; the batch stamps
  // the commit tick once the round commits.
  if (records != nullptr) records->push_back(rt_.history_record(txn, 0));
  // The write fold mutates the queue cache, so it must run in a fixed
  // order; collect-then-sort the ids first.
  std::vector<ObjectId> wids;
  wids.reserve(txn.writeset_.size());
  // qrdtm-lint: allow(det-unordered-iter)
  for (const auto& [id, oc] : txn.writeset_) wids.push_back(id);
  std::sort(wids.begin(), wids.end());
  for (ObjectId id : wids) {
    const OwnedCopy& oc = txn.writeset_.find(id)->second;
    auto [it, inserted] = objects_.try_emplace(id);
    BatchObject& bo = it->second;
    if (inserted) {
      // Created inside the batch: base version 0, nothing fetched.
      order_.push_back(id);
    }
    // Sequential speculation: the member acquired the copy at the current
    // speculative head.
    QRDTM_DCHECK(oc.copy.version == bo.base + bo.steps);
    ++bo.steps;
    bo.data = oc.copy.data;
    bo.written = true;
  }
}

void BatchPlanner::rollback_cache(const std::vector<ObjectId>& stale) {
  // An empty stale set means the round failed without a diagnosis (dead
  // member, syncing replica): invalidate everything.
  if (stale.empty()) {
    objects_.clear();
    order_.clear();
    return;
  }
  std::vector<ObjectId> keep;
  keep.reserve(order_.size());
  for (ObjectId id : order_) {
    BatchObject& bo = objects_[id];
    if (!bo.fetched || std::binary_search(stale.begin(), stale.end(), id)) {
      // Stale queues are re-fetched on next touch; created objects get
      // fresh ids when the bodies re-execute.
      objects_.erase(id);
      continue;
    }
    bo.steps = 0;
    bo.written = false;
    bo.data = bo.base_data;
    keep.push_back(id);
  }
  order_ = std::move(keep);
}

sim::Task<bool> BatchPlanner::commit_round(TxnId batch_id,
                                           std::vector<ObjectId>* stale) {
  // order_ holds every batch object, so the round's union write quorum
  // spans all touched cohorts.
  BatchCommitRequest req;
  req.batch = batch_id;
  for (ObjectId id : order_) {
    const BatchObject& bo = objects_.find(id)->second;
    if (bo.written) {
      req.writeset.push_back(BatchWriteEntry{id, bo.base, bo.steps, bo.data});
    } else {
      req.readset.push_back(CommitReadEntry{id, bo.base});
    }
  }
  try {
    RoundVotes votes = co_await rt_.two_phase_commit(std::move(req));
    *stale = std::move(votes.stale);
    co_return votes.commit;
  } catch (AbortException&) {
    // Unformable quorum under a zombie coordinator, or a crash before the
    // decision was durable (no confirm left): re-fetch everything.
  } catch (const quorum::QuorumUnavailable&) {
    // Live coordinator but too many members down mid-chaos: equally
    // transient, same recovery -- retry once membership heals.
  }
  stale->clear();
  co_return false;
}

sim::Task<void> BatchPlanner::run_batch(std::vector<Pending> batch) {
  // A bounded member caps the whole batch's rounds; an unlimited member
  // (max_attempts 0) lifts the cap.
  std::uint32_t budget = 0;
  bool unlimited = false;
  for (const Pending& p : batch) {
    if (p.max_attempts == 0) unlimited = true;
    budget = std::max(budget, p.max_attempts);
  }

  const sim::Tick exec_start = rt_.simulator().now();
  for (const Pending& p : batch) {
    rt_.latency_.batch_wait.record(exec_start - p.enqueue_tick);
  }

  HistoryRecorder* rec = rt_.recorder_;
  std::vector<CommittedTxn> records;
  for (std::uint32_t attempt = 0;; ++attempt) {
    const TxnId batch_id = rt_.next_scope_id();
    records.clear();
    bool exec_ok = true;
    std::string exec_abort_reason;
    for (Pending& p : batch) {
      Txn txn(rt_, nullptr);
      txn.batch_ = this;
      try {
        co_await p.body(txn);
      } catch (AbortException& a) {
        // Infrastructure abort (unreachable quorum, step guard): no replica
        // state to diagnose, so the whole round restarts from fresh fetches.
        exec_ok = false;
        exec_abort_reason = a.reason;
      } catch (const quorum::QuorumUnavailable& e) {
        // Live member, quorum transiently unformable mid-chaos: same
        // restart-from-fresh-fetches treatment as an infrastructure abort.
        exec_ok = false;
        exec_abort_reason = e.what();
      }
      if (!exec_ok) break;
      absorb(txn, rec != nullptr ? &records : nullptr);
    }

    bool committed = false;
    std::vector<ObjectId> stale;
    if (exec_ok) {
      if (objects_.empty()) {
        // Nothing read or written by any member: local commit, no messages.
        rt_.metrics().local_commits += batch.size();
        committed = true;
      } else {
        committed = co_await commit_round(batch_id, &stale);
        if (!committed) ++rt_.metrics().vote_aborts;
      }
    }

    if (committed) {
      const sim::Tick now = rt_.simulator().now();
      rt_.metrics().commits += batch.size();
      ++rt_.metrics().batches_committed;
      rt_.latency_.batch_size.record(
          static_cast<sim::Tick>(batch.size()));
      for (Pending& p : batch) {
        rt_.latency_.commit_latency.record(now - p.enqueue_tick);
        p.done.set(true);
      }
      if (rec != nullptr) {
        for (CommittedTxn& r : records) {
          r.commit_tick = now;
          rec->record_commit(std::move(r));
        }
        rec->record_batch(now, rt_.node(), batch_id, batch.size());
      }
      if (rt_.tracer_ != nullptr) {
        rt_.tracer_->span(TraceKind::kBatch, rt_.node(), batch_id, exec_start,
                          now, batch.size(), attempt + 1);
        for (const Pending& p : batch) {
          rt_.tracer_->span(TraceKind::kTxn, rt_.node(), batch_id,
                            p.enqueue_tick, now, attempt + 1);
        }
      }
      objects_.clear();
      order_.clear();
      co_return;
    }

    // Speculation rollback: the round's speculative state is discarded and
    // only the stale queues are re-fetched on the next attempt.
    ++rt_.metrics().speculation_rollbacks;
    const sim::Tick abort_tick = rt_.simulator().now();
    if (rec != nullptr) {
      rec->record_abort(abort_tick, rt_.node(), batch_id,
                        exec_ok ? "batch speculation rollback"
                                : exec_abort_reason);
    }
    if (rt_.tracer_ != nullptr) {
      rt_.tracer_->instant(TraceKind::kAbort, rt_.node(), batch_id, abort_tick,
                           attempt + 1);
    }
    rollback_cache(exec_ok ? stale : std::vector<ObjectId>{});

    if (!unlimited && attempt + 1 >= budget) {
      for (Pending& p : batch) p.done.set(false);
      objects_.clear();
      order_.clear();
      co_return;
    }
    co_await rt_.backoff(attempt + 1, batch_id);
    rt_.latency_.retry_gap.record(rt_.simulator().now() - abort_tick);
  }
}

}  // namespace qrdtm::core
