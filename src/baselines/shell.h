// The shared shell of the Fig. 9 comparison baselines (TFA and DecentSTM).
//
// Both baselines run on the same simulated substrate as QR-DTM.  The shell
// owns that substrate -- simulator, network, one RPC endpoint per node --
// plus the metrics sink, the latency histograms, the history recorder, the
// RNG and the id counters, and it runs every transaction through one retry
// loop with randomized exponential backoff.  A protocol derives from
// BaselineCluster<Protocol, Txn, Config> and supplies only its own parts:
//   * its node services, registered on endpoints_ in its constructor;
//   * its Txn type, with the read paths;
//   * `Txn begin(node, id)`, which builds each attempt's transaction;
//   * `seed(id, data)`, which places a new object (home node / replicas);
//   * `try_commit(txn)` for update transactions, and the abort reason
//     `kCommitAbortReason` recorded when it returns false.
// Read-only transactions commit locally in the shell, with no messages:
// TFA revalidates its read-set at every forwarding point, and DecentSTM
// serves every read as of the pinned snapshot, whose versions stay valid
// because commit timestamps are monotone.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/backoff.h"
#include "core/history.h"
#include "core/metrics.h"
#include "core/trace.h"
#include "core/types.h"
#include "net/latency.h"
#include "net/rpc.h"
#include "sim/task.h"

namespace qrdtm::baselines {

using core::Bytes;
using core::ObjectId;
using core::TxnId;
using core::Version;

/// Per-message server cost and RPC timeout, the same for both baselines.
inline constexpr sim::Tick kServiceTime = sim::usec(60);
inline constexpr sim::Tick kRpcTimeout = sim::msec(500);

/// Control-flow exception: abort and retry.  `scope` names the innermost
/// closed-nested scope that must retry under N-TFA (0 = the whole
/// transaction; scopes are 1-based stack indices).
struct BaselineAbort {
  std::string reason;
  std::size_t scope = 0;
};

/// One object's exclusive commit lock.  Both protocols grant it in their
/// lock/vote step and release it with a later message from the coordinator.
/// The grant is stamped so a coordinator-liveness lease can shed the lock
/// when that coordinator died in between.
struct LeasedLock {
  TxnId locked_by = 0;
  sim::Tick locked_at = 0;

  bool held() const { return locked_by != 0; }
  /// Free, or already held by `txn`.
  bool admits(TxnId txn) const { return locked_by == 0 || locked_by == txn; }
  void grant(TxnId txn, sim::Tick now) {
    locked_by = txn;
    locked_at = now;
  }
  void release(TxnId txn) {
    if (locked_by == txn) locked_by = 0;
  }
  /// Shed a lock held for the whole `lease` (0 = never shed): its holder is
  /// presumed dead.  Each break counts into `metrics.lease_breaks`.
  void shed_if_overdue(sim::Tick now, sim::Tick lease, core::Metrics& metrics) {
    if (lease == 0 || locked_by == 0 || now < locked_at + lease) return;
    locked_by = 0;
    ++metrics.lease_breaks;
  }
};

/// A transaction's buffered read and write of one object.
struct ReadEntry {
  Version version;
  Bytes data;
};
struct WriteEntry {
  Version base;
  Bytes data;
};
using ReadSet = std::map<ObjectId, ReadEntry>;
using WriteSet = std::map<ObjectId, WriteEntry>;

/// The settings every baseline takes.
struct BaselineConfig {
  std::uint32_t num_nodes = 13;
  std::uint64_t seed = 1;
  /// Coordinator-liveness lease on the protocol's commit locks: a lock
  /// outstanding this long is presumed orphaned (its coordinator died
  /// between lock and release) and is shed on the next conflicting
  /// request.  Far above any legitimate lock->release gap, so failure-free
  /// runs never trip it.  0 disables shedding.
  sim::Tick lock_lease = sim::sec(5);
};

template <class Protocol, class Txn, class ConfigT>
class BaselineCluster {
 public:
  using Config = ConfigT;
  using Body = std::function<sim::Task<void>(Txn&)>;
  using BodyFactory = std::function<Body(Rng&)>;

  BaselineCluster(const BaselineCluster&) = delete;
  BaselineCluster& operator=(const BaselineCluster&) = delete;

  /// Install an object at its placement (setup only).
  ObjectId seed_new_object(const Bytes& data) {
    const ObjectId id = next_object_id_++;
    self().seed(id, data);
    if (recorder_ != nullptr) recorder_->record_seed(id, 1, data);
    return id;
  }

  void spawn_client(net::NodeId node, Body body) {
    sim_.spawn(run_transaction(node, std::move(body)));
  }

  /// A closed-loop client: one transaction from `factory` after another
  /// until the simulation stops.
  void spawn_loop_client(net::NodeId node, BodyFactory factory) {
    auto loop = [](BaselineCluster* c, net::NodeId n,
                   BodyFactory f) -> sim::Task<void> {
      Rng rng = c->rng_.split(n + 1);
      while (!c->sim_.stopping()) {
        co_await c->run_transaction(n, f(rng));
      }
    };
    sim_.spawn(loop(this, node, std::move(factory)));
  }

  /// Run one transaction, giving up after `max_attempts` aborts (0 =
  /// unlimited).  Returns true on commit.  Chaos runs still want the bound:
  /// a lock orphaned by a dropped response is only shed after the lock
  /// lease, and a victim stuck behind it would otherwise spin in retries
  /// for the whole lease window.
  sim::Task<bool> run_transaction_bounded(net::NodeId node, Body body,
                                          std::uint32_t max_attempts) {
    const sim::Tick txn_start = sim_.now();
    std::uint32_t attempt = 0;
    for (;;) {
      Txn txn = self().begin(node, next_txn_id_++);
      std::string reason = Protocol::kCommitAbortReason;
      try {
        co_await body(txn);
        ++metrics_.commit_requests;
        bool committed = true;
        if (txn.writeset().empty()) {
          ++metrics_.local_commits;
          record_commit(txn, 0);
        } else {
          committed = co_await self().try_commit(txn);
        }
        if (committed) {
          ++metrics_.commits;
          latency_.commit_latency.record(sim_.now() - txn_start);
          co_return true;
        }
      } catch (const BaselineAbort& a) {
        reason = a.reason;
      }
      ++metrics_.root_aborts;
      if (recorder_ != nullptr) {
        recorder_->record_abort(sim_.now(), node, txn.id(), reason);
      }
      ++attempt;
      if (max_attempts != 0 && attempt >= max_attempts) co_return false;
      const sim::Tick abort_tick = sim_.now();
      const sim::Tick wait = core::draw_backoff_wait(
          core::kBackoffBase, core::kBackoffCap, attempt, rng_);
      latency_.backoff_wait.record(wait);
      if (wait > 0) co_await sim_.delay(wait);
      latency_.retry_gap.record(sim_.now() - abort_tick);
    }
  }

  /// Record commits/aborts into `rec` (nullptr = off); attach before
  /// seeding.
  void set_history_recorder(core::HistoryRecorder* rec) { recorder_ = rec; }

  void run_for(sim::Tick duration) { sim_.run_until(sim_.now() + duration); }
  void run_to_completion() { sim_.run(); }

  core::Metrics& metrics() { return metrics_; }
  /// Cluster-wide latency histograms (commit latency, backoff waits, retry
  /// gaps; baseline reads are plain RPCs, so read_rtt stays empty).
  const core::LatencyMetrics& latency() const { return latency_; }
  net::Network& network() { return *net_; }
  sim::Simulator& simulator() { return sim_; }
  sim::Tick duration() const { return sim_.now(); }
  std::uint32_t num_nodes() const { return cfg_.num_nodes; }

 protected:
  /// Builds the network on links of `link_latency` one way plus uniform
  /// `link_jitter`, and one endpoint per node.
  BaselineCluster(Config cfg, sim::Tick link_latency, sim::Tick link_jitter)
      : cfg_(cfg), rng_(cfg.seed) {
    net_ = std::make_unique<net::Network>(
        sim_, std::make_unique<net::UniformLatency>(link_latency, link_jitter),
        rng_.next(), kServiceTime);
    for (std::uint32_t i = 0; i < cfg_.num_nodes; ++i) {
      endpoints_.push_back(std::make_unique<net::RpcEndpoint>(sim_, *net_));
    }
  }
  ~BaselineCluster() = default;

  /// Record a commit at `commit_ts` (0 for read-only) with the recorder on.
  /// Only unwritten objects are listed as reads: a written object's read is
  /// recorded as its write base (DecentSTM fetches it at the newest version,
  /// which may lie past the pinned snapshot).
  void record_commit(const Txn& txn, Version commit_ts) {
    if (recorder_ == nullptr) return;
    core::CommittedTxn rec;
    rec.txn = txn.id();
    rec.node = txn.node();
    rec.commit_tick = sim_.now();
    rec.snapshot = txn.snapshot_ts();
    for (const auto& [id, entry] : txn.readset()) {
      if (txn.writeset().contains(id)) continue;
      rec.reads.push_back(core::HistoryRead{id, entry.version});
    }
    for (const auto& [id, entry] : txn.writeset()) {
      rec.writes.push_back(
          core::HistoryWrite{id, entry.base, commit_ts, entry.data});
    }
    recorder_->record_commit(std::move(rec));
  }

  Config cfg_;
  sim::Simulator sim_;
  std::unique_ptr<net::Network> net_;
  std::vector<std::unique_ptr<net::RpcEndpoint>> endpoints_;
  core::Metrics metrics_;
  core::LatencyMetrics latency_;
  core::HistoryRecorder* recorder_ = nullptr;
  Rng rng_;

 private:
  Protocol& self() { return static_cast<Protocol&>(*this); }

  sim::Task<void> run_transaction(net::NodeId node, Body body) {
    co_await run_transaction_bounded(node, std::move(body), 0);
  }

  TxnId next_txn_id_ = 1;
  ObjectId next_object_id_ = 1;
};

}  // namespace qrdtm::baselines
