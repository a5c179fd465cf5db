// One benchmark point: build a workload's deployment through the public
// qrdtm API, run its closed-loop clients for the simulated window, sample
// every simulated metric at the deadline, drain, and check the outputs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.h"
#include "core/cluster.h"
#include "core/history.h"
#include "core/trace.h"
#include "host_trace.h"
#include "net/network.h"

namespace perfbench {

namespace core = qrdtm::core;
namespace net = qrdtm::net;
namespace sim = qrdtm::sim;

/// A fixed workload configuration.  Every field is part of the benchmark's
/// definition; only the seed varies between runs.
struct Workload {
  std::string name;
  std::string app;
  core::NestingMode mode = core::NestingMode::kFlat;
  std::uint32_t nodes = 13;
  core::QuorumKind quorum = core::QuorumKind::kTree;
  std::uint32_t shards = 16;       // kSharded only
  std::uint32_t cohort_size = 13;  // kSharded only
  std::uint32_t clients = 8;
  std::uint32_t client_nodes = 0;  // host clients on the first N nodes; 0 = all
  qrdtm::apps::WorkloadParams params;
  sim::Tick service_time = 0;  // 0 = ClusterConfig default
  /// Nodes fail-stopped before the run (from the high end) and restarted
  /// at the middle of the window.
  std::uint32_t failures = 0;
  /// Client-hosting coordinators killed per window, evenly spaced, each
  /// down for coordinator_down_for.
  std::uint32_t coordinator_kills = 0;
  sim::Tick coordinator_down_for = sim::msec(500);
  sim::Tick window = sim::sec(60);
  /// Set-ups per point; setup_s is their median.
  std::uint32_t setup_reps = 1;
};

const Workload* find_workload(const std::string& name);
std::vector<std::string> workload_names();

/// The recorders the traced run attaches through the Cluster's setters.
struct Recorders {
  core::TraceRecorder trace;
  core::HistoryRecorder history;
};

/// A built deployment.  Loop clients and scheduled fault callbacks hold a
/// pointer to it, so it never moves (always owned through a unique_ptr).
struct Deployment {
  std::unique_ptr<qrdtm::apps::App> app;
  qrdtm::apps::WorkloadParams params;
  HostTrace* trace = nullptr;
  std::vector<net::NodeId> alive;  // nodes up when the clients start

  // Issue accounting, fed by the wrapped BodyFactory.
  std::uint64_t issued = 0;
  std::vector<sim::Tick> last_issue;     // per client
  std::vector<sim::Tick> commit_gaps;    // issue-to-next-issue, per commit

  // The driver's own recover_node callbacks.
  double recovery_host_s = 0;
  std::uint64_t recover_calls = 0;

  // Declared last: destroyed first, while the state its clients and
  // callbacks point at is still alive.
  std::unique_ptr<core::Cluster> cluster;
};

struct PointResult {
  std::uint64_t seed = 0;
  sim::Tick window = 0;

  // --- simulated, sampled right after run_for (deterministic per seed) ---
  core::Metrics at_deadline;
  core::LatencyMetrics latency;
  net::NetStats net;
  std::vector<sim::Tick> commit_latencies;  // exact, one per commit
  std::uint64_t events_at_deadline = 0;
  std::uint64_t pending_at_deadline = 0;

  // --- simulated, after the drain ---
  std::uint64_t drain_events = 0;
  std::uint64_t drain_commits = 0;
  std::uint64_t issued = 0;
  std::uint64_t committed = 0;  // loop-client commits after the drain
  core::Metrics after_drain;
  std::uint64_t log_bytes = 0;       // summed over nodes
  std::uint64_t log_tail_bytes = 0;  // summed over nodes
  std::uint64_t tracked_txn_entries = 0;
  std::uint64_t store_objects = 0;  // summed over nodes
  double mean_object_bytes = 0;

  // --- host seconds ---
  std::vector<double> setup_samples;  // one per set-up; the last is used
  double setup_cluster_s = 0;
  double setup_seed_s = 0;
  double setup_s = 0;  // median of setup_samples
  double workload_s = 0;
  double drain_s = 0;
  double check_s = 0;
  double total_s = 0;  // the used set-up + workload + drain + check
  double recovery_host_s = 0;
  std::uint64_t recover_calls = 0;

  /// Output checks that failed, one line each; empty = all passed.
  std::vector<std::string> failures;

  /// The deployment after the run, kept only when asked for (probes).
  std::unique_ptr<Deployment> deployment;
};

/// Run one point.  `rec` (may be null) is attached to the last set-up only.
PointResult run_point(const Workload& w, std::uint64_t seed, HostTrace& trace,
                      Recorders* rec, bool keep_deployment);

/// Every simulated quantity of a point as (name, value) pairs: equal lists
/// mean bit-identical simulations.
std::vector<std::pair<std::string, std::uint64_t>> sim_fingerprint(
    const PointResult& r);

/// Metrics counters by name, in declaration order.
std::vector<std::pair<const char*, std::uint64_t>> metrics_fields(
    const core::Metrics& m);

}  // namespace perfbench
