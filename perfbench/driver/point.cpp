#include "point.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/rng.h"

namespace perfbench {

namespace {

using qrdtm::Rng;

constexpr sim::Tick kNoIssue = std::numeric_limits<sim::Tick>::max();

std::vector<Workload> make_workloads() {
  std::vector<Workload> ws;

  // Rqv reads with long search paths: wire codec, replica validation and
  // the kernel do the work; most transactions commit locally.
  Workload rqv;
  rqv.name = "rqv-read";
  rqv.app = "slist";
  rqv.mode = core::NestingMode::kClosed;
  rqv.clients = 16;
  rqv.params.read_ratio = 0.8;
  rqv.params.nested_calls = 3;
  rqv.params.num_objects = 128;
  rqv.window = sim::sec(1500);
  rqv.setup_reps = 15;
  ws.push_back(rqv);

  // Every transaction writes hot keys through QR-Q batches: batch
  // planning, 2PC vote/confirm, decisions and commit-log appends.
  Workload hot;
  hot.name = "hot-commit";
  hot.app = "bank";
  hot.mode = core::NestingMode::kQueued;
  hot.clients = 8;
  hot.client_nodes = 2;
  hot.params.read_ratio = 0.0;
  hot.params.num_objects = 8;
  hot.window = sim::sec(1200);
  hot.setup_reps = 15;
  ws.push_back(hot);

  // 512 nodes in 64 cohorts of 13: costs that grow with node count and
  // in-flight calls, plus a real set-up and drain.
  Workload shard;
  shard.name = "shard512";
  shard.app = "bank";
  shard.mode = core::NestingMode::kFlat;
  shard.nodes = 512;
  shard.quorum = core::QuorumKind::kSharded;
  shard.shards = 64;
  shard.cohort_size = 13;
  shard.clients = 256;
  shard.params.read_ratio = 0.2;
  shard.params.num_objects = 4096;
  shard.window = sim::sec(15);
  shard.setup_reps = 3;
  ws.push_back(shard);

  // QR-CHK under churn: checkpoint create/rollback, log replay plus delta
  // pull, and cooperative termination after coordinator kills.
  Workload churn;
  churn.name = "churn-chk";
  churn.app = "vacation";
  churn.mode = core::NestingMode::kCheckpoint;
  churn.nodes = 28;
  churn.quorum = core::QuorumKind::kFlatFailureAware;
  churn.clients = 40;
  churn.params.read_ratio = 0.8;
  churn.params.num_objects = 96;
  churn.service_time = sim::msec(2);
  churn.failures = 2;
  churn.coordinator_kills = 8;
  churn.coordinator_down_for = sim::msec(500);
  churn.window = sim::sec(300);
  churn.setup_reps = 15;
  ws.push_back(churn);

  return ws;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> ws = make_workloads();
  return ws;
}

core::ClusterConfig cluster_config(const Workload& w, std::uint64_t seed) {
  core::ClusterConfig cc;
  cc.num_nodes = w.nodes;
  cc.seed = seed;
  cc.runtime.mode = w.mode;
  cc.quorum = w.quorum;
  cc.num_shards = w.shards;
  cc.cohort_size = std::min(w.cohort_size, w.nodes);
  if (w.service_time != 0) cc.service_time = w.service_time;
  return cc;
}

double median(std::vector<double> v) {
  QRDTM_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct SetupTimes {
  double cluster_s = 0;
  double seed_s = 0;
  double total_s = 0;
};

void recover_timed(Deployment* d, net::NodeId node) {
  Timed t(*d->trace, "cluster.recover_node");
  d->cluster->recover_node(node);
  d->recovery_host_s += t.stop();
  ++d->recover_calls;
}

/// Build the deployment: cluster, recorders, pre-run failures, app seed,
/// scheduled faults and the closed-loop clients.  Every layer call is
/// timed.
std::unique_ptr<Deployment> deploy(const Workload& w, std::uint64_t seed,
                                   HostTrace& ht, Recorders* rec,
                                   SetupTimes& times) {
  Timed setup(ht, "setup");
  auto d = std::make_unique<Deployment>();
  d->trace = &ht;
  d->app = qrdtm::apps::make_app(w.app);
  d->params = w.params;
  {
    Timed t(ht, "cluster.construct");
    d->cluster = std::make_unique<core::Cluster>(cluster_config(w, seed));
    times.cluster_s = t.stop();
  }
  core::Cluster& c = *d->cluster;
  if (rec != nullptr) {
    // Attach before seeding so the history captures initial versions.
    Timed t(ht, "cluster.attach_recorders");
    c.set_history_recorder(&rec->history);
    c.set_trace_recorder(&rec->trace);
  }

  for (net::NodeId n = 0; n < w.nodes; ++n) d->alive.push_back(n);
  std::vector<net::NodeId> victims;
  for (std::uint32_t f = 0; f < w.failures; ++f) {
    // From the high end, so node 0 (tree root, checker host) survives.
    const auto victim = static_cast<net::NodeId>(w.nodes - 1 - f);
    Timed t(ht, "cluster.kill_node");
    c.kill_node(victim);
    d->alive.pop_back();
    victims.push_back(victim);
  }

  {
    Timed t(ht, "app.setup");
    Rng setup_rng(seed * 7919 + 13);
    d->app->setup(c, d->params, setup_rng);
    times.seed_s = t.stop();
  }

  Deployment* dp = d.get();
  for (net::NodeId v : victims) {
    c.simulator().schedule_at(w.window / 2, [dp, v] { recover_timed(dp, v); });
  }

  const std::size_t spread =
      w.client_nodes > 0 ? std::min<std::size_t>(w.client_nodes, d->alive.size())
                         : d->alive.size();
  if (w.coordinator_kills > 0) {
    std::vector<net::NodeId> coords;
    for (std::size_t i = 0; i < spread; ++i) {
      if (d->alive[i] != 0) coords.push_back(d->alive[i]);  // 0 runs the checker
    }
    QRDTM_CHECK(!coords.empty());
    const sim::Tick period = w.window / (w.coordinator_kills + 1);
    QRDTM_CHECK(period > w.coordinator_down_for);
    for (std::uint32_t k = 0; k < w.coordinator_kills; ++k) {
      const net::NodeId victim = coords[k % coords.size()];
      const sim::Tick at = period * (k + 1);
      c.simulator().schedule_at(at, [dp, victim] {
        if (!dp->cluster->network().alive(victim)) return;
        Timed t(*dp->trace, "cluster.kill_node");
        dp->cluster->kill_node(victim);
      });
      c.simulator().schedule_at(at + w.coordinator_down_for,
                                [dp, victim] { recover_timed(dp, victim); });
    }
  }

  {
    Timed t(ht, "cluster.spawn_loop_clients");
    d->last_issue.assign(w.clients, kNoIssue);
    for (std::uint32_t i = 0; i < w.clients; ++i) {
      const net::NodeId node = d->alive[i % spread];
      // The wrapped factory counts every issued transaction and records
      // the exact issue-to-next-issue gap of each client: in a closed loop
      // with no think time that gap is the commit latency.
      c.spawn_loop_client(node, [dp, i](Rng& rng) {
        const sim::Tick now = dp->cluster->simulator().now();
        sim::Tick& last = dp->last_issue[i];
        if (last != kNoIssue) dp->commit_gaps.push_back(now - last);
        last = now;
        ++dp->issued;
        return dp->app->make_txn(dp->params, rng);
      });
    }
  }
  times.total_s = setup.stop();
  return d;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Workload& w : workloads()) names.push_back(w.name);
  return names;
}

PointResult run_point(const Workload& w, std::uint64_t seed, HostTrace& ht,
                      Recorders* rec, bool keep_deployment) {
  PointResult r;
  r.seed = seed;
  r.window = w.window;
  auto fail = [&r](std::string what) { r.failures.push_back(std::move(what)); };

  Timed point(ht, "point");
  std::unique_ptr<Deployment> d;
  QRDTM_CHECK(w.setup_reps >= 1);
  for (std::uint32_t rep = 0; rep < w.setup_reps; ++rep) {
    const bool last = rep + 1 == w.setup_reps;
    d.reset();  // tear the previous set-up down, untimed
    SetupTimes st;
    d = deploy(w, seed, ht, last ? rec : nullptr, st);
    r.setup_samples.push_back(st.total_s);
    if (last) {
      r.setup_cluster_s = st.cluster_s;
      r.setup_seed_s = st.seed_s;
    }
  }
  r.setup_s = median(r.setup_samples);
  core::Cluster& c = *d->cluster;

  {
    Timed t(ht, "cluster.run_for");
    c.run_for(w.window);
    r.workload_s = t.stop();
  }
  // Everything simulated is sampled here, at the deadline; post-deadline
  // work is reported separately as the drain.
  r.at_deadline = c.metrics();
  r.latency = c.merged_latency();
  r.net = c.network().stats();
  r.commit_latencies = d->commit_gaps;
  r.events_at_deadline = c.simulator().events_executed();
  r.pending_at_deadline = c.simulator().events_pending();
  if (c.duration() > w.window) fail("deadline: events past the window end ran before sampling");

  {
    Timed t(ht, "cluster.run_to_completion");
    c.run_to_completion();
    r.drain_s = t.stop();
  }
  r.after_drain = c.metrics();
  r.committed = c.metrics().commits;
  r.issued = d->issued;
  r.drain_commits = r.committed - r.at_deadline.commits;
  r.drain_events = c.simulator().events_executed() - r.events_at_deadline;

  {
    Timed check(ht, "check");
    {
      // Quiescence gate on live nodes: nothing prepared, nothing being
      // terminated, nobody still catching up.
      Timed t(ht, "check.quiescence");
      for (net::NodeId n = 0; n < w.nodes; ++n) {
        if (!c.network().alive(n)) continue;
        const core::QrServer& s = c.server(n);
        if (s.commit_log().in_flight() != 0) {
          fail("quiescence: node " + std::to_string(n) + " has " +
               std::to_string(s.commit_log().in_flight()) +
               " prepared transactions after the drain");
        }
        if (s.terminations_in_flight() != 0) {
          fail("quiescence: node " + std::to_string(n) +
               " still runs termination rounds after the drain");
        }
        if (s.syncing()) {
          fail("quiescence: node " + std::to_string(n) +
               " is still syncing after the drain");
        }
      }
    }
    {
      Timed t(ht, "check.integrity");
      bool ok = false;
      c.spawn_client(d->alive[0], d->app->make_checker(&ok));
      c.run_to_completion();
      if (!ok) fail("integrity: the " + w.app + " checker rejected the final state");
    }
    r.check_s = check.stop();
  }
  r.total_s = r.setup_samples.back() + r.workload_s + r.drain_s + r.check_s;
  r.recovery_host_s = d->recovery_host_s;
  r.recover_calls = d->recover_calls;

  // Post-drain footprint.
  std::uint64_t object_bytes = 0;
  for (net::NodeId n = 0; n < w.nodes; ++n) {
    const core::QrServer& s = c.server(n);
    r.log_bytes += s.commit_log().size_bytes();
    r.log_tail_bytes += s.commit_log().tail_bytes();
    r.tracked_txn_entries += s.store().tracked_txn_entries();
    r.store_objects += s.store().num_objects();
    for (const auto& kv : s.store().entries()) object_bytes += kv.second.data.size();
  }
  r.mean_object_bytes = r.store_objects
                            ? static_cast<double>(object_bytes) /
                                  static_cast<double>(r.store_objects)
                            : 0.0;

  // Accounting checks.
  if (r.at_deadline.commits < 1000) {
    fail("window: only " + std::to_string(r.at_deadline.commits) +
         " commits by the deadline (need >= 1000 for a p99)");
  }
  if (r.committed > r.issued) {
    fail("failed_frac: " + std::to_string(r.committed) + " commits exceed " +
         std::to_string(r.issued) + " issued transactions");
  }
  if (r.commit_latencies.size() != r.at_deadline.commits) {
    fail("latency: " + std::to_string(r.commit_latencies.size()) +
         " issue gaps for " + std::to_string(r.at_deadline.commits) +
         " commits at the deadline");
  }
  core::LatencyHistogram exact;
  for (sim::Tick v : r.commit_latencies) exact.record(v);
  if (!(exact == r.latency.commit_latency)) {
    fail("latency: issue gaps do not reproduce merged_latency().commit_latency");
  }

  if (keep_deployment) r.deployment = std::move(d);
  return r;
}

std::vector<std::pair<const char*, std::uint64_t>> metrics_fields(
    const core::Metrics& m) {
  return {
      {"commits", m.commits},
      {"root_aborts", m.root_aborts},
      {"ct_aborts", m.ct_aborts},
      {"partial_rollbacks", m.partial_rollbacks},
      {"local_commits", m.local_commits},
      {"remote_reads", m.remote_reads},
      {"local_read_hits", m.local_read_hits},
      {"commit_requests", m.commit_requests},
      {"validation_failures", m.validation_failures},
      {"vote_aborts", m.vote_aborts},
      {"checkpoints_created", m.checkpoints_created},
      {"step_guard_trips", m.step_guard_trips},
      {"batches_committed", m.batches_committed},
      {"speculation_rollbacks", m.speculation_rollbacks},
      {"batch_read_hits", m.batch_read_hits},
      {"node_recoveries", m.node_recoveries},
      {"recovery_delta_objects", m.recovery_delta_objects},
      {"recovery_full_objects", m.recovery_full_objects},
      {"log_replay_applies", m.log_replay_applies},
      {"checkpoint_cuts", m.checkpoint_cuts},
      {"recovery_failures", m.recovery_failures},
      {"log_autocuts", m.log_autocuts},
      {"indoubt_resolved_commit", m.indoubt_resolved_commit},
      {"indoubt_resolved_abort", m.indoubt_resolved_abort},
      {"termination_rounds", m.termination_rounds},
      {"confirm_duplicates", m.confirm_duplicates},
      {"cross_shard_rounds", m.cross_shard_rounds},
      {"open_commits", m.open_commits},
      {"compensations_run", m.compensations_run},
      {"lock_conflicts", m.lock_conflicts},
      {"lock_messages", m.lock_messages},
      {"read_messages", m.read_messages},
      {"commit_messages", m.commit_messages},
  };
}

std::vector<std::pair<std::string, std::uint64_t>> sim_fingerprint(
    const PointResult& r) {
  std::vector<std::pair<std::string, std::uint64_t>> fp;
  for (const auto& [name, v] : metrics_fields(r.at_deadline)) {
    fp.emplace_back(std::string("deadline.") + name, v);
  }
  for (const auto& [name, v] : metrics_fields(r.after_drain)) {
    fp.emplace_back(std::string("drained.") + name, v);
  }
  fp.emplace_back("events_at_deadline", r.events_at_deadline);
  fp.emplace_back("pending_at_deadline", r.pending_at_deadline);
  fp.emplace_back("drain_events", r.drain_events);
  fp.emplace_back("issued", r.issued);
  fp.emplace_back("net.sent_total", r.net.sent_total);
  fp.emplace_back("net.delivered_total", r.net.delivered_total);
  fp.emplace_back("net.dropped_dead", r.net.dropped_dead);
  fp.emplace_back("net.dropped_stale", r.net.dropped_stale);
  for (std::size_t k = 0; k < net::kMsgKindSpace; ++k) {
    const std::uint64_t v = r.net.sent_by_kind(static_cast<net::MsgKind>(k));
    if (v != 0) fp.emplace_back("net.kind." + std::to_string(k), v);
  }
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the latencies
  for (sim::Tick v : r.commit_latencies) h = (h ^ v) * 1099511628211ULL;
  fp.emplace_back("commit_latencies.fnv", h);
  fp.emplace_back("log_bytes", r.log_bytes);
  fp.emplace_back("tracked_txn_entries", r.tracked_txn_entries);
  return fp;
}

}  // namespace perfbench
