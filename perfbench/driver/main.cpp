// qrdtm_bench -- one benchmark point of a named workload, as JSON.
//
//   qrdtm_bench --workload NAME --seed N [--trace 0|1] [--trace-out PATH]
//
// --trace 0 runs the point untraced and prints the end-to-end numbers:
// simulated ones sampled at the deadline, host ones timed around each
// phase.  --trace 1 runs the same point twice, untraced and then with the
// TraceRecorder and HistoryRecorder attached, checks that both simulate
// bit for bit the same, certifies the history, runs the layer probes at
// sizes taken from the run, and prints the per-layer ledger; host spans go
// to --trace-out as Chrome trace JSON.  The last stdout line is the JSON
// result; the exit code is 0 only when every output check passed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/history.h"
#include "core/wire.h"
#include "host_trace.h"
#include "point.h"
#include "probes.h"

namespace perfbench {
namespace {

std::string quote(const std::string& v) {
  std::string out = "\"";
  for (char ch : v) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch == '\n' ? ' ' : ch;
  }
  return out + '"';
}

/// Minimal JSON object writer (numbers printed with all their digits).
class Json {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    raw(key, buf);
  }
  void raw(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ',';
    body_ += '"' + key + "\":" + v;
  }
  void str(const std::string& key, const std::string& v) {
    raw(key, quote(v));
  }
  std::string done() const { return '{' + body_ + '}'; }

 private:
  std::string body_;
};

std::string json_strings(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += quote(v[i]);
  }
  return out + "]";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

double ms(sim::Tick t) { return static_cast<double>(t) / 1e6; }

/// Nearest-rank percentile over exact samples, with the rank rule of
/// core::LatencyHistogram::percentile.
sim::Tick percentile(std::vector<sim::Tick> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::uint64_t>((p / 100.0) *
                                             static_cast<double>(v.size()) +
                                         0.5);
  rank = std::clamp<std::uint64_t>(rank, 1, v.size());
  return v[rank - 1];
}

int finish(Json& out, const std::vector<std::string>& failures,
           const PointResult& r) {
  for (const std::string& f : failures) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  out.raw("ok", failures.empty() ? "true" : "false");
  out.raw("failures", json_strings(failures));
  out.num("attempted", static_cast<double>(r.issued));
  out.num("failed", static_cast<double>(r.issued - std::min(r.issued, r.committed)));
  std::printf("%s\n", out.done().c_str());
  return failures.empty() ? 0 : 1;
}

int run_untraced(const Workload& w, std::uint64_t seed) {
  HostTrace off(false, 0);
  PointResult r = run_point(w, seed, off, nullptr, false);
  std::vector<std::string> failures = r.failures;

  const double window_s = sim::to_seconds(r.window);
  const auto commits = static_cast<double>(r.at_deadline.commits);
  const double txn_per_s = commits / window_s;
  if (std::llround(txn_per_s * window_s) !=
      static_cast<long long>(r.at_deadline.commits)) {
    failures.push_back("deadline: sim_txn_per_s x window != commits at deadline");
  }

  Json sim_m;  // simulated clock: deterministic per seed
  sim_m.num("sim_txn_per_s", txn_per_s);
  sim_m.num("sim_commit_p50_ms", ms(percentile(r.commit_latencies, 50)));
  sim_m.num("sim_commit_p99_ms", ms(percentile(r.commit_latencies, 99)));
  sim_m.num("aborts_per_commit",
            ratio(static_cast<double>(r.at_deadline.total_aborts()), commits));
  sim_m.num("msgs_per_commit",
            ratio(static_cast<double>(r.at_deadline.total_messages()), commits));
  sim_m.num("commits_at_deadline", commits);
  sim_m.num("drain_commits", static_cast<double>(r.drain_commits));
  sim_m.num("drain_events", static_cast<double>(r.drain_events));

  Json host_m;  // host clock
  host_m.num("setup_s", r.setup_s);
  host_m.num("total_s", r.total_s);
  host_m.num("sim_s_per_host_s", window_s / r.workload_s);
  host_m.num("peak_rss_mb", peak_rss_mb());

  Json out;
  out.str("workload", w.name);
  out.num("seed", static_cast<double>(seed));
  out.raw("sim", sim_m.done());
  out.raw("host", host_m.done());
  return finish(out, failures, r);
}

struct Ledger {
  Json json;
  void add(const std::string& name, double value, const char* unit) {
    Json m;
    m.num("value", value);
    m.str("unit", unit);
    json.raw(name, m.done());
  }
};

int run_traced(const Workload& w, std::uint64_t seed,
               const std::string& trace_out) {
  HostTrace off(false, 0);
  const PointResult base = run_point(w, seed, off, nullptr, false);

  const auto run_id = static_cast<std::uint64_t>(
      Clock::now().time_since_epoch().count());
  HostTrace ht(true, run_id);
  Recorders rec;
  PointResult r = run_point(w, seed, ht, &rec, /*keep_deployment=*/true);

  std::vector<std::string> failures = base.failures;
  failures.insert(failures.end(), r.failures.begin(), r.failures.end());
  if (sim_fingerprint(base) != sim_fingerprint(r) ||
      !(base.latency == r.latency)) {
    failures.push_back("trace: the traced run simulated differently from the untraced run");
  }

  core::CheckResult hist;
  double history_s = 0;
  {
    Timed t(ht, "history.check_history");
    hist = core::check_history(rec.history, core::CheckLevel::kSerializable);
    history_s = t.stop();
  }
  if (!hist.ok) failures.push_back("history: not serializable: " + hist.report);

  const Deployment& d = *r.deployment;
  core::Cluster& c = *d.cluster;
  const core::Metrics& m = r.at_deadline;
  const double window_s = sim::to_seconds(r.window);
  const auto commits = static_cast<double>(m.commits);
  const core::NestingMode mode = w.mode;
  const bool rqv = mode == core::NestingMode::kClosed ||
                   mode == core::NestingMode::kCheckpoint;

  // ---- sizes taken from the run ----
  double reads = 0, writes = 0;
  for (const core::CommittedTxn& t : rec.history.committed()) {
    reads += static_cast<double>(t.reads.size());
    writes += static_cast<double>(t.writes.size());
  }
  const double ntx = static_cast<double>(rec.history.committed().size());
  const double mean_reads = ratio(reads, ntx);
  const double mean_writes = ratio(writes, ntx);
  const auto objects = static_cast<std::uint64_t>(rec.history.seeds().size());
  const double population =
      static_cast<double>(r.store_objects) / static_cast<double>(w.nodes);
  const double batch_p50 =
      static_cast<double>(r.latency.batch_size.percentile(50));
  const double per_batch = std::max(batch_p50, 1.0);
  const std::size_t client_hosts = std::min<std::size_t>(
      w.clients, w.client_nodes > 0 ? w.client_nodes : d.alive.size());
  // Little's law: calls issued per second x mean round trip, per client
  // endpoint.
  const double rpc_calls =
      static_cast<double>(r.net.sent_by_kind(core::msg::kRead) +
                          r.net.sent_by_kind(core::msg::kCommitRequest) +
                          r.net.sent_by_kind(core::msg::kBatchCommitRequest) +
                          r.net.sent_by_kind(core::msg::kSyncPull));
  const double inflight = std::max(
      1.0, std::round(rpc_calls / window_s *
                      sim::to_seconds(static_cast<sim::Tick>(
                          r.latency.read_rtt.mean())) /
                      static_cast<double>(client_hosts)));
  const double tail_per_node =
      static_cast<double>(r.log_tail_bytes) / static_cast<double>(w.nodes);

  WireSizes ws;
  ws.read_entries = rqv ? static_cast<std::size_t>(std::lround(mean_reads + mean_writes)) : 0;
  ws.commit_reads = static_cast<std::size_t>(std::lround(mean_reads));
  ws.commit_writes = static_cast<std::size_t>(std::lround(mean_writes));
  ws.batch_reads = static_cast<std::size_t>(std::lround(
      std::min(per_batch * mean_reads, static_cast<double>(objects))));
  ws.batch_writes = static_cast<std::size_t>(std::lround(
      std::min(per_batch * mean_writes, static_cast<double>(objects))));
  ws.payload_bytes = static_cast<std::size_t>(std::lround(r.mean_object_bytes));

  // ---- probes ----
  double event_ns = 0, rpc1_ns = 0, rpc_loaded_ns = 0;
  {
    Timed t(ht, "probe.sim.event");
    event_ns = probe_event_ns(r.pending_at_deadline);
  }
  {
    Timed t(ht, "probe.net.rpc_roundtrip");
    rpc1_ns = probe_rpc_roundtrip_ns(1);
    rpc_loaded_ns = probe_rpc_roundtrip_ns(static_cast<std::size_t>(inflight));
  }
  WireProbe wire;
  {
    Timed t(ht, "probe.wire");
    wire = probe_wire(ws);
  }
  StoreProbe sp;
  {
    Timed t(ht, "probe.store");
    sp = probe_store(static_cast<std::size_t>(std::lround(population)),
                     ws.payload_bytes,
                     static_cast<std::size_t>(std::lround(mean_reads + mean_writes)),
                     ws.commit_writes,
                     static_cast<std::size_t>(std::lround(tail_per_node)));
  }
  QuorumProbe qp;
  {
    Timed t(ht, "probe.quorum");
    qp = probe_quorum(c.quorums(), w.nodes, objects);
  }

  // ---- trace-derived quantities (simulated clock, within the window) ----
  double fetch_t = 0, commit_t = 0, backoff_t = 0, chk_t = 0, wasted_t = 0;
  for (const core::TraceSpan& s : rec.trace.spans()) {
    if (s.end > r.window) continue;
    const double dur = ms(s.end - s.start);
    switch (s.kind) {
      case core::TraceKind::kReadFetch: fetch_t += dur; break;
      case core::TraceKind::kCommit2pc: commit_t += dur; break;
      case core::TraceKind::kBackoff: backoff_t += dur; break;
      case core::TraceKind::kChkCreate:
      case core::TraceKind::kChkRollback: chk_t += dur; break;
      case core::TraceKind::kAttempt:
        if (s.a1 == 0) wasted_t += dur;
        break;
      default: break;
    }
  }
  double reads_served = 0, read_aborts = 0, votes = 0, votes_no = 0;
  for (const core::TraceInstant& i : rec.trace.instants()) {
    if (i.at > r.window) continue;
    if (i.kind == core::TraceKind::kServerRead) {
      ++reads_served;
      if (i.a0 != 0) ++read_aborts;
    } else if (i.kind == core::TraceKind::kServerVote) {
      ++votes;
      if (i.a0 == 0) ++votes_no;
    }
  }

  // ---- the ledger ----
  Ledger L;
  const double events = static_cast<double>(r.events_at_deadline);
  L.add("sim.events", events, "count");
  L.add("sim.events_per_commit", ratio(events, commits), "count");
  L.add("sim.pending_at_deadline", static_cast<double>(r.pending_at_deadline), "count");
  L.add("sim.host_ns_per_event", ratio(r.workload_s * 1e9, events), "ns");
  L.add("sim.probe.event_ns", event_ns, "ns");
  L.add("sim.probe.heap_depth", static_cast<double>(r.pending_at_deadline), "count");

  auto sent = [&r](net::MsgKind k) {
    return static_cast<double>(r.net.sent_by_kind(k));
  };
  L.add("net.msgs", static_cast<double>(r.net.sent_total), "count");
  L.add("net.sent.read", sent(core::msg::kRead), "count");
  L.add("net.sent.commit_request", sent(core::msg::kCommitRequest), "count");
  L.add("net.sent.confirm", sent(core::msg::kCommitConfirm), "count");
  L.add("net.sent.batch_commit_request", sent(core::msg::kBatchCommitRequest), "count");
  L.add("net.sent.batch_confirm", sent(core::msg::kBatchCommitConfirm), "count");
  L.add("net.sent.txn_status",
        sent(core::msg::kTxnStatusRequest) + sent(core::msg::kTxnStatusResponse), "count");
  L.add("net.sent.sync_pull", sent(core::msg::kSyncPull), "count");
  L.add("net.dropped_dead", static_cast<double>(r.net.dropped_dead), "count");
  L.add("net.dropped_stale", static_cast<double>(r.net.dropped_stale), "count");
  L.add("net.read_rtt_p50_ms", ms(r.latency.read_rtt.percentile(50)), "ms");
  L.add("net.read_rtt_p99_ms", ms(r.latency.read_rtt.percentile(99)), "ms");
  L.add("net.probe.rpc_roundtrip_ns", rpc1_ns, "ns");
  L.add("net.probe.rpc_roundtrip_loaded_ns", rpc_loaded_ns, "ns");
  L.add("net.probe.inflight_calls", inflight, "count");

  L.add("wire.probe.read_request_encode_ns", wire.read_request_encode_ns, "ns");
  L.add("wire.probe.read_request_decode_ns", wire.read_request_decode_ns, "ns");
  L.add("wire.probe.commit_request_encode_ns", wire.commit_request_encode_ns, "ns");
  L.add("wire.probe.commit_request_decode_ns", wire.commit_request_decode_ns, "ns");
  L.add("wire.probe.batch_commit_request_encode_ns", wire.batch_commit_request_encode_ns, "ns");
  L.add("wire.probe.batch_commit_request_decode_ns", wire.batch_commit_request_decode_ns, "ns");
  L.add("wire.probe.read_request_entries", static_cast<double>(ws.read_entries), "count");
  L.add("wire.probe.commit_request_entries",
        static_cast<double>(ws.commit_reads + ws.commit_writes), "count");
  L.add("wire.probe.batch_commit_request_entries",
        static_cast<double>(ws.batch_reads + ws.batch_writes), "count");
  L.add("wire.probe.payload_bytes", static_cast<double>(ws.payload_bytes), "B");

  L.add("store.probe.validate_ns", sp.validate_ns, "ns");
  L.add("store.probe.apply_ns", sp.apply_ns, "ns");
  L.add("store.probe.log_append_prepare_ns", sp.log_append_prepare_ns, "ns");
  L.add("store.probe.log_append_confirm_ns", sp.log_append_confirm_ns, "ns");
  L.add("store.probe.log_cut_ms", sp.log_cut_ms, "ms");
  L.add("store.probe.log_replay_ms", sp.log_replay_ms, "ms");
  L.add("store.probe.population", population, "count");
  L.add("store.probe.log_footprint_bytes", static_cast<double>(sp.log_footprint_bytes), "B");
  L.add("store.log_bytes", static_cast<double>(r.log_bytes), "B");
  L.add("store.log_tail_bytes", static_cast<double>(r.log_tail_bytes), "B");
  L.add("store.checkpoint_cuts", static_cast<double>(m.checkpoint_cuts), "count");
  L.add("store.log_autocuts", static_cast<double>(m.log_autocuts), "count");
  L.add("store.log_replay_applies", static_cast<double>(m.log_replay_applies), "count");
  L.add("store.recovery_delta_objects", static_cast<double>(m.recovery_delta_objects), "count");
  L.add("store.recovery_full_objects", static_cast<double>(m.recovery_full_objects), "count");
  L.add("store.tracked_txn_entries", static_cast<double>(r.tracked_txn_entries), "count");

  L.add("quorum.probe.read_quorum_ns", qp.read_quorum_ns, "ns");
  L.add("quorum.probe.write_quorum_ns", qp.write_quorum_ns, "ns");
  L.add("quorum.probe.cohort_of_ns", qp.cohort_of_ns, "ns");
  L.add("quorum.cross_shard_rounds", static_cast<double>(m.cross_shard_rounds), "count");
  L.add("quorum.cross_shard_ratio",
        ratio(static_cast<double>(m.cross_shard_rounds), static_cast<double>(m.commit_requests)),
        "ratio");

  L.add("txn.commits", commits, "count");
  L.add("txn.root_aborts", static_cast<double>(m.root_aborts), "count");
  L.add("txn.ct_aborts", static_cast<double>(m.ct_aborts), "count");
  L.add("txn.partial_rollbacks", static_cast<double>(m.partial_rollbacks), "count");
  L.add("txn.checkpoints", static_cast<double>(m.checkpoints_created), "count");
  L.add("txn.local_commits", static_cast<double>(m.local_commits), "count");
  L.add("txn.remote_reads", static_cast<double>(m.remote_reads), "count");
  L.add("txn.local_read_hits", static_cast<double>(m.local_read_hits), "count");
  L.add("txn.validation_failures", static_cast<double>(m.validation_failures), "count");
  L.add("txn.vote_aborts", static_cast<double>(m.vote_aborts), "count");
  L.add("txn.step_guard_trips", static_cast<double>(m.step_guard_trips), "count");
  L.add("txn.commit_ratio", ratio(commits, commits + static_cast<double>(m.root_aborts)), "ratio");
  L.add("txn.local_commit_ratio", ratio(static_cast<double>(m.local_commits), commits), "ratio");
  L.add("txn.read_hit_ratio",
        ratio(static_cast<double>(m.local_read_hits),
              static_cast<double>(m.local_read_hits + m.remote_reads)),
        "ratio");
  L.add("txn.failed_frac",
        ratio(static_cast<double>(r.issued - std::min(r.issued, r.committed)),
              static_cast<double>(r.issued)),
        "ratio");
  L.add("txn.read_fetch_ms_per_commit", ratio(fetch_t, commits), "ms");
  L.add("txn.commit_2pc_ms_per_commit", ratio(commit_t, commits), "ms");
  L.add("txn.backoff_ms_per_commit", ratio(backoff_t, commits), "ms");
  L.add("txn.chk_ms_per_commit", ratio(chk_t, commits), "ms");
  L.add("txn.wasted_ms_per_commit", ratio(wasted_t, commits), "ms");

  L.add("server.read_abort_ratio", ratio(read_aborts, reads_served), "ratio");
  L.add("server.vote_no_ratio", ratio(votes_no, votes), "ratio");
  L.add("server.confirm_duplicates", static_cast<double>(m.confirm_duplicates), "count");
  L.add("server.indoubt_resolved_commit", static_cast<double>(m.indoubt_resolved_commit), "count");
  L.add("server.indoubt_resolved_abort", static_cast<double>(m.indoubt_resolved_abort), "count");
  L.add("server.termination_rounds", static_cast<double>(m.termination_rounds), "count");

  const double batches = static_cast<double>(m.batches_committed);
  L.add("batch.batches", batches, "count");
  L.add("batch.speculation_rollbacks", static_cast<double>(m.speculation_rollbacks), "count");
  L.add("batch.read_hits", static_cast<double>(m.batch_read_hits), "count");
  L.add("batch.size_p50", batch_p50, "count");
  L.add("batch.wait_p50_ms", ms(r.latency.batch_wait.percentile(50)), "ms");
  L.add("batch.wait_p99_ms", ms(r.latency.batch_wait.percentile(99)), "ms");

  L.add("recovery.node_recoveries", static_cast<double>(m.node_recoveries), "count");
  L.add("recovery.failures", static_cast<double>(m.recovery_failures), "count");
  L.add("recovery.host_ms", r.recovery_host_s * 1e3, "ms");

  L.add("phase.setup_cluster_s", r.setup_cluster_s, "s");
  L.add("phase.setup_seed_s", r.setup_seed_s, "s");
  L.add("phase.workload_s", r.workload_s, "s");
  L.add("phase.drain_s", r.drain_s, "s");
  L.add("phase.check_s", r.check_s, "s");
  L.add("phase.drain_events", static_cast<double>(r.drain_events), "count");
  L.add("phase.drain_commits", static_cast<double>(r.drain_commits), "count");
  L.add("phase.trace_overhead_s", r.total_s - base.total_s, "s");

  L.add("history.check_s", history_s, "s");
  L.add("history.txns_checked", static_cast<double>(hist.committed), "count");
  L.add("history.us_per_txn",
        ratio(history_s * 1e6, static_cast<double>(hist.committed)), "us");

  // Predicted idle cells: layers the workload's configuration never
  // drives must read zero.
  if (mode != core::NestingMode::kQueued &&
      (batches != 0 || m.speculation_rollbacks != 0 || m.batch_read_hits != 0 ||
       batch_p50 != 0)) {
    failures.push_back("idle: batch.* is non-zero outside QR-Q");
  }
  if (w.failures == 0 && w.coordinator_kills == 0 &&
      (m.node_recoveries != 0 || m.recovery_failures != 0 || r.recover_calls != 0)) {
    failures.push_back("idle: recovery.* is non-zero without failures");
  }
  if (w.quorum != core::QuorumKind::kSharded && m.cross_shard_rounds != 0) {
    failures.push_back("idle: cross-shard rounds without sharding");
  }

  if (!trace_out.empty() && !ht.write(trace_out)) {
    failures.push_back("trace: cannot write " + trace_out);
  }

  Json out;
  out.str("workload", w.name);
  out.num("seed", static_cast<double>(seed));
  out.raw("per_layer", L.json.done());
  return finish(out, failures, r);
}

int usage() {
  std::string names;
  for (const std::string& n : workload_names()) names += " " + n;
  std::fprintf(stderr,
               "usage: qrdtm_bench --workload NAME --seed N [--trace 0|1] "
               "[--trace-out PATH]\nworkloads:%s\n",
               names.c_str());
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, trace_out;
  std::uint64_t seed = 0;
  bool have_seed = false;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    if (flag == "--workload") {
      workload = val;
    } else if (flag == "--seed") {
      seed = std::strtoull(val.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--trace") {
      trace = std::atoi(val.c_str());
    } else if (flag == "--trace-out") {
      trace_out = val;
    } else {
      return usage();
    }
  }
  const Workload* w = find_workload(workload);
  if (w == nullptr || !have_seed || argc % 2 == 0) return usage();
  return trace ? run_traced(*w, seed, trace_out) : run_untraced(*w, seed);
}
