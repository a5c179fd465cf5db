// Sharded-cohort scaling sweep: shard count x cross-shard ratio x Zipf
// skew on a 512-node cluster.
//
// Under full replication (1 shard) every commit funnels through the single
// cohort's 13 replicas, so adding nodes adds nothing: the cohort's service
// capacity is the ceiling.  Sharding hashes objects over S cohorts, each
// with its own tree quorum over 13 nodes, so single-cohort transactions
// from different shards proceed through disjoint replicas in parallel and
// throughput rises with S.  Cross-shard transactions pay one 2PC vote
// round over the UNION of the touched cohorts' write quorums -- a modest
// tax at a 10% cross ratio, which the sweep quantifies.  Zipf skew bounds
// the win: the hottest keys hash to a handful of cohorts no matter how
// many exist.
//
// Acceptance (exit code): at cross-shard ratios 0 and 0.1 with uniform
// access, throughput must increase strictly with shard count; under heavy
// skew (0.9) the 64-shard point must still beat full replication.
//
// Writes machine-readable results to BENCH_shard.json (or argv[1]).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/cluster.h"

using namespace qrdtm;
using namespace qrdtm::bench;

namespace {

constexpr std::uint32_t kNodes = 512;
constexpr std::uint32_t kCohortSize = 13;
constexpr std::uint32_t kClients = 256;
constexpr std::uint32_t kObjects = 4096;
const std::uint32_t kShards[] = {1, 4, 16, 64};
const double kCrossRatios[] = {0.0, 0.1};
const double kSkews[] = {0.0, 0.9};

// Shorter than point_duration(): a 512-node saturated cluster burns far
// more events per simulated second than the 13-node figure benches.
sim::Tick sweep_duration() {
  const char* fast = std::getenv("QRDTM_FAST");
  return (fast && fast[0] == '1') ? sim::sec(5) : sim::sec(30);
}

// Inverse-CDF Zipf sampler over ranks 1..n: p(rank) ~ 1/rank^theta.
// theta = 0 degenerates to uniform.
class ZipfSampler {
 public:
  ZipfSampler(std::uint32_t n, double theta) : cdf_(n) {
    double sum = 0.0;
    for (std::uint32_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (double& v : cdf_) v /= sum;
  }

  std::uint32_t sample(Rng& rng) const {
    const double u = rng.uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::uint32_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

struct Point {
  std::uint32_t shards;
  double cross_ratio;
  double skew;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t cross_rounds = 0;
  double throughput = 0.0;
};

Point run_point(std::uint32_t shards, double cross_ratio, double skew,
                sim::Tick duration) {
  core::ClusterConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.seed = 7;
  cfg.quorum = core::QuorumKind::kSharded;
  cfg.num_shards = shards;
  cfg.cohort_size = kCohortSize;
  // A saturation regime: per-message service time dominates, so the one
  // cohort of the unsharded cluster is the bottleneck sharding removes.
  cfg.service_time = sim::msec(1);
  cfg.link_latency = sim::msec(2);
  cfg.link_jitter = sim::msec(1);
  core::Cluster c(cfg);

  std::vector<core::ObjectId> objs;
  objs.reserve(kObjects);
  for (std::uint32_t i = 0; i < kObjects; ++i) {
    objs.push_back(c.seed_new_object(core::Bytes{1}));
  }
  const ZipfSampler zipf(kObjects, skew);

  auto bump = [](core::Txn& t, core::ObjectId id) -> sim::Task<void> {
    core::Bytes b = co_await t.read_for_write(id);
    b[0] += 1;
    t.write(id, b);
  };
  for (std::uint32_t i = 0; i < kClients; ++i) {
    const net::NodeId node = static_cast<net::NodeId>(
        (static_cast<std::uint64_t>(i) * kNodes) / kClients);
    c.spawn_loop_client(node, [&, cross_ratio](Rng& rng) -> core::TxnBody {
      const core::ObjectId a = objs[zipf.sample(rng)];
      if (rng.chance(cross_ratio)) {
        const core::ObjectId b = objs[zipf.sample(rng)];
        return [a, b, bump](core::Txn& t) -> sim::Task<void> {
          co_await bump(t, a);
          if (b != a) co_await bump(t, b);
        };
      }
      return [a, bump](core::Txn& t) -> sim::Task<void> {
        co_await bump(t, a);
      };
    });
  }

  c.run_for(duration);

  // Sample at the deadline, as bench/harness.cpp does: the drain below
  // finishes every client's in-flight transaction, and counting those
  // commits against `duration` would inflate the throughput.
  Point p;
  p.shards = shards;
  p.cross_ratio = cross_ratio;
  p.skew = skew;
  p.commits = c.metrics().commits;
  p.aborts = c.metrics().total_aborts();
  p.cross_rounds = c.metrics().cross_shard_rounds;
  p.throughput = static_cast<double>(p.commits) / sim::to_seconds(duration);
  c.run_to_completion();
  return p;
}

bool write_json(const std::string& path, const std::vector<Point>& points,
                sim::Tick duration) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"shard_sweep\",\n"
               "  \"nodes\": %u,\n"
               "  \"cohort_size\": %u,\n"
               "  \"clients\": %u,\n"
               "  \"objects\": %u,\n"
               "  \"sim_seconds\": %.1f,\n"
               "  \"points\": [\n",
               kNodes, kCohortSize, kClients, kObjects,
               sim::to_seconds(duration));
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(f,
                 "    {\"shards\": %u, \"cross_ratio\": %.2f, "
                 "\"skew\": %.2f, \"commits\": %llu, "
                 "\"commits_per_sec\": %.2f, \"aborts\": %llu, "
                 "\"cross_shard_rounds\": %llu}%s\n",
                 p.shards, p.cross_ratio, p.skew,
                 static_cast<unsigned long long>(p.commits), p.throughput,
                 static_cast<unsigned long long>(p.aborts),
                 static_cast<unsigned long long>(p.cross_rounds),
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_shard.json";
  const sim::Tick duration = sweep_duration();

  std::printf(
      "Sharded-cohort scaling: %u nodes, %u-replica cohorts, %u clients\n"
      "shards {1,4,16,64} x cross-shard ratio {0,0.1} x Zipf skew {0,0.9}\n",
      kNodes, kCohortSize, kClients);

  std::vector<Point> points;
  bool criterion_ok = true;
  for (double skew : kSkews) {
    for (double ratio : kCrossRatios) {
      print_header("cross=" + std::to_string(ratio) +
                       " skew=" + std::to_string(skew),
                   "shards    txn/s   commits  cross-rounds  ab/cmt");
      std::vector<Point> series;
      for (std::uint32_t shards : kShards) {
        Point p = run_point(shards, ratio, skew, duration);
        std::printf("%6u %s %9llu %13llu %s\n", p.shards,
                    fmt(p.throughput).c_str(),
                    static_cast<unsigned long long>(p.commits),
                    static_cast<unsigned long long>(p.cross_rounds),
                    fmt(p.commits ? static_cast<double>(p.aborts) /
                                        static_cast<double>(p.commits)
                                  : 0.0,
                        8, 2)
                        .c_str());
        series.push_back(p);
        points.push_back(p);
      }
      if (skew == 0.0) {
        // Uniform access: every extra shard must buy real throughput.
        for (std::size_t i = 1; i < series.size(); ++i) {
          if (series[i].throughput <= series[i - 1].throughput) {
            std::printf("  -> FAIL: %u shards not faster than %u\n",
                        series[i].shards, series[i - 1].shards);
            criterion_ok = false;
          }
        }
      } else {
        // Heavy skew: the hot keys' cohorts cap the win, but sharding must
        // still beat full replication.
        if (series.back().throughput <= series.front().throughput) {
          std::printf("  -> FAIL: %u shards not faster than %u under skew\n",
                      series.back().shards, series.front().shards);
          criterion_ok = false;
        }
      }
    }
  }

  if (!write_json(json_path, points, duration)) return 2;
  std::printf("\nwrote %zu points -> %s\ncriterion: %s\n", points.size(),
              json_path.c_str(), criterion_ok ? "PASS" : "FAIL");
  return criterion_ok ? 0 : 1;
}
