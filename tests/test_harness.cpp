// Bench-harness contract: run_sweep is run_experiment fanned out over a
// thread pool (results in input order, equal to serial runs), and every
// core::ClusterConfig knob set in ExperimentConfig::cluster reaches the
// cluster the harness builds.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "bench/harness.h"

namespace qrdtm::bench {
namespace {

std::vector<std::uint64_t> counters(const core::Metrics& m) {
  std::vector<std::uint64_t> out;
  m.for_each([&out](const char*, const char*, std::uint64_t v) {
    out.push_back(v);
  });
  return out;
}

ExperimentConfig small_bank(core::NestingMode mode, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.app = "bank";
  cfg.cluster.runtime.mode = mode;
  cfg.cluster.num_nodes = 5;
  cfg.cluster.seed = seed;
  cfg.params.read_ratio = 0.2;
  cfg.params.nested_calls = 3;
  cfg.params.num_objects = 16;
  cfg.clients = 4;
  cfg.duration = sim::sec(2);
  return cfg;
}

TEST(ParallelFor, VisitsEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(37);
  parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  parallel_for(0, [](std::size_t) { FAIL() << "called with count 0"; });
}

TEST(RunSweep, ResultsInInputOrderEqualSerialRuns) {
  std::vector<ExperimentConfig> configs;
  for (core::NestingMode mode : all_modes()) {
    for (std::uint64_t seed : {3u, 4u}) {
      configs.push_back(small_bank(mode, seed));
    }
  }
  const std::vector<ExperimentResult> swept = run_sweep(configs);
  ASSERT_EQ(swept.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE(i);
    const ExperimentResult serial = run_experiment(configs[i]);
    EXPECT_EQ(counters(swept[i].metrics), counters(serial.metrics));
    EXPECT_EQ(swept[i].latency, serial.latency);
    EXPECT_EQ(swept[i].events_executed, serial.events_executed);
    EXPECT_EQ(swept[i].throughput, serial.throughput);
    EXPECT_TRUE(swept[i].invariants_ok);
    EXPECT_GT(swept[i].metrics.commits, 0u);
  }
  // The points are distinguishable, so an order mix-up cannot pass.
  EXPECT_NE(counters(swept[0].metrics), counters(swept[1].metrics));
}

// cn_local_readonly_commit is a RuntimeConfig knob with no ExperimentConfig
// field of its own: setting it on cfg.cluster must still switch QR-CN's
// read-only roots from a local commit to a 2PC round.
TEST(RunExperiment, ClusterConfigKnobReachesTheCluster) {
  ExperimentConfig cfg = small_bank(core::NestingMode::kClosed, 9);
  cfg.params.read_ratio = 1.0;  // every root is read-only

  const ExperimentResult with_opt = run_experiment(cfg);
  EXPECT_GT(with_opt.metrics.local_commits, 0u);

  cfg.cluster.runtime.cn_local_readonly_commit = false;
  const ExperimentResult without = run_experiment(cfg);
  EXPECT_GT(without.metrics.commits, 0u);
  EXPECT_EQ(without.metrics.local_commits, 0u);
  EXPECT_GT(without.metrics.commit_requests, 0u);
}

}  // namespace
}  // namespace qrdtm::bench
