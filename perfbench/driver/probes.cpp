#include "probes.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "common/serde.h"
#include "core/wire.h"
#include "net/latency.h"
#include "net/network.h"
#include "net/rpc.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "store/commit_log.h"
#include "store/replica_store.h"

namespace perfbench {

namespace {

namespace core = qrdtm::core;
namespace net = qrdtm::net;
namespace sim = qrdtm::sim;
namespace store = qrdtm::store;
using qrdtm::Bytes;
using Clock = std::chrono::steady_clock;

constexpr int kBatches = 7;

/// Keep `p` (and what it points to) observable, so timed work is not
/// optimised away.
inline void escape(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

double ns_since(Clock::time_point t0) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median over kBatches of (batch host ns / ops); `batch` runs `ops` ops.
template <class F>
double ns_per_op(std::size_t ops, F&& batch) {
  std::vector<double> samples;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    batch();
    samples.push_back(ns_since(t0) / static_cast<double>(ops));
  }
  return median(samples);
}

/// Self-rescheduling timer chain: one live event of its own at a time.
struct Chain {
  sim::Simulator* s;
  std::uint64_t left;
  void operator()() {
    if (left-- > 1) s->schedule_after(1, *this);
  }
};

constexpr net::MsgKind kEchoKind = 42;

sim::Task<void> rpc_worker(net::RpcEndpoint* client, net::NodeId dst,
                           std::uint64_t calls) {
  const Bytes req(16, 0xAB);
  for (std::uint64_t i = 0; i < calls; ++i) {
    auto fut = client->call(dst, kEchoKind, req, sim::sec(1));
    net::RpcResult res = co_await fut;
    escape(res.payload.data());
  }
}

Bytes payload(std::size_t bytes, std::uint64_t salt) {
  Bytes b(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    b[i] = static_cast<std::uint8_t>((salt + i) * 131);
  }
  return b;
}

}  // namespace

double probe_event_ns(std::size_t heap_depth) {
  constexpr std::uint64_t kEvents = 1 << 16;
  std::vector<double> samples;
  for (int b = 0; b < kBatches; ++b) {
    sim::Simulator s;
    // The filler sits far in the future, so every chain event sifts
    // through a heap of the observed depth.
    for (std::size_t i = 0; i < heap_depth; ++i) {
      s.schedule_at(sim::sec(1e6) + i, [] {});
    }
    s.schedule_after(1, Chain{&s, kEvents});
    const auto t0 = Clock::now();
    s.advance_to(kEvents + 1);
    samples.push_back(ns_since(t0) / static_cast<double>(kEvents));
  }
  return median(samples);
}

double probe_rpc_roundtrip_ns(std::size_t inflight) {
  inflight = std::max<std::size_t>(inflight, 1);
  const std::uint64_t per_worker =
      std::max<std::uint64_t>(1, (std::uint64_t{1} << 13) / inflight);
  const std::uint64_t calls = per_worker * inflight;
  sim::Simulator s;
  net::Network nw(s, std::make_unique<net::UniformLatency>(sim::usec(10), 0),
                  /*seed=*/7, /*service_time=*/sim::usec(1));
  net::RpcEndpoint client(s, nw);
  net::RpcEndpoint server(s, nw);
  server.register_service(
      kEchoKind, [](net::NodeId, const Bytes& req) -> std::optional<Bytes> {
        return req;
      });
  return ns_per_op(calls, [&] {
    for (std::size_t w = 0; w < inflight; ++w) {
      s.spawn(rpc_worker(&client, server.id(), per_worker));
    }
    s.run();
  });
}

WireProbe probe_wire(const WireSizes& sz) {
  constexpr std::size_t kOps = 2000;
  WireProbe p;

  std::vector<core::DataSetEntry> ds;
  for (std::size_t i = 0; i < sz.read_entries; ++i) {
    ds.push_back(core::DataSetEntry{i + 1, i + 7, 1000 + i % 3,
                                    static_cast<std::uint32_t>(i % 3), i % 5});
  }
  qrdtm::Writer w0;
  core::encode_read_request(w0, 1000, core::NestingMode::kClosed, 99, false,
                            ds);
  const Bytes read_bytes = std::move(w0).take();
  Bytes buf;
  p.read_request_encode_ns = ns_per_op(kOps, [&] {
    for (std::size_t i = 0; i < kOps; ++i) {
      qrdtm::Writer w(std::move(buf));
      core::encode_read_request(w, 1000 + i, core::NestingMode::kClosed, 99,
                                false, ds);
      buf = std::move(w).take();
      escape(buf.data());
    }
  });
  p.read_request_decode_ns = ns_per_op(kOps, [&] {
    for (std::size_t i = 0; i < kOps; ++i) {
      core::ReadRequest r = core::ReadRequest::decode(read_bytes);
      escape(r.dataset.data());
    }
  });

  core::CommitRequest cr;
  cr.txn = 1000;
  for (std::size_t i = 0; i < sz.commit_reads; ++i) {
    cr.readset.push_back(core::CommitReadEntry{i + 1, i + 3});
  }
  for (std::size_t i = 0; i < sz.commit_writes; ++i) {
    cr.writeset.push_back(core::CommitWriteEntry{
        sz.commit_reads + i + 1, i + 2, payload(sz.payload_bytes, i)});
  }
  const Bytes commit_bytes = cr.encode();
  p.commit_request_encode_ns = ns_per_op(kOps, [&] {
    for (std::size_t i = 0; i < kOps; ++i) {
      qrdtm::Writer w(std::move(buf));
      cr.encode_into(w);
      buf = std::move(w).take();
      escape(buf.data());
    }
  });
  p.commit_request_decode_ns = ns_per_op(kOps, [&] {
    for (std::size_t i = 0; i < kOps; ++i) {
      core::CommitRequest r = core::CommitRequest::decode(commit_bytes);
      escape(r.writeset.data());
    }
  });

  core::BatchCommitRequest br;
  br.batch = 1000;
  for (std::size_t i = 0; i < sz.batch_reads; ++i) {
    br.readset.push_back(core::CommitReadEntry{i + 1, i + 3});
  }
  for (std::size_t i = 0; i < sz.batch_writes; ++i) {
    br.writeset.push_back(core::BatchWriteEntry{
        sz.batch_reads + i + 1, i + 2, 2, payload(sz.payload_bytes, i)});
  }
  const Bytes batch_bytes = br.encode();
  p.batch_commit_request_encode_ns = ns_per_op(kOps, [&] {
    for (std::size_t i = 0; i < kOps; ++i) {
      qrdtm::Writer w(std::move(buf));
      br.encode_into(w);
      buf = std::move(w).take();
      escape(buf.data());
    }
  });
  p.batch_commit_request_decode_ns = ns_per_op(kOps, [&] {
    for (std::size_t i = 0; i < kOps; ++i) {
      core::BatchCommitRequest r =
          core::BatchCommitRequest::decode(batch_bytes);
      escape(r.writeset.data());
    }
  });
  return p;
}

StoreProbe probe_store(std::size_t population, std::size_t payload_bytes,
                       std::size_t dataset, std::size_t writes,
                       std::size_t tail_bytes) {
  population = std::max<std::size_t>(population, 1);
  StoreProbe p;

  store::ReplicaStore rs;
  for (std::size_t i = 0; i < population; ++i) {
    rs.seed(i + 1, payload(payload_bytes, i), 1 + i % 4);
  }
  // A data-set spread over the population, versions as a reader saw them.
  std::vector<std::pair<store::ObjectId, store::Version>> ds;
  for (std::size_t i = 0; i < dataset; ++i) {
    const store::ObjectId id = (i * 7919) % population + 1;
    ds.emplace_back(id, rs.version_of(id));
  }
  constexpr std::size_t kValidations = 4000;
  p.validate_ns = ns_per_op(kValidations, [&] {
    std::size_t invalid = 0;
    for (std::size_t v = 0; v < kValidations; ++v) {
      for (const auto& [id, version] : ds) {
        if (rs.version_of(id) != version || rs.protected_against(id, 7)) {
          ++invalid;
        }
      }
    }
    escape(&invalid);
  });

  constexpr std::size_t kApplies = 20000;
  const Bytes value = payload(payload_bytes, 3);
  store::Version next = 10;
  p.apply_ns = ns_per_op(kApplies, [&] {
    for (std::size_t i = 0; i < kApplies; ++i) {
      rs.apply(i % population + 1, next, value);
    }
    ++next;
  });

  std::vector<store::LoggedWrite> prepare;
  for (std::size_t i = 0; i < std::max<std::size_t>(writes, 1); ++i) {
    prepare.push_back(store::LoggedWrite{i + 1, 5, 1, value});
  }
  constexpr std::size_t kAppends = 5000;
  {
    store::CommitLog log;
    store::TxnId txn = 1;
    p.log_append_prepare_ns = ns_per_op(kAppends, [&] {
      for (std::size_t i = 0; i < kAppends; ++i) {
        log.append_prepare(txn++, prepare, 1);
      }
    });
    txn = 1;
    p.log_append_confirm_ns = ns_per_op(kAppends, [&] {
      for (std::size_t i = 0; i < kAppends; ++i) {
        log.append_confirm(txn++, true, 1);
      }
    });
  }

  // Cut and replay a log with the observed per-node footprint: an image
  // of the population plus a prepare/confirm tail of the observed size.
  std::vector<double> cut_ms, replay_ms;
  for (int b = 0; b < kBatches; ++b) {
    store::CommitLog log;
    for (const auto& [id, e] : rs.entries()) {
      log.append_apply(id, e.version, e.data, 1);
    }
    log.cut(rs, 1);
    for (store::TxnId txn = 1; log.tail_bytes() < tail_bytes; ++txn) {
      log.append_prepare(txn, prepare, 1);
      log.append_confirm(txn, true, 1);
    }
    p.log_footprint_bytes = log.size_bytes();
    store::ReplicaStore fresh;
    auto t0 = Clock::now();
    const std::size_t applied = log.replay_into(fresh);
    replay_ms.push_back(ns_since(t0) / 1e6);
    escape(&applied);
    t0 = Clock::now();
    log.cut(fresh, 1);
    cut_ms.push_back(ns_since(t0) / 1e6);
  }
  p.log_cut_ms = median(cut_ms);
  p.log_replay_ms = median(replay_ms);
  return p;
}

QuorumProbe probe_quorum(const qrdtm::quorum::QuorumProvider& provider,
                         std::uint32_t nodes, std::uint64_t objects) {
  constexpr std::size_t kCalls = 20000;
  objects = std::max<std::uint64_t>(objects, 1);
  QuorumProbe p;
  p.read_quorum_ns = ns_per_op(kCalls, [&] {
    for (std::size_t i = 0; i < kCalls; ++i) {
      auto q = provider.read_quorum(static_cast<net::NodeId>(i % nodes),
                                    (i * 7919) % objects + 1);
      escape(q.data());
    }
  });
  p.write_quorum_ns = ns_per_op(kCalls, [&] {
    for (std::size_t i = 0; i < kCalls; ++i) {
      auto q = provider.write_quorum(static_cast<net::NodeId>(i % nodes),
                                     (i * 7919) % objects + 1);
      escape(q.data());
    }
  });
  p.cohort_of_ns = ns_per_op(kCalls, [&] {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kCalls; ++i) {
      acc += provider.cohort_of((i * 7919) % objects + 1);
    }
    escape(&acc);
  });
  return p;
}

}  // namespace perfbench
