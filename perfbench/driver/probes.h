// Layer probes: host nanoseconds per operation of one layer, measured in
// isolation at sizes taken from the workload's own run (heap depth,
// in-flight calls, data-set size, per-node population, log footprint).
// Each probe reports the median over several timed batches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "quorum/quorum.h"

namespace perfbench {

/// Host ns per fired event in a simulator whose heap holds `heap_depth`
/// other pending events.
double probe_event_ns(std::size_t heap_depth);

/// Host ns per RPC round trip with `inflight` concurrent calls outstanding
/// on one endpoint (the rpc layer's pending-call table at that depth).
double probe_rpc_roundtrip_ns(std::size_t inflight);

struct WireSizes {
  std::size_t read_entries = 0;    // data-set entries carried by a read
  std::size_t commit_reads = 0;    // read-set entries of a commit request
  std::size_t commit_writes = 0;   // write-set entries of a commit request
  std::size_t batch_reads = 0;     // read-set entries of a batch request
  std::size_t batch_writes = 0;    // write-set entries of a batch request
  std::size_t payload_bytes = 0;   // object payload size
};

struct WireProbe {
  double read_request_encode_ns = 0;
  double read_request_decode_ns = 0;
  double commit_request_encode_ns = 0;
  double commit_request_decode_ns = 0;
  double batch_commit_request_encode_ns = 0;
  double batch_commit_request_decode_ns = 0;
};

WireProbe probe_wire(const WireSizes& sizes);

struct StoreProbe {
  double validate_ns = 0;  // one data-set validated against the store
  double apply_ns = 0;     // one committed write applied
  double log_append_prepare_ns = 0;
  double log_append_confirm_ns = 0;
  double log_cut_ms = 0;
  double log_replay_ms = 0;
  std::size_t log_footprint_bytes = 0;  // the probe log's image + tail
};

/// `population` objects per replica, `dataset` entries per validation,
/// `writes` entries per prepare record, a record tail of `tail_bytes`.
StoreProbe probe_store(std::size_t population, std::size_t payload_bytes,
                       std::size_t dataset, std::size_t writes,
                       std::size_t tail_bytes);

struct QuorumProbe {
  double read_quorum_ns = 0;
  double write_quorum_ns = 0;
  double cohort_of_ns = 0;
};

/// Quorum lookups on a live provider over `nodes` callers and object ids
/// 1..`objects`.
QuorumProbe probe_quorum(const qrdtm::quorum::QuorumProvider& provider,
                         std::uint32_t nodes, std::uint64_t objects);

}  // namespace perfbench
