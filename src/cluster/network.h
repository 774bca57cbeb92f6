#ifndef KCORE_CLUSTER_NETWORK_H_
#define KCORE_CLUSTER_NETWORK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace kcore {

/// The modeled interconnect between cluster nodes (DESIGN.md §14 "network
/// cost model"). Pure model: latency and bandwidth only move the modeled
/// clock; delivery itself is immediate and loss-free, so results never
/// depend on these knobs.
struct NetworkOptions {
  /// Per-message wire latency in modeled microseconds (one charge per
  /// flushed link message — aggregation means one message per link per
  /// flush, which is exactly what buys the batching win).
  double link_latency_us = 5.0;
  /// Per-link bandwidth in modeled GB/s (1 GB/s = 1 byte/ns). A node's
  /// outgoing messages serialize on its NIC; receives are parallel.
  double link_bandwidth_gbps = 10.0;
  /// Serialized size of one aggregated delta entry: (vertex id, decrement
  /// count) = 4 + 4 bytes.
  uint32_t bytes_per_entry = 8;
  /// Fixed framing overhead per link message (headers, routing).
  uint32_t message_header_bytes = 64;
};

/// Cumulative traffic accounting, exposed through Metrics and the cluster
/// bench's bytes-on-wire column.
struct NetworkStats {
  uint64_t bytes_on_wire = 0;  ///< Serialized bytes of every flushed message.
  uint64_t messages = 0;       ///< Link messages flushed (1 per busy link).
  uint64_t entries = 0;        ///< Aggregated (vertex, count) entries sent.
  uint64_t flushes = 0;        ///< Flush calls that moved any traffic.
  double comm_ns = 0.0;        ///< Total modeled exchange time.
};

/// The priced delta exchange between nodes. The caller aggregates a
/// sub-round's border decrements (one entry per source node and destination
/// vertex, however many decrements it carries) and buffers each link's entry
/// count here; a Flush prices every busy link as ONE message. Delivery is
/// the caller's: the network keeps pricing and traffic statistics only.
class ClusterNetwork {
 public:
  ClusterNetwork(uint32_t num_nodes, const NetworkOptions& options);

  uint32_t num_nodes() const { return num_nodes_; }

  /// Buffers `entries` aggregated delta entries on the src -> dst link for
  /// the next Flush. NOT thread-safe — call it from one thread.
  void Buffer(uint32_t src, uint32_t dst, uint64_t entries) {
    pending_[LinkIndex(src, dst)] += entries;
  }

  /// Sends every busy link's entries as one message, charges the cost
  /// model, and returns the modeled exchange time in ns: max over nodes of
  /// the serialized send time of that node's outgoing messages, plus one
  /// link latency (all messages are in flight together; the slowest sender
  /// gates the barrier). A flush with nothing pending costs 0 and does not
  /// count as a flush. A link with zero latency and bandwidth is free: its
  /// messages count but cost 0 ns.
  double Flush();

  /// Buffered entries not yet flushed (test hook).
  uint64_t PendingEntries() const;

  /// How many flushed messages the src -> dst link has carried — the test
  /// hook behind "aggregation flushes exactly once per round per link".
  uint64_t LinkFlushCount(uint32_t src, uint32_t dst) const;

  const NetworkStats& stats() const { return stats_; }
  const NetworkOptions& options() const { return options_; }

  /// Serialized size of one link message carrying `entries` deltas.
  uint64_t MessageBytes(uint64_t entries) const {
    return options_.message_header_bytes +
           entries * static_cast<uint64_t>(options_.bytes_per_entry);
  }

 private:
  size_t LinkIndex(uint32_t src, uint32_t dst) const {
    return static_cast<size_t>(src) * num_nodes_ + dst;
  }

  uint32_t num_nodes_;
  NetworkOptions options_;
  /// pending_[src * N + dst]: entries buffered on that link since the last
  /// flush.
  std::vector<uint64_t> pending_;
  std::vector<uint64_t> link_flushes_;
  NetworkStats stats_;
};

}  // namespace kcore

#endif  // KCORE_CLUSTER_NETWORK_H_
