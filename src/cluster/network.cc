#include "cluster/network.h"

#include <algorithm>

namespace kcore {

ClusterNetwork::ClusterNetwork(uint32_t num_nodes,
                               const NetworkOptions& options)
    : num_nodes_(num_nodes),
      options_(options),
      pending_(static_cast<size_t>(num_nodes) * num_nodes, 0),
      link_flushes_(static_cast<size_t>(num_nodes) * num_nodes, 0) {}

double ClusterNetwork::Flush() {
  // bytes/ns at 1 GB/s == 1 byte/ns.
  const double bytes_per_ns = options_.link_bandwidth_gbps;
  double max_send_ns = 0.0;
  bool any = false;
  for (uint32_t src = 0; src < num_nodes_; ++src) {
    double send_ns = 0.0;
    for (uint32_t dst = 0; dst < num_nodes_; ++dst) {
      uint64_t& entries = pending_[LinkIndex(src, dst)];
      if (entries == 0) continue;
      any = true;
      const uint64_t bytes = MessageBytes(entries);
      send_ns += bytes_per_ns > 0.0
                     ? static_cast<double>(bytes) / bytes_per_ns
                     : 0.0;
      ++link_flushes_[LinkIndex(src, dst)];
      ++stats_.messages;
      stats_.entries += entries;
      stats_.bytes_on_wire += bytes;
      entries = 0;
    }
    max_send_ns = std::max(max_send_ns, send_ns);
  }
  if (!any) return 0.0;
  ++stats_.flushes;
  const double exchange_ns = max_send_ns + options_.link_latency_us * 1000.0;
  stats_.comm_ns += exchange_ns;
  return exchange_ns;
}

uint64_t ClusterNetwork::PendingEntries() const {
  uint64_t pending = 0;
  for (uint64_t entries : pending_) pending += entries;
  return pending;
}

uint64_t ClusterNetwork::LinkFlushCount(uint32_t src, uint32_t dst) const {
  return link_flushes_[LinkIndex(src, dst)];
}

}  // namespace kcore
