// Thread placement (Table 1, "Load balancer").
//
// The paper's runtime "currently uses a round-robin thread distribution
// algorithm"; the interface is pluggable because PM2's thread-migration
// support was the paper's future-work hook for dynamic policies.
#pragma once

#include "cluster/params.hpp"
#include "common/assert.hpp"

namespace hyp::hyperion {

class LoadBalancer {
 public:
  virtual ~LoadBalancer() = default;
  // Chooses the node for the `thread_index`-th created thread.
  virtual cluster::NodeId place(int thread_index, int nodes) = 0;
  virtual const char* name() const = 0;
};

class RoundRobinBalancer final : public LoadBalancer {
 public:
  cluster::NodeId place(int thread_index, int nodes) override {
    HYP_DCHECK(nodes > 0);
    return thread_index % nodes;
  }
  const char* name() const override { return "round-robin"; }
};

// Pins every thread to one node (useful for tests and for the
// threads-per-node extension study).
class PinnedBalancer final : public LoadBalancer {
 public:
  explicit PinnedBalancer(cluster::NodeId node) : node_(node) {}
  cluster::NodeId place(int, int nodes) override {
    HYP_CHECK(node_ < nodes);
    return node_;
  }
  const char* name() const override { return "pinned"; }

 private:
  cluster::NodeId node_;
};

}  // namespace hyp::hyperion
