// Barnes (Figure 3): gravitational N-body, adapted from SPLASH-2 Barnes-Hut.
//
// "The communication pattern in Barnes is irregular as bodies move during
// the simulation ... and the program uses a load-balancing algorithm that
// dynamically assigns bodies to threads for processing" (§4.1). The paper
// runs 16K bodies for 6 timesteps.
//
// Structure per timestep (see DESIGN.md §7 for the simplifications):
//   1. bounding box: each thread reduces its own body block, merges into
//      shared extremes under a monitor;
//   2. octree build: thread 0 inserts every body into shared cell arrays
//      homed on node 0 (so the tree is remote for everyone else — the
//      irregular, node-count-growing communication the paper discusses);
//   3. forces: threads pull body *chunks* from a central work queue
//      (dynamic load balancing) and traverse the shared tree;
//   4. update: each thread integrates its own block.
// Monitor-based barriers separate the phases.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/app_common.hpp"

namespace hyp::apps {

struct BarnesParams {
  int bodies = 512;      // paper: 16384
  int steps = 3;         // paper: 6
  std::uint64_t seed = 11;
  double theta = 0.7;    // opening criterion
  double dt = 0.025;
  double eps = 0.05;     // softening
  int chunk = 32;        // work-queue granularity (bodies per unit)
};

// Core fp cost of one body-node interaction evaluation (distance, rsqrt,
// multiply-adds) at era CPU speeds.
inline constexpr std::uint64_t kBarnesInterCycles = 125;

struct BarnesBodies {
  std::vector<double> mass, px, py, pz, vx, vy, vz;
};

// Body blocks: worker w of `workers` owns bodies [start(w), start(w + 1)) of
// `n`, with start(w) = n * w / workers.
inline int barnes_block_start(int n, int workers, int w) {
  return static_cast<int>(std::int64_t{n} * w / workers);
}
// The worker whose block holds body b: the largest w with start(w) <= b.
// start(w) <= b  <=>  n * w < workers * (b + 1), so it is the exact inverse,
// O(1) at any worker count.
inline int barnes_body_owner(int n, int workers, int b) {
  return static_cast<int>((std::int64_t{workers} * (b + 1) - 1) / n);
}

// Deterministic initial condition shared by the parallel and serial runs.
BarnesBodies barnes_make_bodies(int n, std::uint64_t seed);

RunResult barnes_parallel(const VmConfig& cfg, const BarnesParams& params);
// Checksum: sum of |position| components after the last step.
double barnes_serial(const BarnesParams& params);

}  // namespace hyp::apps
