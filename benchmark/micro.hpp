// Layer microbenches: host nanoseconds per call of one public operation of a
// layer, timed from outside the layer (benchmark/README.md, "Per-layer
// metrics"). They run in the traced pass only, sized from the workload (node
// count, page size), and each reports the minimum over several batches.
#pragma once

#include <chrono>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace hyp::benchmark {

using Clock = std::chrono::steady_clock;

// Called once per timed batch (for the trace): metric name, batch interval.
using BatchSpan = std::function<void(const std::string&, Clock::time_point, Clock::time_point)>;

// Returns (metric name, ns per call) for every micro_* per-layer metric.
std::vector<std::pair<std::string, double>> run_microbenches(const Workload& w, bool smoke,
                                                             const BatchSpan& span);

}  // namespace hyp::benchmark
