// The benchmark's four workloads (benchmark/README.md, "Workloads").
//
// A workload is a fixed list of points, one per (program, protocol), plus
// what hyp_benchmark needs to check them: the serial reference of every batch
// program and, for the serving workloads, the store parameters. Everything is
// built from public entry points only: the app *_parallel/*_serial functions,
// serve::run_serve and serve::client_ops.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "apps/app_common.hpp"
#include "serve/serve.hpp"

namespace hyp::benchmark {

inline constexpr dsm::ProtocolKind kProtocols[] = {
    dsm::ProtocolKind::kJavaIc, dsm::ProtocolKind::kJavaPf, dsm::ProtocolKind::kHybrid};
inline constexpr int kProtocolCount = 3;

int protocol_index(dsm::ProtocolKind kind);

// What one point run produced. Its check compares `checks` answers against
// the serial reference and counts the `failed` ones. For a store run the
// failed checks are keys whose acked writes the store lost (`lost`): a
// measured failure rate of the store, not a wrong measurement.
struct Outcome {
  apps::RunResult run;
  std::optional<serve::ServeResult> serve;  // set for store runs
  std::uint64_t checks = 0;
  std::uint64_t failed = 0;
  std::uint64_t lost = 0;
};

struct Point {
  std::string app;  // "pi", "jacobi", "barnes", "tsp", "asp" or "serve"
  dsm::ProtocolKind protocol = dsm::ProtocolKind::kJavaIc;
  apps::VmConfig cfg;
  std::function<Outcome(const apps::VmConfig&)> run;
  std::function<void(Outcome&)> check;
};

// The store shape of a serving workload.
struct ServeSpec {
  apps::VmConfig cfg;  // protocol is set per cell
  serve::ServeParams params;
  // Per-client arrival rates of the one-shot rate ladder (empty = none).
  std::vector<double> ladder_rates;
};

struct Workload {
  std::string name;
  int nodes = 0;
  std::vector<Point> points;  // app-major, protocol-minor
  double ref_s = 0;           // host seconds spent computing serial references
  std::optional<ServeSpec> serve;
};

// Builds `name` for `seed` (0 = the existing harnesses' inputs; any other
// value is mixed into every app, serve and fault seed). `smoke` shrinks every
// size so the whole benchmark finishes in seconds. Computes the serial
// references, so it takes a moment. Exits 2 on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed, bool smoke);

// Host-side generation of every client's op stream: the part of run_serve
// that happens before any virtual time passes, timed as set-up.
void generate_streams(const ServeSpec& spec);

// A store run's check: each of the `keys` final values against the serial
// replay of the same op streams.
void check_serve(Outcome& o, std::uint64_t keys);

// One checked store run.
Outcome run_serve_cell(const apps::VmConfig& cfg, const serve::ServeParams& params);

}  // namespace hyp::benchmark
