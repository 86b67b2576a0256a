// Data-race litmus driver (docs/RACES.md).
//
// Runs one litmus program — or the whole table with --all — under a chosen
// cluster/protocol/node count, typically with --race-detect on. Exit status
// with --all --race-detect on: 0 iff every racy program was flagged and
// every race-free program was quiet (the positive half of the oracle
// scripts/race_smoke.sh runs; the figures provide the zero-race half).
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "apps/litmus.hpp"
#include "fig_common.hpp"

int main(int argc, char** argv) {
  using namespace hyp;
  std::string programs = "litmus programs:";
  for (const auto& prog : apps::litmus_programs()) {
    programs += "\n  " + prog.name + (prog.racy ? "  (racy)  " : "  (clean) ") + prog.what;
  }
  Cli cli("litmus — data-race litmus programs for the detector\n" + programs);
  bench::ObsRecorder::add_flags(cli);
  cli.flag_string("program", "", "litmus program to run (see list above)")
      .flag_bool("all", false, "run every program and check detector verdicts")
      .flag_string("cluster", "myri200", "cluster preset (myri200 | sci450)")
      .flag_string("protocol", "java_pf", "DSM protocol (java_ic | java_pf | hybrid)")
      .flag_int("nodes", 4, "cluster size")
      .flag_int("workers", 4, "worker threads")
      .flag_int("reps", 64, "per-worker operations");
  if (!cli.parse(argc, argv)) return 0;

  const std::string proto_name = cli.get_string("protocol");
  if (proto_name != "java_ic" && proto_name != "java_pf" && proto_name != "hybrid") {
    std::fprintf(stderr, "litmus: unknown --protocol '%s' (java_ic | java_pf | hybrid)\n",
                 proto_name.c_str());
    return 2;
  }
  const auto protocol = dsm::protocol_by_name(proto_name);

  apps::LitmusParams params;
  params.workers = cli.get_int("workers");
  params.reps = cli.get_int("reps");

  std::vector<std::string> to_run;
  if (cli.get_bool("all")) {
    for (const auto& prog : apps::litmus_programs()) to_run.push_back(prog.name);
  } else {
    const std::string one = cli.get_string("program");
    if (!apps::litmus_known(one)) {
      std::fprintf(stderr, "litmus: unknown --program '%s' (try --help)\n", one.c_str());
      return 2;
    }
    to_run.push_back(one);
  }

  bench::ObsRecorder obs;
  obs.configure(cli, "litmus");

  int verdict_failures = 0;
  std::printf("# litmus: %s %s nodes=%" PRId64 " workers=%d reps=%d\n",
              cli.get_string("cluster").c_str(), proto_name.c_str(), cli.get_int("nodes"),
              params.workers, params.reps);
  for (const auto& name : to_run) {
    apps::VmConfig cfg = apps::make_config(cli.get_string("cluster"), protocol,
                                           cli.get_int("nodes"));
    obs.attach(cfg);
    const apps::RunResult r = apps::litmus_run(cfg, name, params);
    const std::uint64_t races = obs.race() != nullptr ? obs.race()->races() : 0;
    obs.capture_run(name, r, proto_name, cli.get_int("nodes"));
    std::printf("%-16s value=%-10.0f elapsed=%.3f us  races=%llu\n", name.c_str(), r.value,
                to_seconds(r.elapsed) * 1e6, static_cast<unsigned long long>(races));
    if (cli.get_bool("all") && obs.race() != nullptr) {
      bool expect_racy = false;
      for (const auto& prog : apps::litmus_programs()) {
        if (prog.name == name) expect_racy = prog.racy;
      }
      if (expect_racy != (races > 0)) {
        std::fprintf(stderr, "litmus: VERDICT MISMATCH: %s expected %s, detected %llu races\n",
                     name.c_str(), expect_racy ? "races" : "no races",
                     static_cast<unsigned long long>(races));
        ++verdict_failures;
      }
    }
  }
  obs.finish();
  if (verdict_failures != 0) {
    std::fprintf(stderr, "litmus: %d verdict mismatch(es)\n", verdict_failures);
    return 1;
  }
  return 0;
}
