#include "micro.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>

#include "cluster/cluster.hpp"
#include "dsm/access.hpp"
#include "dsm/dsm.hpp"
#include "hyperion/load_balancer.hpp"
#include "hyperion/vm.hpp"
#include "sim/engine.hpp"

namespace hyp::benchmark {

namespace {

struct Sample {
  Clock::time_point start;
  Clock::time_point end;
  std::uint64_t ops = 0;
};
using Samples = std::vector<Sample>;

constexpr cluster::ServiceId kEcho = 1;
constexpr cluster::ServiceId kSink = 2;
constexpr std::size_t kRegion = std::size_t{64} << 20;  // two 32 MB zones
constexpr std::size_t kFiberStack = 64 * 1024;

// The work one batch repeats (sizes_for shrinks it for --smoke).
struct Sizes {
  int batches = 5;
  std::uint64_t events = 200'000;     // engine events per batch
  int calls = 20'000;                 // RPCs per batch
  std::uint64_t accesses = 4'000'000; // fast-path accesses per batch
  int pages = 512;                    // pages fetched / flushed per batch
  int pairs = 20'000;                 // monitor enter+exit pairs per batch
  int threads = 2'000;                // thread start+join per batch
};

Sizes sizes_for(bool smoke) {
  Sizes s;
  if (!smoke) return s;
  s.batches = 2;
  s.events /= 10;
  s.calls /= 10;
  s.accesses /= 10;
  s.pages /= 8;
  s.pairs /= 10;
  s.threads /= 10;
  return s;
}

// --- sim: fiber wakeups and posted callbacks ---------------------------------

Samples engine_wakeups(int fibers, std::uint64_t events, std::uint32_t shards, int batches) {
  const std::uint64_t rounds = std::max<std::uint64_t>(1, events / fibers);
  Samples out;
  for (int b = 0; b < batches; ++b) {
    sim::Engine eng;
    if (shards > 1) eng.configure_shards(shards);
    for (int f = 0; f < fibers; ++f) {
      eng.spawn_on(static_cast<std::uint32_t>(f) % shards, "wakeup", [&eng, rounds] {
        for (std::uint64_t i = 0; i < rounds; ++i) eng.sleep_for(1000);
      }, kFiberStack);
    }
    const auto t0 = Clock::now();
    eng.run();
    out.push_back({t0, Clock::now(), eng.events_processed()});
  }
  return out;
}

// `chains` self-reposting callbacks, each advancing 1 ns per hop.
struct Hop {
  sim::Engine* eng;
  std::uint64_t* left;
  void operator()() const {
    if (--*left > 0) eng->post(eng->now() + 1000, Hop{eng, left});
  }
};

Samples engine_posts(int chains, std::uint64_t events, int batches) {
  Samples out;
  for (int b = 0; b < batches; ++b) {
    sim::Engine eng;
    std::vector<std::uint64_t> left(static_cast<std::size_t>(chains),
                                    std::max<std::uint64_t>(1, events / chains));
    for (auto& l : left) eng.post(0, Hop{&eng, &l});
    const auto t0 = Clock::now();
    eng.run();
    out.push_back({t0, Clock::now(), eng.events_processed()});
  }
  return out;
}

// --- cluster: blocking calls and one-way 4 KB sends ---------------------------

Samples cluster_calls(const cluster::ClusterParams& params, int calls, int batches) {
  cluster::Cluster c(params, 2);
  c.node(1).register_service(kEcho, [&c](cluster::Incoming& in) {
    Buffer reply(8);
    reply.put<std::uint64_t>(in.reader.get<std::uint64_t>() + 1);
    c.reply(in, std::move(reply));
  });
  Samples out;
  std::uint64_t sum = 0;
  c.spawn_thread(0, "caller", [&] {
    for (int b = 0; b < batches; ++b) {
      const auto t0 = Clock::now();
      for (int i = 0; i < calls; ++i) {
        Buffer req(8);
        req.put<std::uint64_t>(static_cast<std::uint64_t>(i));
        Buffer resp = c.call(0, 1, kEcho, std::move(req));
        sum += BufferReader(resp).get<std::uint64_t>();
      }
      out.push_back({t0, Clock::now(), static_cast<std::uint64_t>(calls)});
    }
  });
  c.run();
  const std::uint64_t n = static_cast<std::uint64_t>(calls);
  if (sum != static_cast<std::uint64_t>(batches) * n * (n + 1) / 2) {
    std::fprintf(stderr, "hyp_benchmark: echo microbench returned wrong replies\n");
    std::exit(1);
  }
  return out;
}

Samples cluster_sends(const cluster::ClusterParams& params, int sends, int batches) {
  static const std::vector<std::byte> payload(4096, std::byte{0x5a});
  Samples out;
  for (int b = 0; b < batches; ++b) {
    cluster::Cluster c(params, 2);
    std::uint64_t received = 0;
    c.node(1).register_service(kSink,
                               [&received](cluster::Incoming& in) { received += in.reader.remaining(); });
    c.spawn_thread(0, "sender", [&] {
      for (int i = 0; i < sends; ++i) {
        Buffer msg(payload.size());
        msg.put_bytes(payload.data(), payload.size());
        c.send(0, 1, kSink, std::move(msg));
        // Let the wire drain so the event queue stays shallow, as in a run.
        if (i % 8 == 7) sim::sleep_for(200 * kMicrosecond);
      }
    });
    const auto t0 = Clock::now();
    c.run();
    out.push_back({t0, Clock::now(), static_cast<std::uint64_t>(sends)});
    if (received != payload.size() * static_cast<std::uint64_t>(sends)) {
      std::fprintf(stderr, "hyp_benchmark: send microbench lost payload bytes\n");
      std::exit(1);
    }
  }
  return out;
}

// --- dsm: fast path, miss/fetch, flush, invalidate -----------------------------

// A thread on node 1 working on `pages` pages homed on node 0.
template <typename P, typename Body>
void on_remote_pages(const cluster::ClusterParams& params, int pages, Body body) {
  cluster::Cluster c(params, 2);
  dsm::DsmSystem dsm(&c, kRegion, P::kKind);
  c.spawn_thread(1, "dsm-micro", [&] {
    auto t = dsm.make_thread(1);
    const std::size_t pb = dsm.layout().page_bytes();
    const dsm::Gva base = dsm.alloc(0, static_cast<std::size_t>(pages) * pb, 8);
    body(dsm, *t, base, pb);
    t->clock.flush();
  });
  c.run();
}

// host_perf's access mix: three loads and one store per step, on one remote
// (cached) page and one home page, so both presence classes are hit.
template <typename P>
Samples dsm_accesses(const cluster::ClusterParams& params, std::uint64_t accesses,
                     int batches) {
  Samples out;
  on_remote_pages<P>(params, 1, [&](dsm::DsmSystem& dsm, dsm::ThreadCtx& t, dsm::Gva remote,
                                    std::size_t) {
    const dsm::Gva home = dsm.alloc(1, 4096, 8);
    dsm.load_into_cache(t, remote);
    std::uint64_t sink = 0;
    for (int b = 0; b < batches; ++b) {
      const auto t0 = Clock::now();
      for (std::uint64_t i = 0; i < accesses; i += 4) {
        sink += P::template get<std::uint32_t>(t, remote + (i % 512) * 8);
        sink += P::template get<std::uint32_t>(t, home + (i % 512) * 8);
        P::template put<std::uint32_t>(t, home + (i % 512) * 8, static_cast<std::uint32_t>(i));
        sink += P::template get<std::uint32_t>(t, remote + ((i + 1) % 512) * 8);
      }
      out.push_back({t0, Clock::now(), accesses});
    }
    if (sink == 0x5eed) std::fputs("", stderr);  // keeps the loop observable
  });
  return out;
}

// Misses on `pages` absent pages (one fetch each), then one invalidate_cache
// dropping them all; repeated per batch.
template <typename P>
void dsm_fetches(const cluster::ClusterParams& params, int pages, int batches, Samples& fetch,
                 Samples& invalidate) {
  on_remote_pages<P>(params, pages, [&](dsm::DsmSystem& dsm, dsm::ThreadCtx& t, dsm::Gva base,
                                        std::size_t pb) {
    std::uint64_t sink = 0;
    for (int b = 0; b < batches; ++b) {
      const auto t0 = Clock::now();
      for (int p = 0; p < pages; ++p) {
        sink += P::template get<std::uint32_t>(t, base + static_cast<std::size_t>(p) * pb);
      }
      const auto t1 = Clock::now();
      dsm.invalidate_cache(t);
      fetch.push_back({t0, t1, static_cast<std::uint64_t>(pages)});
      invalidate.push_back({t1, Clock::now(), static_cast<std::uint64_t>(pages)});
    }
    if (sink == 0x5eed) std::fputs("", stderr);
  });
}

// Fetches `pages` fresh pages, dirties 16 words on each, then times one
// update_main_memory shipping them home. Every batch uses pages no earlier
// batch touched: under hybrid, pages flushed again and again migrate their
// home to the writer, after which there is nothing left to ship.
template <typename P>
Samples dsm_flushes(const cluster::ClusterParams& params, int pages, int batches) {
  Samples out;
  on_remote_pages<P>(params, pages * batches, [&](dsm::DsmSystem& dsm, dsm::ThreadCtx& t,
                                                  dsm::Gva base, std::size_t pb) {
    for (int b = 0; b < batches; ++b) {
      const dsm::Gva first = base + static_cast<std::size_t>(b) * pages * pb;
      for (int p = 0; p < pages; ++p) {
        const dsm::Gva page = first + static_cast<std::size_t>(p) * pb;
        for (std::size_t w = 0; w < 16; ++w) {
          P::template put<std::uint64_t>(t, page + w * 64,
                                         static_cast<std::uint64_t>(b * 1000003 + p));
        }
      }
      const auto t0 = Clock::now();
      dsm.update_main_memory(t);
      out.push_back({t0, Clock::now(), static_cast<std::uint64_t>(pages)});
    }
  });
  return out;
}

// --- hyperion: monitors and threads ----------------------------------------

struct HyperionSamples {
  Samples local_pairs, remote_pairs, threads;
};

HyperionSamples hyperion_ops(const cluster::ClusterParams& params, const Sizes& s) {
  hyperion::VmConfig cfg;
  cfg.cluster = params;
  cfg.nodes = 2;
  cfg.protocol = dsm::ProtocolKind::kJavaPf;
  cfg.region_bytes = kRegion;
  hyperion::HyperionVM vm(cfg);
  // Every started thread lands on node 1: remote spawns, remote homes.
  vm.set_balancer(std::make_unique<hyperion::PinnedBalancer>(1));
  HyperionSamples out;
  vm.run_main([&](hyperion::JavaEnv& main) {
    const dsm::Gva mine = main.alloc_raw(8);
    dsm::Gva theirs = dsm::kNullGva;
    hyperion::JThread alloc = main.start_thread(
        "alloc", [&theirs](hyperion::JavaEnv& env) { theirs = env.alloc_raw(8); });
    main.join(alloc);
    const auto pairs = [&](dsm::Gva obj, Samples& into) {
      for (int b = 0; b < s.batches; ++b) {
        const auto t0 = Clock::now();
        for (int i = 0; i < s.pairs; ++i) {
          main.monitor_enter(obj);
          main.monitor_exit(obj);
        }
        into.push_back({t0, Clock::now(), static_cast<std::uint64_t>(s.pairs)});
      }
    };
    pairs(mine, out.local_pairs);
    pairs(theirs, out.remote_pairs);
    for (int b = 0; b < s.batches; ++b) {
      const auto t0 = Clock::now();
      for (int i = 0; i < s.threads; ++i) {
        hyperion::JThread t = main.start_thread("empty", [](hyperion::JavaEnv&) {});
        main.join(t);
      }
      out.threads.push_back({t0, Clock::now(), static_cast<std::uint64_t>(s.threads)});
    }
  });
  return out;
}

}  // namespace

std::vector<std::pair<std::string, double>> run_microbenches(const Workload& w, bool smoke,
                                                             const BatchSpan& span) {
  const Sizes s = sizes_for(smoke);
  cluster::ClusterParams params = w.points.front().cfg.cluster;
  params.fault = cluster::FaultProfile{};
  cluster::ClusterParams lossy = params;
  lossy.fault = cluster::FaultProfile::parse("drop1%,dup1%,seed=7");

  std::vector<std::pair<std::string, double>> out;
  const auto report = [&](const std::string& name, const Samples& samples) {
    double best = std::numeric_limits<double>::infinity();
    for (const Sample& x : samples) {
      span(name, x.start, x.end);
      const double ns = std::chrono::duration<double, std::nano>(x.end - x.start).count();
      best = std::min(best, ns / static_cast<double>(std::max<std::uint64_t>(1, x.ops)));
    }
    out.emplace_back(name, best);
  };

  report("sim.micro_ns_per_wakeup", engine_wakeups(w.nodes, s.events, 1, s.batches));
  report("sim.micro_ns_per_post", engine_posts(w.nodes, s.events, s.batches));
  report("sim.micro_ns_per_wakeup_sharded", engine_wakeups(256, s.events, 256, s.batches));
  report("cluster.micro_ns_per_call", cluster_calls(params, s.calls, s.batches));
  report("cluster.micro_ns_per_send_4k", cluster_sends(params, s.calls, s.batches));
  report("cluster.micro_ns_per_call_lossy", cluster_calls(lossy, s.calls / 2, s.batches));

  Samples invalidate;
  const auto per_policy = [&](auto policy) {
    using P = decltype(policy);
    const std::string tag = std::string(".") + P::kName;
    report("dsm.micro_ns_per_access" + tag, dsm_accesses<P>(params, s.accesses, s.batches));
    Samples fetch, inval;
    dsm_fetches<P>(params, s.pages, s.batches, fetch, inval);
    report("dsm.micro_ns_per_fetch" + tag, fetch);
    if constexpr (P::kKind == dsm::ProtocolKind::kJavaPf) invalidate = std::move(inval);
    report("dsm.micro_ns_per_flush_page" + tag, dsm_flushes<P>(params, s.pages, s.batches));
  };
  per_policy(dsm::IcPolicy{});
  per_policy(dsm::PfPolicy{});
  per_policy(dsm::HybridPolicy{});
  // java_pf is the protocol whose invalidation also re-protects twinned pages.
  report("dsm.micro_ns_per_invalidate_page", invalidate);

  const HyperionSamples h = hyperion_ops(params, s);
  report("hyperion.micro_ns_per_monitor_pair.local", h.local_pairs);
  report("hyperion.micro_ns_per_monitor_pair.remote", h.remote_pairs);
  report("hyperion.micro_ns_per_thread", h.threads);
  return out;
}

}  // namespace hyp::benchmark
