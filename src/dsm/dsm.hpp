// DsmSystem: the DSM-PM2-like distributed shared memory.
//
// Implements the home-based Java-consistency machinery shared by both
// protocols of the paper (§3.1) and the two remote-object-detection variants:
//
//   java_ic (§3.2) — get/put perform an explicit locality check on *every*
//     access (charged at CpuParams::check_cost); a miss fetches the page from
//     its home. No page protection is ever used. Modifications to non-home
//     pages are recorded field-by-field in a write log at put() time.
//
//   java_pf (§3.3) — accesses hit the local arena directly; absent pages
//     trip the (simulated) MMU: the miss charges the paper's measured page
//     fault cost plus an mprotect to open the page, and fetches it with a
//     twin (charged at fetch; its bytes are taken at the first local store).
//     updateMainMemory diffs cached pages against their twins and ships the
//     modified words home. Monitor entry re-protects everything with one
//     region-wide mprotect.
//
//   hybrid (docs/PROTOCOLS.md §hybrid) — picks the detection mode per page
//     online from windowed heat (obs::WindowedHeat): dense low-miss pages run
//     pf-style bare access, sparse scattered pages run ic-style checks. On
//     top of the same signals, homes migrate to a page's dominant remote
//     writer (heat-driven generalization of bench/ext_migration); stale-home
//     requests are NACKed and rerouted, reusing the HA machinery.
//
// One consistency engine runs all three (docs/PROTOCOLS.md §One engine):
// java_ic and java_pf are hybrid with every page pinned to ic or pf mode (no
// heat, no give-up, no migration), sharing its miss path, update pipeline
// and update handler. Only the access fast paths (dsm/access.hpp) stay
// specialized per protocol at compile time.
//
// One route reaches a home (docs/RECOVERY.md §Reaching a home): page
// fetches, update shipping and the monitors' remote operations all go
// through call_home, which alone handles reroutes after a migration or
// promotion, epoch fences, kNoQuorum parking and retry holds.
//
// Consistency actions (all protocols, per the paper):
//   monitor exit  -> updateMainMemory (modifications reach the home copies
//                    before the lock is released; each update is acked)
//   monitor entry -> updateMainMemory + invalidateCache (whole node cache)
// Flushing on entry as well as exit is slightly conservative but JMM-safe;
// see DESIGN.md §7.
#pragma once

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/ha_hooks.hpp"
#include "common/function.hpp"
#include "common/lazy_array.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "dsm/address.hpp"
#include "obs/heat.hpp"
#include "obs/race.hpp"
#include "dsm/flush_scratch.hpp"
#include "dsm/node_dsm.hpp"
#include "dsm/write_log.hpp"

namespace hyp::dsm {

enum class ProtocolKind { kJavaIc, kJavaPf, kHybrid };

const char* protocol_name(ProtocolKind kind);
ProtocolKind protocol_by_name(const std::string& name);

// RPC service ids used by the memory subsystem.
namespace svc {
inline constexpr cluster::ServiceId kPageRequest = 10;
inline constexpr cluster::ServiceId kUpdateFields = 11;  // write-log fields
inline constexpr cluster::ServiceId kUpdateRuns = 12;    // twin-diff runs
inline constexpr cluster::ServiceId kQuorumRead = 13;    // backup-served page read
}  // namespace svc

class DsmSystem;

// Per-Java-thread DSM context: the thread's node binding, its CPU clock, its
// write log (java_ic) and cached hot-path constants. Created by
// DsmSystem::make_thread and owned by the runtime's thread object.
struct ThreadCtx {
  DsmSystem* dsm = nullptr;
  NodeId node = -1;
  NodeDsm* nd = nullptr;
  std::byte* base = nullptr;  // nd->arena()
  // nd's presence table (one byte per page; see NodeDsm::kPresentBit). Cached
  // here so the get/put fast paths are a single indexed load + branch with no
  // NodeDsm indirection. Stable: the table never reallocates.
  const std::uint8_t* presence = nullptr;
  // layout().page_shift(), cached: the get/put fast paths compute the page
  // id with one shift instead of chasing dsm -> layout.
  unsigned page_shift = 0;
  // hybrid only: obs::WindowedHeat::byte_shift(), cached: page p's slot of
  // this node lies p << awin_shift bytes past awin.
  unsigned awin_shift = 0;
  // hybrid only: the node's base in the windowed heat table (one page-major
  // table for every node, obs::WindowedHeat), whose raw access tallies the
  // hybrid fast paths bump unconditionally (host cost only) and the miss cold
  // path folds into the decayed window. nullptr under java_ic/java_pf, whose
  // policies never touch it.
  obs::WindowedHeat::Slot* awin = nullptr;
  // hybrid only: once a present ic-mode page has served this many accesses
  // since its last window fold, the fast path gives up on ic mid-generation
  // (DsmSystem::give_up_ic) instead of waiting for a miss that may never
  // come. Equals the ic/pf break-even R, so the escape costs at most one
  // fault-equivalent of checks. Zero under java_ic/java_pf.
  std::uint64_t ic_giveup = 0;
  std::uint64_t uid = 0;  // unique thread id (monitor ownership)
  cluster::CpuClock clock;
  Time check_cost = 0;  // CpuParams::check_cost(), cached
  WriteLog wlog;
  FlushScratch scratch;    // reusable updateMainMemory state (host-perf only)
  Stats* stats = nullptr;  // the node's stats (single-threaded simulation)
  // Race-detector attachment (nullptr = off; docs/RACES.md). The access fast
  // paths test this one pointer and hand (race_tid, addr, size) to the
  // detector, which only accumulates — virtual time is unperturbed.
  obs::RaceDetector* race = nullptr;
  std::uint64_t race_tid = 0;  // == uid; cached for the hook call

  explicit ThreadCtx(const cluster::CpuParams* cpu) : clock(cpu) {}
  // Deregisters from the DsmSystem thread registry (see make_thread).
  ~ThreadCtx();

  void charge_cycles(std::uint64_t n) { clock.charge_cycles(n); }
  // hybrid only: this node's heat slot of page p, one shift from awin.
  obs::WindowedHeat::Slot& heat(PageId p) const {
    return *reinterpret_cast<obs::WindowedHeat::Slot*>(reinterpret_cast<std::byte*>(awin) +
                                                       (std::size_t{p} << awin_shift));
  }
};

class DsmSystem {
 public:
  // `region_bytes` is the size of the shared space (split into one
  // allocation zone per node). Page size comes from the cluster params.
  DsmSystem(cluster::Cluster* cluster, std::size_t region_bytes, ProtocolKind kind);

  const Layout& layout() const { return layout_; }
  ProtocolKind kind() const { return kind_; }
  cluster::Cluster& cluster() { return *cluster_; }
  NodeDsm& node_dsm(NodeId n) { return *nodes_[static_cast<std::size_t>(n)]; }

  // Allocates `bytes` in `node`'s zone; that node becomes the home.
  Gva alloc(NodeId node, std::size_t bytes, std::size_t align = 8);

  std::unique_ptr<ThreadCtx> make_thread(NodeId node);

  // --- Table 2 primitives -------------------------------------------------
  // (get/put are the templated fast paths in dsm/access.hpp)

  // Ensures the page holding `addr` is present locally (prefetch semantics;
  // charges transfer costs but no detection cost).
  void load_into_cache(ThreadCtx& t, Gva addr);

  // Drops every cached page on the thread's node.
  void invalidate_cache(ThreadCtx& t);

  // Ships all local modifications to the home nodes and waits for acks.
  void update_main_memory(ThreadCtx& t);

  // --- consistency hooks wired to monitors (DSM-PM2 lock hooks) -----------
  void on_acquire(ThreadCtx& t);  // flush, then invalidate
  void on_release(ThreadCtx& t);  // flush

  // --- protocol cold paths (called from the access policies) --------------
  // Brings absent page `p` in: a pf-mode miss pays the fault and the
  // reopening mprotect; under hybrid the page's mode is re-decided here.
  void miss(ThreadCtx& t, PageId p);
  // Mid-generation ic escape (hybrid): flips a present ic-mode page to pf
  // once its raw access tally proves the generation dense (see
  // ThreadCtx::ic_giveup). Never yields — safe to call from the access fast
  // paths between the presence load and the data access.
  void give_up_ic(ThreadCtx& t, PageId p);

  // --- the one home move (docs/PROTOCOLS.md §One engine) ------------------
  // Makes `to` the home of pages [first, last), all in one zone, with
  // `from`'s bytes below the zone's allocation mark, keeping `to`'s own
  // unflushed stores byte for byte (a twinned replica's bytes that differ
  // from its twin, then its threads' logged stores), and fires the
  // home-moved hook. Migration, its revert and the HA promotion all move
  // homes through it; the caller owns the routing change and the costs.
  void hand_off(PageId first, PageId last, NodeId from, NodeId to);
  // Installed by the runtime so co-located state (monitor tables) moves with
  // every home move: hand_off calls it as (old_home, new_home, gva_begin,
  // gva_end).
  using HomeMovedHook = std::function<void(NodeId, NodeId, Gva, Gva)>;
  void set_home_moved_hook(HomeMovedHook hook) { home_moved_ = std::move(hook); }

  // --- hybrid home migration (docs/PROTOCOLS.md §hybrid) -------------------
  // True when the heat-driven migration policy is live (hybrid protocol);
  // home resolution then consults the per-page override table and every home
  // handler NACKs requests for pages it no longer serves.
  bool migrations_enabled() const { return kind_ == ProtocolKind::kHybrid; }
  // Clears migration overrides targeting a node the HA detector just
  // confirmed dead, re-realizing each such page at its fallback home (the
  // same global-metadata idealization as the HA promotion path). Called by
  // HaManager::confirm_death before zone failover.
  void on_node_dead(NodeId dead);
  std::uint64_t home_migrations() const { return home_migrations_; }
  // The node's base in hybrid's heat table: thread migration rebinds
  // ThreadCtx::awin to the destination node's base.
  obs::WindowedHeat::Slot* access_window(NodeId node) { return wheat_.slots(node); }
  // The whole table, every node's slots (read-only).
  const obs::WindowedHeat& access_heat() const { return wheat_; }

  // --- high availability (optional; nullptr = off, docs/RECOVERY.md) -------
  // With hooks installed, home resolution goes through the HA routing table
  // (a promotion moves a dead node's zone to its backup), stale-home
  // requests are NACKed instead of tripping is_home asserts, call_home
  // re-resolves the home per attempt, and flushes whose effective home is
  // the local node (post-promotion) apply directly. The monitors read both
  // settings from here.
  void set_ha(cluster::HaHooks* ha) {
    ha_ = ha;
    // Epoch fencing tokens ride the DSM and monitor wire formats only when
    // the profile schedules partitions — crash-only runs keep the goldens'
    // exact shapes.
    fencing_ = ha != nullptr && !cluster_->params().fault.partitions.empty();
  }
  cluster::HaHooks* ha() const { return ha_; }
  bool fencing() const { return fencing_; }

  // --- the one route to a home (docs/RECOVERY.md §Reaching a home) ---------
  // Page fetches, both update services and every remote monitor operation
  // are requests to the home of one page, which a migration, promotion or
  // partition may move while the request is in flight. call_home alone
  // decides how to reach it: a typed transport failure is re-issued up to
  // kRpcAttempts times per target; a reply that is not `ok_body_bytes` long
  // (+8, the home's epoch, under fencing) is a stale-home NACK, answered by
  // resending to the re-resolved home of `route_page`. Only under HA does it
  // also re-resolve before every attempt (a move counts as a reroute),
  // discard fenced replies, park on kNoQuorum and hold for
  // HaHooks::retry_hold and FaultProfile::partition_release.
  //
  // `target` is where the first attempt goes; on return, the home that
  // answered. `build(epoch)` makes each attempt's payload, putting in
  // `epoch` (the caller's view) under fencing(). Returns the reply body
  // without the epoch. With `nack_to_caller` a NACK without HA comes back as
  // received instead (the update pipeline re-keys its cohorts first).
  using BuildPayload = FunctionRef<Buffer(std::uint64_t epoch)>;
  Buffer call_home(ThreadCtx& t, NodeId& target, PageId route_page, cluster::ServiceId service,
                   std::size_t ok_body_bytes, BuildPayload build, const char* what,
                   bool nack_to_caller = false);
  // The home side of the route. fenced(): under fencing, reads the request's
  // epoch token and, when it predates `self`'s view, refuses the request
  // (counted, traced and NACKed) before it can touch home state; returns
  // true when it did. nack_stale_home(): traces and sends the NACK of a home
  // that no longer serves the request's page. A NACK is a reply no success
  // of `ok_body_bytes` can be: empty, or one byte when success is empty.
  // stamped_reply(): a success reply's head, `self`'s epoch view under
  // fencing (empty otherwise), for the handler to append its body to.
  bool fenced(cluster::Incoming& in, NodeId self, cluster::ServiceId service,
              std::size_t ok_body_bytes);
  void nack_stale_home(cluster::Incoming& in, NodeId self, cluster::ServiceId service,
                       std::size_t ok_body_bytes);
  Buffer stamped_reply(NodeId self) const;

  // Effective home of a page: a live migration override wins; otherwise the
  // layout's static zone owner, redirected by the HA routing table after a
  // promotion. The override table is only mapped under hybrid, so the extra
  // test costs one empty() check for the paper protocols.
  NodeId effective_home_of_page(PageId p) const {
    if (!home_override_.empty()) {
      const NodeId o = home_override_[p];
      if (o != 0) return o - 1;
    }
    const NodeId zone = layout_.home_of_page(p);
    return ha_ == nullptr ? zone : ha_->home_node(zone);
  }
  NodeId effective_home_of(Gva a) const { return effective_home_of_page(layout_.page_of(a)); }
  // Allocation mark of `zone` (its owner's bump pointer, wherever the zone is
  // homed): it only grows, and the bytes past it are zero in every arena, so
  // replica installs and HA failover copy only what lies below it.
  Gva alloc_mark(NodeId zone) const {
    return layout_.zone_begin(zone) + nodes_[static_cast<std::size_t>(zone)]->allocated_bytes();
  }
  // ThreadCtx destructor hook (threads deregister from the replay registry).
  void unregister_thread(ThreadCtx* t);

  // --- page-heat attachment (optional; nullptr = off) ----------------------
  // Same discipline as Cluster::set_trace: one pointer test when detached;
  // when attached, record_*() is pure accumulation (obs/heat.hpp) so virtual
  // time is unperturbed. The caller owns the table and should init() it for
  // layout().total_pages() before attaching.
  void set_heat(obs::PageHeatTable* heat) { heat_ = heat; }
  obs::PageHeatTable* heat() { return heat_; }

  // --- race-detector attachment (optional; nullptr = off) ------------------
  // Attached threads get their ThreadCtx::race pointer set by make_thread;
  // alloc() reports allocation sites for report attribution. Attach before
  // creating threads (docs/RACES.md).
  void set_race(obs::RaceDetector* race) { race_ = race; }
  obs::RaceDetector* race() { return race_; }

  // --- direct home-copy access (initialization and tests) -----------------
  // Effective-home aware: after a promotion the reference copy lives in the
  // backup's arena (identical to the static layout home when HA is off).
  template <typename T>
  T read_home(Gva a) const {
    const NodeId home = effective_home_of(a);
    T v;
    std::memcpy(&v, nodes_[static_cast<std::size_t>(home)]->arena() + a, sizeof(T));
    return v;
  }
  template <typename T>
  void poke_home(Gva a, T v) {
    const NodeId home = effective_home_of(a);
    std::memcpy(nodes_[static_cast<std::size_t>(home)]->arena() + a, &v, sizeof(T));
  }

 private:
  // Transfers one page from its home into t's arena (no detection costs).
  void fetch_page(ThreadCtx& t, PageId p);
  // Loops fetch_page until `p` is present and attributes the elapsed virtual
  // time to Hist::kPageFetchLatency and Phase::kBlockedFetch (observation
  // only: the waits themselves are unchanged).
  void fetch_until_present(ThreadCtx& t, PageId p);
  // Detection mode of non-home page `p`: ic under java_ic, pf under java_pf,
  // under hybrid ic unless the presence byte has kPfModeBit (a fresh byte is
  // 0: hybrid's ic start costs no set-up sweep).
  bool ic_mode(const NodeDsm& nd, PageId p) const {
    return kind_ == ProtocolKind::kJavaIc || (kind_ == ProtocolKind::kHybrid && nd.ic_mode(p));
  }

  // --- the update pipeline (docs/PROTOCOLS.md §One engine) -----------------
  // Cohort key of a pending update; one message ships one cohort.
  //   kHome — the effective home at collect (java_ic/java_pf without chain
  //           replicas, whose zones on one node always move together;
  //           hybrid without HA, re-keyed when a home migrates);
  //   kZone — the layout owner (java_ic/java_pf with replicas > 1: two zones
  //           on one node today may be re-elected to different nodes);
  //   kPage — the page (hybrid under HA, so call_home's per-attempt
  //           re-resolution converges on a single moving page).
  // Zone and page cohorts resolve their home per send.
  enum class CohortKey { kHome, kZone, kPage };
  CohortKey cohort_rule() const;
  std::uint32_t cohort_key(CohortKey rule, Gva a) const;
  // Ships the runs or fields lane of t.scratch, one cohort per message, in
  // ascending key order (java_ic/java_pf) or first-touch order (hybrid).
  // `keyed_at` is the home-migration count the lane's keys were taken at.
  void ship(ThreadCtx& t, CohortKey rule, bool runs, std::uint64_t keyed_at);
  // Bound on consecutive stale-home NACKs of one cohort (a delivered cohort
  // resets it), and on call_home's attempts for one request.
  static constexpr int kMaxReroutes = 64;

  // --- hybrid mode switching + home migration ------------------------------
  // Epoch lengths are virtual-time constants (decisions stay byte-identical
  // for a given seed): the mode window halves per kModeEpoch; migration
  // dominance is judged over closed kMigEpoch windows.
  static constexpr Time kModeEpoch = 1 * kMillisecond;
  static constexpr Time kMigEpoch = 5 * kMillisecond;
  static constexpr int kMigStreak = 2;           // consecutive dominated epochs
  static constexpr std::uint64_t kMigMinBytes = 64;  // per epoch, per page
  // Per-page dominant-writer tracker (home side). Boyer–Moore voting weighted
  // by update bytes within an epoch; a page becomes a migration candidate
  // after kMigStreak consecutive closed epochs dominated by the same remote
  // node with a clear byte majority. Node ids are stored plus one, so the
  // all-zero entry of a fresh LazyArray is the fresh tracker.
  struct MigStat {
    std::uint64_t epoch = 0;   // epoch the open window belongs to
    NodeId cand = 0;           // Boyer–Moore survivor of the open window + 1
    std::int64_t weight = 0;   // survivor margin (bytes)
    std::uint64_t total = 0;   // total remote update bytes in the window
    NodeId last_dom = 0;       // dominator of the last closed window + 1
    int streak = 0;            // consecutive closed windows won by last_dom
  };
  // Feeds `bytes` written by remote node `from` into page `p`'s tracker and
  // migrates the page's home to a sustained dominant writer (see .cpp).
  void note_remote_update(NodeId self, PageId p, NodeId from, std::uint64_t bytes);
  void maybe_migrate(NodeId self, PageId p, NodeId target);
  // Replays the pending (unflushed) write-log entries of every live thread
  // bound to `node` whose address falls in [begin, end) into that node's
  // arena: a hand-off realizing the old home's bytes there must not clobber
  // those threads' own logged stores (read-own-writes inside a synchronized
  // block).
  void replay_logged_writes(NodeId node, Gva begin, Gva end);

  void handle_page_request(cluster::Incoming& in, NodeId self);
  // Services kUpdateFields (write-log fields) and kUpdateRuns (diff runs).
  void handle_update(cluster::Incoming& in, NodeId self, bool runs);
  void handle_quorum_read(cluster::Incoming& in, NodeId self);

  // Quorum read from the chain backups while `home` is suspected but not yet
  // confirmed dead (docs/PARTITIONS.md): succeeds iff a strict majority of
  // the K backups is alive and reachable, serving the page from the first
  // such backup's mirror. Returns false (caller falls back to the normal,
  // possibly parking path) when no quorum is available.
  bool try_quorum_read(ThreadCtx& t, PageId p, NodeId home, Buffer* out);

  // call_home's attempts per target on typed transport failure. Every home
  // request is idempotent — page reads obviously, updates because
  // re-applying the same bytes is a no-op, monitor ops through their op ids
  // — so a failed call is simply reissued; then the run aborts with the
  // transport's diagnostic naming the peer node and service (docs/FAULTS.md).
  static constexpr int kRpcAttempts = 3;

  cluster::Cluster* cluster_;
  Layout layout_;
  ProtocolKind kind_;
  std::vector<std::unique_ptr<NodeDsm>> nodes_;
  std::uint64_t next_thread_uid_ = 1;
  // Live-thread registry (registered by make_thread, removed by ~ThreadCtx);
  // consulted only by the hand-off's write-log replay.
  std::vector<ThreadCtx*> threads_;
  obs::PageHeatTable* heat_ = nullptr;
  obs::RaceDetector* race_ = nullptr;
  cluster::HaHooks* ha_ = nullptr;
  bool fencing_ = false;  // epoch tokens on the wire (partitions configured)

  // --- hybrid-only state (all tables empty under java_ic/java_pf) ----------
  // Lazily committed, and an all-zero entry is the fresh state, so building
  // a hybrid system writes none of them.
  obs::WindowedHeat wheat_;          // every node's heat, page-major
  LazyArray<NodeId> home_override_;  // per page; the new home + 1, 0 = none
  LazyArray<MigStat> mig_;           // per page, tracked at the serving home
  // Reusable per-message (page, bytes) subtotals for the update handlers
  // (single-threaded simulation; cleared before each use).
  std::vector<std::pair<PageId, std::uint64_t>> mig_batch_;
  Time hybrid_r_ = 0;  // mode break-even: (fault + mprotect) / check cost
  std::uint64_t home_migrations_ = 0;
  HomeMovedHook home_moved_;
};

}  // namespace hyp::dsm
