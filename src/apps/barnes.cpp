#include "apps/barnes.hpp"

#include <cmath>
#include <limits>
#include <string>

#include "common/rng.hpp"

namespace hyp::apps {

BarnesBodies barnes_make_bodies(int n, std::uint64_t seed) {
  Rng rng(seed);
  BarnesBodies b;
  auto resize = [&](auto& v) { v.resize(static_cast<std::size_t>(n)); };
  resize(b.mass);
  resize(b.px);
  resize(b.py);
  resize(b.pz);
  resize(b.vx);
  resize(b.vy);
  resize(b.vz);
  for (int i = 0; i < n; ++i) {
    b.mass[static_cast<std::size_t>(i)] = 1.0 / n;
    // Uniform ball of radius 1 (rejection), small random velocities.
    double x, y, z;
    do {
      x = 2 * rng.uniform() - 1;
      y = 2 * rng.uniform() - 1;
      z = 2 * rng.uniform() - 1;
    } while (x * x + y * y + z * z > 1.0);
    b.px[static_cast<std::size_t>(i)] = x;
    b.py[static_cast<std::size_t>(i)] = y;
    b.pz[static_cast<std::size_t>(i)] = z;
    b.vx[static_cast<std::size_t>(i)] = 0.1 * (2 * rng.uniform() - 1);
    b.vy[static_cast<std::size_t>(i)] = 0.1 * (2 * rng.uniform() - 1);
    b.vz[static_cast<std::size_t>(i)] = 0.1 * (2 * rng.uniform() - 1);
  }
  return b;
}

namespace {

// Octree child encoding: >= 0 subcell id, kEmptySlot, or encoded body.
constexpr std::int32_t kEmptySlot = -1;
constexpr std::int32_t encode_body(int b) { return -2 - b; }
constexpr int decode_body(std::int32_t c) { return -2 - c; }
constexpr bool is_body(std::int32_t c) { return c <= -2; }

int octant_of(double cx, double cy, double cz, double x, double y, double z) {
  return (x >= cx ? 1 : 0) | (y >= cy ? 2 : 0) | (z >= cz ? 4 : 0);
}

// Child-cell center offset for an octant.
void child_center(int oct, double half, double& cx, double& cy, double& cz) {
  const double q = half / 2;
  cx += (oct & 1) ? q : -q;
  cy += (oct & 2) ? q : -q;
  cz += (oct & 4) ? q : -q;
}

struct Blocks {
  int n, workers;
  int start(int w) const { return barnes_block_start(n, workers, w); }
  int owner(int b) const {
    HYP_DCHECK(b >= 0 && b < n);
    return barnes_body_owner(n, workers, b);
  }
};

// ---------------------------------------------------------------------------
// Parallel implementation

template <typename P>
struct BarnesShared {
  // Per-worker body block handles (Java: arrays of arrays).
  GArray<std::uint64_t> tbl_mass, tbl_px, tbl_py, tbl_pz, tbl_vx, tbl_vy, tbl_vz, tbl_ax,
      tbl_ay, tbl_az;
  // Tree arrays (homed on node 0).
  GArray<std::int32_t> child;            // 8 per cell
  GArray<double> cx, cy, cz, half;       // cell geometry
  GArray<double> cmass, comx, comy, comz;  // mass moments
  GRef<std::int32_t> ncells;
  // Bounding box + work queue + reduction.
  GRef<double> bb_min_x, bb_min_y, bb_min_z, bb_max_x, bb_max_y, bb_max_z;
  GRef<std::int32_t> next_chunk;
  GRef<double> checksum;
  std::int32_t max_cells = 0;
};

// Body-array access through the handle tables, as compiled Java would
// dereference bodies[<owner>].px[<offset>].
template <typename P>
struct BodyAccess {
  Mem<P>& mem;
  const BarnesShared<P>& sh;
  Blocks blocks;

  double mass(int b) const { return field(sh.tbl_mass, b); }
  double px(int b) const { return field(sh.tbl_px, b); }
  double py(int b) const { return field(sh.tbl_py, b); }
  double pz(int b) const { return field(sh.tbl_pz, b); }

  double field(const GArray<std::uint64_t>& tbl, int b) const {
    const int w = blocks.owner(b);
    GArray<double> block{mem.aget(tbl, w)};
    return mem.aget(block, b - blocks.start(w));
  }
};

template <typename P>
struct TreeOps {
  JavaEnv& env;
  Mem<P>& mem;
  BarnesShared<P>& sh;
  BodyAccess<P>& bodies;
  const BarnesParams& params;

  std::int32_t new_cell(double x, double y, double z, double h) {
    const std::int32_t id = mem.get(sh.ncells);
    HYP_CHECK_MSG(id < sh.max_cells, "octree cell pool exhausted");
    mem.put(sh.ncells, id + 1);
    for (int oct = 0; oct < 8; ++oct) mem.aput(sh.child, id * 8 + oct, kEmptySlot);
    mem.aput(sh.cx, id, x);
    mem.aput(sh.cy, id, y);
    mem.aput(sh.cz, id, z);
    mem.aput(sh.half, id, h);
    env.charge_cycles(kBarnesInterCycles);
    return id;
  }

  void insert(int b) {
    const double x = bodies.px(b), y = bodies.py(b), z = bodies.pz(b);
    std::int32_t cur = 0;
    int depth = 0;
    for (;;) {
      HYP_CHECK_MSG(++depth < 128, "octree insertion too deep (coincident bodies?)");
      const double ccx = mem.aget(sh.cx, cur), ccy = mem.aget(sh.cy, cur),
                   ccz = mem.aget(sh.cz, cur);
      const double h = mem.aget(sh.half, cur);
      const int oct = octant_of(ccx, ccy, ccz, x, y, z);
      const std::int32_t slot = mem.aget(sh.child, cur * 8 + oct);
      env.charge_cycles(kBarnesInterCycles / 2);
      if (slot == kEmptySlot) {
        mem.aput(sh.child, cur * 8 + oct, encode_body(b));
        return;
      }
      if (is_body(slot)) {
        // Split: push the resident body one level down, retry from the new
        // subcell.
        const int b2 = decode_body(slot);
        double nx = ccx, ny = ccy, nz = ccz;
        child_center(oct, h, nx, ny, nz);
        const std::int32_t sub = new_cell(nx, ny, nz, h / 2);
        const int oct2 = octant_of(nx, ny, nz, bodies.px(b2), bodies.py(b2), bodies.pz(b2));
        mem.aput(sh.child, sub * 8 + oct2, encode_body(b2));
        mem.aput(sh.child, cur * 8 + oct, sub);
        cur = sub;
        continue;
      }
      cur = slot;  // descend into the subcell
    }
  }

  void compute_moments(std::int32_t cell) {
    double m = 0, sx = 0, sy = 0, sz = 0;
    for (int oct = 0; oct < 8; ++oct) {
      const std::int32_t slot = mem.aget(sh.child, cell * 8 + oct);
      if (slot == kEmptySlot) continue;
      if (is_body(slot)) {
        const int b = decode_body(slot);
        const double bm = bodies.mass(b);
        m += bm;
        sx += bm * bodies.px(b);
        sy += bm * bodies.py(b);
        sz += bm * bodies.pz(b);
      } else {
        compute_moments(slot);
        const double cm = mem.aget(sh.cmass, slot);
        m += cm;
        sx += cm * mem.aget(sh.comx, slot);
        sy += cm * mem.aget(sh.comy, slot);
        sz += cm * mem.aget(sh.comz, slot);
      }
      env.charge_cycles(kBarnesInterCycles / 2);
    }
    mem.aput(sh.cmass, cell, m);
    mem.aput(sh.comx, cell, m != 0 ? sx / m : 0);
    mem.aput(sh.comy, cell, m != 0 ? sy / m : 0);
    mem.aput(sh.comz, cell, m != 0 ? sz / m : 0);
  }

  void accumulate_force(int b, std::int32_t cell, double x, double y, double z, double& ax,
                        double& ay, double& az) {
    const double theta2 = params.theta * params.theta;
    for (int oct = 0; oct < 8; ++oct) {
      const std::int32_t slot = mem.aget(sh.child, cell * 8 + oct);
      if (slot == kEmptySlot) continue;
      if (is_body(slot)) {
        const int b2 = decode_body(slot);
        if (b2 == b) continue;
        interact(bodies.mass(b2), bodies.px(b2), bodies.py(b2), bodies.pz(b2), x, y, z, ax, ay,
                 az);
      } else {
        const double dx = mem.aget(sh.comx, slot) - x;
        const double dy = mem.aget(sh.comy, slot) - y;
        const double dz = mem.aget(sh.comz, slot) - z;
        const double d2 = dx * dx + dy * dy + dz * dz;
        const double size = 2 * mem.aget(sh.half, slot);
        if (size * size < theta2 * d2) {
          interact(mem.aget(sh.cmass, slot), mem.aget(sh.comx, slot), mem.aget(sh.comy, slot),
                   mem.aget(sh.comz, slot), x, y, z, ax, ay, az);
        } else {
          accumulate_force(b, slot, x, y, z, ax, ay, az);
        }
      }
    }
  }

  void interact(double m, double ox, double oy, double oz, double x, double y, double z,
                double& ax, double& ay, double& az) {
    const double dx = ox - x, dy = oy - y, dz = oz - z;
    const double d2 = dx * dx + dy * dy + dz * dz + params.eps * params.eps;
    const double inv = 1.0 / std::sqrt(d2);
    const double f = m * inv * inv * inv;
    ax += f * dx;
    ay += f * dy;
    az += f * dz;
    env.charge_cycles(kBarnesInterCycles);
  }
};

template <typename P>
double run(hyperion::HyperionVM& vm, const BarnesParams& params) {
  double checksum = 0;
  vm.run_main([&](JavaEnv& main) {
    const int n = params.bodies;
    const int workers = vm.nodes();
    HYP_CHECK_MSG(n >= workers, "fewer bodies than nodes");
    const auto init = barnes_make_bodies(n, params.seed);
    const Blocks blocks{n, workers};

    BarnesShared<P> sh;
    sh.max_cells = 8 * n + 256;
    auto tbl = [&] { return main.new_array<std::uint64_t>(workers); };
    sh.tbl_mass = tbl();
    sh.tbl_px = tbl();
    sh.tbl_py = tbl();
    sh.tbl_pz = tbl();
    sh.tbl_vx = tbl();
    sh.tbl_vy = tbl();
    sh.tbl_vz = tbl();
    sh.tbl_ax = tbl();
    sh.tbl_ay = tbl();
    sh.tbl_az = tbl();
    sh.child = main.new_array<std::int32_t>(static_cast<std::int64_t>(sh.max_cells) * 8);
    sh.cx = main.new_array<double>(sh.max_cells);
    sh.cy = main.new_array<double>(sh.max_cells);
    sh.cz = main.new_array<double>(sh.max_cells);
    sh.half = main.new_array<double>(sh.max_cells);
    sh.cmass = main.new_array<double>(sh.max_cells);
    sh.comx = main.new_array<double>(sh.max_cells);
    sh.comy = main.new_array<double>(sh.max_cells);
    sh.comz = main.new_array<double>(sh.max_cells);
    sh.ncells = main.new_cell<std::int32_t>(0);
    sh.bb_min_x = main.new_cell<double>(0);
    sh.bb_min_y = main.new_cell<double>(0);
    sh.bb_min_z = main.new_cell<double>(0);
    sh.bb_max_x = main.new_cell<double>(0);
    sh.bb_max_y = main.new_cell<double>(0);
    sh.bb_max_z = main.new_cell<double>(0);
    sh.next_chunk = main.new_cell<std::int32_t>(0);
    sh.checksum = main.new_cell<double>(0);

    auto barrier = hyperion::japi::JBarrier::create(main, workers);

    std::vector<JThread> threads;
    for (int w = 0; w < workers; ++w) {
      threads.push_back(main.start_thread("barnes" + std::to_string(w), [=, &init](JavaEnv& env) {
        Mem<P> mem(env.ctx());
        BodyAccess<P> bodies{mem, sh, blocks};
        BarnesShared<P> shared = sh;  // local copy of the handle struct
        TreeOps<P> tree{env, mem, shared, bodies, params};
        const int lo = blocks.start(w);
        const int hi = blocks.start(w + 1);
        const int count = hi - lo;

        // Init: allocate and fill the owned block (home = this node).
        auto blk = [&] { return env.new_array<double>(count); };
        GArray<double> b_mass = blk(), b_px = blk(), b_py = blk(), b_pz = blk(), b_vx = blk(),
                       b_vy = blk(), b_vz = blk(), b_ax = blk(), b_ay = blk(), b_az = blk();
        for (int i = 0; i < count; ++i) {
          const auto g = static_cast<std::size_t>(lo + i);
          mem.aput(b_mass, i, init.mass[g]);
          mem.aput(b_px, i, init.px[g]);
          mem.aput(b_py, i, init.py[g]);
          mem.aput(b_pz, i, init.pz[g]);
          mem.aput(b_vx, i, init.vx[g]);
          mem.aput(b_vy, i, init.vy[g]);
          mem.aput(b_vz, i, init.vz[g]);
          env.charge_cycles(20);
        }
        env.synchronized(sh.tbl_mass.header, [&] {
          mem.aput(sh.tbl_mass, w, b_mass.header);
          mem.aput(sh.tbl_px, w, b_px.header);
          mem.aput(sh.tbl_py, w, b_py.header);
          mem.aput(sh.tbl_pz, w, b_pz.header);
          mem.aput(sh.tbl_vx, w, b_vx.header);
          mem.aput(sh.tbl_vy, w, b_vy.header);
          mem.aput(sh.tbl_vz, w, b_vz.header);
          mem.aput(sh.tbl_ax, w, b_ax.header);
          mem.aput(sh.tbl_ay, w, b_ay.header);
          mem.aput(sh.tbl_az, w, b_az.header);
        });
        barrier.template await<P>(env);

        const int chunk_count = (n + params.chunk - 1) / params.chunk;
        for (int step = 0; step < params.steps; ++step) {
          // Phase 1 (worker 0): reset box + queue.
          if (w == 0) {
            env.synchronized(sh.bb_min_x.addr, [&] {
              const double inf = std::numeric_limits<double>::infinity();
              mem.put(sh.bb_min_x, inf);
              mem.put(sh.bb_min_y, inf);
              mem.put(sh.bb_min_z, inf);
              mem.put(sh.bb_max_x, -inf);
              mem.put(sh.bb_max_y, -inf);
              mem.put(sh.bb_max_z, -inf);
            });
            env.synchronized(sh.next_chunk.addr, [&] { mem.put(sh.next_chunk, 0); });
          }
          barrier.template await<P>(env);

          // Phase 2: bounding box over the owned block, monitor merge.
          {
            double mnx = std::numeric_limits<double>::infinity(), mny = mnx, mnz = mnx;
            double mxx = -mnx, mxy = -mnx, mxz = -mnx;
            for (int i = 0; i < count; ++i) {
              const double x = mem.aget(b_px, i), y = mem.aget(b_py, i), z = mem.aget(b_pz, i);
              mnx = std::min(mnx, x);
              mny = std::min(mny, y);
              mnz = std::min(mnz, z);
              mxx = std::max(mxx, x);
              mxy = std::max(mxy, y);
              mxz = std::max(mxz, z);
              env.charge_cycles(12);
            }
            env.synchronized(sh.bb_min_x.addr, [&] {
              mem.put(sh.bb_min_x, std::min(mem.get(sh.bb_min_x), mnx));
              mem.put(sh.bb_min_y, std::min(mem.get(sh.bb_min_y), mny));
              mem.put(sh.bb_min_z, std::min(mem.get(sh.bb_min_z), mnz));
              mem.put(sh.bb_max_x, std::max(mem.get(sh.bb_max_x), mxx));
              mem.put(sh.bb_max_y, std::max(mem.get(sh.bb_max_y), mxy));
              mem.put(sh.bb_max_z, std::max(mem.get(sh.bb_max_z), mxz));
            });
          }
          barrier.template await<P>(env);

          // Phase 3 (worker 0): build the shared octree.
          if (w == 0) {
            const double mnx = mem.get(sh.bb_min_x), mny = mem.get(sh.bb_min_y),
                         mnz = mem.get(sh.bb_min_z);
            const double mxx = mem.get(sh.bb_max_x), mxy = mem.get(sh.bb_max_y),
                         mxz = mem.get(sh.bb_max_z);
            const double cxm = 0.5 * (mnx + mxx), cym = 0.5 * (mny + mxy),
                         czm = 0.5 * (mnz + mxz);
            double h = 0.5 * std::max({mxx - mnx, mxy - mny, mxz - mnz});
            h = h * 1.0001 + 1e-9;
            mem.put(sh.ncells, 0);
            tree.new_cell(cxm, cym, czm, h);
            for (int b = 0; b < n; ++b) tree.insert(b);
            tree.compute_moments(0);
          }
          barrier.template await<P>(env);

          // Phase 4: forces, dynamically load balanced via the central queue.
          for (;;) {
            std::int32_t c = -1;
            env.synchronized(sh.next_chunk.addr, [&] {
              const std::int32_t idx = mem.get(sh.next_chunk);
              if (idx < chunk_count) {
                mem.put(sh.next_chunk, idx + 1);
                c = idx;
              }
            });
            if (c < 0) break;
            const int b_lo = c * params.chunk;
            const int b_hi = std::min(n, b_lo + params.chunk);
            for (int b = b_lo; b < b_hi; ++b) {
              const double x = bodies.px(b), y = bodies.py(b), z = bodies.pz(b);
              double ax = 0, ay = 0, az = 0;
              tree.accumulate_force(b, 0, x, y, z, ax, ay, az);
              const int ow = blocks.owner(b);
              GArray<double> oax{mem.aget(sh.tbl_ax, ow)};
              GArray<double> oay{mem.aget(sh.tbl_ay, ow)};
              GArray<double> oaz{mem.aget(sh.tbl_az, ow)};
              const int off = b - blocks.start(ow);
              mem.aput(oax, off, ax);
              mem.aput(oay, off, ay);
              mem.aput(oaz, off, az);
            }
          }
          barrier.template await<P>(env);

          // Phase 5: integrate the owned block.
          for (int i = 0; i < count; ++i) {
            const double vx = mem.aget(b_vx, i) + params.dt * mem.aget(b_ax, i);
            const double vy = mem.aget(b_vy, i) + params.dt * mem.aget(b_ay, i);
            const double vz = mem.aget(b_vz, i) + params.dt * mem.aget(b_az, i);
            mem.aput(b_vx, i, vx);
            mem.aput(b_vy, i, vy);
            mem.aput(b_vz, i, vz);
            mem.aput(b_px, i, mem.aget(b_px, i) + params.dt * vx);
            mem.aput(b_py, i, mem.aget(b_py, i) + params.dt * vy);
            mem.aput(b_pz, i, mem.aget(b_pz, i) + params.dt * vz);
            env.charge_cycles(30);
          }
          barrier.template await<P>(env);
        }

        // Checksum of the owned block.
        double local = 0;
        for (int i = 0; i < count; ++i) {
          local += mem.aget(b_px, i) + mem.aget(b_py, i) + mem.aget(b_pz, i);
          env.charge_cycles(6);
        }
        env.synchronized(sh.checksum.addr,
                         [&] { mem.put(sh.checksum, mem.get(sh.checksum) + local); });
      }));
    }
    for (auto& t : threads) main.join(t);
    Mem<P> mem(main.ctx());
    checksum = mem.get(sh.checksum);
  });
  return checksum;
}

// ---------------------------------------------------------------------------
// Serial reference: the identical algorithm on plain vectors, with identical
// arithmetic and traversal order, so per-body values match bit for bit.

struct SerialBarnes {
  const BarnesParams& params;
  BarnesBodies b;
  int n;
  std::vector<std::int32_t> child;
  std::vector<double> cx, cy, cz, half, cmass, comx, comy, comz;
  std::int32_t ncells = 0;
  std::int32_t max_cells;

  explicit SerialBarnes(const BarnesParams& p)
      : params(p), b(barnes_make_bodies(p.bodies, p.seed)), n(p.bodies),
        max_cells(8 * p.bodies + 256) {
    child.resize(static_cast<std::size_t>(max_cells) * 8);
    for (auto* v : {&cx, &cy, &cz, &half, &cmass, &comx, &comy, &comz}) {
      v->resize(static_cast<std::size_t>(max_cells));
    }
  }

  std::int32_t new_cell(double x, double y, double z, double h) {
    const std::int32_t id = ncells++;
    HYP_CHECK(id < max_cells);
    for (int oct = 0; oct < 8; ++oct) child[static_cast<std::size_t>(id) * 8 + oct] = kEmptySlot;
    cx[static_cast<std::size_t>(id)] = x;
    cy[static_cast<std::size_t>(id)] = y;
    cz[static_cast<std::size_t>(id)] = z;
    half[static_cast<std::size_t>(id)] = h;
    return id;
  }

  void insert(int body) {
    const double x = b.px[static_cast<std::size_t>(body)], y = b.py[static_cast<std::size_t>(body)],
                 z = b.pz[static_cast<std::size_t>(body)];
    std::int32_t cur = 0;
    for (;;) {
      const double ccx = cx[static_cast<std::size_t>(cur)], ccy = cy[static_cast<std::size_t>(cur)],
                   ccz = cz[static_cast<std::size_t>(cur)];
      const double h = half[static_cast<std::size_t>(cur)];
      const int oct = octant_of(ccx, ccy, ccz, x, y, z);
      const std::int32_t slot = child[static_cast<std::size_t>(cur) * 8 + oct];
      if (slot == kEmptySlot) {
        child[static_cast<std::size_t>(cur) * 8 + oct] = encode_body(body);
        return;
      }
      if (is_body(slot)) {
        const int b2 = decode_body(slot);
        double nx = ccx, ny = ccy, nz = ccz;
        child_center(oct, h, nx, ny, nz);
        const std::int32_t sub = new_cell(nx, ny, nz, h / 2);
        const int oct2 =
            octant_of(nx, ny, nz, b.px[static_cast<std::size_t>(b2)],
                      b.py[static_cast<std::size_t>(b2)], b.pz[static_cast<std::size_t>(b2)]);
        child[static_cast<std::size_t>(sub) * 8 + oct2] = encode_body(b2);
        child[static_cast<std::size_t>(cur) * 8 + oct] = sub;
        cur = sub;
        continue;
      }
      cur = slot;
    }
  }

  void compute_moments(std::int32_t cell) {
    double m = 0, sx = 0, sy = 0, sz = 0;
    for (int oct = 0; oct < 8; ++oct) {
      const std::int32_t slot = child[static_cast<std::size_t>(cell) * 8 + oct];
      if (slot == kEmptySlot) continue;
      if (is_body(slot)) {
        const auto g = static_cast<std::size_t>(decode_body(slot));
        m += b.mass[g];
        sx += b.mass[g] * b.px[g];
        sy += b.mass[g] * b.py[g];
        sz += b.mass[g] * b.pz[g];
      } else {
        compute_moments(slot);
        const auto s = static_cast<std::size_t>(slot);
        m += cmass[s];
        sx += cmass[s] * comx[s];
        sy += cmass[s] * comy[s];
        sz += cmass[s] * comz[s];
      }
    }
    const auto s = static_cast<std::size_t>(cell);
    cmass[s] = m;
    comx[s] = m != 0 ? sx / m : 0;
    comy[s] = m != 0 ? sy / m : 0;
    comz[s] = m != 0 ? sz / m : 0;
  }

  void interact(double m, double ox, double oy, double oz, double x, double y, double z,
                double& ax, double& ay, double& az) {
    const double dx = ox - x, dy = oy - y, dz = oz - z;
    const double d2 = dx * dx + dy * dy + dz * dz + params.eps * params.eps;
    const double inv = 1.0 / std::sqrt(d2);
    const double f = m * inv * inv * inv;
    ax += f * dx;
    ay += f * dy;
    az += f * dz;
  }

  void accumulate_force(int body, std::int32_t cell, double x, double y, double z, double& ax,
                        double& ay, double& az) {
    const double theta2 = params.theta * params.theta;
    for (int oct = 0; oct < 8; ++oct) {
      const std::int32_t slot = child[static_cast<std::size_t>(cell) * 8 + oct];
      if (slot == kEmptySlot) continue;
      if (is_body(slot)) {
        const int b2 = decode_body(slot);
        if (b2 == body) continue;
        const auto g = static_cast<std::size_t>(b2);
        interact(b.mass[g], b.px[g], b.py[g], b.pz[g], x, y, z, ax, ay, az);
      } else {
        const auto s = static_cast<std::size_t>(slot);
        const double dx = comx[s] - x, dy = comy[s] - y, dz = comz[s] - z;
        const double d2 = dx * dx + dy * dy + dz * dz;
        const double size = 2 * half[s];
        if (size * size < theta2 * d2) {
          interact(cmass[s], comx[s], comy[s], comz[s], x, y, z, ax, ay, az);
        } else {
          accumulate_force(body, slot, x, y, z, ax, ay, az);
        }
      }
    }
  }

  double run() {
    std::vector<double> ax(static_cast<std::size_t>(n)), ay(static_cast<std::size_t>(n)),
        az(static_cast<std::size_t>(n));
    for (int step = 0; step < params.steps; ++step) {
      double mnx = std::numeric_limits<double>::infinity(), mny = mnx, mnz = mnx;
      double mxx = -mnx, mxy = -mnx, mxz = -mnx;
      for (int i = 0; i < n; ++i) {
        const auto g = static_cast<std::size_t>(i);
        mnx = std::min(mnx, b.px[g]);
        mny = std::min(mny, b.py[g]);
        mnz = std::min(mnz, b.pz[g]);
        mxx = std::max(mxx, b.px[g]);
        mxy = std::max(mxy, b.py[g]);
        mxz = std::max(mxz, b.pz[g]);
      }
      const double cxm = 0.5 * (mnx + mxx), cym = 0.5 * (mny + mxy), czm = 0.5 * (mnz + mxz);
      double h = 0.5 * std::max({mxx - mnx, mxy - mny, mxz - mnz});
      h = h * 1.0001 + 1e-9;
      ncells = 0;
      new_cell(cxm, cym, czm, h);
      for (int body = 0; body < n; ++body) insert(body);
      compute_moments(0);
      for (int body = 0; body < n; ++body) {
        const auto g = static_cast<std::size_t>(body);
        double fx = 0, fy = 0, fz = 0;
        accumulate_force(body, 0, b.px[g], b.py[g], b.pz[g], fx, fy, fz);
        ax[g] = fx;
        ay[g] = fy;
        az[g] = fz;
      }
      for (int i = 0; i < n; ++i) {
        const auto g = static_cast<std::size_t>(i);
        b.vx[g] += params.dt * ax[g];
        b.vy[g] += params.dt * ay[g];
        b.vz[g] += params.dt * az[g];
        b.px[g] += params.dt * b.vx[g];
        b.py[g] += params.dt * b.vy[g];
        b.pz[g] += params.dt * b.vz[g];
      }
    }
    double sum = 0;
    for (int i = 0; i < n; ++i) {
      const auto g = static_cast<std::size_t>(i);
      sum += b.px[g] + b.py[g] + b.pz[g];
    }
    return sum;
  }
};

}  // namespace

RunResult barnes_parallel(const VmConfig& cfg, const BarnesParams& params) {
  hyperion::HyperionVM vm(cfg);
  RunResult out;
  dsm::with_policy(cfg.protocol, cfg.race != nullptr, [&](auto policy) {
    using P = decltype(policy);
    out.value = run<P>(vm, params);
  });
  out.elapsed = vm.elapsed();
  out.stats = vm.stats();
  capture_engine_tallies(out, vm);
  return out;
}

double barnes_serial(const BarnesParams& params) {
  SerialBarnes s(params);
  return s.run();
}

}  // namespace hyp::apps
