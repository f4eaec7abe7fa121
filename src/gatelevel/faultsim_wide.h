// The fault-propagation engine, templated over the lane width W (W×64
// patterns per good-machine row) and the SIMD word-vector backend V
// (widebits.h). Two widths are instantiated, each for one job shape:
//
//   W=1  ScalarWords<1>  FaultPropagator (faultsim.h): every fault-dropping
//                        grade and every matrix under 8 blocks. Its good
//                        rows are the caller's std::vector<Bits>, read in
//                        place ({v, x} is exactly a one-word row).
//   W=8  per ISA         no-drop detection matrices of >= 8 blocks:
//                          faultsim.cpp        -> ScalarWords<8>
//                          faultsim_avx2.cpp   -> Avx2Words
//                          faultsim_avx512.cpp -> Avx512Words
//
// run_wide_matrix (faultsim.cpp) picks the W=8 entry point at runtime from
// what the CPU supports. Every template here therefore carries V in its
// parameter list even where the code never touches V: instantiations from
// differently-flagged TUs must have distinct symbols, or the linker could
// keep an AVX-encoded comdat copy and hand it to the scalar path on a CPU
// without that ISA. For the same reason this header defines no non-template
// inline functions.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include "gatelevel/faults.h"
#include "gatelevel/netlist.h"
#include "gatelevel/simgraph.h"
#include "gatelevel/widebits.h"
#include "observe/scoap_attr.h"
#include "util/metrics.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace tsyn::gl::wide_detail {

/// Items claimed per work-stealing grab. Fault propagations are cheap
/// (microseconds on small benches), so claiming one per atomic add is pure
/// contention; a chunk this size amortizes it while the tail imbalance
/// stays under a handful of propagations.
constexpr int kStealChunk = 16;

/// Evaluates one V-chunk (V::kWords lanes-of-64 at word offset `off`) of a
/// gate from per-fanin row pointers. These are eval_gate's formulas routed
/// through the widebits.h kernels.
template <int W, class V>
inline Tv<V> wide_eval_chunk(GateType type, const std::uint64_t* const* fr,
                             int nf, int off) {
  const auto ld = [&](int i) {
    return Tv<V>{V::load(fr[i] + off), V::load(fr[i] + W + off)};
  };
  Tv<V> r;
  switch (type) {
    case GateType::kConst0:
      r.v = V::zero();
      r.x = V::zero();
      break;
    case GateType::kConst1:
      r.v = V::ones();
      r.x = V::zero();
      break;
    case GateType::kBuf:
      r = ld(0);
      break;
    case GateType::kNot:
      r = tv_not(ld(0));
      break;
    case GateType::kAnd:
    case GateType::kNand:
      r = ld(0);
      for (int i = 1; i < nf; ++i) r = tv_and(r, ld(i));
      if (type == GateType::kNand) r = tv_not(r);
      break;
    case GateType::kOr:
    case GateType::kNor:
      r = ld(0);
      for (int i = 1; i < nf; ++i) r = tv_or(r, ld(i));
      if (type == GateType::kNor) r = tv_not(r);
      break;
    case GateType::kXor:
      r = tv_xor(ld(0), ld(1));
      break;
    case GateType::kXnor:
      r = tv_not(tv_xor(ld(0), ld(1)));
      break;
    case GateType::kMux:
      r = tv_mux(ld(0), ld(1), ld(2));
      break;
    case GateType::kInput:
    case GateType::kDff:
      assert(false && "wide eval on a source node");
      r.v = V::zero();
      r.x = V::ones();
      break;
  }
  return r;
}

/// Evaluates one gate row (W lanes-of-64) into `out`.
template <int W, class V>
inline void wide_eval_row(GateType type, const std::uint64_t* const* fr,
                          int nf, std::uint64_t* out) {
  static_assert(W % V::kWords == 0, "backend width must divide the row");
  constexpr int kChunks = W / V::kWords;
  for (int c = 0; c < kChunks; ++c) {
    const int off = c * V::kWords;
    const Tv<V> r = wide_eval_chunk<W, V>(type, fr, nf, off);
    r.v.store(out + off);
    r.x.store(out + W + off);
  }
}

/// Evaluates one gate row, returning whether the result differs from
/// `old` (the node's previous faulty-machine row) and storing it to `dst`
/// only when it does. This is the per-event hot path: the row lives in
/// registers while the diff accumulates, and unchanged events — the cone
/// boundary, a large share of all events — never dirty a cache line.
template <int W, class V>
inline bool wide_eval_diff(GateType type, const std::uint64_t* const* fr,
                           int nf, const std::uint64_t* old,
                           std::uint64_t* dst) {
  static_assert(W % V::kWords == 0, "backend width must divide the row");
  constexpr int kChunks = W / V::kWords;
  Tv<V> rs[kChunks];
  V diff = V::zero();
  for (int c = 0; c < kChunks; ++c) {
    const int off = c * V::kWords;
    rs[c] = wide_eval_chunk<W, V>(type, fr, nf, off);
    diff = diff | (rs[c].v ^ V::load(old + off)) |
           (rs[c].x ^ V::load(old + W + off));
  }
  if (!diff.any()) return false;
  for (int c = 0; c < kChunks; ++c) {
    const int off = c * V::kWords;
    rs[c].v.store(dst + off);
    rs[c].x.store(dst + W + off);
  }
  return true;
}

/// Per-thread fault-propagation scratch plus the one propagation routine
/// every combinational path shares. Good-machine values are a caller-owned
/// node-major row array (2W words per node: the W value words, then the W
/// x words — one pointer addresses a node's whole three-valued row).
/// Faulty values are copy-on-write against it: a node reads as good until
/// touched in the current epoch. Scheduled nodes sit in per-level
/// worklists and the sweep walks the touched levels in ascending order.
/// One instance per worker slot.
template <int W, class V>
class WideProp {
 public:
  explicit WideProp(const SimGraph& g) : g_(&g) {
    const std::size_t nn = static_cast<std::size_t>(g.num_nodes());
    frows_.assign(nn * 2 * W, 0);
    stamp_.assign(nn, -1);
    sched_stamp_.assign(nn, -1);
    po_stamp_.assign(nn, -1);
    lvl_stamp_.assign(g.num_levels(), -1);
    lvl_nodes_.resize(g.num_levels());
  }
  /// Runs on the netlist's cached SimGraph (built here if needed — on the
  /// calling thread, before any worker reads it).
  explicit WideProp(const Netlist& n) : WideProp(SimGraph::of(n)) {}

  /// One fault against the good rows `good`: out_mask[w] is the detecting
  /// lane mask of the row's w-th 64-lane block (primary outputs where the
  /// faulty machine provably differs: both known, values differ).
  void propagate(const Fault& f, const std::uint64_t* good,
                 std::uint64_t* out_mask) {
    ++faults_;
    const long before = events_;
    begin(good);
    inject(f);
    drain(f);
    last_events_ = events_ - before;
    po_diff(out_mask);
  }

  /// The W=1 form: one 64-lane block against node-indexed good values,
  /// read in place. Returns the detecting lane mask.
  std::uint64_t propagate(const Fault& f, const std::vector<Bits>& good)
    requires(W == 1)
  {
    static_assert(sizeof(Bits) == 2 * sizeof(std::uint64_t) &&
                      offsetof(Bits, x) == sizeof(std::uint64_t) &&
                      std::is_standard_layout_v<Bits>,
                  "Bits must be a one-word {v, x} row");
    assert(good.size() == static_cast<std::size_t>(g_->num_nodes()));
    std::uint64_t mask = 0;
    propagate(f, reinterpret_cast<const std::uint64_t*>(good.data()), &mask);
    return mask;
  }

  /// Work counters for the metrics registry: gate evaluations (scheduled
  /// nodes) and faults propagated since construction or the last
  /// reset_work_counters(), plus the evaluations the most recent
  /// propagate() cost (per-fault ledger attribution). Owned by the
  /// propagator's worker — read them only between parallel sections.
  long events_processed() const { return events_; }
  long faults_propagated() const { return faults_; }
  long last_propagate_events() const { return last_events_; }
  void reset_work_counters() {
    events_ = 0;
    faults_ = 0;
    last_events_ = 0;
  }

 private:
  const std::uint64_t* good_row(int id) const {
    return good_ + static_cast<std::size_t>(id) * 2 * W;
  }
  /// Current faulty-machine row of `id`: its copy-on-write row when touched
  /// this epoch, the shared good row otherwise.
  const std::uint64_t* row(int id) const {
    return stamp_[id] == cur_ ? &frows_[static_cast<std::size_t>(id) * 2 * W]
                              : good_row(id);
  }

  void begin(const std::uint64_t* good) {
    good_ = good;
    if (cur_ == std::numeric_limits<int>::max()) {
      std::fill(stamp_.begin(), stamp_.end(), -1);
      std::fill(sched_stamp_.begin(), sched_stamp_.end(), -1);
      std::fill(po_stamp_.begin(), po_stamp_.end(), -1);
      std::fill(lvl_stamp_.begin(), lvl_stamp_.end(), -1);
      cur_ = 0;
    }
    ++cur_;
    min_lvl_ = g_->num_levels();
    max_lvl_ = -1;
    touched_pos_.clear();
  }

  void schedule_fanouts(int id) {
    // The fanout CSR carries combinational edges only, so no DFF is ever
    // scheduled.
    const std::int32_t* foff = g_->fanout_off();
    const std::int32_t* fo = g_->fanout();
    const std::int32_t* level_of = g_->level_of();
    const std::int32_t end = foff[id + 1];
    for (std::int32_t k = foff[id]; k < end; ++k) {
      const int s = fo[k];
      if (sched_stamp_[s] == cur_) continue;
      sched_stamp_[s] = cur_;
      // The sweep reaches `s` strictly later (deeper level); start pulling
      // its good row in now so the eval doesn't stall on it.
      const std::uint64_t* gr = good_row(s);
      __builtin_prefetch(gr);
      __builtin_prefetch(gr + W);
      const int lvl = level_of[s];
      if (lvl_stamp_[lvl] != cur_) {
        lvl_stamp_[lvl] = cur_;
        lvl_nodes_[lvl].clear();
        if (lvl < min_lvl_) min_lvl_ = lvl;
        if (lvl > max_lvl_) max_lvl_ = lvl;
      }
      lvl_nodes_[lvl].push_back(s);
    }
  }

  /// Marks `id` as diverged this epoch: stamp, PO bookkeeping, fanouts.
  void touch(int id) {
    stamp_[id] = cur_;
    if ((g_->flags()[id] & SimGraph::kFlagPo) && po_stamp_[id] != cur_) {
      po_stamp_[id] = cur_;
      touched_pos_.push_back(id);
    }
    schedule_fanouts(id);
  }

  /// Overwrites node `id`'s row with `srow` (output-fault injection; once
  /// per fault, so the memcmp shape is fine here).
  void force(int id, const std::uint64_t* srow) {
    if (std::memcmp(row(id), srow, sizeof(std::uint64_t) * 2 * W) == 0)
      return;
    std::memcpy(&frows_[static_cast<std::size_t>(id) * 2 * W], srow,
                sizeof(std::uint64_t) * 2 * W);
    touch(id);
  }

  /// Re-evaluates node `id` with fanin pin `pin` (or -1: none) overridden
  /// to the `srow` row, directly into its copy-on-write row.
  void eval_node(int id, int pin, const std::uint64_t* srow) {
    const std::uint64_t* frp[kMaxFanin];
    const std::int32_t* fin = g_->fanin();
    const std::int32_t lo = g_->fanin_off()[id];
    const int nf = g_->fanin_off()[id + 1] - lo;
    for (int i = 0; i < nf; ++i)
      frp[i] = i == pin ? srow : row(fin[lo + i]);
    std::uint64_t* dst = &frows_[static_cast<std::size_t>(id) * 2 * W];
    const std::uint64_t* old = stamp_[id] == cur_ ? dst : good_row(id);
    if (wide_eval_diff<W, V>(g_->type(id), frp, nf, old, dst)) touch(id);
  }

  /// The faulted pin/node row: stuck value in every lane, nothing unknown.
  static void stuck_row(const Fault& f, std::uint64_t* srow) {
    for (int w = 0; w < W; ++w) {
      srow[w] = f.stuck_at_one ? ~0ULL : 0;
      srow[W + w] = 0;
    }
  }

  /// Output faults force the node; input-pin faults re-evaluate the gate
  /// with the pin forced. Pin faults on DFFs are ignored: the D pin is a
  /// state-capture boundary, outside any combinational frame.
  void inject(const Fault& f) {
    std::uint64_t srow[2 * W];
    stuck_row(f, srow);
    if (f.fanin_index < 0) {
      force(f.node, srow);
      return;
    }
    if (g_->type(f.node) == GateType::kDff) return;
    eval_node(f.node, f.fanin_index, srow);
  }

  void drain(const Fault& f) {
    std::uint64_t srow[2 * W];
    stuck_row(f, srow);
    // A level's worklist is complete once the sweep reaches it:
    // scheduling only ever targets deeper levels, so one ascending pass
    // over the touched levels suffices.
    for (int lvl = min_lvl_; lvl <= max_lvl_; ++lvl) {
      if (lvl_stamp_[lvl] != cur_) continue;
      for (const int id : lvl_nodes_[lvl]) {
        ++events_;
        if (f.fanin_index < 0 && id == f.node) continue;  // pinned
        eval_node(id, id == f.node ? f.fanin_index : -1, srow);
      }
    }
  }

  void po_diff(std::uint64_t* out) const {
    for (int w = 0; w < W; ++w) out[w] = 0;
    for (const int id : touched_pos_) {
      const std::uint64_t* gr = good_row(id);
      const std::uint64_t* br = &frows_[static_cast<std::size_t>(id) * 2 * W];
      for (int w = 0; w < W; ++w)
        out[w] |= (gr[w] ^ br[w]) & ~gr[W + w] & ~br[W + w];
    }
  }

  const SimGraph* g_;
  const std::uint64_t* good_ = nullptr;
  std::vector<std::uint64_t> frows_;  ///< copy-on-write rows, 2W words/node
  std::vector<int> stamp_, sched_stamp_, po_stamp_;
  int cur_ = 0;
  std::vector<int> lvl_stamp_;
  std::vector<std::vector<int>> lvl_nodes_;  ///< scheduled ids per level
  int min_lvl_ = 0, max_lvl_ = -1;
  std::vector<int> touched_pos_;  ///< POs touched this epoch (deduplicated)
  long events_ = 0, faults_ = 0, last_events_ = 0;
};

/// Propagates every fault whose `skip` flag is clear (all of them when
/// `skip` is null) against the good rows, spreading the list over the first
/// `workers` slots of `props` with chunked work stealing: each worker
/// drains its own contiguous range, then steals chunks from the others.
/// masks[i * W + w] receives fault i's detecting lanes in block w (zero for
/// skipped faults). Afterwards the slots' work counters are published to
/// the metrics registry and reset.
template <int W, class V>
void propagate_faults(std::vector<WideProp<W, V>>& props, int workers,
                      const std::uint64_t* good,
                      const std::vector<Fault>& faults,
                      const std::vector<bool>* skip, std::uint64_t* masks) {
  const int count = static_cast<int>(faults.size());
  const bool ledger_on = observe::ledger_enabled();
  auto job = [&](int i, int slot) {
    std::uint64_t* mw = masks + static_cast<std::size_t>(i) * W;
    if (skip && (*skip)[i]) {
      std::fill(mw, mw + W, 0);
      return;
    }
    WideProp<W, V>& p = props[slot];
    p.propagate(faults[i], good, mw);
    if (ledger_on)
      observe::record_sim_effort(observe::make_fault_key(faults[i]),
                                 p.last_propagate_events());
  };
  if (workers <= 1) {
    for (int i = 0; i < count; ++i) job(i, 0);
  } else {
    util::ThreadPool::shared().run_chunked(count, workers, kStealChunk, job);
  }

  // Publish off the hot path — worker counters are stable once
  // run_chunked() has returned. Imbalance is the largest slot's share over
  // the ideal equal share (1.0 = perfectly balanced, `workers` = one slot
  // did everything).
  static util::Counter& m_events =
      util::metrics().counter("faultsim.ppsfp.events");
  static util::Counter& m_sims =
      util::metrics().counter("faultsim.ppsfp.faults_simulated");
  long events = 0, done = 0, biggest = 0;
  for (WideProp<W, V>& p : props) {
    events += p.events_processed();
    done += p.faults_propagated();
    biggest = std::max(biggest, p.faults_propagated());
    p.reset_work_counters();
  }
  m_events.add(events);
  m_sims.add(done);
  if (workers > 1 && done > 0)
    util::metrics()
        .gauge("faultsim.ppsfp.shard_imbalance")
        .set(static_cast<double>(biggest) * workers /
             static_cast<double>(done));
}

/// Loads PI rows for the super-block starting at block `base`. Blocks past
/// the end of the campaign pad with all-X lanes; three-valued monotonicity
/// makes them inert (an X-input lane detects nothing that a real lane
/// does not) and the caller drops their masks.
template <int W, class V>
void wide_set_inputs(const SimGraph& g,
                     const std::vector<std::vector<Bits>>& blocks,
                     std::size_t base, std::vector<std::uint64_t>& good) {
  const std::size_t nn = static_cast<std::size_t>(g.num_nodes());
  good.assign(nn * 2 * W, 0);
  for (std::size_t id = 0; id < nn; ++id) {  // default all lanes to X
    std::uint64_t* rx = &good[id * 2 * W + W];
    for (int w = 0; w < W; ++w) rx[w] = ~0ULL;
  }
  const auto& pis = g.pis();
  for (std::size_t i = 0; i < pis.size(); ++i) {
    std::uint64_t* r = &good[static_cast<std::size_t>(pis[i]) * 2 * W];
    for (int w = 0; w < W; ++w) {
      const std::size_t b = base + static_cast<std::size_t>(w);
      if (b >= blocks.size() || i >= blocks[b].size()) continue;
      r[w] = blocks[b][i].v;
      r[W + w] = blocks[b][i].x;
    }
  }
}

/// Full good simulation of the preset rows (one levelized pass).
template <int W, class V>
void wide_simulate_good(const SimGraph& g, std::vector<std::uint64_t>& good) {
  const std::uint64_t* frp[kMaxFanin];
  const std::int32_t* foff = g.fanin_off();
  const std::int32_t* fin = g.fanin();
  for (const std::int32_t id : g.order()) {
    const GateType t = g.type(id);
    if (t == GateType::kInput || t == GateType::kDff) continue;
    const std::int32_t lo = foff[id];
    const int nf = foff[id + 1] - lo;
    for (int i = 0; i < nf; ++i)
      frp[i] = &good[static_cast<std::size_t>(fin[lo + i]) * 2 * W];
    wide_eval_row<W, V>(t, frp, nf,
                        &good[static_cast<std::size_t>(id) * 2 * W]);
  }
}

/// No-drop detection matrix over all blocks, W blocks per good-machine
/// pass and per fault propagation: matrix[f * blocks.size() + b] receives
/// the lane mask of block b detecting fault f. `matrix` must be sized and
/// the netlist combinational (the caller checks both).
template <int W, class V>
void wide_matrix(const Netlist& n,
                 const std::vector<std::vector<Bits>>& blocks,
                 const std::vector<Fault>& faults, int threads,
                 std::uint64_t* matrix) {
  const SimGraph& g = SimGraph::of(n);  // built before workers fan out
  const int count = static_cast<int>(faults.size());
  const std::size_t nb = blocks.size();
  const std::size_t nsuper = (nb + W - 1) / W;
  const int workers = std::max(1, std::min(threads, count));
  std::vector<WideProp<W, V>> props;
  props.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) props.emplace_back(g);

  std::vector<std::uint64_t> good;
  std::vector<std::uint64_t> block_masks(static_cast<std::size_t>(count) * W);
  static util::Progress& p_patterns = util::progress("sim.patterns");
  for (std::size_t s = 0; s < nsuper; ++s) {
    wide_set_inputs<W, V>(g, blocks, s * W, good);
    wide_simulate_good<W, V>(g, good);
    propagate_faults<W, V>(props, workers, good.data(), faults, nullptr,
                           block_masks.data());
    const std::size_t real = std::min<std::size_t>(W, nb - s * W);
    for (int i = 0; i < count; ++i)
      std::copy_n(&block_masks[static_cast<std::size_t>(i) * W], real,
                  matrix + static_cast<std::size_t>(i) * nb + s * W);
    // Live progress after each good-machine pass, not once at the end, so
    // heartbeats see pattern-grained advance inside long campaigns.
    p_patterns.add(64 * static_cast<std::int64_t>(real));
  }
  util::metrics()
      .counter("faultsim.wide.super_blocks")
      .add(static_cast<long>(nsuper));
  util::metrics().gauge("faultsim.wide.lanes").set(64 * W);
}

// Per-ISA entry points, defined in faultsim_avx2.cpp / faultsim_avx512.cpp
// when the build compiled them (TSYN_WIDE_AVX2 / TSYN_WIDE_AVX512). Only
// call after active_simd_backend() confirms the CPU has the ISA.
void wide_matrix_avx2_w8(const Netlist& n,
                         const std::vector<std::vector<Bits>>& blocks,
                         const std::vector<Fault>& faults, int threads,
                         std::uint64_t* matrix);
void wide_matrix_avx512_w8(const Netlist& n,
                           const std::vector<std::vector<Bits>>& blocks,
                           const std::vector<Fault>& faults, int threads,
                           std::uint64_t* matrix);

}  // namespace tsyn::gl::wide_detail
