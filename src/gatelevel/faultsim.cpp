#include "gatelevel/faultsim.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <thread>

#include "observe/scoap_attr.h"
#include "util/metrics.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace tsyn::gl {

namespace {

/// Items claimed per work-stealing grab. Fault propagations are cheap
/// (microseconds on small benches), so claiming one per atomic add is pure
/// contention; a chunk this size amortizes it while the tail imbalance
/// stays under a handful of propagations.
constexpr int kStealChunk = 16;

/// Sequential faults cost a whole frame sweep each; smaller chunks than
/// the combinational engine's keep the tail short.
constexpr int kSeqStealChunk = 4;

void require_combinational(const Netlist& n) {
  if (!n.flops().empty())
    throw std::runtime_error(
        "combinational fault sim; expand state as PI/PO first");
}

}  // namespace

int FaultSimOptions::resolved_threads() const {
  if (num_threads > 0) return num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// ---------------------------------------------------------------------------
// FaultPropagator — one fault's divergence from the good machine.
// ---------------------------------------------------------------------------

FaultPropagator::FaultPropagator(const Netlist& n) : g_(&SimGraph::of(n)) {
  const std::size_t nn = static_cast<std::size_t>(g_->num_nodes());
  faulty_.assign(nn, Bits::unknown());
  stamp_.assign(nn, -1);
  sched_stamp_.assign(nn, -1);
  po_stamp_.assign(nn, -1);
  lvl_stamp_.assign(g_->num_levels(), -1);
  lvl_nodes_.resize(g_->num_levels());
}

std::uint64_t FaultPropagator::propagate(const Fault& f,
                                         const std::vector<Bits>& good) {
  assert(good.size() == static_cast<std::size_t>(g_->num_nodes()));
  ++faults_;
  const long before = events_;
  const Bits stuck = f.stuck_at_one ? Bits::all1() : Bits::all0();
  begin(good.data());
  inject(f, stuck);
  drain(f, stuck);
  last_events_ = events_ - before;
  return po_diff();
}

void FaultPropagator::begin(const Bits* good) {
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

void FaultPropagator::schedule_fanouts(int id) {
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
    // its good value in now so the eval doesn't stall on it.
    __builtin_prefetch(&good_[s]);
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

/// Makes `r` the faulty value of `id` — stamp, PO bookkeeping, fanouts —
/// unless it equals the current one. Comparing before storing means
/// unchanged events, the cone boundary and a large share of all events,
/// never dirty a cache line.
void FaultPropagator::update(int id, Bits r) {
  const Bits& old = value(id);
  if (r.v == old.v && r.x == old.x) return;
  faulty_[id] = r;
  stamp_[id] = cur_;
  if ((g_->flags()[id] & SimGraph::kFlagPo) && po_stamp_[id] != cur_) {
    po_stamp_[id] = cur_;
    touched_pos_.push_back(id);
  }
  schedule_fanouts(id);
}

/// Re-evaluates node `id` with fanin pin `pin` (or -1: none) overridden to
/// `stuck`.
void FaultPropagator::eval_node(int id, int pin, Bits stuck) {
  const std::int32_t* fin = g_->fanin();
  const std::int32_t lo = g_->fanin_off()[id];
  const int nf = g_->fanin_off()[id + 1] - lo;
  for (int i = 0; i < nf; ++i)
    fanin_vals_[i] = i == pin ? stuck : value(fin[lo + i]);
  update(id, eval_gate(g_->type(id), fanin_vals_, nf));
}

/// Output faults force the node; input-pin faults re-evaluate the gate with
/// the pin forced. Pin faults on DFFs are ignored: the D pin is a
/// state-capture boundary, outside any combinational frame.
void FaultPropagator::inject(const Fault& f, Bits stuck) {
  if (f.fanin_index < 0) {
    update(f.node, stuck);
    return;
  }
  if (g_->type(f.node) == GateType::kDff) return;
  eval_node(f.node, f.fanin_index, stuck);
}

void FaultPropagator::drain(const Fault& f, Bits stuck) {
  // A level's worklist is complete once the sweep reaches it: scheduling
  // only ever targets deeper levels, so one ascending pass over the
  // touched levels suffices.
  for (int lvl = min_lvl_; lvl <= max_lvl_; ++lvl) {
    if (lvl_stamp_[lvl] != cur_) continue;
    for (const int id : lvl_nodes_[lvl]) {
      ++events_;
      if (f.fanin_index < 0 && id == f.node) continue;  // pinned
      eval_node(id, id == f.node ? f.fanin_index : -1, stuck);
    }
  }
}

std::uint64_t FaultPropagator::po_diff() const {
  std::uint64_t mask = 0;
  for (const int id : touched_pos_) {
    const Bits& g = good_[id];
    const Bits& b = faulty_[id];
    mask |= (g.v ^ b.v) & ~g.x & ~b.x;
  }
  return mask;
}

// ---------------------------------------------------------------------------
// FaultSimulator — PPSFP with the fault list spread over the worker pool.
// ---------------------------------------------------------------------------

FaultSimulator::FaultSimulator(const Netlist& n,
                               const FaultSimOptions& options)
    : n_(n), options_(options) {
  require_combinational(n);
  SimGraph::of(n);  // build the lowered form before any worker reads it
  good_.assign(n.num_nodes(), Bits::unknown());
}

void FaultSimulator::simulate_good(const std::vector<Bits>& pi_values) {
  assert(pi_values.size() == n_.primary_inputs().size());
  std::fill(good_.begin(), good_.end(), Bits::unknown());
  for (std::size_t i = 0; i < pi_values.size(); ++i)
    good_[n_.primary_inputs()[i]] = pi_values[i];
  simulate_frame(n_, good_);
  good_po_.clear();
  for (int po : n_.primary_outputs()) good_po_.push_back(good_[po]);
}

void FaultSimulator::propagate_shard(const std::vector<Fault>& faults,
                                     const std::vector<bool>* skip,
                                     std::vector<std::uint64_t>& masks) {
  const int count = static_cast<int>(faults.size());
  masks.assign(faults.size(), 0);
  if (count == 0) return;
  const int workers = std::max(1, std::min(options_.resolved_threads(), count));
  while (static_cast<int>(propagators_.size()) < workers)
    propagators_.emplace_back(n_);
  const bool ledger_on = observe::ledger_enabled();
  auto job = [&](int i, int slot) {
    if (skip && (*skip)[i]) return;
    FaultPropagator& p = propagators_[slot];
    masks[i] = p.propagate(faults[i], good_);
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
  for (FaultPropagator& p : propagators_) {
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

int FaultSimulator::run_block(const std::vector<Bits>& pi_values,
                              const std::vector<Fault>& faults,
                              std::vector<bool>& detected) {
  detected.resize(faults.size(), false);
  simulate_good(pi_values);
  propagate_shard(faults, &detected, masks_);
  const long pattern_base = 64 * blocks_run_++;
  const bool ledger_on = observe::ledger_enabled();
  int newly_detected = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (detected[i] || masks_[i] == 0) continue;
    detected[i] = true;
    ++newly_detected;
    if (ledger_on)
      observe::record_detected(observe::make_fault_key(faults[i]),
                               pattern_base + std::countr_zero(masks_[i]));
  }
  static util::Counter& m_blocks =
      util::metrics().counter("faultsim.ppsfp.blocks");
  static util::Counter& m_detected =
      util::metrics().counter("faultsim.ppsfp.faults_detected");
  m_blocks.add();
  m_detected.add(newly_detected);
  static util::Progress& p_patterns = util::progress("sim.patterns");
  p_patterns.add(64);
  return newly_detected;
}

void FaultSimulator::run_block_detail(const std::vector<Bits>& pi_values,
                                      const std::vector<Fault>& faults,
                                      std::vector<std::uint64_t>& lane_masks) {
  simulate_good(pi_values);
  propagate_shard(faults, nullptr, lane_masks);
  static util::Progress& p_patterns = util::progress("sim.patterns");
  p_patterns.add(64);
}

double fault_coverage(const Netlist& n,
                      const std::vector<std::vector<Bits>>& blocks,
                      const std::vector<Fault>& faults,
                      std::vector<bool>* detected_out,
                      const FaultSimOptions& options) {
  TSYN_SPAN("gl.faultsim.ppsfp");
  if (observe::ledger_enabled())
    observe::record_universe(static_cast<long>(faults.size()));
  util::progress("sim.patterns")
      .add_total(64 * static_cast<std::int64_t>(blocks.size()));
  std::vector<bool> detected(faults.size(), false);
  FaultSimulator sim(n, options);
  for (const auto& block : blocks) sim.run_block(block, faults, detected);
  const long hit = std::count(detected.begin(), detected.end(), true);
  if (detected_out) *detected_out = std::move(detected);
  return faults.empty() ? 1.0
                        : static_cast<double>(hit) /
                              static_cast<double>(faults.size());
}

// ---------------------------------------------------------------------------
// Detection matrix: no fault dropping, block by block.
// ---------------------------------------------------------------------------

void detection_masks(const Netlist& n,
                     const std::vector<std::vector<Bits>>& blocks,
                     const std::vector<Fault>& faults,
                     std::vector<std::uint64_t>& masks,
                     const FaultSimOptions& options) {
  TSYN_SPAN("gl.faultsim.matrix");
  const std::size_t count = faults.size();
  const std::size_t nb = blocks.size();
  masks.assign(count * nb, 0);
  if (count == 0 || nb == 0) return;
  require_combinational(n);
  util::progress("sim.patterns").add_total(64 * static_cast<std::int64_t>(nb));
  FaultSimulator sim(n, options);
  std::vector<std::uint64_t> row;
  for (std::size_t b = 0; b < nb; ++b) {
    sim.run_block_detail(blocks[b], faults, row);
    for (std::size_t i = 0; i < count; ++i) masks[i * nb + b] = row[i];
  }
}

// ---------------------------------------------------------------------------
// Sequential fault simulation: dense per-fault frame re-simulation.
// ---------------------------------------------------------------------------

std::vector<bool> sequential_fault_sim(
    const Netlist& n, const std::vector<std::vector<Bits>>& input_frames,
    const std::vector<Fault>& faults, const FaultSimOptions& options) {
  TSYN_SPAN("gl.faultsim.seq");
  const bool ledger_on = observe::ledger_enabled();
  if (ledger_on) observe::record_universe(static_cast<long>(faults.size()));
  static util::Progress& p_seq = util::progress("sim.seq.faults");
  p_seq.add_total(static_cast<std::int64_t>(faults.size()));
  // Good trace, simulated once and shared (read-only) by every worker.
  const auto good = simulate_sequence(n, input_frames);
  const int count = static_cast<int>(faults.size());
  std::vector<bool> detected(faults.size(), false);
  if (count == 0 || input_frames.empty()) return detected;
  const SimGraph& g = SimGraph::of(n);  // built before workers fan out
  const int workers = std::max(1, std::min(options.resolved_threads(), count));

  // The dense schedule: every combinational gate in levelized order, and
  // each flip-flop's D node (-1 when unconnected: it stays unknown).
  const std::int32_t* foff = g.fanin_off();
  const std::int32_t* fin = g.fanin();
  const std::uint8_t* types = g.types();
  std::vector<std::int32_t> gates;
  for (const std::int32_t id : g.order()) {
    const GateType t = g.type(id);
    if (t != GateType::kInput && t != GateType::kDff) gates.push_back(id);
  }
  std::vector<std::int32_t> d_of;
  for (const std::int32_t ff : g.ffs()) d_of.push_back(fin[foff[ff]]);

  // Per-worker scratch: the faulty machine's node values and flip-flop
  // state, reused across the worker's whole fault shard — no per-frame or
  // per-fault allocation.
  struct Scratch {
    std::vector<Bits> values, state;
    /// Slot-private effort counters, merged into the registry at the end.
    long faults_done = 0, frames_done = 0, evals = 0, detected = 0,
         dropped_mid = 0;
  };
  std::vector<Scratch> scratch(static_cast<std::size_t>(workers));
  for (Scratch& s : scratch) {
    s.values.assign(g.num_nodes(), Bits::unknown());
    s.state.assign(g.ffs().size(), Bits::unknown());
  }

  util::Histogram& frames_to_detect =
      util::metrics().histogram("faultsim.seq.frames_to_detect");
  std::vector<char> det(faults.size(), 0);
  auto simulate_fault = [&](int fi, int slot) {
    const Fault& f = faults[fi];
    Scratch& s = scratch[slot];
    ++s.faults_done;
    const long evals_before = s.evals;
    const Bits stuck = f.stuck_at_one ? Bits::all1() : Bits::all0();
    // Output faults pin the node (sources included); pin faults override
    // one fanin of a gate. DFF D-pin faults sit outside every frame and,
    // as in the full-resim reference, never change the captured state.
    const int out_node = f.fanin_index < 0 ? f.node : -1;
    const int pin_node = f.fanin_index >= 0 ? f.node : -1;
    Bits* vals = s.values.data();
    Bits fanin_vals[kMaxFanin];
    std::fill(s.state.begin(), s.state.end(), Bits::unknown());
    for (std::size_t frame = 0; frame < input_frames.size(); ++frame) {
      ++s.frames_done;
      const std::vector<Bits>& pi_frame = input_frames[frame];
      for (std::size_t i = 0; i < g.pis().size(); ++i)
        vals[g.pis()[i]] = i < pi_frame.size() ? pi_frame[i] : Bits::unknown();
      for (std::size_t i = 0; i < g.ffs().size(); ++i)
        vals[g.ffs()[i]] = s.state[i];
      if (out_node >= 0) vals[out_node] = stuck;
      for (const std::int32_t id : gates) {
        const std::int32_t lo = foff[id];
        const int nf = foff[id + 1] - lo;
        for (int i = 0; i < nf; ++i) fanin_vals[i] = vals[fin[lo + i]];
        if (id == pin_node) fanin_vals[f.fanin_index] = stuck;
        vals[id] = id == out_node
                       ? stuck
                       : eval_gate(static_cast<GateType>(types[id]),
                                   fanin_vals, nf);
      }
      s.evals += static_cast<long>(gates.size());
      std::uint64_t diff = 0;
      for (const std::int32_t po : g.pos()) {
        const Bits& gv = good[frame][po];
        const Bits& bv = vals[po];
        diff |= (gv.v ^ bv.v) & ~gv.x & ~bv.x;
      }
      if (diff != 0) {
        det[fi] = 1;  // detected: drop the fault mid-sequence
        ++s.detected;
        if (frame + 1 < input_frames.size()) ++s.dropped_mid;
        frames_to_detect.observe(static_cast<std::int64_t>(frame) + 1);
        if (ledger_on) {
          const observe::FaultKey key = observe::make_fault_key(f);
          observe::record_seq_detected(key, static_cast<long>(frame) + 1);
          observe::record_sim_effort(key, s.evals - evals_before);
        }
        p_seq.add(1);
        return;
      }
      for (std::size_t i = 0; i < d_of.size(); ++i)
        s.state[i] = d_of[i] >= 0 ? vals[d_of[i]] : Bits::unknown();
    }
    if (ledger_on)
      observe::record_sim_effort(observe::make_fault_key(f),
                                 s.evals - evals_before);
    p_seq.add(1);
  };
  if (workers <= 1) {
    for (int i = 0; i < count; ++i) simulate_fault(i, 0);
  } else {
    util::ThreadPool::shared().run_chunked(count, workers, kSeqStealChunk,
                                           simulate_fault);
  }

  // Merge the slot-private effort counters (stable after the pool returns).
  static util::Counter& m_faults =
      util::metrics().counter("faultsim.seq.faults_simulated");
  static util::Counter& m_frames =
      util::metrics().counter("faultsim.seq.frames_simulated");
  static util::Counter& m_events =
      util::metrics().counter("faultsim.seq.events");
  static util::Counter& m_detected =
      util::metrics().counter("faultsim.seq.faults_detected");
  static util::Counter& m_dropped =
      util::metrics().counter("faultsim.seq.faults_dropped_midseq");
  long done = 0, biggest = 0;
  for (const Scratch& s : scratch) {
    m_frames.add(s.frames_done);
    m_events.add(s.evals);
    m_detected.add(s.detected);
    m_dropped.add(s.dropped_mid);
    done += s.faults_done;
    biggest = std::max(biggest, s.faults_done);
  }
  m_faults.add(done);
  if (workers > 1 && done > 0)
    util::metrics()
        .gauge("faultsim.seq.shard_imbalance")
        .set(static_cast<double>(biggest) * workers /
             static_cast<double>(done));

  for (std::size_t i = 0; i < faults.size(); ++i)
    detected[i] = det[i] != 0;
  return detected;
}

namespace {

// Full-circuit frame simulation with one fault injected.
void simulate_frame_with_fault(const Netlist& n, const Fault& f,
                               std::vector<Bits>& values) {
  const Bits stuck = f.stuck_at_one ? Bits::all1() : Bits::all0();
  Bits fanin_vals[kMaxFanin];
  for (int id : n.topo_order()) {
    const Node& node = n.node(id);
    if (node.type != GateType::kInput && node.type != GateType::kDff) {
      for (std::size_t i = 0; i < node.fanins.size(); ++i) {
        Bits v = values[node.fanins[i]];
        if (f.fanin_index >= 0 && id == f.node &&
            static_cast<int>(i) == f.fanin_index)
          v = stuck;
        fanin_vals[i] = v;
      }
      values[id] = eval_gate(node.type, fanin_vals,
                             static_cast<int>(node.fanins.size()));
    }
    if (f.fanin_index < 0 && id == f.node) values[id] = stuck;
  }
}

}  // namespace

std::vector<bool> sequential_fault_sim_full_resim(
    const Netlist& n, const std::vector<std::vector<Bits>>& input_frames,
    const std::vector<Fault>& faults) {
  // Good trace.
  const auto good = simulate_sequence(n, input_frames);

  std::vector<bool> detected(faults.size(), false);
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    const Fault& f = faults[fi];
    const Bits stuck = f.stuck_at_one ? Bits::all1() : Bits::all0();
    std::vector<Bits> state(n.flops().size(), Bits::unknown());
    for (std::size_t frame = 0; frame < input_frames.size() && !detected[fi];
         ++frame) {
      std::vector<Bits> values(n.num_nodes(), Bits::unknown());
      for (std::size_t i = 0; i < n.primary_inputs().size(); ++i)
        values[n.primary_inputs()[i]] = i < input_frames[frame].size()
                                            ? input_frames[frame][i]
                                            : Bits::unknown();
      for (std::size_t i = 0; i < n.flops().size(); ++i)
        values[n.flops()[i]] = state[i];
      // A stuck-at on a DFF output overrides its state.
      if (f.fanin_index < 0 && n.node(f.node).type == GateType::kDff)
        values[f.node] = stuck;
      simulate_frame_with_fault(n, f, values);
      for (std::size_t i = 0; i < n.flops().size(); ++i) {
        const int d = n.node(n.flops()[i]).fanins[0];
        state[i] = d >= 0 ? values[d] : Bits::unknown();
      }
      for (int po : n.primary_outputs()) {
        const Bits& g = good[frame][po];
        const Bits& b = values[po];
        if (((g.v ^ b.v) & ~g.x & ~b.x) != 0) {
          detected[fi] = true;
          break;
        }
      }
    }
  }
  return detected;
}

}  // namespace tsyn::gl
