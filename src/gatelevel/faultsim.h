// Fault simulation.
//
// Parallel-pattern single-fault propagation with fault dropping for
// combinational circuits — the workhorse behind every fault-coverage
// number in the benches (full-scan coverage, BIST coverage, test-point
// evaluation). One kernel per circuit kind, both on the compiled SoA form
// (simgraph.h) and both evaluating gates with eval_gate (netlist.h), the
// only copy of the three-valued gate formulas:
//
//  - Combinational circuits run FaultPropagator: 64 patterns per
//    good-machine pass, each fault propagated event by event through
//    per-level worklists. Fault-dropping grading (fault_coverage,
//    FaultSimulator::run_block) and the no-drop detection matrix
//    (detection_masks, block by block on run_block_detail) share it.
//  - Sequential circuits (sequential_fault_sim) get a dense per-fault
//    frame re-simulation on the SimGraph arrays that drops each fault at
//    its first detecting frame.
//
// Every engine spreads its fault list over the worker pool with chunked
// work-stealing: each worker drains its own contiguous range chunk by
// chunk, then steals chunks from the others, so cone-size imbalance stops
// costing wall-clock. Results never depend on the thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "gatelevel/faults.h"
#include "gatelevel/netlist.h"
#include "gatelevel/simgraph.h"

namespace tsyn::gl {

/// Knobs shared by every fault-simulation entry point.
struct FaultSimOptions {
  /// Worker threads the fault list is spread over. 0 = one per hardware
  /// thread; 1 = serial, bit-identical to the single-threaded engine (the
  /// parallel path is deterministic too — faults are independent — but 1
  /// also avoids touching the pool entirely).
  int num_threads = 0;

  /// num_threads with 0 resolved to the hardware parallelism (>= 1).
  int resolved_threads() const;
};

/// Per-thread fault-propagation scratch: the combinational fault kernel,
/// one instance per worker slot. Faulty values are copy-on-write against
/// the caller's good values: a node reads as good until touched in the
/// current epoch, so starting the next fault is O(1). A node whose value
/// changes schedules its fanouts into per-level worklists, and the sweep
/// walks the touched levels in ascending order; each scheduled node is
/// re-evaluated with eval_gate and stored only when its value differs.
class FaultPropagator {
 public:
  /// Runs on the netlist's cached SimGraph (built here if needed — on the
  /// calling thread, before any worker reads it).
  explicit FaultPropagator(const Netlist& n);

  /// One fault against node-indexed good values (sized num_nodes): returns
  /// the 64-bit lane mask of primary outputs where the faulty machine
  /// provably differs (both known, values differ).
  std::uint64_t propagate(const Fault& f, const std::vector<Bits>& good);

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
  /// Current faulty-machine value of `id`: its copy-on-write value when
  /// touched this epoch, the shared good value otherwise.
  const Bits& value(int id) const {
    return stamp_[id] == cur_ ? faulty_[id] : good_[id];
  }
  void begin(const Bits* good);
  // Per-event hot path: inline, defined in faultsim.cpp (its only user).
  inline void schedule_fanouts(int id);
  inline void update(int id, Bits r);
  inline void eval_node(int id, int pin, Bits stuck);
  void inject(const Fault& f, Bits stuck);
  void drain(const Fault& f, Bits stuck);
  std::uint64_t po_diff() const;

  const SimGraph* g_;
  const Bits* good_ = nullptr;
  std::vector<Bits> faulty_;  ///< copy-on-write values, live where stamped
  std::vector<int> stamp_, sched_stamp_, po_stamp_;
  int cur_ = 0;
  std::vector<int> lvl_stamp_;
  std::vector<std::vector<int>> lvl_nodes_;  ///< scheduled ids per level
  int min_lvl_ = 0, max_lvl_ = -1;
  std::vector<int> touched_pos_;  ///< POs touched this epoch (deduplicated)
  Bits fanin_vals_[kMaxFanin];    ///< eval_node's gather buffer
  long events_ = 0, faults_ = 0, last_events_ = 0;
};

/// Parallel-pattern combinational fault simulator. The netlist must be
/// combinational (no DFFs) — expand scan/BIST registers as PI/PO first.
class FaultSimulator {
 public:
  explicit FaultSimulator(const Netlist& n,
                          const FaultSimOptions& options = {});

  /// Simulates one 64-lane block. `pi_values[i]` is the Bits value of
  /// primary input i (by position in primary_inputs()). Marks faults
  /// detected in `detected`; already-detected faults are skipped (fault
  /// dropping). Returns how many new faults the block detected.
  int run_block(const std::vector<Bits>& pi_values,
                const std::vector<Fault>& faults,
                std::vector<bool>& detected);

  /// Good-machine PO values of the last block (by output position).
  const std::vector<Bits>& good_outputs() const { return good_po_; }

  /// Like run_block but without fault dropping: fills `lane_masks[i]` with
  /// the 64-bit mask of lanes detecting fault i, and leaves the good
  /// values queryable via good_value(). Needed by two-pattern (transition
  /// fault) grading, which must know *which* pattern detects.
  void run_block_detail(const std::vector<Bits>& pi_values,
                        const std::vector<Fault>& faults,
                        std::vector<std::uint64_t>& lane_masks);

  /// Good-machine value of any node after the last block.
  const Bits& good_value(int node) const { return good_[node]; }

 private:
  void simulate_good(const std::vector<Bits>& pi_values);
  /// Spreads `faults` over the worker pool (chunked work-stealing);
  /// masks[i] receives the detecting lane mask (0 for faults where
  /// skip[i] is true; all faults run when `skip` is null). Publishes the
  /// propagators' work counters to the metrics registry afterwards.
  void propagate_shard(const std::vector<Fault>& faults,
                       const std::vector<bool>* skip,
                       std::vector<std::uint64_t>& masks);

  const Netlist& n_;
  FaultSimOptions options_;
  std::vector<Bits> good_;
  std::vector<Bits> good_po_;
  std::vector<FaultPropagator> propagators_;  ///< one per worker slot
  std::vector<std::uint64_t> masks_;          ///< run_block scratch
  /// Blocks run_block has graded, so ledger detect events carry global
  /// pattern indices (64 * block + lane) across a whole campaign.
  long blocks_run_ = 0;
};

/// Convenience: coverage of `faults` under `blocks` of PI patterns.
/// Returns the fraction detected; `detected` (optional) receives the mask.
/// Grades block by block with fault dropping on the 64-lane engine; the
/// ledger records each fault's first detecting pattern (64 * block + lane).
double fault_coverage(const Netlist& n,
                      const std::vector<std::vector<Bits>>& blocks,
                      const std::vector<Fault>& faults,
                      std::vector<bool>* detected = nullptr,
                      const FaultSimOptions& options = {});

/// Full detection matrix, no fault dropping: grades every fault against
/// every block and fills `masks[f * blocks.size() + b]` with the 64-bit
/// lane mask of block b detecting fault f. This is the workload shape of
/// N-detect grading and compaction's reverse-order pruning. Grades block
/// by block on FaultSimulator::run_block_detail, one good-machine pass and
/// one propagation per fault per block.
void detection_masks(const Netlist& n,
                     const std::vector<std::vector<Bits>>& blocks,
                     const std::vector<Fault>& faults,
                     std::vector<std::uint64_t>& masks,
                     const FaultSimOptions& options = {});

/// Per-fault sequential simulation over a vector sequence (64 lanes of
/// sequences in parallel; lane l of frame f is vector f of sequence l).
/// FFs start unknown. Dense: the good trace is simulated once, then each
/// fault re-simulates every gate of every frame on the SimGraph arrays
/// with the fault injected, carrying its own flip-flop state across frame
/// boundaries, and stops at its first detecting frame. The fault list is
/// spread over the worker pool with chunked work-stealing (per-worker
/// scratch, allocated once). Returns the detected mask.
std::vector<bool> sequential_fault_sim(
    const Netlist& n, const std::vector<std::vector<Bits>>& input_frames,
    const std::vector<Fault>& faults, const FaultSimOptions& options = {});

/// Reference implementation of sequential_fault_sim: full-circuit
/// re-simulation of every frame for every fault on the pointer Netlist,
/// single-threaded. Kept as the independent equivalence oracle for tests,
/// the end-to-end benchmark, and the baseline for the perf bench.
std::vector<bool> sequential_fault_sim_full_resim(
    const Netlist& n, const std::vector<std::vector<Bits>>& input_frames,
    const std::vector<Fault>& faults);

}  // namespace tsyn::gl
