// Fault simulation.
//
// Parallel-pattern single-fault propagation with fault dropping for
// combinational circuits — the workhorse behind every fault-coverage
// number in the benches (full-scan coverage, BIST coverage, test-point
// evaluation). One engine per job shape, all on the compiled SoA form
// (simgraph.h): levelized order, flat fanin/fanout arenas, per-level
// event worklists.
//
//  - Fault-dropping grading (fault_coverage, FaultSimulator) runs the
//    64-lane (W=1) instance of the propagation template in
//    faultsim_wide.h, one block per good-machine pass.
//  - A no-drop detection matrix (detection_masks) runs the same W=1 engine
//    below 8 blocks and the 512-lane (W=8) instance, SIMD-dispatched
//    (widebits.h), from 8 blocks up. The width follows the job; no option
//    chooses it, and both widths give bit-identical masks.
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
#include "gatelevel/faultsim_wide.h"
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

  /// PODEM wave width for ATPG campaigns: the campaign takes this many
  /// still-undetected faults at a time, generates their tests concurrently
  /// over `num_threads` workers (each worker's AtpgStats are summed into
  /// the campaign totals — never last-writer-wins), then grades the wave's
  /// tests serially so fault dropping stays deterministic for a fixed wave
  /// width. 1 = fault-by-fault serial generation, bit-identical to the
  /// pre-parallel engine (the default, so results never silently vary with
  /// the host's core count); 0 = one wave per resolved_threads().
  int atpg_wave = 1;

  /// num_threads with 0 resolved to the hardware parallelism (>= 1).
  int resolved_threads() const;

  /// atpg_wave with 0 resolved to the worker count.
  int resolved_atpg_wave() const {
    return atpg_wave > 0 ? atpg_wave : resolved_threads();
  }
};

/// Per-thread fault-propagation scratch: the W=1 instance of the one
/// propagation engine (faultsim_wide.h). propagate(f, good) runs one fault
/// against node-indexed good values and returns the 64-bit lane mask of
/// primary outputs where the faulty machine provably differs; the work
/// counters (events_processed, faults_propagated, last_propagate_events,
/// reset_work_counters) feed the metrics registry and the ledger.
using FaultPropagator = wide_detail::WideProp<1, ScalarWords<1>>;

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
  /// skip[i] is true).
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
/// N-detect grading and compaction's reverse-order pruning. Below 8
/// blocks it runs the 64-lane engine block by block; from 8 blocks up the
/// 512-lane engine grades 8 blocks per good-machine pass and per fault
/// propagation (the last pass padded with inert all-X blocks). The masks
/// are bit-identical either way; only the per-fault simulation effort the
/// ledger records differs.
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
