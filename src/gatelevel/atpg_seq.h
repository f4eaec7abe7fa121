// Sequential ATPG via time-frame expansion (§3.1, §3.3).
//
// Unrolls the sequential circuit over k frames (frame-0 state unknown),
// replicates the target fault in every frame, and runs PODEM on the unrolled
// combinational circuit, growing k until the fault is detected or limits are
// hit. Decision/backtrack counters aggregate across frame counts — the
// quantity that grows exponentially with S-graph cycle length and linearly
// with sequential depth in the empirical observation the survey builds on
// ([10],[22]).
#pragma once

#include <vector>

#include "gatelevel/atpg_comb.h"
#include "gatelevel/faultsim.h"
#include "gatelevel/netlist.h"

namespace tsyn::gl {

/// Time-frame expansion of a sequential netlist.
struct Unrolled {
  Netlist net;
  int frames = 0;
  /// node id in `net` of (frame, original node).
  std::vector<std::vector<int>> node_map;
  /// PI positions in `net` of frame-0 pseudo inputs (must stay X).
  std::vector<int> frozen_pi_positions;
  /// PI position in `net` of (frame, original PI position).
  std::vector<std::vector<int>> pi_map;

  /// The fault's per-frame replicas.
  std::vector<Fault> map_fault(const Fault& f) const;
};

/// `initial_state` (optional, by flop position, kX = unknown) pins frame-0
/// flop values to constants — the "test begins after a fault-free warm-up
/// sequence" convention practical sequential ATPG uses. Unknown entries
/// stay frozen pseudo inputs.
Unrolled unroll(const Netlist& n, int frames,
                const std::vector<V>* initial_state = nullptr);

struct SeqAtpgResult {
  AtpgStatus status = AtpgStatus::kAborted;
  int frames_used = 0;
  AtpgStats stats;  ///< aggregated over all frame counts tried
  /// Per-frame PI assignment (frame-major, by PI position), when detected.
  std::vector<std::vector<V>> frame_inputs;
};

/// Generates a sequential test for `fault`, trying 1..max_frames frames.
SeqAtpgResult sequential_atpg(const Netlist& n, const Fault& fault,
                              int max_frames = 12,
                              long backtrack_limit = 20000,
                              const std::vector<V>* initial_state = nullptr,
                              int min_frames = 1);

/// Campaign over a fault list; reports coverage, efficiency and total
/// effort. Detected tests are fault-simulated sequentially to drop other
/// faults.
struct SeqAtpgCampaign {
  long detected = 0;
  long untestable = 0;
  long aborted = 0;
  AtpgStats total;
  double fault_coverage = 0;
  double fault_efficiency = 0;
};

/// `sim_options.num_threads` sets the campaign's worker count: PODEM
/// targets run on that many pool workers and commit in fault order, so
/// every count and status equals the serial campaign's at any thread
/// count. With the fault ledger on the campaign runs on one worker. The
/// grading simulation that drops other faults caught by each generated
/// sequence runs inside a commit, on one thread.
SeqAtpgCampaign run_sequential_atpg(const Netlist& n,
                                    const std::vector<Fault>& faults,
                                    int max_frames = 12,
                                    long backtrack_limit = 20000,
                                    const FaultSimOptions& sim_options = {});

}  // namespace tsyn::gl
