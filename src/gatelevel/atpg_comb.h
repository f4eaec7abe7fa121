// Combinational ATPG (PODEM).
//
// Generates a primary-input assignment detecting a given stuck-at fault,
// with decision/backtrack counters exposed — the surveyed empirical law
// (§3.1: ATPG effort vs loop length and sequential depth) is measured with
// these counters. Multi-site targets (the same fault replicated across time
// frames) support the sequential engine in atpg_seq.h.
//
// Implication is event-driven on the netlist's SimGraph: one full pass per
// target, then each decision, flip or unassignment re-evaluates only the
// gates whose fanin values it changed. The x-path check and the D-frontier
// scan stay inside the target's fault cone. Neither changes a single search
// step, so the effort counters are exactly those of a search that
// re-evaluates the whole netlist per decision.
#pragma once

#include <cstdint>
#include <vector>

#include "gatelevel/faults.h"
#include "gatelevel/faultsim.h"
#include "gatelevel/netlist.h"
#include "gatelevel/simgraph.h"

namespace tsyn::gl {

/// Scalar ternary value.
enum class V : std::uint8_t { k0, k1, kX };

inline V operator!(V v) {
  if (v == V::kX) return V::kX;
  return v == V::k0 ? V::k1 : V::k0;
}

struct AtpgStats {
  long decisions = 0;
  long backtracks = 0;
  long implications = 0;
};

enum class AtpgStatus { kDetected, kUntestable, kAborted };

struct AtpgResult {
  AtpgStatus status = AtpgStatus::kAborted;
  /// PI assignment (by position in primary_inputs()); kX = unconstrained.
  std::vector<V> pi_values;
  AtpgStats stats;
};

/// PODEM test generator over a combinational netlist.
class Podem {
 public:
  explicit Podem(const Netlist& n);

  /// Generates a test for one fault (or one fault replicated over several
  /// sites, which must be behaviorally the same defect — used for
  /// time-frame expansion).
  AtpgResult generate(const Fault& fault, long backtrack_limit = 10000);
  AtpgResult generate_multi(const std::vector<Fault>& sites,
                            long backtrack_limit = 10000);

  /// Like generate_multi, but the search starts from a partial test cube
  /// `base` (by PI position; kX = free). Specified base bits are immutable
  /// givens: only the remaining X inputs are assigned and backtracked, so a
  /// kDetected result's pi_values is a refinement of `base` (every
  /// specified base bit is preserved). kUntestable here means untestable
  /// UNDER the base cube — the fault may well be testable with other base
  /// bits. This is the compatibility test dynamic compaction
  /// (compaction/compaction.h) is built on: merge a secondary fault's test
  /// into the unspecified bits of an already-generated cube.
  AtpgResult generate_multi_from_base(const std::vector<Fault>& sites,
                                      const std::vector<V>& base,
                                      long backtrack_limit = 10000);

  /// PIs the generator must leave at X (e.g. unknowable initial state of a
  /// time-frame-0 pseudo input). Indices into primary_inputs().
  void freeze_inputs(const std::vector<int>& pi_positions);

  /// Enables SCOAP-guided backtrace: at each gate the cheapest
  /// controllable input (by CC0/CC1) is pursued instead of the first X
  /// input. Usually cuts backtracks on arithmetic logic.
  void use_scoap_guidance(bool enable);

 private:
  /// Per-target setup: marks the site nodes, collects the fault cone and
  /// runs the one full implication pass.
  void begin_target(const std::vector<Fault>& sites);
  /// Sets a PI's assignment and queues it for the next imply().
  void assign(int pi, V value);
  /// Event-driven implication: re-evaluates the queued PIs and, level by
  /// level, the fanouts of every node whose good or faulty value changed.
  void imply(const std::vector<Fault>& sites);
  /// Good/faulty value of `id` from its current fanin values, with the
  /// target's pin and output overrides applied.
  Bits eval(int id, const std::vector<Fault>& sites) const;
  V good(int id) const;
  bool detected_at_po() const;
  bool x_path_exists(const std::vector<Fault>& sites);
  /// Finds the next PI assignment: enumerates candidate objectives
  /// (activation sites, pin-fault side inputs, D-frontier inputs) and
  /// returns the first whose backtrace reaches an assignable PI.
  bool next_assignment(const std::vector<Fault>& sites, int* pi_node,
                       V* pi_value) const;
  /// Maps an objective to an unassigned PI; returns false if blocked.
  bool backtrace(int node, V value, int* pi_node, V* pi_value) const;

  void rebuild_assignable_cones();
  /// Advances the visit epoch of mark_, clearing it on wrap-around.
  int next_mark();

  const Netlist& n_;
  const SimGraph& g_;
  /// Node values on two lanes of Bits: lane 0 the good machine, lane 1
  /// the faulty machine (eval_gate evaluates both at once).
  std::vector<Bits> vals_;
  std::vector<V> pi_assignment_;   // by node id
  std::vector<char> frozen_;       // by node id
  /// Node has an assignable (non-frozen) PI in its transitive fanin — the
  /// backtrace only descends into such cones.
  std::vector<char> assignable_cone_;
  /// SCOAP guidance (optional): cc0_/cc1_ empty when disabled.
  std::vector<int> cc0_;
  std::vector<int> cc1_;
  std::vector<int> topo_pos_;      // node id -> Netlist::topo_order() index
  /// Site nodes of the current target carry its number here.
  std::vector<int> site_stamp_;
  int target_ = 0;
  /// Transitive fanout of the current target's sites in topo_order()
  /// order, and the primary outputs among them. Outside the cone the good
  /// and faulty planes agree, so effect searches never leave it.
  std::vector<int> cone_;
  std::vector<int> cone_pos_;
  std::vector<int> pending_;       // PIs reassigned since the last imply()
  /// imply()'s per-level worklists, deduplicated by epoch stamps.
  std::vector<int> sched_stamp_, lvl_stamp_;
  std::vector<std::vector<int>> lvl_nodes_;
  int epoch_ = 0;
  /// Visit stamps and queue shared by the cone walk and x_path_exists.
  std::vector<int> mark_;
  std::vector<int> queue_;
  int mark_epoch_ = 0;
  AtpgStats stats_;
};

/// Seed of the Rng that fills a test cube's X inputs for fault-dropping
/// simulation in run_combinational_atpg. The fill is RANDOM, not 0-fill:
/// every kX input of a generated cube becomes an independent 64-bit word,
/// so each cube is graded as 64 distinct random completions. Exposed (and
/// the graded blocks recorded in AtpgCampaign::graded_fill) so downstream
/// consumers — the compaction subsystem's coverage accounting in
/// particular — can reproduce the campaign's detection decisions
/// bit-for-bit instead of guessing at an implicit fill.
inline constexpr std::uint64_t kAtpgGradeFillSeed = 0x7357;

/// Full-scan campaign: runs PODEM on every fault, fault-simulating each
/// generated test against the remaining faults (test compaction by fault
/// dropping). Returns per-fault status and the test set.
struct AtpgCampaign {
  std::vector<AtpgStatus> status;
  /// Raw ternary cubes as PODEM produced them (kX = unspecified).
  std::vector<std::vector<V>> tests;
  /// The exact 64-lane block each cube was graded with: specified bits are
  /// all0/all1 across lanes, X bits are random words drawn from an Rng
  /// seeded with kAtpgGradeFillSeed (one stream across the whole campaign,
  /// consumed in test order). graded_fill[i] corresponds to tests[i];
  /// `status` marks a fault kDetected exactly when one of these blocks'
  /// lanes detects it. Lane l of block i is therefore a fully-specified
  /// pattern the campaign actually takes credit for.
  std::vector<std::vector<Bits>> graded_fill;
  AtpgStats total;
  double fault_efficiency = 0;  ///< (detected + proven untestable) / total
  double fault_coverage = 0;    ///< detected / total
};

/// `sim_options` controls the fault-dropping simulator's parallelism.
AtpgCampaign run_combinational_atpg(const Netlist& n,
                                    const std::vector<Fault>& faults,
                                    long backtrack_limit = 10000,
                                    const FaultSimOptions& sim_options = {});

}  // namespace tsyn::gl
