// RTL-to-gate expansion.
//
// Turns a datapath (and optionally its controller) into a stuck-at-testable
// gate netlist: registers become DFF vectors with hold muxes, FUs become
// ripple/array arithmetic with opcode muxing, multi-driver ports become
// binary-selected mux trees. Scan/BIST registers (test_kind != kNone) are
// modelled the standard ATPG way: their Q bits become pseudo primary inputs
// and their D bits pseudo primary outputs.
//
// When no controller is supplied, every control line (mux selects, load
// enables, opcodes) becomes a free primary input — the "control signals
// fully controllable in test mode" assumption of §3.5. Supplying the
// controller instead synthesizes the control FSM (step counter + vector
// decode) so composite controller/datapath testability can be measured
// ([14]).
#pragma once

#include <vector>

#include "gatelevel/netlist.h"
#include "observe/provenance.h"
#include "rtl/controller.h"
#include "rtl/datapath.h"

namespace tsyn::gl {

struct ExpandOptions {
  /// Treat registers with test_kind != kNone as scanned (PI/PO pseudo
  /// ports). Set false to expand the purely functional circuit.
  bool respect_scan = true;
  /// Synthesize this controller to drive the control lines; nullptr leaves
  /// them as free primary inputs.
  const rtl::Controller* controller = nullptr;
  /// With a controller: how many of its vectors are functional (the rest
  /// are appended test vectors). -1 = all functional.
  int num_reachable_vectors = -1;
  /// Test-mode strap: when true the step counter wraps after ALL vectors
  /// (test vectors reachable); when false it wraps after the functional
  /// ones. Both straps produce structurally identical netlists (fault
  /// lists align 1:1) — only the tied mode constant differs.
  bool test_mode = false;
  /// Override every component width (0 = keep datapath widths). Gate-level
  /// experiments typically use 4-8 bits to keep fault lists tractable.
  int width_override = 0;
  /// Record the node -> RTL component provenance map into
  /// ExpandedDesign::provenance (observe/provenance.h). On by default —
  /// recording is a serial O(components) bookkeeping pass on top of
  /// expansion (the <= 2% bench_faultsim_perf budget); set false for
  /// rigs that churn thousands of expansions.
  bool record_provenance = true;
};

/// Expansion result with the cross-reference maps experiments need.
struct ExpandedDesign {
  Netlist netlist;
  /// Q-side node per register bit (PI nodes when the register is scanned).
  std::vector<std::vector<int>> reg_q;
  /// D-side node per register bit (also marked PO when scanned).
  std::vector<std::vector<int>> reg_d;
  /// Nodes of each datapath primary input, per bit.
  std::vector<std::vector<int>> pi_nodes;
  /// Output nodes of each FU, per bit.
  std::vector<std::vector<int>> fu_out;
  /// Free control-line inputs (empty when a controller was synthesized).
  std::vector<int> control_inputs;
  /// Counter state FFs of the synthesized controller (empty otherwise).
  std::vector<int> controller_state;
  /// Node -> RTL component -> CDFG op map (empty when
  /// ExpandOptions::record_provenance is false). Every node is attributed
  /// to exactly one component; control lines belong to the mux they feed.
  observe::ProvenanceMap provenance;

  bool sequential() const { return !netlist.flops().empty(); }
};

/// Expands the datapath per the options. Throws std::invalid_argument if a
/// component's resolved width (after width_override) falls outside
/// [1, cdfg::kMaxWordWidth], and std::runtime_error if the controller's
/// signal list does not match the datapath structure.
ExpandedDesign expand_datapath(const rtl::Datapath& dp,
                               const ExpandOptions& opts = {});

// ---- reusable word-level construction helpers (also used by tests) ----

using Word = std::vector<int>;  ///< node ids, LSB first

Word make_input_word(Netlist& n, const std::string& name, int width);
Word make_const_word(Netlist& n, long value, int width);
Word bitwise(Netlist& n, GateType type, const Word& a, const Word& b);
Word invert(Netlist& n, const Word& a);
/// a + b + cin; drops the carry-out unless `cout` is non-null.
Word ripple_add(Netlist& n, const Word& a, const Word& b, int cin_node,
                int* cout = nullptr);
Word ripple_sub(Netlist& n, const Word& a, const Word& b,
                int* borrow_out = nullptr);
/// Unsigned less-than: single node.
int less_than(Netlist& n, const Word& a, const Word& b);
/// Equality: single node.
int equal(Netlist& n, const Word& a, const Word& b);
/// Truncated array multiplier (low `width(a)` bits of a*b).
Word array_multiply(Netlist& n, const Word& a, const Word& b);
/// sel ? a : b, per bit.
Word mux_word(Netlist& n, int sel, const Word& a, const Word& b);
/// Binary mux tree over k sources; `sel_bits` has ceil(log2 k) lines,
/// sel_bits[i] = bit i of the source index. k == 1 needs no lines.
Word mux_tree(Netlist& n, const std::vector<Word>& sources,
              const std::vector<int>& sel_bits);
/// Number of select lines a k-way mux needs.
int select_width(int num_choices);

/// Combinational result of one operation kind over word operands (c is the
/// third operand for mux). The building block FU expansion uses; also
/// handy for standalone module netlists in hierarchical ATPG.
Word build_op_result(Netlist& n, cdfg::OpKind kind, const Word& a,
                     const Word& b, const Word& c);

/// Standalone netlist of one FU: operand words as PIs, opcode-select PIs
/// when it implements several kinds, result bits as POs.
Netlist expand_standalone_fu(const std::vector<cdfg::OpKind>& kinds,
                             int width);

}  // namespace tsyn::gl
