#include "gatelevel/expand.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "cdfg/ir.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace tsyn::gl {

Word make_input_word(Netlist& n, const std::string& name, int width) {
  Word w(width);
  for (int i = 0; i < width; ++i)
    w[i] = n.add_input(name + "[" + std::to_string(i) + "]");
  return w;
}

Word make_const_word(Netlist& n, long value, int width) {
  Word w(width);
  for (int i = 0; i < width; ++i) w[i] = n.add_const((value >> i) & 1);
  return w;
}

Word bitwise(Netlist& n, GateType type, const Word& a, const Word& b) {
  assert(a.size() == b.size());
  Word w(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    w[i] = n.add_gate(type, {a[i], b[i]});
  return w;
}

namespace {

/// One AND or OR over `ins` (size >= 2), split into a tree of gates with
/// at most kMaxFanin fanins each when it is wider than that.
int nary_gate(Netlist& n, GateType type, std::vector<int> ins) {
  assert(type == GateType::kAnd || type == GateType::kOr);
  while (ins.size() > static_cast<std::size_t>(kMaxFanin)) {
    std::vector<int> level;
    for (std::size_t lo = 0; lo < ins.size(); lo += kMaxFanin) {
      const std::size_t hi = std::min(ins.size(), lo + kMaxFanin);
      level.push_back(hi - lo == 1
                          ? ins[lo]
                          : n.add_gate(type, std::vector<int>(
                                                 ins.begin() + lo,
                                                 ins.begin() + hi)));
    }
    ins = std::move(level);
  }
  return n.add_gate(type, ins);
}

}  // namespace

Word invert(Netlist& n, const Word& a) {
  Word w(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    w[i] = n.add_gate(GateType::kNot, {a[i]});
  return w;
}

Word ripple_add(Netlist& n, const Word& a, const Word& b, int cin_node,
                int* cout) {
  assert(a.size() == b.size());
  Word sum(a.size());
  int carry = cin_node;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const int axb = n.add_gate(GateType::kXor, {a[i], b[i]});
    sum[i] = n.add_gate(GateType::kXor, {axb, carry});
    // The last bit's carry is dead logic unless the caller wants cout;
    // building it would create structurally undetectable faults.
    if (i + 1 == a.size() && !cout) break;
    const int t1 = n.add_gate(GateType::kAnd, {a[i], b[i]});
    const int t2 = n.add_gate(GateType::kAnd, {axb, carry});
    carry = n.add_gate(GateType::kOr, {t1, t2});
  }
  if (cout) *cout = carry;
  return sum;
}

Word ripple_sub(Netlist& n, const Word& a, const Word& b, int* borrow_out) {
  const Word nb = invert(n, b);
  int cout = -1;
  const Word diff = ripple_add(n, a, nb, n.add_const(true),
                               borrow_out ? &cout : nullptr);
  if (borrow_out) *borrow_out = n.add_gate(GateType::kNot, {cout});
  return diff;
}

int less_than(Netlist& n, const Word& a, const Word& b) {
  // Borrow chain of a - b only (no dead difference bits): unsigned a < b.
  const Word nb = invert(n, b);
  int carry = n.add_const(true);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const int axb = n.add_gate(GateType::kXor, {a[i], nb[i]});
    const int t1 = n.add_gate(GateType::kAnd, {a[i], nb[i]});
    const int t2 = n.add_gate(GateType::kAnd, {axb, carry});
    carry = n.add_gate(GateType::kOr, {t1, t2});
  }
  return n.add_gate(GateType::kNot, {carry});
}

int equal(Netlist& n, const Word& a, const Word& b) {
  assert(a.size() == b.size());
  std::vector<int> eq_bits;
  for (std::size_t i = 0; i < a.size(); ++i)
    eq_bits.push_back(n.add_gate(GateType::kXnor, {a[i], b[i]}));
  if (eq_bits.size() == 1) return eq_bits[0];
  return nary_gate(n, GateType::kAnd, std::move(eq_bits));
}

Word array_multiply(Netlist& n, const Word& a, const Word& b) {
  const int width = static_cast<int>(a.size());
  // Accumulate shifted partial products; truncate to `width` bits.
  Word acc = make_const_word(n, 0, width);
  for (int i = 0; i < width; ++i) {
    Word pp(width);
    for (int j = 0; j < width; ++j) {
      if (j < i)
        pp[j] = n.add_const(false);
      else
        pp[j] = n.add_gate(GateType::kAnd, {a[j - i], b[i]});
    }
    acc = ripple_add(n, acc, pp, n.add_const(false));
  }
  return acc;
}

Word mux_word(Netlist& n, int sel, const Word& a, const Word& b) {
  assert(a.size() == b.size());
  Word w(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    w[i] = n.add_gate(GateType::kMux, {sel, b[i], a[i]});  // sel ? a : b
  return w;
}

int select_width(int num_choices) {
  int bits = 0;
  while ((1 << bits) < num_choices) ++bits;
  return bits;
}

namespace {

Word mux_tree_rec(Netlist& n, const std::vector<Word>& sources, int lo,
                  int hi, const std::vector<int>& sel_bits, int level) {
  if (hi - lo == 1) return sources[lo];
  const int span = 1 << level;
  const int mid = std::min(lo + span, hi);
  const Word low = mux_tree_rec(n, sources, lo, mid, sel_bits, level - 1);
  if (mid >= hi) {
    // High half empty: still insert the mux so the select line is
    // structurally present (ATPG sees the same interconnect the controller
    // drives); both legs are the low result.
    return mux_word(n, sel_bits[level], low, low);
  }
  const Word high = mux_tree_rec(n, sources, mid, hi, sel_bits, level - 1);
  // sel bit set -> take the high half.
  return mux_word(n, sel_bits[level], high, low);
}

}  // namespace

Word mux_tree(Netlist& n, const std::vector<Word>& sources,
              const std::vector<int>& sel_bits) {
  assert(!sources.empty());
  if (sources.size() == 1) return sources[0];
  const int bits = select_width(static_cast<int>(sources.size()));
  assert(static_cast<int>(sel_bits.size()) >= bits);
  return mux_tree_rec(n, sources, 0, static_cast<int>(sources.size()),
                      sel_bits, bits - 1);
}

namespace {

using rtl::Source;

/// RAII provenance scope: nodes created while alive attribute to `comp`.
/// No-op when the builder records nothing (comp < 0 attributes to none).
class ProvScope {
 public:
  ProvScope(observe::ProvenanceBuilder& b, const Netlist& n, int comp)
      : b_(b), n_(n) {
    b_.push(comp, n_.num_nodes());
  }
  ~ProvScope() { b_.pop(n_.num_nodes()); }
  ProvScope(const ProvScope&) = delete;
  ProvScope& operator=(const ProvScope&) = delete;

 private:
  observe::ProvenanceBuilder& b_;
  const Netlist& n_;
};

/// Builds all control lines either as free inputs or from a synthesized
/// controller decode, in the exact signal order of hls::build_rtl.
class ControlPlane {
 public:
  ControlPlane(Netlist& n, const ExpandOptions& opts) : n_(n), opts_(opts) {}

  /// Registers a consumer needing `width` lines for controller signal
  /// `signal_index` (the next signal in order). Returns the line nodes.
  /// For free-input mode, `name` labels the PIs.
  std::vector<int> lines(const std::string& name, int width) {
    std::vector<int> nodes;
    if (!opts_.controller) {
      for (int i = 0; i < width; ++i) {
        nodes.push_back(n_.add_input(name + "#" + std::to_string(i)));
        free_inputs_.push_back(nodes.back());
      }
    } else {
      if (next_signal_ >= opts_.controller->num_signals())
        throw std::runtime_error("controller has fewer signals than the "
                                 "datapath needs");
      nodes = decode_signal(next_signal_, width);
    }
    ++next_signal_;
    return nodes;
  }

  /// Builds the step counter + one-hot decode. Call before any lines() in
  /// controller mode.
  void build_counter(std::vector<int>* state_ffs) {
    if (!opts_.controller) return;
    // The decode always covers ALL vectors; reachability is enforced only
    // by the wrap target, selected by a tied test-mode constant through
    // fold-free muxes. The functional-only and test-augmented variants are
    // then structurally identical (fault lists align 1:1) — exactly how a
    // real [14] controller is built, with the test states present but
    // unreachable without test mode.
    const int total = opts_.controller->num_vectors();
    const int functional = opts_.num_reachable_vectors < 0
                               ? total
                               : opts_.num_reachable_vectors;
    num_vectors_ = total;
    const int bits = std::max(select_width(total), 1);
    // State FFs with a synchronous reset (every real controller has one;
    // without it sequential ATPG could never leave the unknown state).
    const int reset = n_.add_input("ctl_reset");
    Word state(bits);
    for (int i = 0; i < bits; ++i)
      state[i] = n_.add_dff(-1, "ctl_state" + std::to_string(i));
    // next = reset ? 0 : (state == wrap target) ? 0 : state + 1, where the
    // wrap target is functional-1 or total-1 by the test-mode strap.
    const Word one = make_const_word(n_, 1, bits);
    const Word inc = ripple_add(n_, state, one, n_.add_const(false));
    const int mode = n_.add_const(opts_.test_mode);
    const Word func_w = make_const_word(n_, functional - 1, bits);
    const Word full_w = make_const_word(n_, total - 1, bits);
    Word target(bits);
    for (int i = 0; i < bits; ++i)
      target[i] =
          n_.add_gate_raw(GateType::kMux, {mode, func_w[i], full_w[i]});
    const int wrap = equal(n_, state, target);
    Word next = mux_word(n_, wrap, make_const_word(n_, 0, bits), inc);
    next = mux_word(n_, reset, make_const_word(n_, 0, bits), next);
    for (int i = 0; i < bits; ++i) n_.set_dff_input(state[i], next[i]);
    // One-hot decode per vector.
    onehot_.resize(total);
    for (int v = 0; v < total; ++v) {
      std::vector<int> terms;
      for (int i = 0; i < bits; ++i) {
        const int bit = state[i];
        terms.push_back((v >> i) & 1
                            ? bit
                            : n_.add_gate(GateType::kNot, {bit}));
      }
      onehot_[v] = terms.size() == 1
                       ? terms[0]
                       : nary_gate(n_, GateType::kAnd, std::move(terms));
    }
    if (state_ffs) *state_ffs = state;
  }

  const std::vector<int>& free_inputs() const { return free_inputs_; }

 private:
  std::vector<int> decode_signal(int signal, int width) {
    std::vector<int> out(width);
    for (int b = 0; b < width; ++b) {
      std::vector<int> ones;
      for (int v = 0; v < num_vectors_; ++v) {
        const int value = opts_.controller->vector(v)[signal];
        // Don't-cares (-1) decode as 0.
        if (value >= 0 && ((value >> b) & 1)) ones.push_back(onehot_[v]);
      }
      if (ones.empty())
        out[b] = n_.add_const(false);
      else if (ones.size() == 1)
        out[b] = n_.add_gate(GateType::kBuf, {ones[0]});
      else
        out[b] = nary_gate(n_, GateType::kOr, std::move(ones));
    }
    return out;
  }

  Netlist& n_;
  const ExpandOptions& opts_;
  int next_signal_ = 0;
  int num_vectors_ = 0;
  std::vector<int> onehot_;
  std::vector<int> free_inputs_;
};

}  // namespace

Word build_op_result(Netlist& n, cdfg::OpKind kind, const Word& a,
                     const Word& b, const Word& c) {
  const int width = static_cast<int>(a.size());
  auto flag_word = [&](int flag) {
    Word w = make_const_word(n, 0, width);
    w[0] = flag;
    return w;
  };
  switch (kind) {
    case cdfg::OpKind::kAdd:
      return ripple_add(n, a, b, n.add_const(false));
    case cdfg::OpKind::kSub:
      return ripple_sub(n, a, b);
    case cdfg::OpKind::kMul:
      return array_multiply(n, a, b);
    case cdfg::OpKind::kDiv:
      // Restoring division is enormous at gate level; the benchmarks do not
      // use it. Approximate with a subtract so the unit is still testable
      // logic rather than a stub.
      return ripple_sub(n, a, b);
    case cdfg::OpKind::kAnd:
      return bitwise(n, GateType::kAnd, a, b);
    case cdfg::OpKind::kOr:
      return bitwise(n, GateType::kOr, a, b);
    case cdfg::OpKind::kXor:
      return bitwise(n, GateType::kXor, a, b);
    case cdfg::OpKind::kNot:
      return invert(n, a);
    case cdfg::OpKind::kNeg:
      return ripple_sub(n, make_const_word(n, 0, width), a);
    case cdfg::OpKind::kShl: {
      Word w(width);
      w[0] = n.add_const(false);
      for (int i = 1; i < width; ++i) w[i] = a[i - 1];
      return w;
    }
    case cdfg::OpKind::kShr: {
      Word w(width);
      for (int i = 0; i + 1 < width; ++i) w[i] = a[i + 1];
      w[width - 1] = n.add_const(false);
      return w;
    }
    case cdfg::OpKind::kLt:
      return flag_word(less_than(n, a, b));
    case cdfg::OpKind::kEq:
      return flag_word(equal(n, a, b));
    case cdfg::OpKind::kMux: {
      // op inputs: {sel, x, y} -> sel ? x : y; sel = bit 0 of port 0.
      return mux_word(n, a[0], b, c);
    }
    case cdfg::OpKind::kCopy:
      return a;
  }
  throw std::runtime_error("unsupported op kind in expansion");
}

Netlist expand_standalone_fu(const std::vector<cdfg::OpKind>& kinds,
                             int width) {
  Netlist n;
  const Word a = make_input_word(n, "a", width);
  const Word b = make_input_word(n, "b", width);
  const Word c = make_input_word(n, "c", width);
  std::vector<Word> results;
  for (cdfg::OpKind k : kinds)
    results.push_back(build_op_result(n, k, a, b, c));
  std::vector<int> op_sel;
  if (results.size() > 1) {
    const int bits = select_width(static_cast<int>(results.size()));
    for (int i = 0; i < bits; ++i)
      op_sel.push_back(n.add_input("op" + std::to_string(i)));
  }
  const Word out = mux_tree(n, results, op_sel);
  for (int bit : out) n.mark_output(bit);
  n.validate();
  return n;
}

ExpandedDesign expand_datapath(const rtl::Datapath& dp,
                               const ExpandOptions& opts) {
  TSYN_SPAN("gl.netlist_expand");
  ExpandedDesign out;
  Netlist& n = out.netlist;

  auto width_of = [&](int w) {
    return opts.width_override > 0 ? opts.width_override : w;
  };
  // Words are built bit by bit from 64-bit values (constants, decoded
  // controller fields), so a wider word has no defined bits to take.
  auto check_width = [&](int w, const std::string& what) {
    if (w < 1 || w > cdfg::kMaxWordWidth)
      throw std::invalid_argument(
          "expand_datapath: " + what + " width " + std::to_string(w) +
          " out of range [1, " + std::to_string(cdfg::kMaxWordWidth) + "]");
  };
  for (const auto& r : dp.regs) check_width(width_of(r.width), r.name);
  for (const auto& f : dp.fus) check_width(width_of(f.width), f.name);
  for (const auto& pi : dp.primary_inputs)
    check_width(width_of(pi.width), pi.name);
  for (const auto& c : dp.constants) check_width(width_of(c.width), c.name);

  {
    // Pre-size the node table (and the name map) from the datapath shape:
    // a register bit costs a DFF plus a scan/steering mux or two, an FU
    // bit a few dozen gates, plus the port muxes and the controller. A
    // rough over-estimate is fine — this is a capacity hint, not a limit.
    long est = 64;  // controller counter/decode and misc slack
    for (const auto& r : dp.regs) est += 6L * width_of(r.width);
    for (const auto& f : dp.fus) est += 40L * width_of(f.width);
    est += 2L * dp.mux2_count();
    for (const auto& pi : dp.primary_inputs) est += width_of(pi.width);
    for (const auto& c : dp.constants) est += width_of(c.width);
    n.reserve_nodes(static_cast<int>(std::min<long>(est, 1L << 24)));
  }

  // Provenance: the component table comes straight from the datapath; the
  // node attribution streams out of the scopes below. Control lines and
  // their decode attribute to the mux that consumes them; only the shared
  // step counter and one-hot belong to the controller component.
  if (opts.record_provenance)
    out.provenance =
        observe::make_component_map(dp, opts.controller != nullptr);
  observe::ProvenanceBuilder prov(
      opts.record_provenance ? &out.provenance : nullptr);
  using observe::CompKind;
  auto comp = [&](CompKind kind, int index, int port = -1) {
    return prov.enabled() ? out.provenance.find(kind, index, port) : -1;
  };

  ControlPlane ctl(n, opts);
  {
    ProvScope scope(prov, n, comp(CompKind::kController, -1));
    ctl.build_counter(&out.controller_state);
  }

  // Primary inputs and constants.
  out.pi_nodes.resize(dp.primary_inputs.size());
  for (std::size_t i = 0; i < dp.primary_inputs.size(); ++i) {
    ProvScope scope(prov, n,
                    comp(CompKind::kPrimaryInput, static_cast<int>(i)));
    out.pi_nodes[i] = make_input_word(n, dp.primary_inputs[i].name,
                                      width_of(dp.primary_inputs[i].width));
  }
  std::vector<Word> const_words(dp.constants.size());
  for (std::size_t i = 0; i < dp.constants.size(); ++i) {
    ProvScope scope(prov, n, comp(CompKind::kConstant, static_cast<int>(i)));
    const_words[i] = make_const_word(n, dp.constants[i].value,
                                     width_of(dp.constants[i].width));
  }

  // Register Q sides first (so FU inputs can reference them).
  const int num_regs = dp.num_regs();
  out.reg_q.resize(num_regs);
  out.reg_d.resize(num_regs);
  std::vector<bool> scanned(num_regs, false);
  for (int r = 0; r < num_regs; ++r) {
    const rtl::RegisterInfo& reg = dp.regs[r];
    const int w = width_of(reg.width);
    scanned[r] =
        opts.respect_scan && reg.test_kind != rtl::TestRegKind::kNone;
    ProvScope scope(prov, n, comp(CompKind::kRegister, r));
    out.reg_q[r].resize(w);
    for (int i = 0; i < w; ++i) {
      out.reg_q[r][i] =
          scanned[r]
              ? n.add_input(reg.name + ".q" + std::to_string(i))
              : n.add_dff(-1, reg.name + ".q" + std::to_string(i));
    }
  }

  auto word_of_source = [&](const Source& s, int width) -> Word {
    Word w;
    switch (s.kind) {
      case Source::Kind::kRegister: w = out.reg_q[s.index]; break;
      case Source::Kind::kPrimaryInput: w = out.pi_nodes[s.index]; break;
      case Source::Kind::kConstant: w = const_words[s.index]; break;
      case Source::Kind::kFu: w = out.fu_out[s.index]; break;
    }
    // Pad or truncate to the consumer width.
    while (static_cast<int>(w.size()) < width) w.push_back(n.add_const(false));
    w.resize(width);
    return w;
  };

  // FUs. Control lines are consumed in hls::build_rtl's signal order:
  // all registers first (select + load), then per-FU port selects and
  // opcode. To honor that order we must create register control lines
  // before FU ones even though FU logic is built in between; so gather
  // register control lines now.
  std::vector<std::vector<int>> reg_sel_lines(num_regs);
  std::vector<int> reg_ld_line(num_regs, -1);
  for (int r = 0; r < num_regs; ++r) {
    const rtl::RegisterInfo& reg = dp.regs[r];
    // Select/load lines (and their decode) belong to the register's input
    // mux; an undriven register has no mux, so its dangling load line
    // attributes to the register itself.
    ProvScope scope(prov, n,
                    comp(reg.drivers.empty() ? CompKind::kRegister
                                             : CompKind::kRegMux,
                         r));
    if (reg.drivers.size() > 1)
      reg_sel_lines[r] = ctl.lines(
          "sel_" + reg.name,
          select_width(static_cast<int>(reg.drivers.size())));
    reg_ld_line[r] = ctl.lines("ld_" + reg.name, 1)[0];
  }

  out.fu_out.resize(dp.num_fus());
  for (int f = 0; f < dp.num_fus(); ++f) {
    const rtl::FuInfo& fu = dp.fus[f];
    const int w = width_of(fu.width);
    ProvScope fu_scope(prov, n, comp(CompKind::kFu, f));
    // Port operands through their mux trees.
    std::vector<Word> port_words;
    for (std::size_t p = 0; p < fu.port_drivers.size(); ++p) {
      const auto& drivers = fu.port_drivers[p];
      const bool muxed = drivers.size() > 1;
      // Single-driver ports have no mux component; their wiring (width
      // adaptation, constants) stays with the FU itself.
      ProvScope port_scope(prov, n,
                           muxed ? comp(CompKind::kFuMux, f, static_cast<int>(p))
                                 : comp(CompKind::kFu, f));
      std::vector<Word> srcs;
      for (const Source& s : drivers) srcs.push_back(word_of_source(s, w));
      std::vector<int> sel;
      if (muxed)
        sel = ctl.lines("sel_" + fu.name + "_p" + std::to_string(p),
                        select_width(static_cast<int>(srcs.size())));
      port_words.push_back(mux_tree(n, srcs, sel));
    }
    while (port_words.size() < 3)
      port_words.push_back(make_const_word(n, 0, w));

    // Opcode-muxed results.
    std::vector<cdfg::OpKind> kinds = fu.op_kinds;
    if (kinds.empty()) kinds.push_back(cdfg::OpKind::kAdd);
    std::vector<Word> results;
    for (cdfg::OpKind k : kinds)
      results.push_back(build_op_result(n, k, port_words[0], port_words[1],
                                    port_words[2]));
    std::vector<int> op_sel;
    if (results.size() > 1)
      op_sel = ctl.lines("op_" + fu.name,
                         select_width(static_cast<int>(results.size())));
    out.fu_out[f] = mux_tree(n, results, op_sel);
  }

  // Register D sides: driver mux tree + hold mux.
  for (int r = 0; r < num_regs; ++r) {
    const rtl::RegisterInfo& reg = dp.regs[r];
    const int w = width_of(reg.width);
    ProvScope scope(prov, n,
                    comp(reg.drivers.empty() ? CompKind::kRegister
                                             : CompKind::kRegMux,
                         r));
    Word d_word;
    if (reg.drivers.empty()) {
      d_word = out.reg_q[r];  // never written: holds forever
    } else {
      std::vector<Word> srcs;
      for (const Source& s : reg.drivers) srcs.push_back(word_of_source(s, w));
      const Word loaded = mux_tree(n, srcs, reg_sel_lines[r]);
      // ld ? loaded : hold
      d_word = mux_word(n, reg_ld_line[r], loaded, out.reg_q[r]);
    }
    out.reg_d[r] = d_word;
    if (scanned[r]) {
      for (int i = 0; i < w; ++i) n.mark_output(d_word[i]);
    } else {
      for (int i = 0; i < w; ++i) n.set_dff_input(out.reg_q[r][i], d_word[i]);
    }
  }

  // Primary outputs: observed register Q bits.
  for (const rtl::PrimaryOutputInfo& po : dp.primary_outputs)
    for (int bit : out.reg_q[po.source.index]) n.mark_output(bit);

  out.control_inputs = ctl.free_inputs();
  prov.finish(n.num_nodes());
  if (prov.enabled())
    util::metrics()
        .gauge("tsyn.provenance.entries")
        .set(static_cast<double>(out.provenance.num_attributed()));
  n.validate();
  static util::Counter& gates =
      util::metrics().counter("gl.expand.gates_built");
  gates.add(n.gate_count());
  util::metrics().gauge("gl.expand.last_gates").set(n.gate_count());
  util::metrics()
      .gauge("gl.expand.last_flops")
      .set(static_cast<double>(n.flops().size()));
  return out;
}

}  // namespace tsyn::gl
