#include <gtest/gtest.h>

#include <algorithm>

#include "cdfg/benchmarks.h"
#include "cdfg/generator.h"
#include "cdfg/interp.h"
#include "cdfg/lifetime.h"
#include "cdfg/loops.h"
#include "cdfg/parser.h"
#include "hls/schedule.h"
#include "util/thread_pool.h"

namespace tsyn::cdfg {
namespace {

TEST(Ir, BuildSmallGraph) {
  Cdfg g("t");
  const VarId a = g.add_input("a");
  const VarId b = g.add_input("b");
  const VarId c = g.add_op(OpKind::kAdd, "c", {a, b});
  g.mark_output(c);
  g.validate();
  EXPECT_EQ(g.num_ops(), 1);
  EXPECT_EQ(g.num_vars(), 3);
  EXPECT_EQ(g.var(c).def_op, 0);
  EXPECT_EQ(g.var(a).uses.size(), 1u);
  EXPECT_EQ(g.outputs().size(), 1u);
}

TEST(Ir, DuplicateNameRejected) {
  Cdfg g;
  g.add_input("x");
  EXPECT_THROW(g.add_input("x"), CdfgError);
}

TEST(Ir, ArityChecked) {
  Cdfg g;
  const VarId a = g.add_input("a");
  EXPECT_THROW(g.add_op(OpKind::kAdd, "y", {a}), CdfgError);
  EXPECT_NO_THROW(g.add_op(OpKind::kNot, "z", {a}));
}

TEST(Ir, StateNeedsUpdate) {
  Cdfg g;
  g.add_state("s");
  EXPECT_THROW(g.validate(), CdfgError);
}

TEST(Ir, StateUpdateMustBeTemp) {
  Cdfg g;
  const VarId s = g.add_state("s");
  const VarId x = g.add_input("x");
  EXPECT_THROW(g.set_state_update(s, x), CdfgError);
}

TEST(Ir, ReplaceOpInputKeepsUseLists) {
  Cdfg g;
  const VarId a = g.add_input("a");
  const VarId b = g.add_input("b");
  const VarId c = g.add_op(OpKind::kAdd, "c", {a, b});
  const VarId d = g.add_op(OpKind::kAdd, "d", {c, b});
  (void)d;
  // Redirect op d's first input from c to a.
  g.replace_op_input(1, 0, a);
  EXPECT_TRUE(g.var(c).uses.empty());
  EXPECT_EQ(std::count(g.var(a).uses.begin(), g.var(a).uses.end(), 1), 1);
  g.validate();
}

TEST(Ir, DependenceGraphLoopEdges) {
  const Cdfg g = diffeq();
  const graph::Digraph fwd = g.op_dependence_graph(false);
  const graph::Digraph loop = g.op_dependence_graph(true);
  EXPECT_GT(loop.num_edges(), fwd.num_edges());
}

TEST(Ir, FuTypeMapping) {
  EXPECT_EQ(fu_type_of(OpKind::kAdd), FuType::kAlu);
  EXPECT_EQ(fu_type_of(OpKind::kLt), FuType::kAlu);
  EXPECT_EQ(fu_type_of(OpKind::kMul), FuType::kMultiplier);
  EXPECT_EQ(fu_type_of(OpKind::kCopy), FuType::kCopyUnit);
}

TEST(Benchmarks, AllValidate) {
  for (const Cdfg& g : standard_benchmarks()) {
    EXPECT_NO_THROW(g.validate()) << g.name();
    EXPECT_GT(g.num_ops(), 0) << g.name();
    EXPECT_FALSE(g.outputs().empty()) << g.name();
  }
}

TEST(Benchmarks, DiffeqShape) {
  const Cdfg g = diffeq();
  int muls = 0;
  int alus = 0;
  for (const Operation& op : g.ops()) {
    if (op.kind == OpKind::kMul) ++muls;
    if (fu_type_of(op.kind) == FuType::kAlu) ++alus;
  }
  EXPECT_EQ(muls, 6);
  EXPECT_EQ(alus, 5);  // 2 add, 2 sub, 1 compare
  EXPECT_EQ(g.states().size(), 3u);
}

TEST(Benchmarks, EwfShape) {
  const Cdfg g = ewf();
  int muls = 0;
  int addsub = 0;
  for (const Operation& op : g.ops()) {
    if (op.kind == OpKind::kMul) ++muls;
    if (op.kind == OpKind::kAdd || op.kind == OpKind::kSub) ++addsub;
  }
  EXPECT_EQ(muls, 8);
  EXPECT_EQ(addsub, 25);
  EXPECT_EQ(g.states().size(), 8u);
}

TEST(Benchmarks, Fig1IsLoopFree) {
  EXPECT_TRUE(cdfg_loops(fig1_example()).empty());
  EXPECT_TRUE(cdfg_loops(dct4()).empty());
  EXPECT_TRUE(cdfg_loops(tseng()).empty());
  // FIR's delay line is a feed-forward shift pipeline: states, no loops.
  EXPECT_TRUE(cdfg_loops(fir(4)).empty());
}

TEST(Benchmarks, FeedbackFiltersHaveLoops) {
  EXPECT_FALSE(cdfg_loops(diffeq()).empty());
  EXPECT_FALSE(cdfg_loops(iir_biquad()).empty());
  EXPECT_FALSE(cdfg_loops(ewf()).empty());
  EXPECT_FALSE(cdfg_loops(ar_lattice(3)).empty());
}

TEST(Benchmarks, FirTapScaling) {
  EXPECT_EQ(fir(4).states().size(), 3u);
  EXPECT_EQ(fir(8).states().size(), 7u);
}

TEST(Loops, BreakingAllStatesBreaksEverything) {
  for (const Cdfg& g : standard_benchmarks()) {
    EXPECT_TRUE(breaks_all_cdfg_loops(g, g.states())) << g.name();
  }
}

TEST(Loops, EmptySelectionFailsWhenLoopsExist) {
  EXPECT_FALSE(breaks_all_cdfg_loops(diffeq(), {}));
  EXPECT_TRUE(breaks_all_cdfg_loops(dct4(), {}));
}

TEST(Loops, VarGraphEdges) {
  const Cdfg g = diffeq();
  const graph::Digraph d = var_dependence_graph(g);
  const VarId x = g.find_var("x");
  const VarId xl = g.find_var("xl");
  ASSERT_GE(x, 0);
  ASSERT_GE(xl, 0);
  EXPECT_TRUE(d.has_edge(xl, x));  // loop-carried back edge
}

TEST(Parser, RoundTrip) {
  for (const Cdfg& g : standard_benchmarks()) {
    const std::string text = serialize_cdfg(g);
    const Cdfg parsed = parse_cdfg(text);
    EXPECT_EQ(parsed.num_ops(), g.num_ops()) << g.name();
    EXPECT_EQ(parsed.num_vars(), g.num_vars()) << g.name();
    EXPECT_EQ(parsed.states().size(), g.states().size()) << g.name();
    EXPECT_EQ(parsed.outputs().size(), g.outputs().size()) << g.name();
    // Round-trip again: text must be identical (canonical form).
    EXPECT_EQ(serialize_cdfg(parsed), text) << g.name();
  }
}

TEST(Parser, Errors) {
  EXPECT_THROW(parse_cdfg("op add y a b"), CdfgError);       // unknown vars
  EXPECT_THROW(parse_cdfg("input x\nop foo y x x"), CdfgError);
  EXPECT_THROW(parse_cdfg("bogus directive"), CdfgError);
  EXPECT_THROW(parse_cdfg("input x\noutput nothere"), CdfgError);
  EXPECT_THROW(parse_cdfg("state s"), CdfgError);  // no update
}

// Numeric fields are checked where they are read: a bad width or value
// names its line, and widths stay inside what gate expansion can build.
TEST(Parser, NumericFieldsFailWithTheirLine) {
  const auto message = [](const std::string& text) -> std::string {
    try {
      parse_cdfg(text);
    } catch (const CdfgError& e) {
      return e.what();
    }
    return "no error";
  };
  for (const std::string bad : {"0", "65", "x", "-3", "8x"}) {
    const std::string m = message("cdfg t\ninput a " + bad);
    EXPECT_NE(m.find("line 2"), std::string::npos) << bad << ": " << m;
  }
  EXPECT_NE(message("input a 0").find("out of range [1, 64]"),
            std::string::npos);
  EXPECT_NE(message("input a x").find("width is not an integer"),
            std::string::npos);
  EXPECT_NE(message("\n\nstate s 65").find("line 3"), std::string::npos);
  EXPECT_NE(message("const k 3 100000").find("line 1"), std::string::npos);
  EXPECT_NE(message("input a\nconst k three").find("line 2: value"),
            std::string::npos);
  EXPECT_EQ(parse_cdfg("input a 64\nconst k -5 1").var(0).width, 64);
}

TEST(Parser, CommentsAndBlanks) {
  const Cdfg g = parse_cdfg(
      "# a comment\n"
      "cdfg small\n"
      "\n"
      "input a 8   # trailing comment\n"
      "input b 8\n"
      "op add y a b\n"
      "output y\n");
  EXPECT_EQ(g.name(), "small");
  EXPECT_EQ(g.num_ops(), 1);
  EXPECT_EQ(g.var(g.find_var("a")).width, 8);
}

TEST(Parser, GuardDirective) {
  const Cdfg g = parse_cdfg(
      "input a\ninput c\n"
      "op add y a a\n"
      "guard y c 0\n"
      "output y\n");
  EXPECT_EQ(g.op(0).guard, g.find_var("c"));
  EXPECT_FALSE(g.op(0).guard_polarity);
}

TEST(Lifetime, SimpleChain) {
  // a,b inputs; c = a+b at step 0; d = c+a at step 1; d output.
  Cdfg g;
  const VarId a = g.add_input("a");
  const VarId b = g.add_input("b");
  const VarId c = g.add_op(OpKind::kAdd, "c", {a, b});
  const VarId d = g.add_op(OpKind::kAdd, "d", {c, a});
  g.mark_output(d);
  const LifetimeAnalysis lts = analyze_lifetimes(g, {0, 1}, 2);
  // c alive only at slot 1.
  const auto& c_lt = lts.lifetimes[lts.lifetime_of_var[c]];
  EXPECT_EQ(c_lt.interval.birth, 1);
  EXPECT_EQ(c_lt.interval.death, 2);
  // a alive slots 0..1 (used at step 1).
  const auto& a_lt = lts.lifetimes[lts.lifetime_of_var[a]];
  EXPECT_EQ(a_lt.interval.birth, 0);
  EXPECT_EQ(a_lt.interval.death, 2);
  EXPECT_TRUE(a_lt.is_input);
  // d written at the boundary: occupies slot 0.
  const auto& d_lt = lts.lifetimes[lts.lifetime_of_var[d]];
  EXPECT_EQ(d_lt.interval.birth, 0);
  EXPECT_TRUE(d_lt.is_output);
}

TEST(Lifetime, MergedStateWraps) {
  // State s read at step 0, updated by op at step 1 of a 3-step schedule.
  Cdfg g;
  const VarId x = g.add_input("x");
  const VarId s = g.add_state("s");
  const VarId t = g.add_op(OpKind::kAdd, "t", {s, x});   // step 0
  const VarId u = g.add_op(OpKind::kAdd, "u", {t, x});   // step 1, update
  const VarId y = g.add_op(OpKind::kAdd, "y", {u, x});   // step 2
  g.set_state_update(s, u);
  g.mark_output(y);
  const LifetimeAnalysis lts = analyze_lifetimes(g, {0, 1, 2}, 3);
  const int ls = lts.lifetime_of_var[s];
  const int lu = lts.lifetime_of_var[u];
  EXPECT_EQ(ls, lu);  // merged
  const auto& lt = lts.lifetimes[ls];
  EXPECT_TRUE(lt.is_state);
  EXPECT_TRUE(lt.interval.wraps());
  EXPECT_EQ(lt.interval.birth, 2);
  EXPECT_EQ(lt.interval.death, 1);
}

TEST(Lifetime, SplitStateWhenOldValueOutlivesUpdate) {
  // s read at step 2 but updated at step 0: values coexist -> split.
  Cdfg g;
  const VarId x = g.add_input("x");
  const VarId s = g.add_state("s");
  const VarId u = g.add_op(OpKind::kAdd, "u", {x, x});   // step 0 update
  const VarId y = g.add_op(OpKind::kAdd, "y", {s, x});   // step 2 reads s
  g.set_state_update(s, u);
  g.mark_output(y);
  const LifetimeAnalysis lts = analyze_lifetimes(g, {0, 2}, 3);
  const int ls = lts.lifetime_of_var[s];
  const int lu = lts.lifetime_of_var[u];
  EXPECT_NE(ls, lu);
  EXPECT_EQ(lts.lifetimes[ls].transfer_from, u);
  // Old and new values coexist mid-iteration: the registers must differ.
  EXPECT_TRUE(lts.overlap(ls, lu));
}

TEST(Lifetime, ForcedSplit) {
  Cdfg g;
  const VarId x = g.add_input("x");
  const VarId s = g.add_state("s");
  const VarId t = g.add_op(OpKind::kAdd, "t", {s, x});  // step 0
  const VarId u = g.add_op(OpKind::kAdd, "u", {t, x});  // step 1 update
  g.set_state_update(s, u);
  g.mark_output(u);
  const LifetimeAnalysis merged = analyze_lifetimes(g, {0, 1}, 3, false);
  const LifetimeAnalysis split = analyze_lifetimes(g, {0, 1}, 3, true);
  EXPECT_EQ(merged.lifetime_of_var[s], merged.lifetime_of_var[u]);
  EXPECT_NE(split.lifetime_of_var[s], split.lifetime_of_var[u]);
}

TEST(Lifetime, ConstantsNeedNoStorage) {
  const Cdfg g = diffeq();
  const hls::Schedule s = hls::asap_schedule(g);
  const LifetimeAnalysis lts =
      analyze_lifetimes(g, s.step_of_op, s.num_steps);
  EXPECT_EQ(lts.lifetime_of_var[g.find_var("three")], -1);
}

TEST(Lifetime, EveryNonConstantStored) {
  for (const Cdfg& g : standard_benchmarks()) {
    const hls::Schedule s = hls::asap_schedule(g);
    const LifetimeAnalysis lts =
        analyze_lifetimes(g, s.step_of_op, s.num_steps);
    for (const Variable& v : g.vars()) {
      if (v.kind == VarKind::kConstant) continue;
      EXPECT_GE(lts.lifetime_of_var[v.id], 0)
          << g.name() << " var " << v.name;
    }
  }
}

TEST(Generator, ProducesValidGraphs) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    GeneratorParams p;
    p.num_ops = 25;
    p.num_states = 3;
    p.seed = seed;
    const Cdfg g = random_cdfg(p);
    EXPECT_NO_THROW(g.validate());
    EXPECT_EQ(g.num_ops(), 25);
    EXPECT_EQ(g.states().size(), 3u);
    EXPECT_FALSE(g.outputs().empty());
  }
}

TEST(Generator, DeterministicPerSeed) {
  GeneratorParams p;
  p.seed = 77;
  EXPECT_EQ(serialize_cdfg(random_cdfg(p)), serialize_cdfg(random_cdfg(p)));
}

TEST(Generator, StatesCreateLoops) {
  GeneratorParams p;
  p.num_ops = 30;
  p.num_states = 2;
  p.seed = 5;
  const Cdfg g = random_cdfg(p);
  EXPECT_FALSE(vars_on_loops(g).empty());
}

TEST(Interp, AddChain) {
  Cdfg g;
  const VarId a = g.add_input("a");
  const VarId b = g.add_input("b");
  const VarId c = g.add_op(OpKind::kAdd, "c", {a, b});
  const VarId d = g.add_op(OpKind::kMul, "d", {c, c});
  g.mark_output(d);
  std::map<VarId, std::uint64_t> state;
  const VarValues vals = execute_iteration(g, {{a, 3}, {b, 4}}, state);
  EXPECT_EQ(vals[c], 7u);
  EXPECT_EQ(vals[d], 49u);
}

TEST(Interp, WidthMasking) {
  Cdfg g;
  const VarId a = g.add_input("a", 8);
  const VarId b = g.add_input("b", 8);
  const VarId c = g.add_op(OpKind::kAdd, "c", {a, b});
  g.mark_output(c);
  std::map<VarId, std::uint64_t> state;
  const VarValues vals = execute_iteration(g, {{a, 200}, {b, 100}}, state);
  EXPECT_EQ(vals[c], (200u + 100u) & 0xFF);
}

TEST(Interp, StateAdvances) {
  // Accumulator: s' = s + x.
  Cdfg g;
  const VarId x = g.add_input("x");
  const VarId s = g.add_state("s");
  const VarId u = g.add_op(OpKind::kAdd, "u", {s, x});
  g.set_state_update(s, u);
  g.mark_output(u);
  const auto trace = execute(g, {{5}, {5}, {5}});
  EXPECT_EQ(trace[0][u], 5u);
  EXPECT_EQ(trace[1][u], 10u);
  EXPECT_EQ(trace[2][u], 15u);
}

TEST(Interp, DiffeqConverges) {
  // Euler integration of y'' = -3xy' -3y with tiny dx behaves sanely
  // modulo 2^16; just verify determinism and that outputs change.
  const Cdfg g = diffeq();
  const std::vector<VarId> pis = g.inputs();  // dx, a
  std::vector<std::vector<std::uint64_t>> frames(4, {1, 1000});
  const auto trace = execute(g, frames);
  EXPECT_EQ(trace.size(), 4u);
  const VarId xl = g.find_var("xl");
  EXPECT_EQ(trace[1][xl], trace[0][xl] + 1);  // x advances by dx each iter
}

// Determinism of the random-DFG generator: property sweeps and multi-agent
// benches key workloads by seed, so a seed must name exactly one DFG — no
// hidden global RNG state, no dependence on which thread generates it.

TEST(Generator, SameSeedSameDfgAcrossConsecutiveRuns) {
  GeneratorParams p;
  p.num_ops = 40;
  p.num_inputs = 6;
  p.num_states = 3;
  p.seed = 0xD15C;
  const std::string first = random_cdfg(p).to_string();
  const std::string second = random_cdfg(p).to_string();
  EXPECT_EQ(first, second);

  p.seed = 0xD15D;
  EXPECT_NE(random_cdfg(p).to_string(), first);
}

TEST(Generator, SameSeedSameDfgAcrossThreadCounts) {
  GeneratorParams p;
  p.num_ops = 32;
  p.num_inputs = 5;
  p.num_states = 2;
  p.seed = 0x5EED;
  const std::string reference = random_cdfg(p).to_string();
  for (int workers : {1, 2, 4, 8}) {
    std::vector<std::string> got(static_cast<std::size_t>(workers));
    util::ThreadPool::shared().run(workers, workers, [&](int i, int) {
      GeneratorParams local = p;
      got[static_cast<std::size_t>(i)] = random_cdfg(local).to_string();
    });
    for (const std::string& s : got) EXPECT_EQ(s, reference);
  }
}

TEST(Interp, MuxSelect) {
  Cdfg g;
  const VarId s = g.add_input("s", 1);
  const VarId a = g.add_input("a");
  const VarId b = g.add_input("b");
  const VarId y = g.add_op(OpKind::kMux, "y", {s, a, b});
  g.mark_output(y);
  std::map<VarId, std::uint64_t> state;
  EXPECT_EQ(execute_iteration(g, {{s, 1}, {a, 10}, {b, 20}}, state)[y], 10u);
  EXPECT_EQ(execute_iteration(g, {{s, 0}, {a, 10}, {b, 20}}, state)[y], 20u);
}

}  // namespace
}  // namespace tsyn::cdfg
