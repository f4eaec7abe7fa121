#include <gtest/gtest.h>

#include <algorithm>

#include "cdfg/benchmarks.h"
#include "compaction/compaction.h"
#include "gatelevel/atpg_comb.h"
#include "gatelevel/atpg_seq.h"
#include "gatelevel/expand.h"
#include "gatelevel/faultsim.h"
#include "hls/synthesis.h"
#include "observe/ledger.h"
#include "testability/scan_select.h"
#include "util/hash.h"
#include "util/metrics.h"

namespace tsyn::gl {
namespace {

TEST(Podem, SimpleAndGate) {
  Netlist n;
  const int a = n.add_input("a");
  const int b = n.add_input("b");
  const int g = n.add_gate(GateType::kAnd, {a, b});
  n.mark_output(g);
  Podem podem(n);
  // Output sa0: needs a=b=1.
  const AtpgResult r = podem.generate({g, -1, false});
  ASSERT_EQ(r.status, AtpgStatus::kDetected);
  EXPECT_EQ(r.pi_values[0], V::k1);
  EXPECT_EQ(r.pi_values[1], V::k1);
}

TEST(Podem, InputFaultOnAnd) {
  Netlist n;
  const int a = n.add_input("a");
  const int b = n.add_input("b");
  const int g = n.add_gate(GateType::kAnd, {a, b});
  n.mark_output(g);
  Podem podem(n);
  // a sa0 at the gate pin: set a=1 (activate), b=1 (propagate).
  const AtpgResult r = podem.generate({g, 0, false});
  ASSERT_EQ(r.status, AtpgStatus::kDetected);
  EXPECT_EQ(r.pi_values[0], V::k1);
  EXPECT_EQ(r.pi_values[1], V::k1);
}

TEST(Podem, UntestableRedundantFault) {
  // y = a OR (a AND b): the AND output sa0 is undetectable when a=1
  // masks it and a=0 blocks activation... actually a&b sa0 requires
  // a=1,b=1 to activate but then OR output is 1 either way: redundant.
  Netlist n;
  const int a = n.add_input("a");
  const int b = n.add_input("b");
  const int g1 = n.add_gate(GateType::kAnd, {a, b});
  const int g2 = n.add_gate(GateType::kOr, {a, g1});
  n.mark_output(g2);
  Podem podem(n);
  const AtpgResult r = podem.generate({g1, -1, false});
  EXPECT_EQ(r.status, AtpgStatus::kUntestable);
}

TEST(Podem, XorChainNeedsSpecificValues) {
  Netlist n;
  const int a = n.add_input("a");
  const int b = n.add_input("b");
  const int c = n.add_input("c");
  const int g1 = n.add_gate(GateType::kXor, {a, b});
  const int g2 = n.add_gate(GateType::kXor, {g1, c});
  n.mark_output(g2);
  Podem podem(n);
  for (const Fault f : {Fault{g1, -1, false}, Fault{g1, -1, true},
                        Fault{a, -1, false}, Fault{a, -1, true}}) {
    const AtpgResult r = podem.generate(f);
    EXPECT_EQ(r.status, AtpgStatus::kDetected);
  }
}

TEST(Podem, AdderFullEfficiency) {
  Netlist n;
  const Word a = make_input_word(n, "a", 6);
  const Word b = make_input_word(n, "b", 6);
  const Word s = ripple_add(n, a, b, n.add_const(false));
  for (int bit : s) n.mark_output(bit);
  const auto faults = enumerate_faults(n);
  const AtpgCampaign c = run_combinational_atpg(n, faults);
  EXPECT_DOUBLE_EQ(c.fault_efficiency, 1.0);
  EXPECT_GT(c.fault_coverage, 0.999);
}

TEST(Podem, MultiplierHighCoverage) {
  Netlist n;
  const Word a = make_input_word(n, "a", 5);
  const Word b = make_input_word(n, "b", 5);
  const Word p = array_multiply(n, a, b);
  for (int bit : p) n.mark_output(bit);
  const auto faults = enumerate_faults(n);
  const AtpgCampaign c = run_combinational_atpg(n, faults, 2000);
  EXPECT_GT(c.fault_efficiency, 0.95);
  // The truncated array multiplier has genuinely redundant logic in the
  // upper carry chains, so coverage < efficiency is expected.
  EXPECT_GT(c.fault_coverage, 0.80);
}

TEST(Podem, GeneratedTestsActuallyDetect) {
  Netlist n;
  const Word a = make_input_word(n, "a", 4);
  const Word b = make_input_word(n, "b", 4);
  const Word s = ripple_sub(n, a, b);
  for (int bit : s) n.mark_output(bit);
  const auto faults = enumerate_faults(n);
  Podem podem(n);
  FaultSimulator sim(n);
  int checked = 0;
  for (std::size_t i = 0; i < faults.size() && checked < 25; i += 3) {
    const AtpgResult r = podem.generate(faults[i]);
    if (r.status != AtpgStatus::kDetected) continue;
    ++checked;
    std::vector<Bits> block(n.primary_inputs().size());
    for (std::size_t p = 0; p < block.size(); ++p)
      block[p] = r.pi_values[p] == V::k1   ? Bits::all1()
                 : r.pi_values[p] == V::k0 ? Bits::all0()
                                           : Bits::all0();
    std::vector<bool> det(faults.size(), false);
    // Mask everything except the target so run_block simulates it.
    std::vector<Fault> one{faults[i]};
    std::vector<bool> d1;
    sim.run_block(block, one, d1);
    EXPECT_TRUE(d1[0]) << "fault " << describe(n, faults[i]);
  }
  EXPECT_GE(checked, 20);
}

TEST(Podem, FrozenInputsStayX) {
  Netlist n;
  const int a = n.add_input("a");
  const int b = n.add_input("b");
  const int g = n.add_gate(GateType::kAnd, {a, b});
  n.mark_output(g);
  Podem podem(n);
  podem.freeze_inputs({1});  // b may not be assigned
  const AtpgResult r = podem.generate({g, -1, false});
  // Detection impossible without b: PODEM must give up (untestable under
  // the freeze, reported as untestable after exhausting 'a').
  EXPECT_NE(r.status, AtpgStatus::kDetected);
}

TEST(Unroll, StructureAndMapping) {
  // 2-bit shift register.
  Netlist n;
  const int a = n.add_input("a");
  const int q0 = n.add_dff(-1, "q0");
  const int q1 = n.add_dff(-1, "q1");
  n.set_dff_input(q0, a);
  n.set_dff_input(q1, q0);
  n.mark_output(q1);
  const Unrolled u = unroll(n, 3);
  EXPECT_EQ(u.net.flops().size(), 0u);
  EXPECT_EQ(u.frozen_pi_positions.size(), 2u);  // frame-0 q0, q1
  // 3 frames x 1 PI + 2 frozen.
  EXPECT_EQ(u.net.primary_inputs().size(), 5u);
  EXPECT_EQ(u.net.primary_outputs().size(), 3u);
}

TEST(SeqAtpg, ShiftRegisterFaultNeedsPipelineDepth) {
  // Fault at the head of a 3-deep shift register needs 4 frames.
  Netlist n;
  const int a = n.add_input("a");
  int prev = a;
  std::vector<int> qs;
  for (int i = 0; i < 3; ++i) {
    const int q = n.add_dff(-1, "q" + std::to_string(i));
    n.set_dff_input(q, prev);
    qs.push_back(q);
    prev = q;
  }
  n.mark_output(prev);
  const SeqAtpgResult r = sequential_atpg(n, {a, -1, false}, 8);
  ASSERT_EQ(r.status, AtpgStatus::kDetected);
  EXPECT_EQ(r.frames_used, 4);
}

TEST(SeqAtpg, TestVerifiedBySequentialSim) {
  Netlist n;
  const int a = n.add_input("a");
  const int b = n.add_input("b");
  const int q = n.add_dff(-1, "q");
  const int g = n.add_gate(GateType::kAnd, {a, q});
  n.set_dff_input(q, b);
  n.mark_output(g);
  const Fault f{g, -1, false};
  const SeqAtpgResult r = sequential_atpg(n, f, 6);
  ASSERT_EQ(r.status, AtpgStatus::kDetected);
  // Replay the generated frames through the sequential fault simulator.
  std::vector<std::vector<Bits>> frames;
  for (const auto& fv : r.frame_inputs) {
    std::vector<Bits> bits(fv.size());
    for (std::size_t i = 0; i < fv.size(); ++i)
      bits[i] = fv[i] == V::k1 ? Bits::all1() : Bits::all0();
    frames.push_back(bits);
  }
  const auto det = sequential_fault_sim(n, frames, {f});
  EXPECT_TRUE(det[0]);
}

TEST(SeqAtpg, CampaignOnResettableCounter) {
  // 2-bit toggle counter with synchronous reset:
  //   q0' = !rst & (q0 ^ en);  q1' = !rst & (q1 ^ (q0 & en)).
  // The reset gives ATPG an initialization path from the unknown state.
  Netlist n;
  const int en = n.add_input("en");
  const int rst = n.add_input("rst");
  const int nrst = n.add_gate(GateType::kNot, {rst});
  const int q0 = n.add_dff(-1, "q0");
  const int q1 = n.add_dff(-1, "q1");
  const int t0 = n.add_gate(GateType::kXor, {q0, en});
  const int c0 = n.add_gate(GateType::kAnd, {q0, en});
  const int t1 = n.add_gate(GateType::kXor, {q1, c0});
  const int d0 = n.add_gate(GateType::kAnd, {nrst, t0});
  const int d1 = n.add_gate(GateType::kAnd, {nrst, t1});
  n.set_dff_input(q0, d0);
  n.set_dff_input(q1, d1);
  n.mark_output(t0);
  n.mark_output(t1);
  const auto faults = enumerate_faults(n);
  const SeqAtpgCampaign c = run_sequential_atpg(n, faults, 8, 4000);
  EXPECT_GT(c.fault_coverage, 0.5);
  EXPECT_GT(c.total.decisions, 0);
}

// ---- search-trajectory regression ----
//
// PODEM's effort counters are the quantity the survey's empirical law is
// measured with, so an engine change may make the search cheaper per step
// but must not change a single step. The totals and digests below were
// recorded with the full-sweep implication engine (every decision
// re-evaluating the whole netlist) and are never re-recorded: any drift in
// decision order, implication count, cube or status shows up here.

/// Gate-level expansion of a behavior at allocation a2m2; every register
/// scanned when `full_scan`, none otherwise.
Netlist expand_a2m2(const cdfg::Cdfg& g, int width, bool full_scan) {
  hls::SynthesisOptions opts;
  opts.resources = hls::Resources{{cdfg::FuType::kAlu, 2},
                                  {cdfg::FuType::kMultiplier, 2}};
  hls::Synthesis syn = hls::synthesize(g, opts);
  rtl::Datapath dp = syn.rtl.datapath;
  if (full_scan)
    for (auto& reg : dp.regs) reg.test_kind = rtl::TestRegKind::kScan;
  ExpandOptions x;
  x.width_override = width;
  return expand_datapath(dp, x).netlist;
}

util::Fnv1a& fold_cube(util::Fnv1a& h, const std::vector<V>& cube) {
  h.i64(static_cast<std::int64_t>(cube.size()));
  for (V v : cube) h.i64(static_cast<std::int64_t>(v));
  return h;
}

/// Digest of a campaign's cubes (in generation order) and statuses.
std::uint64_t campaign_digest(const AtpgCampaign& c) {
  util::Fnv1a h;
  h.i64(static_cast<std::int64_t>(c.tests.size()));
  for (const auto& cube : c.tests) fold_cube(h, cube);
  for (AtpgStatus s : c.status) h.i64(static_cast<std::int64_t>(s));
  return h.value();
}

long count_detected(const AtpgCampaign& c) {
  return static_cast<long>(
      std::count(c.status.begin(), c.status.end(), AtpgStatus::kDetected));
}

TEST(PodemTrajectory, DiffeqFullScanCampaign) {
  const Netlist n = expand_a2m2(cdfg::diffeq(), 8, true);
  const AtpgCampaign c = run_combinational_atpg(n, enumerate_faults(n));
  EXPECT_EQ(c.total.decisions, 1244);
  EXPECT_EQ(c.total.backtracks, 916);
  EXPECT_EQ(c.total.implications, 2201);
  EXPECT_EQ(c.tests.size(), 17u);
  EXPECT_EQ(count_detected(c), 3195);
  EXPECT_EQ(campaign_digest(c), 2856237883908495894ull);
}

TEST(PodemTrajectory, EwfFullScanCampaignReachesAborts) {
  const Netlist n = expand_a2m2(cdfg::ewf(), 8, true);
  const AtpgCampaign c = run_combinational_atpg(n, enumerate_faults(n));
  EXPECT_EQ(c.total.decisions, 24561);
  EXPECT_EQ(c.total.backtracks, 24186);
  EXPECT_EQ(c.total.implications, 48783);
  EXPECT_EQ(c.tests.size(), 22u);
  EXPECT_EQ(count_detected(c), 6406);
  EXPECT_GT(std::count(c.status.begin(), c.status.end(),
                       AtpgStatus::kAborted),
            0);
  EXPECT_EQ(campaign_digest(c), 10334189302855866355ull);
}

TEST(PodemTrajectory, DiffeqDynamicCompactionFromBase) {
  const Netlist n = expand_a2m2(cdfg::diffeq(), 8, true);
  compaction::CompactionOptions copts;
  copts.mode = compaction::CompactMode::kDynamic;
  const compaction::CompactedCampaign c =
      compaction::run_compacted_atpg(n, enumerate_faults(n), copts);
  EXPECT_EQ(c.campaign.total.decisions, 36551);
  EXPECT_EQ(c.campaign.total.backtracks, 35319);
  EXPECT_EQ(c.campaign.total.implications, 73232);
  EXPECT_EQ(c.stats.cubes_generated, 26);
  EXPECT_EQ(c.stats.secondary_merged, 150);
  EXPECT_EQ(campaign_digest(c.campaign), 4001466556628244607ull);
}

TEST(PodemTrajectory, DiffeqSequentialNoScan) {
  const Netlist n = expand_a2m2(cdfg::diffeq(), 2, false);
  std::vector<Fault> faults = enumerate_faults(n);
  faults.resize(60);
  const SeqAtpgCampaign c = run_sequential_atpg(n, faults, 4, 200);
  EXPECT_EQ(c.total.decisions, 19473);
  EXPECT_EQ(c.total.backtracks, 17503);
  EXPECT_EQ(c.total.implications, 37087);
  EXPECT_EQ(c.detected, 17);
  // The per-fault entry point over the same faults: multi-site targets
  // with frozen frame-0 state, every sequence and status folded in.
  util::Fnv1a h;
  for (const Fault& f : faults) {
    const SeqAtpgResult r = sequential_atpg(n, f, 4, 200);
    h.i64(static_cast<std::int64_t>(r.status)).i64(r.frames_used);
    h.i64(r.stats.decisions).i64(r.stats.backtracks);
    h.i64(r.stats.implications);
    for (const auto& frame : r.frame_inputs) fold_cube(h, frame);
  }
  EXPECT_EQ(h.value(), 13652884571303013755ull);
}

// ---- parallel sequential campaign ----
//
// run_sequential_atpg runs PODEM targets on every worker and commits them in
// fault order, so a campaign must equal the serial loop at any thread count.
// The points are the end-to-end benchmark's partial-scan experiment: a2m2,
// 2-bit words, no scan or MFVS scan, the first 60 faults, 4 frames, limit
// 200. The pinned totals were recorded with the serial campaign loop.

/// One sequential design point at a2m2 and width 2, MFVS-scanned or not.
Netlist expand_seq_point(const cdfg::Cdfg& g, bool mfvs) {
  if (!mfvs) return expand_a2m2(g, 2, false);
  hls::SynthesisOptions opts;
  opts.resources = hls::Resources{{cdfg::FuType::kAlu, 2},
                                  {cdfg::FuType::kMultiplier, 2}};
  hls::Synthesis syn = hls::synthesize(g, opts);
  rtl::Datapath dp = syn.rtl.datapath;
  testability::apply_scan(g, syn.binding,
                          testability::select_scan_vars_mfvs(g), dp);
  ExpandOptions x;
  x.width_override = 2;
  return expand_datapath(dp, x).netlist;
}

std::vector<Fault> first_faults(const Netlist& n, std::size_t count) {
  std::vector<Fault> faults = enumerate_faults(n);
  if (faults.size() > count) faults.resize(count);
  return faults;
}

TEST(SeqAtpgParallel, ThreadCountInvariantOnBenchmarkPoints) {
  struct Point {
    cdfg::Cdfg g;
    bool mfvs;
    long decisions, backtracks, implications, detected, aborted;
  };
  const Point points[] = {
      {cdfg::diffeq(), false, 19473, 17503, 37087, 17, 43},
      {cdfg::diffeq(), true, 20540, 18165, 38761, 30, 30},
      {cdfg::iir_biquad(), false, 24629, 22427, 47181, 4, 56},
      {cdfg::iir_biquad(), true, 23838, 21822, 45737, 18, 42},
      {cdfg::ar_lattice(4), false, 27661, 24430, 52191, 8, 52},
      {cdfg::ar_lattice(4), true, 25747, 22904, 48712, 21, 39},
  };
  const util::Histogram& frames_used =
      util::metrics().histogram("atpg.seq.frames_used");
  const util::Counter& discarded =
      util::metrics().counter("atpg.seq.discarded");
  for (const Point& p : points) {
    SCOPED_TRACE(p.g.name() + (p.mfvs ? " mfvs" : " none"));
    const Netlist n = expand_seq_point(p.g, p.mfvs);
    const std::vector<Fault> faults = first_faults(n, 60);
    std::int64_t serial_frames = -1;
    // A commit out of fault order changes the totals only when a dropped
    // fault's target finishes first, so each parallel count runs 3 times.
    for (int threads : {1, 2, 4, 8, 2, 4, 8, 2, 4, 8}) {
      SCOPED_TRACE("num_threads " + std::to_string(threads));
      FaultSimOptions sim;
      sim.num_threads = threads;
      const std::int64_t frames0 = frames_used.read().sum;
      const std::int64_t discarded0 = discarded.read();
      const SeqAtpgCampaign c = run_sequential_atpg(n, faults, 4, 200, sim);
      EXPECT_EQ(c.total.decisions, p.decisions);
      EXPECT_EQ(c.total.backtracks, p.backtracks);
      EXPECT_EQ(c.total.implications, p.implications);
      EXPECT_EQ(c.detected, p.detected);
      EXPECT_EQ(c.untestable, 0);
      EXPECT_EQ(c.aborted, p.aborted);
      const std::int64_t frames = frames_used.read().sum - frames0;
      if (threads == 1) {
        serial_frames = frames;
        // One worker makes exactly the serial loop's PODEM calls.
        EXPECT_EQ(discarded.read() - discarded0, 0);
      }
      EXPECT_EQ(frames, serial_frames);
    }
  }
}

#ifndef TSYN_LEDGER_NOOP
TEST(SeqAtpgParallel, LedgerJsonIdenticalAtAnyThreadCount) {
  // A speculative target that a later commit discards would add a targeted
  // event, so a campaign with the ledger on runs on one worker.
  const Netlist n = expand_a2m2(cdfg::diffeq(), 2, false);
  const std::vector<Fault> faults = first_faults(n, 60);
  auto ledger_json = [&](int threads) {
    FaultSimOptions sim;
    sim.num_threads = threads;
    observe::ledger_reset();
    observe::ledger_enable();
    (void)run_sequential_atpg(n, faults, 4, 200, sim);
    observe::ledger_disable();
    std::string json = observe::ledger_to_json();
    observe::ledger_reset();
    return json;
  };
  const std::string serial = ledger_json(1);
  // Every PODEM call of the serial campaign is recorded once.
  EXPECT_NE(serial.find("\"decisions\": 19473,"), std::string::npos);
  EXPECT_EQ(ledger_json(4), serial);
}
#endif  // TSYN_LEDGER_NOOP

}  // namespace
}  // namespace tsyn::gl
