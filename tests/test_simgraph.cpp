// The compiled SoA simulation core: SimGraph lowering must mirror the
// Netlist exactly, the levelized engines must match a direct reference
// evaluation bit for bit, the detection matrix must agree with
// fault-dropping grading — detected set AND first-detecting pattern — and
// the work-stealing shard must be invisible in every result, ledger JSON
// included.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <map>
#include <stdexcept>
#include <set>
#include <string>
#include <vector>

#include "gatelevel/bistgen.h"
#include "gatelevel/faults.h"
#include "gatelevel/faultsim.h"
#include "gatelevel/netlist.h"
#include "gatelevel/simgraph.h"
#include "observe/ledger.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tsyn {
namespace {

// Random combinational netlist (the same shape the property sweeps use).
gl::Netlist random_netlist(std::uint64_t seed, int gates = 80,
                           int inputs = 8) {
  util::Rng rng(seed);
  gl::Netlist n;
  std::vector<int> nodes;
  for (int i = 0; i < inputs; ++i)
    nodes.push_back(n.add_input("i" + std::to_string(i)));
  for (int i = 0; i < gates; ++i) {
    static constexpr gl::GateType kTypes[] = {
        gl::GateType::kAnd,  gl::GateType::kOr,  gl::GateType::kNand,
        gl::GateType::kNor,  gl::GateType::kXor, gl::GateType::kXnor,
        gl::GateType::kNot,  gl::GateType::kMux};
    const gl::GateType t = kTypes[rng.pick_index(8)];
    const int arity = t == gl::GateType::kNot   ? 1
                      : t == gl::GateType::kMux ? 3
                                                : 2;
    std::vector<int> fanins;
    for (int a = 0; a < arity; ++a)
      fanins.push_back(nodes[rng.pick_index(nodes.size())]);
    nodes.push_back(n.add_gate(t, fanins));
  }
  for (int i = 0; i < 6; ++i)
    n.mark_output(nodes[nodes.size() - 1 - i]);
  n.validate();
  return n;
}

// Direct Netlist-walking frame evaluation — the shape simulate_frame had
// before the SoA port, kept here as the equivalence oracle.
void reference_frame(const gl::Netlist& n, std::vector<gl::Bits>& values) {
  gl::Bits fanin_vals[gl::kMaxFanin];
  for (int id : n.topo_order()) {
    const gl::Node& node = n.node(id);
    if (node.type == gl::GateType::kInput || node.type == gl::GateType::kDff)
      continue;
    for (std::size_t i = 0; i < node.fanins.size(); ++i)
      fanin_vals[i] = values[node.fanins[i]];
    values[id] = gl::eval_gate(node.type, fanin_vals,
                               static_cast<int>(node.fanins.size()));
  }
}

std::vector<gl::Bits> random_pi_values(const gl::Netlist& n,
                                       std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<gl::Bits> vals(n.num_nodes(), gl::Bits::unknown());
  for (int pi : n.primary_inputs()) {
    gl::Bits b;
    b.v = rng.next_u64();
    b.x = (rng.next_u64() & rng.next_u64() & rng.next_u64());  // sparse unknowns
    b.v &= ~b.x;
    vals[pi] = b;
  }
  return vals;
}

TEST(SimGraph, LoweringMirrorsNetlist) {
  for (std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
    const gl::Netlist n = random_netlist(seed, 120, 10);
    const gl::SimGraph& g = gl::SimGraph::of(n);
    ASSERT_EQ(g.num_nodes(), n.num_nodes());

    std::set<int> order_seen;
    for (int pos = 0; pos < g.num_nodes(); ++pos) {
      const int id = g.order()[pos];
      EXPECT_TRUE(order_seen.insert(id).second);
      EXPECT_EQ(g.pos_of()[id], pos);
    }

    for (int id = 0; id < n.num_nodes(); ++id) {
      const gl::Node& node = n.node(id);
      EXPECT_EQ(g.type(id), node.type);
      ASSERT_EQ(g.num_fanins(id), static_cast<int>(node.fanins.size()));
      for (int i = 0; i < g.num_fanins(id); ++i)
        EXPECT_EQ(g.fanin()[g.fanin_off()[id] + i], node.fanins[i]);

      // Levelization: sources at 0, gates one past their deepest fanin.
      if (node.type == gl::GateType::kInput ||
          node.type == gl::GateType::kDff || node.fanins.empty()) {
        EXPECT_EQ(g.level_of()[id], 0);
      } else {
        int expect = 0;
        for (int f : node.fanins)
          expect = std::max(expect, g.level_of()[f] + 1);
        EXPECT_EQ(g.level_of()[id], expect);
      }
      const int lvl = g.level_of()[id];
      EXPECT_GE(g.pos_of()[id], g.level_off()[lvl]);
      EXPECT_LT(g.pos_of()[id], g.level_off()[lvl + 1]);

      // Fanout CSR: comb edges only, strictly deeper levels.
      for (int k = g.fanout_off()[id]; k < g.fanout_off()[id + 1]; ++k) {
        const int s = g.fanout()[k];
        EXPECT_NE(g.type(s), gl::GateType::kDff);
        EXPECT_GT(g.level_of()[s], g.level_of()[id]);
        bool consumes = false;
        for (int f : n.node(s).fanins) consumes |= (f == id);
        EXPECT_TRUE(consumes);
      }
    }

    // Edge totals: every comb pin appears exactly once in the fanout CSR.
    int comb_pins = 0;
    for (int id = 0; id < n.num_nodes(); ++id)
      if (n.node(id).type != gl::GateType::kDff)
        comb_pins += static_cast<int>(n.node(id).fanins.size());
    EXPECT_EQ(g.fanout_off()[n.num_nodes()], comb_pins);
  }
}

TEST(SimGraph, SimulateFrameMatchesReference) {
  for (std::uint64_t seed : {21ULL, 22ULL, 23ULL, 24ULL}) {
    const gl::Netlist n = random_netlist(seed, 150, 12);
    for (std::uint64_t vs = 0; vs < 4; ++vs) {
      std::vector<gl::Bits> got = random_pi_values(n, seed * 977 + vs);
      std::vector<gl::Bits> want = got;
      gl::simulate_frame(n, got);
      reference_frame(n, want);
      for (int id = 0; id < n.num_nodes(); ++id) {
        EXPECT_EQ(got[id].v, want[id].v) << "node " << id;
        EXPECT_EQ(got[id].x, want[id].x) << "node " << id;
      }
    }
  }
}

TEST(SimGraph, CacheRebuildsAfterStructuralEdit) {
  gl::Netlist n = random_netlist(31, 60, 8);
  const gl::SimGraph* first = &gl::SimGraph::of(n);
  EXPECT_EQ(first, &gl::SimGraph::of(n));  // cached, not rebuilt

  const int before = n.num_nodes();
  const int g0 = n.primary_inputs()[0];
  const int g1 = n.primary_inputs()[1];
  const int added = n.add_gate(gl::GateType::kXor, {g0, g1});
  n.mark_output(added);
  const gl::SimGraph& rebuilt = gl::SimGraph::of(n);
  EXPECT_GT(rebuilt.num_nodes(), before);
  EXPECT_EQ(rebuilt.num_nodes(), n.num_nodes());

  // And the rebuilt graph still simulates correctly.
  std::vector<gl::Bits> got = random_pi_values(n, 77);
  std::vector<gl::Bits> want = got;
  gl::simulate_frame(n, got);
  reference_frame(n, want);
  for (int id = 0; id < n.num_nodes(); ++id) {
    EXPECT_EQ(got[id].v, want[id].v);
    EXPECT_EQ(got[id].x, want[id].x);
  }
}

// Every detected set the engines report must agree: the matrix flags
// exactly the faults the fault-dropping grade detects, at block counts
// below, at and above eight.
TEST(SimGraph, MatrixDetectedSetMatchesDropGrading) {
  for (std::uint64_t seed : {41ULL, 42ULL}) {
    const gl::Netlist n = random_netlist(seed, 160, 10);
    const auto faults = gl::enumerate_faults(n);
    for (int nblocks : {1, 3, 8, 9}) {
      const auto blocks = gl::lfsr_pattern_blocks(
          static_cast<int>(n.primary_inputs().size()), nblocks, seed);
      gl::FaultSimOptions serial;
      serial.num_threads = 1;
      std::vector<bool> dropped;
      const double cov = gl::fault_coverage(n, blocks, faults, &dropped,
                                            serial);
      std::vector<std::uint64_t> masks;
      gl::detection_masks(n, blocks, faults, masks, serial);
      std::vector<bool> matrix_det(faults.size(), false);
      long hit = 0;
      for (std::size_t f = 0; f < faults.size(); ++f) {
        for (int b = 0; b < nblocks; ++b)
          if (masks[f * nblocks + b] != 0) matrix_det[f] = true;
        hit += matrix_det[f];
      }
      EXPECT_EQ(matrix_det, dropped) << "blocks " << nblocks;
      EXPECT_EQ(static_cast<double>(hit) / faults.size(), cov)
          << "blocks " << nblocks;
    }
  }
}

// The ledger's first-detecting pattern from the fault-dropping grade is
// the first set bit of the fault's matrix row.
TEST(SimGraph, MatrixFirstSetBitMatchesLedgerFirstDetect) {
  const gl::Netlist n = random_netlist(43, 160, 10);
  const auto faults = gl::enumerate_faults(n);
  for (int nblocks : {6, 9}) {
    const auto blocks = gl::lfsr_pattern_blocks(
        static_cast<int>(n.primary_inputs().size()), nblocks, 43);
    gl::FaultSimOptions o;
    o.num_threads = 1;
    observe::ledger_reset();
    observe::ledger_enable();
    gl::fault_coverage(n, blocks, faults, nullptr, o);
    observe::ledger_disable();
    const observe::LedgerSnapshot snap = observe::ledger_snapshot();
    observe::ledger_reset();
    std::vector<std::uint64_t> masks;
    gl::detection_masks(n, blocks, faults, masks, o);

    std::map<observe::FaultKey, std::int64_t> first_bit;
    for (std::size_t f = 0; f < faults.size(); ++f) {
      std::int64_t first = -1;
      for (int b = 0; b < nblocks && first < 0; ++b) {
        const std::uint64_t w = masks[f * nblocks + b];
        if (w != 0) first = 64 * b + std::countr_zero(w);
      }
      first_bit[observe::FaultKey{faults[f].node, faults[f].fanin_index,
                                  faults[f].stuck_at_one ? 1 : 0}] = first;
    }
    ASSERT_EQ(snap.journeys.size(), faults.size());
    for (const auto& j : snap.journeys) {
      const auto it = first_bit.find(j.key);
      ASSERT_NE(it, first_bit.end());
      EXPECT_EQ(j.first_detect_pattern, it->second)
          << "blocks " << nblocks << " node " << j.key.node;
    }
  }
}

// A 9-block matrix must equal nine independent single-block matrices
// column by column: grading a block never depends on the blocks around it.
TEST(SimGraph, NineBlockMatrixMatchesSingleBlockCalls) {
  const gl::Netlist n = random_netlist(44, 140, 9);
  const auto faults = gl::enumerate_faults(n);
  const auto blocks = gl::lfsr_pattern_blocks(
      static_cast<int>(n.primary_inputs().size()), 9, 44);
  gl::FaultSimOptions o;
  o.num_threads = 1;
  std::vector<std::uint64_t> nine;
  gl::detection_masks(n, blocks, faults, nine, o);
  ASSERT_EQ(nine.size(), faults.size() * blocks.size());
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    std::vector<std::uint64_t> one;
    gl::detection_masks(n, {blocks[b]}, faults, one, o);
    ASSERT_EQ(one.size(), faults.size());
    for (std::size_t f = 0; f < faults.size(); ++f)
      EXPECT_EQ(nine[f * blocks.size() + b], one[f])
          << "block " << b << " fault " << f;
  }
}

// The work-stealing shard must be invisible: detected set and ledger JSON
// of the fault-dropping grade, and masks and ledger JSON of the matrix,
// byte-identical at every thread count.
TEST(SimGraph, ThreadCountInvarianceIncludingLedger) {
  const gl::Netlist n = random_netlist(46, 160, 10);
  const auto faults = gl::enumerate_faults(n);
  for (int nblocks : {4, 8}) {
    const auto blocks = gl::lfsr_pattern_blocks(
        static_cast<int>(n.primary_inputs().size()), nblocks, 46);
    std::string base_json, base_matrix_json;
    std::vector<bool> base_det;
    std::vector<std::uint64_t> base_masks;
    for (int threads : {1, 2, 8}) {
      gl::FaultSimOptions o;
      o.num_threads = threads;
      observe::ledger_reset();
      observe::ledger_enable();
      std::vector<bool> det;
      gl::fault_coverage(n, blocks, faults, &det, o);
      observe::ledger_disable();
      const std::string json = observe::ledger_to_json();
      observe::ledger_reset();
      observe::ledger_enable();
      std::vector<std::uint64_t> masks;
      gl::detection_masks(n, blocks, faults, masks, o);
      observe::ledger_disable();
      const std::string matrix_json = observe::ledger_to_json();
      observe::ledger_reset();
      if (threads == 1) {
        base_json = json;
        base_det = det;
        base_matrix_json = matrix_json;
        base_masks = masks;
      } else {
        EXPECT_EQ(det, base_det) << "blocks " << nblocks << " threads "
                                 << threads;
        EXPECT_EQ(json, base_json) << "blocks " << nblocks << " threads "
                                   << threads;
        EXPECT_EQ(masks, base_masks) << "blocks " << nblocks << " threads "
                                     << threads;
        EXPECT_EQ(matrix_json, base_matrix_json)
            << "blocks " << nblocks << " threads " << threads;
      }
    }
  }
}

// run_chunked: every index exactly once, slot ids in range, exceptions
// rethrown — across chunk sizes that do and don't divide the range.
TEST(ThreadPool, RunChunkedCoversEveryIndexOnce) {
  util::ThreadPool pool(4);
  for (int count : {1, 7, 64, 1000}) {
    for (int chunk : {1, 3, 16, 2000}) {
      std::vector<std::atomic<int>> hits(count);
      for (auto& h : hits) h.store(0);
      pool.run_chunked(count, 4, chunk, [&](int i, int slot) {
        ASSERT_GE(i, 0);
        ASSERT_LT(i, count);
        ASSERT_GE(slot, 0);
        ASSERT_LT(slot, 4);
        hits[i].fetch_add(1);
      });
      for (int i = 0; i < count; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "count " << count << " chunk "
                                     << chunk << " index " << i;
    }
  }
}

TEST(ThreadPool, RunChunkedRethrowsJobExceptions) {
  util::ThreadPool pool(4);
  EXPECT_THROW(pool.run_chunked(100, 4, 8,
                                [&](int i, int) {
                                  if (i == 37) throw std::runtime_error("x");
                                }),
               std::runtime_error);
}

// Satellite regression: reset_work_counters must clear the last-propagate
// attribution counter too, not just the totals.
TEST(FaultPropagator, ResetClearsLastPropagateEvents) {
  const gl::Netlist n = random_netlist(47, 80, 8);
  const auto faults = gl::enumerate_faults(n);
  ASSERT_FALSE(faults.empty());
  std::vector<gl::Bits> good = random_pi_values(n, 47);
  gl::simulate_frame(n, good);

  gl::FaultPropagator prop(n);
  std::uint64_t mask = 0;
  for (const auto& f : faults) {
    mask |= prop.propagate(f, good);
    if (prop.last_propagate_events() > 0) break;
  }
  (void)mask;
  ASSERT_GT(prop.last_propagate_events(), 0);
  prop.reset_work_counters();
  EXPECT_EQ(prop.events_processed(), 0);
  EXPECT_EQ(prop.faults_propagated(), 0);
  EXPECT_EQ(prop.last_propagate_events(), 0);
}

}  // namespace
}  // namespace tsyn
