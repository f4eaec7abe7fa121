#include "gatelevel/atpg_comb.h"

#include <algorithm>
#include <climits>
#include <stdexcept>

#include "gatelevel/faultsim.h"
#include "gatelevel/scoap.h"
#include "observe/scoap_attr.h"
#include "util/metrics.h"
#include "util/telemetry.h"
#include "util/rng.h"
#include "util/trace.h"

namespace tsyn::gl {

namespace {

// Two-lane values: lane 0 (bit 0) is the good machine, lane 1 (bit 1) the
// faulty machine. Only these lanes are meaningful; eval_gate works lane by
// lane, so whatever the upper lanes hold never reaches them.
constexpr std::uint64_t kGood = 1;
constexpr std::uint64_t kFaulty = 2;
constexpr std::uint64_t kLanes = kGood | kFaulty;

/// Both machines at `v`.
Bits both(V v) {
  switch (v) {
    case V::k0: return Bits::known(0);
    case V::k1: return Bits::known(kLanes);
    case V::kX: break;
  }
  return {0, kLanes};
}

/// `b` with its faulty lane forced to the stuck value.
Bits force_faulty(Bits b, bool stuck_at_one) {
  b.x &= ~kFaulty;
  b.v = stuck_at_one ? b.v | kFaulty : b.v & ~kFaulty;
  return b;
}

/// Both lanes known.
bool known(Bits b) { return (b.x & kLanes) == 0; }

/// Both lanes known and different: a fault effect.
bool effect(Bits b) { return known(b) && ((b.v ^ (b.v >> 1)) & kGood); }

bool same_lanes(Bits a, Bits b) {
  return (((a.v ^ b.v) | (a.x ^ b.x)) & kLanes) == 0;
}

/// Controlling value of a gate's inputs (X if none, e.g. XOR).
V controlling_value(GateType t) {
  switch (t) {
    case GateType::kAnd:
    case GateType::kNand:
      return V::k0;
    case GateType::kOr:
    case GateType::kNor:
      return V::k1;
    default:
      return V::kX;
  }
}

bool inverts(GateType t) {
  return t == GateType::kNot || t == GateType::kNand ||
         t == GateType::kNor || t == GateType::kXnor;
}

}  // namespace

Podem::Podem(const Netlist& n) : n_(n), g_(SimGraph::of(n)) {
  if (!n.flops().empty())
    throw std::runtime_error("PODEM is combinational; unroll first");
  const int nn = n.num_nodes();
  vals_.assign(nn, both(V::kX));
  pi_assignment_.assign(nn, V::kX);
  frozen_.assign(nn, 0);
  topo_pos_.assign(nn, 0);
  for (std::size_t i = 0; i < n.topo_order().size(); ++i)
    topo_pos_[n.topo_order()[i]] = static_cast<int>(i);
  site_stamp_.assign(nn, 0);
  sched_stamp_.assign(nn, 0);
  lvl_stamp_.assign(g_.num_levels(), 0);
  lvl_nodes_.resize(g_.num_levels());
  mark_.assign(nn, 0);
  queue_.reserve(nn);
  cone_.reserve(nn);
  rebuild_assignable_cones();
}

void Podem::freeze_inputs(const std::vector<int>& pi_positions) {
  for (int pos : pi_positions) frozen_[n_.primary_inputs()[pos]] = 1;
  rebuild_assignable_cones();
}

void Podem::use_scoap_guidance(bool enable) {
  if (enable) {
    const Scoap s = compute_scoap(n_);
    cc0_ = s.cc0;
    cc1_ = s.cc1;
  } else {
    cc0_.clear();
    cc1_.clear();
  }
}

void Podem::rebuild_assignable_cones() {
  assignable_cone_.assign(n_.num_nodes(), 0);
  for (int id : n_.topo_order()) {
    const Node& node = n_.node(id);
    if (node.type == GateType::kInput) {
      assignable_cone_[id] = !frozen_[id];
      continue;
    }
    for (int f : node.fanins)
      if (f >= 0 && assignable_cone_[f]) {
        assignable_cone_[id] = 1;
        break;
      }
  }
}

int Podem::next_mark() {
  if (mark_epoch_ == INT_MAX) {
    std::fill(mark_.begin(), mark_.end(), 0);
    mark_epoch_ = 0;
  }
  return ++mark_epoch_;
}

V Podem::good(int id) const {
  const Bits b = vals_[id];
  if (b.x & kGood) return V::kX;
  return b.v & kGood ? V::k1 : V::k0;
}

Bits Podem::eval(int id, const std::vector<Fault>& sites) const {
  const GateType type = g_.type(id);
  const bool site = site_stamp_[id] == target_;
  Bits r;
  if (type == GateType::kInput) {
    r = both(pi_assignment_[id]);
  } else {
    Bits in[kMaxFanin];
    const std::int32_t* fin = g_.fanin() + g_.fanin_off()[id];
    const int num = g_.num_fanins(id);
    for (int i = 0; i < num; ++i) in[i] = vals_[fin[i]];
    // Pin-fault overrides on the faulty plane.
    if (site)
      for (const Fault& f : sites)
        if (f.fanin_index >= 0 && f.node == id)
          in[f.fanin_index] = force_faulty(in[f.fanin_index], f.stuck_at_one);
    r = eval_gate(type, in, num);
  }
  // Output-fault overrides.
  if (site)
    for (const Fault& f : sites)
      if (f.fanin_index < 0 && f.node == id)
        r = force_faulty(r, f.stuck_at_one);
  return r;
}

void Podem::begin_target(const std::vector<Fault>& sites) {
  if (target_ == INT_MAX) {
    std::fill(site_stamp_.begin(), site_stamp_.end(), 0);
    target_ = 0;
  }
  ++target_;
  for (const Fault& f : sites) site_stamp_[f.node] = target_;

  // The fault cone: transitive fanout of the sites, in topo_order() order
  // so the D-frontier scan meets gates in the same order as a scan of the
  // whole netlist would.
  const int mark = next_mark();
  cone_.clear();
  for (const Fault& f : sites)
    if (mark_[f.node] != mark) {
      mark_[f.node] = mark;
      cone_.push_back(f.node);
    }
  const std::int32_t* foff = g_.fanout_off();
  const std::int32_t* fo = g_.fanout();
  for (std::size_t i = 0; i < cone_.size(); ++i)
    for (std::int32_t k = foff[cone_[i]]; k < foff[cone_[i] + 1]; ++k)
      if (mark_[fo[k]] != mark) {
        mark_[fo[k]] = mark;
        cone_.push_back(fo[k]);
      }
  std::sort(cone_.begin(), cone_.end(),
            [&](int a, int b) { return topo_pos_[a] < topo_pos_[b]; });
  cone_pos_.clear();
  for (int id : cone_)
    if (g_.flags()[id] & SimGraph::kFlagPo) cone_pos_.push_back(id);

  // The one full implication pass of this target; every later imply()
  // only follows what a PI change disturbs.
  ++stats_.implications;
  for (int id : g_.order()) vals_[id] = eval(id, sites);
  pending_.clear();
}

void Podem::assign(int pi, V value) {
  pi_assignment_[pi] = value;
  pending_.push_back(pi);
}

void Podem::imply(const std::vector<Fault>& sites) {
  ++stats_.implications;
  if (epoch_ == INT_MAX) {
    std::fill(sched_stamp_.begin(), sched_stamp_.end(), 0);
    std::fill(lvl_stamp_.begin(), lvl_stamp_.end(), 0);
    epoch_ = 0;
  }
  ++epoch_;
  int min_lvl = g_.num_levels();
  int max_lvl = -1;
  const std::int32_t* foff = g_.fanout_off();
  const std::int32_t* fo = g_.fanout();
  const std::int32_t* level_of = g_.level_of();
  // Stores a changed value and schedules the node's fanouts, which all sit
  // on deeper levels than the one being swept.
  auto update = [&](int id) {
    const Bits r = eval(id, sites);
    if (same_lanes(r, vals_[id])) return;
    vals_[id] = r;
    for (std::int32_t k = foff[id]; k < foff[id + 1]; ++k) {
      const int s = fo[k];
      if (sched_stamp_[s] == epoch_) continue;
      sched_stamp_[s] = epoch_;
      const int lvl = level_of[s];
      if (lvl_stamp_[lvl] != epoch_) {
        lvl_stamp_[lvl] = epoch_;
        lvl_nodes_[lvl].clear();
        min_lvl = std::min(min_lvl, lvl);
        max_lvl = std::max(max_lvl, lvl);
      }
      lvl_nodes_[lvl].push_back(s);
    }
  };
  for (int pi : pending_) update(pi);
  pending_.clear();
  for (int lvl = min_lvl; lvl <= max_lvl; ++lvl) {
    if (lvl_stamp_[lvl] != epoch_) continue;
    for (int id : lvl_nodes_[lvl]) update(id);
  }
}

bool Podem::detected_at_po() const {
  for (int po : cone_pos_)
    if (effect(vals_[po])) return true;
  return false;
}

bool Podem::x_path_exists(const std::vector<Fault>& sites) {
  // BFS from nodes carrying (or still capable of carrying) a fault effect
  // through X-valued nodes to a PO. A fault site whose composite value is
  // still X is a potential effect source — for a pin fault the divergence
  // lives inside the gate and only shows once the good value resolves.
  // Effects live only in the fault cone, and the BFS never leaves it.
  const std::uint8_t* flags = g_.flags();
  const int mark = next_mark();
  queue_.clear();
  auto reach = [&](int id) {
    mark_[id] = mark;
    queue_.push_back(id);
    return (flags[id] & SimGraph::kFlagPo) != 0;
  };
  for (int id : cone_)
    if (effect(vals_[id]) && reach(id)) return true;
  for (const Fault& f : sites)
    if (mark_[f.node] != mark && !known(vals_[f.node]) && reach(f.node))
      return true;
  const std::int32_t* foff = g_.fanout_off();
  const std::int32_t* fo = g_.fanout();
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const int id = queue_[head];
    for (std::int32_t k = foff[id]; k < foff[id + 1]; ++k) {
      const int s = fo[k];
      if (mark_[s] == mark) continue;
      // Propagation possible only through nodes still X on some plane.
      const Bits v = vals_[s];
      if (known(v) && !effect(v)) continue;
      if (reach(s)) return true;
    }
  }
  return false;
}

bool Podem::next_assignment(const std::vector<Fault>& sites, int* pi_node,
                            V* pi_value) const {
  auto try_objective = [&](int obj_node, V obj_value) {
    return backtrace(obj_node, obj_value, pi_node, pi_value);
  };
  // Activation first: the line each fault sits on must carry the opposite
  // of the stuck value in the good machine.
  for (const Fault& f : sites) {
    const int line = f.fanin_index < 0
                         ? f.node
                         : n_.node(f.node).fanins[f.fanin_index];
    const V need = f.stuck_at_one ? V::k0 : V::k1;
    // A line without an assignable PI in its cone can never be justified
    // (e.g. the frame-0 replica over a pinned unknown state): try the
    // fault's other frames/sites instead.
    if (good(line) == V::kX && assignable_cone_[line] &&
        try_objective(line, need))
      return true;
  }
  // Pin-fault sites whose good output is still undetermined: resolving the
  // remaining X inputs manifests the internal divergence at the gate
  // output (the D-frontier test below cannot see it because the fanin
  // NODES agree on both planes).
  for (const Fault& f : sites) {
    if (f.fanin_index < 0) continue;
    if (known(vals_[f.node])) continue;
    const Node& site = n_.node(f.node);
    for (std::size_t i = 0; i < site.fanins.size(); ++i) {
      if (static_cast<int>(i) == f.fanin_index) continue;
      if (good(site.fanins[i]) != V::kX) continue;
      if (!assignable_cone_[site.fanins[i]]) continue;
      V target = controlling_value(site.type);
      target = target == V::kX ? V::k0 : !target;
      if (try_objective(site.fanins[i], target)) return true;
    }
  }
  // Propagation: pick a D-frontier gate, set one X input to the
  // non-controlling value. Frontier gates have an effect on a fanin, so
  // they all lie in the fault cone.
  for (int id : cone_) {
    const std::int32_t* fin = g_.fanin() + g_.fanin_off()[id];
    const int num = g_.num_fanins(id);
    if (num == 0) continue;
    if (known(vals_[id])) continue;  // already set
    bool has_effect_input = false;
    for (int i = 0; i < num; ++i)
      if (effect(vals_[fin[i]])) has_effect_input = true;
    if (!has_effect_input) continue;
    for (int i = 0; i < num; ++i) {
      if (good(fin[i]) != V::kX) continue;
      if (!assignable_cone_[fin[i]]) continue;
      V target = controlling_value(g_.type(id));
      if (target == V::kX) {
        // XOR/MUX-like: any defined value unblocks; for a mux select,
        // steer toward the effect leg when recognizable, else pick 0.
        target = V::k0;
      } else {
        target = !target;  // non-controlling
      }
      if (try_objective(fin[i], target)) return true;
    }
  }
  return false;
}

bool Podem::backtrace(int node, V value, int* pi_node, V* pi_value) const {
  int cur = node;
  V v = value;
  for (int guard = 0; guard < n_.num_nodes() + 1; ++guard) {
    const Node& g = n_.node(cur);
    if (g.type == GateType::kInput) {
      if (frozen_[cur] || pi_assignment_[cur] != V::kX) return false;
      *pi_node = cur;
      *pi_value = v;
      return true;
    }
    if (g.fanins.empty()) return false;  // constant: cannot justify
    if (inverts(g.type)) v = !v;
    // Choose an X-valued fanin whose cone contains an assignable PI —
    // under SCOAP guidance, the one cheapest to drive to the target value.
    auto eligible = [&](int f) {
      return good(f) == V::kX && assignable_cone_[f];
    };
    int chosen = -1;
    if (cc0_.empty()) {
      for (int f : g.fanins)
        if (eligible(f)) {
          chosen = f;
          break;
        }
    } else {
      int best_cost = INT_MAX;
      for (int f : g.fanins) {
        if (!eligible(f)) continue;
        const int cost = v == V::k1 ? cc1_[f] : v == V::k0 ? cc0_[f]
                                              : std::min(cc0_[f], cc1_[f]);
        if (cost < best_cost) {
          best_cost = cost;
          chosen = f;
        }
      }
    }
    if (chosen < 0) return false;
    // For MUX pursue the select when it is X, else the selected leg.
    if (g.type == GateType::kMux) {
      const V sel = good(g.fanins[0]);
      if (eligible(g.fanins[0])) {
        chosen = g.fanins[0];
        v = V::k0;
      } else if (sel != V::kX) {
        chosen = sel == V::k0 ? g.fanins[1] : g.fanins[2];
        if (!eligible(chosen)) return false;
      } else {
        return false;  // select is X but pinned: legs cannot be steered
      }
    }
    cur = chosen;
  }
  return false;
}

AtpgResult Podem::generate(const Fault& fault, long backtrack_limit) {
  return generate_multi({fault}, backtrack_limit);
}

AtpgResult Podem::generate_multi(const std::vector<Fault>& sites,
                                 long backtrack_limit) {
  return generate_multi_from_base(sites, {}, backtrack_limit);
}

AtpgResult Podem::generate_multi_from_base(const std::vector<Fault>& sites,
                                           const std::vector<V>& base,
                                           long backtrack_limit) {
  stats_ = {};
  std::fill(pi_assignment_.begin(), pi_assignment_.end(), V::kX);
  if (!base.empty()) {
    if (base.size() != n_.primary_inputs().size())
      throw std::runtime_error("base cube size != primary input count");
    // Base bits become pre-assigned givens. They are never pushed on the
    // decision stack, so backtracking can neither flip nor unassign them;
    // backtrace() already refuses assigned PIs, so the search only spends
    // decisions on the cube's X bits.
    for (std::size_t i = 0; i < base.size(); ++i)
      pi_assignment_[n_.primary_inputs()[i]] = base[i];
  }

  struct Decision {
    int pi_node;
    bool tried_both;
  };
  std::vector<Decision> stack;
  begin_target(sites);

  AtpgResult result;
  for (;;) {
    if (detected_at_po()) {
      result.status = AtpgStatus::kDetected;
      break;
    }
    bool need_backtrack = false;
    // Check whether the fault can still be activated and propagated.
    bool activated = false;
    bool activation_possible = false;
    for (const Fault& f : sites) {
      const int line = f.fanin_index < 0
                           ? f.node
                           : n_.node(f.node).fanins[f.fanin_index];
      const V need = f.stuck_at_one ? V::k0 : V::k1;
      if (good(line) == need) activated = true;
      if (good(line) != !need) activation_possible = true;
    }
    if (!activated && !activation_possible) {
      need_backtrack = true;
    } else if (activated && !x_path_exists(sites)) {
      need_backtrack = true;
    }

    int pi = -1;
    V pi_val = V::kX;
    if (!need_backtrack) {
      if (!next_assignment(sites, &pi, &pi_val)) need_backtrack = true;
    }

    if (!need_backtrack) {
      ++stats_.decisions;
      assign(pi, pi_val);
      stack.push_back({pi, false});
      imply(sites);
      continue;
    }

    // Backtrack.
    for (;;) {
      if (stack.empty()) {
        result.status = AtpgStatus::kUntestable;
        goto done;
      }
      Decision& d = stack.back();
      if (!d.tried_both) {
        ++stats_.backtracks;
        if (stats_.backtracks > backtrack_limit) {
          result.status = AtpgStatus::kAborted;
          goto done;
        }
        d.tried_both = true;
        assign(d.pi_node, !pi_assignment_[d.pi_node]);
        imply(sites);
        break;
      }
      assign(d.pi_node, V::kX);
      stack.pop_back();
    }
  }
done:
  result.stats = stats_;
  if (observe::ledger_enabled() && !sites.empty()) {
    // One targeted event per PODEM attempt, attributed to the primary
    // site (secondary multi-fault sites ride along unrecorded). Safe from
    // concurrent engines (sweep jobs): recording is thread-striped.
    const observe::TargetOutcome outcome =
        result.status == AtpgStatus::kDetected
            ? observe::TargetOutcome::kDetected
            : result.status == AtpgStatus::kUntestable
                  ? observe::TargetOutcome::kUntestable
                  : observe::TargetOutcome::kAborted;
    observe::record_targeted(observe::make_fault_key(sites[0]), outcome,
                             stats_.decisions, stats_.backtracks);
  }
  result.pi_values.assign(n_.primary_inputs().size(), V::kX);
  if (result.status == AtpgStatus::kDetected)
    for (std::size_t i = 0; i < n_.primary_inputs().size(); ++i)
      result.pi_values[i] = pi_assignment_[n_.primary_inputs()[i]];
  return result;
}

namespace {

/// Publishes a campaign's effort into the metrics registry, keeping the
/// public AtpgStats struct as the caller-facing view of the same numbers.
void publish_comb_campaign(const AtpgCampaign& campaign) {
  static util::Counter& decisions =
      util::metrics().counter("atpg.comb.decisions");
  static util::Counter& backtracks =
      util::metrics().counter("atpg.comb.backtracks");
  static util::Counter& implications =
      util::metrics().counter("atpg.comb.implications");
  static util::Counter& detected =
      util::metrics().counter("atpg.comb.detected");
  static util::Counter& untestable =
      util::metrics().counter("atpg.comb.untestable");
  static util::Counter& aborted =
      util::metrics().counter("atpg.comb.aborted");
  static util::Counter& limit_hits =
      util::metrics().counter("atpg.comb.backtrack_limit_hits");
  decisions.add(campaign.total.decisions);
  backtracks.add(campaign.total.backtracks);
  implications.add(campaign.total.implications);
  long n_det = 0, n_unt = 0, n_abt = 0;
  for (AtpgStatus s : campaign.status) {
    if (s == AtpgStatus::kDetected) ++n_det;
    else if (s == AtpgStatus::kUntestable) ++n_unt;
    else ++n_abt;
  }
  detected.add(n_det);
  untestable.add(n_unt);
  aborted.add(n_abt);
  // PODEM aborts exactly when the backtrack limit trips, so the abort
  // count IS the limit-hit count for the combinational engine.
  limit_hits.add(n_abt);
}

}  // namespace

AtpgCampaign run_combinational_atpg(const Netlist& n,
                                    const std::vector<Fault>& faults,
                                    long backtrack_limit,
                                    const FaultSimOptions& sim_options) {
  TSYN_SPAN("gl.atpg.comb");
  if (observe::ledger_enabled())
    observe::record_universe(static_cast<long>(faults.size()));
  static util::Progress& p_targets = util::progress("atpg.targets");
  p_targets.add_total(static_cast<std::int64_t>(faults.size()));
  AtpgCampaign campaign;
  campaign.status.assign(faults.size(), AtpgStatus::kAborted);
  std::vector<bool> handled(faults.size(), false);

  FaultSimulator sim(n, sim_options);
  util::Rng rng(kAtpgGradeFillSeed);
  static util::Histogram& bt_hist =
      util::metrics().histogram("atpg.comb.backtracks_per_fault");

  // Grades one generated test against all still-unhandled faults, dropping
  // the ones it detects. The cube's X inputs are filled with random words
  // (64 independent completions per cube, one rng stream in test order);
  // the exact block is recorded in graded_fill so the campaign's detection
  // decisions are reproducible downstream — see kAtpgGradeFillSeed.
  auto grade_test = [&](const std::vector<V>& pi_values) {
    campaign.tests.push_back(pi_values);
    std::vector<Bits> block(n.primary_inputs().size());
    for (std::size_t i = 0; i < block.size(); ++i) {
      switch (pi_values[i]) {
        case V::k0: block[i] = Bits::all0(); break;
        case V::k1: block[i] = Bits::all1(); break;
        case V::kX: block[i] = Bits::known(rng.next_u64()); break;
      }
    }
    campaign.graded_fill.push_back(block);
    std::vector<bool> drop(faults.size(), false);
    for (std::size_t j = 0; j < faults.size(); ++j) drop[j] = handled[j];
    sim.run_block(block, faults, drop);
    std::int64_t closed = 0;
    for (std::size_t j = 0; j < faults.size(); ++j) {
      if (!handled[j] && drop[j]) {
        handled[j] = true;
        campaign.status[j] = AtpgStatus::kDetected;
        ++closed;
      }
    }
    if (closed) p_targets.add(closed);
  };

  // Fault by fault, grading each generated test before the next target.
  Podem podem(n);
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    if (handled[fi]) continue;
    const AtpgResult r = podem.generate(faults[fi], backtrack_limit);
    campaign.total.decisions += r.stats.decisions;
    campaign.total.backtracks += r.stats.backtracks;
    campaign.total.implications += r.stats.implications;
    bt_hist.observe(r.stats.backtracks);
    campaign.status[fi] = r.status;
    handled[fi] = true;
    p_targets.add(1);
    if (r.status == AtpgStatus::kDetected) grade_test(r.pi_values);
  }

  long detected = 0;
  long untestable = 0;
  for (AtpgStatus s : campaign.status) {
    if (s == AtpgStatus::kDetected) ++detected;
    else if (s == AtpgStatus::kUntestable) ++untestable;
  }
  const double total = static_cast<double>(faults.size());
  campaign.fault_coverage = total == 0 ? 1.0 : detected / total;
  campaign.fault_efficiency =
      total == 0 ? 1.0 : (detected + untestable) / total;
  publish_comb_campaign(campaign);
  return campaign;
}

}  // namespace tsyn::gl
