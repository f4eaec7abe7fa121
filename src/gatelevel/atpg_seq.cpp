#include "gatelevel/atpg_seq.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "gatelevel/faultsim.h"
#include "util/metrics.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace tsyn::gl {

std::vector<Fault> Unrolled::map_fault(const Fault& f) const {
  std::vector<Fault> sites;
  for (int fr = 0; fr < frames; ++fr) {
    const int mapped = node_map[fr][f.node];
    if (mapped < 0) continue;
    // A DFF output fault becomes an output fault on the frame's pseudo
    // input / buffer node; pin faults keep their pin. A pin fault has no
    // frame-0 counterpart when the flop became a pseudo input there.
    if (f.fanin_index >= 0 &&
        f.fanin_index >= static_cast<int>(net.node(mapped).fanins.size()))
      continue;
    sites.push_back({mapped, f.fanin_index, f.stuck_at_one});
  }
  return sites;
}

Unrolled unroll(const Netlist& n, int frames,
                const std::vector<V>* initial_state) {
  Unrolled u;
  u.frames = frames;
  u.node_map.assign(frames, std::vector<int>(n.num_nodes(), -1));
  u.pi_map.assign(frames, std::vector<int>(n.primary_inputs().size(), -1));

  int pi_count = 0;
  for (int fr = 0; fr < frames; ++fr) {
    for (int id : n.topo_order()) {
      const Node& node = n.node(id);
      int mapped = -1;
      switch (node.type) {
        case GateType::kInput: {
          mapped = u.net.add_input("f" + std::to_string(fr) + "." +
                                   node.name);
          // Record PI position.
          for (std::size_t p = 0; p < n.primary_inputs().size(); ++p)
            if (n.primary_inputs()[p] == id)
              u.pi_map[fr][p] = pi_count;
          ++pi_count;
          break;
        }
        case GateType::kDff: {
          if (fr == 0) {
            // Pinned by the warm-up state when known; frozen PI otherwise.
            V init = V::kX;
            if (initial_state)
              for (std::size_t fl = 0; fl < n.flops().size(); ++fl)
                if (n.flops()[fl] == id) init = (*initial_state)[fl];
            if (init != V::kX) {
              mapped = u.net.add_const(init == V::k1);
            } else {
              mapped = u.net.add_input("f0." + node.name + ".q");
              u.frozen_pi_positions.push_back(pi_count);
              ++pi_count;
            }
          } else {
            const int prev_d = u.node_map[fr - 1][node.fanins[0]];
            if (prev_d < 0)
              throw std::runtime_error("unroll: D source missing");
            mapped = u.net.add_gate(GateType::kBuf, {prev_d},
                                    "f" + std::to_string(fr) + "." +
                                        node.name + ".q");
          }
          break;
        }
        default: {
          std::vector<int> fanins;
          for (int f : node.fanins) {
            const int m = u.node_map[fr][f];
            if (m < 0) throw std::runtime_error("unroll: fanin missing");
            fanins.push_back(m);
          }
          if (node.type == GateType::kConst0 ||
              node.type == GateType::kConst1) {
            mapped = u.net.add_const(node.type == GateType::kConst1);
          } else {
            mapped = u.net.add_gate(node.type, fanins, node.name);
          }
          break;
        }
      }
      u.node_map[fr][id] = mapped;
    }
    for (int po : n.primary_outputs())
      u.net.mark_output(u.node_map[fr][po]);
  }
  return u;
}

namespace {

// DFF topo-order caveat: topo_order() lists DFFs among the sources, but the
// D fanin of a frame's DFF must reference the PREVIOUS frame, which the
// unroll above already handles; combinational nodes see same-frame fanins.

/// The unrolled circuit of each frame count with its PODEM engine, built on
/// first use and reused for every later fault. Podem resets its assignment
/// and counters per target, so reuse changes no result.
class FrameEngines {
 public:
  FrameEngines(const Netlist& n, const std::vector<V>* initial_state)
      : n_(n), initial_state_(initial_state) {}

  /// Tries min_frames..max_frames frames until the fault is detected.
  SeqAtpgResult generate(const Fault& fault, int max_frames,
                         long backtrack_limit, int min_frames) {
    SeqAtpgResult best;
    AtpgStats accumulated;
    for (int frames = std::max(min_frames, 1); frames <= max_frames;
         ++frames) {
      SeqAtpgResult r = try_frames(fault, frames, backtrack_limit);
      accumulated.decisions += r.stats.decisions;
      accumulated.backtracks += r.stats.backtracks;
      accumulated.implications += r.stats.implications;
      if (r.status == AtpgStatus::kDetected) {
        r.stats = accumulated;
        return r;
      }
      best = r;
    }
    best.stats = accumulated;
    // Exhausting the frame budget without proof of untestability is an
    // abort (more frames might succeed).
    if (best.status == AtpgStatus::kUntestable && max_frames > 0)
      best.status = AtpgStatus::kAborted;
    return best;
  }

 private:
  struct Engine {
    explicit Engine(Unrolled unrolled)
        : u(std::move(unrolled)), podem(u.net) {
      podem.freeze_inputs(u.frozen_pi_positions);
    }
    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;
    Unrolled u;
    Podem podem;  // holds a reference to u.net
  };

  Engine& engine(int frames) {
    if (static_cast<int>(by_frames_.size()) <= frames)
      by_frames_.resize(frames + 1);
    if (!by_frames_[frames])
      by_frames_[frames] =
          std::make_unique<Engine>(unroll(n_, frames, initial_state_));
    return *by_frames_[frames];
  }

  SeqAtpgResult try_frames(const Fault& fault, int frames,
                           long backtrack_limit) {
    Engine& e = engine(frames);
    const std::vector<Fault> sites = e.u.map_fault(fault);
    SeqAtpgResult r;
    if (sites.empty()) {
      r.status = AtpgStatus::kUntestable;
      return r;
    }
    const AtpgResult a = e.podem.generate_multi(sites, backtrack_limit);
    r.status = a.status;
    r.frames_used = frames;
    r.stats = a.stats;
    if (a.status == AtpgStatus::kDetected) {
      r.frame_inputs.assign(
          frames, std::vector<V>(n_.primary_inputs().size(), V::kX));
      for (int fr = 0; fr < frames; ++fr)
        for (std::size_t p = 0; p < n_.primary_inputs().size(); ++p) {
          const int pos = e.u.pi_map[fr][p];
          if (pos >= 0) r.frame_inputs[fr][p] = a.pi_values[pos];
        }
    }
    return r;
  }

  const Netlist& n_;
  const std::vector<V>* initial_state_;
  std::vector<std::unique_ptr<Engine>> by_frames_;  // by frame count
};

}  // namespace

SeqAtpgResult sequential_atpg(const Netlist& n, const Fault& fault,
                              int max_frames, long backtrack_limit,
                              const std::vector<V>* initial_state,
                              int min_frames) {
  return FrameEngines(n, initial_state)
      .generate(fault, max_frames, backtrack_limit, min_frames);
}

SeqAtpgCampaign run_sequential_atpg(const Netlist& n,
                                    const std::vector<Fault>& faults,
                                    int max_frames, long backtrack_limit,
                                    const FaultSimOptions& sim_options) {
  TSYN_SPAN("gl.atpg.seq");
  static util::Histogram& frames_hist =
      util::metrics().histogram("atpg.seq.frames_used");
  static util::Progress& p_targets = util::progress("atpg.targets");
  p_targets.add_total(static_cast<std::int64_t>(faults.size()));
  SeqAtpgCampaign c;
  std::vector<bool> handled(faults.size(), false);
  FrameEngines engines(n, nullptr);
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    if (handled[fi]) continue;
    const SeqAtpgResult r =
        engines.generate(faults[fi], max_frames, backtrack_limit, 1);
    c.total.decisions += r.stats.decisions;
    c.total.backtracks += r.stats.backtracks;
    c.total.implications += r.stats.implications;
    handled[fi] = true;
    p_targets.add(1);
    switch (r.status) {
      case AtpgStatus::kDetected: {
        ++c.detected;
        frames_hist.observe(r.frames_used);
        // Drop other faults caught by this sequence.
        std::vector<std::vector<Bits>> frames_bits;
        for (const auto& frame : r.frame_inputs) {
          std::vector<Bits> b(frame.size());
          for (std::size_t i = 0; i < frame.size(); ++i) {
            switch (frame[i]) {
              case V::k0: b[i] = Bits::all0(); break;
              case V::k1: b[i] = Bits::all1(); break;
              case V::kX: b[i] = Bits::all0(); break;  // deterministic fill
            }
          }
          frames_bits.push_back(std::move(b));
        }
        std::vector<Fault> remaining;
        std::vector<std::size_t> remaining_idx;
        for (std::size_t j = fi + 1; j < faults.size(); ++j)
          if (!handled[j]) {
            remaining.push_back(faults[j]);
            remaining_idx.push_back(j);
          }
        const std::vector<bool> hit =
            sequential_fault_sim(n, frames_bits, remaining, sim_options);
        for (std::size_t k = 0; k < remaining.size(); ++k)
          if (hit[k]) {
            handled[remaining_idx[k]] = true;
            p_targets.add(1);
            ++c.detected;
          }
        break;
      }
      case AtpgStatus::kUntestable:
        ++c.untestable;
        break;
      case AtpgStatus::kAborted:
        ++c.aborted;
        break;
    }
  }
  const double total = static_cast<double>(faults.size());
  c.fault_coverage = total == 0 ? 1.0 : c.detected / total;
  c.fault_efficiency =
      total == 0 ? 1.0 : (c.detected + c.untestable) / total;
  static util::Counter& decisions =
      util::metrics().counter("atpg.seq.decisions");
  static util::Counter& backtracks =
      util::metrics().counter("atpg.seq.backtracks");
  static util::Counter& implications =
      util::metrics().counter("atpg.seq.implications");
  static util::Counter& detected =
      util::metrics().counter("atpg.seq.detected");
  static util::Counter& untestable =
      util::metrics().counter("atpg.seq.untestable");
  static util::Counter& aborted = util::metrics().counter("atpg.seq.aborted");
  decisions.add(c.total.decisions);
  backtracks.add(c.total.backtracks);
  implications.add(c.total.implications);
  detected.add(c.detected);
  untestable.add(c.untestable);
  aborted.add(c.aborted);
  return c;
}

}  // namespace tsyn::gl
