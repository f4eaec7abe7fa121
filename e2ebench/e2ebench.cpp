// End-to-end design-point benchmark for tsyn.
//
// Drives one workload through the library's public entry points:
//
//   fullscan_report   the `tsyn_cli report` flow over seven designs at w8
//   partial_scan_seq  time-frame sequential ATPG, scan none vs mfvs, w2
//   sweep_grid        campaign::run_sweep over a 192-job generated grid
//
// With --trace 0 it sets the workload up several times (setup_s), then
// runs untraced passes for --seconds and reports the end-to-end metrics.
// With --trace 1 it alternates untraced and traced passes (spans around
// every public call, kept in memory and written to the work dir) and
// reports the per-layer split. Every pass's outputs are checked outside
// the timed region; the last stdout line is the JSON result. README.md in
// this directory documents the workloads, metrics and checks.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/manifest.h"
#include "campaign/sweep.h"
#include "cdfg/benchmarks.h"
#include "compaction/compaction.h"
#include "gatelevel/atpg_comb.h"
#include "gatelevel/atpg_seq.h"
#include "gatelevel/expand.h"
#include "gatelevel/faults.h"
#include "gatelevel/faultsim.h"
#include "gatelevel/simgraph.h"
#include "gatelevel/widebits.h"
#include "hls/synthesis.h"
#include "observe/ledger.h"
#include "observe/provenance.h"
#include "observe/report.h"
#include "observe/scoap_attr.h"
#include "testability/scan_select.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

#ifndef TSYN_BUILD_TYPE
#define TSYN_BUILD_TYPE "unknown"
#endif

namespace {

using namespace tsyn;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// In-memory span recorder. A span is (name, label, start, end, parent);
/// a layer's self time is its span's duration minus its children's.
class Tracer {
 public:
  struct Rec {
    std::string name;
    std::string label;
    double t0 = 0, t1 = 0;
    int parent = -1;
  };

  int begin(const std::string& name, const std::string& label) {
    recs_.push_back({name, label, now(), 0, cur_});
    cur_ = static_cast<int>(recs_.size()) - 1;
    return cur_;
  }
  void end(int id) {
    recs_[static_cast<std::size_t>(id)].t1 = now();
    cur_ = recs_[static_cast<std::size_t>(id)].parent;
  }
  /// Adds an already-timed child of the current span (run_one_job's
  /// StageSpans are reported after the fact).
  void add(const std::string& name, double t0, double t1) {
    recs_.push_back({name, "", t0, t1, cur_});
  }
  double now() const { return ms_between(origin_, Clock::now()); }

  /// Self time per span name, children subtracted.
  std::map<std::string, double> self_ms() const {
    std::vector<double> self(recs_.size());
    for (std::size_t i = 0; i < recs_.size(); ++i)
      self[i] = recs_[i].t1 - recs_[i].t0;
    for (const Rec& r : recs_)
      if (r.parent >= 0)
        self[static_cast<std::size_t>(r.parent)] -= r.t1 - r.t0;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < recs_.size(); ++i)
      out[recs_[i].name] += self[i];
    return out;
  }
  /// Total duration per span name.
  std::map<std::string, double> total_ms() const {
    std::map<std::string, double> out;
    for (const Rec& r : recs_) out[r.name] += r.t1 - r.t0;
    return out;
  }

  /// Chrome trace_event JSON of every recorded span.
  std::string to_json() const {
    std::ostringstream os;
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < recs_.size(); ++i) {
      const Rec& r = recs_[i];
      char buf[96];
      std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"dur\":%.3f", r.t0 * 1e3,
                    (r.t1 - r.t0) * 1e3);
      os << (i ? ",\n" : "\n") << "{\"name\":\"" << r.name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1," << buf
         << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent
         << ",\"label\":\"" << r.label << "\"}}";
    }
    os << "\n]}\n";
    return os.str();
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Rec> recs_;
  int cur_ = -1;
};

/// RAII span; a null tracer makes it free (the untraced passes).
class Span {
 public:
  Span(Tracer* t, const char* name, const std::string& label = "")
      : t_(t), id_(t ? t->begin(name, label) : -1) {}
  ~Span() {
    if (t_) t_->end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
  int id_;
};

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// Test-quality figures of one design point; summed over a pass.
struct Quality {
  std::int64_t faults = 0, detected = 0, untestable = 0, aborted = 0;
  std::int64_t patterns = 0, tdv_bits = 0;

  Quality& operator+=(const Quality& o) {
    faults += o.faults;
    detected += o.detected;
    untestable += o.untestable;
    aborted += o.aborted;
    patterns += o.patterns;
    tdv_bits += o.tdv_bits;
    return *this;
  }
  friend bool operator==(const Quality&, const Quality&) = default;

  std::string to_json() const {
    char buf[192];
    std::snprintf(buf, sizeof(buf), "[%lld, %lld, %lld, %lld, %lld, %lld]",
                  static_cast<long long>(faults),
                  static_cast<long long>(detected),
                  static_cast<long long>(untestable),
                  static_cast<long long>(aborted),
                  static_cast<long long>(patterns),
                  static_cast<long long>(tdv_bits));
    return buf;
  }
  static Quality from_json(const util::Json& j) {
    if (!j.is_array() || j.arr.size() != 6)
      throw std::runtime_error("expected.json: quality must be a 6-array");
    auto at = [&](std::size_t i) {
      return static_cast<std::int64_t>(j.arr[i].number);
    };
    return {at(0), at(1), at(2), at(3), at(4), at(5)};
  }
};

struct Point {
  std::string label;
  double ms = 0;
  Quality q;
  /// Digest of the point's outputs (patterns, statuses, ...) so later
  /// passes can be compared against the fully checked first one.
  std::uint64_t digest = 0;
  std::string error;  ///< non-empty: the point failed
};

struct Pass {
  double wall_ms = 0;
  std::vector<Point> points;
  std::string error;  ///< pass-level failure (fails every point)

  Quality total() const {
    Quality t;
    for (const Point& p : points) t += p.q;
    return t;
  }
};

/// Per-layer figures of one traced run, by metric name.
using Layers = std::map<std::string, double>;

/// Counter/histogram deltas of the metrics registry around a region.
struct MetricsDelta {
  util::MetricsSnapshot snap;
  double counter(const std::string& name) const {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
  }
  util::HistogramSnapshot histogram(const std::string& name) const {
    const auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? util::HistogramSnapshot{} : it->second;
  }
};

/// Resets the registry, runs `fn`, and returns what it recorded.
MetricsDelta measure_metrics(const std::function<void()>& fn) {
  util::metrics().reset();
  fn();
  return {util::metrics().snapshot()};
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finalizer over (seed, salt).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

int host_threads() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<cdfg::Cdfg> load_designs(const std::vector<std::string>& names) {
  std::vector<cdfg::Cdfg> all = cdfg::standard_benchmarks();
  std::vector<cdfg::Cdfg> out;
  for (const std::string& name : names) {
    auto it = std::find_if(all.begin(), all.end(), [&](const cdfg::Cdfg& g) {
      return g.name() == name;
    });
    if (it == all.end()) throw std::runtime_error("unknown design " + name);
    out.push_back(*it);
  }
  return out;
}

hls::SynthesisOptions allocation(int alu, int mul) {
  hls::SynthesisOptions opts;
  opts.resources = hls::Resources{{cdfg::FuType::kAlu, alu},
                                  {cdfg::FuType::kMultiplier, mul}};
  return opts;
}

std::uint64_t digest_cubes(util::Fnv1a h,
                           const std::vector<compaction::TestCube>& cubes) {
  for (const auto& c : cubes) {
    h.i64(static_cast<std::int64_t>(c.size()));
    for (gl::V v : c) h.i64(static_cast<std::int64_t>(v));
  }
  return h.value();
}

bool read_file(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  /// Builds the workload inputs; timed (several times) as setup_s.
  virtual void setup() = 0;
  /// One end-to-end pass. `tr` non-null = traced pass.
  virtual Pass run(Tracer* tr) = 0;
  /// Independent checks of a pass's outputs, outside the timed region.
  /// `first` is true for the pass whose outputs are checked in full;
  /// later passes must reproduce its digests.
  virtual void check(Pass& p, bool first) = 0;
  /// Run-level checks after all passes (reference runs). Returns "" or
  /// an error that fails every point.
  virtual std::string finish_checks() { return ""; }
  /// Per-layer figures from the last traced pass's registry delta and from
  /// replays outside it (trace mode only). Throws when a replay
  /// contradicts the pipeline.
  virtual void layer_replays(Layers&, const MetricsDelta&) {}
  /// The recorded-values key for this workload's seed ("any" when the
  /// workload has no random input).
  virtual std::string seed_key() const = 0;
  /// Quality the recorded values cover: per point label.
  virtual std::map<std::string, std::string> record(const Pass& p) const {
    std::map<std::string, std::string> out;
    for (const Point& pt : p.points) out[pt.label] = pt.q.to_json();
    return out;
  }
  /// Compares a pass against the recorded values (point label -> JSON
  /// value); marks mismatching points failed.
  virtual void check_recorded(Pass& p, const util::Json& rec) const {
    for (Point& pt : p.points) {
      const util::Json* want = rec.find(pt.label);
      if (!want) {
        pt.error = "no recorded values for point " + pt.label;
      } else if (!(Quality::from_json(*want) == pt.q)) {
        pt.error = "quality " + pt.q.to_json() + " != recorded " +
                   Quality::from_json(*want).to_json();
      }
    }
  }

  double load_ms = 0;  ///< cdfg.load_ms of the last setup
};

// -- fullscan_report --------------------------------------------------------

/// The `tsyn_cli report` flow per design: full scan, static compaction,
/// ledger, ship.ndetect grading, SCOAP + provenance attribution, report
/// JSON.
class FullScanReport : public Workload {
 public:
  explicit FullScanReport(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    const auto t0 = Clock::now();
    designs_ = load_designs({"tseng", "dct4", "diffeq", "iir", "fir8", "ar4",
                             "ewf"});
    load_ms = ms_between(t0, Clock::now());
    copts_ = {};
    copts_.mode = compaction::CompactMode::kStatic;
    copts_.xfill = compaction::XFill::kRandom;
    copts_.fill_seed = mix_seed(seed_, 0xF111);
  }

  Pass run(Tracer* tr) override {
    Pass p;
    outputs_.clear();
    Span pass_span(tr, "pass");
    const auto t0 = Clock::now();
    for (const cdfg::Cdfg& g : designs_) {
      Point pt;
      pt.label = g.name();
      try {
        run_point(g, tr, &pt);
      } catch (const std::exception& e) {
        pt.error = e.what();
      }
      p.points.push_back(std::move(pt));
    }
    p.wall_ms = ms_between(t0, Clock::now());
    return p;
  }

  void check(Pass& p, bool first) override {
    for (Point& pt : p.points) {
      if (!pt.error.empty()) continue;
      if (!first) {
        if (pt.digest != first_digest_[pt.label])
          pt.error = "outputs differ from the first pass";
        continue;
      }
      first_digest_[pt.label] = pt.digest;
      pt.error = regrade(outputs_.at(pt.label));
    }
  }

  void layer_replays(Layers& L, const MetricsDelta& pass_m) override {
    // Replay run_combinational_atpg with the pipeline's arguments on every
    // point of the last traced pass: static mode runs exactly this call
    // (documented bit-identical), so its time is the pipeline's PODEM +
    // drop-grading share and its statuses must equal the pipeline's.
    Tracer tr;
    long cubes = 0;
    const MetricsDelta atpg_m = measure_metrics([&] {
      for (const auto& [label, o] : outputs_) {
        gl::AtpgCampaign c;
        {
          Span s(&tr, "gatelevel.atpg_comb");
          c = gl::run_combinational_atpg(o.n, o.faults);
        }
        if (c.status != o.status)
          throw std::runtime_error("replayed combinational ATPG statuses "
                                   "differ from the pipeline's");
        cubes += static_cast<long>(c.tests.size());
      }
    });
    const double atpg_ms = tr.total_ms()["gatelevel.atpg_comb"];
    L["gatelevel.atpg_comb_ms"] = atpg_ms;
    L["compaction.self_ms"] -= atpg_ms;
    fill_atpg_comb_counts(L, atpg_m, cubes);
    if (atpg_m.counter("atpg.comb.decisions") !=
        pass_m.counter("atpg.comb.decisions"))
      throw std::runtime_error("replayed ATPG effort differs from the "
                               "pipeline's");
    L["compaction.topup_patterns"] =
        pass_m.counter("compaction.topup_patterns");
    long shipped = 0, baseline = 0;
    for (const auto& [label, o] : outputs_) {
      shipped += static_cast<long>(o.patterns.size());
      baseline += o.baseline_patterns;
    }
    L["compaction.reduction"] =
        baseline > 0 ? 1.0 - static_cast<double>(shipped) / baseline : 0.0;
  }

  /// The atpg_comb effort counts + cube yield from a registry delta.
  static void fill_atpg_comb_counts(Layers& L, const MetricsDelta& m,
                                    long cubes) {
    L["gatelevel.atpg_comb.decisions"] = m.counter("atpg.comb.decisions");
    L["gatelevel.atpg_comb.backtracks"] = m.counter("atpg.comb.backtracks");
    L["gatelevel.atpg_comb.implications"] =
        m.counter("atpg.comb.implications");
    L["gatelevel.atpg_comb.aborted"] = m.counter("atpg.comb.aborted");
    L["gatelevel.atpg_comb.untestable"] = m.counter("atpg.comb.untestable");
    // One histogram observation per PODEM target.
    const util::HistogramSnapshot bt =
        m.histogram("atpg.comb.backtracks_per_fault");
    L["gatelevel.atpg_comb.backtracks_per_target_p99"] = bt.percentile(99);
    L["gatelevel.atpg_comb.cube_yield"] =
        bt.count > 0 ? static_cast<double>(cubes) / bt.count : 0;
  }

  std::string seed_key() const override { return std::to_string(seed_); }

 private:
  /// What the checks and replays need from one point.
  struct Output {
    gl::Netlist n;
    std::vector<gl::Fault> faults;
    std::vector<gl::AtpgStatus> status;
    std::vector<compaction::TestCube> patterns;
    long baseline_patterns = 0;
  };

  void run_point(const cdfg::Cdfg& g, Tracer* tr, Point* pt) {
    Span point_span(tr, "point", g.name());
    const auto t0 = Clock::now();
    hls::Synthesis syn;
    {
      Span s(tr, "hls.synthesize");
      syn = hls::synthesize(g, allocation(2, 2));
    }
    rtl::Datapath dp = syn.rtl.datapath;
    for (auto& reg : dp.regs) reg.test_kind = rtl::TestRegKind::kScan;
    gl::ExpandedDesign ed;
    std::vector<gl::Fault> faults;
    {
      Span s(tr, "gatelevel.expand");
      gl::ExpandOptions eo;
      eo.width_override = 8;
      eo.record_provenance = true;
      ed = gl::expand_datapath(dp, eo);
      faults = gl::enumerate_faults(ed.netlist);
    }
    const gl::Netlist& n = ed.netlist;
    if (tr) {
      // The untraced pass lowers lazily inside the first grading call.
      Span s(tr, "gatelevel.simgraph");
      gl::SimGraph::of(n);
    }
    {
      Span s(tr, "observe.attribution");
      observe::annotate_ops(ed.provenance, g, &syn.schedule.step_of_op);
    }
    observe::RunReport r;
    compaction::CompactedCampaign c;
    {
      Span s(tr, "observe.ledger");
      observe::ledger_reset();
      observe::ledger_enable();
    }
    {
      Span s(tr, "compaction.self");
      c = compaction::run_compacted_atpg(n, faults, copts_);
    }
    {
      Span s(tr, "compaction.detection_matrix");
      observe::LedgerPhase phase("ship.ndetect");
      (void)compaction::detection_matrix(n, c.patterns, faults);
    }
    {
      Span s(tr, "observe.ledger");
      observe::ledger_disable();
      r.ledger = observe::ledger_snapshot();
    }
    r.title = g.name() + " w8 static";
    r.behavior = "bench:" + g.name();
    r.compact_mode = compaction::to_string(copts_.mode);
    r.xfill = compaction::to_string(copts_.xfill);
    r.width = 8;
    r.gates = n.gate_count();
    r.pis = static_cast<std::int64_t>(n.primary_inputs().size());
    r.faults = static_cast<std::int64_t>(faults.size());
    r.fault_coverage = c.campaign.fault_coverage;
    r.fault_efficiency = c.campaign.fault_efficiency;
    r.cubes = c.stats.cubes_generated;
    r.patterns = static_cast<std::int64_t>(c.patterns.size());
    r.baseline_patterns = c.baseline_patterns;
    {
      Span s(tr, "observe.attribution");
      r.scoap = observe::attribute_scoap(n, r.ledger, /*top_k=*/10);
      r.provenance = std::move(ed.provenance);
      r.attribution = observe::attribute_coverage(r.provenance, r.ledger);
    }
    std::string json;
    {
      Span s(tr, "observe.report_json");
      r.metrics_json = util::metrics().to_json();
      json = observe::report_to_json(r);
    }
    pt->ms = ms_between(t0, Clock::now());
    if (json.empty()) throw std::runtime_error("empty report JSON");

    Quality& q = pt->q;
    q.faults = static_cast<std::int64_t>(faults.size());
    for (gl::AtpgStatus st : c.campaign.status) {
      q.detected += st == gl::AtpgStatus::kDetected;
      q.untestable += st == gl::AtpgStatus::kUntestable;
      q.aborted += st == gl::AtpgStatus::kAborted;
    }
    q.patterns = static_cast<std::int64_t>(c.patterns.size());
    q.tdv_bits = c.test_data_bits();
    util::Fnv1a h;
    for (gl::AtpgStatus st : c.campaign.status)
      h.i64(static_cast<std::int64_t>(st));
    pt->digest = digest_cubes(h, c.patterns);
    outputs_[g.name()] = {std::move(ed.netlist), std::move(faults),
                          std::move(c.campaign.status), std::move(c.patterns),
                          c.baseline_patterns};
  }

  /// Re-grades the shipped patterns with the full-resimulation reference
  /// engine, each pattern a one-frame sequence; every fault the campaign
  /// marked detected must be detected.
  static std::string regrade(const Output& o) {
    std::vector<gl::Fault> claimed;
    for (std::size_t i = 0; i < o.faults.size(); ++i)
      if (o.status[i] == gl::AtpgStatus::kDetected)
        claimed.push_back(o.faults[i]);
    std::vector<bool> hit(claimed.size(), false);
    for (const std::vector<gl::Bits>& block :
         compaction::patterns_to_blocks(o.patterns)) {
      std::vector<gl::Fault> left;
      std::vector<std::size_t> idx;
      for (std::size_t i = 0; i < claimed.size(); ++i)
        if (!hit[i]) {
          left.push_back(claimed[i]);
          idx.push_back(i);
        }
      if (left.empty()) break;
      const std::vector<bool> d =
          gl::sequential_fault_sim_full_resim(o.n, {block}, left);
      for (std::size_t k = 0; k < left.size(); ++k)
        if (d[k]) hit[idx[k]] = true;
    }
    const long missed = std::count(hit.begin(), hit.end(), false);
    if (missed > 0)
      return std::to_string(missed) + " detected faults not detected by the "
             "shipped patterns under full resimulation";
    return "";
  }

  std::uint64_t seed_;
  std::vector<cdfg::Cdfg> designs_;
  compaction::CompactionOptions copts_;
  std::map<std::string, Output> outputs_;  ///< of the last pass, by point
  std::map<std::string, std::uint64_t> first_digest_;
};

// -- partial_scan_seq -------------------------------------------------------

/// Time-frame sequential ATPG on the first 60 faults of three loop-heavy
/// designs at w2, without scan and with MFVS behavioural partial scan.
class PartialScanSeq : public Workload {
 public:
  static constexpr std::size_t kFaults = 60;
  static constexpr int kMaxFrames = 4;
  static constexpr long kBacktrackLimit = 200;

  void setup() override {
    const auto t0 = Clock::now();
    designs_ = load_designs({"diffeq", "iir", "ar4"});
    load_ms = ms_between(t0, Clock::now());
  }

  Pass run(Tracer* tr) override {
    Pass p;
    scan_regs_ = 0;
    Span pass_span(tr, "pass");
    const auto t0 = Clock::now();
    for (const cdfg::Cdfg& g : designs_)
      for (const char* scan : {"none", "mfvs"}) {
        Point pt;
        pt.label = g.name() + "." + scan;
        try {
          run_point(g, scan, tr, &pt);
        } catch (const std::exception& e) {
          pt.error = e.what();
        }
        p.points.push_back(std::move(pt));
      }
    p.wall_ms = ms_between(t0, Clock::now());
    return p;
  }

  void check(Pass& p, bool first) override {
    for (Point& pt : p.points) {
      if (!pt.error.empty()) continue;
      const Quality& q = pt.q;
      if (q.faults != static_cast<std::int64_t>(kFaults) ||
          q.detected + q.untestable + q.aborted != q.faults)
        pt.error = "fault statuses do not partition the target list";
      else if (first)
        first_digest_[pt.label] = pt.digest;
      else if (pt.digest != first_digest_[pt.label])
        pt.error = "outputs differ from the first pass";
    }
  }

  void layer_replays(Layers& L, const MetricsDelta& m) override {
    L["testability.scan_regs"] = scan_regs_;
    L["gatelevel.atpg_seq.decisions"] = m.counter("atpg.seq.decisions");
    L["gatelevel.atpg_seq.backtracks"] = m.counter("atpg.seq.backtracks");
    L["gatelevel.atpg_seq.aborted"] = m.counter("atpg.seq.aborted");
    L["gatelevel.atpg_seq.frames_used"] =
        static_cast<double>(m.histogram("atpg.seq.frames_used").sum);
    L["gatelevel.faultsim.seq_events"] = m.counter("faultsim.seq.events");
    L["gatelevel.faultsim.seq_faults_dropped_midseq"] =
        m.counter("faultsim.seq.faults_dropped_midseq");
  }

  std::string seed_key() const override { return "any"; }

 private:
  void run_point(const cdfg::Cdfg& g, const std::string& scan, Tracer* tr,
                 Point* pt) {
    Span point_span(tr, "point", pt->label);
    static util::Histogram& frames =
        util::metrics().histogram("atpg.seq.frames_used");
    const auto t0 = Clock::now();
    hls::Synthesis syn;
    {
      Span s(tr, "hls.synthesize");
      syn = hls::synthesize(g, allocation(2, 2));
    }
    rtl::Datapath dp = syn.rtl.datapath;
    int regs = 0;
    if (scan == "mfvs") {
      Span s(tr, "testability.scan_select");
      regs = testability::apply_scan(
          g, syn.binding, testability::select_scan_vars_mfvs(g), dp);
    }
    gl::ExpandedDesign ed;
    std::vector<gl::Fault> faults;
    {
      Span s(tr, "gatelevel.expand");
      gl::ExpandOptions eo;
      eo.width_override = 2;
      ed = gl::expand_datapath(dp, eo);
      faults = gl::enumerate_faults(ed.netlist);
      if (faults.size() > kFaults) faults.resize(kFaults);
    }
    const gl::Netlist& n = ed.netlist;
    if (tr) {
      Span s(tr, "gatelevel.simgraph");
      gl::SimGraph::of(n);
    }
    const std::int64_t frames0 = frames.read().sum;
    gl::SeqAtpgCampaign c;
    {
      Span s(tr, "gatelevel.atpg_seq");
      c = gl::run_sequential_atpg(n, faults, kMaxFrames, kBacktrackLimit);
    }
    pt->ms = ms_between(t0, Clock::now());
    scan_regs_ += regs;

    Quality& q = pt->q;
    q.faults = static_cast<std::int64_t>(faults.size());
    q.detected = c.detected;
    q.untestable = c.untestable;
    q.aborted = c.aborted;
    // Test vectors of the generated sequences (frames of every sequence
    // PODEM produced), and their input bits.
    q.patterns = frames.read().sum - frames0;
    q.tdv_bits =
        q.patterns * static_cast<std::int64_t>(n.primary_inputs().size());
    pt->digest = util::Fnv1a()
                     .i64(c.total.decisions)
                     .i64(c.total.backtracks)
                     .i64(c.total.implications)
                     .i64(regs)
                     .value();
  }

  std::vector<cdfg::Cdfg> designs_;
  std::map<std::string, std::uint64_t> first_digest_;
  double scan_regs_ = 0;  ///< summed over the last pass
};

// -- sweep_grid -------------------------------------------------------------

/// campaign::run_sweep over a generated 8 x 3 x 2 x 4 full-scan grid with
/// a fresh results dir and cold stage cache every pass.
class SweepGrid : public Workload {
 public:
  SweepGrid(std::uint64_t seed, fs::path work)
      : seed_(seed), work_(std::move(work)) {}

  void setup() override {
    const auto t0 = Clock::now();
    const std::vector<cdfg::Cdfg> all = cdfg::standard_benchmarks();
    load_ms = ms_between(t0, Clock::now());
    std::ostringstream os;
    os << "{\n  \"schema\": 1,\n  \"designs\": [";
    for (std::size_t i = 0; i < all.size(); ++i)
      os << (i ? ", " : "") << "\"bench:" << all[i].name() << "\"";
    os << "],\n  \"configs\": [{\"name\": \"a1m1\", \"alu\": 1, \"mul\": 1}, "
          "{\"name\": \"a2m2\", \"alu\": 2, \"mul\": 2}, "
          "{\"name\": \"a3m2\", \"alu\": 3, \"mul\": 2}],\n"
          "  \"scan\": [\"full\"],\n  \"widths\": [2, 4],\n  \"seeds\": [";
    for (int i = 0; i < 4; ++i)
      os << (i ? ", " : "") << (mix_seed(seed_, 0x5EED + i) >> 33);
    os << "],\n  \"compact\": \"static\",\n  \"xfill\": \"random\"\n}\n";
    fs::create_directories(work_);
    const fs::path path = work_ / "manifest.json";
    {
      std::ofstream out(path, std::ios::binary);
      out << os.str();
      if (!out) throw std::runtime_error("cannot write " + path.string());
    }
    std::string text;
    if (!read_file(path, &text))
      throw std::runtime_error("cannot read " + path.string());
    manifest_ = campaign::parse_manifest(text);
    grid_ = campaign::expand_grid(manifest_);
    fs::remove_all(work_ / "results");
    fs::create_directories(work_ / "results");
  }

  /// The user's sweep. Its traced form is run_serial(): run_sweep is one
  /// call, and the stage split needs run_one_job's StageSpans.
  Pass run(Tracer*) override {
    const fs::path dir =
        work_ / "results" / ("pass" + std::to_string(pass_++ % 2));
    fs::remove_all(dir);
    campaign::SweepOptions so;
    so.results_dir = dir.string();
    so.threads = host_threads();
    Pass p;
    const auto t0 = Clock::now();
    const campaign::SweepSummary s = campaign::run_sweep(manifest_, so);
    p.wall_ms = ms_between(t0, Clock::now());
    last_ = s;
    last_dir_ = dir;
    for (const campaign::JobResult& r : s.jobs) {
      Point pt;
      pt.label = r.spec.id;
      pt.ms = r.wall_ms;
      pt.q = job_quality(r, 0);
      if (r.status != "ok") pt.error = "job failed: " + r.error;
      p.points.push_back(std::move(pt));
    }
    if (!s.complete) p.error = "sweep incomplete";
    return p;
  }

  void check(Pass& p, bool) override {
    // Every job's report file: read its PI count (test data volume) and
    // require the artifact to exist and parse.
    for (std::size_t i = 0; i < p.points.size(); ++i) {
      Point& pt = p.points[i];
      if (!pt.error.empty()) continue;
      std::string text;
      if (!read_file(last_dir_ / (pt.label + ".json"), &text)) {
        pt.error = "missing report file";
        continue;
      }
      try {
        const util::Json doc = util::Json::parse(text);
        const util::Json* design = doc.find("design");
        const double pis = design ? design->number_or("pis", -1) : -1;
        if (pis <= 0) throw std::runtime_error("report without pis");
        pt.q.tdv_bits = pt.q.patterns * static_cast<std::int64_t>(pis);
      } catch (const std::exception& e) {
        pt.error = std::string("bad report file: ") + e.what();
      }
    }
    // The written index and the in-memory one must both equal the
    // one-thread reference, up to timing.
    const std::string got =
        campaign::strip_timing(campaign::index_to_json(last_));
    std::string file;
    if (!read_file(last_dir_ / "index.json", &file) ||
        campaign::strip_timing(file) != got)
      p.error = "index.json on disk differs from the returned summary";
    else
      pass_indexes_.push_back(got);
  }

  std::string finish_checks() override {
    const std::string ref = reference_index();
    for (const std::string& idx : pass_indexes_)
      if (idx != ref)
        return "sweep index differs from the one-thread reference";
    return "";
  }

  void layer_replays(Layers& L, const MetricsDelta& m) override {
    L["compaction.topup_patterns"] = m.counter("compaction.topup_patterns");
    // One user-shaped sweep at full width: memo and fan-out figures.
    const fs::path dir = work_ / "results" / "traced";
    fs::remove_all(dir);
    campaign::SweepOptions so;
    so.results_dir = dir.string();
    so.threads = host_threads();
    const campaign::SweepSummary s = campaign::run_sweep(manifest_, so);
    const double lookups =
        static_cast<double>(s.cache.hits() + s.cache.misses());
    L["campaign.memo_hit_rate"] =
        lookups > 0 ? static_cast<double>(s.cache.hits()) / lookups : 0;
    L["campaign.coalesced"] = static_cast<double>(s.cache.coalesced());
    double job_ms = 0;
    for (const campaign::JobResult& r : s.jobs) job_ms += r.wall_ms;
    L["campaign.parallel_efficiency"] = job_ms / (so.threads * s.wall_ms);
    if (campaign::strip_timing(campaign::index_to_json(s)) != reference_index())
      throw std::runtime_error("traced sweep index differs from reference");
    // Orchestration: the one-thread sweep minus the serial job replay.
    L["campaign.orchestration_ms"] = ref_wall_ms_ - replay_wall_ms_;

    // The hls / gatelevel calls under the campaign's stages, replayed with
    // their own spans: each distinct synthesis and expansion once (the
    // stage cache's misses), combinational ATPG once per job with the
    // job's arguments.
    Tracer tr;
    std::map<std::string, hls::Synthesis> syns;
    std::map<std::string, campaign::ExpandStage> exps;
    long cubes = 0;
    const std::vector<cdfg::Cdfg> all = cdfg::standard_benchmarks();
    std::map<std::string, const campaign::JobResult*> by_id;
    for (const campaign::JobResult& r : s.jobs) by_id[r.spec.id] = &r;
    const MetricsDelta atpg_m = measure_metrics([&] {
      for (const campaign::JobSpec& spec : grid_) {
        const auto g = std::find_if(all.begin(), all.end(), [&](const auto& d) {
          return "bench:" + d.name() == spec.design;
        });
        if (g == all.end()) throw std::runtime_error("unknown " + spec.design);
        const std::string skey = spec.design + "." + spec.config.name;
        auto [syn, new_syn] = syns.try_emplace(skey);
        if (new_syn) {
          Span sp(&tr, "hls.synthesize");
          syn->second = hls::synthesize(
              *g, allocation(spec.config.alu, spec.config.mul));
        }
        auto [exp, new_exp] =
            exps.try_emplace(skey + ".w" + std::to_string(spec.width));
        campaign::ExpandStage& ex = exp->second;
        if (new_exp) {
          rtl::Datapath dp = syn->second.rtl.datapath;
          for (auto& reg : dp.regs) reg.test_kind = rtl::TestRegKind::kScan;
          gl::ExpandOptions eo;
          eo.width_override = spec.width;
          eo.record_provenance = false;
          {
            Span sp(&tr, "gatelevel.expand");
            ex.design = gl::expand_datapath(dp, eo);
            ex.faults = gl::enumerate_faults(ex.design.netlist);
          }
          Span sp(&tr, "gatelevel.simgraph");
          gl::SimGraph::of(ex.design.netlist);
        }
        gl::FaultSimOptions sim;
        sim.num_threads = 1;
        gl::AtpgCampaign c;
        {
          Span sp(&tr, "gatelevel.atpg_comb");
          c = gl::run_combinational_atpg(ex.design.netlist, ex.faults,
                                         manifest_.backtrack_limit, sim);
        }
        cubes += static_cast<long>(c.tests.size());
        const campaign::JobResult* r = by_id[spec.id];
        if (!r || c.fault_coverage != r->coverage ||
            c.fault_efficiency != r->efficiency)
          throw std::runtime_error("replayed ATPG of " + spec.id +
                                   " differs from the sweep's campaign");
      }
    });
    std::map<std::string, double> ms = tr.total_ms();
    L["hls.synthesize_ms"] = ms["hls.synthesize"];
    L["gatelevel.expand_ms"] = ms["gatelevel.expand"];
    L["gatelevel.simgraph_ms"] = ms["gatelevel.simgraph"];
    L["gatelevel.atpg_comb_ms"] = ms["gatelevel.atpg_comb"];
    FullScanReport::fill_atpg_comb_counts(L, atpg_m, cubes);
  }

  /// Trace mode: the serial replay of the grid through run_one_job with
  /// one StageCache, each job a point span with its stages as children.
  Pass run_serial(Tracer* tr) {
    campaign::StageCache cache;
    Pass p;
    Span pass_span(tr, "pass");
    const auto t0 = Clock::now();
    for (const campaign::JobSpec& spec : grid_) {
      Point pt;
      pt.label = spec.id;
      Span job_span(tr, "point", spec.id);
      const double j0 = tr ? tr->now() : 0;
      const auto jt0 = Clock::now();
      std::string report;
      std::vector<campaign::StageSpan> stages;
      const campaign::JobResult r = campaign::run_one_job(
          spec, manifest_, cache, &report, tr ? &stages : nullptr);
      pt.ms = ms_between(jt0, Clock::now());
      for (const campaign::StageSpan& st : stages)
        tr->add("campaign.stage." + st.name, j0 + st.t0_ms, j0 + st.t1_ms);
      pt.q = job_quality(r, 0);
      if (r.status != "ok") pt.error = "job failed: " + r.error;
      p.points.push_back(std::move(pt));
    }
    p.wall_ms = ms_between(t0, Clock::now());
    if (!tr) replay_wall_ms_ = p.wall_ms;
    return p;
  }

  /// A serial replay pass must reproduce the user sweep's job results;
  /// takes the test data volume from the user sweep's report files.
  static void check_serial(Pass& serial, const Pass& user) {
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
      Point& pt = serial.points[i];
      if (!pt.error.empty()) continue;
      const Point* u = i < user.points.size() ? &user.points[i] : nullptr;
      Quality q = pt.q;
      if (u) q.tdv_bits = u->q.tdv_bits;
      if (!u || u->label != pt.label || !(u->q == q))
        pt.error = "serial replay differs from the sweep's job result";
      else
        pt.q = q;
    }
  }

  std::string seed_key() const override { return std::to_string(seed_); }

  std::map<std::string, std::string> record(const Pass& p) const override {
    char hex[32];
    std::snprintf(hex, sizeof(hex), "\"%016llx\"",
                  static_cast<unsigned long long>(
                      util::Fnv1a().str(reference_index_).value()));
    return {{"index_fnv1a", hex}, {"total", p.total().to_json()}};
  }

  void check_recorded(Pass& p, const util::Json& rec) const override {
    const std::map<std::string, std::string> got = record(p);
    const util::Json* idx = rec.find("index_fnv1a");
    const util::Json* tot = rec.find("total");
    std::string err;
    if (!idx || "\"" + idx->str + "\"" != got.at("index_fnv1a"))
      err = "sweep index digest differs from the recorded one";
    else if (!tot || !(Quality::from_json(*tot) == p.total()))
      err = "sweep totals differ from the recorded ones";
    if (!err.empty())
      for (Point& pt : p.points)
        if (pt.error.empty()) pt.error = err;
  }

 private:
  static Quality job_quality(const campaign::JobResult& r, std::int64_t pis) {
    Quality q;
    q.faults = r.faults;
    const double f = static_cast<double>(r.faults);
    q.detected = std::llround(r.coverage * f);
    q.untestable = std::llround(r.efficiency * f) - q.detected;
    q.aborted = q.faults - q.detected - q.untestable;
    q.patterns = r.patterns;
    q.tdv_bits = r.patterns * pis;
    return q;
  }

  /// strip_timing(index) of a one-thread sweep, recorded once per run.
  const std::string& reference_index() {
    if (reference_index_.empty()) {
      const fs::path dir = work_ / "results" / "reference";
      fs::remove_all(dir);
      campaign::SweepOptions so;
      so.results_dir = dir.string();
      so.threads = 1;
      const auto t0 = Clock::now();
      const campaign::SweepSummary s = campaign::run_sweep(manifest_, so);
      ref_wall_ms_ = ms_between(t0, Clock::now());
      if (s.failed != 0 || !s.complete)
        throw std::runtime_error("one-thread reference sweep failed");
      reference_index_ = campaign::strip_timing(campaign::index_to_json(s));
    }
    return reference_index_;
  }

  std::uint64_t seed_;
  fs::path work_;
  campaign::Manifest manifest_;
  std::vector<campaign::JobSpec> grid_;
  int pass_ = 0;
  campaign::SweepSummary last_;
  fs::path last_dir_;
  std::vector<std::string> pass_indexes_;
  std::string reference_index_;
  double ref_wall_ms_ = 0;
  double replay_wall_ms_ = 0;  ///< last untraced serial replay
};

// ---------------------------------------------------------------------------
// Command line and run loop
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  fs::path work = ".bench_build/work";
  std::string expected;  ///< recorded-values file; "" = none
  bool record = false;   ///< print this seed's record instead of metrics
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "error: %s\nusage: e2ebench --workload "
               "fullscan_report|partial_scan_seq|sweep_grid --seed N "
               "--seconds S --trace 0|1 [--work DIR] [--expected FILE] "
               "[--record]\n",
               msg.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") o.workload = value();
      else if (a == "--seed") o.seed = std::stoull(value());
      else if (a == "--seconds") o.seconds = std::stod(value());
      else if (a == "--trace") o.trace = value() == "1";
      else if (a == "--work") o.work = value();
      else if (a == "--expected") o.expected = value();
      else if (a == "--record") o.record = true;
      else usage("unknown argument " + a);
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "fullscan_report")
    return std::make_unique<FullScanReport>(o.seed);
  if (o.workload == "partial_scan_seq")
    return std::make_unique<PartialScanSeq>();
  if (o.workload == "sweep_grid")
    return std::make_unique<SweepGrid>(o.seed, o.work / "sweep_grid");
  usage("unknown workload " + o.workload);
}

/// The per-layer metric names, in output order ("0" when the workload does
/// not exercise the layer).
const char* const kLayerMetrics[] = {
    "cdfg.load_ms",
    "hls.synthesize_ms",
    "gatelevel.expand_ms",
    "gatelevel.simgraph_ms",
    "testability.scan_select_ms",
    "testability.scan_regs",
    "gatelevel.atpg_comb_ms",
    "gatelevel.atpg_comb.decisions",
    "gatelevel.atpg_comb.backtracks",
    "gatelevel.atpg_comb.implications",
    "gatelevel.atpg_comb.aborted",
    "gatelevel.atpg_comb.untestable",
    "gatelevel.atpg_comb.backtracks_per_target_p99",
    "gatelevel.atpg_comb.cube_yield",
    "compaction.self_ms",
    "compaction.detection_matrix_ms",
    "compaction.topup_patterns",
    "compaction.reduction",
    "gatelevel.faultsim.ppsfp_faults_simulated",
    "gatelevel.faultsim.ppsfp_events",
    "gatelevel.faultsim.ppsfp_detect_ratio",
    "gatelevel.atpg_seq_ms",
    "gatelevel.atpg_seq.decisions",
    "gatelevel.atpg_seq.backtracks",
    "gatelevel.atpg_seq.aborted",
    "gatelevel.atpg_seq.frames_used",
    "gatelevel.faultsim.seq_events",
    "gatelevel.faultsim.seq_faults_dropped_midseq",
    "observe.ledger_ms",
    "observe.attribution_ms",
    "observe.report_json_ms",
    "campaign.stage_ms.parse",
    "campaign.stage_ms.synth",
    "campaign.stage_ms.expand",
    "campaign.stage_ms.atpg",
    "campaign.memo_hit_rate",
    "campaign.coalesced",
    "campaign.orchestration_ms",
    "campaign.parallel_efficiency",
    "unattributed_ms",
    "trace.traced_wall_s",
    "trace.untraced_wall_s",
    "trace.overhead_ratio",
};

const char* unit_of(const std::string& name) {
  auto ends = [&](const char* suf) {
    const std::size_t n = std::strlen(suf);
    return name.size() >= n && name.compare(name.size() - n, n, suf) == 0;
  };
  if (ends("_ms") || name.rfind("campaign.stage_ms.", 0) == 0) return "ms";
  if (ends("_s")) return "s";
  if (ends("_ratio") || ends("_rate") || ends("efficiency") ||
      ends("reduction") || ends("cube_yield"))
    return "ratio";
  return "count";
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int run(const Options& o) {
  std::unique_ptr<Workload> w = make_workload(o);

  // Host record: results from different hosts are never comparable.
  std::printf("# host {\"nproc\": %d, \"hardware_concurrency\": %u, "
              "\"simd\": \"%s\", \"build_type\": \"%s\"}\n",
              host_threads(), std::thread::hardware_concurrency(),
              gl::to_string(gl::active_simd_backend()), TSYN_BUILD_TYPE);

  // Set-up: one-time lazy initialisation (pool start, SIMD dispatch) in
  // the first repetition, then input building. It is repeated before the
  // passes and after each untraced one, so its median samples the whole
  // run rather than one instant of a host whose speed drifts.
  std::vector<double> setups;
  auto setup_once = [&] {
    const auto t0 = Clock::now();
    if (setups.empty()) {
      (void)util::ThreadPool::shared();
      (void)gl::active_simd_backend();
    }
    w->setup();
    setups.push_back(ms_between(t0, Clock::now()) / 1000.0);
  };
  for (int i = 0; i < 5; ++i) setup_once();

  auto* sweep = dynamic_cast<SweepGrid*>(w.get());
  std::vector<Pass> passes;
  Layers L;
  std::vector<double> traced_ms, untraced_ms;
  std::string replay_error;  ///< a replay contradicting the pipeline
  const auto start = Clock::now();
  auto elapsed_s = [&] { return ms_between(start, Clock::now()) / 1000.0; };

  if (o.record) {
    passes.push_back(w->run(nullptr));
    w->check(passes.back(), /*first=*/true);
  } else if (!o.trace) {
    do {
      passes.push_back(w->run(nullptr));
      w->check(passes.back(), /*first=*/passes.size() == 1);
      setup_once();
    } while (elapsed_s() < o.seconds);
  } else {
    // Alternate untraced and traced passes; the layer split comes from
    // the last traced pass.
    MetricsDelta traced_m;
    Tracer last;
    do {
      Pass u = sweep ? sweep->run_serial(nullptr) : w->run(nullptr);
      if (!sweep) w->check(u, passes.empty());
      untraced_ms.push_back(u.wall_ms);
      passes.push_back(std::move(u));
      Tracer tr;
      Pass t;
      traced_m = measure_metrics([&] {
        t = sweep ? sweep->run_serial(&tr) : w->run(&tr);
      });
      if (!sweep) w->check(t, false);
      traced_ms.push_back(t.wall_ms);
      passes.push_back(std::move(t));
      last = std::move(tr);
    } while (elapsed_s() < o.seconds);
    if (sweep) {
      // The serial replays are checked against a full-width user sweep.
      Pass user = w->run(nullptr);
      w->check(user, true);
      for (Pass& p : passes) SweepGrid::check_serial(p, user);
      passes.push_back(std::move(user));
    }

    const std::map<std::string, double> self = last.self_ms();
    const double pass_ms = last.total_ms()["pass"];
    double layered = 0;
    for (const auto& [name, ms] : self)
      if (name != "pass" && name != "point") {
        std::string metric = name + "_ms";
        if (name.rfind("campaign.stage.", 0) == 0)
          metric = "campaign.stage_ms." + name.substr(15);
        L[metric] += ms;
        layered += ms;
      }
    L["unattributed_ms"] = pass_ms - layered;
    L["gatelevel.faultsim.ppsfp_faults_simulated"] =
        traced_m.counter("faultsim.ppsfp.faults_simulated");
    L["gatelevel.faultsim.ppsfp_events"] =
        traced_m.counter("faultsim.ppsfp.events");
    try {
      w->layer_replays(L, traced_m);
    } catch (const std::exception& e) {
      replay_error = e.what();
    }
    const double sim = L["gatelevel.faultsim.ppsfp_faults_simulated"];
    L["gatelevel.faultsim.ppsfp_detect_ratio"] =
        sim > 0 ? traced_m.counter("faultsim.ppsfp.faults_detected") / sim : 0;
    L["cdfg.load_ms"] = w->load_ms;
    L["trace.traced_wall_s"] = median(traced_ms) / 1000.0;
    L["trace.untraced_wall_s"] = median(untraced_ms) / 1000.0;
    L["trace.overhead_ratio"] = median(traced_ms) / median(untraced_ms);
    const fs::path trace_path = o.work / (o.workload + ".trace.json");
    fs::create_directories(o.work);
    std::ofstream(trace_path, std::ios::binary) << last.to_json();
  }
  const double rss_mb = peak_rss_mb();
  const auto checks_t0 = Clock::now();

  std::string global_error = replay_error;
  try {
    if (global_error.empty()) global_error = w->finish_checks();
  } catch (const std::exception& e) {
    global_error = e.what();
  }

  // Recorded values for this seed.
  bool recorded = false;
  if (!o.expected.empty() && !o.record) {
    std::string text;
    if (!read_file(o.expected, &text))
      throw std::runtime_error("cannot read " + o.expected);
    const util::Json doc = util::Json::parse(text);
    const util::Json* wl = doc.find(o.workload);
    const util::Json* seeds = wl ? wl->find(w->seed_key()) : nullptr;
    if (seeds) {
      recorded = true;
      for (Pass& p : passes) w->check_recorded(p, *seeds);
    }
  }

  // Failures: every point of every pass counts once.
  std::int64_t attempted = 0, failed = 0;
  std::string first_error = global_error;
  for (const Pass& p : passes)
    for (const Point& pt : p.points) {
      ++attempted;
      const std::string& err =
          !global_error.empty() ? global_error
                                : (!p.error.empty() ? p.error : pt.error);
      if (!err.empty()) {
        ++failed;
        if (first_error.empty()) first_error = pt.label + ": " + err;
      }
    }

  if (o.record) {
    if (failed > 0) throw std::runtime_error("not recording: " + first_error);
    std::printf("{\"workload\": \"%s\", \"seed\": \"%s\", \"points\": {",
                o.workload.c_str(), w->seed_key().c_str());
    bool first = true;
    for (const auto& [k, v] : w->record(passes.front())) {
      std::printf("%s\"%s\": %s", first ? "" : ", ", k.c_str(), v.c_str());
      first = false;
    }
    std::printf("}}\n");
    return 0;
  }

  std::vector<std::pair<std::string, std::pair<double, const char*>>> out;
  if (!o.trace) {
    std::vector<double> walls, point_ms;
    for (const Pass& p : passes) {
      walls.push_back(p.wall_ms / 1000.0);
      for (const Point& pt : p.points) point_ms.push_back(pt.ms);
    }
    const Quality q = passes.front().total();
    const double f = static_cast<double>(q.faults);
    out = {
        {"wall_s", {median(walls), "s"}},
        {"point_p50_ms", {percentile(point_ms, 50), "ms"}},
        {"point_p90_ms", {percentile(point_ms, 90), "ms"}},
        {"setup_s", {median(setups), "s"}},
        {"peak_rss_mb", {rss_mb, "MB"}},
        {"fault_coverage", {q.detected / f, "ratio"}},
        {"fault_efficiency", {(q.detected + q.untestable) / f, "ratio"}},
        {"patterns", {static_cast<double>(q.patterns), "count"}},
        {"tdv_bits", {static_cast<double>(q.tdv_bits), "bit"}},
    };
    std::printf("# %s seed %llu: %zu timed passes, %zu point samples, "
                "%lld aborted faults, failed_frac %.6g (%lld/%lld), "
                "recorded values %s\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                walls.size(), point_ms.size(),
                static_cast<long long>(q.aborted),
                attempted ? static_cast<double>(failed) / attempted : 0.0,
                static_cast<long long>(failed),
                static_cast<long long>(attempted),
                recorded ? "matched" : "absent for this seed");
  } else {
    for (const char* name : kLayerMetrics)
      out.push_back({name, {L[name], unit_of(name)}});
    std::printf("# %s seed %llu traced: %zu traced passes, overhead %.4f, "
                "failed %lld/%lld\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                traced_ms.size(), L["trace.overhead_ratio"],
                static_cast<long long>(failed),
                static_cast<long long>(attempted));
  }
  std::printf("# run-level checks %.2f s; pass walls (ms):",
              ms_between(checks_t0, Clock::now()) / 1000.0);
  for (const Pass& p : passes) std::printf(" %.1f", p.wall_ms);
  std::printf("\n");
  if (!first_error.empty())
    std::printf("# first failure: %s\n", first_error.c_str());
  for (const auto& [name, vu] : out)
    std::printf("# %-46s %.6g %s\n", name.c_str(), vu.first, vu.second);

  std::ostringstream os;
  os << "{\"correct\": " << (failed == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i)
    os << (i ? ", " : "") << "\"" << out[i].first << "\": {\"value\": "
       << fmt(out[i].second.first) << ", \"unit\": \"" << out[i].second.second
       << "\"}";
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
