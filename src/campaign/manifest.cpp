#include "campaign/manifest.h"

#include <algorithm>
#include <set>

#include "cdfg/ir.h"
#include "util/hash.h"
#include "util/json.h"

namespace tsyn::campaign {

namespace {

using util::Json;

[[noreturn]] void bad(const std::string& msg) { throw ManifestError(msg); }

/// Numbers in manifests are counts and seeds; reject anything that does
/// not round-trip through an integer so "alu": 2.5 fails loudly.
std::int64_t as_int(const Json& v, const std::string& what) {
  if (!v.is_number()) bad(what + " must be a number");
  const std::int64_t n = static_cast<std::int64_t>(v.number);
  if (static_cast<double>(n) != v.number) bad(what + " must be an integer");
  return n;
}

const Json& member(const Json& obj, const std::string& key,
                   const std::string& what) {
  const Json* v = obj.find(key);
  if (!v) bad(what + " is missing required member \"" + key + "\"");
  return *v;
}

bool known_scan(const std::string& s) {
  return s == "full" || s == "none" || s == "mfvs" || s == "loopcut" ||
         s == "boundary" || s == "interior";
}

bool known_compact(const std::string& s) {
  return s == "off" || s == "static" || s == "dynamic";
}

bool known_xfill(const std::string& s) {
  return s == "random" || s == "0" || s == "1" || s == "adjacent";
}

}  // namespace

std::string design_stem(const std::string& design) {
  std::string base = design;
  if (base.rfind("bench:", 0) == 0) {
    base = base.substr(6);
  } else {
    const std::size_t slash = base.find_last_of("/\\");
    if (slash != std::string::npos) base = base.substr(slash + 1);
    const std::size_t dot = base.rfind('.');
    if (dot != std::string::npos && dot > 0) base = base.substr(0, dot);
  }
  for (char& c : base) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  return base.empty() ? "design" : base;
}

std::string Manifest::content_hash() const {
  util::Fnv1a h;
  h.str("tsyn.manifest.v1");
  h.u64(designs.size());
  for (const std::string& d : designs) h.str(d);
  h.u64(configs.size());
  for (const FuConfig& c : configs)
    h.str(c.name).i64(c.alu).i64(c.mul).i64(c.steps);
  h.u64(scans.size());
  for (const std::string& s : scans) h.str(s);
  h.u64(widths.size());
  for (int w : widths) h.i64(w);
  h.u64(seeds.size());
  for (std::uint64_t s : seeds) h.u64(s);
  h.str(compact).str(xfill).i64(backtrack_limit);
  h.i64(seq_max_frames).i64(seq_backtrack_limit).i64(seq_fault_cap);
  return h.hex();
}

Manifest parse_manifest(const std::string& text) {
  const Json doc = Json::parse(text);
  if (!doc.is_object()) bad("manifest must be a JSON object");
  static const std::set<std::string> kKnown = {
      "schema",  "designs",         "configs",
      "scan",    "widths",          "seeds",
      "compact", "xfill",           "backtrack_limit",
      "seq_max_frames",             "seq_backtrack_limit",
      "seq_fault_cap"};
  for (const auto& [key, value] : doc.obj) {
    (void)value;
    if (!kKnown.count(key)) bad("unknown manifest member \"" + key + "\"");
  }
  const std::int64_t schema = as_int(member(doc, "schema", "manifest"),
                                     "\"schema\"");
  if (schema != 1) bad("unsupported manifest schema " +
                       std::to_string(schema) + " (expected 1)");

  Manifest m;
  const Json& designs = member(doc, "designs", "manifest");
  if (!designs.is_array() || designs.arr.empty())
    bad("\"designs\" must be a non-empty array");
  for (const Json& d : designs.arr) {
    if (!d.is_string()) bad("\"designs\" entries must be strings");
    m.designs.push_back(d.str);
  }

  const Json& configs = member(doc, "configs", "manifest");
  if (!configs.is_array() || configs.arr.empty())
    bad("\"configs\" must be a non-empty array");
  for (const Json& c : configs.arr) {
    if (!c.is_object()) bad("\"configs\" entries must be objects");
    FuConfig fc;
    const Json& name = member(c, "name", "config");
    if (!name.is_string() || name.str.empty())
      bad("config \"name\" must be a non-empty string");
    fc.name = name.str;
    if (const Json* v = c.find("alu"))
      fc.alu = static_cast<int>(as_int(*v, "config \"alu\""));
    if (const Json* v = c.find("mul"))
      fc.mul = static_cast<int>(as_int(*v, "config \"mul\""));
    if (const Json* v = c.find("steps"))
      fc.steps = static_cast<int>(as_int(*v, "config \"steps\""));
    if (fc.alu < 1 || fc.mul < 1)
      bad("config \"" + fc.name + "\" needs alu >= 1 and mul >= 1");
    if (fc.steps < 0) bad("config \"" + fc.name + "\" has negative steps");
    m.configs.push_back(std::move(fc));
  }

  if (const Json* scans = doc.find("scan")) {
    if (!scans->is_array() || scans->arr.empty())
      bad("\"scan\" must be a non-empty array");
    for (const Json& s : scans->arr) {
      if (!s.is_string() || !known_scan(s.str))
        bad("unknown scan policy " +
            (s.is_string() ? "\"" + s.str + "\"" : "(non-string)") +
            " (expected full|none|mfvs|loopcut|boundary|interior)");
      m.scans.push_back(s.str);
    }
  } else {
    m.scans = {"full"};
  }

  if (const Json* widths = doc.find("widths")) {
    if (!widths->is_array() || widths->arr.empty())
      bad("\"widths\" must be a non-empty array");
    for (const Json& w : widths->arr) {
      const std::int64_t v = as_int(w, "\"widths\" entry");
      if (v < 1 || v > cdfg::kMaxWordWidth)
        bad("width " + std::to_string(v) + " out of range [1, " +
            std::to_string(cdfg::kMaxWordWidth) + "]");
      m.widths.push_back(static_cast<int>(v));
    }
  } else {
    m.widths = {4};
  }

  if (const Json* seeds = doc.find("seeds")) {
    if (!seeds->is_array() || seeds->arr.empty())
      bad("\"seeds\" must be a non-empty array");
    for (const Json& s : seeds->arr) {
      const std::int64_t v = as_int(s, "\"seeds\" entry");
      if (v < 0) bad("seeds must be non-negative");
      m.seeds.push_back(static_cast<std::uint64_t>(v));
    }
  } else {
    m.seeds = {0xF111};
  }

  if (const Json* v = doc.find("compact")) {
    if (!v->is_string() || !known_compact(v->str))
      bad("\"compact\" must be off|static|dynamic");
    m.compact = v->str;
  }
  if (const Json* v = doc.find("xfill")) {
    if (!v->is_string() || !known_xfill(v->str))
      bad("\"xfill\" must be random|0|1|adjacent");
    m.xfill = v->str;
  }
  if (const Json* v = doc.find("backtrack_limit")) {
    m.backtrack_limit = as_int(*v, "\"backtrack_limit\"");
    if (m.backtrack_limit < 1) bad("\"backtrack_limit\" must be >= 1");
  }
  if (const Json* v = doc.find("seq_max_frames")) {
    m.seq_max_frames = static_cast<int>(as_int(*v, "\"seq_max_frames\""));
    if (m.seq_max_frames < 1) bad("\"seq_max_frames\" must be >= 1");
  }
  if (const Json* v = doc.find("seq_backtrack_limit")) {
    m.seq_backtrack_limit = as_int(*v, "\"seq_backtrack_limit\"");
    if (m.seq_backtrack_limit < 1) bad("\"seq_backtrack_limit\" must be >= 1");
  }
  if (const Json* v = doc.find("seq_fault_cap")) {
    m.seq_fault_cap = as_int(*v, "\"seq_fault_cap\"");
    if (m.seq_fault_cap < 0) bad("\"seq_fault_cap\" must be >= 0");
  }

  // Duplicate axis values would create colliding job ids (and silently
  // inflate the grid); reject them all up front.
  {
    std::set<std::string> stems;
    for (const std::string& d : m.designs)
      if (!stems.insert(design_stem(d)).second)
        bad("two designs share the id stem \"" + design_stem(d) +
            "\" — rename or alias one of them");
    std::set<std::string> names;
    for (const FuConfig& c : m.configs)
      if (!names.insert(c.name).second)
        bad("duplicate config name \"" + c.name + "\"");
    std::set<std::string> scans(m.scans.begin(), m.scans.end());
    if (scans.size() != m.scans.size()) bad("duplicate scan policy");
    std::set<int> widths(m.widths.begin(), m.widths.end());
    if (widths.size() != m.widths.size()) bad("duplicate width");
    std::set<std::uint64_t> seeds(m.seeds.begin(), m.seeds.end());
    if (seeds.size() != m.seeds.size()) bad("duplicate seed");
  }
  return m;
}

std::vector<JobSpec> expand_grid(const Manifest& m) {
  std::vector<JobSpec> jobs;
  jobs.reserve(m.designs.size() * m.configs.size() * m.scans.size() *
               m.widths.size() * m.seeds.size());
  for (const std::string& design : m.designs) {
    const std::string stem = design_stem(design);
    for (const FuConfig& config : m.configs)
      for (const std::string& scan : m.scans)
        for (int width : m.widths)
          for (std::uint64_t seed : m.seeds) {
            JobSpec j;
            j.id = stem + "." + config.name + "." + scan + ".w" +
                   std::to_string(width) + ".s" + std::to_string(seed);
            j.design = design;
            j.config = config;
            j.scan = scan;
            j.width = width;
            j.seed = seed;
            jobs.push_back(std::move(j));
          }
  }
  std::sort(jobs.begin(), jobs.end(),
            [](const JobSpec& a, const JobSpec& b) { return a.id < b.id; });
  return jobs;
}

}  // namespace tsyn::campaign
