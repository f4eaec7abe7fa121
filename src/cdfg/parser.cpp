#include "cdfg/parser.h"

#include <charconv>
#include <map>
#include <sstream>

#include "util/metrics.h"
#include "util/text.h"
#include "util/trace.h"

namespace tsyn::cdfg {

namespace {

const std::map<std::string, OpKind>& op_kind_names() {
  static const std::map<std::string, OpKind> kNames = {
      {"add", OpKind::kAdd}, {"sub", OpKind::kSub}, {"mul", OpKind::kMul},
      {"div", OpKind::kDiv}, {"and", OpKind::kAnd}, {"or", OpKind::kOr},
      {"xor", OpKind::kXor}, {"not", OpKind::kNot}, {"neg", OpKind::kNeg},
      {"shl", OpKind::kShl}, {"shr", OpKind::kShr}, {"lt", OpKind::kLt},
      {"eq", OpKind::kEq},   {"mux", OpKind::kMux}, {"copy", OpKind::kCopy},
  };
  return kNames;
}

[[noreturn]] void fail(int line, const std::string& msg) {
  throw CdfgError("cdfg parse error, line " + std::to_string(line) + ": " +
                  msg);
}

/// The whole token as a decimal integer; anything else fails the line.
long parse_int(int line, const std::string& tok, const std::string& what) {
  long v = 0;
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
  if (ec != std::errc() || ptr != end)
    fail(line, what + " is not an integer: " + tok);
  return v;
}

int parse_width(int line, const std::string& tok) {
  const long w = parse_int(line, tok, "width");
  if (w < 1 || w > kMaxWordWidth)
    fail(line, "width " + tok + " out of range [1, " +
                   std::to_string(kMaxWordWidth) + "]");
  return static_cast<int>(w);
}

}  // namespace

Cdfg parse_cdfg(const std::string& text) {
  TSYN_SPAN("cdfg.parse");
  static util::Counter& runs = util::metrics().counter("cdfg.parse.runs");
  runs.add();
  Cdfg g;
  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  // Guards and updates may reference vars defined later; resolve at the end.
  std::vector<std::tuple<int, std::string, std::string, bool>> guards;
  std::vector<std::tuple<int, std::string, std::string>> updates;
  std::vector<std::pair<int, std::string>> outputs;

  while (std::getline(in, raw)) {
    ++line_no;
    std::string_view line = util::trim(raw);
    const auto hash = line.find('#');
    if (hash != std::string_view::npos)
      line = util::trim(line.substr(0, hash));
    if (line.empty()) continue;
    const std::vector<std::string> tok = util::split(line, " \t");
    const std::string& cmd = tok[0];

    if (cmd == "cdfg") {
      if (tok.size() != 2) fail(line_no, "cdfg <name>");
      g.set_name(tok[1]);
    } else if (cmd == "input" || cmd == "state") {
      if (tok.size() < 2 || tok.size() > 3)
        fail(line_no, cmd + " <name> [width]");
      const int width = tok.size() == 3 ? parse_width(line_no, tok[2]) : 16;
      if (cmd == "input")
        g.add_input(tok[1], width);
      else
        g.add_state(tok[1], width);
    } else if (cmd == "const") {
      if (tok.size() < 3 || tok.size() > 4)
        fail(line_no, "const <name> <value> [width]");
      const int width = tok.size() == 4 ? parse_width(line_no, tok[3]) : 16;
      g.add_constant(tok[1], parse_int(line_no, tok[2], "value"), width);
    } else if (cmd == "op") {
      if (tok.size() < 4) fail(line_no, "op <kind> <out> <in>...");
      const auto it = op_kind_names().find(tok[1]);
      if (it == op_kind_names().end())
        fail(line_no, "unknown op kind: " + tok[1]);
      std::vector<VarId> ins;
      for (std::size_t i = 3; i < tok.size(); ++i) {
        const VarId v = g.find_var(tok[i]);
        if (v < 0) fail(line_no, "unknown variable: " + tok[i]);
        ins.push_back(v);
      }
      try {
        g.add_op(it->second, tok[2], ins);
      } catch (const CdfgError& e) {
        fail(line_no, e.what());
      }
    } else if (cmd == "guard") {
      if (tok.size() != 4) fail(line_no, "guard <op-out> <cond> <0|1>");
      guards.emplace_back(line_no, tok[1], tok[2], tok[3] == "1");
    } else if (cmd == "update") {
      if (tok.size() != 3) fail(line_no, "update <state> <source>");
      updates.emplace_back(line_no, tok[1], tok[2]);
    } else if (cmd == "output") {
      if (tok.size() != 2) fail(line_no, "output <var>");
      outputs.emplace_back(line_no, tok[1]);
    } else {
      fail(line_no, "unknown directive: " + cmd);
    }
  }

  for (const auto& [ln, out_var, cond, pol] : guards) {
    const VarId ov = g.find_var(out_var);
    const VarId cv = g.find_var(cond);
    if (ov < 0) fail(ln, "unknown variable: " + out_var);
    if (cv < 0) fail(ln, "unknown variable: " + cond);
    if (g.var(ov).def_op < 0) fail(ln, out_var + " is not an op output");
    g.set_guard(g.var(ov).def_op, cv, pol);
  }
  for (const auto& [ln, state, source] : updates) {
    const VarId sv = g.find_var(state);
    const VarId uv = g.find_var(source);
    if (sv < 0) fail(ln, "unknown state: " + state);
    if (uv < 0) fail(ln, "unknown variable: " + source);
    try {
      g.set_state_update(sv, uv);
    } catch (const CdfgError& e) {
      fail(ln, e.what());
    }
  }
  for (const auto& [ln, name] : outputs) {
    const VarId v = g.find_var(name);
    if (v < 0) fail(ln, "unknown variable: " + name);
    g.mark_output(v);
  }
  g.validate();
  return g;
}

std::string serialize_cdfg(const Cdfg& g) {
  std::ostringstream out;
  out << "cdfg " << g.name() << "\n";
  for (const Variable& v : g.vars()) {
    switch (v.kind) {
      case VarKind::kPrimaryInput:
        out << "input " << v.name << " " << v.width << "\n";
        break;
      case VarKind::kConstant:
        out << "const " << v.name << " " << v.constant_value << " "
            << v.width << "\n";
        break;
      case VarKind::kState:
        out << "state " << v.name << " " << v.width << "\n";
        break;
      case VarKind::kTemp:
        break;
    }
  }
  for (const Operation& op : g.ops()) {
    out << "op " << to_string(op.kind) << " " << g.var(op.output).name;
    for (VarId in : op.inputs) out << " " << g.var(in).name;
    out << "\n";
    if (op.guard >= 0)
      out << "guard " << g.var(op.output).name << " " << g.var(op.guard).name
          << " " << (op.guard_polarity ? 1 : 0) << "\n";
  }
  for (VarId s : g.states())
    out << "update " << g.var(s).name << " "
        << g.var(g.var(s).update_var).name << "\n";
  for (VarId o : g.outputs()) out << "output " << g.var(o).name << "\n";
  return out.str();
}

}  // namespace tsyn::cdfg
