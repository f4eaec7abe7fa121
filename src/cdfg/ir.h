// Control-Data Flow Graph intermediate representation.
//
// The CDFG is the behavioral input of every synthesis-for-testability
// technique in the survey: variables (primary inputs, constants, loop-carried
// state, temporaries), operations with data-dependency edges, and guards
// modelling control flow for conditional behaviors. Loop-carried state
// variables are what create CDFG loops (§3.3.1).
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "graph/digraph.h"

namespace tsyn::cdfg {

using VarId = int;
using OpId = int;

/// Raised on malformed CDFG construction or queries.
class CdfgError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Widest word a variable or an expanded datapath component may have:
/// gate-level expansion takes a constant's bits from a 64-bit `long`.
constexpr int kMaxWordWidth = 64;

enum class VarKind {
  kPrimaryInput,  ///< external input, available from control step 0
  kConstant,      ///< compile-time constant, hardwired (needs no register)
  kState,         ///< loop-carried value; reads old value, updated per
                  ///< iteration by `update_var` (creates a CDFG loop)
  kTemp,          ///< produced by exactly one operation
};

enum class OpKind {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kAnd,
  kOr,
  kXor,
  kNot,
  kNeg,
  kShl,
  kShr,
  kLt,   ///< less-than comparison
  kEq,   ///< equality comparison
  kMux,  ///< 2:1 select: inputs = {sel, a, b}, out = sel ? a : b
  kCopy, ///< identity move; also models deflection ops of [16]
};

/// Hardware resource classes operations are bound to. An ALU implements
/// add/sub/compare/logic (the classic HLS convention); multipliers and
/// dividers are their own classes.
enum class FuType { kAlu, kMultiplier, kDivider, kShifter, kMux, kCopyUnit };

/// Default FU class implementing an operation kind.
FuType fu_type_of(OpKind kind);

/// Number of operand inputs expected for an operation kind.
int arity_of(OpKind kind);

/// Short mnemonic ("add", "mul", ...) for reports.
std::string to_string(OpKind kind);
std::string to_string(FuType type);

struct Variable {
  VarId id = -1;
  std::string name;
  VarKind kind = VarKind::kTemp;
  long constant_value = 0;  ///< meaningful only for kConstant
  OpId def_op = -1;         ///< producer, for kTemp
  VarId update_var = -1;    ///< next-iteration source, for kState
  bool is_output = false;   ///< primary output of the behavior
  int width = 16;           ///< bit width (gate-level expansion uses this)
  std::vector<OpId> uses;   ///< consuming operations
};

struct Operation {
  OpId id = -1;
  std::string name;
  OpKind kind = OpKind::kAdd;
  std::vector<VarId> inputs;
  VarId output = -1;
  /// Optional guard: the op executes only when `guard` has value
  /// `guard_polarity` (mutually exclusive ops may share hardware).
  VarId guard = -1;
  bool guard_polarity = true;
};

/// The CDFG. Build with the add_* methods; `validate()` checks invariants.
class Cdfg {
 public:
  explicit Cdfg(std::string name = "cdfg") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  // ---- construction ----
  VarId add_input(const std::string& name, int width = 16);
  VarId add_constant(const std::string& name, long value, int width = 16);
  /// Declares a loop-carried state variable; bind its update with
  /// set_state_update once the producing op exists.
  VarId add_state(const std::string& name, int width = 16);
  /// Adds an operation; creates and returns its output variable
  /// named `out_name`.
  VarId add_op(OpKind kind, const std::string& out_name,
               const std::vector<VarId>& inputs, const std::string& op_name = "");
  void set_state_update(VarId state, VarId update);
  void mark_output(VarId v);
  void set_guard(OpId op, VarId guard, bool polarity);
  /// Rewires one operand of an existing operation (used by behavioral
  /// transformations, e.g. deflection insertion [16]). Keeps use lists
  /// consistent.
  void replace_op_input(OpId op, std::size_t port, VarId new_var);

  // ---- access ----
  int num_vars() const { return static_cast<int>(vars_.size()); }
  int num_ops() const { return static_cast<int>(ops_.size()); }
  const Variable& var(VarId v) const { return vars_.at(v); }
  const Operation& op(OpId o) const { return ops_.at(o); }
  const std::vector<Variable>& vars() const { return vars_; }
  const std::vector<Operation>& ops() const { return ops_; }

  /// Finds a variable by name; -1 if absent.
  VarId find_var(const std::string& name) const;

  /// Primary outputs (variables marked is_output).
  std::vector<VarId> outputs() const;
  /// Primary inputs.
  std::vector<VarId> inputs() const;
  /// State variables.
  std::vector<VarId> states() const;

  /// Operation ids whose output is consumed by `op` (its data predecessors,
  /// not following loop-carried edges).
  std::vector<OpId> data_predecessors(OpId op) const;

  /// Operation-level dependence digraph: edge a -> b when b consumes a's
  /// output. With `include_loop_edges`, also a -> b when a defines the
  /// update of a state variable consumed by b (the back edges that make
  /// CDFG loops).
  graph::Digraph op_dependence_graph(bool include_loop_edges) const;

  /// Checks structural invariants; throws CdfgError on violation.
  void validate() const;

  /// Number of operations of each FU type (for allocation lower bounds).
  std::vector<std::pair<FuType, int>> op_counts_by_fu_type() const;

  /// Multi-line description for logs/examples.
  std::string to_string() const;

 private:
  VarId new_var(const std::string& name, VarKind kind, int width);

  std::string name_;
  std::vector<Variable> vars_;
  std::vector<Operation> ops_;
};

}  // namespace tsyn::cdfg
