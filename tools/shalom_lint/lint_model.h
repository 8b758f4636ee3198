// shalom_lint whole-program model.
//
// The analyzer is split into three layers:
//
//   lint_model.{h,cpp}      lexer (comment/string-aware blanked view,
//                           suppression + lock-order annotations) and the
//                           extraction passes that materialize program-wide
//                           registries: mutex acquisitions with their
//                           lexical nesting, atomic operations with their
//                           memory orders and variable identity, fault-site
//                           names, status codes, strerror entries, stats
//                           counters and SHALOM_* environment keys.
//   lint_rules_file.cpp     per-file rules (atomic-memory-order, raw-alloc,
//                           env-access, fault-site-documented,
//                           nondeterminism, capi-exception-boundary,
//                           signal-handler-safety, unbounded-wait,
//                           unchecked-io) running over the shared model.
//   lint_rules_program.cpp  cross-TU rule families (lock-order,
//                           atomic-pairing, registry-drift) running over
//                           the merged Program registries.
//
// Everything is deliberately lexical (no libclang): the rules are
// properties of this codebase's conventions, and a zero-dependency C++17
// tool runs in every environment the library builds in.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace shalom_lint {

// ---------------------------------------------------------------------------
// Findings and per-file state
// ---------------------------------------------------------------------------

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

struct StringLiteral {
  int line = 0;
  std::size_t pos = 0;  // offset of the opening quote in SourceFile::code
  std::string value;
};

/// A declared mutex hierarchy edge from a
/// `// shalom-lint: lock-order(A before B)` annotation: A must always be
/// acquired before B. Names are the canonical mutex identities the
/// lock-order findings print.
struct LockOrderDecl {
  std::string before;
  std::string after;
  std::string file;
  int line = 0;
};

struct SourceFile {
  std::string path;
  std::string text;  // raw bytes
  std::string code;  // comments and literal contents blanked with spaces
  std::vector<std::size_t> line_start;         // offset of each line
  std::vector<StringLiteral> strings;          // recorded literal values
  std::map<int, std::set<std::string>> allow;  // line -> suppressed rules
  std::vector<LockOrderDecl> lock_decls;       // declared hierarchy edges
};

// ---------------------------------------------------------------------------
// Whole-program registries
// ---------------------------------------------------------------------------

/// One observed "inner acquired while outer is held" pair: a MutexLock
/// lexically inside the scope of another MutexLock in the same function.
struct LockEdge {
  std::string outer;
  std::string inner;
  std::string file;  // witness TU
  int outer_line = 0;
  int inner_line = 0;
};

/// One atomic member operation that carries release or acquire semantics.
/// Identity is the receiver's last identifier (subscripts stripped), which
/// is matched program-wide: the pairing rule only asks whether SOME
/// matching op exists, so over-unification merely makes it lenient.
struct AtomicOp {
  std::string var;
  std::string method;
  std::string file;
  int line = 0;
  bool write_release = false;  // writes with release/acq_rel/seq_cst
  bool read_acquire = false;   // reads with acquire/acq_rel/seq_cst
  bool is_load = false;        // pure load (no write side)
};

/// A fault site: one SHALOM_FAULT_SITES row, its dotted name and its
/// Site:: enumerator.
struct SiteDef {
  std::string name;
  std::string enum_name;  // e.g. "kGuardCanary"; may be empty
  std::string file;
  int line = 0;
};

/// A status code defined in the `typedef enum shalom_status` body.
struct CodeDef {
  std::string name;
  std::string file;
  int line = 0;
};

/// A robustness counter: the RobustnessStats field a
/// SHALOM_ROBUSTNESS_COUNTERS row names.
struct CounterDef {
  std::string name;
  std::string file;
  int line = 0;
};

/// First use of a SHALOM_* environment-key string literal.
struct EnvKeyUse {
  std::string name;
  std::string file;
  int line = 0;
};

struct Program {
  std::vector<SourceFile> files;
  std::vector<LockEdge> lock_edges;
  std::vector<LockOrderDecl> lock_decls;
  std::vector<AtomicOp> atomics;
  std::vector<SiteDef> fault_sites;
  std::vector<CodeDef> status_codes;
  std::set<std::string> strerror_codes;  // `case SHALOM_*` in status_string
  std::vector<CounterDef> stats_counters;
  std::vector<EnvKeyUse> env_keys;
};

/// External artifacts the registry-drift rules compare the code against.
/// `*_ok` is false when the artifact was missing/unreadable; the rule then
/// reports one "cannot be checked" finding per affected family instead of
/// silently passing.
struct DriftInputs {
  std::string design_text, design_path;
  bool design_ok = false;
  std::string api_text, api_path;
  bool api_ok = false;
  std::string tests_text, tests_path;  // concatenated test sources
  bool tests_ok = false;
  std::string tier1_text, tier1_path;
  bool tier1_ok = false;
};

// ---------------------------------------------------------------------------
// Lexer + matching helpers (shared by every rule)
// ---------------------------------------------------------------------------

bool is_ident(char c);
int line_of(const SourceFile& f, std::size_t pos);

/// Next whole-word occurrence of `word` at or after `from`, or npos.
std::size_t find_word(const std::string& code, const std::string& word,
                      std::size_t from);
std::size_t skip_ws(const std::string& code, std::size_t p);

/// With code[open] == oc, returns the index one past the matching closer.
std::size_t match_paren(const std::string& code, std::size_t open,
                        char oc = '(', char cc = ')');
std::string basename_of(const std::string& path);

/// Whole-word occurrence check over raw text (both ends at non-identifier
/// boundaries) - used for doc/test-mention checks so SHALOM_FOO does not
/// satisfy a lookup for SHALOM_FO.
bool text_mentions(const std::string& text, const std::string& word);

/// group.site[.sub]: lowercase identifiers joined by dots.
bool looks_like_site_name(const std::string& v);

/// The X-macro registry tables of common/fault.h. The literals are split
/// so the analyzer's own source does not read as SHALOM_* env keys.
inline constexpr const char* kFaultSitesTable = "SHALOM_" "FAULT_SITES";
inline constexpr const char* kCountersTable =
    "SHALOM_" "ROBUSTNESS_COUNTERS";

/// [begin, end) offsets of a function body inside SourceFile::code.
struct BodyRange {
  std::size_t begin = std::string::npos;
  std::size_t end = std::string::npos;
  bool found() const { return begin != std::string::npos; }
};
BodyRange local_definition_range(const SourceFile& f, const std::string& name);
std::string local_definition_body(const SourceFile& f,
                                  const std::string& name);

/// Builds the blanked `code` view, records string literals, suppression
/// comments and lock-order declarations.
void scan_file(SourceFile& f);

/// Runs every extraction pass over p.files and fills the registries.
/// Lock edges whose inner-acquisition line carries
/// `// shalom-lint: allow(lock-order)` are dropped here (per-edge
/// suppression: killing one edge of a cycle silences that cycle).
void extract_program(Program& p);

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

// Per-file families (lint_rules_file.cpp). design_text/design_path feed
// fault-site-documented.
void run_file_rules(const SourceFile& f, const std::string& design_text,
                    const std::string& design_path,
                    std::vector<Finding>& out);

// Whole-program families (lint_rules_program.cpp).
void rule_lock_order(const Program& p, std::vector<Finding>& out);
void rule_atomic_pairing(const Program& p, std::vector<Finding>& out);
void rule_registry_drift(const Program& p, const DriftInputs& in,
                         std::vector<Finding>& out);

}  // namespace shalom_lint
