// Per-file rule families, ported onto the shared whole-program model
// (lint_model.h). Behavior is unchanged from the original single-file
// analyzer; only the lexer/helpers moved into lint_model.cpp.
#include "lint_model.h"

#include <algorithm>
#include <cctype>
#include <cstring>

namespace shalom_lint {

namespace {

void rule_atomic_memory_order(const SourceFile& f,
                              std::vector<Finding>& out) {
  static const char* kMethods[] = {
      "load",          "store",         "exchange",
      "fetch_add",     "fetch_sub",     "fetch_and",
      "fetch_or",      "fetch_xor",     "compare_exchange_weak",
      "compare_exchange_strong"};
  for (const char* m : kMethods) {
    std::size_t p = find_word(f.code, m, 0);
    while (p != std::string::npos) {
      // Member-call context only: `.load(` or `->load(`.
      const bool member =
          (p >= 1 && f.code[p - 1] == '.') ||
          (p >= 2 && f.code[p - 2] == '-' && f.code[p - 1] == '>');
      std::size_t open = skip_ws(f.code, p + std::strlen(m));
      if (member && open < f.code.size() && f.code[open] == '(') {
        const std::size_t close = match_paren(f.code, open);
        const std::string args =
            close == std::string::npos
                ? f.code.substr(open)
                : f.code.substr(open, close - open);
        if (args.find("memory_order") == std::string::npos) {
          out.push_back({f.path, line_of(f, p), "atomic-memory-order",
                         std::string("atomic ") + m +
                             "() without an explicit std::memory_order "
                             "(implicit seq_cst; state and justify the "
                             "required order instead)"});
        }
      }
      p = find_word(f.code, m, p + 1);
    }
  }
}

void rule_raw_alloc(const SourceFile& f, std::vector<Finding>& out) {
  const std::string base = basename_of(f.path);
  if (base.rfind("aligned_buffer", 0) == 0) return;  // sanctioned site
  static const char* kFns[] = {"malloc",         "calloc",  "realloc",
                               "posix_memalign", "aligned_alloc",
                               "valloc",         "memalign"};
  for (const char* fn : kFns) {
    std::size_t p = find_word(f.code, fn, 0);
    while (p != std::string::npos) {
      const std::size_t after = skip_ws(f.code, p + std::strlen(fn));
      if (after < f.code.size() && f.code[after] == '(') {
        out.push_back({f.path, line_of(f, p), "raw-alloc",
                       std::string(fn) +
                           "() outside common/aligned_buffer.*: all "
                           "allocations go through AlignedBuffer"});
      }
      p = find_word(f.code, fn, p + 1);
    }
  }
  // Array new: `new T[n]` (placement parens are skipped first).
  std::size_t p = find_word(f.code, "new", 0);
  while (p != std::string::npos) {
    std::size_t q = skip_ws(f.code, p + 3);
    if (q < f.code.size() && f.code[q] == '(') {  // placement arguments
      const std::size_t close = match_paren(f.code, q);
      if (close == std::string::npos) break;
      q = skip_ws(f.code, close);
    }
    while (q < f.code.size() &&
           (is_ident(f.code[q]) || f.code[q] == ':' || f.code[q] == '<' ||
            f.code[q] == '>' || f.code[q] == ',' || f.code[q] == '*' ||
            f.code[q] == ' '))
      ++q;
    if (q < f.code.size() && f.code[q] == '[') {
      out.push_back({f.path, line_of(f, p), "raw-alloc",
                     "array new[] outside common/aligned_buffer.*: all "
                     "allocations go through AlignedBuffer"});
    }
    p = find_word(f.code, "new", p + 1);
  }
}

void rule_env_access(const SourceFile& f, std::vector<Finding>& out) {
  if (basename_of(f.path) == "error.cpp") return;  // env:: helpers live here
  for (const char* fn : {"getenv", "secure_getenv"}) {
    std::size_t p = find_word(f.code, fn, 0);
    while (p != std::string::npos) {
      out.push_back({f.path, line_of(f, p), "env-access",
                     std::string(fn) +
                         " outside common/error.cpp: read the environment "
                         "through the shalom::env:: helpers so malformed "
                         "values warn once and fall back"});
      p = find_word(f.code, fn, p + 1);
    }
  }
}

/// True when the identifier at `p` is member-accessed (`x.rand(`) or
/// qualified by something other than std:: (`BsrMatrix<T>::random(`): a
/// repo-defined function that merely shares a libc name, not libc itself
/// (libc functions appear bare or std::-qualified).
bool non_libc_context(const std::string& code, std::size_t p) {
  if (p >= 1 && code[p - 1] == '.') return true;
  if (p >= 2 && code[p - 2] == '-' && code[p - 1] == '>') return true;
  if (p >= 2 && code[p - 2] == ':' && code[p - 1] == ':') {
    std::size_t e = p - 2;
    std::size_t s = e;
    while (s > 0 && is_ident(code[s - 1])) --s;
    return code.substr(s, e - s) != "std";
  }
  return false;
}

void rule_nondeterminism(const SourceFile& f, std::vector<Finding>& out) {
  for (const char* fn : {"rand", "srand", "rand_r", "drand48", "random"}) {
    std::size_t p = find_word(f.code, fn, 0);
    while (p != std::string::npos) {
      const std::size_t after = skip_ws(f.code, p + std::strlen(fn));
      if (after < f.code.size() && f.code[after] == '(' &&
          !non_libc_context(f.code, p)) {
        out.push_back({f.path, line_of(f, p), "nondeterminism",
                       std::string(fn) +
                           "() is nondeterministic across runs; use the "
                           "seeded generators in common/rng.h"});
      }
      p = find_word(f.code, fn, p + 1);
    }
  }
  std::size_t p = find_word(f.code, "time", 0);
  while (p != std::string::npos) {
    const std::size_t open = skip_ws(f.code, p + 4);
    if (open < f.code.size() && f.code[open] == '(') {
      const std::size_t close = match_paren(f.code, open);
      if (close != std::string::npos) {
        std::string arg = f.code.substr(open + 1, close - open - 2);
        arg.erase(std::remove_if(arg.begin(), arg.end(),
                                 [](unsigned char c) {
                                   return std::isspace(c);
                                 }),
                  arg.end());
        if (arg == "nullptr" || arg == "NULL" || arg == "0") {
          out.push_back({f.path, line_of(f, p), "nondeterminism",
                         "time(" + arg +
                             ") seeding is nondeterministic across runs; "
                             "use the seeded generators in common/rng.h"});
        }
      }
    }
    p = find_word(f.code, "time", p + 1);
  }
}

void rule_fault_site_documented(const SourceFile& f,
                                const std::string& design_text,
                                const std::string& design_path,
                                std::vector<Finding>& out) {
  if (f.code.find("fault::Site") == std::string::npos &&
      find_word(f.code, "site" "_name", 0) == std::string::npos &&
      find_word(f.code, kFaultSitesTable, 0) == std::string::npos)
    return;
  for (const StringLiteral& lit : f.strings) {
    if (!looks_like_site_name(lit.value)) continue;
    if (design_text.empty()) {
      out.push_back({f.path, lit.line, "fault-site-documented",
                     "fault site \"" + lit.value +
                         "\" cannot be checked: design file '" +
                         design_path + "' is missing or unreadable"});
    } else if (design_text.find(lit.value) == std::string::npos) {
      out.push_back({f.path, lit.line, "fault-site-documented",
                     "fault site \"" + lit.value +
                         "\" is not documented in the site->fallback "
                         "matrix of " +
                         design_path});
    }
  }
}

bool body_has_translator(const std::string& body) {
  return body.find("fail_current_exception") != std::string::npos ||
         find_word(body, "catch", 0) != std::string::npos;
}

void rule_capi_exception_boundary(const SourceFile& f,
                                  std::vector<Finding>& out) {
  std::size_t p = f.code.find("extern \"C\"");
  while (p != std::string::npos) {
    std::size_t q = skip_ws(f.code, p + 10);
    // Collect the declarator up to the parameter list.
    const std::size_t decl_start = q;
    while (q < f.code.size() && f.code[q] != '(' && f.code[q] != ';' &&
           f.code[q] != '{')
      ++q;
    if (q >= f.code.size() || f.code[q] != '(') {
      p = f.code.find("extern \"C\"", p + 1);
      continue;  // extern "C" { ... } block or variable: out of scope
    }
    const std::string decl = f.code.substr(decl_start, q - decl_start);
    const std::size_t close = match_paren(f.code, q);
    if (close == std::string::npos) break;
    std::size_t r = skip_ws(f.code, close);
    while (r < f.code.size() && is_ident(f.code[r])) {  // noexcept etc.
      while (r < f.code.size() && is_ident(f.code[r])) ++r;
      r = skip_ws(f.code, r);
    }
    if (r < f.code.size() && f.code[r] == '{') {
      // Definition. Return type = declarator minus the trailing name.
      std::size_t name_end = decl.size();
      while (name_end > 0 &&
             std::isspace(static_cast<unsigned char>(decl[name_end - 1])))
        --name_end;
      std::size_t name_start = name_end;
      while (name_start > 0 && is_ident(decl[name_start - 1])) --name_start;
      const std::string name = decl.substr(name_start, name_end - name_start);
      std::string ret = decl.substr(0, name_start);
      // Normalize whitespace.
      std::string ret_norm;
      for (char c : ret)
        if (!std::isspace(static_cast<unsigned char>(c))) ret_norm += c;
      if (ret_norm == "int" || ret_norm == "shalom_status") {
        const std::size_t bend = match_paren(f.code, r, '{', '}');
        const std::string body =
            bend == std::string::npos ? f.code.substr(r)
                                      : f.code.substr(r, bend - r);
        bool ok = body_has_translator(body);
        if (!ok) {
          // One level of delegation: a body that calls a same-file
          // helper containing the translator is wrapped transitively
          // (the shalom_sgemm -> gemm_c pattern).
          std::size_t cp = 0;
          while (!ok && cp < body.size()) {
            if (is_ident(body[cp]) && (cp == 0 || !is_ident(body[cp - 1]))) {
              std::size_t ce = cp;
              while (ce < body.size() && is_ident(body[ce])) ++ce;
              const std::string callee = body.substr(cp, ce - cp);
              const std::size_t paren = skip_ws(body, ce);
              if (paren < body.size() && body[paren] == '(' &&
                  callee != name && callee != "if" && callee != "while" &&
                  callee != "for" && callee != "switch" &&
                  callee != "return" && callee != "sizeof") {
                const std::string def = local_definition_body(f, callee);
                if (!def.empty() && body_has_translator(def)) ok = true;
              }
              cp = ce;
            } else {
              ++cp;
            }
          }
        }
        if (!ok) {
          out.push_back(
              {f.path, line_of(f, p), "capi-exception-boundary",
               "extern \"C\" entry point '" + name +
                   "' returns a status but is not wrapped in the "
                   "catch-all status translator (fail_current_exception) "
                   "- an exception here would cross the C ABI"});
        }
      }
    }
    p = f.code.find("extern \"C\"", p + 1);
  }
}

/// Trailing identifier of a handler expression (`trap_handler`,
/// `&trap_handler`, `ns::handler` -> `handler`); "" when the expression
/// is a sentinel disposition (SIG_DFL/SIG_IGN/nullptr/NULL) or not an
/// identifier at all.
std::string handler_root_of(const std::string& expr) {
  std::size_t end = expr.size();
  while (end > 0 && std::isspace(static_cast<unsigned char>(expr[end - 1])))
    --end;
  std::size_t start = end;
  while (start > 0 && is_ident(expr[start - 1])) --start;
  const std::string name = expr.substr(start, end - start);
  if (name.empty() || name == "SIG_DFL" || name == "SIG_IGN" ||
      name == "nullptr" || name == "NULL" ||
      std::isdigit(static_cast<unsigned char>(name[0])))
    return "";
  return name;
}

/// Handler roots registered in this file: identifiers assigned to a
/// .sa_handler/.sa_sigaction field or passed as the second argument of
/// signal().
std::set<std::string> handler_roots(const SourceFile& f) {
  std::set<std::string> roots;
  for (const char* field : {"sa_handler", "sa_sigaction"}) {
    std::size_t p = find_word(f.code, field, 0);
    while (p != std::string::npos) {
      const std::size_t q = skip_ws(f.code, p + std::strlen(field));
      if (q < f.code.size() && f.code[q] == '=' &&
          (q + 1 >= f.code.size() || f.code[q + 1] != '=')) {
        std::size_t sc = f.code.find(';', q);
        if (sc == std::string::npos) sc = f.code.size();
        const std::string name =
            handler_root_of(f.code.substr(q + 1, sc - q - 1));
        if (!name.empty()) roots.insert(name);
      }
      p = find_word(f.code, field, p + 1);
    }
  }
  std::size_t p = find_word(f.code, "signal", 0);
  while (p != std::string::npos) {
    const std::size_t open = skip_ws(f.code, p + 6);
    if (open < f.code.size() && f.code[open] == '(') {
      const std::size_t close = match_paren(f.code, open);
      if (close != std::string::npos) {
        // Second top-level argument of signal(sig, handler).
        std::size_t comma = std::string::npos;
        int depth = 0;
        for (std::size_t i = open + 1; i + 1 < close; ++i) {
          const char c = f.code[i];
          if (c == '(') ++depth;
          if (c == ')') --depth;
          if (c == ',' && depth == 0) {
            comma = i;
            break;
          }
        }
        if (comma != std::string::npos) {
          const std::string name = handler_root_of(
              f.code.substr(comma + 1, (close - 1) - (comma + 1)));
          if (!name.empty()) roots.insert(name);
        }
      }
    }
    p = find_word(f.code, "signal", p + 1);
  }
  return roots;
}

/// Reports non-async-signal-safe constructs inside [begin, end) of
/// f.code, attributing each to the handler root it is reachable from.
void scan_handler_range(const SourceFile& f, const std::string& root,
                        std::size_t begin, std::size_t end,
                        std::vector<Finding>& out) {
  // Functions POSIX does not list as async-signal-safe that this codebase
  // could plausibly reach: the malloc family, stdio, and exit. raise,
  // signal and siglongjmp are deliberately absent - they are the
  // sanctioned handler vocabulary (see common/guard.cpp).
  static const char* kBannedCalls[] = {
      "malloc", "calloc",   "realloc",   "free",   "printf",
      "fprintf", "sprintf", "snprintf",  "vsnprintf", "puts",
      "fputs",  "fwrite",   "fflush",    "fopen",  "fclose",
      "exit",   "lock",     "unlock",    "try_lock"};
  for (const char* fn : kBannedCalls) {
    std::size_t p = find_word(f.code, fn, begin);
    while (p != std::string::npos && p < end) {
      const std::size_t after = skip_ws(f.code, p + std::strlen(fn));
      if (after < end && f.code[after] == '(') {
        out.push_back(
            {f.path, line_of(f, p), "signal-handler-safety",
             std::string("call to ") + fn +
                 "() is not async-signal-safe but is reachable from "
                 "signal handler '" +
                 root +
                 "': handlers may only use sig_atomic_t stores, "
                 "siglongjmp and re-raise"});
      }
      p = find_word(f.code, fn, p + 1);
    }
  }
  // Keywords that allocate or unwind, and locking primitives whose mere
  // presence (RAII construction) can self-deadlock under a handler.
  static const char* kBannedWords[] = {"new",         "delete",
                                       "throw",       "lock_guard",
                                       "unique_lock", "MutexLock",
                                       "Mutex",       "mutex"};
  for (const char* w : kBannedWords) {
    std::size_t p = find_word(f.code, w, begin);
    while (p != std::string::npos && p < end) {
      out.push_back(
          {f.path, line_of(f, p), "signal-handler-safety",
           std::string("'") + w +
               "' allocates, unwinds or locks inside code reachable "
               "from signal handler '" +
               root + "': handlers must stay async-signal-safe"});
      p = find_word(f.code, w, p + 1);
    }
  }
}

void rule_signal_handler_safety(const SourceFile& f,
                                std::vector<Finding>& out) {
  const std::set<std::string> roots = handler_roots(f);
  if (roots.empty()) return;
  static const std::set<std::string> kNotCallees = {
      "if",     "while",  "for", "switch", "return",
      "sizeof", "new",    "delete", "throw"};
  std::set<std::size_t> visited;  // body offsets already scanned
  for (const std::string& root : roots) {
    const BodyRange body = local_definition_range(f, root);
    if (!body.found()) continue;
    if (visited.insert(body.begin).second)
      scan_handler_range(f, root, body.begin, body.end, out);
    // One level of same-file callee expansion: a helper the handler calls
    // is handler code too (deeper chains are out of lexical reach).
    std::size_t cp = body.begin;
    while (cp < body.end) {
      if (is_ident(f.code[cp]) && (cp == 0 || !is_ident(f.code[cp - 1]))) {
        std::size_t ce = cp;
        while (ce < body.end && is_ident(f.code[ce])) ++ce;
        const std::string callee = f.code.substr(cp, ce - cp);
        const std::size_t paren = skip_ws(f.code, ce);
        if (paren < body.end && f.code[paren] == '(' && callee != root &&
            kNotCallees.count(callee) == 0) {
          const BodyRange cb = local_definition_range(f, callee);
          if (cb.found() && cb.begin != body.begin &&
              visited.insert(cb.begin).second)
            scan_handler_range(f, root, cb.begin, cb.end, out);
        }
        cp = ce;
      } else {
        ++cp;
      }
    }
  }
}

/// True when the whole-word token ending at (exclusive) `end` is `word`.
bool word_ends_at(const std::string& code, std::size_t end,
                  const char* word) {
  const std::size_t len = std::strlen(word);
  if (end < len) return false;
  const std::size_t start = end - len;
  if (code.compare(start, len, word) != 0) return false;
  return start == 0 || !is_ident(code[start - 1]);
}

void rule_unbounded_wait(const SourceFile& f, std::vector<Finding>& out) {
  std::size_t p = find_word(f.code, "wait", 0);
  while (p != std::string::npos) {
    const std::size_t at = p;
    p = find_word(f.code, "wait", p + 1);
    // Member-call context only: `.wait(` or `->wait(`.
    const bool member =
        (at >= 1 && f.code[at - 1] == '.') ||
        (at >= 2 && f.code[at - 2] == '-' && f.code[at - 1] == '>');
    if (!member) continue;
    const std::size_t open = skip_ws(f.code, at + 4);
    if (open >= f.code.size() || f.code[open] != '(') continue;
    const std::size_t close = match_paren(f.code, open);
    if (close == std::string::npos) continue;
    // Arity: a second top-level argument is a predicate - that form
    // re-checks its condition internally and is always safe.
    int depth = 0;
    int commas = 0;
    bool any_arg = false;
    for (std::size_t q = open + 1; q + 1 < close; ++q) {
      const char c = f.code[q];
      if (c == '(' || c == '[' || c == '{') ++depth;
      if (c == ')' || c == ']' || c == '}') --depth;
      if (depth == 0 && c == ',') ++commas;
      if (!std::isspace(static_cast<unsigned char>(c))) any_arg = true;
    }
    if (!any_arg || commas > 0) continue;
    // Receiver: the immediate identifier before `.wait` must contain
    // "cv" (this repo's condition-variable naming convention), so
    // future.wait()-style calls on unrelated types stay out of scope.
    std::size_t recv_end = at - 1;  // at the '.' (or '>')
    if (f.code[recv_end] == '>') --recv_end;  // `->`: skip to the '-'
    std::size_t ident_end = recv_end;
    std::size_t ident_start = ident_end;
    while (ident_start > 0 && is_ident(f.code[ident_start - 1]))
      --ident_start;
    const std::string ident =
        f.code.substr(ident_start, ident_end - ident_start);
    if (ident.find("cv") == std::string::npos) continue;
    // Walk to the start of the full receiver expression
    // (`impl_->space_cv`, `r.cv`) so the while-check looks before it.
    std::size_t expr_start = ident_start;
    while (expr_start > 0) {
      const char c = f.code[expr_start - 1];
      if (is_ident(c) || c == '.' || c == ':') {
        --expr_start;
      } else if (c == '>' && expr_start >= 2 &&
                 f.code[expr_start - 2] == '-') {
        expr_start -= 2;
      } else {
        break;
      }
    }
    // Allowed form: the wait is the direct statement of a while loop -
    // the previous token is the `)` closing a `while (...)` condition.
    std::size_t before = expr_start;
    while (before > 0 &&
           std::isspace(static_cast<unsigned char>(f.code[before - 1])))
      --before;
    bool guarded = false;
    if (before > 0 && f.code[before - 1] == ')') {
      int bdepth = 0;
      std::size_t q = before - 1;
      for (;;) {
        if (f.code[q] == ')') ++bdepth;
        if (f.code[q] == '(' && --bdepth == 0) break;
        if (q == 0) break;
        --q;
      }
      if (bdepth == 0) {
        std::size_t w = q;
        while (w > 0 &&
               std::isspace(static_cast<unsigned char>(f.code[w - 1])))
          --w;
        guarded = word_ends_at(f.code, w, "while");
      }
    }
    if (guarded) continue;
    out.push_back(
        {f.path, line_of(f, at), "unbounded-wait",
         "bare condition-variable wait on '" + ident +
             "' outside a `while (pred)` loop - a missed or spurious "
             "notify hangs it forever; guard it with the predicate "
             "loop or use a deadline form (wait_for/wait_until)"});
  }
}

void rule_unchecked_io(const SourceFile& f, std::vector<Finding>& out) {
  static const char* kFns[] = {"fread", "fwrite", "rename", "fsync",
                               "fclose"};
  for (const char* fn : kFns) {
    std::size_t p = find_word(f.code, fn, 0);
    while (p != std::string::npos) {
      const std::size_t at = p;
      p = find_word(f.code, fn, at + 1);
      const std::size_t open = skip_ws(f.code, at + std::strlen(fn));
      if (open >= f.code.size() || f.code[open] != '(') continue;
      // Member calls (`file.rename(`) are repo types, not libc.
      if ((at >= 1 && f.code[at - 1] == '.') ||
          (at >= 2 && f.code[at - 2] == '-' && f.code[at - 1] == '>'))
        continue;
      // Skip a std:: or global :: qualifier; any other qualifier
      // (`fs::rename`, `Io::fsync`) is a repo-defined name.
      std::size_t start = at;
      if (start >= 2 && f.code[start - 2] == ':' &&
          f.code[start - 1] == ':') {
        const std::size_t qe = start - 2;
        std::size_t qs = qe;
        while (qs > 0 && is_ident(f.code[qs - 1])) --qs;
        const std::string qual = f.code.substr(qs, qe - qs);
        if (!qual.empty() && qual != "std") continue;
        start = qs;
      }
      // The significant token before the call decides whether the
      // result is consumed.
      std::size_t b = start;
      while (b > 0 &&
             std::isspace(static_cast<unsigned char>(f.code[b - 1])))
        --b;
      bool unchecked = false;
      if (b == 0) {
        unchecked = true;  // call is the first token of the file
      } else if (const char c = f.code[b - 1];
                 c == ';' || c == '{' || c == '}') {
        unchecked = true;  // bare statement: result dropped on the floor
      } else if (c == ')') {
        // Preceded by a close paren: either a cast (only `(void)` is a
        // sanctioned deliberate discard) or an unparenthesized
        // `if (...) fclose(f);` body - both discard unless (void).
        int depth = 0;
        std::size_t q = b - 1;
        for (;;) {
          if (f.code[q] == ')') ++depth;
          if (f.code[q] == '(' && --depth == 0) break;
          if (q == 0) break;
          --q;
        }
        std::string norm;
        for (std::size_t i = q; i < b; ++i)
          if (!std::isspace(static_cast<unsigned char>(f.code[i])))
            norm += f.code[i];
        unchecked = (norm != "(void)");
      } else if (is_ident(c)) {
        // `return fclose(f)` consumes the result; `else fclose(f);`
        // and `do fclose(f);` do not.
        std::size_t ws = b;
        while (ws > 0 && is_ident(f.code[ws - 1])) --ws;
        const std::string word = f.code.substr(ws, b - ws);
        unchecked = (word == "else" || word == "do");
      }
      // Everything else (`=`, `(`, `!`, `,`, comparison, `&&`, `||`,
      // `?`, `:`) feeds the result into an expression: checked.
      if (unchecked) {
        out.push_back(
            {f.path, line_of(f, at), "unchecked-io",
             std::string(fn) +
                 "() result is discarded - the return value is the only "
                 "error signal this I/O call has; check it (route file "
                 "I/O through a checked helper) or cast to (void) as a "
                 "deliberate, visible discard"});
      }
    }
  }
}

}  // namespace

void run_file_rules(const SourceFile& f, const std::string& design_text,
                    const std::string& design_path,
                    std::vector<Finding>& out) {
  rule_atomic_memory_order(f, out);
  rule_raw_alloc(f, out);
  rule_env_access(f, out);
  rule_fault_site_documented(f, design_text, design_path, out);
  rule_nondeterminism(f, out);
  rule_capi_exception_boundary(f, out);
  rule_signal_handler_safety(f, out);
  rule_unbounded_wait(f, out);
  rule_unchecked_io(f, out);
}

}  // namespace shalom_lint
