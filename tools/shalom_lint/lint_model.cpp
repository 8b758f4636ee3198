// Lexer and whole-program extraction passes (see lint_model.h).
#include "lint_model.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <filesystem>

namespace shalom_lint {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

int line_of(const SourceFile& f, std::size_t pos) {
  auto it = std::upper_bound(f.line_start.begin(), f.line_start.end(), pos);
  return static_cast<int>(it - f.line_start.begin());
}

std::size_t find_word(const std::string& code, const std::string& word,
                      std::size_t from) {
  std::size_t p = code.find(word, from);
  while (p != std::string::npos) {
    const bool left_ok = p == 0 || !is_ident(code[p - 1]);
    const std::size_t end = p + word.size();
    const bool right_ok = end >= code.size() || !is_ident(code[end]);
    if (left_ok && right_ok) return p;
    p = code.find(word, p + 1);
  }
  return std::string::npos;
}

std::size_t skip_ws(const std::string& code, std::size_t p) {
  while (p < code.size() &&
         std::isspace(static_cast<unsigned char>(code[p])))
    ++p;
  return p;
}

std::size_t match_paren(const std::string& code, std::size_t open,
                        char oc, char cc) {
  int depth = 0;
  for (std::size_t p = open; p < code.size(); ++p) {
    if (code[p] == oc) ++depth;
    if (code[p] == cc && --depth == 0) return p + 1;
  }
  return std::string::npos;
}

std::string basename_of(const std::string& path) {
  return fs::path(path).filename().string();
}

bool text_mentions(const std::string& text, const std::string& word) {
  if (word.empty()) return false;
  std::size_t p = text.find(word);
  while (p != std::string::npos) {
    const bool left_ok = p == 0 || !is_ident(text[p - 1]);
    const std::size_t end = p + word.size();
    const bool right_ok = end >= text.size() || !is_ident(text[end]);
    if (left_ok && right_ok) return true;
    p = text.find(word, p + 1);
  }
  return false;
}

bool looks_like_site_name(const std::string& v) {
  bool saw_dot = false;
  bool part_empty = true;
  for (char c : v) {
    if (c == '.') {
      if (part_empty) return false;
      saw_dot = true;
      part_empty = true;
    } else if ((c >= 'a' && c <= 'z') || c == '_') {
      part_empty = false;
    } else {
      return false;
    }
  }
  return saw_dot && !part_empty;
}

BodyRange local_definition_range(const SourceFile& f,
                                 const std::string& name) {
  std::size_t p = find_word(f.code, name, 0);
  while (p != std::string::npos) {
    std::size_t open = skip_ws(f.code, p + name.size());
    if (open < f.code.size() && f.code[open] == '(') {
      const std::size_t close = match_paren(f.code, open);
      if (close != std::string::npos) {
        std::size_t q = skip_ws(f.code, close);
        // Skip trailing specifiers (noexcept, const, ...) including a
        // noexcept(...) argument.
        while (q < f.code.size() && is_ident(f.code[q])) {
          while (q < f.code.size() && is_ident(f.code[q])) ++q;
          q = skip_ws(f.code, q);
          if (q < f.code.size() && f.code[q] == '(') {
            const std::size_t c2 = match_paren(f.code, q);
            if (c2 == std::string::npos) break;
            q = skip_ws(f.code, c2);
          }
        }
        if (q < f.code.size() && f.code[q] == '{') {
          const std::size_t bend = match_paren(f.code, q, '{', '}');
          if (bend != std::string::npos) return BodyRange{q, bend};
        }
      }
    }
    p = find_word(f.code, name, p + 1);
  }
  return BodyRange{};
}

std::string local_definition_body(const SourceFile& f,
                                  const std::string& name) {
  const BodyRange r = local_definition_range(f, name);
  return r.found() ? f.code.substr(r.begin, r.end - r.begin) : "";
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

namespace {

void parse_allow(SourceFile& f, const std::string& comment, int line) {
  const std::string marker = "shalom-lint: allow(";
  std::size_t at = comment.find(marker);
  while (at != std::string::npos) {
    std::size_t p = at + marker.size();
    std::string name;
    for (; p < comment.size() && comment[p] != ')'; ++p) {
      const char c = comment[p];
      if (c == ',') {
        if (!name.empty()) f.allow[line].insert(name);
        name.clear();
      } else if (!std::isspace(static_cast<unsigned char>(c))) {
        name += c;
      }
    }
    if (!name.empty()) f.allow[line].insert(name);
    at = comment.find(marker, p);
  }
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// Parses `shalom-lint: lock-order(A before B)` declarations out of a
/// comment. A and B are canonical mutex identities (exactly as lock-order
/// findings print them).
void parse_lock_order_decl(SourceFile& f, const std::string& comment,
                           int line) {
  const std::string marker = "shalom-lint: lock-order(";
  std::size_t at = comment.find(marker);
  while (at != std::string::npos) {
    const std::size_t open = at + marker.size();
    const std::size_t close = comment.find(')', open);
    if (close == std::string::npos) return;
    const std::string body = comment.substr(open, close - open);
    const std::size_t sep = body.find(" before ");
    if (sep != std::string::npos) {
      LockOrderDecl d;
      d.before = trim(body.substr(0, sep));
      d.after = trim(body.substr(sep + 8));
      d.file = f.path;
      d.line = line;
      if (!d.before.empty() && !d.after.empty())
        f.lock_decls.push_back(std::move(d));
    }
    at = comment.find(marker, close);
  }
}

void parse_comment(SourceFile& f, const std::string& comment, int line) {
  parse_allow(f, comment, line);
  parse_lock_order_decl(f, comment, line);
}

}  // namespace

void scan_file(SourceFile& f) {
  const std::string& s = f.text;
  f.code.assign(s.size(), ' ');
  f.line_start.push_back(0);
  for (std::size_t i = 0; i < s.size(); ++i)
    if (s[i] == '\n') {
      f.code[i] = '\n';
      if (i + 1 < s.size()) f.line_start.push_back(i + 1);
    }

  std::size_t i = 0;
  while (i < s.size()) {
    const char c = s[i];
    // Line comment.
    if (c == '/' && i + 1 < s.size() && s[i + 1] == '/') {
      std::size_t j = i;
      while (j < s.size() && s[j] != '\n') ++j;
      parse_comment(f, s.substr(i, j - i), line_of(f, i));
      i = j;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < s.size() && s[i + 1] == '*') {
      std::size_t j = s.find("*/", i + 2);
      if (j == std::string::npos) j = s.size(); else j += 2;
      // A block comment may span lines; register annotations on the line
      // it starts on.
      parse_comment(f, s.substr(i, j - i), line_of(f, i));
      i = j;
      continue;
    }
    // Raw string literal: (optional prefix)R"delim( ... )delim".
    if (c == 'R' && i + 1 < s.size() && s[i + 1] == '"' &&
        (i == 0 || !is_ident(s[i - 1]))) {
      std::size_t dstart = i + 2;
      std::size_t dend = dstart;
      while (dend < s.size() && s[dend] != '(') ++dend;
      const std::string delim = s.substr(dstart, dend - dstart);
      const std::string close = ")" + delim + "\"";
      const std::size_t at = s.find(close, dend + 1);
      const std::size_t vend = (at == std::string::npos) ? s.size() : at;
      f.strings.push_back(
          {line_of(f, i), i, s.substr(dend + 1, vend - (dend + 1))});
      i = (at == std::string::npos) ? s.size() : at + close.size();
      continue;
    }
    // Ordinary string literal.
    if (c == '"') {
      std::size_t j = i + 1;
      std::string value;
      while (j < s.size() && s[j] != '"' && s[j] != '\n') {
        if (s[j] == '\\' && j + 1 < s.size()) {
          value += s[j];
          value += s[j + 1];
          j += 2;
        } else {
          value += s[j];
          ++j;
        }
      }
      f.strings.push_back({line_of(f, i), i, value});
      f.code[i] = '"';
      // Keep a literal "C" visible so `extern "C"` stays recognizable in
      // the blanked view; all other literal content is blanked.
      if (value == "C" && j == i + 2) f.code[i + 1] = 'C';
      if (j < s.size() && s[j] == '"') {
        f.code[j] = '"';
        ++j;
      }
      i = j;
      continue;
    }
    // Character literal (skip so '"' or '//' inside cannot confuse us).
    if (c == '\'') {
      std::size_t j = i + 1;
      while (j < s.size() && s[j] != '\'' && s[j] != '\n') {
        if (s[j] == '\\') ++j;
        ++j;
      }
      i = (j < s.size()) ? j + 1 : j;
      continue;
    }
    f.code[i] = c;
    ++i;
  }
}

// ---------------------------------------------------------------------------
// Extraction: mutex acquisitions and lexical nesting
// ---------------------------------------------------------------------------

namespace {

/// Canonical mutex identity of a MutexLock constructor argument:
/// whitespace removed, subscripts stripped (shards[s].mu and shards[t].mu
/// are the same lock *class*, which is what an ordering hierarchy ranks),
/// leading `this->` dropped. Identities are matched program-wide by this
/// text; two unrelated mutexes that normalize to the same expression
/// unify, which can only add edges (reviewed via the witness path and
/// suppressible per edge).
std::string normalize_mutex_expr(const std::string& raw) {
  std::string out;
  int bracket = 0;
  for (char c : raw) {
    if (std::isspace(static_cast<unsigned char>(c))) continue;
    if (c == '[') {
      ++bracket;
      continue;
    }
    if (c == ']') {
      if (bracket > 0) --bracket;
      continue;
    }
    if (bracket > 0) continue;
    out += c;
  }
  if (out.rfind("this->", 0) == 0) out = out.substr(6);
  if (out.empty()) return "";
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    if (!is_ident(c) && c != '.' && c != ':' && c != '-' && c != '>')
      return "";  // expressions with calls/commas are not identities
  }
  return out;
}

struct LockAcq {
  std::string mutex;
  std::size_t pos = 0;        // offset of the MutexLock token
  std::size_t scope_end = 0;  // one past the enclosing block's close brace
  int line = 0;
};

/// Collects `MutexLock <var>(<expr>);` acquisitions in one file together
/// with the end of each one's enclosing lexical scope. The MutexLock
/// class definition itself (constructor declarations, deleted copies)
/// does not match: a use site always has a variable name between the
/// type and the argument list.
std::vector<LockAcq> extract_lock_acquisitions(const SourceFile& f) {
  std::vector<LockAcq> acqs;
  std::size_t p = find_word(f.code, "MutexLock", 0);
  while (p != std::string::npos) {
    const std::size_t at = p;
    p = find_word(f.code, "MutexLock", p + 1);
    std::size_t q = skip_ws(f.code, at + 9);
    // Variable name (required: filters constructor declarations).
    std::size_t name_end = q;
    while (name_end < f.code.size() && is_ident(f.code[name_end]))
      ++name_end;
    if (name_end == q) continue;
    std::size_t open = skip_ws(f.code, name_end);
    if (open >= f.code.size() || f.code[open] != '(') continue;
    const std::size_t close = match_paren(f.code, open);
    if (close == std::string::npos) continue;
    const std::string id = normalize_mutex_expr(
        f.code.substr(open + 1, close - open - 2));
    if (id.empty()) continue;
    LockAcq a;
    a.mutex = id;
    a.pos = at;
    a.line = line_of(f, at);
    acqs.push_back(std::move(a));
  }
  if (acqs.empty()) return acqs;
  // One pass over the file resolves each acquisition's enclosing block:
  // scope end = the matching close brace of the innermost '{' open at the
  // acquisition site (the MutexLock destructor runs there).
  std::vector<std::size_t> brace_stack;
  std::size_t next = 0;
  for (std::size_t i = 0; i < f.code.size() && next < acqs.size(); ++i) {
    while (next < acqs.size() && acqs[next].pos == i) {
      if (brace_stack.empty()) {
        acqs[next].scope_end = 0;  // file scope: drop below
      } else {
        const std::size_t e =
            match_paren(f.code, brace_stack.back(), '{', '}');
        acqs[next].scope_end = (e == std::string::npos) ? f.code.size() : e;
      }
      ++next;
    }
    if (f.code[i] == '{') brace_stack.push_back(i);
    if (f.code[i] == '}' && !brace_stack.empty()) brace_stack.pop_back();
  }
  acqs.erase(std::remove_if(acqs.begin(), acqs.end(),
                            [](const LockAcq& a) { return a.scope_end == 0; }),
             acqs.end());
  return acqs;
}

bool edge_suppressed(const SourceFile& f, int inner_line) {
  for (int line : {inner_line, inner_line - 1}) {
    auto it = f.allow.find(line);
    if (it == f.allow.end()) continue;
    if (it->second.count("lock-order") || it->second.count("all"))
      return true;
  }
  return false;
}

void extract_lock_edges(const SourceFile& f, Program& p) {
  const std::vector<LockAcq> acqs = extract_lock_acquisitions(f);
  for (std::size_t i = 0; i < acqs.size(); ++i) {
    for (std::size_t j = 0; j < acqs.size(); ++j) {
      if (i == j) continue;
      const LockAcq& outer = acqs[i];
      const LockAcq& inner = acqs[j];
      if (!(outer.pos < inner.pos && inner.pos < outer.scope_end)) continue;
      if (edge_suppressed(f, inner.line)) continue;
      const bool dup =
          std::any_of(p.lock_edges.begin(), p.lock_edges.end(),
                      [&](const LockEdge& e) {
                        return e.outer == outer.mutex &&
                               e.inner == inner.mutex;
                      });
      if (dup) continue;
      LockEdge e;
      e.outer = outer.mutex;
      e.inner = inner.mutex;
      e.file = f.path;
      e.outer_line = outer.line;
      e.inner_line = inner.line;
      p.lock_edges.push_back(std::move(e));
    }
  }
}

// ---------------------------------------------------------------------------
// Extraction: atomic operations
// ---------------------------------------------------------------------------

const char* const kAtomicMethods[] = {
    "load",          "store",         "exchange",
    "fetch_add",     "fetch_sub",     "fetch_and",
    "fetch_or",      "fetch_xor",     "compare_exchange_weak",
    "compare_exchange_strong"};

/// Receiver identity of a member call whose method name starts at `at`:
/// the last identifier of the receiver chain with trailing subscripts
/// skipped (g_state[i].load -> g_state, impl_->total_size.fetch_add ->
/// total_size). "" when the receiver is not a plain identifier.
std::string atomic_receiver(const std::string& code, std::size_t at) {
  if (at == 0) return "";
  std::size_t e = at - 1;  // at '.' or '>'
  if (code[e] == '>') {
    if (e == 0 || code[e - 1] != '-') return "";
    --e;  // at '-'
  } else if (code[e] != '.') {
    return "";
  }
  // e is the index of '.' or '-'; walk left past whitespace/subscripts.
  while (e > 0) {
    const char c = code[e - 1];
    if (std::isspace(static_cast<unsigned char>(c))) {
      --e;
    } else if (c == ']') {
      int depth = 0;
      std::size_t q = e - 1;
      for (;;) {
        if (code[q] == ']') ++depth;
        if (code[q] == '[' && --depth == 0) break;
        if (q == 0) return "";
        --q;
      }
      e = q;
    } else {
      break;
    }
  }
  std::size_t s = e;
  while (s > 0 && is_ident(code[s - 1])) --s;
  if (s == e) return "";
  return code.substr(s, e - s);
}

void extract_atomics(const SourceFile& f, Program& p) {
  static const char* const kRelease[] = {"memory_order_release",
                                         "memory_order_acq_rel",
                                         "memory_order_seq_cst"};
  static const char* const kAcquire[] = {"memory_order_acquire",
                                         "memory_order_acq_rel",
                                         "memory_order_seq_cst"};
  for (const char* m : kAtomicMethods) {
    std::size_t q = find_word(f.code, m, 0);
    while (q != std::string::npos) {
      const std::size_t at = q;
      q = find_word(f.code, m, q + 1);
      const bool member =
          (at >= 1 && f.code[at - 1] == '.') ||
          (at >= 2 && f.code[at - 2] == '-' && f.code[at - 1] == '>');
      if (!member) continue;
      const std::size_t open = skip_ws(f.code, at + std::strlen(m));
      if (open >= f.code.size() || f.code[open] != '(') continue;
      const std::size_t close = match_paren(f.code, open);
      const std::string args = close == std::string::npos
                                   ? f.code.substr(open)
                                   : f.code.substr(open, close - open);
      if (args.find("memory_order") == std::string::npos) continue;
      bool has_release = false;
      bool has_acquire = false;
      for (const char* o : kRelease)
        if (find_word(args, o, 0) != std::string::npos) has_release = true;
      for (const char* o : kAcquire)
        if (find_word(args, o, 0) != std::string::npos) has_acquire = true;
      AtomicOp op;
      op.method = m;
      op.is_load = std::strcmp(m, "load") == 0;
      const bool is_store = std::strcmp(m, "store") == 0;
      op.write_release = !op.is_load && has_release;
      op.read_acquire = !is_store && has_acquire;
      if (!op.write_release && !op.read_acquire) continue;
      op.var = atomic_receiver(f.code, at);
      if (op.var.empty()) continue;
      op.file = f.path;
      op.line = line_of(f, at);
      p.atomics.push_back(std::move(op));
    }
  }
}

// ---------------------------------------------------------------------------
// Extraction: registries (fault sites, status codes, counters, env keys)
// ---------------------------------------------------------------------------

/// One X(...) row of an X-macro registry table: the row's arguments
/// (string literals blanked, as in SourceFile::code) split at commas with
/// whitespace dropped, plus the extent of its parentheses.
struct TableRow {
  std::vector<std::string> args;
  std::size_t open = 0;
  std::size_t close = 0;
};

/// The rows of `#define <table>(X) X(...) X(...) ...`: every call of the
/// macro parameter inside the (backslash-continued) definition.
std::vector<TableRow> table_rows(const SourceFile& f, const char* table) {
  const std::string& c = f.code;
  std::vector<TableRow> rows;
  std::size_t at = find_word(c, table, 0);
  while (at != std::string::npos) {
    const std::size_t b = at > 0 ? c.find_last_not_of(" \t", at - 1) : 0;
    if (b != std::string::npos && b >= 5 &&
        c.compare(b - 5, 6, "define") == 0)
      break;
    at = find_word(c, table, at + 1);
  }
  if (at == std::string::npos) return rows;
  const std::size_t ps = skip_ws(c, skip_ws(c, at + std::strlen(table)) + 1);
  std::size_t pe = ps;
  while (pe < c.size() && is_ident(c[pe])) ++pe;
  const std::string param = c.substr(ps, pe - ps);
  std::size_t end = c.find('\n', pe);
  while (end != std::string::npos &&
         c[c.find_last_not_of(" \r", end - 1)] == '\\')
    end = c.find('\n', end + 1);
  if (end == std::string::npos) end = c.size();
  for (std::size_t q = find_word(c, param, pe); !param.empty() && q < end;
       q = find_word(c, param, q + 1)) {
    const std::size_t open = skip_ws(c, q + param.size());
    if (open >= end || c[open] != '(') continue;
    TableRow row{{""}, open, match_paren(c, open)};
    if (row.close == std::string::npos || row.close > end) break;
    for (std::size_t i = open + 1; i + 1 < row.close; ++i) {
      if (c[i] == ',')
        row.args.emplace_back();
      else if (!std::isspace(static_cast<unsigned char>(c[i])))
        row.args.back() += c[i];
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Fault sites are the rows of the SHALOM_FAULT_SITES table:
/// X(<Site enumerator>, "<site name>").
void extract_fault_sites(const SourceFile& f, Program& p) {
  for (const TableRow& row : table_rows(f, kFaultSitesTable)) {
    for (const StringLiteral& lit : f.strings) {
      if (lit.pos <= row.open || lit.pos >= row.close) continue;
      if (!looks_like_site_name(lit.value)) continue;
      SiteDef d;
      d.name = lit.value;
      d.enum_name = row.args.front();
      d.file = f.path;
      d.line = lit.line;
      p.fault_sites.push_back(std::move(d));
    }
  }
}

bool is_status_code_name(const std::string& s) {
  if (s.rfind("SHALOM_", 0) != 0 || s.size() <= 7) return false;
  for (char c : s)
    if (!(std::isupper(static_cast<unsigned char>(c)) ||
          std::isdigit(static_cast<unsigned char>(c)) || c == '_'))
      return false;
  return true;
}

/// Status codes come from the `enum shalom_status { ... }` definition.
void extract_status_codes(const SourceFile& f, Program& p) {
  std::size_t q = find_word(f.code, "shalom_status", 0);
  while (q != std::string::npos) {
    const std::size_t at = q;
    q = find_word(f.code, "shalom_status", q + 1);
    // Must be `enum shalom_status {`: previous token "enum", next "{".
    std::size_t b = at;
    while (b > 0 && std::isspace(static_cast<unsigned char>(f.code[b - 1])))
      --b;
    std::size_t bs = b;
    while (bs > 0 && is_ident(f.code[bs - 1])) --bs;
    if (f.code.substr(bs, b - bs) != "enum") continue;
    const std::size_t open = skip_ws(f.code, at + 13);
    if (open >= f.code.size() || f.code[open] != '{') continue;
    const std::size_t close = match_paren(f.code, open, '{', '}');
    const std::size_t end =
        close == std::string::npos ? f.code.size() : close;
    std::size_t i = open;
    while (i < end) {
      if (is_ident(f.code[i]) && (i == 0 || !is_ident(f.code[i - 1]))) {
        std::size_t e = i;
        while (e < end && is_ident(f.code[e])) ++e;
        const std::string name = f.code.substr(i, e - i);
        const std::size_t eq = skip_ws(f.code, e);
        if (is_status_code_name(name) && eq < end && f.code[eq] == '=') {
          CodeDef d;
          d.name = name;
          d.file = f.path;
          d.line = line_of(f, i);
          p.status_codes.push_back(std::move(d));
        }
        i = e;
      } else {
        ++i;
      }
    }
    return;  // one definition per program
  }
}

/// strerror coverage: `case SHALOM_*` labels inside status_string() or
/// shalom_strerror() definitions.
void extract_strerror_entries(const SourceFile& f, Program& p) {
  for (const char* fn : {"status_string", "shalom_strerror"}) {
    const BodyRange body = local_definition_range(f, fn);
    if (!body.found()) continue;
    std::size_t q = find_word(f.code, "case", body.begin);
    while (q != std::string::npos && q < body.end) {
      std::size_t r = skip_ws(f.code, q + 4);
      std::size_t e = r;
      while (e < f.code.size() && is_ident(f.code[e])) ++e;
      const std::string name = f.code.substr(r, e - r);
      if (is_status_code_name(name)) p.strerror_codes.insert(name);
      q = find_word(f.code, "case", q + 1);
    }
  }
}

/// Robustness counters are the RobustnessStats fields named by the rows
/// of the SHALOM_ROBUSTNESS_COUNTERS table: X(<enumerator>, <field>,
/// <kind>).
void extract_stats_counters(const SourceFile& f, Program& p) {
  for (const TableRow& row : table_rows(f, kCountersTable)) {
    if (row.args.size() < 2 || row.args[1].empty()) continue;
    CounterDef d;
    d.name = row.args[1];
    d.file = f.path;
    d.line = line_of(f, row.open);
    p.stats_counters.push_back(std::move(d));
  }
}

bool is_env_key(const std::string& s) {
  if (s.rfind("SHALOM_", 0) != 0 || s.size() <= 7) return false;
  for (char c : s)
    if (!(std::isupper(static_cast<unsigned char>(c)) ||
          std::isdigit(static_cast<unsigned char>(c)) || c == '_'))
      return false;
  return true;
}

void extract_env_keys(const SourceFile& f, Program& p) {
  for (const StringLiteral& lit : f.strings) {
    if (!is_env_key(lit.value)) continue;
    const bool seen =
        std::any_of(p.env_keys.begin(), p.env_keys.end(),
                    [&](const EnvKeyUse& k) { return k.name == lit.value; });
    if (seen) continue;
    p.env_keys.push_back({lit.value, f.path, lit.line});
  }
}

}  // namespace

void extract_program(Program& p) {
  for (const SourceFile& f : p.files) {
    extract_lock_edges(f, p);
    extract_atomics(f, p);
    extract_fault_sites(f, p);
    if (p.status_codes.empty()) extract_status_codes(f, p);
    extract_strerror_entries(f, p);
    if (p.stats_counters.empty()) extract_stats_counters(f, p);
    extract_env_keys(f, p);
    for (const LockOrderDecl& d : f.lock_decls) p.lock_decls.push_back(d);
  }
}

}  // namespace shalom_lint
