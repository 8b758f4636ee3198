// Golden tests for tools/shalom_lint: each fixture under
// tests/lint_fixtures/ seeds exactly one rule's violation(s), and the
// analyzer must report the exact rule ID on the exact line - plus stay
// silent on the real library sources and on the suppressed fixture.
//
// The whole-program families (lock-order, atomic-pairing,
// registry-drift) compare the scanned code against external artifacts;
// fixture runs point those at the fake docs checked in next to the
// fixtures (drift_design.md, drift_api.md, drift_tests/, drift_tier1.sh)
// so expectations never chase the real documentation.
//
// The binary location and artifact paths are injected by the build
// (SHALOM_LINT_* compile definitions in tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

namespace {

struct LintRun {
  int exit_code = -1;
  std::string output;
};

LintRun run_cmd(const std::string& cmd) {
  LintRun r;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[4096];
  std::size_t n;
  while ((n = fread(buf, 1, sizeof buf, pipe)) > 0) r.output.append(buf, n);
  const int status = pclose(pipe);
  r.exit_code = (status >= 0 && WIFEXITED(status)) ? WEXITSTATUS(status) : -1;
  return r;
}

/// Runs the analyzer capturing stdout (findings); stderr is dropped.
LintRun run_lint(const std::string& args) {
  return run_cmd(std::string(SHALOM_LINT_BIN) + " " + args + " 2>/dev/null");
}

/// Runs the analyzer capturing stderr (the summary line) only.
LintRun run_lint_stderr(const std::string& args) {
  return run_cmd(std::string(SHALOM_LINT_BIN) + " " + args +
                 " 2>&1 1>/dev/null");
}

std::string fixture(const char* name) {
  return std::string(SHALOM_LINT_FIXTURES) + "/" + name;
}

std::string design_flag() {
  return std::string("--design=") + SHALOM_LINT_DESIGN;
}

/// Drift artifacts for fixture runs: the fake docs/tests next to the
/// fixtures, so the registry expectations are self-contained.
std::string drift_fixture_flags() {
  return "--api=" + fixture("drift_api.md") +
         " --tests=" + fixture("drift_tests") +
         " --tier1=" + fixture("drift_tier1.sh");
}

/// Drift artifacts for the real-source run: the actual docs and suites.
std::string drift_real_flags() {
  return std::string("--api=") + SHALOM_LINT_API +
         " --tests=" + SHALOM_LINT_TESTS + " --tier1=" + SHALOM_LINT_TIER1;
}

std::string fixture_flags() {
  return design_flag() + " " + drift_fixture_flags();
}

int count_lines(const std::string& s) {
  int n = 0;
  for (char c : s)
    if (c == '\n') ++n;
  return n;
}

/// Expects a text-format finding `<file>:<line>: [<rule>]` in the output.
void expect_finding(const LintRun& r, const std::string& file, int line,
                    const std::string& rule) {
  const std::string needle =
      file + ":" + std::to_string(line) + ": [" + rule + "]";
  EXPECT_NE(r.output.find(needle), std::string::npos)
      << "expected finding '" << needle << "' in output:\n"
      << r.output;
}

TEST(Lint, LibrarySourcesAreClean) {
  // The full gate scan set - src, bench, and the analyzer's own sources -
  // against the real DESIGN.md/API.md/tests/tier1.sh must be silent.
  const LintRun r =
      run_lint(design_flag() + " " + drift_real_flags() + " " +
               SHALOM_LINT_SRC + " " + SHALOM_LINT_BENCH + " " +
               SHALOM_LINT_TOOLS);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output, "");
}

TEST(Lint, AtomicMemoryOrderFixture) {
  const std::string f = fixture("atomic_memory_order.cpp");
  const LintRun r = run_lint(fixture_flags() + " " + f);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(count_lines(r.output), 1) << r.output;
  expect_finding(r, f, 4, "atomic-memory-order");
}

TEST(Lint, RawAllocFixture) {
  const std::string f = fixture("raw_alloc.cpp");
  const LintRun r = run_lint(fixture_flags() + " " + f);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(count_lines(r.output), 2) << r.output;
  expect_finding(r, f, 4, "raw-alloc");  // std::malloc
  expect_finding(r, f, 5, "raw-alloc");  // new float[n]
}

TEST(Lint, EnvAccessFixture) {
  // SHALOM_FIXTURE is listed in drift_api.md and mentioned in the fake
  // test blob, so the only finding is the direct getenv, not an
  // undocumented- or untested-env-key drift.
  const std::string f = fixture("env_access.cpp");
  const LintRun r = run_lint(fixture_flags() + " " + f);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(count_lines(r.output), 1) << r.output;
  expect_finding(r, f, 4, "env-access");
}

TEST(Lint, FaultSiteFixture) {
  // The fixture's SHALOM_FAULT_SITES row feeds both families: the site is
  // absent from DESIGN.md (fault-site-documented) and never armed in the
  // fake tests/tier1 (registry-drift).
  const std::string f = fixture("fault_site.cpp");
  const LintRun r = run_lint(fixture_flags() + " " + f);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(count_lines(r.output), 2) << r.output;
  expect_finding(r, f, 3, "fault-site-documented");
  expect_finding(r, f, 3, "registry-drift");
  EXPECT_NE(r.output.find("bogus.site"), std::string::npos) << r.output;
}

TEST(Lint, NondeterminismFixture) {
  const std::string f = fixture("nondeterminism.cpp");
  const LintRun r = run_lint(fixture_flags() + " " + f);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(count_lines(r.output), 2) << r.output;
  expect_finding(r, f, 5, "nondeterminism");  // std::rand()
  expect_finding(r, f, 6, "nondeterminism");  // std::time(nullptr)
}

TEST(Lint, CapiBoundaryFixture) {
  const std::string f = fixture("capi_boundary.cpp");
  const LintRun r = run_lint(fixture_flags() + " " + f);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(count_lines(r.output), 1) << r.output;
  expect_finding(r, f, 2, "capi-exception-boundary");
  EXPECT_NE(r.output.find("shalom_fixture_entry"), std::string::npos)
      << r.output;
}

TEST(Lint, SignalHandlerFixture) {
  const std::string f = fixture("signal_handler.cpp");
  const LintRun r = run_lint(fixture_flags() + " " + f);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(count_lines(r.output), 2) << r.output;
  expect_finding(r, f, 7, "signal-handler-safety");  // std::fprintf
  expect_finding(r, f, 8, "signal-handler-safety");  // new int(sig)
  EXPECT_NE(r.output.find("fixture_handler"), std::string::npos) << r.output;
}

TEST(Lint, UnboundedWaitFixture) {
  const std::string f = fixture("unbounded_wait.cpp");
  const LintRun r = run_lint(fixture_flags() + " " + f);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(count_lines(r.output), 1) << r.output;
  expect_finding(r, f, 7, "unbounded-wait");  // bare done_cv.wait(lock)
  EXPECT_NE(r.output.find("done_cv"), std::string::npos) << r.output;
}

TEST(Lint, UncheckedIoFixture) {
  const std::string f = fixture("unchecked_io.cpp");
  const LintRun r = run_lint(fixture_flags() + " " + f);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(count_lines(r.output), 3) << r.output;
  expect_finding(r, f, 5, "unchecked-io");  // bare std::fwrite statement
  expect_finding(r, f, 6, "unchecked-io");  // bare std::fclose statement
  expect_finding(r, f, 7, "unchecked-io");  // if-body std::rename discard
}

TEST(Lint, SuppressionCommentSilencesFinding) {
  const std::string f = fixture("suppressed.cpp");
  const LintRun r = run_lint(fixture_flags() + " " + f);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output, "");
}

TEST(Lint, LockOrderCycleFixtureReportsWitnessPath) {
  // Two TUs acquire fix_mu_a/fix_mu_b in opposite orders: one cycle, one
  // finding, with every edge of the witness path carrying file:line.
  const std::string ab = fixture("lock_order_ab.cpp");
  const std::string ba = fixture("lock_order_ba.cpp");
  const LintRun r = run_lint(fixture_flags() + " " + ab + " " + ba);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(count_lines(r.output), 1) << r.output;
  expect_finding(r, ab, 10, "lock-order");
  EXPECT_NE(r.output.find("fix_mu_a -> fix_mu_b -> fix_mu_a"),
            std::string::npos)
      << r.output;
  // Witness edges: the ab TU acquires b while holding a, the ba TU
  // acquires a while holding b.
  EXPECT_NE(r.output.find(ab + ":10 acquires 'fix_mu_b'"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find(ba + ":9 acquires 'fix_mu_a'"), std::string::npos)
      << r.output;
  // Either TU alone has no cycle.
  const LintRun solo = run_lint(fixture_flags() + " " + ab);
  EXPECT_EQ(solo.exit_code, 0) << solo.output;
}

TEST(Lint, LockOrderDeclaredHierarchyContradiction) {
  const std::string f = fixture("lock_order_declared.cpp");
  const LintRun r = run_lint(fixture_flags() + " " + f);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(count_lines(r.output), 1) << r.output;
  expect_finding(r, f, 10, "lock-order");
  EXPECT_NE(
      r.output.find("lock-order(fix_declared_a before fix_declared_b)"),
      std::string::npos)
      << r.output;
}

TEST(Lint, AtomicPairingFixture) {
  // An unpaired release store, an unpaired acquire load, and a correctly
  // paired flag that must stay silent.
  const std::string f = fixture("atomic_unpaired.cpp");
  const LintRun r = run_lint(fixture_flags() + " " + f);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(count_lines(r.output), 2) << r.output;
  expect_finding(r, f, 8, "atomic-pairing");  // release store, no reader
  expect_finding(r, f, 9, "atomic-pairing");  // acquire load, no writer
  EXPECT_NE(r.output.find("fix_unpaired_flag"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("fix_orphan_reader"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("fix_paired"), std::string::npos) << r.output;
}

TEST(Lint, RegistryDriftFixture) {
  // Against the fake docs: one unarmed site, one missing strerror entry,
  // one missing API row, one missing test mention, an undocumented
  // counter and env key (mentioned in the tests, so single-axis) and an
  // untested counter and env key (documented, so also single-axis) -
  // each finding naming the artifact it drifted from.
  const std::string f = fixture("registry_drift.cpp");
  const LintRun r =
      run_lint("--design=" + fixture("drift_design.md") + " " +
               drift_fixture_flags() + " " + f);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(count_lines(r.output), 8) << r.output;
  expect_finding(r, f, 6, "registry-drift");   // drift.orphan_site unarmed
  expect_finding(r, f, 9, "registry-drift");   // no strerror entry
  expect_finding(r, f, 10, "registry-drift");  // no API row
  expect_finding(r, f, 11, "registry-drift");  // no test mention
  expect_finding(r, f, 23, "registry-drift");  // undocumented counter
  expect_finding(r, f, 24, "registry-drift");  // untested counter
  expect_finding(r, f, 26, "registry-drift");  // undocumented env key
  expect_finding(r, f, 27, "registry-drift");  // untested env key
  EXPECT_NE(r.output.find("drift.orphan_site"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("SHALOM_DRIFT_NO_STRERROR"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("drift_orphan_counter"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("drift_untested_counter"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("SHALOM_DRIFT_ORPHAN_KEY"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("SHALOM_DRIFT_UNTESTED_KEY"), std::string::npos)
      << r.output;
  // The armed/documented/tested halves stay silent.
  EXPECT_EQ(r.output.find("drift.armed_site"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("SHALOM_DRIFT_TESTED"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("drift_documented_counter"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("SHALOM_DRIFT_DOCUMENTED_KEY"), std::string::npos)
      << r.output;
}

TEST(Lint, WholeFixtureDirectoryFindingCount) {
  // 1 atomic-memory-order + 2 raw-alloc + 1 env + 2 fault_site (design +
  // arming) + 2 nondeterminism + 1 capi + 2 signal-handler +
  // 1 unbounded-wait + 3 unchecked-io + 0 suppressed + 1 lock-order cycle
  // + 1 declared contradiction + 2 atomic-pairing + 10 registry_drift.cpp
  // (2 sites undocumented in the real DESIGN.md + 8 drift) = 29 findings.
  const LintRun r =
      run_lint(fixture_flags() + " " + std::string(SHALOM_LINT_FIXTURES));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(count_lines(r.output), 29) << r.output;
}

TEST(Lint, JsonFormatCarriesRuleAndLine) {
  const std::string f = fixture("atomic_memory_order.cpp");
  const LintRun r = run_lint("--format=json " + fixture_flags() + " " + f);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("\"rule\": \"atomic-memory-order\""),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"line\": 4"), std::string::npos) << r.output;
}

/// Minimal JSON string unescaper for the round-trip assertion below.
std::string json_unescape(const std::string& s) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out += s[i];
      continue;
    }
    const char e = s[++i];
    switch (e) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': {
        const unsigned code =
            static_cast<unsigned>(std::strtoul(s.substr(i + 1, 4).c_str(),
                                               nullptr, 16));
        out += static_cast<char>(code);
        i += 4;
        break;
      }
      default: out += e;
    }
  }
  return out;
}

/// Extracts the raw (still-escaped) JSON string value of `key`.
std::string json_field(const std::string& json, const std::string& key) {
  const std::string marker = "\"" + key + "\": \"";
  const std::size_t at = json.find(marker);
  if (at == std::string::npos) return "";
  std::size_t i = at + marker.size();
  std::string raw;
  while (i < json.size() && json[i] != '"') {
    if (json[i] == '\\' && i + 1 < json.size()) {
      raw += json[i];
      raw += json[i + 1];
      i += 2;
    } else {
      raw += json[i];
      ++i;
    }
  }
  return raw;
}

TEST(Lint, JsonRoundTripsQuotesBackslashesAndControlChars) {
  // --selftest-json emits a synthetic finding whose file and message
  // contain `"`, `\`, tab, newline and a control byte; the JSON output
  // must unescape back to the original bytes.
  const LintRun r = run_cmd(std::string(SHALOM_LINT_BIN) +
                            " --format=json --selftest-json 2>/dev/null");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(json_unescape(json_field(r.output, "file")),
            "self\"test\\dir/probe\t.cpp")
      << r.output;
  EXPECT_EQ(json_unescape(json_field(r.output, "message")),
            "quote:\" backslash:\\ newline:\n control:\x01 end")
      << r.output;
}

TEST(Lint, SummaryReportsScannedFileCountAndPerRuleTotals) {
  const std::string f = fixture("atomic_memory_order.cpp");
  const LintRun r = run_lint_stderr(fixture_flags() + " " + f);
  EXPECT_NE(r.output.find("scanned 1 file(s)"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("atomic-memory-order=1"), std::string::npos)
      << r.output;
}

TEST(Lint, EmptyScanIsAnError) {
  // An input directory containing no scannable file must fail loudly
  // rather than pass as a clean scan.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "shalom_lint_empty_scan")
          .string();
  std::filesystem::create_directories(dir);
  const LintRun r = run_lint(fixture_flags() + " " + dir);
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

TEST(Lint, ListRulesNamesEveryRule) {
  const LintRun r = run_lint("--list-rules");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* rule :
       {"atomic-memory-order", "raw-alloc", "env-access",
        "fault-site-documented", "nondeterminism",
        "capi-exception-boundary", "signal-handler-safety",
        "unbounded-wait", "unchecked-io", "lock-order", "atomic-pairing",
        "registry-drift"}) {
    EXPECT_NE(r.output.find(rule), std::string::npos) << rule;
  }
}

TEST(Lint, NoInputsIsUsageError) {
  const LintRun r = run_lint("");
  EXPECT_EQ(r.exit_code, 2);
}

}  // namespace
