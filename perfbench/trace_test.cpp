// Tests of the span recorder, the self-time fold and the overhead report.
// Run: the perfbench_trace_test binary (or `python3 perfbench/run.py
// --self-test`); exits non-zero on the first failed check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "trace.h"

namespace {

using perfbench::trace::fold;
using perfbench::trace::kNoParent;
using perfbench::trace::Recorder;
using perfbench::trace::Scope;
using perfbench::trace::Span;

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

Span span(const char* name, std::uint32_t parent, std::int64_t lo,
          std::int64_t hi, std::uint64_t req = 0) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.request = req;
  s.start_ns = lo;
  s.end_ns = hi;
  return s;
}

void test_recorder_nesting() {
  Recorder rec(16);
  const auto outer = rec.begin("outer", 7);
  const auto inner = rec.begin("inner", 7);
  rec.end(inner);
  const auto sibling = rec.begin("sibling", 7);
  rec.end(sibling);
  rec.end(outer);
  const auto top = rec.begin("top", 8);
  rec.end(top);
  const auto& s = rec.spans();
  CHECK(s.size() == 4);
  CHECK(s[outer].parent == kNoParent);
  CHECK(s[inner].parent == outer);
  CHECK(s[sibling].parent == outer);
  CHECK(s[top].parent == kNoParent);
  CHECK(s[inner].request == 7 && s[top].request == 8);
  for (const Span& x : s) CHECK(x.end_ns >= x.start_ns && x.start_ns > 0);
  CHECK(s[inner].start_ns >= s[outer].start_ns);
  CHECK(s[sibling].end_ns <= s[outer].end_ns);
}

void test_capacity_drops_without_realloc() {
  Recorder rec(2, 8);
  const Span* data = rec.spans().data();
  const auto a = rec.begin("a", 0);
  const auto b = rec.begin("b", 0);
  const auto c = rec.begin("c", 0);  // over capacity
  CHECK(c == kNoParent);
  rec.end(c);  // ignored
  rec.end(b);
  rec.end(a);
  CHECK(rec.spans().size() == 2);
  CHECK(rec.dropped() == 1);
  CHECK(rec.spans().data() == data);
}

void test_depth_limit() {
  Recorder rec(16, 2);
  const auto a = rec.begin("a", 0);
  const auto b = rec.begin("b", 0);
  const auto c = rec.begin("c", 0);
  CHECK(c == kNoParent && rec.dropped() == 1);
  rec.end(b);
  rec.end(a);
}

void test_scope_null_recorder_records_nothing() {
  { Scope s(nullptr, "x", 1); }
  Recorder rec(4);
  {
    Scope outer(&rec, "outer", 3);
    Scope inner(&rec, "inner", 3);
  }
  CHECK(rec.spans().size() == 2);
  CHECK(rec.spans()[1].parent == 0);
  CHECK(rec.spans()[0].end_ns >= rec.spans()[1].end_ns);
}

void test_fold_self_time() {
  // outer [0,100) with children [10,30) and [50,60): self = 100-30 = 70.
  // child [10,30) has a grandchild [15,20): its self = 15.
  std::vector<Span> s = {span("outer", kNoParent, 0, 100),
                         span("child", 0, 10, 30),
                         span("leaf", 1, 15, 20),
                         span("child", 0, 50, 60)};
  const auto f = fold(s);
  CHECK(f.at("outer") == std::vector<double>{70});
  CHECK(f.at("child") == (std::vector<double>{15, 10}));
  CHECK(f.at("leaf") == std::vector<double>{5});
}

void test_fold_overlap_and_clip() {
  // Children overlap each other ([10,40) and [30,50)) and one pokes out
  // of the parent ([90,120) clipped to [90,100)): covered = 40 + 10.
  std::vector<Span> s = {span("p", kNoParent, 0, 100),
                         span("c", 0, 10, 40), span("c", 0, 30, 50),
                         span("c", 0, 90, 120)};
  const auto f = fold(s);
  CHECK(f.at("p") == std::vector<double>{50});
}

void test_fold_skips_open_spans() {
  std::vector<Span> s = {span("p", kNoParent, 0, 100),
                         span("open", 0, 10, 0)};
  const auto f = fold(s);
  CHECK(f.count("open") == 0);
  CHECK(f.at("p") == std::vector<double>{100});
}

void test_merge() {
  perfbench::trace::SelfTimes a = fold({span("x", kNoParent, 0, 10)});
  const auto b = fold({span("x", kNoParent, 0, 30), span("y", 0, 0, 5)});
  perfbench::trace::merge(a, b);
  CHECK(a.at("x") == (std::vector<double>{10, 25}));
  CHECK(a.at("y") == std::vector<double>{5});
}

void test_quantiles_and_overhead() {
  using perfbench::trace::median;
  using perfbench::trace::overhead_x;
  using perfbench::trace::quantile;
  CHECK(median({}) == 0);
  CHECK(median({3, 1, 2}) == 2);
  CHECK(median({4, 1, 3, 2}) == 2.5);
  CHECK(quantile({0, 10}, 0.25) == 2.5);
  CHECK(quantile({5}, 0.99) == 5);
  CHECK(overhead_x({11, 12, 13}, {10, 10, 10}) == 1.2);
  CHECK(overhead_x({1}, {}) == 0);
}

void test_write_csv() {
  std::FILE* f = std::tmpfile();
  CHECK(f != nullptr);
  if (f == nullptr) return;
  perfbench::trace::write_csv(
      f, 3, {span("a", kNoParent, 1, 2, 9), span("b", 0, 1, 2, 9)}, true);
  std::rewind(f);
  char buf[256] = {};
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  const std::string got(buf, n);
  CHECK(got ==
        "thread,index,parent,request,name,start_ns,end_ns\n"
        "3,0,-1,9,a,1,2\n"
        "3,1,0,9,b,1,2\n");
}

}  // namespace

int main() {
  test_recorder_nesting();
  test_capacity_drops_without_realloc();
  test_depth_limit();
  test_scope_null_recorder_records_nothing();
  test_fold_self_time();
  test_fold_overlap_and_clip();
  test_fold_skips_open_spans();
  test_merge();
  test_quantiles_and_overhead();
  test_write_csv();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("trace tests: all passed\n");
  return 0;
}
