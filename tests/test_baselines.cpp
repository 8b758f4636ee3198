// Correctness of every comparator library against the naive oracle:
// the figures are only meaningful if all competitors compute the same
// GEMM. Sweeps modes, sizes (within each library's design scope), both
// element types and thread counts for the parallel-capable ones.
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <ostream>
#include <string>

#include "baselines/registry.h"
#include "tests/test_util.h"

namespace shalom::baselines {
namespace {

/// Test-name suffix for a library: its name with every non-alphanumeric
/// character replaced by '_'.
std::string test_suffix(const Library& lib) {
  std::string name = lib.name;
  for (char& c : name)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return name;
}

}  // namespace

/// gtest prints a pointer parameter as its address, and the discovered
/// ctest name carries that print ("... # GetParam() = 0x..."). Under ASLR
/// the address changes on every build, so every discovery renamed these
/// tests. Print a fixed per-library tag instead: the values are the ones
/// the suite's test names were first recorded with, so those names stay
/// stable. Found by argument-dependent lookup, hence outside the
/// anonymous namespace.
void PrintTo(const Library* lib, std::ostream* os) {
  static const std::map<std::string, const char*> kTags = {
      {"LibShalom", "0x55722d2e8460"}, {"LIBXSMM_", "0x55722d2e84e0"},
      {"BLASFEO_", "0x55722d2e8560"},  {"ARMPL_", "0x55722d2e85e0"},
      {"BLIS_", "0x55722d2e8660"},     {"OpenBLAS_", "0x55722d2e86e0"},
  };
  const std::string suffix = test_suffix(*lib);
  const auto it = kTags.find(suffix);
  *os << (it != kTags.end() ? it->second : suffix.c_str());
}

namespace {

struct Case {
  index_t m, n, k;
};

const Case kSmallCases[] = {
    {5, 5, 5}, {8, 8, 8}, {13, 5, 13}, {23, 29, 17}, {64, 64, 64},
};
const Case kLargeCases[] = {
    {33, 700, 150},
    {128, 300, 260},
};

class LibraryCorrectness
    : public ::testing::TestWithParam<const Library*> {};

TEST_P(LibraryCorrectness, SmallSizesAllModesF32) {
  const Library& lib = *GetParam();
  for (const Case& c : kSmallCases) {
    for (Mode mode : testing::kAllModes) {
      testing::Problem<float> p(mode, c.m, c.n, c.k);
      lib.sgemm(mode, p.m, p.n, p.k, 1.25f, p.a.data(), p.a.ld(),
                p.b.data(), p.b.ld(), 0.5f, p.c.data(), p.c.ld(), 1);
      p.run_reference(1.25f, 0.5f);
      p.expect_matches(lib.name.c_str());
    }
  }
}

TEST_P(LibraryCorrectness, SmallSizesF64) {
  const Library& lib = *GetParam();
  for (const Case& c : kSmallCases) {
    testing::Problem<double> p({Trans::N, Trans::N}, c.m, c.n, c.k);
    lib.dgemm({Trans::N, Trans::N}, p.m, p.n, p.k, 1.0, p.a.data(),
              p.a.ld(), p.b.data(), p.b.ld(), 1.0, p.c.data(), p.c.ld(), 1);
    p.run_reference(1.0, 1.0);
    p.expect_matches(lib.name.c_str());
  }
}

TEST_P(LibraryCorrectness, LargerSizes) {
  const Library& lib = *GetParam();
  if (lib.small_only) GTEST_SKIP() << "small-only library";
  for (const Case& c : kLargeCases) {
    for (Mode mode : {Mode{Trans::N, Trans::N}, Mode{Trans::N, Trans::T}}) {
      testing::Problem<float> p(mode, c.m, c.n, c.k);
      lib.sgemm(mode, p.m, p.n, p.k, 1.f, p.a.data(), p.a.ld(), p.b.data(),
                p.b.ld(), 0.f, p.c.data(), p.c.ld(), 1);
      p.run_reference(1.f, 0.f);
      p.expect_matches(lib.name.c_str());
    }
  }
}

TEST_P(LibraryCorrectness, ParallelExecution) {
  const Library& lib = *GetParam();
  if (!lib.supports_parallel) GTEST_SKIP() << "serial-only library";
  testing::Problem<float> p({Trans::N, Trans::T}, 40, 600, 200);
  lib.sgemm({Trans::N, Trans::T}, p.m, p.n, p.k, 1.f, p.a.data(), p.a.ld(),
            p.b.data(), p.b.ld(), 0.f, p.c.data(), p.c.ld(), 4);
  p.run_reference(1.f, 0.f);
  p.expect_matches((lib.name + " threads=4").c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllLibraries, LibraryCorrectness,
    ::testing::ValuesIn(all_libraries()),
    [](const ::testing::TestParamInfo<const Library*>& info) {
      return test_suffix(*info.param);
    });

TEST(Registry, ShapeOfCollections) {
  EXPECT_EQ(all_libraries().size(), 6u);
  EXPECT_EQ(all_libraries().back()->name, "LibShalom");
  EXPECT_EQ(parallel_libraries().size(), 4u);
  for (const auto* lib : parallel_libraries())
    EXPECT_TRUE(lib->supports_parallel) << lib->name;
}

TEST(XsmmLike, CodeCacheIsConsistentAcrossCalls) {
  // Two identical calls (second one hits the plan cache) must agree.
  const Library& lib = xsmm_like();
  testing::Problem<float> p1({Trans::N, Trans::N}, 24, 24, 24);
  testing::Problem<float> p2({Trans::N, Trans::N}, 24, 24, 24);
  lib.sgemm({Trans::N, Trans::N}, 24, 24, 24, 1.f, p1.a.data(), p1.a.ld(),
            p1.b.data(), p1.b.ld(), 0.f, p1.c.data(), p1.c.ld(), 1);
  lib.sgemm({Trans::N, Trans::N}, 24, 24, 24, 1.f, p2.a.data(), p2.a.ld(),
            p2.b.data(), p2.b.ld(), 0.f, p2.c.data(), p2.c.ld(), 1);
  for (index_t i = 0; i < 24; ++i)
    for (index_t j = 0; j < 24; ++j)
      EXPECT_EQ(p1.c(i, j), p2.c(i, j));
}

TEST(XsmmLike, OutOfScopeFallsBackCorrectly) {
  // (M*N*K)^(1/3) > 64: the comparator must still be correct.
  testing::Problem<float> p({Trans::N, Trans::N}, 80, 80, 80);
  xsmm_like().sgemm({Trans::N, Trans::N}, 80, 80, 80, 1.f, p.a.data(),
                    p.a.ld(), p.b.data(), p.b.ld(), 0.f, p.c.data(),
                    p.c.ld(), 1);
  p.run_reference(1.f, 0.f);
  p.expect_matches("xsmm fallback");
}

}  // namespace
}  // namespace shalom::baselines
