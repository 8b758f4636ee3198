// Persistent tuned-table battery (tuning/table.h): corruption fuzzing
// (truncation at every record boundary and at random offsets, single-bit
// flips, version and fingerprint skew, zero-length and missing files),
// atomic-commit-under-fault byte-identity, loaded records reaching the
// first plan of their shape, and the C ABI mirrors. Every corruption
// outcome must be a clean cold start with the right telemetry counter -
// never a crash and never an invalid record published to the planner.
//
// Two fixtures: TableTest disarms all fault sites for deterministic
// expectations; TableChaos leaves ambient SHALOM_FAULT arming (the tier-1
// persistence-chaos stage) in place and asserts invariants only.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "core/kernel_contracts.h"
#include "core/plan.h"
#include "core/shalom.h"
#include "core/shalom_c.h"
#include "tests/test_util.h"
#include "tuning/table.h"

namespace shalom {
namespace {

using tuning::kTableFormatVersion;
using tuning::kTableHeaderBytes;
using tuning::kTableRecordBytes;
using tuning::TunedRecord;

// Local CRC-32 (same polynomial as the store) so header-patching tests
// can re-checksum a field they deliberately skewed.
std::uint32_t crc32_of(const unsigned char* data, std::size_t len) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int j = 0; j < 8; ++j)
        c = (c & 1u) != 0 ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i)
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

void put_u32_at(std::vector<unsigned char>& buf, std::size_t at,
                std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    buf[at + static_cast<std::size_t>(i)] =
        static_cast<unsigned char>(v >> (8 * i));
}

/// Recomputes the header CRC after a deliberate header patch.
void reseal_header(std::vector<unsigned char>& buf) {
  put_u32_at(buf, 32, crc32_of(buf.data(), 32));
}

/// Recomputes record `i`'s CRC after a deliberate record patch.
void reseal_record(std::vector<unsigned char>& buf, std::size_t i) {
  const std::size_t base = kTableHeaderBytes + i * kTableRecordBytes;
  put_u32_at(buf, base + 60, crc32_of(buf.data() + base, 60));
}

std::vector<unsigned char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

void write_file(const std::string& path,
                const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

bool file_exists(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return in.good();
}

TunedRecord make_record(char dtype = 's', index_t m = 24, index_t n = 16,
                        index_t k = 32) {
  TunedRecord r;
  r.dtype = dtype;
  r.trans_a = false;
  r.trans_b = false;
  r.threads = 1;
  r.m = m;
  r.n = n;
  r.k = k;
  r.kc = 32;
  r.mc = 24;
  r.nc = 16;
  return r;
}

std::string test_path(const char* suffix) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "shalom_" + info->test_suite_name() + "_" +
         info->name() + "_" + suffix + ".tbl";
}

/// Deterministic fixture: all fault sites disarmed, the table and its
/// published overrides reset, per-test scratch path cleaned on both sides.
class TableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::disarm_all();
    tuning::table_clear();
    robustness_stats_reset();
    path_ = test_path("t");
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  void TearDown() override {
    fault::disarm_all();
    tuning::table_clear();
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  /// Registers `n` distinct valid records (alternating dtype) and saves
  /// them to path_; returns the file bytes.
  std::vector<unsigned char> save_table(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      TunedRecord r = make_record(i % 2 == 0 ? 's' : 'd',
                                  8 + static_cast<index_t>(i) * 8, 16, 32);
      EXPECT_TRUE(tuning::table_record(r));
    }
    EXPECT_EQ(tuning::table_save(path_.c_str()), SHALOM_OK);
    tuning::table_clear();
    return read_file(path_);
  }

  std::string path_;
};

// ---------------------------------------------------------------------------
// Validation and registration
// ---------------------------------------------------------------------------

TEST_F(TableTest, ValidateAcceptsLegalAndRejectsIllegalRecords) {
  EXPECT_TRUE(tuning::table_validate(make_record()));
  EXPECT_TRUE(tuning::table_validate(make_record('d', 1, 1, 1)));

  TunedRecord r = make_record();
  r.dtype = 'x';
  EXPECT_FALSE(tuning::table_validate(r));
  r = make_record();
  r.threads = 0;
  EXPECT_FALSE(tuning::table_validate(r));
  r = make_record();
  r.m = 0;
  EXPECT_FALSE(tuning::table_validate(r));
  r = make_record();
  r.k = -5;
  EXPECT_FALSE(tuning::table_validate(r));
  r = make_record();
  r.kc = 0;
  EXPECT_FALSE(tuning::table_validate(r));
  r = make_record();
  r.kc = contracts::kMaxKc + 1;  // past the tuner's own kc clamp
  EXPECT_FALSE(tuning::table_validate(r));
  r = make_record();
  r.nc = 0;
  EXPECT_FALSE(tuning::table_validate(r));
}

TEST_F(TableTest, RejectedRegistrationCountsTelemetry) {
  TunedRecord bad = make_record();
  bad.kc = 0;
  EXPECT_FALSE(tuning::table_record(bad));
  EXPECT_EQ(tuning::table_size(), 0u);
  EXPECT_EQ(robustness_stats().table_records_rejected, 1u);

  // Replacement, not duplication: same key twice is one record.
  EXPECT_TRUE(tuning::table_record(make_record()));
  EXPECT_TRUE(tuning::table_record(make_record()));
  EXPECT_EQ(tuning::table_size(), 1u);
}

// ---------------------------------------------------------------------------
// Round trip and determinism
// ---------------------------------------------------------------------------

TEST_F(TableTest, RoundTripPublishesOverridesAndCounts) {
  // One record on a blocked (not small one-block) shape, so its kc/mc/nc
  // are visible in the plan, plus three from save_table.
  const Mode mode{Trans::T, Trans::N};
  TunedRecord tn = make_record('s', 48, 96, 120);
  tn.trans_a = true;
  tn.kc = 24;
  tn.mc = 28;
  tn.nc = 48;
  ASSERT_TRUE(tuning::table_record(tn));
  Config overrides;
  overrides.kc_override = tn.kc;
  overrides.mc_override = tn.mc;
  overrides.nc_override = tn.nc;
  Config no_edges;
  no_edges.optimized_edges = false;
  const model::Blocking analytic =
      plan_create<float>(mode, tn.m, tn.n, tn.k).blk;
  const model::Blocking tuned =
      plan_create<float>(mode, tn.m, tn.n, tn.k, overrides).blk;
  const model::Blocking analytic_no_edges =
      plan_create<float>(mode, tn.m, tn.n, tn.k, no_edges).blk;
  ASSERT_NE(analytic.kc, tuned.kc);

  const std::vector<unsigned char> bytes = save_table(3);
  EXPECT_EQ(bytes.size(), kTableHeaderBytes + 4 * kTableRecordBytes);
  EXPECT_EQ(tuning::table_size(), 0u);  // save_table cleared the registry

  const std::uint64_t loaded_before = tuning::table_stats().records_loaded;
  ASSERT_EQ(tuning::table_load(path_.c_str()), SHALOM_OK);
  EXPECT_EQ(tuning::table_size(), 4u);
  EXPECT_EQ(tuning::table_stats().records_loaded, loaded_before + 4);
  EXPECT_EQ(robustness_stats().table_records_rejected, 0u);
  EXPECT_EQ(robustness_stats().table_load_failures, 0u);

  // The loaded record reaches the first plain-config plan of its shape.
  const GemmPlan<float> plan = plan_create<float>(mode, tn.m, tn.n, tn.k);
  EXPECT_EQ(plan.blk.kc, tuned.kc);
  EXPECT_EQ(plan.blk.mc, tuned.mc);
  EXPECT_EQ(plan.blk.nc, tuned.nc);

  // gemm of that shape runs the same plan: bitwise equal to plan_execute.
  testing::Problem<float> direct(mode, tn.m, tn.n, tn.k);
  testing::Problem<float> held(mode, tn.m, tn.n, tn.k);
  gemm(mode.a, mode.b, tn.m, tn.n, tn.k, 1.0f, direct.a.data(),
       direct.a.ld(), direct.b.data(), direct.b.ld(), 0.0f, direct.c.data(),
       direct.c.ld());
  plan_execute(plan, 1.0f, held.a.data(), held.a.ld(), held.b.data(),
               held.b.ld(), 0.0f, held.c.data(), held.c.ld());
  for (index_t i = 0; i < tn.m; ++i)
    for (index_t j = 0; j < tn.n; ++j)
      ASSERT_EQ(held.c(i, j), direct.c(i, j)) << "at (" << i << "," << j
                                               << ")";
  direct.run_reference(1.0f, 0.0f);
  direct.expect_matches("loaded tuned blocking");

  // A config with a non-default flag ignores the record.
  EXPECT_EQ(plan_create<float>(mode, tn.m, tn.n, tn.k, no_edges).blk.kc,
            analytic_no_edges.kc);

  // Clearing the table brings the analytic blocking back.
  tuning::table_clear();
  const model::Blocking after = plan_create<float>(mode, tn.m, tn.n, tn.k).blk;
  EXPECT_EQ(after.kc, analytic.kc);
  EXPECT_EQ(after.mc, analytic.mc);
  EXPECT_EQ(after.nc, analytic.nc);
}

TEST_F(TableTest, EqualContentsSaveByteIdentically) {
  const std::vector<unsigned char> first = save_table(4);
  // Re-register the same records in reverse order: the registry is
  // ordered, so the files must still match byte for byte.
  for (int i = 3; i >= 0; --i) {
    TunedRecord r = make_record(i % 2 == 0 ? 's' : 'd',
                                8 + static_cast<index_t>(i) * 8, 16, 32);
    ASSERT_TRUE(tuning::table_record(r));
  }
  const std::string other = test_path("other");
  ASSERT_EQ(tuning::table_save(other.c_str()), SHALOM_OK);
  EXPECT_EQ(read_file(other), first);
  std::remove(other.c_str());
}

// ---------------------------------------------------------------------------
// Corruption fuzz battery: every outcome is a clean cold start (or a
// clean partial load) with the right counter.
// ---------------------------------------------------------------------------

TEST_F(TableTest, MissingFileIsWholeFileFailure) {
  EXPECT_EQ(tuning::table_load(path_.c_str()), SHALOM_ERR_TABLE);
  EXPECT_EQ(tuning::table_size(), 0u);
  EXPECT_EQ(robustness_stats().table_load_failures, 1u);
}

TEST_F(TableTest, EmptyAndNullPathsFailCleanly) {
  EXPECT_EQ(tuning::table_load(""), SHALOM_ERR_TABLE);
  EXPECT_EQ(tuning::table_load(nullptr), SHALOM_ERR_TABLE);
  EXPECT_EQ(tuning::table_save(""), SHALOM_ERR_TABLE);
  EXPECT_EQ(tuning::table_save(nullptr), SHALOM_ERR_TABLE);
  EXPECT_EQ(tuning::table_stats().save_failures, 2u);
}

TEST_F(TableTest, ZeroLengthFileIsWholeFileFailure) {
  write_file(path_, {});
  EXPECT_EQ(tuning::table_load(path_.c_str()), SHALOM_ERR_TABLE);
  EXPECT_EQ(tuning::table_size(), 0u);
  EXPECT_EQ(robustness_stats().table_load_failures, 1u);
}

TEST_F(TableTest, TruncationAtEveryRecordBoundaryRejectsWholeFile) {
  const std::vector<unsigned char> full = save_table(4);
  std::uint64_t failures = 0;
  // Every header/record boundary, plus one byte short of each: a file
  // whose header promises 4 records must reject unless all 4 are there.
  std::vector<std::size_t> cuts = {0, kTableHeaderBytes - 1,
                                   kTableHeaderBytes};
  for (std::size_t i = 1; i <= 4; ++i) {
    cuts.push_back(kTableHeaderBytes + i * kTableRecordBytes - 1);
    if (i < 4) cuts.push_back(kTableHeaderBytes + i * kTableRecordBytes);
  }
  for (std::size_t cut : cuts) {
    ASSERT_LT(cut, full.size());
    write_file(path_, std::vector<unsigned char>(full.begin(),
                                                 full.begin() + cut));
    EXPECT_EQ(tuning::table_load(path_.c_str()), SHALOM_ERR_TABLE)
        << "cut at " << cut;
    EXPECT_EQ(tuning::table_size(), 0u) << "cut at " << cut;
    EXPECT_EQ(robustness_stats().table_load_failures, ++failures);
  }
  EXPECT_EQ(robustness_stats().table_records_rejected, 0u);
}

TEST_F(TableTest, TruncationAtRandomOffsetsNeverSeedsPartially) {
  const std::vector<unsigned char> full = save_table(4);
  SplitMix64 rng(0x7AB1E5EEDull);
  std::uint64_t failures = 0;
  for (int iter = 0; iter < 48; ++iter) {
    const std::size_t cut =
        static_cast<std::size_t>(rng.next_u64() % full.size());
    write_file(path_, std::vector<unsigned char>(full.begin(),
                                                 full.begin() + cut));
    EXPECT_EQ(tuning::table_load(path_.c_str()), SHALOM_ERR_TABLE)
        << "cut at " << cut;
    EXPECT_EQ(tuning::table_size(), 0u) << "cut at " << cut;
    EXPECT_EQ(robustness_stats().table_load_failures, ++failures);
  }
}

TEST_F(TableTest, SingleBitFlipCostsAtMostOneRecord) {
  const std::vector<unsigned char> full = save_table(4);
  std::uint64_t load_failures = 0;
  std::uint64_t rejected = 0;
  // One flipped bit per byte position covers every field of the header
  // and of each record; CRC-32 detects every single-bit error, so the
  // blast radius is exact: header flip = whole file, record flip = that
  // record only.
  for (std::size_t byte = 0; byte < full.size(); ++byte) {
    std::vector<unsigned char> mutated = full;
    mutated[byte] =
        static_cast<unsigned char>(mutated[byte] ^ (1u << (byte % 8)));
    write_file(path_, mutated);
    const shalom_status st = tuning::table_load(path_.c_str());
    if (byte < kTableHeaderBytes) {
      EXPECT_EQ(st, SHALOM_ERR_TABLE) << "header byte " << byte;
      EXPECT_EQ(tuning::table_size(), 0u);
      ++load_failures;
    } else {
      EXPECT_EQ(st, SHALOM_OK) << "record byte " << byte;
      EXPECT_EQ(tuning::table_size(), 3u) << "record byte " << byte;
      ++rejected;
    }
    EXPECT_EQ(robustness_stats().table_load_failures, load_failures);
    EXPECT_EQ(robustness_stats().table_records_rejected, rejected);
    tuning::table_clear();
  }
}

TEST_F(TableTest, VersionSkewRejectsWholeFileEvenWithValidCrc) {
  std::vector<unsigned char> bytes = save_table(2);
  put_u32_at(bytes, 8, kTableFormatVersion + 1);
  reseal_header(bytes);  // checksum is valid; the version itself rejects
  write_file(path_, bytes);
  EXPECT_EQ(tuning::table_load(path_.c_str()), SHALOM_ERR_TABLE);
  EXPECT_EQ(tuning::table_size(), 0u);
  EXPECT_EQ(robustness_stats().table_load_failures, 1u);
}

TEST_F(TableTest, FingerprintSkewRejectsWholeFile) {
  std::vector<unsigned char> bytes = save_table(2);
  bytes[16] = static_cast<unsigned char>(bytes[16] ^ 0xFFu);  // fingerprint
  reseal_header(bytes);
  write_file(path_, bytes);
  EXPECT_EQ(tuning::table_load(path_.c_str()), SHALOM_ERR_TABLE);
  EXPECT_EQ(tuning::table_size(), 0u);
  EXPECT_EQ(robustness_stats().table_load_failures, 1u);
}

TEST_F(TableTest, AbsurdRecordCountRejectsWholeFile) {
  std::vector<unsigned char> bytes = save_table(2);
  put_u32_at(bytes, 12, 1u << 20);  // far past the loader's ceiling
  reseal_header(bytes);
  write_file(path_, bytes);
  EXPECT_EQ(tuning::table_load(path_.c_str()), SHALOM_ERR_TABLE);
  EXPECT_EQ(tuning::table_size(), 0u);
}

TEST_F(TableTest, ChecksumValidButSemanticallyIllegalRecordIsSkipped) {
  std::vector<unsigned char> bytes = save_table(2);
  // Patch record 0's kc (bytes [32, 40) of the record) to 4x the kernel
  // contract bound and reseal its CRC: the checksum passes, the
  // kernel-contract validation must still reject it.
  const std::size_t base = kTableHeaderBytes;
  const std::uint64_t illegal_kc =
      static_cast<std::uint64_t>(contracts::kMaxKc) * 4;
  for (int i = 0; i < 8; ++i)
    bytes[base + 32 + static_cast<std::size_t>(i)] =
        static_cast<unsigned char>(illegal_kc >> (8 * i));
  reseal_record(bytes, 0);
  write_file(path_, bytes);
  EXPECT_EQ(tuning::table_load(path_.c_str()), SHALOM_OK);
  EXPECT_EQ(tuning::table_size(), 1u);  // the untouched record loaded
  EXPECT_EQ(robustness_stats().table_records_rejected, 1u);
  EXPECT_EQ(robustness_stats().table_load_failures, 0u);
}

// ---------------------------------------------------------------------------
// Atomic commit under injected I/O faults
// ---------------------------------------------------------------------------

TEST_F(TableTest, SaveFaultAtAnySiteLeavesPreviousTableByteIdentical) {
  if (!SHALOM_FAULT_INJECTION)
    GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
  const std::vector<unsigned char> previous = save_table(2);
  ASSERT_TRUE(tuning::table_record(make_record('s', 100, 100, 100)));

  const fault::Site sites[] = {fault::Site::kTableOpen,
                               fault::Site::kTableWrite,
                               fault::Site::kTableFsync,
                               fault::Site::kTableRename};
  std::uint64_t save_failures = tuning::table_stats().save_failures;
  for (const fault::Site site : sites) {
    fault::arm(site, fault::Mode::kOnce);
    EXPECT_EQ(tuning::table_save(path_.c_str()), SHALOM_ERR_TABLE)
        << fault::site_name(site);
    fault::disarm(site);
    EXPECT_EQ(read_file(path_), previous) << fault::site_name(site);
    EXPECT_FALSE(file_exists(path_ + ".tmp")) << fault::site_name(site);
    EXPECT_EQ(tuning::table_stats().save_failures, ++save_failures);
    // The surviving table is not just byte-identical but loadable.
    tuning::table_clear();
    EXPECT_EQ(tuning::table_load(path_.c_str()), SHALOM_OK);
    EXPECT_EQ(tuning::table_size(), 2u);
    ASSERT_TRUE(tuning::table_record(make_record('s', 100, 100, 100)));
  }

  // Disarmed, the pending third record commits.
  EXPECT_EQ(tuning::table_save(path_.c_str()), SHALOM_OK);
  tuning::table_clear();
  EXPECT_EQ(tuning::table_load(path_.c_str()), SHALOM_OK);
  EXPECT_EQ(tuning::table_size(), 3u);
}

TEST_F(TableTest, LoadFaultDegradesToColdStart) {
  if (!SHALOM_FAULT_INJECTION)
    GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
  save_table(2);
  std::uint64_t failures = 0;
  for (const fault::Site site :
       {fault::Site::kTableOpen, fault::Site::kTableRead}) {
    fault::arm(site, fault::Mode::kOnce);
    EXPECT_EQ(tuning::table_load(path_.c_str()), SHALOM_ERR_TABLE)
        << fault::site_name(site);
    fault::disarm(site);
    EXPECT_EQ(tuning::table_size(), 0u);
    EXPECT_EQ(robustness_stats().table_load_failures, ++failures);
  }
  // And with the sites quiet the same file loads fine: the failure was
  // the injection, not the table.
  EXPECT_EQ(tuning::table_load(path_.c_str()), SHALOM_OK);
  EXPECT_EQ(tuning::table_size(), 2u);
}

// ---------------------------------------------------------------------------
// C ABI mirrors
// ---------------------------------------------------------------------------

TEST_F(TableTest, CapiLoadSaveStatsMirrorCxx) {
  EXPECT_EQ(shalom_table_load(nullptr), SHALOM_ERR_NULL_POINTER);
  EXPECT_EQ(shalom_table_save(nullptr), SHALOM_ERR_NULL_POINTER);
  EXPECT_EQ(shalom_table_get_stats(nullptr), SHALOM_ERR_NULL_POINTER);
  EXPECT_EQ(shalom_table_load(path_.c_str()), SHALOM_ERR_TABLE);
  EXPECT_NE(std::string(shalom_last_error_message()), "");

  ASSERT_TRUE(tuning::table_record(make_record()));
  EXPECT_EQ(shalom_table_save(path_.c_str()), SHALOM_OK);

  shalom_table_stats c_stats;
  ASSERT_EQ(shalom_table_get_stats(&c_stats), SHALOM_OK);
  const tuning::TableStats cxx = tuning::table_stats();
  EXPECT_EQ(c_stats.records_loaded, cxx.records_loaded);
  EXPECT_EQ(c_stats.records_rejected, cxx.records_rejected);
  EXPECT_EQ(c_stats.load_failures, cxx.load_failures);
  EXPECT_EQ(c_stats.saves, cxx.saves);
  EXPECT_EQ(c_stats.save_failures, cxx.save_failures);
  EXPECT_EQ(c_stats.size, 1u);

  // The two failure counters also surface through the global C stats.
  shalom_stats g_stats;
  shalom_get_stats(&g_stats);
  EXPECT_EQ(g_stats.table_load_failures, cxx.load_failures);
  EXPECT_EQ(g_stats.table_records_rejected, cxx.records_rejected);
}

// ---------------------------------------------------------------------------
// Ambient chaos: with SHALOM_FAULT arming table.* sites (the tier-1
// persistence-chaos stage), every save either commits fully or leaves the
// last good table byte-identical, and every load either publishes validly
// or degrades cold. Invariants only - no deterministic counter expectations.
// ---------------------------------------------------------------------------

TEST(TableChaos, CommitsAreAllOrNothingUnderAmbientFaults) {
  tuning::table_clear();
  const std::string path = test_path("chaos");
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());

  std::vector<unsigned char> last_good;
  std::size_t last_good_records = 0;
  for (std::size_t i = 0; i < 24; ++i) {
    ASSERT_TRUE(tuning::table_record(
        make_record(i % 2 == 0 ? 's' : 'd', 8 + static_cast<index_t>(i),
                    8, 8)));
    const std::size_t registered = tuning::table_size();
    const shalom_status st = tuning::table_save(path.c_str());
    ASSERT_TRUE(st == SHALOM_OK || st == SHALOM_ERR_TABLE);
    if (st == SHALOM_OK) {
      last_good = read_file(path);
      last_good_records = registered;
      ASSERT_EQ(last_good.size(),
                kTableHeaderBytes + registered * kTableRecordBytes);
    } else if (!last_good.empty()) {
      // Failed commit: the previous table survives byte-identical.
      ASSERT_EQ(read_file(path), last_good) << "iteration " << i;
    } else {
      ASSERT_FALSE(file_exists(path)) << "iteration " << i;
    }

    tuning::table_clear();
    const shalom_status lst = tuning::table_load(path.c_str());
    ASSERT_TRUE(lst == SHALOM_OK || lst == SHALOM_ERR_TABLE);
    if (lst == SHALOM_OK) {
      ASSERT_EQ(tuning::table_size(), last_good_records);
    } else {
      ASSERT_EQ(tuning::table_size(), 0u);  // cold start, nothing partial
      // Re-register what the file holds so the next iteration's registry
      // matches the last good table plus its new record.
      if (!last_good.empty()) {
        fault::disarm_all();
        ASSERT_EQ(tuning::table_load(path.c_str()), SHALOM_OK);
      }
    }
  }
  fault::disarm_all();
  tuning::table_clear();
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

// ---------------------------------------------------------------------------
// Startup pre-seed env knob: registered by tests/CMakeLists.txt with
// SHALOM_TUNED_TABLE pointing at a missing file; run bare, it skips.
// ---------------------------------------------------------------------------

TEST(TableEnv, MissingPreseedFileDegradesColdly) {
  const char* path = std::getenv("SHALOM_TUNED_TABLE");
  if (path == nullptr)
    GTEST_SKIP() << "SHALOM_TUNED_TABLE not set (CMake wrapper only)";
  // The static-init load at process start already ran and failed; that
  // must have been counted and must not impair the library.
  EXPECT_GE(robustness_stats().table_load_failures, 1u);
  EXPECT_EQ(tuning::table_size(), 0u);
  testing::Problem<float> p({Trans::N, Trans::N}, 8, 8, 8);
  p.run_reference(1.0f, 0.0f);
  gemm(p.mode.a, p.mode.b, p.m, p.n, p.k, 1.0f, p.a.data(), p.a.ld(),
       p.b.data(), p.b.ld(), 0.0f, p.c.data(), p.c.ld());
  p.expect_matches("env preseed degradation");
}

}  // namespace
}  // namespace shalom
