#include "tuning/table.h"

#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "arch/machine.h"
#include "common/fault.h"
#include "common/health.h"
#include "common/thread_annotations.h"
#include "core/kernel_contracts.h"
#include "core/plan.h"

namespace shalom::tuning {

namespace {

// -------------------------------------------------------------------------
// On-disk format (all integers little-endian, fixed width).
//
// Header, kTableHeaderBytes = 36:
//   [ 0,  8)  magic "SHALOMTB"
//   [ 8, 12)  format version (kTableFormatVersion)
//   [12, 16)  record count
//   [16, 24)  machine fingerprint (arch::fingerprint of the writing host)
//   [24, 32)  reserved, zero
//   [32, 36)  CRC-32 of bytes [0, 32)
//
// Record, kTableRecordBytes = 64:
//   [ 0]      dtype 's'|'d'      [ 1] trans_a 0|1    [ 2] trans_b 0|1
//   [ 3]      pad, zero          [ 4,  8) threads
//   [ 8, 32)  m, n, k            [32, 56) kc, mc, nc
//   [56, 60)  reserved, zero     [60, 64) CRC-32 of bytes [0, 60)
// -------------------------------------------------------------------------

constexpr char kMagic[8] = {'S', 'H', 'A', 'L', 'O', 'M', 'T', 'B'};

/// Record-count ceiling the loader accepts: bounds the load-time
/// allocation even when a (checksum-valid) header asks for more.
constexpr std::uint32_t kMaxRecords = 1u << 16;

/// Validation bounds: dimensions/blockings a small-matrix library could
/// plausibly tune, far below anything that could overflow size math.
constexpr index_t kMaxDim = index_t{1} << 30;
constexpr int kMaxThreads = 4096;

void put_u32(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

void put_u64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

std::uint32_t crc32(const unsigned char* data, std::size_t len) noexcept {
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

// -------------------------------------------------------------------------
// Checked I/O funnel. Every raw fread/fwrite/fsync/fclose/rename the
// table subsystem performs goes through exactly one of these helpers
// (the unchecked-io lint rule keeps it that way), each of which both
// checks the libc result and hosts the corresponding fault site, so any
// single I/O failure is deterministically injectable.
// -------------------------------------------------------------------------

bool checked_read(std::FILE* f, void* buf, std::size_t n) noexcept {
  if (SHALOM_FAULT_POINT(fault::Site::kTableRead)) return false;
  return std::fread(buf, 1, n, f) == n;
}

bool checked_write(std::FILE* f, const void* buf, std::size_t n) noexcept {
  if (SHALOM_FAULT_POINT(fault::Site::kTableWrite)) return false;
  return std::fwrite(buf, 1, n, f) == n;
}

/// Flush + fsync: a table that might not be durable is never renamed in.
bool checked_fsync(std::FILE* f) noexcept {
  if (SHALOM_FAULT_POINT(fault::Site::kTableFsync)) return false;
  if (std::fflush(f) != 0) return false;
  return ::fsync(fileno(f)) == 0;
}

bool checked_close(std::FILE* f) noexcept {
  return std::fclose(f) == 0;
}

bool checked_rename(const char* from, const char* to) noexcept {
  if (SHALOM_FAULT_POINT(fault::Site::kTableRename)) return false;
  return std::rename(from, to) == 0;
}

std::FILE* checked_open(const char* path, const char* mode) noexcept {
  if (SHALOM_FAULT_POINT(fault::Site::kTableOpen)) return nullptr;
  return std::fopen(path, mode);
}

// -------------------------------------------------------------------------
// In-memory registry: the records a save persists. Ordered map so every
// save of the same contents is byte-identical (the atomic-commit tests
// compare files byte for byte).
// -------------------------------------------------------------------------

using RecordKey = std::tuple<char, bool, bool, int, index_t, index_t, index_t>;

RecordKey key_of(const TunedRecord& r) {
  return {r.dtype, r.trans_a, r.trans_b, r.threads, r.m, r.n, r.k};
}

struct Registry {
  mutable Mutex mu;
  std::map<RecordKey, TunedRecord> records SHALOM_GUARDED_BY(mu);
};

Registry& registry() {
  static Registry r;
  return r;
}

// Table-local counters (the rejected/failure pair lives in common/fault
// so it also surfaces through robustness_stats); explicit relaxed orders
// per the atomic-memory-order lint rule.
std::atomic<std::uint64_t> g_records_loaded{0};
std::atomic<std::uint64_t> g_saves{0};
std::atomic<std::uint64_t> g_save_failures{0};

void note_save_failure() noexcept {
  g_save_failures.fetch_add(1, std::memory_order_relaxed);
  telemetry::note(Counter::kTableLoadFailures);
  health::report_degraded(health::Component::kTunedTable,
                          health::Cause::kOverload);
}

/// IO/authentication load failure: counts it AND marks the tuned-table
/// component degraded in the health registry (common/health.h). The next
/// successful load or save reports the component recovered - the table's
/// recovery is purely passive. Caller-argument failures (null path) only
/// count; they say nothing about the store itself.
void note_load_failure() noexcept {
  telemetry::note(Counter::kTableLoadFailures);
  health::report_degraded(health::Component::kTunedTable,
                          health::Cause::kOverload);
}

void encode(const TunedRecord& r, unsigned char* buf) {
  std::memset(buf, 0, kTableRecordBytes);
  buf[0] = static_cast<unsigned char>(r.dtype);
  buf[1] = r.trans_a ? 1 : 0;
  buf[2] = r.trans_b ? 1 : 0;
  put_u32(buf + 4, static_cast<std::uint32_t>(r.threads));
  put_u64(buf + 8, static_cast<std::uint64_t>(r.m));
  put_u64(buf + 16, static_cast<std::uint64_t>(r.n));
  put_u64(buf + 24, static_cast<std::uint64_t>(r.k));
  put_u64(buf + 32, static_cast<std::uint64_t>(r.kc));
  put_u64(buf + 40, static_cast<std::uint64_t>(r.mc));
  put_u64(buf + 48, static_cast<std::uint64_t>(r.nc));
  put_u32(buf + 60, crc32(buf, 60));
}

TunedRecord decode(const unsigned char* buf) {
  TunedRecord r;
  r.dtype = static_cast<char>(buf[0]);
  r.trans_a = buf[1] != 0;
  r.trans_b = buf[2] != 0;
  r.threads = static_cast<int>(get_u32(buf + 4));
  r.m = static_cast<index_t>(get_u64(buf + 8));
  r.n = static_cast<index_t>(get_u64(buf + 16));
  r.k = static_cast<index_t>(get_u64(buf + 24));
  r.kc = static_cast<index_t>(get_u64(buf + 32));
  r.mc = static_cast<index_t>(get_u64(buf + 40));
  r.nc = static_cast<index_t>(get_u64(buf + 48));
  return r;
}

/// Plans one validated record with its blocking once before it may be
/// published. Plan construction may still throw (allocation pressure, a
/// contract the planner enforces beyond table_validate); any failure
/// rejects just this record.
template <typename T>
bool plannable(const TunedRecord& rec) noexcept {
  try {
    const Mode mode{rec.trans_a ? Trans::T : Trans::N,
                    rec.trans_b ? Trans::T : Trans::N};
    Config cfg;
    cfg.threads = rec.threads;
    cfg.kc_override = rec.kc;
    cfg.mc_override = rec.mc;
    cfg.nc_override = rec.nc;
    (void)plan_create<T>(mode, rec.m, rec.n, rec.k, cfg);
    return true;
  } catch (...) {
    return false;
  }
}

void register_unchecked(const TunedRecord& rec) {
  Registry& reg = registry();
  MutexLock lock(reg.mu);
  reg.records[key_of(rec)] = rec;
}

}  // namespace

bool table_validate(const TunedRecord& rec) noexcept {
  if (rec.dtype != 's' && rec.dtype != 'd') return false;
  if (rec.threads < 1 || rec.threads > kMaxThreads) return false;
  if (rec.m < 1 || rec.m > kMaxDim) return false;
  if (rec.n < 1 || rec.n > kMaxDim) return false;
  if (rec.k < 1 || rec.k > kMaxDim) return false;
  // The kc clamp is the same bound the tuner itself searches under
  // (contracts::kMaxKc): a persisted blocking outside it could only have
  // come from corruption or a foreign build.
  if (rec.kc < 1 || rec.kc > contracts::kMaxKc) return false;
  if (rec.mc < 1 || rec.mc > kMaxDim) return false;
  if (rec.nc < 1 || rec.nc > kMaxDim) return false;
  return true;
}

bool table_record(const TunedRecord& rec) noexcept {
  if (!table_validate(rec)) {
    telemetry::note(Counter::kTableRecordsRejected);
    return false;
  }
  try {
    register_unchecked(rec);
    return true;
  } catch (...) {
    telemetry::note(Counter::kTableRecordsRejected);
    return false;
  }
}

std::size_t table_size() noexcept {
  try {
    Registry& reg = registry();
    MutexLock lock(reg.mu);
    return reg.records.size();
  } catch (...) {
    return 0;
  }
}

void table_clear() noexcept {
  try {
    {
      Registry& reg = registry();
      MutexLock lock(reg.mu);
      reg.records.clear();
    }
    reset_tuned();
  } catch (...) {
  }
}

TableStats table_stats() noexcept {
  TableStats s;
  s.records_loaded = g_records_loaded.load(std::memory_order_relaxed);
  const RobustnessStats r = robustness_stats();
  s.records_rejected = r.table_records_rejected;
  s.load_failures = r.table_load_failures;
  s.saves = g_saves.load(std::memory_order_relaxed);
  s.save_failures = g_save_failures.load(std::memory_order_relaxed);
  s.size = table_size();
  return s;
}

shalom_status table_load(const char* path) noexcept {
  try {
    if (path == nullptr || *path == '\0') {
      telemetry::note(Counter::kTableLoadFailures);
      return SHALOM_ERR_TABLE;
    }
    std::FILE* f = checked_open(path, "rb");
    if (f == nullptr) {
      note_load_failure();
      return SHALOM_ERR_TABLE;
    }

    // Phase 1: read and authenticate the whole file. Nothing is published
    // until the header (magic, version, fingerprint, CRC) checks out and
    // every declared record was physically present - a truncated file
    // rejects as a whole, so a partial load can never masquerade as a
    // complete one.
    unsigned char hdr[kTableHeaderBytes];
    bool ok = checked_read(f, hdr, sizeof hdr);
    std::uint32_t count = 0;
    if (ok) {
      count = get_u32(hdr + 12);
      ok = std::memcmp(hdr, kMagic, sizeof kMagic) == 0 &&
           get_u32(hdr + 8) == kTableFormatVersion &&
           get_u32(hdr + 32) == crc32(hdr, 32) && count <= kMaxRecords &&
           get_u64(hdr + 16) == arch::fingerprint(arch::host_machine());
    }
    std::vector<std::array<unsigned char, kTableRecordBytes>> raw;
    if (ok) {
      raw.resize(count);
      for (std::uint32_t i = 0; ok && i < count; ++i)
        ok = checked_read(f, raw[i].data(), kTableRecordBytes);
    }
    if (!checked_close(f)) {
      // Read-side close failure loses nothing; the load verdict stands.
    }
    if (!ok) {
      note_load_failure();
      return SHALOM_ERR_TABLE;
    }

    // Phase 2: per-record checksum + semantic validation + a trial plan.
    // Rejection is per record: one flipped bit costs exactly that record,
    // never the rest of the table.
    std::vector<TunedRecord> valid;
    valid.reserve(raw.size());
    for (const auto& buf : raw) {
      if (get_u32(buf.data() + 60) != crc32(buf.data(), 60)) {
        telemetry::note(Counter::kTableRecordsRejected);
        continue;
      }
      const TunedRecord rec = decode(buf.data());
      if (!table_validate(rec)) {
        telemetry::note(Counter::kTableRecordsRejected);
        continue;
      }
      const bool ok =
          rec.dtype == 's' ? plannable<float>(rec) : plannable<double>(rec);
      if (!ok) {
        telemetry::note(Counter::kTableRecordsRejected);
        continue;
      }
      register_unchecked(rec);
      valid.push_back(rec);
    }
    if (!valid.empty()) publish_tuned(valid);
    g_records_loaded.fetch_add(valid.size(), std::memory_order_relaxed);
    health::report_recovered(health::Component::kTunedTable);
    return SHALOM_OK;
  } catch (...) {
    note_load_failure();
    return SHALOM_ERR_TABLE;
  }
}

shalom_status table_save(const char* path) noexcept {
  try {
    if (path == nullptr || *path == '\0') {
      note_save_failure();
      return SHALOM_ERR_TABLE;
    }
    // Snapshot under the lock, serialize outside it. std::map order makes
    // equal contents produce byte-identical files.
    std::vector<TunedRecord> recs;
    {
      Registry& reg = registry();
      MutexLock lock(reg.mu);
      recs.reserve(reg.records.size());
      for (const auto& [key, rec] : reg.records) {
        (void)key;
        if (recs.size() >= kMaxRecords) break;
        recs.push_back(rec);
      }
    }

    const std::string tmp = std::string(path) + ".tmp";
    std::FILE* f = checked_open(tmp.c_str(), "wb");
    if (f == nullptr) {
      note_save_failure();
      return SHALOM_ERR_TABLE;
    }

    unsigned char hdr[kTableHeaderBytes];
    std::memset(hdr, 0, sizeof hdr);
    std::memcpy(hdr, kMagic, sizeof kMagic);
    put_u32(hdr + 8, kTableFormatVersion);
    put_u32(hdr + 12, static_cast<std::uint32_t>(recs.size()));
    put_u64(hdr + 16, arch::fingerprint(arch::host_machine()));
    put_u32(hdr + 32, crc32(hdr, 32));

    bool ok = checked_write(f, hdr, sizeof hdr);
    unsigned char buf[kTableRecordBytes];
    for (std::size_t i = 0; ok && i < recs.size(); ++i) {
      encode(recs[i], buf);
      ok = checked_write(f, buf, sizeof buf);
    }
    // Durability barrier BEFORE the commit rename: the temp file must be
    // on stable storage before it can replace the previous table, and the
    // close must succeed (it may flush buffered bytes) for the same
    // reason. Only then does the rename atomically publish the new table;
    // any earlier failure discards the temp file and the previous table
    // stays byte-identical.
    ok = ok && checked_fsync(f);
    const bool closed = checked_close(f);
    ok = ok && closed;
    ok = ok && checked_rename(tmp.c_str(), path);
    if (!ok) {
      if (std::remove(tmp.c_str()) != 0) {
        // Temp file may never have been created (open-side fault).
      }
      note_save_failure();
      return SHALOM_ERR_TABLE;
    }
    g_saves.fetch_add(1, std::memory_order_relaxed);
    health::report_recovered(health::Component::kTunedTable);
    return SHALOM_OK;
  } catch (...) {
    note_save_failure();
    return SHALOM_ERR_TABLE;
  }
}

namespace {

/// Startup pre-seed: SHALOM_TUNED_TABLE names a table to load before any
/// library entry point runs (static-init time, same discipline as the
/// SHALOM_FAULT EnvInit). Every failure path inside table_load degrades
/// to a cold start, so a bad value can never prevent startup.
struct TableEnvInit {
  TableEnvInit() noexcept {
    if (const char* path = shalom::env::raw("SHALOM_TUNED_TABLE")) {
      if (*path != '\0') {
        if (table_load(path) != SHALOM_OK) {
          shalom::env::warn_malformed(
              "SHALOM_TUNED_TABLE", path,
              "a readable tuned-table file written by this library on "
              "this machine (continuing with a cold start)");
        }
      }
    }
  }
} g_table_env_init;

}  // namespace

}  // namespace shalom::tuning
