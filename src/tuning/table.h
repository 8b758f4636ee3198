// Persistent tuned-table store: crash-safe warm restart for the
// auto-tuner (ROADMAP "IAAT" item; the persistent-table half of
// input-aware adaptive tuning).
//
// A production restart starts cold: every tuned blocking the auto-tuner
// found is lost with the process. This module persists tuned blockings
// to a small versioned binary file and publishes them at startup as
// blocking overrides that plan_create reads (core/plan.h publish_tuned),
// so the first request after a restart already runs the tuned blocking.
//
// The store is held to the same robustness bar as the rest of the stack:
//
//   * Versioned format with a machine fingerprint (arch::fingerprint):
//     a table written by a different library version or on a machine with
//     different model-relevant hardware is rejected as a whole.
//   * CRC-checksummed header and per-record checksums: a truncated or
//     bit-flipped file can never seed garbage - corrupt records are
//     skipped (table_records_rejected), corrupt headers reject the file
//     (table_load_failures), and either way the process degrades to a
//     correct cold start. No failure path throws past the API.
//   * Every record is re-validated against the kernel contracts
//     (core/kernel_contracts.h bounds, the kc clamp) and planned once
//     before it is published: even a record with a valid checksum cannot
//     install a blocking the kernels can't legally run.
//   * Atomic commit on save: write <path>.tmp, fsync, rename. A crash or
//     injected I/O fault (`table.open/read/write/rename/fsync` sites in
//     common/fault.h) at any point leaves the previous table
//     byte-identical and loadable.
//
// Loading happens explicitly (table_load / the shalom_table_load C entry
// point) or automatically at startup when SHALOM_TUNED_TABLE names a
// file (active in binaries that link this translation unit).

#pragma once

#include <cstdint>

#include "common/error.h"
#include "core/plan.h"

namespace shalom::tuning {

/// One persisted tuned blocking: the shape key (dtype, transposes, dims,
/// thread count) plus the blocking the tuner chose for it.
using TunedRecord = TunedBlocking;

/// Cumulative counters for the table subsystem, process-wide. The two
/// failure counters mirror robustness_stats().table_records_rejected /
/// .table_load_failures (same underlying counters).
struct TableStats {
  std::uint64_t records_loaded = 0;    ///< records validated and published
  std::uint64_t records_rejected = 0;  ///< records skipped by validation
  std::uint64_t load_failures = 0;     ///< whole-file load/save failures
  std::uint64_t saves = 0;             ///< atomic commits completed
  std::uint64_t save_failures = 0;     ///< saves aborted (prev table kept)
  std::uint64_t size = 0;              ///< records currently registered
};

/// Semantic validation: true when `rec` describes a blocking the kernels
/// can legally run (dtype/trans flags well-formed, dims and threads in
/// range, 1 <= kc <= contracts::kMaxKc, mc/nc >= 1). The same oracle the
/// loader applies before any record may be published.
bool table_validate(const TunedRecord& rec) noexcept;

/// Registers (or replaces) one tuned blocking in the in-memory table so
/// a later table_save persists it. Returns false (and counts the record
/// as rejected) when validation fails; nothing is registered.
bool table_record(const TunedRecord& rec) noexcept;

/// Number of records currently registered.
std::size_t table_size() noexcept;

/// Drops every registered record and the published overrides (the
/// on-disk table is untouched).
void table_clear() noexcept;

TableStats table_stats() noexcept;

/// Loads `path`, validates header and records, registers the valid
/// records and publishes them as blocking overrides (publish_tuned: a
/// plain-config call of a record's exact shape plans with its blocking).
/// Invalid records are skipped with telemetry; a missing,
/// truncated, corrupt, or version/fingerprint-skewed file fails as a
/// whole with SHALOM_ERR_TABLE and the process continues cold. Never
/// throws.
shalom_status table_load(const char* path) noexcept;

/// Atomically persists the registered records to `path`: writes
/// <path>.tmp, fsyncs, then renames over `path`. On any failure
/// (including armed table.* fault sites) the temp file is discarded and
/// a previous table at `path` is left byte-identical. Never throws.
shalom_status table_save(const char* path) noexcept;

/// On-disk format constants, exposed for the corruption tests: byte
/// sizes of the fixed-width header and record, and the format version
/// the loader accepts.
inline constexpr std::size_t kTableHeaderBytes = 36;
inline constexpr std::size_t kTableRecordBytes = 64;
inline constexpr std::uint32_t kTableFormatVersion = 1;

}  // namespace shalom::tuning
