#include "common/fault.h"

#include <cstdlib>
#include <cstring>

#include "common/error.h"

namespace shalom {

namespace {

// Robustness-stats counters: monotonic event tallies with no ordering
// relationship to the degraded work they count, so every operation is an
// explicit relaxed op (lock-free, hence outside the capability
// annotations of common/thread_annotations.h; shalom_lint enforces the
// explicit orders).
std::atomic<std::uint64_t> g_fallback_nopack{0};
std::atomic<std::uint64_t> g_threads_degraded{0};
std::atomic<std::uint64_t> g_kernels_quarantined{0};
std::atomic<std::uint64_t> g_selfchecks_run{0};
std::atomic<std::uint64_t> g_numeric_anomalies{0};
std::atomic<std::uint64_t> g_kernels_trapped{0};
std::atomic<std::uint64_t> g_watchdog_trips{0};
std::atomic<std::uint64_t> g_arena_corruptions{0};
std::atomic<std::uint64_t> g_stream_queue_peak{0};
std::atomic<std::uint64_t> g_requests_shed{0};
std::atomic<std::uint64_t> g_requests_expired{0};
std::atomic<std::uint64_t> g_requests_cancelled{0};
std::atomic<std::uint64_t> g_submit_retries{0};
std::atomic<std::uint64_t> g_breaker_trips{0};
std::atomic<std::uint64_t> g_table_records_rejected{0};
std::atomic<std::uint64_t> g_table_load_failures{0};
std::atomic<std::uint64_t> g_recoveries{0};
std::atomic<std::uint64_t> g_probation_probes{0};
std::atomic<std::uint64_t> g_probation_failures{0};
std::atomic<std::uint64_t> g_breaker_half_opens{0};
// Reset offset for the injected counters: the per-site counters are
// monotonic (tests rely on fault::injected), so reset only rebases the
// aggregate view.
std::atomic<std::uint64_t> g_injected_rebase{0};

std::uint64_t injected_sum() noexcept {
  std::uint64_t total = 0;
  for (int s = 0; s < fault::kSiteCount; ++s)
    total +=
        fault::detail::g_sites[s].injected.load(std::memory_order_relaxed);
  return total;
}

}  // namespace

RobustnessStats robustness_stats() noexcept {
  RobustnessStats s;
  s.fallback_nopack = g_fallback_nopack.load(std::memory_order_relaxed);
  s.threads_degraded = g_threads_degraded.load(std::memory_order_relaxed);
  s.kernels_quarantined =
      g_kernels_quarantined.load(std::memory_order_relaxed);
  s.selfchecks_run = g_selfchecks_run.load(std::memory_order_relaxed);
  s.numeric_anomalies = g_numeric_anomalies.load(std::memory_order_relaxed);
  s.kernels_trapped = g_kernels_trapped.load(std::memory_order_relaxed);
  s.watchdog_trips = g_watchdog_trips.load(std::memory_order_relaxed);
  s.arena_corruptions = g_arena_corruptions.load(std::memory_order_relaxed);
  s.stream_queue_peak = g_stream_queue_peak.load(std::memory_order_relaxed);
  s.requests_shed = g_requests_shed.load(std::memory_order_relaxed);
  s.requests_expired = g_requests_expired.load(std::memory_order_relaxed);
  s.requests_cancelled =
      g_requests_cancelled.load(std::memory_order_relaxed);
  s.submit_retries = g_submit_retries.load(std::memory_order_relaxed);
  s.breaker_trips = g_breaker_trips.load(std::memory_order_relaxed);
  s.table_records_rejected =
      g_table_records_rejected.load(std::memory_order_relaxed);
  s.table_load_failures =
      g_table_load_failures.load(std::memory_order_relaxed);
  s.recoveries = g_recoveries.load(std::memory_order_relaxed);
  s.probation_probes = g_probation_probes.load(std::memory_order_relaxed);
  s.probation_failures =
      g_probation_failures.load(std::memory_order_relaxed);
  s.breaker_half_opens =
      g_breaker_half_opens.load(std::memory_order_relaxed);
  const std::uint64_t rebase =
      g_injected_rebase.load(std::memory_order_relaxed);
  const std::uint64_t total = injected_sum();
  s.faults_injected = total >= rebase ? total - rebase : 0;
  return s;
}

void robustness_stats_reset() noexcept {
  g_fallback_nopack.store(0, std::memory_order_relaxed);
  g_threads_degraded.store(0, std::memory_order_relaxed);
  g_kernels_quarantined.store(0, std::memory_order_relaxed);
  g_selfchecks_run.store(0, std::memory_order_relaxed);
  g_numeric_anomalies.store(0, std::memory_order_relaxed);
  g_kernels_trapped.store(0, std::memory_order_relaxed);
  g_watchdog_trips.store(0, std::memory_order_relaxed);
  g_arena_corruptions.store(0, std::memory_order_relaxed);
  g_stream_queue_peak.store(0, std::memory_order_relaxed);
  g_requests_shed.store(0, std::memory_order_relaxed);
  g_requests_expired.store(0, std::memory_order_relaxed);
  g_requests_cancelled.store(0, std::memory_order_relaxed);
  g_submit_retries.store(0, std::memory_order_relaxed);
  g_breaker_trips.store(0, std::memory_order_relaxed);
  g_table_records_rejected.store(0, std::memory_order_relaxed);
  g_table_load_failures.store(0, std::memory_order_relaxed);
  g_recoveries.store(0, std::memory_order_relaxed);
  g_probation_probes.store(0, std::memory_order_relaxed);
  g_probation_failures.store(0, std::memory_order_relaxed);
  g_breaker_half_opens.store(0, std::memory_order_relaxed);
  g_injected_rebase.store(injected_sum(), std::memory_order_relaxed);
}

namespace telemetry {
void note_fallback_nopack() noexcept {
  g_fallback_nopack.fetch_add(1, std::memory_order_relaxed);
}
void note_threads_degraded() noexcept {
  g_threads_degraded.fetch_add(1, std::memory_order_relaxed);
}
void note_kernel_quarantined() noexcept {
  g_kernels_quarantined.fetch_add(1, std::memory_order_relaxed);
}
void note_selfcheck_run() noexcept {
  g_selfchecks_run.fetch_add(1, std::memory_order_relaxed);
}
void note_numeric_anomaly() noexcept {
  g_numeric_anomalies.fetch_add(1, std::memory_order_relaxed);
}
void note_kernel_trapped() noexcept {
  g_kernels_trapped.fetch_add(1, std::memory_order_relaxed);
}
void note_watchdog_trip() noexcept {
  g_watchdog_trips.fetch_add(1, std::memory_order_relaxed);
}
void note_arena_corruption() noexcept {
  g_arena_corruptions.fetch_add(1, std::memory_order_relaxed);
}
void note_queue_depth(std::uint64_t depth) noexcept {
  std::uint64_t peak = g_stream_queue_peak.load(std::memory_order_relaxed);
  while (depth > peak &&
         !g_stream_queue_peak.compare_exchange_weak(
             peak, depth, std::memory_order_relaxed,
             std::memory_order_relaxed)) {
  }
}
void note_request_shed() noexcept {
  g_requests_shed.fetch_add(1, std::memory_order_relaxed);
}
void note_request_expired() noexcept {
  g_requests_expired.fetch_add(1, std::memory_order_relaxed);
}
void note_request_cancelled() noexcept {
  g_requests_cancelled.fetch_add(1, std::memory_order_relaxed);
}
void note_submit_retry() noexcept {
  g_submit_retries.fetch_add(1, std::memory_order_relaxed);
}
void note_breaker_trip() noexcept {
  g_breaker_trips.fetch_add(1, std::memory_order_relaxed);
}
void note_table_record_rejected() noexcept {
  g_table_records_rejected.fetch_add(1, std::memory_order_relaxed);
}
void note_table_load_failure() noexcept {
  g_table_load_failures.fetch_add(1, std::memory_order_relaxed);
}
void note_recovery() noexcept {
  g_recoveries.fetch_add(1, std::memory_order_relaxed);
}
void note_probation_probe() noexcept {
  g_probation_probes.fetch_add(1, std::memory_order_relaxed);
}
void note_probation_failure() noexcept {
  g_probation_failures.fetch_add(1, std::memory_order_relaxed);
}
void note_breaker_half_open() noexcept {
  g_breaker_half_opens.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace telemetry

namespace fault {

namespace detail {

SiteState g_sites[kSiteCount];

bool should_fail_slow(SiteState& st) noexcept {
  const Mode mode =
      static_cast<Mode>(st.armed.load(std::memory_order_relaxed));
  const std::uint64_t n = st.param.load(std::memory_order_relaxed);
  const std::uint64_t call =
      st.calls.fetch_add(1, std::memory_order_relaxed) + 1;

  bool fail = false;
  switch (mode) {
    case Mode::kDisarmed:
      break;  // raced with disarm(): treat as success
    case Mode::kOnce: {
      // The first checker to claim the trigger wins; the CAS doubles as
      // the self-disarm, so concurrent checkers see exactly one failure.
      std::uint32_t expected = static_cast<std::uint32_t>(Mode::kOnce);
      fail = st.armed.compare_exchange_strong(expected, 0,
                                              std::memory_order_relaxed);
      break;
    }
    case Mode::kEveryN:
      fail = n > 0 && call % n == 0;
      break;
    case Mode::kFailAfter:
      fail = call > n;
      break;
  }
  if (fail) st.injected.fetch_add(1, std::memory_order_relaxed);
  return fail;
}

}  // namespace detail

const char* site_name(Site site) noexcept {
  switch (site) {
    case Site::kAllocPackArena:
      return "alloc.pack_arena";
    case Site::kThreadpoolSpawn:
      return "threadpool.spawn";
    case Site::kSelfcheckProbe:
      return "selfcheck.probe";
    case Site::kGuardTrap:
      return "guard.trap";
    case Site::kThreadpoolHeartbeat:
      return "threadpool.heartbeat";
    case Site::kGuardCanary:
      return "guard.canary";
    case Site::kSubmitQueue:
      return "submit.queue";
    case Site::kEngineDeadline:
      return "engine.deadline";
    case Site::kEngineShed:
      return "engine.shed";
    case Site::kTableOpen:
      return "table.open";
    case Site::kTableRead:
      return "table.read";
    case Site::kTableWrite:
      return "table.write";
    case Site::kTableRename:
      return "table.rename";
    case Site::kTableFsync:
      return "table.fsync";
    case Site::kHealthProbe:
      return "health.probe";
    case Site::kHealthRespawn:
      return "health.respawn";
  }
  return "unknown";
}

void arm(Site site, Mode mode, std::uint64_t n) noexcept {
  detail::SiteState& st = detail::g_sites[static_cast<int>(site)];
  st.armed.store(0, std::memory_order_relaxed);  // quiesce checkers
  st.param.store(n, std::memory_order_relaxed);
  st.calls.store(0, std::memory_order_relaxed);
  st.armed.store(static_cast<std::uint32_t>(mode),
                 std::memory_order_relaxed);
}

void disarm(Site site) noexcept {
  detail::g_sites[static_cast<int>(site)].armed.store(
      0, std::memory_order_relaxed);
}

void disarm_all() noexcept {
  for (int s = 0; s < kSiteCount; ++s)
    detail::g_sites[s].armed.store(0, std::memory_order_relaxed);
}

bool armed(Site site) noexcept {
  return detail::g_sites[static_cast<int>(site)].armed.load(
             std::memory_order_relaxed) != 0;
}

std::uint64_t injected(Site site) noexcept {
  return detail::g_sites[static_cast<int>(site)].injected.load(
      std::memory_order_relaxed);
}

namespace {

bool parse_site(const char* name, std::size_t len, Site& out) noexcept {
  for (int s = 0; s < kSiteCount; ++s) {
    const Site site = static_cast<Site>(s);
    const char* sn = site_name(site);
    if (std::strlen(sn) == len && std::strncmp(sn, name, len) == 0) {
      out = site;
      return true;
    }
  }
  return false;
}

/// Parses "<digits>" into n; rejects empty / non-digit / overflowing.
bool parse_u64(const char* s, std::size_t len, std::uint64_t& out) noexcept {
  if (len == 0 || len > 19) return false;
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < len; ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(s[i] - '0');
  }
  out = v;
  return true;
}

bool arm_one_entry(const char* entry, std::size_t len) noexcept {
  const char* colon =
      static_cast<const char*>(std::memchr(entry, ':', len));
  if (colon == nullptr) return false;
  Site site;
  if (!parse_site(entry, static_cast<std::size_t>(colon - entry), site))
    return false;
  const char* spec = colon + 1;
  const std::size_t spec_len =
      len - static_cast<std::size_t>(colon - entry) - 1;

  constexpr const char kOnce[] = "once";
  constexpr const char kEvery[] = "every-";
  constexpr const char kFailAfter[] = "fail-after-";
  std::uint64_t n = 0;
  if (spec_len == sizeof(kOnce) - 1 &&
      std::strncmp(spec, kOnce, spec_len) == 0) {
    arm(site, Mode::kOnce);
    return true;
  }
  if (spec_len > sizeof(kEvery) - 1 &&
      std::strncmp(spec, kEvery, sizeof(kEvery) - 1) == 0 &&
      parse_u64(spec + sizeof(kEvery) - 1, spec_len - (sizeof(kEvery) - 1),
                n) &&
      n > 0) {
    arm(site, Mode::kEveryN, n);
    return true;
  }
  if (spec_len > sizeof(kFailAfter) - 1 &&
      std::strncmp(spec, kFailAfter, sizeof(kFailAfter) - 1) == 0 &&
      parse_u64(spec + sizeof(kFailAfter) - 1,
                spec_len - (sizeof(kFailAfter) - 1), n)) {
    arm(site, Mode::kFailAfter, n);
    return true;
  }
  return false;
}

/// Reads SHALOM_FAULT once at static-init time, before any library entry
/// point can reach a fault site.
struct EnvInit {
  EnvInit() noexcept {
    if (const char* env = shalom::env::raw("SHALOM_FAULT")) {
      if (!arm_from_spec(env))
        shalom::env::warn_malformed(
            "SHALOM_FAULT", env,
            "<site>:once|every-<N>|fail-after-<N>[,<entry>...]");
    }
  }
} g_env_init;

}  // namespace

bool arm_from_spec(const char* spec) noexcept {
  if (spec == nullptr) return false;
  bool all_ok = true;
  const char* p = spec;
  while (*p != '\0') {
    const char* sep = std::strchr(p, ',');
    const std::size_t len =
        sep != nullptr ? static_cast<std::size_t>(sep - p) : std::strlen(p);
    if (len == 0 || !arm_one_entry(p, len)) all_ok = false;
    p += len;
    if (*p == ',') ++p;
  }
  return all_ok;
}

}  // namespace fault
}  // namespace shalom
