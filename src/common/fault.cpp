#include "common/fault.h"

#include <cstdlib>
#include <cstring>

#include "common/error.h"

namespace shalom {

namespace {

// Robustness-stats counters, one slot per SHALOM_ROBUSTNESS_COUNTERS row:
// monotonic event tallies with no ordering relationship to the degraded
// work they count, so every operation is an explicit relaxed op
// (lock-free, hence outside the capability annotations of
// common/thread_annotations.h; shalom_lint enforces the explicit orders).
// Only kCount and kPeak slots are ever written.
std::atomic<std::uint64_t> g_counters[kCounterCount];
// Reset offset for the injected counters: the per-site counters are
// monotonic (tests rely on fault::injected), so reset only rebases the
// aggregate view.
std::atomic<std::uint64_t> g_injected_rebase{0};

struct CounterRow {
  std::uint64_t RobustnessStats::*field;
  CounterKind kind;
};
constexpr CounterRow kCounterRows[] = {
#define SHALOM_COUNTER_ROW(id, field, kind) \
  {&RobustnessStats::field, CounterKind::kind},
    SHALOM_ROBUSTNESS_COUNTERS(SHALOM_COUNTER_ROW)
#undef SHALOM_COUNTER_ROW
};

std::atomic<std::uint64_t>& slot(Counter c) noexcept {
  return g_counters[static_cast<int>(c)];
}

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
  for (int i = 0; i < kCounterCount; ++i) {
    std::uint64_t& out = s.*kCounterRows[i].field;
    switch (kCounterRows[i].kind) {
      case CounterKind::kCount:
      case CounterKind::kPeak:
        out = g_counters[i].load(std::memory_order_relaxed);
        break;
      case CounterKind::kDerived: {  // faults_injected, the only one
        const std::uint64_t rebase =
            g_injected_rebase.load(std::memory_order_relaxed);
        const std::uint64_t total = injected_sum();
        out = total >= rebase ? total - rebase : 0;
        break;
      }
      case CounterKind::kRetired:
        break;
    }
  }
  return s;
}

void robustness_stats_reset() noexcept {
  for (std::atomic<std::uint64_t>& c : g_counters)
    c.store(0, std::memory_order_relaxed);
  g_injected_rebase.store(injected_sum(), std::memory_order_relaxed);
}

namespace telemetry {
void note(Counter c) noexcept {
  slot(c).fetch_add(1, std::memory_order_relaxed);
}
void raise_peak(Counter c, std::uint64_t value) noexcept {
  std::atomic<std::uint64_t>& peak_slot = slot(c);
  std::uint64_t peak = peak_slot.load(std::memory_order_relaxed);
  while (value > peak &&
         !peak_slot.compare_exchange_weak(peak, value,
                                          std::memory_order_relaxed,
                                          std::memory_order_relaxed)) {
  }
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
  static constexpr const char* kNames[] = {
#define SHALOM_SITE_NAME(id, name) name,
      SHALOM_FAULT_SITES(SHALOM_SITE_NAME)
#undef SHALOM_SITE_NAME
  };
  const int i = static_cast<int>(site);
  return i >= 0 && i < kSiteCount ? kNames[i] : "unknown";
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
