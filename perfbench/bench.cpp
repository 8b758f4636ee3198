// shalom_perfbench: the LibShalom benchmark program.
//
//   shalom_perfbench --workload <name> --seed <n> --seconds <s>
//                    [--trace 0|1] [--spans <file.csv>]
//
// Workloads (all single-process, at most 4 threads):
//   gemm_small      one thread, shalom::gemm on resident operands of the
//                   Fig. 7/14 small-shape mix (CP2K blocks + squares 8-32)
//   gemm_cold       one thread, shalom::gemm over 1024 distinct irregular
//                   shapes in [1,48]^3: 4x the plan cache, ~75% misses
//   gemm_irregular  shalom::gemm with cfg.threads = 4 on tall-and-skinny
//                   Fig. 9/10 shapes (K = 768)
//   serve_small     2 closed-loop clients on one engine::GemmStream with
//                   StreamOptions::threads = 1, over the small-shape mix
//
// The seed fixes every input: the operand values, the order of the shape
// mix and, for gemm_cold / gemm_irregular, the shapes themselves. Every
// run ends with an oracle check outside the timing and prints one JSON
// line with all measured values; perfbench/run.py picks the metrics.
//
// --trace 0 measures the workload for --seconds. --trace 1 instead runs
// the workload alternately with and without spans (for the tracing
// overhead and the tail), then a fixed set of layer probes that time
// calls into each library layer, each inside a span, and reports the
// per-layer numbers folded from the spans' self times.
#include <sys/resource.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/naive.h"
#include "bench_util/peak.h"
#include "common/error.h"
#include "common/fault.h"
#include "core/batch.h"
#include "core/engine.h"
#include "core/pack.h"
#include "core/plan.h"
#include "core/plan_cache.h"
#include "core/shalom.h"
#include "core/threadpool.h"
#include "trace.h"

namespace {

namespace trace = perfbench::trace;
using trace::Recorder;
using trace::Scope;
using shalom::index_t;

constexpr shalom::Mode kNN{shalom::Trans::N, shalom::Trans::N};
constexpr int kServeClients = 2;
constexpr int kIrregularThreads = 4;
constexpr std::size_t kColdShapes = 1024;  // 4x the default plan cache
constexpr index_t kIrregularK = 768;

std::int64_t now_ns() { return trace::now_ns(); }

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed * 0x2545F4914F6CDD1Dull + 1) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  index_t range(index_t lo, index_t hi) {
    return lo + static_cast<index_t>(next() %
                                     static_cast<std::uint64_t>(hi - lo + 1));
  }
  /// Uniform float in [-1, 1).
  float signed_unit() {
    return static_cast<float>(static_cast<double>(next() >> 11) * 0x1.0p-52 -
                              1.0);
  }
  template <typename V>
  void shuffle(std::vector<V>& v) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[next() % i]);
  }

 private:
  std::uint64_t state_;
};

struct Shape {
  index_t m = 0, n = 0, k = 0;
  double flops() const {
    return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
           static_cast<double>(k);
  }
};

/// 64-byte-aligned float buffer (alignment fixed so that run-to-run
/// placement does not move the timings).
class Floats {
 public:
  Floats() = default;
  explicit Floats(std::size_t n)
      : n_(n),
        p_(static_cast<float*>(std::aligned_alloc(
            64, ((std::max<std::size_t>(n, 1) * sizeof(float) + 63) / 64) *
                    64))) {
    if (p_ == nullptr) throw std::bad_alloc();
    std::memset(p_.get(), 0, n * sizeof(float));
  }
  float* data() const { return p_.get(); }
  void fill(Rng& rng) {
    for (std::size_t i = 0; i < n_; ++i) p_.get()[i] = rng.signed_unit();
  }

 private:
  struct Free {
    void operator()(float* p) const { std::free(p); }
  };
  std::size_t n_ = 0;
  std::unique_ptr<float, Free> p_;
};

/// One GEMM problem: row-major operands with contiguous leading
/// dimensions (lda = K, ldb = ldc = N), alpha = 1 and beta = 0, so the
/// output after any number of calls is the output of the last one.
struct Problem {
  Shape s;
  const float* a = nullptr;
  const float* b = nullptr;
  float* c = nullptr;
};

/// Owns the operands of a problem set.
struct ProblemSet {
  std::vector<Problem> problems;
  std::vector<Floats> storage;
  /// All problems write one C, so only the last call's output survives.
  bool shared_c = false;

  /// Every problem gets its own freshly drawn A, B and C.
  static ProblemSet own(const std::vector<Shape>& shapes, Rng& rng) {
    ProblemSet ps;
    ps.storage.reserve(3 * shapes.size());
    for (const Shape& s : shapes) {
      Floats& a = ps.storage.emplace_back(static_cast<std::size_t>(s.m * s.k));
      Floats& b = ps.storage.emplace_back(static_cast<std::size_t>(s.k * s.n));
      Floats& c = ps.storage.emplace_back(static_cast<std::size_t>(s.m * s.n));
      a.fill(rng);
      b.fill(rng);
      ps.problems.push_back({s, a.data(), b.data(), c.data()});
    }
    return ps;
  }

  /// Problems share one A and one B buffer sized for the largest shape
  /// (each reads its leading part) and, when `share_c`, one C as well:
  /// the operand footprint then stays in the core's own caches however
  /// many shapes there are.
  static ProblemSet shared(const std::vector<Shape>& shapes, Rng& rng,
                           bool share_c) {
    std::size_t amax = 0, bmax = 0, cmax = 0;
    for (const Shape& s : shapes) {
      amax = std::max(amax, static_cast<std::size_t>(s.m * s.k));
      bmax = std::max(bmax, static_cast<std::size_t>(s.k * s.n));
      cmax = std::max(cmax, static_cast<std::size_t>(s.m * s.n));
    }
    ProblemSet ps;
    ps.shared_c = share_c;
    ps.storage.reserve(3 + shapes.size());
    Floats& a = ps.storage.emplace_back(amax);
    Floats& b = ps.storage.emplace_back(bmax);
    a.fill(rng);
    b.fill(rng);
    float* c_all = share_c ? ps.storage.emplace_back(cmax).data() : nullptr;
    for (const Shape& s : shapes) {
      const auto c_elems = static_cast<std::size_t>(s.m * s.n);
      float* c = c_all != nullptr ? c_all
                                  : ps.storage.emplace_back(c_elems).data();
      ps.problems.push_back({s, a.data(), b.data(), c});
    }
    return ps;
  }
};

/// Fig. 14 CP2K blocks (M x N x K) followed by the squares 8..32.
std::vector<Shape> small_shapes() {
  std::vector<Shape> v = {
      {5, 5, 5}, {13, 5, 13}, {13, 13, 13}, {23, 23, 23}, {26, 26, 13}};
  for (index_t d = 8; d <= 32; ++d) v.push_back({d, d, d});
  return v;
}
constexpr std::size_t kCp2kBlocks = 5;

/// The small-shape request order: each CP2K block five times and each
/// square once per 50-request round (so the two families weigh the same),
/// 40 rounds, shuffled by the seed. The multiset is fixed; the seed only
/// picks the order, so a percentile over the mix does not jump between
/// seeds.
std::vector<std::uint32_t> small_sequence(Rng& rng) {
  std::vector<std::uint32_t> seq;
  const std::size_t n = small_shapes().size();
  for (int round = 0; round < 40; ++round)
    for (std::size_t i = 0; i < n; ++i)
      for (int rep = 0; rep < (i < kCp2kBlocks ? 5 : 1); ++rep)
        seq.push_back(static_cast<std::uint32_t>(i));
  rng.shuffle(seq);
  return seq;
}

/// kColdShapes distinct shapes with every dimension in [1, 48], drawn once
/// from a fixed generator: the set is the same for every seed (the seed
/// picks the call order and the operand values), so the work per call
/// does not change with the seed.
std::vector<Shape> cold_shapes() {
  Rng rng(0x5EED);
  std::set<std::tuple<index_t, index_t, index_t>> seen;
  std::vector<Shape> v;
  while (v.size() < kColdShapes) {
    const Shape s{rng.range(1, 48), rng.range(1, 48), rng.range(1, 48)};
    if (seen.insert({s.m, s.n, s.k}).second) v.push_back(s);
  }
  return v;
}

/// Uniform draws over the cold shapes: with 4x more shapes than plan-cache
/// entries about three calls in four miss.
std::vector<std::uint32_t> cold_sequence(Rng& rng, std::size_t length) {
  std::vector<std::uint32_t> seq(length);
  for (auto& x : seq) x = static_cast<std::uint32_t>(rng.next() % kColdShapes);
  return seq;
}

/// Scaled Fig. 9/10 tall-and-skinny shapes: M or N in {32, 64, 128}, the
/// other side 1024 or 2560, K = 768. The set is fixed; the seed picks the
/// order and the operand values.
std::vector<Shape> irregular_shapes() {
  std::vector<Shape> v;
  for (index_t small : {32, 64, 128})
    for (index_t wide : {1024, 2560}) {
      v.push_back({small, wide, kIrregularK});
      v.push_back({wide, small, kIrregularK});
    }
  return v;
}

std::vector<std::uint32_t> round_robin_sequence(std::size_t n, Rng& rng) {
  std::vector<std::uint32_t> seq(n);
  for (std::size_t i = 0; i < n; ++i) seq[i] = static_cast<std::uint32_t>(i);
  rng.shuffle(seq);
  return seq;
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

/// Log-linear latency histogram: 256 buckets per octave (0.4% wide), with
/// quantiles interpolated by rank inside a bucket. Fixed size, so the
/// timed loops never allocate.
class Histogram {
 public:
  static constexpr int kSubBits = 8;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kOctaves = 48;

  Histogram() : counts_(static_cast<std::size_t>(kSub * kOctaves), 0) {}

  void add(std::int64_t ns) {
    const auto v = static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 1));
    ++counts_[bucket(v)];
    ++n_;
  }
  void merge(const Histogram& o) {
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
  }
  std::uint64_t count() const { return n_; }

  /// Quantile q in [0, 1], in nanoseconds.
  double quantile(double q) const {
    if (n_ == 0) return 0;
    const double rank = q * static_cast<double>(n_ - 1);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      const std::uint64_t c = counts_[i];
      if (c == 0) continue;
      if (static_cast<double>(cum + c) > rank) {
        const double frac = (rank - static_cast<double>(cum) + 0.5) /
                            static_cast<double>(c);
        const double lo = lower(i), hi = lower(i + 1);
        return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
      }
      cum += c;
    }
    return lower(counts_.size());
  }

 private:
  static std::size_t bucket(std::uint64_t v) {
    const int oct = 63 - __builtin_clzll(v);
    const std::uint64_t sub =
        oct >= kSubBits ? (v >> (oct - kSubBits)) & (kSub - 1)
                        : (v << (kSubBits - oct)) & (kSub - 1);
    const std::size_t b = static_cast<std::size_t>(oct) * kSub + sub;
    return std::min(b, static_cast<std::size_t>(kSub * kOctaves - 1));
  }
  static double lower(std::size_t b) {
    const int oct = static_cast<int>(b / kSub);
    const double sub = static_cast<double>(b % kSub);
    return std::ldexp(1.0 + sub / kSub, oct);
  }
  std::vector<std::uint64_t> counts_;
  std::uint64_t n_ = 0;
};

/// What one timed loop saw.
struct LoopStats {
  Histogram lat;
  std::vector<double> best_ns;        // per shape index
  std::vector<double> lat_ns;         // raw latencies, only when kept
  double flops = 0;
  double wall_s = 0;
  std::uint64_t ops = 0, failed = 0;

  void merge(const LoopStats& o) {
    lat.merge(o.lat);
    if (best_ns.size() < o.best_ns.size())
      best_ns.resize(o.best_ns.size(), std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < o.best_ns.size(); ++i)
      best_ns[i] = std::min(best_ns[i], o.best_ns[i]);
    lat_ns.insert(lat_ns.end(), o.lat_ns.begin(), o.lat_ns.end());
    flops += o.flops;
    wall_s = std::max(wall_s, o.wall_s);
    ops += o.ops;
    failed += o.failed;
  }
};

struct LoopLimits {
  std::int64_t deadline_ns = 0;
  std::uint64_t max_ops = std::numeric_limits<std::uint64_t>::max();
  bool keep_raw = false;
};

/// Runs `op(shape_index, request_id)` over `seq` (cyclically, starting at
/// `start`) until the deadline or the op budget, timing each call.
template <typename Op>
LoopStats timed_loop(const std::vector<std::uint32_t>& seq,
                     const std::vector<Problem>& problems, std::size_t start,
                     const LoopLimits& lim, Op&& op) {
  LoopStats st;
  st.best_ns.assign(problems.size(), std::numeric_limits<double>::infinity());
  if (lim.keep_raw)
    st.lat_ns.reserve(std::min<std::uint64_t>(lim.max_ops, 1u << 20));
  const std::int64_t t_begin = now_ns();
  std::size_t pos = start % seq.size();
  std::int64_t t1 = t_begin;
  while (st.ops < lim.max_ops && t1 < lim.deadline_ns) {
    const std::uint32_t idx = seq[pos];
    if (++pos == seq.size()) pos = 0;
    const std::int64_t t0 = now_ns();
    const bool ok = op(idx, st.ops);
    t1 = now_ns();
    const std::int64_t d = t1 - t0;
    st.lat.add(d);
    if (lim.keep_raw && st.lat_ns.size() < st.lat_ns.capacity())
      st.lat_ns.push_back(static_cast<double>(d));
    ++st.ops;
    if (!ok) {
      ++st.failed;
      continue;
    }
    st.flops += problems[idx].s.flops();
    st.best_ns[idx] = std::min(st.best_ns[idx], static_cast<double>(d));
  }
  st.wall_s = static_cast<double>(t1 - t_begin) * 1e-9;
  return st;
}

/// Flops of the shapes that were run, over the sum of each shape's best
/// time: the rate when the host does not interfere.
double best_gflops(const LoopStats& st, const std::vector<Problem>& problems) {
  double flops = 0, ns = 0;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    if (!std::isfinite(st.best_ns[i])) continue;
    flops += problems[i].s.flops();
    ns += st.best_ns[i];
  }
  return ns > 0 ? flops / ns : 0;
}

/// Median over the shapes that ran of each shape's best latency (us).
double median_best_us(const LoopStats& st) {
  std::vector<double> b;
  for (double x : st.best_ns)
    if (std::isfinite(x)) b.push_back(x);
  return trace::median(b) * 1e-3;
}

/// Host-noise sample: /proc/stat CPU ticks plus this process's CPU time
/// and involuntary context switches.
struct HostSample {
  std::uint64_t steal = 0, total = 0, idle = 0;
  double cpu_s = 0;
  long nivcsw = 0;
  std::int64_t t_ns = 0;

  static HostSample take() {
    HostSample h;
    std::ifstream f("/proc/stat");
    std::string cpu;
    std::uint64_t v[8] = {};
    if (f >> cpu && cpu == "cpu") {
      for (auto& x : v)
        if (!(f >> x)) break;
    }
    // user nice system idle iowait irq softirq steal
    h.idle = v[3] + v[4];
    h.steal = v[7];
    for (std::uint64_t x : v) h.total += x;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    h.nivcsw = ru.ru_nivcsw;
    h.cpu_s = process_cpu_s();
    h.t_ns = now_ns();
    return h;
  }
};

struct HostNoise {
  double steal_frac = 0;  // steal ticks / all ticks, whole host
  double busy_frac = 0;   // non-idle ticks / all ticks, whole host
  double cpu_util = 0;    // this process's CPU seconds per wall second
  double invol_csw = 0;   // involuntary context switches of this process

  static HostNoise between(const HostSample& a, const HostSample& b) {
    HostNoise n;
    const double total = static_cast<double>(b.total - a.total);
    if (total > 0) {
      n.steal_frac = static_cast<double>(b.steal - a.steal) / total;
      n.busy_frac = 1.0 - static_cast<double>(b.idle - a.idle) / total;
    }
    const double wall = static_cast<double>(b.t_ns - a.t_ns) * 1e-9;
    if (wall > 0) n.cpu_util = (b.cpu_s - a.cpu_s) / wall;
    n.invol_csw = static_cast<double>(b.nivcsw - a.nivcsw);
    return n;
  }
};

/// Peak resident memory of this process image. VmHWM rather than
/// getrusage's ru_maxrss, which survives exec and so would report the
/// launcher's peak when that is larger.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string key;
  while (f >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      f >> kib;
      return kib / 1024.0;
    }
    f.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0;
}

shalom::Config serial_config() {
  shalom::Config cfg;
  cfg.threads = 1;
  return cfg;
}

shalom::Config parallel_config() {
  shalom::Config cfg;
  cfg.threads = kIrregularThreads;
  return cfg;
}

bool call_gemm(const Problem& p, const shalom::Config& cfg) {
  try {
    shalom::gemm(shalom::Trans::N, shalom::Trans::N, p.s.m, p.s.n, p.s.k,
                 1.0f, p.a, p.s.k, p.b, p.s.n, 0.0f, p.c, p.s.n, cfg);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

struct CheckTally {
  std::uint64_t checked = 0;     // outputs compared
  std::uint64_t mismatches = 0;  // outputs that failed a comparison
};

/// Compares rows [r0, r1) of the problem's C with baselines::naive_gemm
/// under the forward-error bound: each of the two results is within
/// gamma_K * |A||B| of the exact product, so they differ by at most twice
/// that.
bool within_error_bound(const Problem& p, index_t r0, index_t r1) {
  const index_t rows = r1 - r0, n = p.s.n, k = p.s.k;
  if (rows <= 0 || n <= 0) return true;
  std::vector<float> ref(static_cast<std::size_t>(rows * n));
  std::vector<float> mag(static_cast<std::size_t>(rows * n));
  std::vector<float> abs_a(static_cast<std::size_t>(rows * k));
  std::vector<float> abs_b(static_cast<std::size_t>(k * n));
  const float* a = p.a + r0 * k;
  for (std::size_t i = 0; i < abs_a.size(); ++i) abs_a[i] = std::fabs(a[i]);
  for (std::size_t i = 0; i < abs_b.size(); ++i) abs_b[i] = std::fabs(p.b[i]);
  shalom::baselines::naive_gemm<float>(kNN, rows, n, k, 1.0f, a, k, p.b, n,
                                       0.0f, ref.data(), n);
  shalom::baselines::naive_gemm<float>(kNN, rows, n, k, 1.0f, abs_a.data(),
                                       k, abs_b.data(), n, 0.0f, mag.data(),
                                       n);
  const double u = std::ldexp(1.0, -24);
  const double ku = static_cast<double>(k) * u;
  const double gamma = ku / (1.0 - ku);
  const float* c = p.c + r0 * n;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double bound = 2.0 * gamma * static_cast<double>(mag[i]) + FLT_MIN;
    const double err = std::fabs(static_cast<double>(c[i]) - ref[i]);
    if (!(err <= bound)) return false;
  }
  return true;
}

/// plan_execute is documented to be bitwise identical to the gemm call it
/// plans (API.md, "Execution plans"): replay the problem through a fresh
/// plan with the same Config and compare every bit of C.
bool bitwise_equal_to_plan(const Problem& p, const shalom::Config& cfg) {
  const Shape& s = p.s;
  std::vector<float> c(static_cast<std::size_t>(s.m * s.n), 0.0f);
  const shalom::GemmPlan<float> plan =
      shalom::plan_create<float>(kNN, s.m, s.n, s.k, cfg);
  shalom::plan_execute(plan, 1.0f, p.a, s.k, p.b, s.n, 0.0f, c.data(), s.n);
  return std::memcmp(c.data(), p.c, c.size() * sizeof(float)) == 0;
}

/// Checks a seed-chosen sample of `count` problems (all when count >=
/// problems.size()). Large outputs are checked on a seed-chosen block of
/// up to `max_rows` rows against the oracle; the bitwise comparison, when
/// asked for, covers the whole output. With `reissue_cfg` (problems that
/// share one C), each sampled call is first issued again through
/// shalom::gemm so that C holds its output.
CheckTally check_sample(const std::vector<Problem>& problems,
                        std::size_t count, Rng& rng, index_t max_rows,
                        const shalom::Config* bitwise_cfg,
                        const shalom::Config* reissue_cfg = nullptr) {
  std::vector<std::uint32_t> idx(problems.size());
  for (std::size_t i = 0; i < idx.size(); ++i)
    idx[i] = static_cast<std::uint32_t>(i);
  rng.shuffle(idx);
  idx.resize(std::min(count, idx.size()));
  CheckTally t;
  for (std::uint32_t i : idx) {
    const Problem& p = problems[i];
    const index_t rows = std::min(p.s.m, max_rows);
    const index_t r0 = p.s.m > rows ? rng.range(0, p.s.m - rows) : 0;
    bool ok = reissue_cfg == nullptr || call_gemm(p, *reissue_cfg);
    ok = ok && within_error_bound(p, r0, r0 + rows);
    if (bitwise_cfg != nullptr)
      ok = ok && bitwise_equal_to_plan(p, *bitwise_cfg);
    ++t.checked;
    if (!ok) ++t.mismatches;
  }
  return t;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Runs empty fork-join rounds so the pool's workers exist and have been
/// spread over the cores before anything is timed: freshly started (or
/// long idle) workers are woken next to the caller and the caller, which
/// helps with its own round, ends up running every task itself.
void prime_pool(int threads) {
  for (int i = 0; i < 1000; ++i) shalom::pool_run(threads, [](int) {});
}

/// Submits one request and waits for it; the spans split the request into
/// the time inside submit and the time from submit's return to
/// resolution.
bool call_stream(shalom::engine::GemmStream& stream, const Problem& p,
                 Recorder* rec, std::uint64_t id) {
  try {
    Scope req(rec, "serve.request", id);
    shalom::engine::TicketPtr t;
    {
      Scope s(rec, "engine.submit", id);
      t = stream.submit<float>(kNN, p.s.m, p.s.n, p.s.k, 1.0f, p.a, p.s.k,
                               p.b, p.s.n, 0.0f, p.c, p.s.n);
    }
    Scope r(rec, "engine.resolve", id);
    return t->wait() == SHALOM_OK;
  } catch (const std::exception&) {
    return false;
  }
}

shalom::engine::StreamOptions serve_options() {
  shalom::engine::StreamOptions o;
  o.threads = 1;
  o.queue_cap = 0;  // unbounded: a closed loop never has more than 2 queued
  o.overload_policy = static_cast<int>(shalom::engine::OverloadPolicy::kBlock);
  o.retry_budget = 3;
  return o;
}

/// One workload: its inputs, its set-up and its timed loop.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs the loop until `deadline_ns` (or `max_ops` per thread); `recs`
  /// holds one recorder per loop thread, or nullptrs when untraced.
  virtual LoopStats run(const LoopLimits& lim,
                        const std::vector<Recorder*>& recs) = 0;
  virtual int loop_threads() const { return 1; }
  /// True when the per-call wall time is set by host vCPU scheduling
  /// (calls that fork-join over several threads): p50_us is then taken
  /// over each shape's best latency instead of over every call.
  virtual bool best_of_latency() const { return false; }
  /// Oracle check of a seed-chosen sample of the outputs.
  virtual CheckTally check(Rng& rng) = 0;
  virtual const std::vector<Problem>& problems() const = 0;

 protected:
  std::size_t cursor_ = 0;  // where the next loop continues the sequence
};

class GemmWorkload : public Workload {
 public:
  GemmWorkload(ProblemSet ps, std::vector<std::uint32_t> seq,
               shalom::Config cfg, std::size_t check_count, index_t check_rows)
      : ps_(std::move(ps)),
        seq_(std::move(seq)),
        cfg_(cfg),
        check_count_(check_count),
        check_rows_(check_rows) {}

  /// Runs every problem once in a fixed order (so plans, pack arenas,
  /// pool workers and selfcheck probes settle the same way whatever the
  /// seed, and so does the peak memory), then the first `seq_calls` calls
  /// of the sequence to fill the caches.
  void warm(std::size_t seq_calls) {
    for (const Problem& p : ps_.problems) (void)call_gemm(p, cfg_);
    for (std::size_t i = 0; i < seq_calls; ++i)
      (void)call_gemm(ps_.problems[seq_[i % seq_.size()]], cfg_);
  }

  LoopStats run(const LoopLimits& lim,
                const std::vector<Recorder*>& recs) override {
    Recorder* rec = recs.empty() ? nullptr : recs[0];
    const auto op = [&](std::uint32_t idx, std::uint64_t id) {
      Scope s(rec, "gemm", id);
      return call_gemm(ps_.problems[idx], cfg_);
    };
    LoopStats st = timed_loop(seq_, ps_.problems, cursor_, lim, op);
    cursor_ += st.ops;
    return st;
  }

  CheckTally check(Rng& rng) override {
    return check_sample(ps_.problems, check_count_, rng, check_rows_, &cfg_,
                        ps_.shared_c ? &cfg_ : nullptr);
  }
  const std::vector<Problem>& problems() const override { return ps_.problems; }
  bool best_of_latency() const override { return cfg_.threads > 1; }

 private:
  ProblemSet ps_;
  std::vector<std::uint32_t> seq_;
  shalom::Config cfg_;
  std::size_t check_count_;
  index_t check_rows_;
};

class ServeWorkload : public Workload {
 public:
  explicit ServeWorkload(Rng& rng) : stream_(serve_options()) {
    for (int c = 0; c < kServeClients; ++c) {
      sets_.push_back(ProblemSet::own(small_shapes(), rng));
      seqs_.push_back(small_sequence(rng));
    }
  }

  /// Builds the plans and fills the caches with direct calls on this
  /// thread (the drainer's serial gemm_batch uses the same plan-cache
  /// keys), then each client sends each of its shapes once, closed loop.
  /// The direct calls keep set-up time mostly CPU work rather than
  /// cross-thread wake-ups, whose time the host decides.
  void warm(std::size_t direct_calls) {
    const std::vector<Problem>& probs = sets_[0].problems;
    for (std::size_t i = 0; i < direct_calls; ++i)
      (void)call_gemm(probs[seqs_[0][i % seqs_[0].size()]], serial_config());
    std::vector<std::thread> ts;
    for (int c = 0; c < kServeClients; ++c)
      ts.emplace_back([this, c] {
        for (const Problem& p : sets_[static_cast<std::size_t>(c)].problems)
          (void)call_stream(stream_, p, nullptr, 0);
      });
    for (auto& t : ts) t.join();
  }

  int loop_threads() const override { return kServeClients; }

  LoopStats run(const LoopLimits& lim,
                const std::vector<Recorder*>& recs) override {
    std::vector<LoopStats> per(kServeClients);
    std::vector<std::thread> ts;
    for (int c = 0; c < kServeClients; ++c)
      ts.emplace_back([&, c] {
        const auto ci = static_cast<std::size_t>(c);
        Recorder* rec = ci < recs.size() ? recs[ci] : nullptr;
        const auto& probs = sets_[ci].problems;
        per[ci] = timed_loop(seqs_[ci], probs, cursor_, lim,
                             [&](std::uint32_t idx, std::uint64_t id) {
                               return call_stream(stream_, probs[idx], rec,
                                                  (ci << 40) | id);
                             });
      });
    for (auto& t : ts) t.join();
    LoopStats all = std::move(per[0]);
    for (std::size_t c = 1; c < per.size(); ++c) all.merge(per[c]);
    cursor_ += all.ops / kServeClients;
    return all;
  }

  CheckTally check(Rng& rng) override {
    CheckTally t;
    for (auto& ps : sets_) {
      const CheckTally c = check_sample(ps.problems, ps.problems.size(), rng,
                                        64, nullptr);
      t.checked += c.checked;
      t.mismatches += c.mismatches;
    }
    return t;
  }
  const std::vector<Problem>& problems() const override {
    return sets_[0].problems;
  }
  shalom::engine::StreamStats stream_stats() const { return stream_.stats(); }

 private:
  std::vector<ProblemSet> sets_;
  std::vector<std::vector<std::uint32_t>> seqs_;
  shalom::engine::GemmStream stream_;  // after the operands it reads
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  Rng rng(seed);
  if (name == "gemm_small") {
    auto w = std::make_unique<GemmWorkload>(
        ProblemSet::own(small_shapes(), rng), small_sequence(rng),
        serial_config(), small_shapes().size(), 64);
    w->warm(20000);
    return w;
  }
  if (name == "gemm_cold") {
    const std::vector<Shape> shapes = cold_shapes();
    auto w = std::make_unique<GemmWorkload>(
        ProblemSet::shared(shapes, rng, /*share_c=*/true),
        cold_sequence(rng, 1u << 16),
        serial_config(), 64, 64);
    w->warm(4096);
    return w;
  }
  if (name == "gemm_irregular") {
    const std::vector<Shape> shapes = irregular_shapes();
    auto w = std::make_unique<GemmWorkload>(
        ProblemSet::shared(shapes, rng, /*share_c=*/false),
        round_robin_sequence(shapes.size(), rng), parallel_config(),
        shapes.size(), 8);
    prime_pool(kIrregularThreads);
    w->warm(0);
    return w;
  }
  if (name == "serve_small") {
    auto w = std::make_unique<ServeWorkload>(rng);
    w->warm(20000);
    return w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

/// Prints the result line; `extra` is appended inside the object (a
/// fragment starting with ", " or empty).
void print_result(const std::string& workload, bool correct,
                  std::uint64_t attempted, std::uint64_t failed,
                  const std::map<std::string, Metric>& metrics,
                  const std::string& extra = "") {
  std::ostringstream o;
  o << "{\"workload\": \"" << workload << "\", \"correct\": "
    << (correct ? "true" : "false") << ", \"attempted\": " << attempted
    << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    o << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
      << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  o << "}" << extra << "}";
  std::printf("%s\n", o.str().c_str());
  std::fflush(stdout);
}

void add_host(std::map<std::string, Metric>& m, const HostNoise& h) {
  m["host.steal_frac"] = {h.steal_frac, "frac"};
  m["host.busy_frac"] = {h.busy_frac, "frac"};
  m["host.cpu_util"] = {h.cpu_util, "cores"};
  m["host.invol_csw"] = {h.invol_csw, "count"};
}

// ---------------------------------------------------------------------------
// Untraced run: the end-to-end metrics
// ---------------------------------------------------------------------------

int measure(const std::string& name, Workload& w, double seconds,
            double setup_s, double setup_wall_s, std::uint64_t seed) {
  const HostSample h0 = HostSample::take();
  LoopLimits lim;
  lim.deadline_ns = h0.t_ns + static_cast<std::int64_t>(seconds * 1e9);
  const LoopStats st = w.run(lim, {});
  const HostSample h1 = HostSample::take();
  const HostNoise noise = HostNoise::between(h0, h1);
  const double rss_mb = peak_rss_mb();  // before the oracle's buffers

  Rng check_rng(seed ^ 0xC0FFEEull);
  const CheckTally chk = w.check(check_rng);
  const std::uint64_t attempted = st.ops + chk.checked;
  const std::uint64_t failed = st.failed + chk.mismatches;

  std::map<std::string, Metric> m;
  m["setup_s"] = {setup_s, "s"};
  m["setup_wall_s"] = {setup_wall_s, "s"};
  m["ok_frac"] = {attempted > 0 ? static_cast<double>(attempted - failed) /
                                      static_cast<double>(attempted)
                                : 0.0,
                  "frac"};
  m["rss_mb"] = {rss_mb, "MB"};
  // p50_call_us is every call's median latency; on a workload whose
  // calls fork-join over threads it is demoted to a diagnostic and p50_us
  // is taken over each shape's best latency (see STEADINESS.md).
  m["p50_call_us"] = {st.lat.quantile(0.50) * 1e-3, "us"};
  m["p50_us"] = w.best_of_latency() ? Metric{median_best_us(st), "us"}
                                    : m["p50_call_us"];
  m["p99_us"] = {st.lat.quantile(0.99) * 1e-3, "us"};
  m["p99_n"] = {static_cast<double>(st.lat.count()), "count"};
  m["gflops"] = {st.wall_s > 0 ? st.flops / st.wall_s * 1e-9 : 0, "GFLOP/s"};
  m["best_gflops"] = {best_gflops(st, w.problems()), "GFLOP/s"};
  m["cpu_us_per_op"] = {st.ops > 0 ? (h1.cpu_s - h0.cpu_s) * 1e6 /
                                         static_cast<double>(st.ops)
                                   : 0,
                        "us"};
  m["ops"] = {static_cast<double>(st.ops), "count"};
  add_host(m, noise);
  // Per-shape best times and flops, so that a launcher combining several
  // processes can take each shape's best over all of them.
  std::ostringstream shapes;
  shapes << ", \"p50_of_best\": " << (w.best_of_latency() ? "true" : "false")
         << ", \"best_ns\": [";
  for (std::size_t i = 0; i < st.best_ns.size(); ++i)
    shapes << (i ? ", " : "") << json_number(st.best_ns[i]);
  shapes << "], \"shape_flops\": [";
  for (std::size_t i = 0; i < w.problems().size(); ++i)
    shapes << (i ? ", " : "") << json_number(w.problems()[i].s.flops());
  shapes << "]";
  print_result(name, chk.mismatches == 0, attempted, failed, m, shapes.str());
  return 0;
}

// ---------------------------------------------------------------------------
// Traced run: the per-layer metrics
// ---------------------------------------------------------------------------

/// Keeps every recorder of the traced run so the spans can be written out
/// and folded when it ends.
class Tracer {
 public:
  Recorder* make(std::size_t capacity) {
    recs_.push_back(std::make_unique<Recorder>(capacity));
    return recs_.back().get();
  }
  trace::SelfTimes fold() const {
    trace::SelfTimes all;
    for (const auto& r : recs_) trace::merge(all, trace::fold(r->spans()));
    return all;
  }
  std::uint64_t dropped() const {
    std::uint64_t d = 0;
    for (const auto& r : recs_) d += r->dropped();
    return d;
  }
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < recs_.size(); ++i)
      trace::write_csv(f, static_cast<int>(i), recs_[i]->spans(), i == 0);
    return std::fclose(f) == 0;
  }

 private:
  std::vector<std::unique_ptr<Recorder>> recs_;
};

double p50_self_us(const trace::SelfTimes& f,
                   const char* name) {
  const auto it = f.find(name);
  return it == f.end() ? 0 : trace::median(it->second) * 1e-3;
}

/// Per-request durations of the closed spans called `name`.
std::map<std::uint64_t, std::vector<double>> durations_by_request(
    const Recorder& rec, const char* name) {
  std::map<std::uint64_t, std::vector<double>> out;
  for (const auto& s : rec.spans())
    if (s.end_ns != 0 && std::strcmp(s.name, name) == 0)
      out[s.request].push_back(static_cast<double>(s.end_ns - s.start_ns));
  return out;
}

struct ProbeContext {
  Tracer& tracer;
  std::map<std::string, Metric>& m;
  std::uint64_t seed;
  double seconds;  // the run's whole budget
  std::uint64_t attempted = 0, failed = 0, mismatches = 0;

  void add_check(const CheckTally& t) {
    attempted += t.checked;
    failed += t.mismatches;
    mismatches += t.mismatches;
  }
  std::int64_t deadline(double share) const {
    return now_ns() + static_cast<std::int64_t>(seconds * share * 1e9);
  }
};

/// core/engine: the serve mix through a fresh stream, 2 closed-loop
/// clients, spans around submit and resolution.
double probe_engine(ProbeContext& ctx) {
  Rng rng(ctx.seed ^ 0xE1);
  ServeWorkload w(rng);
  w.warm(0);
  std::vector<Recorder*> recs;
  for (int c = 0; c < kServeClients; ++c)
    recs.push_back(ctx.tracer.make(1u << 17));
  LoopLimits lim;
  lim.deadline_ns = ctx.deadline(0.15);
  lim.max_ops = (1u << 17) / 3;
  const LoopStats st = w.run(lim, recs);
  ctx.attempted += st.ops;
  ctx.failed += st.failed;
  trace::SelfTimes f;
  std::vector<double> req_ns;
  for (Recorder* r : recs) {
    trace::merge(f, trace::fold(r->spans()));
    for (auto& [id, v] : durations_by_request(*r, "serve.request"))
      req_ns.insert(req_ns.end(), v.begin(), v.end());
  }
  const shalom::engine::StreamStats ss = w.stream_stats();
  ctx.m["engine.submit_us"] = {p50_self_us(f, "engine.submit"), "us"};
  ctx.m["engine.resolve_us"] = {p50_self_us(f, "engine.resolve"), "us"};
  ctx.m["engine.reqs_per_batch"] = {
      ss.batches > 0 ? static_cast<double>(ss.executed) /
                           static_cast<double>(ss.batches)
                     : 0,
      "count"};
  ctx.m["engine.queue_peak"] = {static_cast<double>(ss.queue_peak), "count"};
  ctx.m["engine.failed"] = {
      static_cast<double>(ss.shed + ss.expired + ss.retries), "count"};
  return trace::median(req_ns);
}

/// core/plan_cache and core/plan on the small mix: gemm_cached against
/// plan_execute on a held plan, interleaved call by call; then
/// core/batch: gemm_batch over 64 entries of the same mix.
void probe_small_layers(ProbeContext& ctx, double serve_p50_ns) {
  Rng rng(ctx.seed ^ 0x5A);
  const ProblemSet ps = ProblemSet::own(small_shapes(), rng);
  const std::vector<std::uint32_t> seq = small_sequence(rng);
  const shalom::Config cfg = serial_config();
  std::vector<shalom::GemmPlan<float>> plans;
  for (const Problem& p : ps.problems)
    plans.push_back(shalom::plan_create<float>(kNN, p.s.m, p.s.n, p.s.k, cfg));

  constexpr std::size_t kSpans = 1u << 18;
  Recorder* rec = ctx.tracer.make(kSpans);
  const std::int64_t end = ctx.deadline(0.10);
  std::uint64_t calls = 0;
  for (std::size_t i = 0; now_ns() < end && rec->spans().size() + 2 < kSpans;
       ++i) {
    const std::uint32_t idx = seq[i % seq.size()];
    const Problem& p = ps.problems[idx];
    {
      Scope s(rec, "plan_cache.gemm_cached", idx);
      shalom::gemm_cached(kNN, p.s.m, p.s.n, p.s.k, 1.0f, p.a, p.s.k, p.b,
                          p.s.n, 0.0f, p.c, p.s.n, cfg);
    }
    {
      Scope s(rec, "plan.execute", idx);
      shalom::plan_execute(plans[idx], 1.0f, p.a, p.s.k, p.b, p.s.n, 0.0f,
                           p.c, p.s.n);
    }
    calls += 2;
  }
  ctx.attempted += calls;
  const auto cached = durations_by_request(*rec, "plan_cache.gemm_cached");
  const auto exec = durations_by_request(*rec, "plan.execute");
  std::vector<double> lookup_ns, cached_all;
  double exec_flops = 0, exec_ns = 0;
  for (const auto& [idx, v] : cached) {
    cached_all.insert(cached_all.end(), v.begin(), v.end());
    const auto e = exec.find(idx);
    if (e == exec.end()) continue;
    const double exec_p50 = trace::median(e->second);
    lookup_ns.push_back(trace::median(v) - exec_p50);
    exec_flops += ps.problems[idx].s.flops() *
                  static_cast<double>(e->second.size());
    for (double d : e->second) exec_ns += d;
  }
  const auto f = trace::fold(rec->spans());
  const double exec_gflops = exec_ns > 0 ? exec_flops / exec_ns : 0;
  ctx.m["plan_cache.lookup_us"] = {trace::median(lookup_ns) * 1e-3, "us"};
  ctx.m["plan.execute_us"] = {p50_self_us(f, "plan.execute"), "us"};
  ctx.m["plan.execute_gflops"] = {exec_gflops, "GFLOP/s"};
  ctx.m["plan.peak_frac"] = {
      exec_gflops / shalom::bench::calibrated_peak_gflops_f32(), "frac"};
  const double cached_p50 = trace::median(cached_all);
  ctx.m["engine.overhead_x"] = {
      cached_p50 > 0 ? serve_p50_ns / cached_p50 : 0, "x"};

  // core/batch: one gemm_batch call per 64 entries of the mix.
  constexpr std::size_t kBatch = 64;
  std::vector<shalom::BatchEntry<float>> batch;
  for (std::size_t i = 0; i < kBatch; ++i) {
    const Problem& p = ps.problems[seq[i]];
    shalom::BatchEntry<float> e;
    e.m = p.s.m;
    e.n = p.s.n;
    e.k = p.s.k;
    e.a = p.a;
    e.lda = p.s.k;
    e.b = p.b;
    e.ldb = p.s.n;
    e.c = p.c;
    e.ldc = p.s.n;
    batch.push_back(e);
  }
  constexpr std::size_t kBatchSpans = 1u << 16;
  Recorder* brec = ctx.tracer.make(kBatchSpans);
  const std::int64_t bend = ctx.deadline(0.05);
  while (now_ns() < bend && brec->spans().size() < kBatchSpans) {
    Scope s(brec, "batch.gemm_batch");
    shalom::gemm_batch(kNN, batch, cfg);
    ctx.attempted += kBatch;
  }
  const auto bf = trace::fold(brec->spans());
  ctx.m["batch.entry_us"] = {p50_self_us(bf, "batch.gemm_batch") / kBatch,
                             "us"};

  Rng chk(ctx.seed ^ 0xC5);
  ctx.add_check(check_sample(ps.problems, ps.problems.size(), chk, 64, &cfg));
}

/// core/plan_cache writes and core/plan creation on the cold shapes: a
/// fixed number of calls from a cleared cache, so the counts repeat
/// exactly for a seed.
void probe_cold_layers(ProbeContext& ctx) {
  Rng rng(ctx.seed ^ 0xC01D);
  const std::vector<Shape> shapes = cold_shapes();
  const ProblemSet ps = ProblemSet::own(shapes, rng);
  const std::vector<std::uint32_t> seq = cold_sequence(rng, 8192);
  const shalom::Config cfg = serial_config();

  Recorder* crec = ctx.tracer.make(1024);
  for (std::size_t i = 0; i < 1024 && i < shapes.size(); ++i) {
    std::optional<shalom::GemmPlan<float>> plan;  // outlives the span
    Scope s(crec, "plan.create", i);
    plan.emplace(shalom::plan_create<float>(kNN, shapes[i].m, shapes[i].n,
                                            shapes[i].k, cfg));
  }
  const auto cf = trace::fold(crec->spans());
  ctx.m["plan.create_us"] = {p50_self_us(cf, "plan.create"), "us"};

  auto& cache = shalom::PlanCache<float>::global();
  cache.clear();
  Recorder* rec = ctx.tracer.make(seq.size());
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    Scope s(rec, "gemm.cold", i);
    if (!call_gemm(ps.problems[seq[i]], cfg)) ++failed;
  }
  const shalom::PlanCacheStats cs = cache.stats();
  const double lookups = static_cast<double>(cs.hits + cs.misses);
  ctx.m["plan_cache.hit_ratio"] = {
      lookups > 0 ? static_cast<double>(cs.hits) / lookups : 0, "frac"};
  ctx.m["plan_cache.evictions"] = {static_cast<double>(cs.evictions), "count"};
  ctx.attempted += seq.size();
  ctx.failed += failed;
  Rng chk(ctx.seed ^ 0xC6);
  ctx.add_check(check_sample(ps.problems, 32, chk, 64, &cfg));
}

/// core/pack: pack_a_n / pack_b_n at the panel sizes the serial plan picks
/// for the irregular shapes. Bytes are computed (source elements read plus
/// packed elements written), not measured.
void probe_pack(ProbeContext& ctx) {
  Rng rng(ctx.seed ^ 0xAC);
  const std::vector<Shape> shapes = irregular_shapes();
  struct Panel {
    index_t m, n, kc;
    int mr, nr;
    double a_bytes, b_bytes;
  };
  std::vector<Panel> panels;
  std::size_t a_max = 0, b_max = 0, src_max = 0;
  for (const Shape& s : shapes) {
    const auto plan =
        shalom::plan_create<float>(kNN, s.m, s.n, s.k, serial_config());
    Panel p{};
    p.kc = std::clamp<index_t>(plan.blk.kc, 1, s.k);
    p.m = std::clamp<index_t>(plan.blk.mc, 1, s.m);
    p.n = std::clamp<index_t>(plan.blk.nc, 1, s.n);
    p.mr = std::max(plan.tile.mr, 1);
    p.nr = std::max(plan.tile.nr, 1);
    const index_t a_elems = shalom::pack::a_panel_elems(p.m, p.kc, p.mr);
    const index_t b_elems = shalom::pack::b_panel_elems(p.kc, p.n, p.nr);
    p.a_bytes = 4.0 * static_cast<double>(p.m * p.kc + a_elems);
    p.b_bytes = 4.0 * static_cast<double>(p.kc * p.n + b_elems);
    panels.push_back(p);
    a_max = std::max(a_max, static_cast<std::size_t>(a_elems));
    b_max = std::max(b_max, static_cast<std::size_t>(b_elems));
    src_max = std::max(src_max, static_cast<std::size_t>(s.k * s.m));
    src_max = std::max(src_max, static_cast<std::size_t>(s.k * s.n));
  }
  Floats src(src_max), ac(a_max), bc(b_max);
  src.fill(rng);
  constexpr std::size_t kSpans = 1u << 16;
  Recorder* rec = ctx.tracer.make(kSpans);
  const std::int64_t end = ctx.deadline(0.05);
  for (std::size_t i = 0; now_ns() < end && rec->spans().size() + 2 < kSpans;
       ++i) {
    const std::size_t j = i % panels.size();
    const Panel& p = panels[j];
    {
      Scope sc(rec, "pack.a_n", j);
      shalom::pack::pack_a_n(src.data(), shapes[j].k, p.m, p.kc, p.mr,
                             ac.data());
    }
    Scope sc(rec, "pack.b_n", j);
    shalom::pack::pack_b_n(src.data(), shapes[j].n, p.kc, p.n, p.nr,
                           bc.data());
  }
  // Median over the panels of bytes over the panel's median time.
  const auto gbps = [&](const char* name, double Panel::*bytes) {
    std::vector<double> rates;
    for (const auto& [j, ns] : durations_by_request(*rec, name))
      rates.push_back(panels[j].*bytes / trace::median(ns));
    return trace::median(rates);
  };
  ctx.m["pack.a_gbps"] = {gbps("pack.a_n", &Panel::a_bytes), "GB/s"};
  ctx.m["pack.b_gbps"] = {gbps("pack.b_n", &Panel::b_bytes), "GB/s"};
}

/// core/threadpool and core/parallel: an empty 4-task pool_run, then the
/// irregular shapes at 1 and at 4 threads, interleaved.
void probe_parallel(ProbeContext& ctx) {
  prime_pool(kIrregularThreads);
  constexpr std::size_t kPoolSpans = 1u << 16;
  Recorder* prec = ctx.tracer.make(kPoolSpans);
  const std::int64_t pend = ctx.deadline(0.04);
  while (now_ns() < pend && prec->spans().size() < kPoolSpans) {
    Scope s(prec, "threadpool.pool_run");
    shalom::pool_run(kIrregularThreads, [](int) {});
  }
  const auto pf = trace::fold(prec->spans());
  ctx.m["threadpool.forkjoin_us"] = {p50_self_us(pf, "threadpool.pool_run"),
                                     "us"};

  Rng rng(ctx.seed ^ 0x1A);
  const std::vector<Shape> shapes = irregular_shapes();
  const ProblemSet ps = ProblemSet::shared(shapes, rng, /*share_c=*/false);
  Recorder* rec = ctx.tracer.make(1u << 14);
  struct Phase {
    std::vector<double> best_ns;
    double cpu_s = 0, wall_s = 0, flops = 0;
  };
  // Each width runs in a phase of its own: interleaving serial calls would
  // let the pool's workers go idle before every parallel call.
  const auto run_phase = [&](const shalom::Config& cfg, const char* name,
                             double share) {
    Phase ph;
    ph.best_ns.assign(shapes.size(), std::numeric_limits<double>::infinity());
    const std::int64_t end = ctx.deadline(share);
    for (int rep = 0; rep < 1 || now_ns() < end; ++rep) {
      for (std::size_t i = 0; i < ps.problems.size(); ++i) {
        const double c0 = process_cpu_s();
        const std::int64_t t0 = now_ns();
        bool ok;
        {
          Scope s(rec, name, i);
          ok = call_gemm(ps.problems[i], cfg);
        }
        const std::int64_t t1 = now_ns();
        ph.cpu_s += process_cpu_s() - c0;
        ph.wall_s += static_cast<double>(t1 - t0) * 1e-9;
        ph.flops += ps.problems[i].s.flops();
        ph.best_ns[i] = std::min(ph.best_ns[i], static_cast<double>(t1 - t0));
        ++ctx.attempted;
        if (!ok) ++ctx.failed;
      }
    }
    return ph;
  };
  // After a long single-threaded stretch the host takes a while (0.3-1 s
  // here) to run all of a new pool's workers alongside the caller; until
  // then the caller runs most tasks itself. Warm until a pass uses more
  // than two cores, or the warm-up budget ends, then time the parallel
  // phase first, while the workers are hot.
  const std::int64_t warm_end = ctx.deadline(0.1);
  double warm_util = 0;
  while (now_ns() < warm_end && warm_util < 2.0) {
    const Phase w = run_phase(parallel_config(), "gemm.warm", 0.0);
    warm_util = w.wall_s > 0 ? w.cpu_s / w.wall_s : 0;
  }
  const Phase p4 = run_phase(parallel_config(), "gemm.threads4", 0.06);
  const Phase p1 = run_phase(serial_config(), "gemm.threads1", 0.06);
  double s1 = 0, s4 = 0;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    s1 += p1.best_ns[i];
    s4 += p4.best_ns[i];
  }
  ctx.m["parallel.speedup"] = {s4 > 0 ? s1 / s4 : 0, "x"};
  ctx.m["threadpool.cpu_util"] = {p4.wall_s > 0 ? p4.cpu_s / p4.wall_s : 0,
                                  "cores"};
  ctx.m["parallel.wall_gflops"] = {
      p4.wall_s > 0 ? p4.flops / p4.wall_s * 1e-9 : 0, "GFLOP/s"};
}

int trace_run(const std::string& name, Workload& w, double seconds,
              std::uint64_t seed, const std::string& spans_path) {
  const HostSample h0 = HostSample::take();
  Tracer tracer;
  std::map<std::string, Metric> m;
  ProbeContext ctx{tracer, m, seed, seconds};

  // The workload itself, alternately without and with spans; the
  // latencies of the two halves give the tracing overhead.
  LoopStats plain, traced;
  constexpr int kChunks = 6;
  constexpr std::uint64_t kCap = 1u << 16;
  const int n_threads = w.loop_threads();
  std::vector<Recorder*> recs;
  for (int i = 0; i < n_threads; ++i) recs.push_back(tracer.make(3 * kCap));
  for (int chunk = 0; chunk < kChunks; ++chunk) {
    LoopLimits lim;
    lim.max_ops = kCap / static_cast<std::uint64_t>(kChunks);
    lim.keep_raw = true;
    lim.deadline_ns = ctx.deadline(0.025);
    plain.merge(w.run(lim, {}));
    lim.deadline_ns = ctx.deadline(0.025);
    traced.merge(w.run(lim, recs));
  }
  ctx.attempted += plain.ops + traced.ops;
  ctx.failed += plain.failed + traced.failed;
  Rng check_rng(seed ^ 0xC0FFEEull);
  ctx.add_check(w.check(check_rng));
  m["trace.overhead_x"] = {trace::overhead_x(traced.lat_ns, plain.lat_ns),
                           "x"};
  m["p99_us"] = {plain.lat.quantile(0.99) * 1e-3, "us"};
  m["p99_n"] = {static_cast<double>(plain.lat.count()), "count"};

  const double serve_p50_ns = probe_engine(ctx);
  probe_small_layers(ctx, serve_p50_ns);
  probe_cold_layers(ctx);
  probe_pack(ctx);
  probe_parallel(ctx);

  const shalom::RobustnessStats rs = shalom::robustness_stats();
  m["selfcheck.probes"] = {static_cast<double>(rs.selfchecks_run), "count"};
  m["selfcheck.quarantined"] = {static_cast<double>(rs.kernels_quarantined),
                                "count"};
  m["health.degraded"] = {
      static_cast<double>(rs.fallback_nopack + rs.threads_degraded +
                          rs.plan_cache_bypassed),
      "count"};
  m["trace.dropped"] = {static_cast<double>(tracer.dropped()), "count"};
  const HostSample h1 = HostSample::take();
  add_host(m, HostNoise::between(h0, h1));
  if (!spans_path.empty() && !tracer.write(spans_path))
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 spans_path.c_str());
  print_result(name, ctx.mismatches == 0, ctx.attempted, ctx.failed, m);
  return 0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has = i + 1 < argc;
    if (k == "--workload" && has) {
      a.workload = argv[++i];
    } else if (k == "--seed" && has) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds" && has) {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (k == "--trace" && has) {
      a.trace = std::atoi(argv[++i]);
    } else if (k == "--spans" && has) {
      a.spans = argv[++i];
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0 && (a.trace == 0 || a.trace == 1);
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t t_start = now_ns();
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: shalom_perfbench --workload <gemm_small|gemm_cold|"
                 "gemm_irregular|serve_small> --seed <n> --seconds <s> "
                 "[--trace 0|1] [--spans <file>]\n");
    return 2;
  }
  try {
    std::unique_ptr<Workload> w = make_workload(args.workload, args.seed);
    if (w == nullptr) {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
    const double setup_wall_s = static_cast<double>(now_ns() - t_start) * 1e-9;
    // Set-up is reported as the process's CPU time, all threads, from its
    // start: the wall time of the multi-threaded set-ups (pool and stream
    // start-up) follows the host's vCPU scheduling and doubled between
    // runs of the same code.
    const double setup_s = process_cpu_s();
    if (args.trace == 1)
      return trace_run(args.workload, *w, args.seconds, args.seed,
                       args.spans);
    return measure(args.workload, *w, args.seconds, setup_s, setup_wall_s,
                   args.seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
