// Span recorder for the benchmark's traced runs.
//
// A span covers one call the benchmark makes into a library layer: it has
// a name, a start and an end (steady_clock nanoseconds), the span that
// was open on the same recorder when it began (its parent), and the id of
// the request it belongs to. Each thread records into its own Recorder,
// whose buffer is allocated once up front; recording never allocates and
// never takes a lock. When the buffer is full further spans are counted
// as dropped instead of recorded.
//
// fold() turns the recorded spans into per-name self times: a span's self
// time is its duration minus the part of its interval that its child
// spans cover. write_csv() dumps the raw spans when the run ends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench::trace {

inline constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

/// One recorded span. `name` points at a string with static storage
/// duration (a literal); `end_ns` is 0 while the span is open.
struct Span {
  const char* name = nullptr;
  std::uint32_t parent = kNoParent;
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

std::int64_t now_ns() noexcept;

/// Per-thread span buffer with a stack of open spans. Not thread-safe: a
/// recorder belongs to the one thread that records into it.
class Recorder {
 public:
  /// Preallocates room for `capacity` spans and a nesting depth of
  /// `max_depth`.
  explicit Recorder(std::size_t capacity, std::size_t max_depth = 32);

  /// Opens a span and returns its index (kNoParent when it was dropped).
  std::uint32_t begin(const char* name, std::uint64_t request) noexcept;
  /// Closes the span `begin` returned; a dropped span is ignored.
  void end(std::uint32_t index) noexcept;

  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  std::size_t capacity_;
  std::size_t max_depth_;
  std::uint64_t dropped_ = 0;
};

/// RAII span on a recorder; a null recorder records nothing, so untraced
/// runs pay one branch per call site.
class Scope {
 public:
  Scope(Recorder* rec, const char* name, std::uint64_t request = 0) noexcept
      : rec_(rec),
        index_(rec != nullptr ? rec->begin(name, request) : kNoParent) {}
  ~Scope() {
    if (rec_ != nullptr) rec_->end(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Recorder* rec_;
  std::uint32_t index_;
};

/// Self times (ns) of the closed spans, by span name, in recording order.
using SelfTimes = std::map<std::string, std::vector<double>>;

/// Folds the closed spans of one recorder into self times keyed by name.
/// Child intervals are clipped to their parent's and merged before they
/// are subtracted, so overlapping children are not counted twice.
SelfTimes fold(const std::vector<Span>& spans);

/// Appends `from` to `into` (used to combine per-thread folds).
void merge(SelfTimes& into, const SelfTimes& from);

/// Writes `spans` as CSV rows `thread,index,parent,request,name,start_ns,
/// end_ns`; the header is written when `header` is true.
void write_csv(std::FILE* out, int thread, const std::vector<Span>& spans,
               bool header);

/// Tracing overhead: the median of the traced latencies over the median
/// of the untraced ones, measured on the same work (0 when either is
/// empty).
double overhead_x(const std::vector<double>& traced,
                  const std::vector<double>& untraced);

/// Linearly interpolated quantile `q` in [0, 1] of `v` (sorts a copy; 0
/// for an empty vector).
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

}  // namespace perfbench::trace
