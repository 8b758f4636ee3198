#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <utility>

namespace perfbench::trace {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Recorder::Recorder(std::size_t capacity, std::size_t max_depth)
    : capacity_(capacity), max_depth_(max_depth) {
  spans_.reserve(capacity);
  open_.reserve(max_depth);
}

std::uint32_t Recorder::begin(const char* name,
                              std::uint64_t request) noexcept {
  if (spans_.size() >= capacity_ || open_.size() >= max_depth_ ||
      spans_.size() >= kNoParent) {
    ++dropped_;
    return kNoParent;
  }
  Span s;
  s.name = name;
  s.parent = open_.empty() ? kNoParent : open_.back();
  s.request = request;
  const auto index = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(s);  // never reallocates: capacity was reserved
  open_.push_back(index);
  // Read the clock last so the bookkeeping above is not in the span.
  spans_.back().start_ns = now_ns();
  return index;
}

void Recorder::end(std::uint32_t index) noexcept {
  const std::int64_t t = now_ns();
  if (index == kNoParent || index >= spans_.size()) return;
  spans_[index].end_ns = t;
  const auto it = std::find(open_.rbegin(), open_.rend(), index);
  if (it != open_.rend()) open_.erase(std::next(it).base());
}

SelfTimes fold(const std::vector<Span>& spans) {
  std::vector<std::vector<std::uint32_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns == 0 || s.parent == kNoParent || s.parent >= spans.size())
      continue;
    children[s.parent].push_back(static_cast<std::uint32_t>(i));
  }
  SelfTimes out;
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns == 0 || s.name == nullptr) continue;
    iv.clear();
    for (std::uint32_t c : children[i]) {
      const std::int64_t lo = std::max(spans[c].start_ns, s.start_ns);
      const std::int64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (hi > lo) iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    out[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns - covered));
  }
  return out;
}

void merge(SelfTimes& into, const SelfTimes& from) {
  for (const auto& [name, v] : from) {
    std::vector<double>& dst = into[name];
    dst.insert(dst.end(), v.begin(), v.end());
  }
}

void write_csv(std::FILE* out, int thread, const std::vector<Span>& spans,
               bool header) {
  if (header)
    std::fprintf(out, "thread,index,parent,request,name,start_ns,end_ns\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const long long parent = s.parent == kNoParent ? -1LL : s.parent;
    std::fprintf(out, "%d,%zu,%lld,%" PRIu64 ",%s,%" PRId64 ",%" PRId64 "\n",
                 thread, i, parent, s.request,
                 s.name != nullptr ? s.name : "", s.start_ns, s.end_ns);
  }
}

double overhead_x(const std::vector<double>& traced,
                  const std::vector<double>& untraced) {
  const double base = median(untraced);
  if (traced.empty() || base <= 0) return 0;
  return median(traced) / base;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1 - frac) + v[hi] * frac;
}

}  // namespace perfbench::trace
