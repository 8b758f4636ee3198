#include "bench_util/runner.h"

#include <cstring>
#include <string>
#include <vector>

#include "common/aligned_buffer.h"

namespace shalom::bench {

void evict_caches() {
  // 96 MiB sweep: larger than every LLC in Table 1 and than typical hosts.
  static AlignedBuffer sweep(96u << 20);
  auto* p = sweep.as<unsigned char>();
  const std::size_t n = sweep.capacity();
  // Write pass so the lines are owned, then a read pass.
  for (std::size_t i = 0; i < n; i += kCacheLineBytes) p[i] += 1;
  volatile unsigned char sink = 0;
  for (std::size_t i = 0; i < n; i += kCacheLineBytes) sink = sink + p[i];
  (void)sink;
}

Stats time_kernel(const std::function<void()>& fn, int reps, bool warm) {
  if (warm) fn();  // prime caches + code paths
  std::vector<double> samples;
  samples.reserve(reps);
  for (int r = 0; r < reps; ++r) {
    if (!warm) evict_caches();
    Timer t;
    fn();
    samples.push_back(t.elapsed_s());
  }
  return summarize(samples);
}

BenchOptions BenchOptions::parse(int argc, char** argv) {
  BenchOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--full") {
      opt.full = true;
    } else if (arg == "--csv") {
      opt.csv = true;
    } else if (arg == "--reps" && i + 1 < argc) {
      opt.reps = std::stoi(argv[++i]);
    }
  }
  return opt;
}

}  // namespace shalom::bench
