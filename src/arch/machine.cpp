#include "arch/machine.h"

#include <unistd.h>

#include <array>
#include <fstream>
#include <string>
#include <thread>

namespace shalom::arch {

namespace {

CacheInfo cache(std::size_t kib, int assoc, int shared_by = 1) {
  CacheInfo c;
  c.size_bytes = kib * 1024;
  c.associativity = assoc;
  c.shared_by_cores = shared_by;
  return c;
}

}  // namespace

MachineDescriptor phytium_2000p() {
  MachineDescriptor m;
  m.name = "Phytium 2000+";
  m.cores = 64;
  m.frequency_ghz = 2.2;
  m.fma_pipes = 1;
  m.load_pipes = 1;
  m.l1d = cache(32, 4);
  // 2 MB L2 shared per 4-core cluster; no L3 (paper Table 1).
  m.l2 = cache(2048, 16, /*shared_by=*/4);
  m.l3 = CacheInfo{};  // none
  m.mem_bw_gbps = 80.0;   // 8-channel DDR4-2400 class
  return m;
}

MachineDescriptor kunpeng_920() {
  MachineDescriptor m;
  m.name = "Kunpeng 920";
  m.cores = 64;
  m.frequency_ghz = 2.6;
  m.fma_pipes = 2;
  m.load_pipes = 2;
  m.l1d = cache(64, 4);
  m.l2 = cache(512, 8);
  m.l3 = cache(64 * 1024, 16, /*shared_by=*/64);
  m.mem_bw_gbps = 190.0;  // 8-channel DDR4-2933 class
  return m;
}

MachineDescriptor thunderx2() {
  MachineDescriptor m;
  m.name = "ThunderX2";
  m.cores = 32;
  m.frequency_ghz = 2.5;
  m.fma_pipes = 2;
  m.load_pipes = 2;
  m.l1d = cache(32, 8);
  m.l2 = cache(256, 8);
  m.l3 = cache(32 * 1024, 16, /*shared_by=*/32);
  m.mem_bw_gbps = 150.0;  // 8-channel DDR4-2666 class
  return m;
}

namespace {

/// Reads a sysfs cache attribute like "32K"/"512K"/"16384K"; 0 on failure.
std::size_t read_sysfs_cache_size(int cpu, int index) {
  const std::string path = "/sys/devices/system/cpu/cpu" +
                           std::to_string(cpu) + "/cache/index" +
                           std::to_string(index) + "/size";
  std::ifstream in(path);
  if (!in) return 0;
  std::size_t value = 0;
  char suffix = 0;
  in >> value >> suffix;
  if (!in) return 0;
  if (suffix == 'K' || suffix == 'k') value *= 1024;
  if (suffix == 'M' || suffix == 'm') value *= 1024 * 1024;
  return value;
}

std::string read_sysfs_string(int cpu, int index, const char* attr) {
  const std::string path = "/sys/devices/system/cpu/cpu" +
                           std::to_string(cpu) + "/cache/index" +
                           std::to_string(index) + "/" + attr;
  std::ifstream in(path);
  std::string s;
  if (in) in >> s;
  return s;
}

MachineDescriptor detect_host() {
  MachineDescriptor m;
  m.name = "host";
  const unsigned hw = std::thread::hardware_concurrency();
  m.cores = hw > 0 ? static_cast<int>(hw) : 1;
  m.frequency_ghz = 2.0;  // conservative default; refined by calibration

  std::ifstream freq(
      "/sys/devices/system/cpu/cpu0/cpufreq/cpuinfo_max_freq");
  if (freq) {
    double khz = 0;
    freq >> khz;
    if (khz > 0) m.frequency_ghz = khz / 1e6;
  }

  // Walk cache indices of cpu0; classify by level + type.
  for (int index = 0; index < 8; ++index) {
    const std::string type = read_sysfs_string(0, index, "type");
    if (type.empty()) break;
    if (type == "Instruction") continue;
    const std::string level_s = read_sysfs_string(0, index, "level");
    const std::size_t size = read_sysfs_cache_size(0, index);
    if (level_s.empty() || size == 0) continue;
    CacheInfo info;
    info.size_bytes = size;
    const std::string assoc = read_sysfs_string(0, index, "ways_of_associativity");
    info.associativity = assoc.empty() ? 8 : std::stoi(assoc);
    switch (level_s[0]) {
      case '1': m.l1d = info; break;
      case '2': m.l2 = info; break;
      case '3': m.l3 = info; break;
      default: break;
    }
  }

  // Fallbacks when sysfs is unavailable (containers often hide it).
  if (!m.l1d.present()) m.l1d = cache(32, 8);
  if (!m.l2.present()) m.l2 = cache(1024, 16);

#if defined(__x86_64__) && defined(__AVX512VL__)
  m.vector_registers = 32;  // XMM0-31 with AVX-512VL
#elif defined(__x86_64__)
  m.vector_registers = 16;
#else
  m.vector_registers = 32;  // AArch64 NEON
#endif
  m.fma_pipes = 2;
  m.load_pipes = 2;
  m.mem_bw_gbps = 25.0;  // conservative single-core host estimate
  return m;
}

}  // namespace

std::uint64_t fingerprint(const MachineDescriptor& m) {
  // FNV-1a over the model-relevant fields: the same quantities that feed
  // solve_tile / solve_blocking / solve_partition, and nothing else.
  // Field order is part of the persisted tuned-table format - append-only.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(m.vector_registers));
  mix(static_cast<std::uint64_t>(m.vector_bits));
  mix(static_cast<std::uint64_t>(m.fma_pipes));
  mix(static_cast<std::uint64_t>(m.load_pipes));
  mix(static_cast<std::uint64_t>(m.cores));
  mix(static_cast<std::uint64_t>(m.l1d.size_bytes));
  mix(static_cast<std::uint64_t>(m.l1d.line_bytes));
  mix(static_cast<std::uint64_t>(m.l1d.associativity));
  mix(static_cast<std::uint64_t>(m.l2.size_bytes));
  mix(static_cast<std::uint64_t>(m.l2.associativity));
  mix(static_cast<std::uint64_t>(m.l2.shared_by_cores));
  mix(static_cast<std::uint64_t>(m.l3.size_bytes));
  mix(static_cast<std::uint64_t>(m.l3.shared_by_cores));
  return h;
}

const MachineDescriptor& host_machine() {
  static const MachineDescriptor m = detect_host();
  return m;
}

NamedMachines paper_machines() {
  static const std::array<MachineDescriptor, 3> machines = {
      phytium_2000p(), kunpeng_920(), thunderx2()};
  return {machines.data(), machines.data() + machines.size()};
}

}  // namespace shalom::arch
