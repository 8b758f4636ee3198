#!/usr/bin/env bash
# Benchmark runner: builds the bench binaries and runs the pinned
# serving matrix - the server-mix scenarios (bench/srv_mix.cpp) and the
# recovery round-trip (bench/recovery.cpp, baseline vs faulted vs healed
# throughput plus time-to-recover percentiles) - merging the JSON
# documents into BENCH_10.json in the repo root.
#
# Gates: all pinned scenario names present; the recovery restoration
# ratio at least 0.9 with at least one recovery observed (a healed
# process must serve within 10% of one that never faulted, and the
# healing path must actually have run). That a loaded tuned table
# reaches the first request is checked exactly by the tier-1 table
# tests (tests/test_table.cpp).
#
# Usage: scripts/bench.sh [--full]
#   --full  paper-scale request counts (4x); default is a quick pass.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)
FULL_FLAG=""
if [[ "${1:-}" == "--full" ]]; then
  FULL_FLAG="--full"
fi

cmake -B build -S .
cmake --build build -j "${JOBS}" --target srv_mix recovery

OUT=BENCH_10.json
SRV_JSON=$(./build/bench/srv_mix ${FULL_FLAG})
RECOVERY_JSON=$(./build/bench/recovery ${FULL_FLAG})

{
  echo '{'
  echo '  "bench": "pr10",'
  echo '  "srv_mix":'
  printf '%s,\n' "${SRV_JSON}" | sed 's/^/  /'
  echo '  "recovery":'
  printf '%s\n' "${RECOVERY_JSON}" | sed 's/^/  /'
  echo '}'
} > "${OUT}"

# Sanity-gate the emitted JSON: every pinned scenario present.
for scenario in warm_small_8clients cold_irregular_burst \
                overload_burst_2x_cap; do
  grep -q "\"name\": \"${scenario}\"" "${OUT}" || {
    echo "bench.sh: scenario ${scenario} missing from ${OUT}" >&2
    exit 1
  }
done
grep -q '"bench": "recovery"' "${OUT}" || {
  echo "bench.sh: recovery section missing from ${OUT}" >&2
  exit 1
}

# Acceptance gate: recovered throughput within 10% of the
# never-faulted baseline, and the healing path actually ran.
ratio=$(grep '"restoration_ratio"' "${OUT}" |
        sed 's/.*"restoration_ratio": \([0-9.]*\).*/\1/')
recoveries=$(grep '"trials"' "${OUT}" |
             sed 's/.*"recoveries": \([0-9]*\).*/\1/')
if [[ -z "${ratio}" || -z "${recoveries}" ]]; then
  echo "bench.sh: could not extract recovery metrics from ${OUT}" >&2
  exit 1
fi
awk -v r="${ratio}" 'BEGIN { exit !(r >= 0.9) }' || {
  echo "bench.sh: restoration ratio ${ratio} is below the 0.9 gate:" \
       "a healed process must serve within 10% of baseline" >&2
  exit 1
}
awk -v n="${recoveries}" 'BEGIN { exit !(n > 0) }' || {
  echo "bench.sh: no recoveries observed: the healing path never ran" >&2
  exit 1
}
echo "bench.sh: recovery gate OK (restoration ratio ${ratio}," \
     "${recoveries} recoveries)"

echo "bench.sh: wrote ${OUT}"
cat "${OUT}"
