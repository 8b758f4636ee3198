// Fixture: registry-drift - registries that drift from the fake docs
// (drift_design.md, drift_api.md), fake tests (drift_tests/) and fake
// tier1 script (drift_tier1.sh) the lint tests point the analyzer at.
#define SHALOM_FAULT_SITES(X)        \
  X(kDriftArmed, "drift.armed_site") \
  X(kDriftOrphan, "drift.orphan_site")
typedef enum shalom_status {
  SHALOM_DRIFT_TESTED = 0,
  SHALOM_DRIFT_NO_STRERROR = 1,
  SHALOM_DRIFT_NO_APIROW = 2,
  SHALOM_DRIFT_NO_TEST = 3
} shalom_status;
const char* status_string(int code) {
  switch (code) {
    case SHALOM_DRIFT_TESTED: return "ok";
    case SHALOM_DRIFT_NO_APIROW: return "missing api row";
    case SHALOM_DRIFT_NO_TEST: return "untested";
  }
  return "unknown";
}
#define SHALOM_ROBUSTNESS_COUNTERS(X)                          \
  X(kDriftDocumentedCounter, drift_documented_counter, kCount) \
  X(kDriftOrphanCounter, drift_orphan_counter, kCount)         \
  X(kDriftUntestedCounter, drift_untested_counter, kCount)
const char* fixture_env_keys[] = {"SHALOM_DRIFT_DOCUMENTED_KEY",
                                  "SHALOM_DRIFT_ORPHAN_KEY",
                                  "SHALOM_DRIFT_UNTESTED_KEY"};
