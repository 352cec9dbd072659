// Rendering of metric snapshots: the human-readable phase/counter table
// behind `wsvcli verify --stats` and the machine-readable JSON behind
// `--stats-json` (also merged into the bench reports).

#ifndef WSV_OBS_REPORT_H_
#define WSV_OBS_REPORT_H_

#include <string>

#include "obs/metrics.h"

namespace wsv {
namespace obs {

/// Human-readable duration, e.g. "412ns", "3.1us", "24.7ms", "1.30s".
std::string FormatDurationNs(uint64_t ns);

/// Human-readable byte count, e.g. "812B", "3.1KB", "24.7MB", "1.30GB".
std::string FormatByteCount(int64_t bytes);

/// The phase table: one row per span histogram (count/total/mean/p90),
/// then every other histogram, then all counters, then the memory
/// gauges (live bytes per subsystem), then derived rows (FO-leaf memo
/// hit rate, program-cache occupancy, successor-generation time per
/// expanded node). Multi-line, trailing newline.
std::string FormatStatsTable(const MetricsSnapshot& snap);

/// {"counters":{...},"histograms":{name:{count,sum_ns,mean_ns,p50_ns,
/// p90_ns,p99_ns}},"gauges":{...},"derived":{...}} with a trailing
/// newline.
std::string StatsToJson(const MetricsSnapshot& snap);

/// hits / (hits + misses) of the FO-leaf truth memo, or -1 when there
/// were no lookups.
double LeafMemoHitRate(const MetricsSnapshot& snap);

/// class_hits / valuations_checked — the fraction of valuations whose
/// product build + emptiness run the equivalence-class collapse
/// skipped. -1 when no valuations were swept.
double ValuationCollapseRate(const MetricsSnapshot& snap);

/// The share of verification-path FO evaluations served by the bytecode
/// VM. The VM is the only engine of every verification path, so this is
/// 1 whenever it ran (fo/bytecode_execs > 0) and -1 otherwise: the
/// plan-free oracle's evaluations (fo/interp_evals) belong to witness
/// validation (fo/evaluator.h), and reports list them as such.
double BytecodeCompiledShare(const MetricsSnapshot& snap);

/// cache_hits / (cache_hits + compiles) of the FO program cache, or -1
/// when no formula was ever looked up.
double ProgramCacheHitRate(const MetricsSnapshot& snap);

/// (cache/hits + cache/warm_hits) / cache/requests — the fraction of
/// verification requests served by the cross-request verification
/// cache. -1 when no request went through a cache.
double VerifyCacheHitRate(const MetricsSnapshot& snap);

/// slice/cone_size / (slice/cone_size + slice/relations_dropped) — the
/// share of relation symbols the property cones retained, summed over
/// every sliced request. -1 when the slicer never produced a slice.
double SliceConeRatio(const MetricsSnapshot& snap);

}  // namespace obs
}  // namespace wsv

#endif  // WSV_OBS_REPORT_H_
