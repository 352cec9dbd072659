#include "obs/report.h"

#include <cstdio>
#include <string>

#include "common/str_util.h"

namespace wsv {
namespace obs {

namespace {

std::string FormatRate(double rate) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", rate * 100.0);
  return buf;
}

}  // namespace

std::string FormatDurationNs(uint64_t ns) {
  char buf[32];
  if (ns < 1000) {
    std::snprintf(buf, sizeof(buf), "%lluns",
                  static_cast<unsigned long long>(ns));
  } else if (ns < 1000 * 1000) {
    std::snprintf(buf, sizeof(buf), "%.1fus", double(ns) / 1e3);
  } else if (ns < 1000ull * 1000 * 1000) {
    std::snprintf(buf, sizeof(buf), "%.1fms", double(ns) / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", double(ns) / 1e9);
  }
  return buf;
}

std::string FormatByteCount(int64_t bytes) {
  char buf[32];
  const char* sign = bytes < 0 ? "-" : "";
  const uint64_t b = bytes < 0 ? static_cast<uint64_t>(-bytes)
                               : static_cast<uint64_t>(bytes);
  if (b < 1024) {
    std::snprintf(buf, sizeof(buf), "%s%lluB", sign,
                  static_cast<unsigned long long>(b));
  } else if (b < 1024ull * 1024) {
    std::snprintf(buf, sizeof(buf), "%s%.1fKB", sign, double(b) / 1024.0);
  } else if (b < 1024ull * 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%s%.1fMB", sign,
                  double(b) / (1024.0 * 1024.0));
  } else {
    std::snprintf(buf, sizeof(buf), "%s%.2fGB", sign,
                  double(b) / (1024.0 * 1024.0 * 1024.0));
  }
  return buf;
}

double LeafMemoHitRate(const MetricsSnapshot& snap) {
  const uint64_t hits = snap.CounterValue("ltl/leaf_memo_hits");
  const uint64_t misses = snap.CounterValue("ltl/leaf_memo_misses");
  if (hits + misses == 0) return -1.0;
  return double(hits) / double(hits + misses);
}

double ValuationCollapseRate(const MetricsSnapshot& snap) {
  const uint64_t checked = snap.CounterValue("ltl/valuations_checked");
  if (checked == 0) return -1.0;
  return double(snap.CounterValue("ltl/class_hits")) / double(checked);
}

double BytecodeCompiledShare(const MetricsSnapshot& snap) {
  // Every verification-path evaluation runs on the VM; fo/interp_evals
  // counts only the witness check's oracle, which is not one of them.
  const uint64_t compiled = snap.CounterValue("fo/bytecode_execs");
  if (compiled == 0) return -1.0;
  return 1.0;
}

double ProgramCacheHitRate(const MetricsSnapshot& snap) {
  const uint64_t hits = snap.CounterValue("fo/bytecode_cache_hits");
  const uint64_t compiles = snap.CounterValue("fo/bytecode_compiles");
  if (hits + compiles == 0) return -1.0;
  return double(hits) / double(hits + compiles);
}

double SliceConeRatio(const MetricsSnapshot& snap) {
  const uint64_t cone = snap.CounterValue("slice/cone_size");
  const uint64_t dropped = snap.CounterValue("slice/relations_dropped");
  if (snap.CounterValue("slice/sliced") == 0 || cone + dropped == 0) {
    return -1.0;
  }
  return double(cone) / double(cone + dropped);
}

double VerifyCacheHitRate(const MetricsSnapshot& snap) {
  const uint64_t requests = snap.CounterValue("cache/requests");
  if (requests == 0) return -1.0;
  return double(snap.CounterValue("cache/hits") +
                snap.CounterValue("cache/warm_hits")) /
         double(requests);
}

std::string FormatStatsTable(const MetricsSnapshot& snap) {
  std::string out;
  char line[256];
  out += "== verification telemetry ==\n";
  if (snap.counters.empty() && snap.histograms.empty() &&
      snap.gauges.empty()) {
    out += "(no telemetry recorded)\n";
    return out;
  }

  bool header = false;
  for (const auto& [name, h] : snap.histograms) {
    constexpr const char* kSpanPrefix = "span/";
    if (name.rfind(kSpanPrefix, 0) != 0) continue;
    if (!header) {
      std::snprintf(line, sizeof(line), "%-34s %10s %10s %10s %10s\n",
                    "phase", "count", "total", "mean", "p90");
      out += line;
      header = true;
    }
    std::snprintf(line, sizeof(line), "%-34s %10llu %10s %10s %10s\n",
                  name.c_str() + 5,
                  static_cast<unsigned long long>(h.count),
                  FormatDurationNs(h.sum).c_str(),
                  FormatDurationNs(static_cast<uint64_t>(h.Mean())).c_str(),
                  FormatDurationNs(h.Percentile(0.90)).c_str());
    out += line;
  }

  header = false;
  for (const auto& [name, h] : snap.histograms) {
    if (name.rfind("span/", 0) == 0) continue;
    if (!header) {
      std::snprintf(line, sizeof(line), "%-34s %10s %10s %10s %10s %10s\n",
                    "histogram", "count", "total", "mean", "p90", "max");
      out += line;
      header = true;
    }
    // The "_ns" suffix marks duration histograms; everything else is a
    // dimensionless size/depth distribution and renders as raw numbers.
    const bool is_duration =
        name.size() >= 3 && name.compare(name.size() - 3, 3, "_ns") == 0;
    auto fmt = [&](uint64_t v) -> std::string {
      return is_duration ? FormatDurationNs(v) : std::to_string(v);
    };
    std::snprintf(line, sizeof(line), "%-34s %10llu %10s %10s %10s %10s\n",
                  name.c_str(), static_cast<unsigned long long>(h.count),
                  fmt(h.sum).c_str(),
                  fmt(static_cast<uint64_t>(h.Mean())).c_str(),
                  fmt(h.Percentile(0.90)).c_str(), fmt(h.max).c_str());
    out += line;
  }

  if (!snap.counters.empty()) {
    std::snprintf(line, sizeof(line), "%-34s %10s\n", "counter", "value");
    out += line;
    for (const auto& [name, value] : snap.counters) {
      std::snprintf(line, sizeof(line), "%-34s %10llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
      out += line;
    }
  }

  if (!snap.gauges.empty()) {
    std::snprintf(line, sizeof(line), "%-34s %10s %10s\n", "memory gauge",
                  "live", "peak");
    out += line;
    for (const auto& [name, value] : snap.gauges) {
      // The "_bytes" suffix marks byte gauges; everything else (entry
      // counts) renders as a raw number.
      const bool is_bytes =
          name.size() >= 6 &&
          name.compare(name.size() - 6, 6, "_bytes") == 0;
      auto fmt = [&](int64_t v) {
        return is_bytes ? FormatByteCount(v) : std::to_string(v);
      };
      std::snprintf(line, sizeof(line), "%-34s %10s %10s\n", name.c_str(),
                    fmt(value).c_str(), fmt(snap.GaugePeak(name)).c_str());
      out += line;
    }
    if (snap.process_peak_rss_bytes > 0) {
      std::snprintf(line, sizeof(line), "%-34s %10s %10s\n",
                    "process rss (VmHWM)", "",
                    FormatByteCount(snap.process_peak_rss_bytes).c_str());
      out += line;
    }
  }

  const double cache_rate = ProgramCacheHitRate(snap);
  if (cache_rate >= 0.0) {
    std::snprintf(
        line, sizeof(line),
        "fo program cache: %llu entries, %s pinned, hit rate %s "
        "(%llu hits / %llu lookups)\n",
        static_cast<unsigned long long>(
            snap.GaugeValue("mem/fo_program_cache_entries")),
        FormatByteCount(snap.GaugeValue("mem/fo_pinned_formula_bytes"))
            .c_str(),
        FormatRate(cache_rate).c_str(),
        static_cast<unsigned long long>(
            snap.CounterValue("fo/bytecode_cache_hits")),
        static_cast<unsigned long long>(
            snap.CounterValue("fo/bytecode_cache_hits") +
            snap.CounterValue("fo/bytecode_compiles")));
    out += line;
  }
  const double memo_rate = LeafMemoHitRate(snap);
  if (memo_rate >= 0.0) {
    std::snprintf(
        line, sizeof(line),
        "fo-leaf memo hit rate: %s (%llu hits / %llu lookups)\n",
        FormatRate(memo_rate).c_str(),
        static_cast<unsigned long long>(
            snap.CounterValue("ltl/leaf_memo_hits")),
        static_cast<unsigned long long>(
            snap.CounterValue("ltl/leaf_memo_hits") +
            snap.CounterValue("ltl/leaf_memo_misses")));
    out += line;
  }
  const uint64_t leaf_queries = snap.CounterValue("ltl/fo_leaf_queries");
  const uint64_t leaf_fallbacks =
      snap.CounterValue("ltl/fo_leaf_fallbacks");
  if (leaf_queries + leaf_fallbacks > 0) {
    std::snprintf(line, sizeof(line),
                  "fo leaf evaluation: %llu queries, %llu per-binding "
                  "fallbacks\n",
                  static_cast<unsigned long long>(leaf_queries),
                  static_cast<unsigned long long>(leaf_fallbacks));
    out += line;
  }
  const auto successor = snap.histograms.find("runtime/successor_ns");
  if (successor != snap.histograms.end() && successor->second.count > 0) {
    std::snprintf(line, sizeof(line),
                  "successor generation: %llu nodes expanded in %s "
                  "(%s per node)\n",
                  static_cast<unsigned long long>(successor->second.count),
                  FormatDurationNs(successor->second.sum).c_str(),
                  FormatDurationNs(static_cast<uint64_t>(
                                       successor->second.Mean()))
                      .c_str());
    out += line;
  }
  const double collapse_rate = ValuationCollapseRate(snap);
  if (collapse_rate >= 0.0) {
    std::snprintf(
        line, sizeof(line),
        "valuation collapse rate: %s (%llu of %llu products skipped)\n",
        FormatRate(collapse_rate).c_str(),
        static_cast<unsigned long long>(snap.CounterValue("ltl/class_hits")),
        static_cast<unsigned long long>(
            snap.CounterValue("ltl/valuations_checked")));
    out += line;
  }
  const double compiled_share = BytecodeCompiledShare(snap);
  if (compiled_share >= 0.0) {
    std::snprintf(
        line, sizeof(line),
        "fo eval engine: %s VM (%llu VM runs; %llu witness-check oracle "
        "evaluations)\n",
        FormatRate(compiled_share).c_str(),
        static_cast<unsigned long long>(
            snap.CounterValue("fo/bytecode_execs")),
        static_cast<unsigned long long>(
            snap.CounterValue("fo/interp_evals")));
    out += line;
  }
  const double cone_ratio = SliceConeRatio(snap);
  if (cone_ratio >= 0.0) {
    std::snprintf(
        line, sizeof(line),
        "slice cone ratio: %s (%llu relations kept / %llu dropped, "
        "%llu rules dropped)\n",
        FormatRate(cone_ratio).c_str(),
        static_cast<unsigned long long>(
            snap.CounterValue("slice/cone_size")),
        static_cast<unsigned long long>(
            snap.CounterValue("slice/relations_dropped")),
        static_cast<unsigned long long>(
            snap.CounterValue("slice/rules_dropped")));
    out += line;
  }
  const double verify_cache_rate = VerifyCacheHitRate(snap);
  if (verify_cache_rate >= 0.0) {
    std::snprintf(
        line, sizeof(line),
        "verify cache hit rate: %s (%llu hit + %llu warm / %llu requests, "
        "%llu entries, %s)\n",
        FormatRate(verify_cache_rate).c_str(),
        static_cast<unsigned long long>(snap.CounterValue("cache/hits")),
        static_cast<unsigned long long>(
            snap.CounterValue("cache/warm_hits")),
        static_cast<unsigned long long>(snap.CounterValue("cache/requests")),
        static_cast<unsigned long long>(
            snap.GaugeValue("mem/verify_cache_entries")),
        FormatByteCount(snap.GaugeValue("mem/verify_cache_bytes")).c_str());
    out += line;
  }
  return out;
}

std::string StatsToJson(const MetricsSnapshot& snap) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    AppendJsonEscaped(name, &out);
    out += "\": " + std::to_string(value);
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  char buf[64];
  for (const auto& [name, h] : snap.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    AppendJsonEscaped(name, &out);
    out += "\": {\"count\": " + std::to_string(h.count) +
           ", \"sum_ns\": " + std::to_string(h.sum);
    std::snprintf(buf, sizeof(buf), ", \"mean_ns\": %.1f", h.Mean());
    out += buf;
    out += ", \"p50_ns\": " + std::to_string(h.Percentile(0.50)) +
           ", \"p90_ns\": " + std::to_string(h.Percentile(0.90)) +
           ", \"p99_ns\": " + std::to_string(h.Percentile(0.99)) +
           ", \"max\": " + std::to_string(h.max) + "}";
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    AppendJsonEscaped(name, &out);
    out += "\": " + std::to_string(value);
  }
  out += "\n  },\n  \"gauge_peaks\": {";
  first = true;
  for (const auto& [name, value] : snap.gauge_peaks) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    AppendJsonEscaped(name, &out);
    out += "\": " + std::to_string(value);
  }
  out += "\n  },\n  \"process_peak_rss_bytes\": " +
         std::to_string(snap.process_peak_rss_bytes);
  out += ",\n  \"derived\": {";
  const double memo_rate = LeafMemoHitRate(snap);
  bool first_derived = true;
  if (memo_rate >= 0.0) {
    std::snprintf(buf, sizeof(buf), "\n    \"fo_leaf_memo_hit_rate\": %.4f",
                  memo_rate);
    out += buf;
    first_derived = false;
  }
  const uint64_t leaf_queries = snap.CounterValue("ltl/fo_leaf_queries");
  const uint64_t leaf_fallbacks =
      snap.CounterValue("ltl/fo_leaf_fallbacks");
  if (leaf_queries + leaf_fallbacks > 0) {
    out += first_derived ? "\n" : ",\n";
    out += "    \"fo_leaf_queries\": " + std::to_string(leaf_queries) +
           ",\n    \"fo_leaf_fallbacks\": " + std::to_string(leaf_fallbacks);
    first_derived = false;
  }
  const auto successor = snap.histograms.find("runtime/successor_ns");
  if (successor != snap.histograms.end() && successor->second.count > 0) {
    out += first_derived ? "\n" : ",\n";
    out += "    \"successor_ns\": " + std::to_string(successor->second.sum);
    std::snprintf(buf, sizeof(buf), ",\n    \"successor_ns_per_node\": %.1f",
                  successor->second.Mean());
    out += buf;
    first_derived = false;
  }
  const double collapse_rate = ValuationCollapseRate(snap);
  if (collapse_rate >= 0.0) {
    std::snprintf(buf, sizeof(buf), "%s    \"valuation_collapse_rate\": %.4f",
                  first_derived ? "\n" : ",\n", collapse_rate);
    out += buf;
    first_derived = false;
  }
  const double compiled_share = BytecodeCompiledShare(snap);
  if (compiled_share >= 0.0) {
    std::snprintf(buf, sizeof(buf),
                  "%s    \"fo_bytecode_compiled_share\": %.4f",
                  first_derived ? "\n" : ",\n", compiled_share);
    out += buf;
    first_derived = false;
  }
  const double cache_rate = ProgramCacheHitRate(snap);
  if (cache_rate >= 0.0) {
    std::snprintf(buf, sizeof(buf),
                  "%s    \"fo_program_cache_hit_rate\": %.4f",
                  first_derived ? "\n" : ",\n", cache_rate);
    out += buf;
    first_derived = false;
  }
  const double cone_ratio = SliceConeRatio(snap);
  if (cone_ratio >= 0.0) {
    std::snprintf(buf, sizeof(buf), "%s    \"slice_cone_ratio\": %.4f",
                  first_derived ? "\n" : ",\n", cone_ratio);
    out += buf;
    first_derived = false;
  }
  const double verify_cache_rate = VerifyCacheHitRate(snap);
  if (verify_cache_rate >= 0.0) {
    std::snprintf(buf, sizeof(buf), "%s    \"cache_hit_rate\": %.4f",
                  first_derived ? "\n" : ",\n", verify_cache_rate);
    out += buf;
  }
  out += "\n  }\n}\n";
  return out;
}

}  // namespace obs
}  // namespace wsv
