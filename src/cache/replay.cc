#include "cache/replay.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "analysis/lints.h"
#include "analysis/render.h"
#include "common/str_util.h"
#include "ltl/ltl_parser.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/request.h"
#include "verify/ltl_verifier.h"
#include "ws/data_parser.h"
#include "ws/spec_parser.h"

namespace wsv {
namespace cache {

namespace {

// -------------------------------------------------------------------
// jobs.jsonl reader. Deliberately minimal: flat objects whose values
// are strings, numbers, booleans, or arrays of strings — the exact
// shape tools/gen_replay.py emits.

class LineParser {
 public:
  explicit LineParser(std::string_view line) : s_(line) {}

  bool ParseObject(ReplayJob* job, std::string* error) {
    SkipWs();
    if (!Consume('{')) return Err(error, "expected '{'");
    SkipWs();
    if (Consume('}')) return true;
    while (true) {
      std::string key, sval;
      if (!ParseString(&key)) return Err(error, "expected key string");
      SkipWs();
      if (!Consume(':')) return Err(error, "expected ':'");
      SkipWs();
      if (key == "pool") {
        if (!ParseStringArray(&job->pool)) {
          return Err(error, "expected string array for \"pool\"");
        }
      } else if (key == "fresh") {
        double num;
        if (!ParseNumber(&num)) return Err(error, "expected number");
        job->fresh = static_cast<int>(num);
      } else if (key == "unchecked") {
        bool b;
        if (!ParseBool(&b)) return Err(error, "expected bool");
        job->unchecked = b;
      } else if (!ParseString(&sval)) {
        return Err(error, "expected string value for \"" + key + "\"");
      } else if (key == "spec") {
        job->spec_path = std::move(sval);
      } else if (key == "spec_text") {
        job->spec_text = std::move(sval);
      } else if (key == "label") {
        job->label = std::move(sval);
      } else if (key == "property") {
        job->property = std::move(sval);
      } else if (key == "db") {
        job->db_path = std::move(sval);
      } else if (key == "db_text") {
        job->db_text = std::move(sval);
      } else {
        return Err(error, "unknown key \"" + key + "\"");
      }
      SkipWs();
      if (Consume(',')) {
        SkipWs();
        continue;
      }
      if (Consume('}')) {
        SkipWs();
        if (pos_ != s_.size()) return Err(error, "trailing content");
        return true;
      }
      return Err(error, "expected ',' or '}'");
    }
  }

 private:
  bool Err(std::string* error, std::string msg) {
    *error = std::move(msg);
    return false;
  }

  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        char e = s_[pos_++];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          default: return false;  // \uXXXX etc. unsupported
        }
      } else {
        out->push_back(c);
      }
    }
    return false;
  }

  bool ParseNumber(double* out) {
    size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    *out = std::atof(std::string(s_.substr(start, pos_ - start)).c_str());
    return true;
  }

  bool ParseBool(bool* out) {
    if (s_.substr(pos_, 4) == "true") {
      pos_ += 4;
      *out = true;
      return true;
    }
    if (s_.substr(pos_, 5) == "false") {
      pos_ += 5;
      *out = false;
      return true;
    }
    return false;
  }

  bool ParseStringArray(std::vector<std::string>* out) {
    if (!Consume('[')) return false;
    SkipWs();
    out->clear();
    if (Consume(']')) return true;
    while (true) {
      std::string s;
      if (!ParseString(&s)) return false;
      out->push_back(std::move(s));
      SkipWs();
      if (Consume(',')) {
        SkipWs();
        continue;
      }
      return Consume(']');
    }
  }

  std::string_view s_;
  size_t pos_ = 0;
};

uint64_t PercentileNs(std::vector<uint64_t> latencies, double p) {
  if (latencies.empty()) return 0;
  std::sort(latencies.begin(), latencies.end());
  const size_t idx = std::min(
      latencies.size() - 1,
      static_cast<size_t>(p * static_cast<double>(latencies.size())));
  return latencies[idx];
}

}  // namespace

StatusOr<std::vector<ReplayJob>> ParseReplayJobs(std::string_view jsonl) {
  std::vector<ReplayJob> jobs;
  size_t line_no = 0;
  size_t start = 0;
  while (start <= jsonl.size()) {
    size_t nl = jsonl.find('\n', start);
    if (nl == std::string_view::npos) nl = jsonl.size();
    std::string_view line = jsonl.substr(start, nl - start);
    start = nl + 1;
    ++line_no;
    // Skip blanks and comments.
    size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string_view::npos || line[first] == '#') continue;
    ReplayJob job;
    std::string error;
    if (!LineParser(line).ParseObject(&job, &error)) {
      return Status::ParseError("jobs line " + std::to_string(line_no) +
                                ": " + error);
    }
    if (job.property.empty()) {
      return Status::ParseError("jobs line " + std::to_string(line_no) +
                                ": missing \"property\"");
    }
    if (job.spec_path.empty() && job.spec_text.empty()) {
      return Status::ParseError("jobs line " + std::to_string(line_no) +
                                ": missing \"spec\" or \"spec_text\"");
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

uint64_t ReplayReport::HitLatencyPercentileNs(double p) const {
  return PercentileNs(hit_latencies_ns, p);
}

double ReplayReport::HitP99OverMissP50() const {
  const uint64_t miss_p50 = PercentileNs(verify_latencies_ns, 0.5);
  if (miss_p50 == 0) return 0;
  return static_cast<double>(HitLatencyPercentileNs(0.99)) /
         static_cast<double>(miss_p50);
}

std::string ReplayReport::ToText() const {
  std::ostringstream out;
  out << "replay: " << requests << " request(s) in "
      << obs::FormatDurationNs(total_ns) << "\n";
  out << "  outcomes: hit=" << hits << " warm=" << warm
      << " miss=" << misses << " invalidated=" << invalidated
      << " error=" << errors << "\n";
  char rate[32];
  std::snprintf(rate, sizeof(rate), "%.3f", RepeatHitRate());
  out << "  repeats: " << repeats << " (" << repeat_hits
      << " served from cache, hit rate " << rate << ")\n";
  out << "  cache-served latency: p50="
      << obs::FormatDurationNs(HitLatencyPercentileNs(0.5))
      << " p99=" << obs::FormatDurationNs(HitLatencyPercentileNs(0.99))
      << "\n";
  char ratio[32];
  std::snprintf(ratio, sizeof(ratio), "%.3f", HitP99OverMissP50());
  out << "  cache-served p99 / verified p50: " << ratio << "\n";
  out << "  products built on cache-served requests: "
      << cached_products_built << "\n";
  out << "  graph nodes / FO leaf work on cache-served requests: "
      << cached_graph_nodes << " / " << cached_fo_leaf_work << "\n";
  return out.str();
}

std::string ReplayReport::ToBenchJson() const {
  std::ostringstream out;
  char rate[32];
  std::snprintf(rate, sizeof(rate), "%.6f", RepeatHitRate());
  char ratio[32];
  std::snprintf(ratio, sizeof(ratio), "%.6f", HitP99OverMissP50());
  out << "{\n  \"context\": {\"replay_requests\": " << requests << "},\n"
      << "  \"benchmarks\": [\n"
      << "    {\n"
      << "      \"name\": \"replay\",\n"
      << "      \"run_type\": \"iteration\",\n"
      << "      \"iterations\": " << requests << ",\n"
      << "      \"real_time\": " << total_ns << ",\n"
      << "      \"cpu_time\": " << total_ns << ",\n"
      << "      \"time_unit\": \"ns\",\n"
      << "      \"hits\": " << hits << ",\n"
      << "      \"warm_hits\": " << warm << ",\n"
      << "      \"misses\": " << misses << ",\n"
      << "      \"invalidated\": " << invalidated << ",\n"
      << "      \"errors\": " << errors << ",\n"
      << "      \"repeats\": " << repeats << ",\n"
      << "      \"repeat_hits\": " << repeat_hits << ",\n"
      << "      \"repeat_hit_rate\": " << rate << ",\n"
      << "      \"cached_products_built\": " << cached_products_built
      << ",\n"
      << "      \"cached_graph_nodes\": " << cached_graph_nodes << ",\n"
      << "      \"cached_fo_leaf_work\": " << cached_fo_leaf_work << ",\n"
      << "      \"hit_p99_over_miss_p50\": " << ratio << ",\n"
      << "      \"hit_p50_ns\": " << HitLatencyPercentileNs(0.5) << ",\n"
      << "      \"hit_p99_ns\": " << HitLatencyPercentileNs(0.99) << "\n"
      << "    }\n  ]\n}\n";
  return out.str();
}

StatusOr<ReplayReport> RunReplay(const std::vector<ReplayJob>& jobs,
                                 const ReplayOptions& options,
                                 VerifyCache* cache) {
  ReplayReport report;
  const uint64_t replay_start = obs::MonotonicNowNs();

  // Parse memos — a replay stream repeats a handful of specs and
  // databases thousands of times; parsing is not what we're measuring.
  std::map<std::string, std::string> file_texts;
  std::map<std::string, std::unique_ptr<WebService>> services;  // by text
  std::map<std::pair<const WebService*, std::string>, TemporalProperty>
      properties;
  std::map<std::pair<const WebService*, std::string>, Instance> databases;
  std::set<Fingerprint> seen;

  auto file_text = [&](const std::string& path) -> StatusOr<std::string> {
    auto it = file_texts.find(path);
    if (it != file_texts.end()) return it->second;
    std::ifstream in(path);
    if (!in) return Status::NotFound("cannot open " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    file_texts[path] = ss.str();
    return ss.str();
  };

  for (size_t i = 0; i < jobs.size(); ++i) {
    const ReplayJob& job = jobs[i];
    ++report.requests;
    const std::string label =
        !job.label.empty() ? job.label : job.spec_path;

    auto fail = [&](const Status& status) {
      ++report.errors;
      if (!options.quiet) {
        std::printf("[%4zu] error        %s\n", i,
                    status.ToString().c_str());
      }
    };

    // Resolve the spec text.
    std::string spec_text = job.spec_text;
    if (spec_text.empty()) {
      auto text = file_text(job.spec_path);
      if (!text.ok()) {
        fail(text.status());
        continue;
      }
      spec_text = std::move(text).value();
    }

    // Parse (memoized by source text).
    auto svc_it = services.find(spec_text);
    if (svc_it == services.end()) {
      auto parsed = ParseServiceSpec(spec_text);
      if (!parsed.ok()) {
        fail(parsed.status());
        continue;
      }
      svc_it = services
                   .emplace(spec_text, std::make_unique<WebService>(
                                           std::move(parsed).value()))
                   .first;
    }
    const WebService& service = *svc_it->second;

    auto prop_it = properties.find({&service, job.property});
    if (prop_it == properties.end()) {
      auto parsed = ParseTemporalProperty(job.property, &service.vocab());
      if (!parsed.ok()) {
        fail(parsed.status());
        continue;
      }
      prop_it = properties
                    .emplace(std::make_pair(&service, job.property),
                             std::move(parsed).value())
                    .first;
    }
    const TemporalProperty& property = prop_it->second;

    const Instance* database = nullptr;
    if (!job.db_path.empty() || !job.db_text.empty()) {
      std::string db_text = job.db_text;
      if (db_text.empty()) {
        auto text = file_text(job.db_path);
        if (!text.ok()) {
          fail(text.status());
          continue;
        }
        db_text = std::move(text).value();
      }
      auto db_it = databases.find({&service, db_text});
      if (db_it == databases.end()) {
        auto parsed = ParseDataFile(db_text, &service.vocab());
        if (!parsed.ok()) {
          fail(parsed.status());
          continue;
        }
        db_it = databases
                    .emplace(std::make_pair(&service, db_text),
                             std::move(parsed).value())
                    .first;
      }
      database = &db_it->second;
    }

    LtlVerifyOptions verify_options;
    for (const std::string& v : job.pool) {
      verify_options.graph.constant_pool.push_back(Value::Intern(v));
    }
    verify_options.db.fresh_values = job.fresh;
    verify_options.require_input_bounded = !job.unchecked;

    const RequestKey key = MakeRequestKey(service, property, database,
                                          verify_options, options.jobs);
    const bool repeat = !seen.insert(key.combined).second;
    if (repeat) ++report.repeats;

    obs::RequestScope scope(label.empty() ? job.property : label);
    std::vector<std::pair<std::string, std::string>> text_fields;
    text_fields.emplace_back("spec_fp", key.spec.ToHex());
    text_fields.emplace_back("property_fp", key.property.ToHex());

    Outcome outcome = Outcome::kMiss;
    CachedVerdict verdict;
    Status verify_status = Status::OK();
    if (cache != nullptr) {
      cache->RegisterSpec(key.spec, spec_text);
      // Exercise the lint tier the way a service front end would: lint
      // once per spec content, serve the rendered text afterwards.
      std::string lint_text;
      if (!cache->LookupLint(key.spec, &lint_text)) {
        analysis::DiagnosticSink sink;
        analysis::LintSpecText(spec_text, &sink);
        cache->InsertLint(key.spec, analysis::RenderText(
                                        sink.diagnostics(), spec_text,
                                        label.empty() ? "<spec>" : label));
      }
      VerifyCache::LookupResult found =
          cache->Lookup(key, label, service, property);
      outcome = found.outcome;
      if (outcome == Outcome::kHit || outcome == Outcome::kWarm) {
        verdict = std::move(found.verdict);
      }
      if (!found.delta.changed_rules.empty()) {
        text_fields.emplace_back("changed_rules",
                                 Join(found.delta.changed_rules, "; "));
      }
      if (found.delta.global) {
        text_fields.emplace_back("invalidate_global",
                                 found.delta.global_reason);
      }
    }

    if (outcome == Outcome::kMiss || outcome == Outcome::kInvalidated) {
      LtlVerifier verifier(&service, verify_options, options.jobs);
      StatusOr<LtlVerifyResult> result =
          database != nullptr ? verifier.VerifyOnDatabase(property, *database)
                              : verifier.Verify(property);
      if (!result.ok()) {
        verify_status = result.status();
      } else {
        verdict.holds = result->holds;
        verdict.witness_text = result->counterexample.has_value()
                                   ? result->counterexample->ToString()
                                   : std::string();
        verdict.databases_checked = result->databases_checked;
        verdict.total_graph_nodes = result->total_graph_nodes;
        verdict.total_product_states = result->total_product_states;
        verdict.complete_within_bounds = result->complete_within_bounds;
        verdict.migrated = false;
        if (cache != nullptr) cache->Insert(key, verdict);
      }
    }

    const obs::MetricsSnapshot& delta = scope.Close();
    const uint64_t latency_ns = scope.ElapsedNs();
    const bool served =
        outcome == Outcome::kHit || outcome == Outcome::kWarm;
    if (served) {
      report.hit_latencies_ns.push_back(latency_ns);
      report.cached_products_built +=
          delta.CounterValue("ltl/products_built");
      report.cached_graph_nodes += delta.CounterValue("config_graph/nodes");
      report.cached_fo_leaf_work += delta.CounterValue("ltl/fo_leaf_queries") +
                                    delta.CounterValue("ltl/fo_leaf_evals");
      if (repeat) ++report.repeat_hits;
    } else {
      report.verify_latencies_ns.push_back(latency_ns);
    }
    switch (outcome) {
      case Outcome::kHit: ++report.hits; break;
      case Outcome::kWarm: ++report.warm; break;
      case Outcome::kInvalidated: ++report.invalidated; break;
      case Outcome::kMiss: ++report.misses; break;
    }
    if (!verify_status.ok()) ++report.errors;

    const char* verdict_str =
        !verify_status.ok() ? "ERROR" : (verdict.holds ? "HOLDS" : "VIOLATED");
    if (options.log_events) {
      text_fields.emplace_back("cache_outcome", OutcomeName(outcome));
      obs::EmitRequestSummary(scope, delta, verdict_str,
                              obs::DeriveOutcome(verify_status, delta),
                              text_fields);
    }
    if (!options.quiet) {
      std::printf("[%4zu] %-11s %-8s %10s  %s\n", i, OutcomeName(outcome),
                  verdict_str, obs::FormatDurationNs(latency_ns).c_str(),
                  job.property.c_str());
    }
  }

  report.total_ns = obs::MonotonicNowNs() - replay_start;
  return report;
}

}  // namespace cache
}  // namespace wsv
