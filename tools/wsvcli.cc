// wsvcli — the command-line front end of the verifier.
//
//   wsvcli validate <spec.wsv>
//       Parse and statically validate a specification.
//   wsvcli print <spec.wsv>
//       Pretty-print the parsed specification.
//   wsvcli classify <spec.wsv>
//       Report membership in the paper's decidable classes.
//   wsvcli run <spec.wsv> <db.wsd> [--steps N] [--seed S] [--pool a,b,c]
//       Simulate a pseudo-random user session and print the pages.
//   wsvcli check-errors <spec.wsv> [db.wsd] [--pool a,b,c] [--fresh N]
//       Search for runs that reach the error page (Definition 2.3's
//       conditions i-iii); without a database, enumerate databases up to
//       the bound.
//   wsvcli verify <spec.wsv> <property> [db.wsd] [--pool a,b,c]
//                 [--fresh N] [--unchecked] [--jobs N]
//                 [--stats] [--stats-json FILE]
//                 [--trace-out FILE] [--progress] [--log-json FILE]
//                 [--heartbeat SECS] [--watchdog-deadline SECS]
//                 [--step-budget N]
//       Verify an LTL-FO property (Theorem 3.5); --unchecked skips the
//       input-boundedness gate. Without a database, every database up
//       to the --fresh bound is checked by deciding its facts as runs
//       probe them. The product is searched on-the-fly
//       (configurations expanded only as the nested DFS reaches them,
//       stopping at the first accepting cycle). --jobs N fans the
//       valuation sweep over N worker threads (default: one per
//       hardware thread; 1 = serial). Verdict and witness are
//       identical at any job count. FO formulas run on the bytecode
//       VM (src/fo/bytecode/); witness validation re-checks a
//       counterexample with the plan-free oracle (src/fo/evaluator.h).
//       Telemetry: --stats prints the phase/counter/memory table to
//       stderr, --stats-json writes the counter snapshot as JSON,
//       --trace-out writes a Chrome/Perfetto trace-event file of the
//       pipeline spans, and --progress prints a once-a-second heartbeat
//       for long sweeps. --log-json streams a wide-event JSONL log (one
//       self-contained event per request phase — parse, lint,
//       db_check_create, product, emptiness, witness_check — plus a terminal "request"
//       event with the verdict, outcome, and the exact counter delta
//       attributed to this request; see src/obs/events.h). --heartbeat S
//       prints watchdog progress lines every S seconds;
//       --watchdog-deadline S reports any phase still open after S
//       seconds as a "stall" event (0 flags everything, for tests).
//       --step-budget N caps each bytecode-VM execution at N steps
//       (kResourceExhausted beyond it; the default is effectively
//       unlimited). JSON artifacts (--stats-json, --trace-out,
//       --log-json) are written to a temp sibling and published by
//       atomic rename, so a crashed run never leaves a truncated file.
//       Telemetry is flushed on every outcome — PASS, counterexample,
//       error, or cancellation — so partial sweeps are still measurable.
//       --cache-dir DIR consults the cross-request verification cache
//       (src/cache/) before running the verifier: an exact-fingerprint
//       hit or an edit-migrated warm entry is served verbatim (the
//       printed verdict is byte-identical to the cold run), a miss
//       verifies and publishes the verdict to DIR. --label NAME sets the
//       edit-chain identity used for incremental invalidation (default:
//       the spec path). WSV_DISABLE_VERIFY_CACHE=1 bypasses the cache.
//       --no-slice disables the property-directed cone slicer for this
//       verification (see `deps` below and DESIGN.md §10): every sweep
//       then runs the full spec directly instead of probing the reduced
//       one first. Verdict and witness are identical either way; the
//       flag exists for A/B runs and debugging. WSV_DISABLE_SLICE=1
//       changes the default the same way.
//       The WSV_DISABLE_* variables share one rule: set to a non-empty
//       value other than "0" turns the feature off.
//   wsvcli deps <spec.wsv> [--property P] [--format=dot|json]
//       Dump the whole-spec dependence graph (src/analysis/depgraph.h):
//       relations, constants, and rules as nodes, reads-edges between
//       them. With --property, additionally mark each node as inside or
//       outside the property's cone of influence — exactly the cone the
//       verifier slices against — and print a summary to stderr. dot
//       renders for graphviz; json is machine-checkable (see
//       tools/check_deps_graph.py).
//   wsvcli replay <jobs.jsonl> [--cache-dir DIR] [--jobs N]
//                 [--quiet] [--bench-json FILE] [--stats]
//                 [--stats-json FILE] [--log-json FILE] [--trace-out F]
//       Feed a JSONL request stream (one {"spec": ..., "property": ...}
//       object per line; see src/cache/replay.h for the schema) through
//       the verification cache and report hit rates, per-outcome counts,
//       and hit-latency percentiles. --bench-json writes the report in
//       google-benchmark JSON schema for tools/bench_guard.py budgets;
//       --quiet suppresses the per-request progress lines.
//   wsvcli verify-ctl <spec.wsv> <property> <db.wsd> [--pool a,b,c]
//       Verify a propositional CTL / CTL* property on the service's
//       Kripke structure over the given database (Theorem 4.4).
//   wsvcli lint <spec.wsv> [--format=text|json|sarif] [--werror]
//       Static analysis: reports *every* finding in one pass — parse and
//       well-formedness errors (WSV-PARSE/VAL-*), decidability-frontier
//       notes anchored to the paper's theorems (WSV-IB-*), navigation
//       and dead-symbol warnings (WSV-NAV-*, WSV-DEAD-*, WSV-DOM-*).
//       Exit code: 2 on errors, 1 on warnings under --werror, else 0.
//
// Parse and validation failures exit non-zero on every subcommand, with
// annotated diagnostics on stderr rendered by the same engine as lint.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/depgraph.h"
#include "analysis/lints.h"
#include "analysis/render.h"
#include "cache/replay.h"
#include "cache/verify_cache.h"
#include "common/file_util.h"
#include "common/str_util.h"
#include "ctl/ctl_check.h"
#include "ctl/ctl_star_check.h"
#include "fo/bytecode/vm.h"
#include "ltl/ltl_parser.h"
#include "obs/events.h"
#include "obs/report.h"
#include "obs/request.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "runtime/interpreter.h"
#include "verify/abstraction.h"
#include "verify/db_enum.h"
#include "verify/error_free.h"
#include "verify/ltl_verifier.h"
#include "verify/witness_check.h"
#include "ws/classify.h"
#include "ws/data_parser.h"
#include "ws/spec_parser.h"
#include "ws/validate.h"

namespace wsv {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  wsvcli validate <spec.wsv>\n"
      "  wsvcli print <spec.wsv>\n"
      "  wsvcli classify <spec.wsv>\n"
      "  wsvcli run <spec.wsv> <db.wsd> [--steps N] [--seed S] "
      "[--pool a,b,c]\n"
      "  wsvcli check-errors <spec.wsv> [db.wsd] [--pool a,b,c] "
      "[--fresh N]\n"
      "  wsvcli verify <spec.wsv> <property> [db.wsd] [--pool a,b,c] "
      "[--fresh N] [--unchecked] [--jobs N] "
      "[--stats] [--stats-json FILE] [--trace-out FILE] [--progress] "
      "[--log-json FILE] [--heartbeat SECS] [--watchdog-deadline SECS] "
      "[--step-budget N] [--cache-dir DIR] [--label NAME] [--no-slice]\n"
      "  wsvcli deps <spec.wsv> [--property P] [--format=dot|json]\n"
      "  wsvcli replay <jobs.jsonl> [--cache-dir DIR] [--jobs N] "
      "[--quiet] [--bench-json FILE] [--stats] "
      "[--stats-json FILE] [--log-json FILE] [--trace-out FILE]\n"
      "  wsvcli verify-ctl <spec.wsv> <property> <db.wsd> "
      "[--pool a,b,c]\n"
      "  wsvcli lint <spec.wsv> [--format=text|json|sarif] [--werror]\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// The HOLDS line of `verify`, computed or served from the cache.
std::string HoldsLine(uint64_t databases, uint64_t nodes, uint64_t states,
                      bool complete) {
  return WithinBoundsLine(
      "HOLDS", databases,
      {{nodes, "graph nodes"}, {states, "product states"}}, complete);
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct Flags {
  std::vector<std::string> positional;
  int steps = 20;
  uint64_t seed = 0;
  int fresh = 1;
  bool unchecked = false;
  /// Worker threads for `verify`; 0 = one per hardware thread.
  int jobs = 0;
  std::vector<Value> pool;
  /// Observability surface (verify): human table, JSON snapshot, Chrome
  /// trace file, heartbeat.
  bool stats = false;
  std::string stats_json;
  std::string trace_out;
  bool progress = false;
  /// Wide-event JSONL log (obs/events.h); empty = disabled.
  std::string log_json;
  /// Watchdog progress-line interval in seconds; 0 = disabled.
  double heartbeat_secs = 0.0;
  /// Watchdog stall deadline in seconds; < 0 = disabled, 0 flags every
  /// phase still open at the first sweep (deterministic for tests).
  double watchdog_deadline_secs = -1.0;
  /// Bytecode-VM step budget per execution; < 0 = keep the default.
  long long step_budget = -1;
  /// Cross-request verification cache root (verify/replay); empty =
  /// no cache for `verify`, memory-only for `replay`.
  std::string cache_dir;
  /// Edit-chain identity for the cache (default: the spec path).
  std::string label;
  /// Replay: write the report as google-benchmark JSON to this path.
  std::string bench_json;
  /// Replay: suppress per-request progress lines.
  bool quiet = false;
  /// Lint output format: "text", "json", or "sarif".
  std::string format = "text";
  /// Lint: treat warnings as errors (exit 1 when any warning fires).
  bool werror = false;
  /// Verify: disable the property-directed cone slicer.
  bool no_slice = false;
  /// Deps: property whose cone of influence to highlight; empty = none.
  std::string property;
  /// Every flag given, by its name ("--format" also for "--format=X"),
  /// in command-line order; checked against the subcommand's set.
  std::vector<std::string> given;
};

// The flags each subcommand reads. A known flag given to a subcommand
// that ignores it is a usage error, never a silent default. The FO
// engine flag --step-budget applies to every subcommand that evaluates
// rules or properties.
const std::vector<std::string>* AcceptedFlags(const std::string& cmd) {
  static const auto* const kAccepted =
      new std::map<std::string, std::vector<std::string>>{
          {"validate", {}},
          {"print", {}},
          {"classify", {}},
          {"run", {"--steps", "--seed", "--pool", "--step-budget"}},
          {"check-errors", {"--pool", "--fresh", "--step-budget"}},
          {"verify",
           {"--pool", "--fresh", "--unchecked", "--jobs", "--stats",
            "--stats-json", "--trace-out", "--progress", "--log-json",
            "--heartbeat", "--watchdog-deadline", "--step-budget",
            "--cache-dir", "--label", "--no-slice"}},
          {"deps", {"--property", "--format"}},
          {"replay",
           {"--cache-dir", "--jobs", "--quiet", "--bench-json", "--stats",
            "--stats-json", "--log-json", "--trace-out", "--step-budget"}},
          {"verify-ctl", {"--pool", "--unchecked", "--step-budget"}},
          {"lint", {"--format", "--werror"}},
      };
  auto it = kAccepted->find(cmd);
  return it == kAccepted->end() ? nullptr : &it->second;
}

// Fails on the first given flag `cmd` does not read.
Status CheckFlagsAccepted(const std::string& cmd, const Flags& flags) {
  const std::vector<std::string>* accepted = AcceptedFlags(cmd);
  if (accepted == nullptr) return Status::OK();  // unknown subcommand
  for (const std::string& flag : flags.given) {
    if (std::find(accepted->begin(), accepted->end(), flag) ==
        accepted->end()) {
      return Status::InvalidArgument("flag " + flag +
                                     " is not accepted by " + cmd);
    }
  }
  return Status::OK();
}

// A numeric flag value: the whole token must be one number in [lo, hi]
// (no sign for unsigned flags, no leading blanks, no trailing garbage);
// anything else names the flag and the offending token.
template <typename T>
StatusOr<T> ParseNumberFlag(const std::string& flag, const std::string& text,
                            T lo, T hi) {
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !(value >= lo && value <= hi)) {
    return Status::InvalidArgument("bad value for " + flag + ": " + text);
  }
  return value;
}

StatusOr<Flags> ParseFlags(int argc, char** argv) {
  Flags flags;
  constexpr double kMaxSeconds = std::numeric_limits<double>::max();
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> StatusOr<std::string> {
      if (i + 1 >= argc) {
        return Status::InvalidArgument("missing value for " + arg);
      }
      return std::string(argv[++i]);
    };
    auto number = [&](auto lo, auto hi) -> StatusOr<decltype(lo)> {
      WSV_ASSIGN_OR_RETURN(std::string v, next());
      return ParseNumberFlag(arg, v, lo, hi);
    };
    if (StartsWith(arg, "--")) {
      flags.given.push_back(arg.substr(0, arg.find('=')));
    }
    if (arg == "--steps") {
      WSV_ASSIGN_OR_RETURN(flags.steps, number(0, INT_MAX));
    } else if (arg == "--seed") {
      WSV_ASSIGN_OR_RETURN(flags.seed, number(uint64_t{0}, UINT64_MAX));
    } else if (arg == "--fresh") {
      WSV_ASSIGN_OR_RETURN(flags.fresh, number(0, INT_MAX));
    } else if (arg == "--unchecked") {
      flags.unchecked = true;
    } else if (arg == "--jobs") {
      WSV_ASSIGN_OR_RETURN(flags.jobs, number(0, INT_MAX));
    } else if (arg == "--stats") {
      flags.stats = true;
    } else if (arg == "--stats-json") {
      WSV_ASSIGN_OR_RETURN(flags.stats_json, next());
    } else if (arg == "--trace-out") {
      WSV_ASSIGN_OR_RETURN(flags.trace_out, next());
    } else if (arg == "--progress") {
      flags.progress = true;
    } else if (arg == "--log-json") {
      WSV_ASSIGN_OR_RETURN(flags.log_json, next());
    } else if (arg == "--heartbeat") {
      WSV_ASSIGN_OR_RETURN(flags.heartbeat_secs, number(0.0, kMaxSeconds));
    } else if (arg == "--watchdog-deadline") {
      WSV_ASSIGN_OR_RETURN(flags.watchdog_deadline_secs,
                           number(0.0, kMaxSeconds));
    } else if (arg == "--step-budget") {
      WSV_ASSIGN_OR_RETURN(flags.step_budget, number(0LL, LLONG_MAX));
    } else if (arg == "--cache-dir") {
      WSV_ASSIGN_OR_RETURN(flags.cache_dir, next());
    } else if (arg == "--label") {
      WSV_ASSIGN_OR_RETURN(flags.label, next());
    } else if (arg == "--bench-json") {
      WSV_ASSIGN_OR_RETURN(flags.bench_json, next());
    } else if (arg == "--quiet") {
      flags.quiet = true;
    } else if (arg == "--werror") {
      flags.werror = true;
    } else if (arg == "--no-slice") {
      flags.no_slice = true;
    } else if (arg == "--property") {
      WSV_ASSIGN_OR_RETURN(flags.property, next());
    } else if (arg == "--format") {
      WSV_ASSIGN_OR_RETURN(flags.format, next());
    } else if (StartsWith(arg, "--format=")) {
      flags.format = arg.substr(std::strlen("--format="));
    } else if (arg == "--pool") {
      WSV_ASSIGN_OR_RETURN(std::string v, next());
      for (const std::string& piece : Split(v, ',')) {
        if (!piece.empty()) flags.pool.push_back(Value::Intern(piece));
      }
    } else if (StartsWith(arg, "--")) {
      return Status::InvalidArgument("unknown flag: " + arg);
    } else {
      flags.positional.push_back(arg);
    }
  }
  return flags;
}

// Loads and validates a service. On parse or validation failure, every
// diagnostic is rendered (annotated source) to stderr — the same engine
// `lint` uses — and the error status is returned so all subcommands exit
// non-zero consistently.
StatusOr<WebService> LoadService(const std::string& path,
                                 std::string* text_out = nullptr) {
  WSV_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  if (text_out != nullptr) *text_out = text;
  StatusOr<WebService> service = ParseServiceSpec(text);
  if (!service.ok()) {
    analysis::DiagnosticSink sink;
    StatusOr<WebService> parsed = ParseServiceSpecWithoutValidation(text);
    if (!parsed.ok()) {
      sink.Report("WSV-PARSE-001", analysis::Severity::kError,
                  analysis::SpanFromMessage(parsed.status().message()),
                  parsed.status().message());
    } else {
      ValidateServiceDiagnostics(*parsed, &sink);
      sink.SortBySpan();
    }
    std::fputs(analysis::RenderText(sink.diagnostics(), text, path).c_str(),
               stderr);
  }
  return service;
}

StatusOr<Instance> LoadDatabase(const std::string& path,
                                const Vocabulary& vocab) {
  WSV_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return ParseDataFile(text, &vocab);
}

int CmdValidate(const Flags& flags) {
  if (flags.positional.empty()) return Usage();
  auto service = LoadService(flags.positional[0]);
  if (!service.ok()) return Fail(service.status());
  std::printf("OK: %s (%zu pages)\n", service->name().c_str(),
              service->pages().size());
  return 0;
}

int CmdPrint(const Flags& flags) {
  if (flags.positional.empty()) return Usage();
  auto service = LoadService(flags.positional[0]);
  if (!service.ok()) return Fail(service.status());
  std::printf("%s", service->ToString().c_str());
  return 0;
}

int CmdClassify(const Flags& flags) {
  if (flags.positional.empty()) return Usage();
  auto service = LoadService(flags.positional[0]);
  if (!service.ok()) return Fail(service.status());
  std::printf("%s", ClassifyService(*service).ToString().c_str());
  return 0;
}

int CmdRun(const Flags& flags) {
  if (flags.positional.size() < 2) return Usage();
  auto service = LoadService(flags.positional[0]);
  if (!service.ok()) return Fail(service.status());
  auto db = LoadDatabase(flags.positional[1], service->vocab());
  if (!db.ok()) return Fail(db.status());
  std::vector<Value> pool = flags.pool;
  if (pool.empty()) {
    pool.assign(db->domain().begin(), db->domain().end());
    if (pool.empty()) pool.push_back(Value::Intern("u0"));
  }
  RandomInputProvider provider(flags.seed, pool);
  Interpreter interp(&*service, &*db);
  auto run = interp.Run(provider, flags.steps);
  if (!run.ok()) return Fail(run.status());
  for (size_t i = 0; i < run->trace.size(); ++i) {
    std::printf("step %zu: %s\n", i, run->trace[i].ToString().c_str());
  }
  std::printf("pages:");
  for (const std::string& p : run->page_sequence) {
    std::printf(" %s", p.c_str());
  }
  std::printf("\nreached error page: %s\n",
              run->reached_error ? run->error_reason.c_str() : "no");
  return run->reached_error ? 3 : 0;
}

int CmdCheckErrors(const Flags& flags) {
  if (flags.positional.empty()) return Usage();
  auto service = LoadService(flags.positional[0]);
  if (!service.ok()) return Fail(service.status());
  ErrorFreeOptions options;
  options.graph.constant_pool = flags.pool;
  options.db.fresh_values = flags.fresh;
  StatusOr<ErrorFreeResult> result = Status::Internal("check not run");
  if (flags.positional.size() >= 2) {
    auto db = LoadDatabase(flags.positional[1], service->vocab());
    if (!db.ok()) return Fail(db.status());
    result = CheckErrorFreeOnDatabase(*service, *db, options);
  } else {
    result = CheckErrorFree(*service, options);
  }
  if (!result.ok()) return Fail(result.status());
  if (result->error_free) {
    std::printf("%s\n",
                WithinBoundsLine(
                    "error-free", result->databases_checked,
                    {{result->total_graph_nodes, "configurations"}},
                    result->complete_within_bounds)
                    .c_str());
    return 0;
  }
  // Replay the witness path through the runtime stepper before
  // presenting it, as verify does for its counterexamples.
  const Status witness_ok = ValidateErrorWitness(*service, *result->witness);
  if (!witness_ok.ok()) {
    std::fprintf(stderr, "warning: witness failed validation: %s\n",
                 witness_ok.ToString().c_str());
  }
  std::printf("NOT error-free; witness:\n%s",
              result->witness->ToString().c_str());
  return 3;
}

// Once-a-second counter heartbeat on stderr while a long sweep runs.
class ProgressHeartbeat {
 public:
  ProgressHeartbeat()
      : start_ns_(obs::MonotonicNowNs()),
        thread_([this] { Loop(); }) {}

  ~ProgressHeartbeat() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!done_) {
      if (cv_.wait_for(lock, std::chrono::seconds(1),
                       [this] { return done_; })) {
        return;
      }
      obs::MetricsSnapshot snap = obs::SnapshotMetrics();
      std::fprintf(
          stderr,
          "progress[%s]: checks=%llu graph_nodes=%llu valuations=%llu "
          "product_states=%llu cex=%llu\n",
          obs::FormatDurationNs(obs::MonotonicNowNs() - start_ns_).c_str(),
          static_cast<unsigned long long>(
              snap.CounterValue("verify/databases")),
          static_cast<unsigned long long>(
              snap.CounterValue("config_graph/nodes")),
          static_cast<unsigned long long>(
              snap.CounterValue("ltl/valuations_checked")),
          static_cast<unsigned long long>(
              snap.CounterValue("ltl/product_states")),
          static_cast<unsigned long long>(
              snap.CounterValue("ltl/counterexamples_found")));
      std::fflush(stderr);
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  uint64_t start_ns_;
  std::thread thread_;
};

// Flushes the telemetry the user asked for. Called on *every* verify
// outcome — clean PASS, counterexample, error, or cancellation — so a
// partial sweep still reports what it did before stopping.
void EmitVerifyTelemetry(const Flags& flags) {
  if (flags.stats || !flags.stats_json.empty()) {
    obs::MetricsSnapshot snap = obs::SnapshotMetrics();
    if (flags.stats) {
      std::fprintf(stderr, "%s", obs::FormatStatsTable(snap).c_str());
      std::fflush(stderr);
    }
    if (!flags.stats_json.empty()) {
      Status st = WriteFileAtomic(flags.stats_json, obs::StatsToJson(snap));
      if (!st.ok()) {
        std::fprintf(stderr, "warning: %s\n", st.ToString().c_str());
      }
    }
  }
  if (!flags.trace_out.empty()) {
    obs::StopTracing();
    std::ostringstream trace;
    obs::WriteChromeTrace(trace);
    Status st = WriteFileAtomic(flags.trace_out, trace.str());
    if (!st.ok()) {
      std::fprintf(stderr, "warning: %s\n", st.ToString().c_str());
    }
  }
}

int CmdVerify(const Flags& flags) {
  if (flags.positional.size() < 2) return Usage();
  const bool log_enabled = !flags.log_json.empty();
  if (log_enabled) {
    Status st = obs::EventLog::Get().Open(flags.log_json);
    if (!st.ok()) return Fail(st);
  }

  // Everything from here runs under one request scope: counters and
  // spans recorded by this verification — including on pool workers —
  // are attributed to it, and the terminal wide event carries exactly
  // that delta even when other requests share the process.
  obs::RequestScope request(flags.positional[0]);
  std::vector<std::pair<std::string, std::string>> text_fields;

  // Closes the request and flushes every telemetry surface; called on
  // all outcomes so partial sweeps still report. The watchdog must be
  // stopped before this runs (its stall events precede the terminal
  // event in the log).
  auto finish = [&](const Status& status, std::string_view verdict) {
    const obs::MetricsSnapshot& delta = request.Close();
    EmitVerifyTelemetry(flags);
    if (log_enabled) {
      obs::EmitRequestSummary(request, delta, verdict,
                              obs::DeriveOutcome(status, delta),
                              text_fields);
      Status st = obs::EventLog::Get().Close();
      if (!st.ok()) {
        std::fprintf(stderr, "warning: %s\n", st.ToString().c_str());
      }
    }
  };
  auto emit_phase =
      [&](const char* phase, uint64_t start_ns,
          std::vector<std::pair<std::string, uint64_t>> nums = {}) {
        if (!log_enabled) return;
        obs::WideEvent ev;
        ev.phase = phase;
        ev.request = request.id();
        ev.label = request.label();
        ev.duration_ns = obs::MonotonicNowNs() - start_ns;
        ev.text = text_fields;
        ev.nums = std::move(nums);
        obs::EventLog::Get().Emit(ev);
      };

  const uint64_t parse_start = obs::MonotonicNowNs();
  std::string spec_text;
  auto service = LoadService(flags.positional[0], &spec_text);
  if (!service.ok()) {
    finish(service.status(), "ERROR");
    return Fail(service.status());
  }
  text_fields.emplace_back("spec_hash", obs::ContentHashHex(spec_text));
  auto prop = ParseTemporalProperty(flags.positional[1], &service->vocab());
  if (!prop.ok()) {
    finish(prop.status(), "ERROR");
    return Fail(prop.status());
  }
  text_fields.emplace_back("property_hash",
                           obs::ContentHashHex(flags.positional[1]));
  emit_phase("parse", parse_start);

  if (log_enabled) {
    // Lint findings ride along in the request record (events only; the
    // diagnostics themselves stay with `wsvcli lint`).
    const uint64_t lint_start = obs::MonotonicNowNs();
    analysis::DiagnosticSink sink;
    analysis::LintSpecText(spec_text, &sink);
    emit_phase("lint", lint_start,
               {{"errors", sink.error_count()},
                {"warnings", sink.warning_count()},
                {"notes", sink.note_count()}});
  }

  LtlVerifyOptions options;
  options.graph.constant_pool = flags.pool;
  options.db.fresh_values = flags.fresh;
  options.require_input_bounded = !flags.unchecked;
  if (flags.no_slice) options.enable_slice = false;

  std::optional<Instance> db;
  if (flags.positional.size() >= 3) {
    auto loaded = LoadDatabase(flags.positional[2], service->vocab());
    if (!loaded.ok()) {
      finish(loaded.status(), "ERROR");
      return Fail(loaded.status());
    }
    db = std::move(*loaded);
  }

  // Cross-request verification cache (--cache-dir): consult before
  // running the verifier. A hit or warm entry is served verbatim — the
  // printed verdict is the byte-identical text the populating cold run
  // produced — and no product is built.
  std::optional<cache::VerifyCache> vcache;
  cache::RequestKey cache_key;
  if (!flags.cache_dir.empty()) {
    cache::VerifyCache::Config cfg;
    cfg.dir = flags.cache_dir;
    vcache.emplace(std::move(cfg));
    cache_key = cache::MakeRequestKey(*service, *prop,
                                      db.has_value() ? &*db : nullptr,
                                      options, flags.jobs);
    const std::string cache_label =
        flags.label.empty() ? flags.positional[0] : flags.label;
    vcache->RegisterSpec(cache_key.spec, spec_text);
    cache::VerifyCache::LookupResult looked =
        vcache->Lookup(cache_key, cache_label, *service, *prop);
    text_fields.emplace_back("cache_outcome",
                             cache::OutcomeName(looked.outcome));
    if (looked.outcome == cache::Outcome::kHit ||
        looked.outcome == cache::Outcome::kWarm) {
      const cache::CachedVerdict& v = looked.verdict;
      finish(Status::OK(), v.holds ? "HOLDS" : "VIOLATED");
      if (v.holds) {
        std::printf("%s\n", HoldsLine(v.databases_checked,
                                      v.total_graph_nodes,
                                      v.total_product_states,
                                      v.complete_within_bounds)
                                .c_str());
        return 0;
      }
      std::printf("VIOLATED; counterexample:\n%s", v.witness_text.c_str());
      return 3;
    }
  }

  LtlVerifier verifier(&*service, options, flags.jobs);
  if (!flags.trace_out.empty()) obs::StartTracing();
  StatusOr<LtlVerifyResult> result = Status::Internal("verification not run");
  {
    std::optional<ProgressHeartbeat> heartbeat;
    if (flags.progress) heartbeat.emplace();
    std::optional<obs::Watchdog> watchdog;
    if (flags.heartbeat_secs > 0 || flags.watchdog_deadline_secs >= 0) {
      obs::WatchdogOptions wopts;
      wopts.heartbeat_secs = flags.heartbeat_secs;
      if (flags.watchdog_deadline_secs >= 0) {
        wopts.stall_deadline_ns = static_cast<uint64_t>(
            flags.watchdog_deadline_secs * 1e9);
      }
      watchdog.emplace(wopts);
    }
    if (db.has_value()) {
      result = verifier.VerifyOnDatabase(*prop, *db);
    } else {
      result = verifier.Verify(*prop);
    }
  }  // watchdog final sweep + join: stall events land before the terminal
  if (vcache.has_value() && result.ok()) {
    cache::CachedVerdict v;
    v.holds = result->holds;
    if (!result->holds) v.witness_text = result->counterexample->ToString();
    v.databases_checked = result->databases_checked;
    v.total_graph_nodes = result->total_graph_nodes;
    v.total_product_states = result->total_product_states;
    v.complete_within_bounds = result->complete_within_bounds;
    vcache->Insert(cache_key, v);
  }
  if (result.ok() && !result->holds) {
    // Independently re-derive the witness through the runtime stepper
    // before presenting it (the same validation the tests apply).
    const uint64_t check_start = obs::MonotonicNowNs();
    Status witness_ok = Status::OK();
    {
      WSV_SPAN("verify/witness_check");
      witness_ok = ValidateWitness(*service, *prop, *result->counterexample);
    }
    emit_phase("witness_check", check_start,
               {{"valid", witness_ok.ok() ? uint64_t{1} : uint64_t{0}}});
    if (!witness_ok.ok()) {
      std::fprintf(stderr, "warning: witness failed validation: %s\n",
                   witness_ok.ToString().c_str());
    }
  }
  finish(result.ok() ? Status::OK() : result.status(),
         !result.ok() ? "ERROR" : (result->holds ? "HOLDS" : "VIOLATED"));
  if (!result.ok()) return Fail(result.status());
  if (result->holds) {
    std::printf("%s\n", HoldsLine(result->databases_checked,
                                  result->total_graph_nodes,
                                  result->total_product_states,
                                  result->complete_within_bounds)
                            .c_str());
    return 0;
  }
  std::printf("VIOLATED; counterexample:\n%s",
              result->counterexample->ToString().c_str());
  return 3;
}

// Batch replay: a JSONL request stream through the verification cache
// (src/cache/replay.h). Shares the verify telemetry surfaces — --stats,
// --stats-json, --trace-out, --log-json (per-request wide events).
int CmdReplay(const Flags& flags) {
  if (flags.positional.empty()) return Usage();
  auto jobs_text = ReadFile(flags.positional[0]);
  if (!jobs_text.ok()) return Fail(jobs_text.status());
  auto jobs = cache::ParseReplayJobs(*jobs_text);
  if (!jobs.ok()) return Fail(jobs.status());

  const bool log_enabled = !flags.log_json.empty();
  if (log_enabled) {
    Status st = obs::EventLog::Get().Open(flags.log_json);
    if (!st.ok()) return Fail(st);
  }
  if (!flags.trace_out.empty()) obs::StartTracing();

  cache::VerifyCache::Config cfg;
  cfg.dir = flags.cache_dir;
  cache::VerifyCache vcache(std::move(cfg));
  cache::ReplayOptions options;
  options.cache_dir = flags.cache_dir;
  options.jobs = flags.jobs > 0 ? flags.jobs : 1;
  options.quiet = flags.quiet;
  options.log_events = log_enabled;
  auto report = cache::RunReplay(*jobs, options, &vcache);

  EmitVerifyTelemetry(flags);
  if (log_enabled) {
    Status st = obs::EventLog::Get().Close();
    if (!st.ok()) {
      std::fprintf(stderr, "warning: %s\n", st.ToString().c_str());
    }
  }
  if (!report.ok()) return Fail(report.status());
  std::fputs(report->ToText().c_str(), stdout);
  if (!flags.bench_json.empty()) {
    Status st = WriteFileAtomic(flags.bench_json, report->ToBenchJson());
    if (!st.ok()) return Fail(st);
  }
  return 0;
}

int CmdLint(const Flags& flags) {
  if (flags.positional.empty()) return Usage();
  if (flags.format != "text" && flags.format != "json" &&
      flags.format != "sarif") {
    return Fail(Status::InvalidArgument("unknown --format: " + flags.format));
  }
  const std::string& path = flags.positional[0];
  auto text = ReadFile(path);
  if (!text.ok()) return Fail(text.status());
  analysis::DiagnosticSink sink;
  analysis::LintSpecText(*text, &sink);
  std::string out;
  if (flags.format == "json") {
    out = analysis::RenderJson(sink.diagnostics(), path);
  } else if (flags.format == "sarif") {
    out = analysis::RenderSarif(sink.diagnostics(), path);
  } else {
    out = analysis::RenderText(sink.diagnostics(), *text, path);
  }
  std::fputs(out.c_str(), stdout);
  if (sink.error_count() > 0) return 2;
  if (flags.werror && sink.warning_count() > 0) return 1;
  return 0;
}

// `wsvcli deps` — dump the dependence graph, optionally with one
// property's cone of influence marked. The cone is computed exactly the
// way the slicer computes it (property seeds + the always-observable
// navigation frame), so `deps --property P` explains what `verify`
// would keep.
int CmdDeps(const Flags& flags) {
  if (flags.positional.empty()) return Usage();
  if (flags.format != "text" && flags.format != "dot" &&
      flags.format != "json") {
    return Fail(Status::InvalidArgument("unknown --format: " + flags.format));
  }
  auto service = LoadService(flags.positional[0]);
  if (!service.ok()) return Fail(service.status());
  analysis::DepGraph graph = analysis::DepGraph::Build(*service);

  std::vector<char> in_cone;
  if (!flags.property.empty()) {
    auto prop = ParseTemporalProperty(flags.property, &service->vocab());
    if (!prop.ok()) return Fail(prop.status());
    std::vector<int> seeds = graph.PropertySeeds(*prop);
    std::vector<int> targets = graph.TargetSeeds();
    seeds.insert(seeds.end(), targets.begin(), targets.end());
    in_cone = graph.BackwardCone(seeds);
    size_t kept = 0;
    for (char c : in_cone) kept += (c != 0);
    std::fprintf(stderr,
                 "cone of influence: %zu of %zu nodes (%llu edges)%s\n",
                 kept, graph.nodes().size(),
                 static_cast<unsigned long long>(graph.num_edges()),
                 graph.PropertyDomainIndependent(*prop)
                     ? ""
                     : " [property not domain-independent; the verifier "
                       "would not slice]");
  }

  const std::string out = flags.format == "json" ? graph.ToJson(in_cone)
                                                 : graph.ToDot(in_cone);
  std::fputs(out.c_str(), stdout);
  return 0;
}

int CmdVerifyCtl(const Flags& flags) {
  if (flags.positional.size() < 3) return Usage();
  auto service = LoadService(flags.positional[0]);
  if (!service.ok()) return Fail(service.status());
  auto prop = ParseTemporalProperty(flags.positional[1], &service->vocab());
  if (!prop.ok()) return Fail(prop.status());
  auto db = LoadDatabase(flags.positional[2], service->vocab());
  if (!db.ok()) return Fail(db.status());
  KripkeBuildOptions options;
  options.graph.constant_pool = flags.pool;
  options.check_propositional = !flags.unchecked;
  auto kripke = BuildPropositionalKripke(*service, *db, options);
  if (!kripke.ok()) return Fail(kripke.status());
  auto holds = prop->formula->IsCtl()
                   ? CtlHolds(*kripke, *prop->formula)
                   : CtlStarHolds(*kripke, *prop->formula);
  if (!holds.ok()) return Fail(holds.status());
  std::printf("%s (Kripke structure: %zu states)\n",
              *holds ? "HOLDS" : "VIOLATED", kripke->size());
  return *holds ? 0 : 3;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  auto flags = ParseFlags(argc, argv);
  if (!flags.ok()) return Fail(flags.status());
  const std::string cmd = argv[1];
  Status accepted = CheckFlagsAccepted(cmd, *flags);
  if (!accepted.ok()) return Fail(accepted);
  if (flags->step_budget >= 0) {
    fobc::SetStepBudget(static_cast<uint64_t>(flags->step_budget));
  }
  if (cmd == "validate") return CmdValidate(*flags);
  if (cmd == "print") return CmdPrint(*flags);
  if (cmd == "classify") return CmdClassify(*flags);
  if (cmd == "run") return CmdRun(*flags);
  if (cmd == "check-errors") return CmdCheckErrors(*flags);
  if (cmd == "verify") return CmdVerify(*flags);
  if (cmd == "deps") return CmdDeps(*flags);
  if (cmd == "replay") return CmdReplay(*flags);
  if (cmd == "verify-ctl") return CmdVerifyCtl(*flags);
  if (cmd == "lint") return CmdLint(*flags);
  return Usage();
}

}  // namespace
}  // namespace wsv

int main(int argc, char** argv) { return wsv::Main(argc, argv); }
