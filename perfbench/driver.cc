// wsv_perfbench — closed-loop end-to-end benchmark of `wsvcli verify`.
//
// One client, one request in flight: each request is sent after the
// previous verdict returns. A request runs the library path of
// `wsvcli verify` in-process:
//
//   ParseServiceSpec -> ParseDataFile -> ParseTemporalProperty
//     -> ParallelLtlVerifier (jobs 1 delegates to LtlVerifier)
//     -> ValidateWitness on every VIOLATED verdict
//
// and, on the cached workload, the verification cache in front of the
// verifier: MakeRequestKey -> VerifyCache::Lookup, and on a miss verify +
// Insert.
//
// Usage (see perfbench/README.md; perfbench/run.py builds and calls it):
//   wsv_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--root DIR] [--work-dir DIR]
//
// The last line of stdout is one JSON object {correct, attempted, failed,
// metrics}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 the per-layer ones, measured by a traced phase that follows
// an untraced phase of the same length (their throughput ratio is the
// tracing overhead). End-to-end numbers never come from a traced phase.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory_resource>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cache/verify_cache.h"
#include "common/fingerprint.h"
#include "ltl/ltl_parser.h"
#include "obs/metrics.h"
#include "obs/request.h"
#include "obs/trace.h"
#include "verify/ltl_verifier.h"
#include "verify/parallel.h"
#include "verify/witness_check.h"
#include "ws/data_parser.h"
#include "ws/spec_parser.h"

namespace wsv {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Workloads

enum class Verdict { kHolds, kViolated };

const char* VerdictName(Verdict v) {
  return v == Verdict::kHolds ? "HOLDS" : "VIOLATED";
}

/// One request: indices into the workload's inputs plus the hand-written
/// verdict it must produce.
struct Request {
  int spec = 0;
  int data = -1;  // -1: no database (enumerate the bounded space)
  int prop = 0;
  Verdict expected = Verdict::kHolds;
};

struct Workload {
  std::string name;
  std::vector<std::string> specs;  // spec source texts
  std::vector<std::string> datas;  // database texts
  std::vector<std::string> props;  // LTL-FO property texts
  std::vector<std::string> pool;   // input-constant pool (empty: default)
  int fresh = 1;
  bool unchecked = false;
  int jobs = 1;
  bool cached = false;
  std::string label;  // edit-chain identity on the cached workload
  /// Timed requests after which peak_rss_mb is read (see README.md).
  uint64_t rss_probe_after = 0;
  /// The tail percentile: the highest that leaves at least ten samples
  /// above it in a 15-second run at two thirds of the usual throughput. A
  /// level fixed per workload keeps runs comparable; TailLevel falls back
  /// when a run is smaller.
  double tail_level = 50;
  /// Every distinct request once: the warm-up pass.
  std::vector<Request> distinct;
  /// The seeded timed stream.
  std::vector<Request> stream;
};

const char* const kWorkloads[] = {"quantified_holds", "ground_violations",
                                  "db_sweep_jobs2", "edit_replay"};

StatusOr<std::string> ReadText(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Uniform index in [0, n) from a 64-bit draw. The modulo bias is below
/// 2^-58 for the small n used here, and unlike
/// std::uniform_int_distribution the mapping is the same on every
/// standard library, so a seed names the same stream everywhere.
size_t Draw(std::mt19937_64& rng, size_t n) {
  return static_cast<size_t>(rng() % n);
}

// The fixed odd-sized list of closure-free VIOLATED properties on the
// e-commerce spec (Property 1 first).
const char* const kGroundProps[] = {
    "G(!PIP) | F(PIP & F(CC))", "G(!COP)", "G(!VOP)", "G(!UPP | F(COP))",
    "F(GBP)",                   "G(!MP)",  "G(!ship(\"alice\", \"p1\"))"};

// The edit point of the replay stream: version 1 restates the login
// spec's error rule with a vacuous conjunct, which changes the spec
// fingerprint and dirties only the `error` relation.
const char kErrorRule[] =
    "state +error(\"failed login\") :- !user(name, password) & "
    "button(\"login\");";
const char kErrorRuleV1[] =
    "state +error(\"failed login\") :- !user(name, password) & "
    "button(\"login\") & true;";

// Replay requests per edit: one spec edit every kEditEvery requests,
// the rate tools/gen_replay.py draws at random (0.02), fixed here so
// every seed sees the same number of edits per request.
constexpr size_t kEditEvery = 50;

/// Builds the named workload: reads its inputs under `root` and
/// generates the seeded stream (`length` requests).
StatusOr<Workload> BuildWorkload(const std::string& name,
                                 const fs::path& root, uint64_t seed,
                                 size_t length) {
  Workload w;
  w.name = name;
  std::mt19937_64 rng(seed);
  if (name == "quantified_holds" || name == "ground_violations") {
    WSV_ASSIGN_OR_RETURN(std::string spec,
                         ReadText(root / "specs/ecommerce.wsv"));
    WSV_ASSIGN_OR_RETURN(std::string data,
                         ReadText(root / "specs/ecommerce_small.wsd"));
    w.specs.push_back(std::move(spec));
    w.datas.push_back(std::move(data));
    w.pool = {"alice", "pw"};
    w.unchecked = true;  // the shipped e-commerce spec is not input-bounded
    if (name == "quantified_holds") {
      w.props.push_back("forall pid . G(!shipped(pid) | paid(pid, \"100\"))");
      w.distinct.push_back({0, 0, 0, Verdict::kHolds});
      w.stream.assign(length, w.distinct[0]);
      w.rss_probe_after = 16;
      w.tail_level = 60;
    } else {
      for (const char* p : kGroundProps) {
        w.distinct.push_back({0, 0, static_cast<int>(w.props.size()),
                              Verdict::kViolated});
        w.props.push_back(p);
      }
      // Seeded shuffles of the whole list, back to back: every block of
      // seven holds each property once, so the mix (and the median's
      // request class) is the same at every seed.
      std::vector<Request> block = w.distinct;
      while (w.stream.size() < length) {
        for (size_t i = block.size() - 1; i > 0; --i) {
          std::swap(block[i], block[Draw(rng, i + 1)]);
        }
        w.stream.insert(w.stream.end(), block.begin(), block.end());
      }
      w.stream.resize(length);
      w.rss_probe_after = 280;
      w.tail_level = 95;
    }
    return w;
  }
  if (name == "db_sweep_jobs2") {
    WSV_ASSIGN_OR_RETURN(std::string spec, ReadText(root / "specs/login.wsv"));
    w.specs.push_back(std::move(spec));
    w.props.push_back("G(!CP | logged_in)");
    w.fresh = 2;
    w.jobs = 2;
    w.distinct.push_back({0, -1, 0, Verdict::kHolds});
    w.stream.assign(length, w.distinct[0]);
    w.rss_probe_after = 8;
    w.tail_level = 50;
    return w;
  }
  if (name == "edit_replay") {
    WSV_ASSIGN_OR_RETURN(std::string v0, ReadText(root / "specs/login.wsv"));
    const size_t at = v0.find(kErrorRule);
    if (at == std::string::npos) {
      return Status::NotFound("login spec lacks the replay edit point");
    }
    std::string v1 = v0;
    v1.replace(at, std::strlen(kErrorRule), kErrorRuleV1);
    w.specs = {std::move(v0), std::move(v1)};
    w.datas = {"user(alice, pw).\n", "user(alice, pw).\nuser(bob, hunter2).\n"};
    w.props = {"G(!CP | logged_in)", "F(CP)", "G(!MP | !logged_in)",
               "G(!BYE | !error(\"failed login\"))"};
    const Verdict expected[] = {Verdict::kHolds, Verdict::kViolated,
                                Verdict::kHolds, Verdict::kHolds};
    w.cached = true;
    w.label = "login";
    for (int s = 0; s < 2; ++s) {
      for (int p = 0; p < 4; ++p) {
        for (int d = 0; d < 2; ++d) w.distinct.push_back({s, d, p, expected[p]});
      }
    }
    w.rss_probe_after = 2000;
    w.tail_level = 99.5;
    int version = 0;
    for (size_t i = 0; i < length; ++i) {
      if (i > 0 && i % kEditEvery == 0) version ^= 1;
      const int p = static_cast<int>(Draw(rng, 4));
      const int d = static_cast<int>(Draw(rng, 2));
      w.stream.push_back({version, d, p, expected[p]});
    }
    return w;
  }
  return Status::InvalidArgument("unknown workload " + name);
}

// ---------------------------------------------------------------------
// Tracing: the benchmark's own spans around each public call, kept in
// memory, plus the program's span events and request-scoped obs deltas
// taken at the same boundaries.

uint64_t NowNs() { return obs::MonotonicNowNs(); }

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// A field of /proc/self/status in KiB, e.g. "VmHWM:" (0 if absent).
double ProcStatusKb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtod(line.c_str() + field.size(), nullptr);
    }
  }
  return 0;
}

/// Peak resident set of this program image. VmHWM, unlike ru_maxrss, is
/// not inherited across exec, so the launching script does not count.
double PeakRssMb() { return ProcStatusKb("VmHWM:") / 1024.0; }

double CurrentRssKb() { return ProcStatusKb("VmRSS:"); }

struct BenchSpan {
  const char* name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int parent = -1;  // index into Tracer::spans; -1: a direct child of the request
  uint64_t request = 0;
};

void AddSnapshot(obs::MetricsSnapshot* acc, const obs::MetricsSnapshot& d) {
  for (const auto& [k, v] : d.counters) acc->counters[k] += v;
  for (const auto& [k, h] : d.histograms) {
    obs::HistogramSnapshot& a = acc->histograms[k];
    a.count += h.count;
    a.sum += h.sum;
  }
}

uint64_t HistSum(const obs::MetricsSnapshot& s, const std::string& name) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0 : it->second.sum;
}

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  int Begin(const char* name) {
    if (!on_) return -1;
    BenchSpan s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.request = request_;
    s.start_ns = NowNs();
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void End(int idx) {
    if (idx < 0) return;
    spans_[static_cast<size_t>(idx)].end_ns = NowNs();
    stack_.pop_back();
  }
  void SetRequest(uint64_t id) { request_ = id; }
  const std::vector<BenchSpan>& spans() const { return spans_; }

 private:
  bool on_;
  uint64_t request_ = 0;
  std::vector<BenchSpan> spans_;
  std::vector<int> stack_;
};

class ScopedBenchSpan {
 public:
  ScopedBenchSpan(Tracer* t, const char* name)
      : t_(t), idx_(t != nullptr ? t->Begin(name) : -1) {}
  ~ScopedBenchSpan() {
    if (t_ != nullptr) t_->End(idx_);
  }
  ScopedBenchSpan(const ScopedBenchSpan&) = delete;
  ScopedBenchSpan& operator=(const ScopedBenchSpan&) = delete;

 private:
  Tracer* t_;
  int idx_;
};

// ---------------------------------------------------------------------
// One request

struct RequestResult {
  bool ok = false;
  std::string error;
  bool cached_outcome_valid = false;
  cache::Outcome cache_outcome = cache::Outcome::kMiss;
  Fingerprint combined;
  /// Traced phase only: obs delta and process CPU time over the verifier
  /// call.
  obs::MetricsSnapshot verify_delta;
  double verify_cpu_s = 0;
};

/// Runs one request and applies the verdict gate. `vcache` is the
/// verification cache on the cached workload, null otherwise. `scope` is
/// the traced request's accounting scope, null when untraced.
RequestResult RunRequest(const Workload& w, const Request& r,
                         cache::VerifyCache* vcache, Tracer* tracer,
                         const obs::RequestScope* scope) {
  RequestResult out;
  Tracer* t = tracer != nullptr && tracer->on() ? tracer : nullptr;
  auto fail = [&out](std::string why) {
    out.ok = false;
    out.error = std::move(why);
    return out;
  };

  const std::string& spec_text = w.specs[static_cast<size_t>(r.spec)];
  std::optional<StatusOr<WebService>> service;
  {
    ScopedBenchSpan span(t, "ws.parse_spec");
    service.emplace(ParseServiceSpec(spec_text));
  }
  if (!service->ok()) return fail(service->status().ToString());
  std::optional<Instance> db;
  if (r.data >= 0) {
    std::optional<StatusOr<Instance>> parsed;
    {
      ScopedBenchSpan span(t, "ws.parse_data");
      parsed.emplace(ParseDataFile(w.datas[static_cast<size_t>(r.data)],
                                   &(*service)->vocab()));
    }
    if (!parsed->ok()) return fail(parsed->status().ToString());
    db = std::move(**parsed);
  }
  std::optional<StatusOr<TemporalProperty>> prop;
  {
    ScopedBenchSpan span(t, "ltl.parse_property");
    prop.emplace(ParseTemporalProperty(w.props[static_cast<size_t>(r.prop)],
                                       &(*service)->vocab()));
  }
  if (!prop->ok()) return fail(prop->status().ToString());
  const WebService& svc = **service;
  const TemporalProperty& property = **prop;

  LtlVerifyOptions options;
  for (const std::string& v : w.pool) {
    options.graph.constant_pool.push_back(Value::Intern(v));
  }
  options.db.fresh_values = w.fresh;
  options.require_input_bounded = !w.unchecked;

  const bool want_holds = r.expected == Verdict::kHolds;
  cache::RequestKey key;
  if (vcache != nullptr) {
    {
      ScopedBenchSpan span(t, "cache.key");
      key = cache::MakeRequestKey(svc, property, db ? &*db : nullptr,
                                  options, w.jobs);
    }
    out.combined = key.combined;
    cache::VerifyCache::LookupResult looked;
    {
      // The spec is registered before the lookup, as `wsvcli verify
      // --cache-dir` and `wsvcli replay` do.
      ScopedBenchSpan span(t, "cache.lookup");
      vcache->RegisterSpec(key.spec, spec_text);
      looked = vcache->Lookup(key, w.label, svc, property);
    }
    out.cached_outcome_valid = true;
    out.cache_outcome = looked.outcome;
    if (looked.outcome == cache::Outcome::kHit ||
        looked.outcome == cache::Outcome::kWarm) {
      if (looked.verdict.holds != want_holds) {
        return fail(std::string("cache served ") +
                    (looked.verdict.holds ? "HOLDS" : "VIOLATED") +
                    ", expected " + VerdictName(r.expected));
      }
      if (!looked.verdict.holds && looked.verdict.witness_text.empty()) {
        return fail("cache served VIOLATED without a witness");
      }
      out.ok = true;
      return out;
    }
    if (db.has_value() && cache::VerifyCache::Enabled()) {
      options.leaf_store_context = cache::VerifyCache::LeafContext(
          key, svc, property, *db, options,
          /*on_the_fly=*/!options.force_eager && OnTheFlyEnabled());
      options.leaf_store = vcache->leaf_store();
    }
  }

  StatusOr<LtlVerifyResult> result = Status::OK();
  {
    obs::MetricsSnapshot before;
    double cpu0 = 0;
    if (t != nullptr) {
      before = obs::SnapshotRequestMetrics(scope->id());
      cpu0 = CpuSeconds();
    }
    {
      ScopedBenchSpan span(t, "verify.call");
      ParallelLtlVerifier verifier(&svc, options, w.jobs);
      result = db.has_value() ? verifier.VerifyOnDatabase(property, *db)
                              : verifier.Verify(property);
    }
    if (t != nullptr) {
      out.verify_cpu_s = CpuSeconds() - cpu0;
      out.verify_delta = obs::DiffSnapshots(
          obs::SnapshotRequestMetrics(scope->id()), before);
    }
  }
  if (!result.ok()) return fail(result.status().ToString());
  if (vcache != nullptr) {
    cache::CachedVerdict v;
    v.holds = result->holds;
    if (!result->holds) v.witness_text = result->counterexample->ToString();
    v.databases_checked = result->databases_checked;
    v.total_graph_nodes = result->total_graph_nodes;
    v.total_product_states = result->total_product_states;
    v.complete_within_bounds = result->complete_within_bounds;
    ScopedBenchSpan span(t, "cache.insert");
    vcache->Insert(key, v);
  }
  if (result->holds != want_holds) {
    return fail(std::string("verdict ") +
                (result->holds ? "HOLDS" : "VIOLATED") + ", expected " +
                VerdictName(r.expected));
  }
  if (!result->holds) {
    Status witness = Status::OK();
    {
      ScopedBenchSpan span(t, "verify.witness_check");
      witness = ValidateWitness(svc, property, *result->counterexample);
    }
    if (!witness.ok()) return fail("witness rejected: " + witness.ToString());
  }
  out.ok = true;
  return out;
}

// ---------------------------------------------------------------------
// The layer ledger: one traced request's wall time split into exclusive
// layer self times that add up to it.

enum Layer {
  kWs,
  kLtl,
  kCache,
  kDbEnum,
  kRuntime,
  kFo,
  kAutomata,
  kVerify,
  kWitness,
  kPool,
  kBench,
  kNumLayers
};

const char* const kLayerNames[kNumLayers] = {
    "ws",       "ltl",      "cache",  "verify.db_enum",
    "runtime",  "fo",       "automata", "verify",
    "verify.witness", "common.thread_pool", "bench"};

/// Ledger row of one of the program's own spans (obs/trace.h events).
Layer ProgramSpanLayer(const std::string& name) {
  if (name == "verify/db_enum") return kDbEnum;
  if (name == "config_graph/build") return kRuntime;
  if (name == "automata/emptiness" || name == "ltl/product" ||
      name == "automata/ltl_to_buchi" || name == "automata/build_negated") {
    return kAutomata;
  }
  if (name == "verify/witness_check") return kWitness;
  return kVerify;
}

Layer BenchSpanLayer(const char* name) {
  const std::string n = name;
  if (n.rfind("ws.", 0) == 0) return kWs;
  if (n.rfind("ltl.", 0) == 0) return kLtl;
  if (n.rfind("cache.", 0) == 0) return kCache;
  if (n == "verify.witness_check") return kWitness;
  return kVerify;
}

using LayerNs = std::array<double, kNumLayers>;

/// Adds each event's self time (its duration minus its children's) to
/// its layer, except `lane`'s, which is returned instead. The events are
/// one thread's, so they nest properly, as RAII spans do.
double AddSelfTimes(std::vector<const obs::TraceEvent*> events,
                    const obs::TraceEvent* lane, LayerNs* self) {
  std::sort(events.begin(), events.end(),
            [](const obs::TraceEvent* a, const obs::TraceEvent* b) {
              if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
              return a->end_ns > b->end_ns;
            });
  std::vector<uint64_t> child_ns(events.size(), 0);
  std::vector<size_t> stack;
  for (size_t i = 0; i < events.size(); ++i) {
    while (!stack.empty() &&
           events[stack.back()]->end_ns <= events[i]->start_ns) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      child_ns[stack.back()] += events[i]->end_ns - events[i]->start_ns;
    }
    stack.push_back(i);
  }
  double lane_self = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const uint64_t dur = events[i]->end_ns - events[i]->start_ns;
    const double own = double(dur > child_ns[i] ? dur - child_ns[i] : 0);
    if (events[i] == lane) {
      lane_self = own;
    } else {
      (*self)[ProgramSpanLayer(events[i]->name)] += own;
    }
  }
  return lane_self;
}

/// FO leaf evaluation has a timer but no span, so its time is carved out
/// of the engine layers that can contain it: first the verifier's own
/// self time (the valuation-class lookup evaluates leaves there), then
/// product search (edge labelling during the lazy search), then
/// successor generation and enumeration. Returns the amount carved,
/// never more than those layers hold.
double CarveFo(double fo_ns, LayerNs* self) {
  double carved = 0;
  for (Layer l : {kVerify, kAutomata, kRuntime, kDbEnum}) {
    const double take = std::min(fo_ns - carved, (*self)[l]);
    (*self)[l] -= take;
    carved += take;
  }
  return carved;
}

bool IsParallelSpan(const std::string& name) {
  return name == "verify/parallel_sweep" || name == "verify/parallel_db_sweep";
}

/// Splits `[s, e]`, the verifier call, into layers. `fo_ns` is the FO
/// leaf time recorded during the call (all threads), `jobs` the worker
/// count. The driver thread's program spans give their self times, and
/// verifier time outside them goes to `verify`. On the parallel path the
/// sweep span's own self time is the lanes' window: it is shared among
/// the `jobs` worker lanes in proportion to each layer's worker self
/// time, and lane time no worker span covers is pool overhead and idle
/// (`common.thread_pool`). Driver spans that overlap the lanes
/// (enumeration feeding the pool, back-pressure waits) keep no time.
void LedgerVerifyCall(uint64_t s, uint64_t e, uint32_t driver_tid,
                      const std::vector<obs::TraceEvent>& events,
                      double fo_ns, int jobs, LayerNs* ledger) {
  std::vector<const obs::TraceEvent*> driver;
  std::map<uint32_t, std::vector<const obs::TraceEvent*>> workers;
  const obs::TraceEvent* par = nullptr;
  uint64_t window = UINT64_MAX;  // first worker span start
  for (const obs::TraceEvent& ev : events) {
    if (ev.start_ns < s || ev.end_ns > e) continue;
    if (ev.tid == driver_tid) {
      driver.push_back(&ev);
      if (IsParallelSpan(ev.name) && par == nullptr) par = &ev;
    } else {
      workers[ev.tid].push_back(&ev);
      window = std::min(window, ev.start_ns);
    }
  }
  const bool parallel = par != nullptr && !workers.empty();
  std::vector<const obs::TraceEvent*> serial;
  for (const obs::TraceEvent* ev : driver) {
    const bool in_sweep = parallel && ev != par &&
                          ev->start_ns >= par->start_ns &&
                          ev->end_ns <= par->end_ns;
    if (!in_sweep || ev->end_ns <= window) serial.push_back(ev);
  }
  LayerNs self{};
  const double lane_wall = AddSelfTimes(serial, parallel ? par : nullptr, &self);
  double covered = lane_wall;
  for (double v : self) covered += v;
  self[kVerify] += std::max(0.0, double(e - s) - covered);

  LayerNs lanes{};
  for (const auto& [tid, evs] : workers) AddSelfTimes(evs, nullptr, &lanes);
  // FO time is thread time: the lanes' when they ran, else the driver's.
  LayerNs& fo_host = parallel ? lanes : self;
  fo_host[kFo] += CarveFo(fo_ns, &fo_host);
  if (parallel) {
    const double num_lanes = double(
        std::max<size_t>(static_cast<size_t>(std::max(jobs, 1)), workers.size()));
    double busy = 0;
    for (int l = 0; l < kNumLayers; ++l) {
      self[l] += lanes[l] / num_lanes;
      busy += lanes[l] / num_lanes;
    }
    self[kPool] += std::max(0.0, lane_wall - busy);
  }
  for (int l = 0; l < kNumLayers; ++l) (*ledger)[l] += self[l];
}

// ---------------------------------------------------------------------
// Host-speed reference
//
// The benchmark shares its host with other tenants, and their memory
// traffic changes how fast this process runs: identical requests took
// from 237 to 455 ms in runs minutes apart, while a dependent ALU chain
// kept its time. So the timed loop also runs a fixed reference kernel
// that stresses the same resources as the verifier (hash-table inserts,
// node allocation, L2-sized random access) at intervals, and the
// end-to-end times are reported at a reference host speed: scaled by
// kReferenceProbeMs over the run's median probe time. The kernel is the
// benchmark's own code, so a change to the verifier cannot move it.

/// The probe's time on the 4-vCPU Xeon host this benchmark was tuned on,
/// in an uncontended period; it only fixes the unit.
constexpr double kReferenceProbeMs = 0.8;
/// Wall time between probes (each takes about kReferenceProbeMs).
constexpr uint64_t kProbeEveryNs = 20'000'000;

class HostProbe {
 public:
  HostProbe() : arena_(2u << 20) {}

  /// Runs the reference kernel once; returns its wall time in ms.
  double RunMs() {
    const uint64_t start = NowNs();
    std::pmr::monotonic_buffer_resource pool(arena_.data(), arena_.size());
    std::pmr::unordered_map<uint64_t, uint64_t> table(&pool);
    for (uint64_t i = 0; i < 20000; ++i) {
      state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
      table[state_ % 20000] += i;
    }
    state_ += table.size();
    return double(NowNs() - start) * 1e-6;
  }

 private:
  std::vector<std::byte> arena_;  // the kernel's own memory, not the heap
  uint64_t state_ = 1;
};

// ---------------------------------------------------------------------
// Measurement

struct Stats {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<uint64_t> ok_latency_ns;
  /// Timed wall and process CPU time, probe time excluded.
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<double> probe_ms;
  /// High-water mark at the RSS probe (or at the end, if never reached),
  /// and resident set at the probe and at the end.
  double peak_rss_mb = 0;
  double probe_rss_kb = 0;
  double end_rss_kb = 0;
  uint64_t probe_at = 0;
  // Cached workload.
  std::map<cache::Outcome, uint64_t> outcomes;
  uint64_t repeats = 0;
  uint64_t repeat_hits = 0;
  std::vector<uint64_t> miss_latency_ns;
  // Traced phase.
  LayerNs ledger_ns{};
  double ledger_wall_ns = 0;
  std::map<std::string, double> bench_span_ns;
  obs::MetricsSnapshot request_delta;
  obs::MetricsSnapshot verify_delta;
  double verify_cpu_s = 0;
};

bool IsServed(cache::Outcome o) {
  return o == cache::Outcome::kHit || o == cache::Outcome::kWarm;
}

/// Per-request ledger and span sums of one traced request.
void AccountTraced(const Tracer& tracer, size_t span_begin, uint64_t req_start,
                   uint64_t req_end, const RequestResult& res,
                   const std::vector<obs::TraceEvent>& events,
                   uint32_t driver_tid, int jobs, Stats* st) {
  const std::vector<BenchSpan>& spans = tracer.spans();
  LayerNs ledger{};
  double covered = 0;
  for (size_t i = span_begin; i < spans.size(); ++i) {
    const BenchSpan& sp = spans[i];
    const double dur = double(sp.end_ns - sp.start_ns);
    st->bench_span_ns[sp.name] += dur;
    if (sp.parent != -1) continue;  // only top-level spans partition time
    covered += dur;
    if (std::strcmp(sp.name, "verify.call") == 0) {
      LedgerVerifyCall(sp.start_ns, sp.end_ns, driver_tid, events,
                       double(HistSum(res.verify_delta, "ltl/leaf_eval_ns")),
                       jobs, &ledger);
    } else {
      ledger[BenchSpanLayer(sp.name)] += dur;
    }
  }
  const double wall = double(req_end - req_start);
  ledger[kBench] += wall - covered;
  for (int l = 0; l < kNumLayers; ++l) st->ledger_ns[l] += ledger[l];
  st->ledger_wall_ns += wall;
  AddSnapshot(&st->verify_delta, res.verify_delta);
  st->verify_cpu_s += res.verify_cpu_s;
}

/// Writes the traced phase's spans, one JSON object per line.
void WriteSpans(const Tracer& tracer, const fs::path& path) {
  std::ofstream out(path, std::ios::trunc);
  const std::vector<BenchSpan>& spans = tracer.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const BenchSpan& s = spans[i];
    out << "{\"request\": " << s.request << ", \"span\": " << i
        << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}\n";
  }
  if (!out) std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

/// Closed loop over the stream for `seconds` of wall time, starting at
/// stream position `*next` (advanced). The cached workload gets a fresh
/// cache directory and one cache object for the phase, as one
/// `wsvcli replay --cache-dir` stream does.
/// A traced phase writes its spans to `span_out` when it ends.
Stats Measure(const Workload& w, double seconds, bool traced,
              const fs::path& cache_dir, size_t* next,
              const fs::path& span_out = {}) {
  Stats st;
  std::optional<cache::VerifyCache> vcache;
  if (w.cached) {
    fs::remove_all(cache_dir);
    fs::create_directories(cache_dir);
    vcache.emplace(cache::VerifyCache::Config{cache_dir.string()});
  }
  Tracer tracer(traced);
  std::unordered_set<Fingerprint, FingerprintHash> seen;
  const uint64_t t0 = NowNs();
  const double cpu0 = CpuSeconds();
  const uint64_t budget = static_cast<uint64_t>(seconds * 1e9);
  uint32_t driver_tid = 0;
  HostProbe probe;
  uint64_t last_probe = 0;
  double probe_total_ms = 0;
  while (NowNs() - t0 < budget && *next < w.stream.size()) {
    if (st.probe_ms.empty() || NowNs() - last_probe >= kProbeEveryNs) {
      st.probe_ms.push_back(probe.RunMs());
      probe_total_ms += st.probe_ms.back();
      last_probe = NowNs();
    }
    const Request& r = w.stream[(*next)++];
    std::optional<obs::RequestScope> scope;
    const size_t span_begin = tracer.spans().size();
    uint64_t start = 0;
    if (traced) {
      scope.emplace("perfbench");
      tracer.SetRequest(scope->id());
      obs::StartTracing();
      start = NowNs();
      obs::RecordTraceEvent("perfbench/marker", start, start);
    } else {
      start = NowNs();
    }
    RequestResult res =
        RunRequest(w, r, vcache.has_value() ? &*vcache : nullptr, &tracer,
                   scope.has_value() ? &*scope : nullptr);
    const uint64_t end = NowNs();
    ++st.attempted;
    if (!res.ok) {
      ++st.failed;
      if (st.failed <= 3) {
        std::fprintf(stderr, "perfbench: request %llu failed: %s\n",
                     static_cast<unsigned long long>(*next - 1),
                     res.error.c_str());
      }
    } else {
      st.ok_latency_ns.push_back(end - start);
    }
    if (st.attempted == w.rss_probe_after) {
      st.peak_rss_mb = PeakRssMb();
      st.probe_rss_kb = CurrentRssKb();
      st.probe_at = st.attempted;
    }
    if (res.cached_outcome_valid) {
      ++st.outcomes[res.cache_outcome];
      if (!seen.insert(res.combined).second) {
        ++st.repeats;
        if (IsServed(res.cache_outcome)) ++st.repeat_hits;
      }
      if (res.ok && !IsServed(res.cache_outcome)) {
        st.miss_latency_ns.push_back(end - start);
      }
    }
    if (traced) {
      obs::StopTracing();
      std::vector<obs::TraceEvent> events = obs::CollectTraceEvents();
      for (const obs::TraceEvent& ev : events) {
        if (ev.name == "perfbench/marker") driver_tid = ev.tid;
      }
      AddSnapshot(&st.request_delta, scope->Close());
      AccountTraced(tracer, span_begin, start, end, res, events, driver_tid,
                    w.jobs, &st);
    }
  }
  st.wall_s = double(NowNs() - t0) * 1e-9 - probe_total_ms * 1e-3;
  st.cpu_s = CpuSeconds() - cpu0 - probe_total_ms * 1e-3;
  st.end_rss_kb = CurrentRssKb();
  if (st.probe_at == 0) st.peak_rss_mb = PeakRssMb();
  if (traced && !span_out.empty()) WriteSpans(tracer, span_out);
  return st;
}

/// Nearest-rank percentile of a sorted sample, p in (0, 100].
double Percentile(const std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * double(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return double(sorted[rank - 1]);
}

/// The workload's tail percentile `preferred` when `n` samples leave at
/// least ten above its rank; otherwise the highest lower level that does
/// (the median on tiny samples).
double TailLevel(double preferred, size_t n) {
  const double levels[] = {99.9, 99.5, 99, 95, 90, 80, 75, 70, 60, 50};
  for (double p : levels) {
    if (p > preferred) continue;
    const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * double(n)));
    if (n >= rank + 10) return p;
  }
  return 50;
}

// ---------------------------------------------------------------------
// Set-up

struct SetupResult {
  bool ok = false;
  std::string error;
  double seconds = 0;
  uint64_t warm_failed = 0;
  Workload workload;
};

/// Everything before the first timed request: read the inputs, generate
/// the seeded stream, and one untimed pass over every distinct request
/// (fills the process-wide FO program cache and lazy state). The cached
/// workload warms against a throwaway directory, so the timed phase
/// starts from an empty cache.
SetupResult Setup(const std::string& name, const fs::path& root,
                  const fs::path& work, uint64_t seed, size_t length) {
  SetupResult out;
  const uint64_t t0 = NowNs();
  StatusOr<Workload> w = BuildWorkload(name, root, seed, length);
  if (!w.ok()) {
    out.error = w.status().ToString();
    return out;
  }
  const fs::path warm_dir = work / ("warm-" + std::to_string(getpid()));
  {
    std::optional<cache::VerifyCache> vcache;
    if (w->cached) {
      fs::remove_all(warm_dir);
      fs::create_directories(warm_dir);
      vcache.emplace(cache::VerifyCache::Config{warm_dir.string()});
    }
    for (const Request& r : w->distinct) {
      RequestResult res = RunRequest(
          *w, r, vcache.has_value() ? &*vcache : nullptr, nullptr, nullptr);
      if (!res.ok) {
        ++out.warm_failed;
        std::fprintf(stderr, "perfbench: warm-up request failed: %s\n",
                     res.error.c_str());
      }
    }
  }
  if (w->cached) fs::remove_all(warm_dir);
  out.seconds = double(NowNs() - t0) * 1e-9;
  out.workload = std::move(*w);
  out.ok = true;
  return out;
}

/// Runs Setup in a forked child (a pristine copy of this process) and
/// returns its duration; nullopt when the child failed.
std::optional<double> SetupInChild(const std::string& name,
                                   const fs::path& root, const fs::path& work,
                                   uint64_t seed, size_t length) {
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    close(fds[0]);
    SetupResult r = Setup(name, root, work, seed, length);
    const double secs = r.ok && r.warm_failed == 0 ? r.seconds : -1.0;
    const bool wrote = write(fds[1], &secs, sizeof(secs)) == sizeof(secs);
    close(fds[1]);
    _exit(wrote ? 0 : 1);
  }
  close(fds[1]);
  double secs = -1;
  const bool got = read(fds[0], &secs, sizeof(secs)) == sizeof(secs);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!got || secs < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return std::nullopt;
  }
  return secs;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                  metrics[i].unit);
    out += buf;
  }
  return out + "}";
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<Metric> EndToEndMetrics(const Stats& st, double preferred_tail,
                                    double setup_s, double* tail_level) {
  std::vector<uint64_t> lat = st.ok_latency_ns;
  std::sort(lat.begin(), lat.end());
  *tail_level = TailLevel(preferred_tail, lat.size());
  const double ok = double(lat.size());
  return {
      {"setup_s", setup_s, "s"},
      {"requests_per_s", Ratio(ok, st.wall_s), "1/s"},
      {"latency_p50_ms", Percentile(lat, 50) * 1e-6, "ms"},
      {"latency_tail_ms", Percentile(lat, *tail_level) * 1e-6, "ms"},
      {"cpu_ms_per_request", Ratio(st.cpu_s * 1e3, ok), "ms"},
      {"peak_rss_mb", st.peak_rss_mb, "MB"},
  };
}

/// The metrics at the reference host speed: times divided, rates
/// multiplied by `slowdown` (the run's median probe time over
/// kReferenceProbeMs). Memory is left as measured.
std::vector<Metric> AtReferenceSpeed(std::vector<Metric> metrics,
                                     double slowdown) {
  for (Metric& m : metrics) {
    const std::string unit = m.unit;
    if (unit == "s" || unit == "ms") m.value /= slowdown;
    if (unit == "1/s") m.value *= slowdown;
  }
  return metrics;
}

/// `st` is the traced phase; `plain` the untraced phase before it.
std::vector<Metric> PerLayerMetrics(const Stats& st, const Stats& plain) {
  const double untraced_rps =
      Ratio(double(plain.ok_latency_ns.size()), plain.wall_s);
  const uint64_t after_probe =
      plain.probe_at > 0 ? plain.attempted - plain.probe_at : 0;
  const double n = double(std::max<uint64_t>(st.attempted, 1));
  const obs::MetricsSnapshot& all = st.request_delta;
  const obs::MetricsSnapshot& v = st.verify_delta;
  auto c = [](const obs::MetricsSnapshot& s, const char* name) {
    return double(s.CounterValue(name));
  };
  auto span_ms = [&](const char* name) {
    auto it = st.bench_span_ns.find(name);
    return it == st.bench_span_ns.end() ? 0.0 : it->second * 1e-6 / n;
  };
  auto outcome = [&](cache::Outcome o) {
    auto it = st.outcomes.find(o);
    return it == st.outcomes.end() ? 0.0 : double(it->second) / n;
  };
  std::vector<uint64_t> miss = st.miss_latency_ns;
  std::sort(miss.begin(), miss.end());
  const double rps = Ratio(double(st.ok_latency_ns.size()), st.wall_s);
  const double cone = c(all, "slice/cone_size");
  const double dropped_rel = c(all, "slice/relations_dropped");
  const double node_dups = c(v, "config_graph/node_dedup_hits");
  const double compiled = c(v, "fo/bytecode_execs");
  const double interp = c(v, "fo/interp_evals");
  const double memo_hits = c(v, "ltl/leaf_memo_hits");
  const double memo_misses = c(v, "ltl/leaf_memo_misses");
  const double prog_hits = c(v, "fo/bytecode_cache_hits") +
                           c(v, "fo/bytecode_xspec_hits");
  const double prog_compiles = c(v, "fo/bytecode_compiles");
  const double valuations = c(v, "ltl/valuations_checked");

  std::vector<Metric> m = {
      {"ws.parse_spec_ms", span_ms("ws.parse_spec"), "ms"},
      {"ws.parse_data_ms", span_ms("ws.parse_data"), "ms"},
      {"ltl.parse_property_ms", span_ms("ltl.parse_property"), "ms"},
      {"analysis.slice_cone_ratio",
       c(all, "slice/sliced") > 0 ? Ratio(cone, cone + dropped_rel) : 0.0,
       "ratio"},
      {"analysis.slice_rules_dropped", c(all, "slice/rules_dropped") / n,
       "count/req"},
      {"analysis.slice_lasso_bailouts", c(all, "slice/lasso_bailouts") / n,
       "count/req"},
      {"verify.db_enum.databases", c(v, "db_enum/instances_enumerated") / n,
       "count/req"},
      {"verify.db_enum.symmetry_pruned", c(v, "db_enum/symmetry_pruned") / n,
       "count/req"},
      {"runtime.successor.nodes_expanded",
       c(v, "config_graph/nodes_expanded") / n, "count/req"},
      {"runtime.successor.edges", c(v, "config_graph/edges") / n, "count/req"},
      {"runtime.successor.dedup_ratio",
       Ratio(node_dups, node_dups + c(v, "config_graph/nodes")), "ratio"},
      {"fo.leaf_evals", c(v, "ltl/fo_leaf_evals") / n, "count/req"},
      {"fo.leaf_eval_ms", double(HistSum(v, "ltl/leaf_eval_ns")) * 1e-6 / n,
       "ms"},
      {"fo.bytecode_steps", c(v, "fo/bytecode_steps") / n, "count/req"},
      {"fo.compiled_share", Ratio(compiled, compiled + interp), "ratio"},
      {"fo.leaf_memo_hit_ratio", Ratio(memo_hits, memo_hits + memo_misses),
       "ratio"},
      {"fo.program_cache_hit_ratio",
       Ratio(prog_hits, prog_hits + prog_compiles), "ratio"},
      {"automata.emptiness_ms",
       double(HistSum(v, "span/automata/emptiness")) * 1e-6 / n, "ms"},
      {"automata.otf_states_created", c(v, "ltl/otf_states_created") / n,
       "count/req"},
      {"automata.products_built", c(v, "ltl/products_built") / n, "count/req"},
      {"automata.collapse_ratio",
       Ratio(c(v, "ltl/products_skipped"), valuations), "ratio"},
      {"automata.early_exits", c(v, "ltl/otf_early_exits") / n, "count/req"},
      {"verify.call_ms", span_ms("verify.call"), "ms"},
      {"verify.valuations_checked", valuations / n, "count/req"},
      {"verify.witness_check_ms", span_ms("verify.witness_check"), "ms"},
      {"verify.parallel.cpu_per_wall",
       Ratio(st.verify_cpu_s * 1e3, span_ms("verify.call") * n), "ratio"},
      {"common.thread_pool.queue_wait_ms",
       double(HistSum(v, "pool/queue_latency_ns")) * 1e-6 / n, "ms"},
      {"common.thread_pool.tasks_run", c(v, "pool/tasks_run") / n, "count/req"},
      {"cache.key_us", span_ms("cache.key") * 1e3, "us"},
      {"cache.lookup_us", span_ms("cache.lookup") * 1e3, "us"},
      {"cache.insert_us", span_ms("cache.insert") * 1e3, "us"},
      {"cache.repeat_hit_ratio",
       Ratio(double(st.repeat_hits), double(st.repeats)), "ratio"},
      {"cache.hits", outcome(cache::Outcome::kHit), "count/req"},
      {"cache.warm", outcome(cache::Outcome::kWarm), "count/req"},
      {"cache.misses", outcome(cache::Outcome::kMiss), "count/req"},
      {"cache.invalidated", outcome(cache::Outcome::kInvalidated), "count/req"},
      {"cache.leaf_cols_loaded", c(all, "cache/leaf_cols_loaded") / n,
       "count/req"},
      {"cache.store_write_errors", c(all, "cache/store_write_errors") / n,
       "count/req"},
      {"cache.miss_latency_ms", Percentile(miss, 50) * 1e-6, "ms"},
      {"bench.driver_self_ms", st.ledger_ns[kBench] * 1e-6 / n, "ms"},
      {"bench.trace_overhead_ratio", Ratio(untraced_rps, rps), "ratio"},
      {"bench.host_probe_ms", Median(st.probe_ms), "ms"},
      {"mem.rss_growth_kb_per_request",
       Ratio(plain.end_rss_kb - plain.probe_rss_kb, double(after_probe)),
       "KiB"},
  };
  double sum = 0;
  for (int l = 0; l < kNumLayers; ++l) {
    sum += st.ledger_ns[l];
    if (l == kBench) continue;  // reported as bench.driver_self_ms
    std::string name = std::string("ledger.") + kLayerNames[l] + "_ms";
    std::replace(name.begin() + 7, name.end(), '.', '_');
    m.push_back({name, st.ledger_ns[l] * 1e-6 / n, "ms"});
  }
  m.push_back({"ledger.wall_ms", st.ledger_wall_ns * 1e-6 / n, "ms"});
  m.push_back({"ledger.residual_ms", (sum - st.ledger_wall_ns) * 1e-6 / n,
               "ms"});
  return m;
}

// ---------------------------------------------------------------------

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string root = ".";
  std::string work = ".bench_build/perfbench-work";
};

/// Set-ups per run; setup_s is their median.
constexpr int kSetupSamples = 3;

bool ParseFlags(int argc, char** argv, Flags* f) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (a == "--workload") {
      f->workload = v;
      continue;
    }
    if (a == "--root") {
      f->root = v;
      continue;
    }
    if (a == "--work-dir") {
      f->work = v;
      continue;
    }
    if (a == "--seconds") {
      f->seconds = std::strtod(v, &end);
      if (*end != '\0' || !(f->seconds > 0) || f->seconds > 3600) return false;
      continue;
    }
    const long long n = std::strtoll(v, &end, 10);
    if (*end != '\0' || errno != 0 || n < 0) return false;
    if (a == "--seed") {
      f->seed = static_cast<uint64_t>(n);
    } else if (a == "--trace" && n <= 1) {
      f->trace = static_cast<int>(n);
    } else {
      return false;
    }
  }
  return std::find(std::begin(kWorkloads), std::end(kWorkloads), f->workload) !=
         std::end(kWorkloads);
}

int Main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: wsv_perfbench --workload "
                 "quantified_holds|ground_violations|db_sweep_jobs2|"
                 "edit_replay --seed N --seconds S --trace 0|1 [--root DIR] "
                 "[--work-dir DIR]\n");
    return 2;
  }
  const fs::path root = flags.root;
  const fs::path work = fs::path(flags.work) / std::to_string(getpid());
  std::error_code ec;
  fs::create_directories(work, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", work.c_str());
    return 1;
  }
  // Generous upper bound on the requests one run can send; a run that
  // exhausts it stops early rather than repeating the stream.
  const size_t length =
      static_cast<size_t>(std::max(1000.0, flags.seconds * 5000.0));

  // Set-up, measured kSetupSamples times: in forked pristine children
  // first, then in this process (whose set-up the timed phase then uses).
  std::vector<double> setup_samples;
  for (int k = 1; k < kSetupSamples; ++k) {
    std::optional<double> s =
        SetupInChild(flags.workload, root, work, flags.seed, length);
    if (!s.has_value()) {
      std::fprintf(stderr, "perfbench: set-up failed in a child process\n");
      fs::remove_all(work, ec);
      return 1;
    }
    setup_samples.push_back(*s);
  }
  SetupResult setup = Setup(flags.workload, root, work, flags.seed, length);
  if (!setup.ok) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", setup.error.c_str());
    fs::remove_all(work, ec);
    return 1;
  }
  setup_samples.push_back(setup.seconds);
  const double setup_s = Median(setup_samples);
  const Workload& w = setup.workload;

  size_t next = 0;
  std::vector<Metric> metrics;
  Stats measured;
  std::string detail;
  char buf[512];
  if (flags.trace == 0) {
    measured = Measure(w, flags.seconds, false, work / "cache", &next);
    double tail_level = 0;
    const std::vector<Metric> raw =
        EndToEndMetrics(measured, w.tail_level, setup_s, &tail_level);
    const double probe_ms = Median(measured.probe_ms);
    metrics = AtReferenceSpeed(raw, probe_ms / kReferenceProbeMs);
    std::snprintf(buf, sizeof(buf),
                  "{\"detail\": {\"workload\": \"%s\", \"seed\": %llu, "
                  "\"samples\": %zu, \"tail_percentile\": %g, "
                  "\"setup_samples\": %zu, \"timed_wall_s\": %.4f, "
                  "\"closed_loop_clients\": 1, \"probe_median_ms\": %.5f, "
                  "\"probes\": %zu, \"as_measured\": ",
                  w.name.c_str(), static_cast<unsigned long long>(flags.seed),
                  measured.ok_latency_ns.size(), tail_level,
                  setup_samples.size(), measured.wall_s, probe_ms,
                  measured.probe_ms.size());
    detail = buf + MetricsJson(raw) + "}}";
  } else {
    // Untraced then traced, half the time each, continuing one stream.
    Stats plain = Measure(w, flags.seconds / 2, false, work / "cache", &next);
    const fs::path span_out =
        fs::path(flags.work) / ("spans-" + w.name + "-" +
                                std::to_string(flags.seed) + ".jsonl");
    measured = Measure(w, flags.seconds / 2, true, work / "cache", &next,
                       span_out);
    metrics = PerLayerMetrics(measured, plain);
    measured.attempted += plain.attempted;
    measured.failed += plain.failed;
    std::snprintf(buf, sizeof(buf),
                  "{\"detail\": {\"workload\": \"%s\", \"seed\": %llu, "
                  "\"untraced_requests\": %llu, \"traced_requests\": %zu}}",
                  w.name.c_str(), static_cast<unsigned long long>(flags.seed),
                  static_cast<unsigned long long>(plain.attempted),
                  measured.ok_latency_ns.size());
    detail = buf;
  }
  fs::remove_all(work, ec);
  const uint64_t failed = measured.failed + setup.warm_failed;
  std::printf("%s\n", detail.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 && measured.attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(measured.attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace wsv

int main(int argc, char** argv) { return wsv::Main(argc, argv); }
