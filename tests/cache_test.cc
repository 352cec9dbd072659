// Cross-request verification cache (`ctest -L cache`): fingerprint
// invariance, store-format negatives (corruption, version bumps),
// hit/warm/invalidated classification with counter enforcement,
// cold-vs-cached verdict identity (the differential the cache's whole
// design leans on), old cache directories with retired record kinds,
// the bytecode fingerprint collision guard, and the replay job parser.

#include <gtest/gtest.h>

#include <cstdlib>
#include <ctime>
#include <string>
#include <unistd.h>
#include <vector>

#include "cache/invalidate.h"
#include "cache/replay.h"
#include "cache/store.h"
#include "cache/verify_cache.h"
#include "common/fingerprint.h"
#include "common/file_util.h"
#include "fo/bytecode/cache.h"
#include "gallery/gallery.h"
#include "ltl/ltl_parser.h"
#include "obs/metrics.h"
#include "verify/ltl_verifier.h"
#include "ws/data_parser.h"
#include "ws/spec_parser.h"

namespace wsv {
namespace cache {
namespace {

const char kSpec[] = R"(service Login;

database user(uname, upass);
state error(msg);
state logged_in;
input name const;
input password const;
input button(label);

page HP {
  input name, password;
  options button(x) :- x = "login" | x = "quit";
  state +error("failed login") :- !user(name, password) & button("login");
  state +logged_in :- user(name, password) & button("login");
  target CP :- user(name, password) & button("login");
  target MP :- !user(name, password) & button("login");
  target BYE :- button("quit") | !(exists x . button(x) & true);
}

page CP {
  options button(x) :- x = "logout";
  target BYE :- button("logout");
}

page MP {
}

page BYE {
}

home HP;
error ERR;
)";

// kSpec with different whitespace and comments: same structure, and —
// the point of content fingerprinting — the same fingerprint.
const char kSpecReformatted[] = R"(# reformatted; fingerprint must agree
service Login;
database user(uname, upass);
state error(msg);
state logged_in;
input name const;
input password const;
input button(label);
page HP {
  input name, password;


  options button(x) :- x = "login" | x = "quit";
  state +error("failed login") :- !user(name, password) & button("login");
  state +logged_in :- user(name, password) & button("login");
  target CP :- user(name, password) & button("login");   # comment
  target MP :- !user(name, password) & button("login");
  target BYE :- button("quit") | !(exists x . button(x) & true);
}
page CP {
  options button(x) :- x = "logout";
  target BYE :- button("logout");
}
page MP {
}
page BYE {
}
home HP;
error ERR;
)";

// One-rule edit: the failed-login error rule gains a vacuous `& true`.
// Same literal set, same relations read — the diff dirties only
// `error`, so properties over other relations survive the edit.
std::string EditedSpec() {
  std::string text = kSpec;
  const std::string from =
      "state +error(\"failed login\") :- !user(name, password) & "
      "button(\"login\");";
  const std::string to =
      "state +error(\"failed login\") :- !user(name, password) & "
      "button(\"login\") & true;";
  size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos);
  text.replace(pos, from.size(), to);
  return text;
}

// Literal-set edit: a third button option. New constant literal in a
// rule body — the invalidation algebra must classify this as global.
std::string LiteralEditedSpec() {
  std::string text = kSpec;
  const std::string from = "x = \"login\" | x = \"quit\"";
  const std::string to = "x = \"login\" | x = \"quit\" | x = \"retry\"";
  size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos);
  text.replace(pos, from.size(), to);
  return text;
}

WebService MustParse(const std::string& text) {
  auto service = ParseServiceSpec(text);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(service).value();
}

TemporalProperty MustProp(const WebService& service, const std::string& p) {
  auto prop = ParseTemporalProperty(p, &service.vocab());
  EXPECT_TRUE(prop.ok()) << p << ": " << prop.status().ToString();
  return std::move(prop).value();
}

Instance MustDb(const WebService& service, const std::string& text) {
  auto db = ParseDataFile(text, &service.vocab());
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

// A directory under the test temp root that no previous run populated
// (stale entries would turn first-lookup misses into disk hits).
std::string FreshCacheDir(const std::string& name) {
  return ::testing::TempDir() + "cache_test_" + name + "_" +
         std::to_string(::getpid()) + "_" +
         std::to_string(static_cast<unsigned long>(::time(nullptr)));
}

uint64_t CounterDelta(const obs::MetricsSnapshot& before,
                      const obs::MetricsSnapshot& after,
                      std::string_view name) {
  return after.CounterValue(name) - before.CounterValue(name);
}

// ---------------------------------------------------------------------
// Fingerprints

TEST(FingerprintTest, ReformattingKeepsServiceFingerprint) {
  WebService a = MustParse(kSpec);
  WebService b = MustParse(kSpecReformatted);
  EXPECT_EQ(FingerprintService(a), FingerprintService(b));
}

TEST(FingerprintTest, StructuralEditChangesServiceFingerprint) {
  WebService a = MustParse(kSpec);
  WebService b = MustParse(EditedSpec());
  EXPECT_NE(FingerprintService(a), FingerprintService(b));
}

TEST(FingerprintTest, PropertyFingerprintIgnoresSourceSpans) {
  WebService service = MustParse(kSpec);
  TemporalProperty a = MustProp(service, "G(!CP | logged_in)");
  TemporalProperty b = MustProp(service, "G( !CP  |  logged_in )");
  TemporalProperty c = MustProp(service, "F(CP)");
  EXPECT_EQ(FingerprintProperty(a), FingerprintProperty(b));
  EXPECT_NE(FingerprintProperty(a), FingerprintProperty(c));
}

TEST(FingerprintTest, InstanceFingerprintIsOrderIndependent) {
  WebService service = MustParse(kSpec);
  Instance a = MustDb(service, "user(alice, pw).\nuser(bob, hunter2).");
  Instance b = MustDb(service, "user(bob, hunter2).\nuser(alice, pw).");
  Instance c = MustDb(service, "user(alice, pw).");
  EXPECT_EQ(FingerprintInstance(a), FingerprintInstance(b));
  EXPECT_NE(FingerprintInstance(a), FingerprintInstance(c));
}

TEST(FingerprintTest, HexRoundTrip) {
  Fingerprint fp{0x0123456789abcdefull, 0xfedcba9876543210ull};
  Fingerprint back;
  ASSERT_TRUE(Fingerprint::FromHex(fp.ToHex(), &back));
  EXPECT_EQ(fp, back);
  EXPECT_FALSE(Fingerprint::FromHex("not hex", &back));
  EXPECT_FALSE(Fingerprint::FromHex(fp.ToHex().substr(1), &back));
}

// ---------------------------------------------------------------------
// Store format

std::string SamplePayload() {
  ByteWriter w;
  w.U8(1);
  w.U64(42);
  w.Str("witness text");
  return w.data();
}

TEST(StoreTest, RecordRoundTrip) {
  const std::string payload = SamplePayload();
  const std::string file = EncodeRecord(kKindVerdict, payload);
  std::string out;
  ASSERT_TRUE(DecodeRecord(file, kKindVerdict, &out));
  EXPECT_EQ(out, payload);

  ByteReader r(out);
  uint8_t u8 = 0;
  uint64_t u64 = 0;
  std::string s;
  ASSERT_TRUE(r.U8(&u8));
  ASSERT_TRUE(r.U64(&u64));
  ASSERT_TRUE(r.Str(&s));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(u8, 1);
  EXPECT_EQ(u64, 42u);
  EXPECT_EQ(s, "witness text");
}

TEST(StoreTest, CorruptionIsAMiss) {
  const std::string payload = SamplePayload();
  std::string file = EncodeRecord(kKindVerdict, payload);
  std::string out;
  // Flip one payload byte: checksum mismatch.
  std::string flipped = file;
  flipped[flipped.size() - 3] ^= 0x20;
  EXPECT_FALSE(DecodeRecord(flipped, kKindVerdict, &out));
  // Truncate: size mismatch.
  EXPECT_FALSE(
      DecodeRecord(std::string_view(file).substr(0, file.size() - 1),
                   kKindVerdict, &out));
  // Mangle the magic.
  std::string bad_magic = file;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DecodeRecord(bad_magic, kKindVerdict, &out));
}

TEST(StoreTest, VersionBumpIsAMiss) {
  const std::string file =
      EncodeRecord(kKindVerdict, SamplePayload(), kStoreVersion + 1);
  std::string out;
  EXPECT_FALSE(DecodeRecord(file, kKindVerdict, &out));
}

TEST(StoreTest, WrongKindIsAMiss) {
  const std::string file = EncodeRecord(kKindVerdict, SamplePayload());
  std::string out;
  EXPECT_FALSE(DecodeRecord(file, kKindSpec, &out));
}

TEST(StoreTest, FileRoundTripAndAbsence) {
  const std::string dir = FreshCacheDir("store");
  ASSERT_TRUE(EnsureDir(dir));
  const std::string path = dir + "/rec.bin";
  std::string out;
  bool existed = true;
  EXPECT_FALSE(ReadRecordFile(path, kKindSpec, &out, &existed));
  EXPECT_FALSE(existed);
  ASSERT_TRUE(WriteRecordFile(path, kKindSpec, "spec text"));
  ASSERT_TRUE(ReadRecordFile(path, kKindSpec, &out, &existed));
  EXPECT_TRUE(existed);
  EXPECT_EQ(out, "spec text");
}

TEST(StoreTest, TruncatedReaderFailsClosed) {
  ByteReader r(std::string_view("\x02", 1));
  std::string s;
  EXPECT_FALSE(r.Str(&s));  // length prefix itself is truncated
  ByteReader r2(std::string_view("\xff\xff\xff\xff\xff\xff\xff\xff", 8));
  EXPECT_FALSE(r2.Str(&s));  // claims 2^64-1 bytes
}

// ---------------------------------------------------------------------
// Invalidation algebra

TEST(InvalidateTest, RuleEditDirtiesOnlyItsRelation) {
  WebService older = MustParse(kSpec);
  WebService newer = MustParse(EditedSpec());
  SpecDelta delta = DiffServices(older, newer);
  EXPECT_FALSE(delta.global) << delta.global_reason;
  EXPECT_EQ(delta.dirty_relations.count("error"), 1u);
  EXPECT_EQ(delta.dirty_relations.count("logged_in"), 0u);
  ASSERT_FALSE(delta.changed_rules.empty());

  TemporalProperty unaffected = MustProp(newer, "G(!CP | logged_in)");
  TemporalProperty affected =
      MustProp(newer, "G(!BYE | !error(\"failed login\"))");
  EXPECT_FALSE(PropertyAffected(delta, unaffected, newer));
  EXPECT_TRUE(PropertyAffected(delta, affected, newer));
}

TEST(InvalidateTest, IdenticalServicesDiffEmpty) {
  WebService a = MustParse(kSpec);
  WebService b = MustParse(kSpecReformatted);
  SpecDelta delta = DiffServices(a, b);
  EXPECT_FALSE(delta.global);
  EXPECT_TRUE(delta.Empty());
}

TEST(InvalidateTest, LiteralSetChangeIsGlobal) {
  WebService older = MustParse(kSpec);
  WebService newer = MustParse(LiteralEditedSpec());
  SpecDelta delta = DiffServices(older, newer);
  EXPECT_TRUE(delta.global);
  // Global deltas affect every property, whatever its leaves read.
  TemporalProperty prop = MustProp(newer, "G(!CP | logged_in)");
  EXPECT_TRUE(PropertyAffected(delta, prop, newer));
}

// ---------------------------------------------------------------------
// VerifyCache end to end

struct Request {
  WebService service;
  TemporalProperty property;
  Instance db;
  LtlVerifyOptions options;
  RequestKey key;
};

Request MakeRequest(const std::string& spec_text,
                    const std::string& prop_text) {
  Request r{MustParse(spec_text), {}, {}, {}, {}};
  r.property = MustProp(r.service, prop_text);
  r.db = MustDb(r.service, "user(alice, pw).");
  r.key = MakeRequestKey(r.service, r.property, &r.db, r.options,
                         /*jobs=*/1);
  return r;
}

CachedVerdict ColdVerdict(const Request& r) {
  auto result =
      LtlVerifier(&r.service, r.options).VerifyOnDatabase(r.property, r.db);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  CachedVerdict v;
  v.holds = result->holds;
  if (!result->holds) v.witness_text = result->counterexample->ToString();
  v.databases_checked = result->databases_checked;
  v.total_graph_nodes = result->total_graph_nodes;
  v.total_product_states = result->total_product_states;
  v.complete_within_bounds = result->complete_within_bounds;
  return v;
}

TEST(VerifyCacheTest, MissInsertHitThenDiskHit) {
  const std::string dir = FreshCacheDir("disk");
  Request r = MakeRequest(kSpec, "G(!CP | logged_in)");
  CachedVerdict cold = ColdVerdict(r);

  {
    VerifyCache::Config cfg;
    cfg.dir = dir;
    VerifyCache cache(std::move(cfg));
    cache.RegisterSpec(r.key.spec, kSpec);
    auto miss = cache.Lookup(r.key, "login", r.service, r.property);
    EXPECT_EQ(miss.outcome, Outcome::kMiss);
    cache.Insert(r.key, cold);
    auto hit = cache.Lookup(r.key, "login", r.service, r.property);
    ASSERT_EQ(hit.outcome, Outcome::kHit);
    EXPECT_EQ(hit.verdict.holds, cold.holds);
    EXPECT_EQ(hit.verdict.witness_text, cold.witness_text);
    EXPECT_EQ(hit.verdict.total_product_states, cold.total_product_states);
  }

  // A second instance over the same directory: served from disk, and —
  // the reformatted spec — through the same content fingerprint.
  Request r2 = MakeRequest(kSpecReformatted, "G(!CP | logged_in)");
  ASSERT_EQ(r2.key.combined, r.key.combined);
  VerifyCache::Config cfg;
  cfg.dir = dir;
  VerifyCache cache2(std::move(cfg));
  cache2.RegisterSpec(r2.key.spec, kSpecReformatted);
  auto hit = cache2.Lookup(r2.key, "login", r2.service, r2.property);
  ASSERT_EQ(hit.outcome, Outcome::kHit);
  EXPECT_EQ(hit.verdict.holds, cold.holds);
  EXPECT_EQ(hit.verdict.witness_text, cold.witness_text);
  EXPECT_EQ(hit.verdict.databases_checked, cold.databases_checked);
  EXPECT_EQ(hit.verdict.total_graph_nodes, cold.total_graph_nodes);
  EXPECT_EQ(hit.verdict.total_product_states, cold.total_product_states);
  EXPECT_EQ(hit.verdict.complete_within_bounds,
            cold.complete_within_bounds);
}

TEST(VerifyCacheTest, CorruptedVerdictFileIsAMiss) {
  const std::string dir = FreshCacheDir("corrupt");
  Request r = MakeRequest(kSpec, "G(!CP | logged_in)");
  CachedVerdict cold = ColdVerdict(r);
  {
    VerifyCache::Config cfg;
    cfg.dir = dir;
    VerifyCache cache(std::move(cfg));
    cache.RegisterSpec(r.key.spec, kSpec);
    cache.Insert(r.key, cold);
  }
  const std::string path =
      dir + "/verdicts/" + r.key.combined.ToHex() + ".bin";
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(path, &bytes));
  bytes[bytes.size() / 2] ^= 0x41;
  ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());

  VerifyCache::Config cfg;
  cfg.dir = dir;
  VerifyCache cache(std::move(cfg));
  cache.RegisterSpec(r.key.spec, kSpec);
  auto looked = cache.Lookup(r.key, "login", r.service, r.property);
  EXPECT_EQ(looked.outcome, Outcome::kMiss);
}

TEST(VerifyCacheTest, DisableEnvVarBypassesEverything) {
  Request r = MakeRequest(kSpec, "G(!CP | logged_in)");
  VerifyCache cache(VerifyCache::Config{});
  cache.RegisterSpec(r.key.spec, kSpec);
  cache.Insert(r.key, ColdVerdict(r));
  ASSERT_EQ(cache.Lookup(r.key, "login", r.service, r.property).outcome,
            Outcome::kHit);

  ::setenv("WSV_DISABLE_VERIFY_CACHE", "1", 1);
  EXPECT_FALSE(VerifyCache::Enabled());
  EXPECT_EQ(cache.Lookup(r.key, "login", r.service, r.property).outcome,
            Outcome::kMiss);
  cache.Insert(r.key, ColdVerdict(r));  // no-op while disabled
  ::unsetenv("WSV_DISABLE_VERIFY_CACHE");
  EXPECT_TRUE(VerifyCache::Enabled());
  EXPECT_EQ(cache.Lookup(r.key, "login", r.service, r.property).outcome,
            Outcome::kHit);
}

// The differential the design rests on: for a corpus of properties, the
// cached verdict must be field-for-field identical to a second cold run
// — including the witness text on VIOLATED verdicts.
TEST(VerifyCacheTest, CachedVerdictsMatchColdRunsBitForBit) {
  const std::vector<std::string> corpus = {
      "G(!CP | logged_in)",
      "F(CP)",
      "G(!MP | !logged_in)",
      "G(!BYE | !error(\"failed login\"))",
      "F(BYE)",
  };
  VerifyCache cache(VerifyCache::Config{});
  for (const std::string& prop_text : corpus) {
    Request r = MakeRequest(kSpec, prop_text);
    cache.RegisterSpec(r.key.spec, kSpec);
    ASSERT_EQ(cache.Lookup(r.key, "login", r.service, r.property).outcome,
              Outcome::kMiss)
        << prop_text;
    cache.Insert(r.key, ColdVerdict(r));

    // Re-run cold (fresh verifier, fresh parse) and compare.
    Request again = MakeRequest(kSpecReformatted, prop_text);
    ASSERT_EQ(again.key.combined, r.key.combined) << prop_text;
    CachedVerdict cold = ColdVerdict(again);
    auto hit = cache.Lookup(again.key, "login", again.service,
                            again.property);
    ASSERT_EQ(hit.outcome, Outcome::kHit) << prop_text;
    EXPECT_EQ(hit.verdict.holds, cold.holds) << prop_text;
    EXPECT_EQ(hit.verdict.witness_text, cold.witness_text) << prop_text;
    EXPECT_EQ(hit.verdict.databases_checked, cold.databases_checked)
        << prop_text;
    EXPECT_EQ(hit.verdict.total_graph_nodes, cold.total_graph_nodes)
        << prop_text;
    EXPECT_EQ(hit.verdict.total_product_states, cold.total_product_states)
        << prop_text;
  }
}

// Slicing and class collapsing change what a request reports (graph
// and product counts), so the key must tell them apart: a verdict
// computed under one setting is never served under another. Under
// WSV_DISABLE_SLICE (the cache_test_noslice rerun) the default options
// are already unsliced, so the first two settings are one.
TEST(VerifyCacheTest, KeyCoversSlicingAndCollapseOptions) {
  const bool slicing = LtlVerifyOptions{}.enable_slice;
  Request sliced = MakeRequest(kSpec, "G(!CP | logged_in)");
  auto key_with = [&](void (*edit)(LtlVerifyOptions&)) {
    LtlVerifyOptions options = sliced.options;
    edit(options);
    return MakeRequestKey(sliced.service, sliced.property, &sliced.db,
                          options, /*jobs=*/1)
        .combined;
  };
  const std::vector<Fingerprint> keys = {
      sliced.key.combined,
      key_with([](LtlVerifyOptions& o) { o.enable_slice = false; }),
      key_with([](LtlVerifyOptions& o) { o.class_collapse = false; }),
  };
  for (size_t i = 0; i < keys.size(); ++i) {
    for (size_t j = i + 1; j < keys.size(); ++j) {
      const bool same_decision = i == 0 && j == 1 && !slicing;
      EXPECT_EQ(keys[i] == keys[j], same_decision)
          << "settings " << i << " and " << j;
    }
  }

  VerifyCache cache(VerifyCache::Config{});
  cache.RegisterSpec(sliced.key.spec, kSpec);
  cache.Insert(sliced.key, ColdVerdict(sliced));
  Request unsliced = MakeRequest(kSpec, "G(!CP | logged_in)");
  unsliced.options.enable_slice = false;
  unsliced.key = MakeRequestKey(unsliced.service, unsliced.property,
                                &unsliced.db, unsliced.options, /*jobs=*/1);
  EXPECT_EQ(cache.Lookup(unsliced.key, "login", unsliced.service,
                         unsliced.property)
                .outcome,
            slicing ? Outcome::kMiss : Outcome::kHit);
}

// Keys written by earlier builds must still hit: the request key and an
// instance fingerprint with several relations and constants are pinned
// to the values the name-keyed data layer computed, so a change to how
// instances store or order their names cannot silently orphan on-disk
// records.
TEST(VerifyCacheTest, KeysMatchRecordsOfEarlierBuilds) {
  Request r = MakeRequest(kSpec, "G(!CP | logged_in)");
  r.options.enable_slice = true;
  const RequestKey key =
      MakeRequestKey(r.service, r.property, &r.db, r.options, /*jobs=*/1);
  EXPECT_EQ(key.combined.ToHex(), "faef44e7b76b825d24e21639f22ec913");

  Instance inst;
  ASSERT_TRUE(inst.AddFact("zeta", {Value::Intern("z1")}).ok());
  ASSERT_TRUE(
      inst.AddFact("alpha", {Value::Intern("a1"), Value::Intern("a2")}).ok());
  ASSERT_TRUE(inst.AddFact("mid", {}).ok());
  inst.SetConstant("omega", Value::Intern("o"));
  inst.SetConstant("beta", Value::Intern("b"));
  EXPECT_EQ(FingerprintInstance(inst).ToHex(),
            "97a5d546e42504aa894ed308f37f4118");
}

TEST(VerifyCacheTest, EditMigratesUnaffectedAndEvictsAffected) {
  VerifyCache cache(VerifyCache::Config{});
  Request un0 = MakeRequest(kSpec, "G(!CP | logged_in)");
  Request aff0 = MakeRequest(kSpec, "G(!BYE | !error(\"failed login\"))");
  cache.RegisterSpec(un0.key.spec, kSpec);
  cache.Lookup(un0.key, "login", un0.service, un0.property);
  cache.Insert(un0.key, ColdVerdict(un0));
  cache.Lookup(aff0.key, "login", aff0.service, aff0.property);
  cache.Insert(aff0.key, ColdVerdict(aff0));

  const std::string edited = EditedSpec();
  Request un1 = MakeRequest(edited, "G(!CP | logged_in)");
  Request aff1 = MakeRequest(edited, "G(!BYE | !error(\"failed login\"))");
  cache.RegisterSpec(un1.key.spec, edited);

  obs::MetricsSnapshot before = obs::SnapshotMetrics();
  auto warm = cache.Lookup(un1.key, "login", un1.service, un1.property);
  ASSERT_EQ(warm.outcome, Outcome::kWarm);
  EXPECT_TRUE(warm.verdict.migrated);
  EXPECT_TRUE(warm.verdict.holds);
  EXPECT_FALSE(warm.delta.global) << warm.delta.global_reason;

  auto inval = cache.Lookup(aff1.key, "login", aff1.service, aff1.property);
  EXPECT_EQ(inval.outcome, Outcome::kInvalidated);
  obs::MetricsSnapshot after = obs::SnapshotMetrics();
#ifndef WSV_OBS_DISABLED
  EXPECT_EQ(CounterDelta(before, after, "cache/warm_hits"), 1u);
  EXPECT_EQ(CounterDelta(before, after, "cache/invalidated"), 1u);
  EXPECT_EQ(CounterDelta(before, after, "cache/hits"), 0u);
#endif

  // The migrated entry now lives under the new fingerprint: an exact
  // hit, no further chain walk.
  EXPECT_EQ(cache.Lookup(un1.key, "login", un1.service, un1.property)
                .outcome,
            Outcome::kHit);
}

// The payoff of the dependence-graph cone query over the old
// leaf-mentions-dirty check: a *quantified* property survives an edit
// outside its cone. `exists u . user(u, password)` is syntactically
// domain-independent, so dirtying `error` (which the property's
// backward cone never reaches) migrates the verdict warm — the old
// algebra evicted every quantified property on any edit.
TEST(VerifyCacheTest, OutsideConeEditMigratesQuantifiedProperty) {
  const std::string prop_text =
      "G(!CP | (exists u . user(u, password)))";
  // The existential quantifies over a database relation, not an input
  // atom — allowed only outside the input-bounded fragment.
  auto unbounded = [](Request r) {
    r.options.require_input_bounded = false;
    r.key = MakeRequestKey(r.service, r.property, &r.db, r.options,
                           /*jobs=*/1);
    return r;
  };
  VerifyCache cache(VerifyCache::Config{});
  Request r0 = unbounded(MakeRequest(kSpec, prop_text));
  cache.RegisterSpec(r0.key.spec, kSpec);
  cache.Lookup(r0.key, "login", r0.service, r0.property);
  CachedVerdict cold = ColdVerdict(r0);
  ASSERT_TRUE(cold.holds);
  cache.Insert(r0.key, cold);

  const std::string edited = EditedSpec();  // dirties only `error`
  Request r1 = unbounded(MakeRequest(edited, prop_text));
  cache.RegisterSpec(r1.key.spec, edited);

  SpecDelta delta = DiffServices(r0.service, r1.service);
  ASSERT_FALSE(delta.global) << delta.global_reason;
  ASSERT_EQ(delta.dirty_relations.count("error"), 1u);
  EXPECT_FALSE(PropertyAffected(delta, r1.property, r1.service));

  auto warm = cache.Lookup(r1.key, "login", r1.service, r1.property);
  ASSERT_EQ(warm.outcome, Outcome::kWarm);
  EXPECT_TRUE(warm.verdict.migrated);
  // And the migrated verdict still agrees with a cold run on the new
  // spec — the cone query must not have let a real change through.
  CachedVerdict recheck = ColdVerdict(r1);
  EXPECT_EQ(warm.verdict.holds, recheck.holds);
  EXPECT_EQ(warm.verdict.databases_checked, recheck.databases_checked);
}

TEST(VerifyCacheTest, GlobalEditEvictsEverything) {
  VerifyCache cache(VerifyCache::Config{});
  Request r0 = MakeRequest(kSpec, "G(!CP | logged_in)");
  cache.RegisterSpec(r0.key.spec, kSpec);
  cache.Lookup(r0.key, "login", r0.service, r0.property);
  cache.Insert(r0.key, ColdVerdict(r0));

  const std::string edited = LiteralEditedSpec();
  Request r1 = MakeRequest(edited, "G(!CP | logged_in)");
  cache.RegisterSpec(r1.key.spec, edited);
  auto looked = cache.Lookup(r1.key, "login", r1.service, r1.property);
  EXPECT_EQ(looked.outcome, Outcome::kInvalidated);
  EXPECT_TRUE(looked.delta.global);
}

TEST(VerifyCacheTest, LintTextPersistsPerSpec) {
  const std::string dir = FreshCacheDir("lint");
  Fingerprint spec_fp;
  {
    WebService service = MustParse(kSpec);
    spec_fp = FingerprintService(service);
    VerifyCache::Config cfg;
    cfg.dir = dir;
    VerifyCache cache(std::move(cfg));
    cache.RegisterSpec(spec_fp, kSpec);
    std::string lint;
    EXPECT_FALSE(cache.LookupLint(spec_fp, &lint));
    cache.InsertLint(spec_fp, "rendered lint\n");
    ASSERT_TRUE(cache.LookupLint(spec_fp, &lint));
    EXPECT_EQ(lint, "rendered lint\n");
  }
  VerifyCache::Config cfg;
  cfg.dir = dir;
  VerifyCache cache(std::move(cfg));
  std::string lint;
  ASSERT_TRUE(cache.LookupLint(spec_fp, &lint));
  EXPECT_EQ(lint, "rendered lint\n");
}

// A directory written before the FO-leaf column store was retired
// still holds cols/: a well-formed column record (record kind 3, the
// retired kKindLeafColumn) and a garbage file. The cache serves the
// directory's verdicts as hits, writes new verdicts beside them, and
// never reads or rewrites anything under cols/.
TEST(VerifyCacheTest, OldColumnRecordsAreIgnored) {
  const std::string dir = FreshCacheDir("oldcols");
  Request holds = MakeRequest(kSpec, "G(!CP | logged_in)");
  Request violated = MakeRequest(kSpec, "G(!MP)");
  const CachedVerdict holds_cold = ColdVerdict(holds);
  const CachedVerdict violated_cold = ColdVerdict(violated);
  ASSERT_TRUE(holds_cold.holds);
  ASSERT_FALSE(violated_cold.holds);
  {
    VerifyCache::Config cfg;
    cfg.dir = dir;
    VerifyCache cache(std::move(cfg));
    cache.RegisterSpec(holds.key.spec, kSpec);
    cache.Insert(holds.key, holds_cold);
    cache.Insert(violated.key, violated_cold);
  }

  // The parent-era column record: key, bound, then the set-bit indices
  // as a length-prefixed u64 list.
  const std::string cols = dir + "/cols";
  ASSERT_TRUE(EnsureDir(cols));
  ByteWriter w;
  w.Str("leafctx|leaf:0123|b:alice,|e:");
  w.U64(5);
  w.U64(2);
  w.U64(1);
  w.U64(3);
  ASSERT_TRUE(WriteRecordFile(cols + "/00000000deadbeef.bin",
                              kKindLeafColumn, w.data()));
  ASSERT_TRUE(WriteFileAtomic(cols + "/ffffffffffffffff.bin",
                              "not a record at all")
                  .ok());
  const std::vector<std::string> names = ListDir(cols);
  ASSERT_EQ(names.size(), 2u);
  std::vector<std::string> contents;
  for (const std::string& name : names) {
    ASSERT_TRUE(ReadFileToString(cols + "/" + name, &contents.emplace_back()));
  }

  obs::MetricsSnapshot before = obs::SnapshotMetrics();
  {
    VerifyCache::Config cfg;
    cfg.dir = dir;
    VerifyCache cache(std::move(cfg));
    cache.RegisterSpec(holds.key.spec, kSpec);
    for (const auto& [r, cold] :
         {std::pair<const Request*, const CachedVerdict*>{&holds, &holds_cold},
          {&violated, &violated_cold}}) {
      auto hit = cache.Lookup(r->key, "login", r->service, r->property);
      ASSERT_EQ(hit.outcome, Outcome::kHit);
      EXPECT_EQ(hit.verdict.holds, cold->holds);
      EXPECT_EQ(hit.verdict.witness_text, cold->witness_text);
      EXPECT_EQ(hit.verdict.total_product_states, cold->total_product_states);
    }
    // A miss verifies and writes its verdict; cols/ stays untouched.
    Request fresh = MakeRequest(kSpec, "G(!CP)");
    auto miss = cache.Lookup(fresh.key, "login", fresh.service, fresh.property);
    EXPECT_EQ(miss.outcome, Outcome::kMiss);
    cache.Insert(fresh.key, ColdVerdict(fresh));
  }
  obs::MetricsSnapshot after = obs::SnapshotMetrics();
#ifndef WSV_OBS_DISABLED
  EXPECT_EQ(CounterDelta(before, after, "cache/store_corrupt"), 0u);
  EXPECT_EQ(CounterDelta(before, after, "cache/store_write_errors"), 0u);
#endif
  ASSERT_EQ(ListDir(cols), names);
  for (size_t i = 0; i < names.size(); ++i) {
    std::string now;
    ASSERT_TRUE(ReadFileToString(cols + "/" + names[i], &now));
    EXPECT_EQ(now, contents[i]) << names[i];
  }
}

// ---------------------------------------------------------------------
// Bytecode program cache: fingerprint re-key and the collision guard

struct ScopedForcedCollisions {
  ScopedForcedCollisions() { fobc::ForceFingerprintCollisionsForTest(true); }
  ~ScopedForcedCollisions() {
    fobc::ForceFingerprintCollisionsForTest(false);
  }
};

TEST(BytecodeFingerprintTest, CrossSpecProgramReuse) {
  // Two parses of the same text: distinct Formula objects, identical
  // structure. The cache is keyed by structure, so the second
  // verification compiles nothing and adds no entry.
  Request a = MakeRequest(kSpec, "G(!CP | logged_in)");
  CachedVerdict va = ColdVerdict(a);
  const fobc::CacheStats stats_before = fobc::ProgramCacheStats();
  obs::MetricsSnapshot before = obs::SnapshotMetrics();
  Request b = MakeRequest(kSpecReformatted, "G(!CP | logged_in)");
  CachedVerdict vb = ColdVerdict(b);
  obs::MetricsSnapshot after = obs::SnapshotMetrics();
  EXPECT_EQ(va.holds, vb.holds);
  EXPECT_EQ(va.total_product_states, vb.total_product_states);
  EXPECT_EQ(fobc::ProgramCacheStats().entries, stats_before.entries);
#ifndef WSV_OBS_DISABLED
  EXPECT_EQ(CounterDelta(before, after, "fo/bytecode_compiles"), 0u);
#endif
}

// Zero steady-state growth: verifying the same request from a fresh
// parse of the same text compiles nothing after the first time, and the
// program cache keeps exactly the entries, code and exemplar formulas it
// had. Every parse makes new formula objects, so a cache that kept
// anything per object would grow here.
TEST(BytecodeFingerprintTest, RepeatedRequestsDoNotGrowProgramCache) {
  struct Case {
    std::string spec;
    std::string property;
    std::string db;
    std::vector<Value> pool;
  };
  const Case cases[] = {
      {EcommerceSpecText(), "G(!PIP) | F(PIP & F(CC))", "",
       {Value::Intern("alice"), Value::Intern("pw")}},
      {kSpec, "G(!CP | logged_in)", "user(alice, pw).", {}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.property);
    fobc::CacheStats first;
    obs::MetricsSnapshot after_first;
    for (int round = 0; round < 5; ++round) {
      WebService service = MustParse(c.spec);
      TemporalProperty property = MustProp(service, c.property);
      Instance db = c.db.empty() ? EcommerceSmallDatabase()
                                 : MustDb(service, c.db);
      LtlVerifyOptions options;
      options.graph.constant_pool = c.pool;
      options.require_input_bounded = false;
      auto result =
          LtlVerifier(&service, options).VerifyOnDatabase(property, db);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const fobc::CacheStats stats = fobc::ProgramCacheStats();
      if (round == 0) {
        first = stats;
        after_first = obs::SnapshotMetrics();
        continue;
      }
      EXPECT_EQ(stats.entries, first.entries) << "round " << round;
      EXPECT_EQ(stats.program_bytes, first.program_bytes) << "round " << round;
      EXPECT_EQ(stats.formula_bytes, first.formula_bytes) << "round " << round;
    }
#ifndef WSV_OBS_DISABLED
    EXPECT_EQ(CounterDelta(after_first, obs::SnapshotMetrics(),
                           "fo/bytecode_compiles"),
              0u);
#endif
  }
}

TEST(BytecodeFingerprintTest, ForcedCollisionsStayCorrect) {
  // Under forced fingerprint collisions every formula maps to one
  // bucket and the structural guard carries the entire load: verdicts
  // must not change, and the collision counter must fire.
  obs::MetricsSnapshot before = obs::SnapshotMetrics();
  CachedVerdict holds, violated;
  {
    ScopedForcedCollisions forced;
    holds = ColdVerdict(MakeRequest(kSpec, "G(!CP | logged_in)"));
    violated = ColdVerdict(MakeRequest(kSpec, "F(CP)"));
  }
  obs::MetricsSnapshot after = obs::SnapshotMetrics();
  EXPECT_TRUE(holds.holds);
  EXPECT_FALSE(violated.holds);
  EXPECT_FALSE(violated.witness_text.empty());
#ifndef WSV_OBS_DISABLED
  EXPECT_GT(CounterDelta(before, after, "fo/bytecode_fp_collisions"), 0u);
#endif

  // And the collided verdicts agree with unforced runs.
  EXPECT_EQ(ColdVerdict(MakeRequest(kSpec, "G(!CP | logged_in)")).holds,
            holds.holds);
  EXPECT_EQ(ColdVerdict(MakeRequest(kSpec, "F(CP)")).witness_text,
            violated.witness_text);
}

// ---------------------------------------------------------------------
// Replay job parser

TEST(ReplayParseTest, ParsesJobsAndSkipsComments) {
  const char jsonl[] =
      "# header comment\n"
      "\n"
      "{\"spec\": \"a.wsv\", \"property\": \"F(CP)\"}\n"
      "{\"spec_text\": \"service S;\", \"label\": \"s\", "
      "\"property\": \"G(x)\", \"db_text\": \"user(a, b).\", "
      "\"pool\": [\"u\", \"v\"], \"fresh\": 2, \"unchecked\": true}\n";
  auto jobs = ParseReplayJobs(jsonl);
  ASSERT_TRUE(jobs.ok()) << jobs.status().ToString();
  ASSERT_EQ(jobs->size(), 2u);
  EXPECT_EQ((*jobs)[0].spec_path, "a.wsv");
  EXPECT_EQ((*jobs)[0].property, "F(CP)");
  EXPECT_EQ((*jobs)[1].spec_text, "service S;");
  EXPECT_EQ((*jobs)[1].label, "s");
  EXPECT_EQ((*jobs)[1].db_text, "user(a, b).");
  EXPECT_EQ((*jobs)[1].pool, (std::vector<std::string>{"u", "v"}));
  EXPECT_EQ((*jobs)[1].fresh, 2);
  EXPECT_TRUE((*jobs)[1].unchecked);
}

TEST(ReplayParseTest, RejectsMalformedLinesWithLineNumbers) {
  auto missing_prop = ParseReplayJobs("{\"spec\": \"a.wsv\"}\n");
  EXPECT_FALSE(missing_prop.ok());

  auto unknown_key = ParseReplayJobs(
      "{\"spec\": \"a.wsv\", \"property\": \"F(CP)\"}\n"
      "{\"spec\": \"a.wsv\", \"property\": \"F(CP)\", \"bogus\": 1}\n");
  ASSERT_FALSE(unknown_key.ok());
  EXPECT_NE(unknown_key.status().message().find("line 2"),
            std::string::npos)
      << unknown_key.status().message();

  auto not_json = ParseReplayJobs("spec: a.wsv\n");
  EXPECT_FALSE(not_json.ok());
}

// ---------------------------------------------------------------------
// Replay report

TEST(ReplayReportTest, HitP99OverMissP50) {
  ReplayReport report;
  for (uint64_t ns = 1; ns <= 100; ++ns) report.hit_latencies_ns.push_back(ns);
  EXPECT_EQ(report.HitP99OverMissP50(), 0.0);  // nothing verified
  report.verify_latencies_ns = {400, 1000, 800};
  EXPECT_DOUBLE_EQ(report.HitP99OverMissP50(), 100.0 / 800.0);
}

// A request, its repeat and a second repeat: one verification, two
// cache-served requests that do no verification work at all.
TEST(ReplayReportTest, CacheServedRequestsDoNoWork) {
  ReplayJob job;
  job.label = "login";
  job.spec_text = kSpec;
  job.property = "G(!CP | logged_in)";
  job.db_text = "user(alice, pw).";
  ReplayOptions options;
  options.quiet = true;
  VerifyCache cache(VerifyCache::Config{});
  auto report = RunReplay({job, job, job}, options, &cache);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->misses, 1u);
  EXPECT_EQ(report->hits, 2u);
  EXPECT_EQ(report->verify_latencies_ns.size(), 1u);
  EXPECT_EQ(report->hit_latencies_ns.size(), 2u);
  EXPECT_EQ(report->cached_products_built, 0u);
  EXPECT_EQ(report->cached_graph_nodes, 0u);
  EXPECT_EQ(report->cached_fo_leaf_work, 0u);
  EXPECT_GT(report->HitP99OverMissP50(), 0.0);
  EXPECT_NE(report->ToBenchJson().find("\"hit_p99_over_miss_p50\": "),
            std::string::npos);
}

}  // namespace
}  // namespace cache
}  // namespace wsv
