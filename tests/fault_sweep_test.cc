// Mechanical fault sweep over the durability path (ISSUE 9):
//
//  * Enumeration: one disarmed warm-up pass over save/load/mmap/peek/open/
//    swap registers every fault site the durability path owns; the sweep
//    asserts >= 10 and then never names a site by hand.
//  * Per-site sweep: every registered site is armed (fail every hit) and a
//    save -> swap -> serve loop runs against it. Whatever fails must fail
//    with a clean Status; the engine must keep serving bit-identically to
//    one of the two known model generations; an artifact file either holds
//    a complete generation or does not exist; and no *.tmp* sibling
//    survives any path. scripts/ci.sh runs this under ASan and TSan.
//  * ENOSPC / short-write: injected write and fsync failures on both
//    artifact formats leave the prior artifact byte-identical and drop no
//    temp files (satellite of ISSUE 9).
//  * Probe verification: a candidate epoch that diverges from its stamped
//    golden references is rejected before publication — it never serves a
//    single request — while matching references publish cleanly.
//  * Rollback: SwapPolicy::rollback_capacity retains replaced epochs and
//    RollbackToPrevious republishes them newest-first under fresh sequence
//    numbers.
//  * Multi-fault storm: several sites armed probabilistically (fixed seed)
//    while clients hammer Estimate and a swapper flips generations with
//    retries — every response must be clean and bit-identical to the
//    generation its fingerprint names, in the style of overload_chaos_test.
//  * Disarmed bit-identity: with no plan armed, saves are byte-identical
//    and the default SwapPolicy serves/swaps exactly like pre-policy
//    serving (no retained epochs, no probe failures).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/fault_injection.h"
#include "core/instantiation.h"
#include "core/serialization.h"
#include "core/shard_writer.h"
#include "core/weight_function.h"
#include "roadnet/shortest_path.h"
#include "serving/engine.h"
#include "traj/generator.h"
#include "traj/store.h"

namespace pcde {
namespace serving {
namespace {

using core::HybridParams;
using core::PathWeightFunction;
using roadnet::Graph;
using roadnet::Path;
using roadnet::VertexId;

constexpr double kDepart = 8 * 3600.0;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

class FaultSweepTest : public ::testing::Test {
 protected:
  static std::string Prefix() {
    return "pcde_sweep." + std::to_string(::getpid());
  }

  static void SetUpTestSuite() {
    dataset_ = new traj::Dataset(traj::MakeDatasetA(800));
    graph_ = dataset_->graph.get();
    HybridParams params;
    // beta low enough that 800 trips qualify trajectory windows — the two
    // generations must actually differ (asserted below).
    params.beta = 8;
    wp_base_ = new PathWeightFunction(core::InstantiateWeightFunction(
        *graph_, traj::TrajectoryStore(), params));
    wp_data_ = new PathWeightFunction(core::InstantiateWeightFunction(
        *graph_, traj::TrajectoryStore(dataset_->MatchedSlice(1.0)), params));
    ASSERT_NE(wp_base_->fingerprint(), wp_data_->fingerprint());
    bin_base_ = TempPath(Prefix() + ".base.bin");
    bin_data_ = TempPath(Prefix() + ".data.bin");
    text_data_ = TempPath(Prefix() + ".data.txt");
    ASSERT_TRUE(core::SaveWeightFunctionBinary(*wp_base_, bin_base_).ok());
    ASSERT_TRUE(core::SaveWeightFunctionBinary(*wp_data_, bin_data_).ok());
    ASSERT_TRUE(core::SaveWeightFunction(*wp_data_, text_data_).ok());
    // Reference answers per generation for the fixed probe request: every
    // served response in the sweep must ExactlyEqual the reference of the
    // generation its fingerprint names.
    for (const PathWeightFunction* wp : {wp_base_, wp_data_}) {
      auto ref = OpenEngineOn(wp == wp_base_ ? bin_base_ : bin_data_,
                              EngineOptions());
      ASSERT_NE(ref, nullptr);
      auto response = ref->Estimate(ProbeRequest());
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      (*references_)[wp->fingerprint()] = response.value().summary;
    }
    // A 2-shard split of the data generation joins the durability path
    // (manifest write/load + shard-attach sites, ISSUE 10). Its probe
    // answer is a reference keyed by the MANIFEST fingerprint — sharded
    // responses stamp the generation identity of the whole shard set.
    manifest_ = TempPath(Prefix() + ".fix.pcdemf");
    core::ShardWriteOptions shard_options;
    shard_options.num_shards = 2;
    shard_options.file_prefix = Prefix() + ".fix";
    auto split = core::WriteModelShards(*wp_data_, manifest_, shard_options);
    ASSERT_TRUE(split.ok()) << split.status().ToString();
    for (const auto& shard : split.value().shards) {
      shard_files_->push_back(TempPath(shard.file));
    }
    {
      EngineOptions options;
      options.model_path = manifest_;
      options.graph = graph_;
      options.num_threads = 1;
      options.query_cache_bytes = 0;
      auto sharded = Engine::Open(std::move(options));
      ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
      auto probe = sharded.value()->Estimate(ProbeRequest());
      ASSERT_TRUE(probe.ok()) << probe.status().ToString();
      (*references_)[split.value().fingerprint] = probe.value().summary;
    }
  }

  static void TearDownTestSuite() {
    std::remove(bin_base_.c_str());
    std::remove(bin_data_.c_str());
    std::remove(text_data_.c_str());
    std::remove(manifest_.c_str());
    for (const std::string& p : *shard_files_) std::remove(p.c_str());
    shard_files_->clear();
    delete wp_data_;
    delete wp_base_;
    delete dataset_;
    wp_data_ = nullptr;
    wp_base_ = nullptr;
    dataset_ = nullptr;
    graph_ = nullptr;
  }

  void TearDown() override {
    fault::DisarmAllFaults();
    for (const std::string& p : cleanup_) std::remove(p.c_str());
  }
  std::string Track(std::string p) {
    cleanup_.push_back(p);
    return p;
  }

  static std::unique_ptr<Engine> OpenEngineOn(const std::string& artifact,
                                              EngineOptions options) {
    options.model_path = artifact;
    options.graph = graph_;
    options.num_threads = 1;
    options.query_cache_bytes = 0;
    auto engine = Engine::Open(std::move(options));
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    return engine.ok() ? std::move(engine).value() : nullptr;
  }

  static Path PathBetween(VertexId from, VertexId to) {
    auto p = roadnet::ShortestPath(*graph_, from, to,
                                   roadnet::FreeFlowWeight(*graph_));
    EXPECT_TRUE(p.ok());
    return p.ok() ? p.value() : Path();
  }

  static EstimateRequest ProbeRequest() {
    EstimateRequest request;
    request.path = PathSpec::ExplicitPath(PathBetween(0, 30));
    request.departure_time = kDepart;
    return request;
  }

  /// Asserts the response is clean and bit-identical to the generation its
  /// fingerprint names — the "old epoch still serving" gate of every sweep
  /// iteration.
  static void ExpectServedFromKnownGeneration(
      const StatusOr<EstimateResponse>& response) {
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    auto it = references_->find(response.value().model_fingerprint);
    ASSERT_NE(it, references_->end())
        << "response fingerprint names no known generation";
    EXPECT_TRUE(response.value().summary.ExactlyEquals(it->second));
  }

  /// No "<prefix>*.tmp.*" sibling may survive any sweep iteration: the
  /// atomic writers unlink their temp file on every error path.
  static void ExpectNoTmpDroppings() {
    const std::string prefix = Prefix();
    for (const auto& entry : std::filesystem::directory_iterator(
             std::filesystem::temp_directory_path())) {
      const std::string name = entry.path().filename().string();
      EXPECT_FALSE(name.rfind(prefix, 0) == 0 &&
                   name.find(".tmp.") != std::string::npos)
          << "temp-file dropping: " << name;
    }
  }

  /// One disarmed pass over every durability path so all (lazily
  /// registered) fault sites enter the registry before a sweep enumerates
  /// them.
  static void RegisterDurabilityPath() {
    static bool done = false;
    if (done) return;
    done = true;
    ASSERT_FALSE(fault::Armed());
    const std::string b = TempPath(Prefix() + ".warm.bin");
    const std::string t = TempPath(Prefix() + ".warm.txt");
    ASSERT_TRUE(core::SaveWeightFunctionBinary(*wp_data_, b).ok());
    ASSERT_TRUE(core::SaveWeightFunction(*wp_data_, t).ok());
    ASSERT_TRUE(core::LoadWeightFunction(t).ok());
    ASSERT_TRUE(core::LoadWeightFunctionBinary(b, /*use_mmap=*/false).ok());
    ASSERT_TRUE(core::LoadWeightFunctionBinary(b, /*use_mmap=*/true).ok());
    ASSERT_TRUE(core::PeekBinaryArtifactFingerprint(b).ok());
    auto engine = OpenEngineOn(bin_base_, EngineOptions());
    ASSERT_NE(engine, nullptr);
    ASSERT_TRUE(engine->Swap(bin_data_).ok());
    // Sharded durability path (ISSUE 10): the split registers the manifest
    // write sites, the load registers the manifest read sites, and a
    // served request registers the shard-attach site.
    const std::string m = TempPath(Prefix() + ".warm.pcdemf");
    core::ShardWriteOptions shard_options;
    shard_options.num_shards = 2;
    shard_options.file_prefix = Prefix() + ".warmshard";
    auto split = core::WriteModelShards(*wp_data_, m, shard_options);
    ASSERT_TRUE(split.ok()) << split.status().ToString();
    ASSERT_TRUE(core::LoadShardManifest(m).ok());
    {
      EngineOptions options;
      options.model_path = m;
      options.graph = graph_;
      options.num_threads = 1;
      options.query_cache_bytes = 0;
      auto sharded = Engine::Open(std::move(options));
      ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
      ASSERT_TRUE(sharded.value()->Estimate(ProbeRequest()).ok());
    }
    for (const auto& shard : split.value().shards) {
      std::remove(TempPath(shard.file).c_str());
    }
    std::remove(m.c_str());
    std::remove(b.c_str());
    std::remove(t.c_str());
  }

  static traj::Dataset* dataset_;
  static const Graph* graph_;
  static PathWeightFunction* wp_base_;  // speed-limit-only generation
  static PathWeightFunction* wp_data_;  // trajectory-instantiated generation
  static std::string bin_base_;
  static std::string bin_data_;
  static std::string text_data_;
  static std::string manifest_;  // 2-shard split of the data generation
  static std::vector<std::string>* shard_files_;
  static std::unordered_map<uint64_t, CostSummary>* references_;
  std::vector<std::string> cleanup_;
};

traj::Dataset* FaultSweepTest::dataset_ = nullptr;
const Graph* FaultSweepTest::graph_ = nullptr;
PathWeightFunction* FaultSweepTest::wp_base_ = nullptr;
PathWeightFunction* FaultSweepTest::wp_data_ = nullptr;
std::string FaultSweepTest::bin_base_;
std::string FaultSweepTest::bin_data_;
std::string FaultSweepTest::text_data_;
std::string FaultSweepTest::manifest_;
std::vector<std::string>* FaultSweepTest::shard_files_ =
    new std::vector<std::string>();
std::unordered_map<uint64_t, CostSummary>* FaultSweepTest::references_ =
    new std::unordered_map<uint64_t, CostSummary>();

// ---------------------------------------------------------------------------
// Enumeration + per-site sweep (the capstone)
// ---------------------------------------------------------------------------

TEST_F(FaultSweepTest, RegistryEnumeratesTheDurabilityPath) {
  RegisterDurabilityPath();
  const std::vector<std::string> sites = fault::RegisteredFaultSites();
  EXPECT_GE(sites.size(), 10u) << "durability path registered too few sites";
  // The sweep is mechanical, but the macro-declared exemplar of the design
  // must be among them.
  EXPECT_NE(std::find(sites.begin(), sites.end(),
                      std::string("serialization.binary.write")),
            sites.end());
  // The sharded durability path (manifest writer + shard attach) is
  // enumerated alongside the artifact sites.
  EXPECT_NE(std::find(sites.begin(), sites.end(),
                      std::string("serialization.manifest.write")),
            sites.end());
  EXPECT_NE(std::find(sites.begin(), sites.end(),
                      std::string("serving.shard.attach")),
            sites.end());
}

TEST_F(FaultSweepTest, PerSiteSweepFailsCleanAndKeepsServing) {
  RegisterDurabilityPath();
  const std::vector<std::string> sites = fault::RegisteredFaultSites();
  ASSERT_GE(sites.size(), 10u);

  for (const std::string& site : sites) {
    SCOPED_TRACE("site: " + site);
    // The long-lived engine opens BEFORE the fault arms (it is the old
    // epoch that must keep serving); everything after runs faulted.
    auto engine = OpenEngineOn(bin_base_, EngineOptions());
    ASSERT_NE(engine, nullptr);
    const uint64_t sequence_before = engine->epoch_sequence();

    fault::ScopedFaultInjection injection;
    fault::FaultPlan plan;
    plan.fail_every = 1;  // persistent: every traversal of `site` fails
    ASSERT_TRUE(injection.Arm(site, plan).ok());
    fault::ResetFaultCounters();

    // Save both formats to fresh paths. Allowed to fail (clean Status);
    // an artifact file, if it exists at all, must be a COMPLETE save
    // (byte-identical to the fixture artifact of the same model) — the
    // dirsync site fails after the rename has landed, every other site
    // before it.
    const std::string fresh_bin = Track(TempPath(Prefix() + ".it.bin"));
    const std::string fresh_text = Track(TempPath(Prefix() + ".it.txt"));
    const Status saved_bin =
        core::SaveWeightFunctionBinary(*wp_data_, fresh_bin);
    if (std::filesystem::exists(fresh_bin)) {
      EXPECT_EQ(ReadAll(fresh_bin), ReadAll(bin_data_));
    } else {
      EXPECT_FALSE(saved_bin.ok());
    }
    const Status saved_text = core::SaveWeightFunction(*wp_data_, fresh_text);
    if (std::filesystem::exists(fresh_text)) {
      EXPECT_EQ(ReadAll(fresh_text), ReadAll(text_data_));
    } else {
      EXPECT_FALSE(saved_text.ok());
    }

    // Direct loads of known-good fixture artifacts: ok or clean failure,
    // never a crash or a torn result.
    (void)core::LoadWeightFunction(text_data_);
    (void)core::LoadWeightFunctionBinary(bin_data_, /*use_mmap=*/false);
    (void)core::LoadWeightFunctionBinary(bin_data_, /*use_mmap=*/true);
    (void)core::PeekBinaryArtifactFingerprint(bin_data_);
    {
      EngineOptions options;
      options.model_path = bin_base_;
      options.graph = graph_;
      options.num_threads = 1;
      options.query_cache_bytes = 0;
      auto opened = Engine::Open(std::move(options));
      if (opened.ok()) {
        ExpectServedFromKnownGeneration(
            opened.value()->Estimate(ProbeRequest()));
      }
    }

    // Sharded front door under the same fault. A fresh split may fail
    // (clean Status); a committed manifest implies its rename landed.
    const std::string fresh_manifest =
        Track(TempPath(Prefix() + ".it.pcdemf"));
    Track(TempPath(Prefix() + ".itshard.0.pcdewf"));
    Track(TempPath(Prefix() + ".itshard.1.pcdewf"));
    core::ShardWriteOptions shard_options;
    shard_options.num_shards = 2;
    shard_options.file_prefix = Prefix() + ".itshard";
    const auto split =
        core::WriteModelShards(*wp_data_, fresh_manifest, shard_options);
    if (split.ok()) {
      EXPECT_TRUE(std::filesystem::exists(fresh_manifest));
    }
    // Manifest load + sharded open/serve against the known-good fixture
    // generation: ok or clean failure, and a response that does land must
    // be bit-identical to the disarmed sharded reference.
    (void)core::LoadShardManifest(manifest_);
    {
      EngineOptions options;
      options.model_path = manifest_;
      options.graph = graph_;
      options.num_threads = 1;
      options.query_cache_bytes = 0;
      auto sharded = Engine::Open(std::move(options));
      if (sharded.ok()) {
        auto response = sharded.value()->Estimate(ProbeRequest());
        if (response.ok()) ExpectServedFromKnownGeneration(response);
      }
    }

    // Swap toward the generation not currently served, so the attempt
    // never short-circuits and always exercises the swap path.
    const bool serving_base =
        engine->model().fingerprint() == wp_base_->fingerprint();
    auto swapped = engine->Swap(serving_base ? bin_data_ : bin_base_);
    if (!swapped.ok()) {
      EXPECT_EQ(engine->epoch_sequence(), sequence_before)
          << "failed swap must not advance the epoch";
    }

    // Serve: the request path has no fault sites — it must succeed and
    // answer bit-identically to whichever generation is published.
    ExpectServedFromKnownGeneration(engine->Estimate(ProbeRequest()));

    // The armed site really ran and really fired at least once.
    EXPECT_GE(fault::FaultSiteHits(site), 1u) << "site never traversed";
    EXPECT_GE(fault::FaultSiteTriggers(site), 1u) << "site never fired";

    ExpectNoTmpDroppings();
    std::remove(fresh_bin.c_str());
    std::remove(fresh_text.c_str());
    std::remove(fresh_manifest.c_str());
    std::remove(TempPath(Prefix() + ".itshard.0.pcdewf").c_str());
    std::remove(TempPath(Prefix() + ".itshard.1.pcdewf").c_str());
  }
  EXPECT_FALSE(fault::Armed()) << "a sweep iteration leaked an armed plan";
}

// ---------------------------------------------------------------------------
// ENOSPC / short-write: the prior artifact survives byte-identically
// ---------------------------------------------------------------------------

TEST_F(FaultSweepTest, TornWritesLeavePriorArtifactIntact) {
  RegisterDurabilityPath();
  struct Case {
    const char* site;
    uint64_t fail_on_hit;  // 0 = fail_every=1
    bool binary;
  };
  // fail_on_hit=3 on the binary writer fails MID-STREAM (after the header
  // and table already hit the temp file) — a genuinely torn temp, since the
  // injected write really writes half the remaining bytes first. The text
  // writer issues one full-buffer write, so hit 1 is its only traversal.
  const Case cases[] = {
      {"serialization.binary.write", 3, true},
      {"serialization.binary.fsync", 0, true},
      {"serialization.text.write", 1, false},
      {"serialization.text.fsync", 0, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.site);
    const std::string target =
        Track(TempPath(Prefix() + (c.binary ? ".enospc.bin" : ".enospc.txt")));
    // Publish a prior generation cleanly, then try to replace it faulted.
    ASSERT_TRUE((c.binary ? core::SaveWeightFunctionBinary(*wp_base_, target)
                          : core::SaveWeightFunction(*wp_base_, target))
                    .ok());
    const std::vector<char> prior = ReadAll(target);
    ASSERT_FALSE(prior.empty());

    fault::ScopedFaultInjection injection;
    fault::FaultPlan plan;
    if (c.fail_on_hit > 0) {
      plan.fail_on_hit = c.fail_on_hit;
    } else {
      plan.fail_every = 1;
    }
    ASSERT_TRUE(injection.Arm(c.site, plan).ok());

    const Status saved = c.binary
                             ? core::SaveWeightFunctionBinary(*wp_data_, target)
                             : core::SaveWeightFunction(*wp_data_, target);
    EXPECT_FALSE(saved.ok());
    EXPECT_EQ(saved.code(), StatusCode::kInternal) << saved.ToString();
    EXPECT_EQ(ReadAll(target), prior)
        << "failed save must leave the prior artifact byte-identical";
    ExpectNoTmpDroppings();
    EXPECT_GE(fault::FaultSiteTriggers(c.site), 1u);

    // The surviving artifact still loads and serves its generation.
    fault::DisarmAllFaults();
    auto loaded = c.binary
                      ? core::LoadWeightFunctionBinary(target, /*use_mmap=*/false)
                      : core::LoadWeightFunction(target);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value().fingerprint(), wp_base_->fingerprint());
    std::remove(target.c_str());
  }
}

TEST_F(FaultSweepTest, ZeroLengthArtifactIsRejectedBeforeMmap) {
  const std::string empty = Track(TempPath(Prefix() + ".empty.bin"));
  { std::ofstream out(empty, std::ios::binary); }
  ASSERT_TRUE(std::filesystem::exists(empty));
  auto mapped = core::LoadWeightFunctionBinary(empty, /*use_mmap=*/true);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument)
      << mapped.status().ToString();
  auto buffered = core::LoadWeightFunctionBinary(empty, /*use_mmap=*/false);
  EXPECT_FALSE(buffered.ok());
}

// ---------------------------------------------------------------------------
// Pre-publish probe verification
// ---------------------------------------------------------------------------

TEST_F(FaultSweepTest, ProbeVerificationGatesPublication) {
  RegisterDurabilityPath();
  // Golden references are stamped per model generation, from the summaries
  // an engine over that generation actually serves.
  const auto make_probes = [](const std::string& artifact, bool with_refs) {
    std::vector<GoldenProbe> probes;
    auto ref = OpenEngineOn(artifact, EngineOptions());
    EXPECT_NE(ref, nullptr);
    const std::pair<VertexId, VertexId> ods[] = {{0, 30}, {5, 40}, {2, 61}};
    for (const auto& od : ods) {
      GoldenProbe probe;
      probe.request.path =
          PathSpec::ExplicitPath(PathBetween(od.first, od.second));
      probe.request.departure_time = kDepart;
      if (with_refs && ref != nullptr) {
        auto response = ref->Estimate(probe.request);
        EXPECT_TRUE(response.ok()) << response.status().ToString();
        probe.has_reference = true;
        probe.reference = response.value().summary;
      }
      probes.push_back(std::move(probe));
    }
    return probes;
  };

  auto engine = OpenEngineOn(bin_base_, EngineOptions());
  ASSERT_NE(engine, nullptr);

  // A reference that candidate B cannot reproduce: scan for a request the
  // two generations answer differently (most paths fall back identically
  // on sparsely covered edges, so hunt for a covered one); if the dataset
  // is too sparse for any, perturb a matching reference instead — either
  // way the stamped reference diverges from what B serves.
  GoldenProbe divergent_probe;
  divergent_probe.has_reference = true;
  {
    auto ref_a = OpenEngineOn(bin_base_, EngineOptions());
    auto ref_b = OpenEngineOn(bin_data_, EngineOptions());
    ASSERT_NE(ref_a, nullptr);
    ASSERT_NE(ref_b, nullptr);
    bool found = false;
    for (VertexId v = 0; v < 120 && !found; v += 3) {
      auto path = roadnet::ShortestPath(*graph_, v, v + 40,
                                        roadnet::FreeFlowWeight(*graph_));
      if (!path.ok()) continue;  // pruned grid: skip unreachable pairs
      EstimateRequest request;
      request.path = PathSpec::ExplicitPath(path.value());
      request.departure_time = kDepart;
      auto got_a = ref_a->Estimate(request);
      auto got_b = ref_b->Estimate(request);
      if (got_a.ok() && got_b.ok() &&
          !got_a.value().summary.ExactlyEquals(got_b.value().summary)) {
        divergent_probe.request = request;
        divergent_probe.reference = got_a.value().summary;
        found = true;
      }
    }
    if (!found) {
      divergent_probe.request = ProbeRequest();
      auto got_b = ref_b->Estimate(divergent_probe.request);
      ASSERT_TRUE(got_b.ok());
      divergent_probe.reference = got_b.value().summary;
      divergent_probe.reference.mean += 1.0;
    }
  }

  // The stamped reference diverges from candidate B, so the swap must
  // reject before publication — the candidate never serves a single
  // request.
  SwapOptions divergent;
  divergent.probes.push_back(divergent_probe);
  auto rejected = engine->Swap(bin_data_, divergent);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().ToString().find("rejected"), std::string::npos)
      << rejected.status().ToString();
  EXPECT_EQ(engine->epoch_sequence(), 1u);
  EXPECT_EQ(engine->stats().probe_failures, 1u);
  {
    auto response = engine->Estimate(ProbeRequest());
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.value().model_fingerprint, wp_base_->fingerprint())
        << "rejected candidate must never serve";
  }

  // Matching references (stamped from generation B) publish cleanly.
  SwapOptions matching;
  matching.probes = make_probes(bin_data_, /*with_refs=*/true);
  auto swapped = engine->Swap(bin_data_, matching);
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_EQ(swapped.value(), 2u);
  {
    auto response = engine->Estimate(ProbeRequest());
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.value().model_fingerprint, wp_data_->fingerprint());
  }

  // Reference-free probes assert serveability only: fine across
  // generations.
  SwapOptions serveability;
  serveability.probes = make_probes(bin_base_, /*with_refs=*/false);
  auto back = engine->Swap(bin_base_, serveability);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), 3u);
  EXPECT_EQ(engine->stats().probe_failures, 1u);

  // The verification stage has its own fault site: an injected verify
  // fault rejects even a probe-free swap.
  fault::ScopedFaultInjection injection;
  fault::FaultPlan plan;
  plan.fail_on_hit = 1;
  ASSERT_TRUE(injection.Arm("serving.swap.verify", plan).ok());
  auto injected = engine->Swap(bin_data_);
  ASSERT_FALSE(injected.ok());
  EXPECT_EQ(injected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->epoch_sequence(), 3u);
  EXPECT_EQ(engine->stats().probe_failures, 2u);
}

// ---------------------------------------------------------------------------
// Last-known-good rollback ring
// ---------------------------------------------------------------------------

TEST_F(FaultSweepTest, RollbackRingRepublishesLastKnownGood) {
  EngineOptions options;
  options.swap_policy.rollback_capacity = 2;
  auto engine = OpenEngineOn(bin_base_, options);
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->rollback_depth(), 0u);

  ASSERT_TRUE(engine->Swap(bin_data_).ok());  // seq 2; ring: [A]
  ASSERT_TRUE(engine->Swap(bin_base_).ok());  // seq 3; ring: [A, B]
  EXPECT_EQ(engine->rollback_depth(), 2u);

  // Newest-first out: the first rollback republishes generation B under a
  // NEW sequence (epochs never go backward).
  auto first = engine->RollbackToPrevious();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value(), 4u);
  EXPECT_EQ(engine->rollback_depth(), 1u);
  {
    auto response = engine->Estimate(ProbeRequest());
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.value().model_fingerprint, wp_data_->fingerprint());
    EXPECT_EQ(response.value().epoch, 4u);
  }

  auto second = engine->RollbackToPrevious();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), 5u);
  EXPECT_EQ(engine->rollback_depth(), 0u);
  ExpectServedFromKnownGeneration(engine->Estimate(ProbeRequest()));
  EXPECT_EQ(engine->model().fingerprint(), wp_base_->fingerprint());

  auto exhausted = engine->RollbackToPrevious();
  ASSERT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine->stats().rollbacks, 2u);

  // The ring is bounded: three more swaps retain only the newest two.
  ASSERT_TRUE(engine->Swap(bin_data_).ok());
  ASSERT_TRUE(engine->Swap(bin_base_).ok());
  ASSERT_TRUE(engine->Swap(bin_data_).ok());
  EXPECT_EQ(engine->rollback_depth(), 2u);
}

// ---------------------------------------------------------------------------
// Randomized multi-fault storm (overload_chaos_test style)
// ---------------------------------------------------------------------------

TEST_F(FaultSweepTest, MultiFaultStormNeverCorruptsServing) {
  RegisterDurabilityPath();
  EngineOptions options;
  options.swap_policy.max_attempts = 4;
  options.swap_policy.initial_backoff_seconds = 0.0005;
  options.swap_policy.max_backoff_seconds = 0.002;
  options.num_threads = 2;
  auto engine = OpenEngineOn(bin_base_, options);
  ASSERT_NE(engine, nullptr);

  // Probabilistic plans under fixed seeds: the storm replays
  // bit-identically. Only swap-path sites are armed — the serve path has
  // none, so every client response must be clean AND bit-identical to the
  // generation its fingerprint names.
  fault::ScopedFaultInjection injection;
  const std::pair<const char*, double> storm[] = {
      {"serialization.load.open", 0.30},
      {"serialization.load.read", 0.30},
      {"serialization.peek.open", 0.30},
      {"serving.swap.load", 0.25},
      {"serving.swap.verify", 0.10},
  };
  uint64_t seed = 0xfeedface;
  for (const auto& site : storm) {
    fault::FaultPlan plan;
    plan.fail_probability = site.second;
    plan.seed = seed++;
    ASSERT_TRUE(injection.Arm(site.first, plan).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> bad{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&] {
      const EstimateRequest request = ProbeRequest();
      while (!stop.load(std::memory_order_relaxed)) {
        auto response = engine->Estimate(request);
        if (!response.ok()) {
          bad.fetch_add(1);
          continue;
        }
        auto it = references_->find(response.value().model_fingerprint);
        if (it == references_->end() ||
            !response.value().summary.ExactlyEquals(it->second)) {
          bad.fetch_add(1);
        }
        served.fetch_add(1);
      }
    });
  }

  // The swapper flips generations through the storm; each attempt must
  // either land or fail with a clean Status (retries absorb transients).
  uint64_t landed = 0;
  for (int i = 0; i < 12; ++i) {
    const bool serving_base =
        engine->model().fingerprint() == wp_base_->fingerprint();
    auto swapped = engine->Swap(serving_base ? bin_data_ : bin_base_);
    if (swapped.ok()) ++landed;
  }
  stop.store(true);
  for (auto& t : clients) t.join();

  EXPECT_EQ(bad.load(), 0u)
      << "a client saw an error or a torn response during the storm";
  EXPECT_GT(served.load(), 0u);
  const EngineStats mid = engine->stats();
  EXPECT_GE(mid.swap_attempts, 12u);

  // Calm after the storm: disarmed, the next swap must land first try.
  fault::DisarmAllFaults();
  const bool serving_base =
      engine->model().fingerprint() == wp_base_->fingerprint();
  auto final_swap = engine->Swap(serving_base ? bin_data_ : bin_base_);
  ASSERT_TRUE(final_swap.ok()) << final_swap.status().ToString();
  ExpectServedFromKnownGeneration(engine->Estimate(ProbeRequest()));
  ExpectNoTmpDroppings();
}

// ---------------------------------------------------------------------------
// Disarmed injector + default policy are bit-identical to pre-PR serving
// ---------------------------------------------------------------------------

TEST_F(FaultSweepTest, DisarmedAndDefaultPolicyAreBitIdentical) {
  ASSERT_FALSE(fault::Armed());
  // Saves with the injector linked in (disarmed) are byte-identical to the
  // fixture artifacts.
  const std::string again_bin = Track(TempPath(Prefix() + ".again.bin"));
  const std::string again_text = Track(TempPath(Prefix() + ".again.txt"));
  ASSERT_TRUE(core::SaveWeightFunctionBinary(*wp_data_, again_bin).ok());
  ASSERT_TRUE(core::SaveWeightFunction(*wp_data_, again_text).ok());
  EXPECT_EQ(ReadAll(again_bin), ReadAll(bin_data_));
  EXPECT_EQ(ReadAll(again_text), ReadAll(text_data_));

  // A default-policy engine swap behaves exactly like pre-policy serving:
  // publishes on the first attempt, runs no probes, retains no epochs.
  auto engine = OpenEngineOn(bin_base_, EngineOptions());
  ASSERT_NE(engine, nullptr);
  auto swapped = engine->Swap(bin_data_);
  ASSERT_TRUE(swapped.ok());
  EXPECT_EQ(swapped.value(), 2u);
  ExpectServedFromKnownGeneration(engine->Estimate(ProbeRequest()));

  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.swap_attempts, 1u);
  EXPECT_EQ(stats.swap_retries, 0u);
  EXPECT_EQ(stats.probe_failures, 0u);
  EXPECT_EQ(stats.rollbacks, 0u);
  EXPECT_EQ(engine->rollback_depth(), 0u);
  auto rollback = engine->RollbackToPrevious();
  ASSERT_FALSE(rollback.ok());
  EXPECT_EQ(rollback.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace serving
}  // namespace pcde
