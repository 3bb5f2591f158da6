// pcde_perfbench: one seeded workload of the end-to-end benchmark.
//
//   pcde_perfbench --workload od_serve|path_batch|route|build --seed N
//                  --seconds S --trace 0|1 [--workdir DIR]
//
// Untraced (--trace 0): sets up 5 times (the median is setup_s), runs whole
// rounds of the workload's fixed operation stream for at least S seconds,
// checks the outputs against the reference computations, and prints the
// end-to-end metrics as a JSON object on the last line of stdout.
// Traced (--trace 1): sets up once with spans, runs one untraced round and
// one traced round of the workload, a census pass over the layers the
// workload does not exercise, writes every span to DIR/trace-*.jsonl and
// prints the per-layer metrics instead. Exit status 0 only when every
// check passed.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>

#include "common.h"
#include "phases.h"
#include "reference.h"
#include "trace.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string workdir = ".bench_build/work";
};

constexpr size_t kSetups = 5;

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && args->seconds > 0.0;
    } else if (key == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      args->trace = std::strcmp(value, "1") == 0;
    } else if (key == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_seconds && have_trace;
}

bool KindOf(const std::string& workload, PhaseKind* kind) {
  static const std::map<std::string, PhaseKind> kinds{
      {"od_serve", PhaseKind::kOd},
      {"path_batch", PhaseKind::kBatch},
      {"route", PhaseKind::kRoute},
      {"build", PhaseKind::kRefresh}};
  auto it = kinds.find(workload);
  if (it == kinds.end()) return false;
  *kind = it->second;
  return true;
}

int Fail(const pcde::Status& status, const char* what) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what, status.ToString().c_str());
  return 1;
}

std::unique_ptr<Context> NewContext(const Args& args) {
  auto ctx = std::make_unique<Context>();
  ctx->seed = args.seed;
  ctx->workdir = args.workdir;
  return ctx;
}

/// Keeps the process on `count` CPUs: the one it started on and the next
/// ones it may run on. Migrations between virtual CPUs are the largest
/// source of run-to-run spread measured on a shared 4-vCPU host (a fixed
/// loop: +-7% unpinned, +-2% pinned). Threads started later inherit the set.
void PinToCpus(int count) {
  const int cpu = sched_getcpu();
  cpu_set_t allowed, set;
  if (cpu < 0 || sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  CPU_ZERO(&set);
  for (int i = 0; i < CPU_SETSIZE && CPU_COUNT(&set) < count; ++i) {
    const int c = (cpu + i) % CPU_SETSIZE;
    if (CPU_ISSET(c, &allowed)) CPU_SET(c, &set);
  }
  (void)sched_setaffinity(0, sizeof(set), &set);
}

/// A metric that came out NaN or infinite was not measured (an empty
/// sample set): that is a fault of the benchmark, not a reading.
void ExpectMeasured(const std::vector<Metric>& metrics, Checker* checker) {
  for (const Metric& m : metrics) {
    checker->Expect(std::isfinite(m.value), m.name + " was not measured");
  }
}

int RunUntraced(const Args& args, PhaseKind kind) {
  // Single-client workloads run on one CPU; the batch workload's pool
  // worker and the waiting client get two.
  PinToCpus(kind == PhaseKind::kBatch ? 2 : 1);
  std::vector<double> setup_seconds, build_seconds;
  std::unique_ptr<Context> ctx;
  std::unique_ptr<Phase> phase;
  for (size_t k = 0; k < kSetups; ++k) {
    phase.reset();
    ctx.reset();
    const double start = NowSeconds();
    ctx = NewContext(args);
    pcde::Status status = SetupContext(ctx.get(), nullptr);
    if (!status.ok()) return Fail(status, "setup");
    auto made = MakePhase(kind, ctx.get(), /*census=*/false);
    if (!made.ok()) return Fail(made.status(), "workload inputs");
    phase = std::move(made).value();
    setup_seconds.push_back(NowSeconds() - start);
    build_seconds.push_back(ctx->build_seconds);
  }

  RoundStats stats;
  size_t rounds = 0;
  const double start = NowSeconds();
  do {
    pcde::Status status = phase->Round(&stats);
    if (!status.ok()) return Fail(status, "round");
    ++rounds;
  } while (NowSeconds() - start < args.seconds);
  // Before the checks, which open engines and run searches of their own.
  const double peak_rss_mb = PeakRssMb();

  Checker checker;
  Quality quality;
  pcde::Status status = phase->Check(&checker, &quality);
  if (!status.ok()) return Fail(status, "check");

  const bool refresh = kind == PhaseKind::kRefresh;
  std::vector<Metric> metrics{
      {"setup_s", Median(setup_seconds), "s"},
      {"ops_per_s", Median(stats.chunk_rates), "ops/s"},
      {"latency_p50_ms", stats.LatencyQuantile(0.50) * 1e3, "ms"},
      {"latency_p99_ms", stats.LatencyQuantile(0.99) * 1e3, "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      // On build: the mean refresh over the generations (1 / ops_per_s).
      {"build_s",
       refresh ? 1.0 / Median(stats.chunk_rates) : Median(build_seconds), "s"},
      {"model_mb", refresh ? quality.model_mb : ctx->built.artifact_mb, "MB"},
      {"crps_s", quality.crps_s, "s"},
      {"on_time_truth", quality.on_time_truth, "fraction"},
  };
  std::printf("%s seed %llu: %zu rounds, %llu ops (%llu failed), %zu latency "
              "samples, %zu checks (%zu failed), cache-hit share %.3f\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              rounds, static_cast<unsigned long long>(stats.ops),
              static_cast<unsigned long long>(stats.failed),
              static_cast<size_t>(stats.calls), checker.checks(),
              checker.failures(),
              phase->CacheHitShare());
  ExpectMeasured(metrics, &checker);
  const bool correct = checker.failures() == 0;
  PrintResult(correct, stats.ops, stats.failed, metrics);
  return correct ? 0 : 1;
}

/// Per-build sum of one span name (fit spans come one per rank).
double PerBuild(const TraceSummary& s, const std::string& name) {
  const size_t builds = s.span("core.instantiate").seconds.size();
  return builds == 0 ? 0.0 : s.span(name).total() / builds;
}

int RunTraced(const Args& args, PhaseKind kind) {
  std::unique_ptr<Context> ctx = NewContext(args);
  Tracer setup_tracer;
  pcde::Status status = SetupContext(ctx.get(), &setup_tracer);
  if (!status.ok()) return Fail(status, "setup");
  auto made = MakePhase(kind, ctx.get(), /*census=*/false);
  if (!made.ok()) return Fail(made.status(), "workload inputs");
  std::unique_ptr<Phase> phase = std::move(made).value();

  // One untraced round first: the base of the tracing overhead, and the
  // outputs the correctness checks read.
  RoundStats plain;
  status = phase->Round(&plain);
  if (!status.ok()) return Fail(status, "round");
  Tracer tracer;
  status = phase->Traced(&tracer);
  if (!status.ok()) return Fail(status, "traced round");
  const TraceSummary main = Summarize(tracer);

  // Census: a small traced pass over every other phase kind, so each
  // per-layer metric is measured in every traced run.
  std::vector<std::pair<std::string, std::unique_ptr<Tracer>>> census;
  std::map<std::string, Metric> layer;
  auto add = [&layer](const std::vector<Metric>& metrics) {
    for (const Metric& m : metrics) layer.emplace(m.name, m);
  };
  {
    std::vector<Metric> own;
    phase->LayerMetrics(main, &own);
    add(own);
  }
  const std::pair<PhaseKind, const char*> kinds[] = {
      {PhaseKind::kOd, "od"},
      {PhaseKind::kBatch, "batch"},
      {PhaseKind::kRoute, "route"},
      {PhaseKind::kRefresh, "refresh"}};
  for (const auto& [other, label] : kinds) {
    if (other == kind) continue;
    auto census_phase = MakePhase(other, ctx.get(), /*census=*/true);
    if (!census_phase.ok()) return Fail(census_phase.status(), "census inputs");
    auto census_tracer = std::make_unique<Tracer>();
    status = census_phase.value()->Traced(census_tracer.get());
    if (!status.ok()) return Fail(status, "census");
    std::vector<Metric> metrics;
    census_phase.value()->LayerMetrics(Summarize(*census_tracer), &metrics);
    add(metrics);
    census.emplace_back(std::string("census.") + label,
                        std::move(census_tracer));
  }

  // The offline layers: from the workload's own refresh cycle on build,
  // else from the set-up's model build.
  const TraceSummary setup = Summarize(setup_tracer);
  const TraceSummary& offline = kind == PhaseKind::kRefresh ? main : setup;
  add({{"traj.generate_s", setup.span("traj.generate").mean(), "s"},
       {"traj.store_s", offline.span("traj.store").mean(), "s"},
       {"core.instantiate_s", offline.span("core.instantiate").mean(), "s"},
       {"core.freeze_s", offline.span("core.freeze").mean(), "s"},
       {"core.save_s", offline.span("core.save").mean(), "s"},
       {"core.load_s", setup.span("core.load").mean(), "s"},
       {"hist.fit_unit_s", PerBuild(offline, "hist.fit_unit"), "s"},
       {"hist.fit_joint_s", PerBuild(offline, "hist.fit_joint"), "s"}});

  // Overhead: the engine calls of the traced round against the untraced
  // round (spans and replays excluded), and the traced round's wall time.
  const char* call = kind == PhaseKind::kOd      ? "serving.estimate"
                     : kind == PhaseKind::kBatch ? "serving.batch"
                     : kind == PhaseKind::kRoute ? "serving.route"
                                                 : "serving.refresh";
  const double plain_calls = plain.call_seconds;
  double traced_calls = main.span(call).total();
  if (kind == PhaseKind::kRefresh) {
    traced_calls -= main.span("bench.replay_fits").total();
  }
  std::printf("trace overhead (%s): untraced %.4f s, traced %.4f s "
              "(%+.1f%%) over %zu calls\n",
              call, plain_calls, traced_calls,
              100.0 * (traced_calls / plain_calls - 1.0),
              main.span(call).seconds.size());
  if (kind == PhaseKind::kOd || kind == PhaseKind::kBatch) {
    const SpanStats& est = main.span("serving.estimate");
    double children = 0.0;
    for (const char* name : {"roadnet.resolve", "core.decompose", "core.sweep",
                             "core.finalize"}) {
      children += main.span(name).total();
    }
    double self = 0.0;
    for (double s : est.self_seconds) self += s;
    std::printf("reconcile: Engine::Estimate %.6f s = self %.6f s + replayed "
                "layers %.6f s (sum %.6f s) over %zu requests\n",
                est.total(), self, children, self + children,
                est.seconds.size());
  }

  const std::string trace_path = args.workdir + "/trace-" + args.workload +
                                 "-" + std::to_string(args.seed) + ".jsonl";
  bool written = setup_tracer.Write(trace_path, "setup", /*append=*/false) &&
                 tracer.Write(trace_path, args.workload, /*append=*/true);
  for (const auto& [label, t] : census) {
    written = written && t->Write(trace_path, label, /*append=*/true);
  }
  if (!written) std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
  std::printf("spans written to %s\n", trace_path.c_str());

  Checker checker;
  Quality quality;
  status = phase->Check(&checker, &quality);
  if (!status.ok()) return Fail(status, "check");
  std::vector<Metric> metrics;
  for (auto& [name, m] : layer) metrics.push_back(m);
  ExpectMeasured(metrics, &checker);
  const bool correct = checker.failures() == 0 && written;
  PrintResult(correct, plain.ops, plain.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  PhaseKind kind;
  if (!ParseArgs(argc, argv, &args) || !KindOf(args.workload, &kind)) {
    std::fprintf(stderr,
                 "usage: %s --workload od_serve|path_batch|route|build "
                 "--seed N --seconds S --trace 0|1 [--workdir DIR]\n",
                 argv[0]);
    return 2;
  }
  std::string why;
  if (!SelfCheckReferences(&why)) {
    std::fprintf(stderr, "perfbench: reference self-check failed: %s\n",
                 why.c_str());
    return 1;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", args.workdir.c_str());
    return 1;
  }
  return args.trace ? RunTraced(args, kind) : RunUntraced(args, kind);
}
