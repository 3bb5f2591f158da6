#include "core/estimator.h"

#include <algorithm>
#include <cmath>

#include "roadnet/path.h"

namespace pcde {
namespace core {

using hist::Histogram1D;
using roadnet::Path;
using roadnet::PathHash;

StatusOr<Decomposition> HybridEstimator::Decompose(const Path& path,
                                                   double departure_time) const {
  PCDE_ASSIGN_OR_RETURN(
      array, builder_.BuildCandidateArray(path, departure_time,
                                          options_.rank_cap));
  switch (options_.policy) {
    case DecompositionPolicy::kCoarsest:
      return DecompositionBuilder::Coarsest(array);
    case DecompositionPolicy::kRandom: {
      // Deterministic per query: seed mixes the configured seed with the
      // path identity.
      Rng rng(options_.random_seed ^ PathHash()(path));
      return DecompositionBuilder::Random(array, &rng);
    }
    case DecompositionPolicy::kPairwise:
      return DecompositionBuilder::PairwiseChain(array);
    case DecompositionPolicy::kUnit:
      return DecompositionBuilder::UnitChain(array);
  }
  return Status::Internal("Decompose: unknown policy");
}

StatusOr<Histogram1D> HybridEstimator::EstimateCostDistribution(
    const Path& path, double departure_time, EstimateBreakdown* breakdown,
    const CancelToken* cancel) const {
  if (CancelToken::Check(cancel)) return CancelToken::StatusOf(cancel);
  PhaseTimer oi, jc, mc;
  oi.Start();
  PCDE_ASSIGN_OR_RETURN(de, Decompose(path, departure_time));
  oi.Stop();

  ChainOptions chain = options_.chain;
  // The LB unit chain has no separators; evaluating it under independence
  // is exact and skips pointless conditioning machinery.
  if (options_.policy == DecompositionPolicy::kUnit) {
    chain.force_independence = true;
  }

  // The chain evaluation is a pure function of (decomposition, options), so
  // a cached result is bit-identical to recomputing.
  QueryCache::Key key;
  if (cache_ != nullptr) {
    key = QueryCache::MakeKey(de, departure_time,
                              cache_->options().time_bucket_seconds,
                              QueryCache::Fingerprint(chain),
                              wp_.fingerprint());
    Histogram1D cached;
    if (cache_->Lookup(key, &cached)) {
      if (breakdown != nullptr) {
        breakdown->oi_seconds = oi.total_seconds();
        breakdown->parts = de.size();
        breakdown->cache_hit = true;
      }
      return cached;
    }
  }

  ChainDiagnostics diag;
  PCDE_ASSIGN_OR_RETURN(
      result, EstimateFromDecomposition(de, chain, &diag, &jc, &mc, cancel));
  if (cache_ != nullptr) cache_->Insert(key, result);
  if (breakdown != nullptr) {
    breakdown->oi_seconds = oi.total_seconds();
    breakdown->jc_seconds = jc.total_seconds();
    breakdown->mc_seconds = mc.total_seconds();
    breakdown->parts = de.size();
    breakdown->chain = diag;
  }
  return result;
}

StatusOr<Histogram1D> HybridEstimator::EstimateWithFallback(
    const Path& path, double departure_time, FallbackProvenance* provenance,
    EstimateBreakdown* breakdown, const CancelToken* cancel) const {
  if (provenance != nullptr) *provenance = FallbackProvenance();
  auto full = EstimateCostDistribution(path, departure_time, breakdown, cancel);
  if (full.ok()) return full;

  // A tripped token is not a coverage problem: unwind instead of descending
  // the ladder (a cancelled full estimate must not masquerade as sparse).
  if (full.status().code() == StatusCode::kDeadlineExceeded ||
      full.status().code() == StatusCode::kCancelled) {
    return full.status();
  }

  // Degrade only on sparse coverage; any other failure (and sparse
  // coverage with no synthesizer to bridge it) passes through unchanged.
  const std::vector<uint8_t> covered = builder_.UnitCoverage(path);
  size_t num_covered = 0;
  for (uint8_t c : covered) num_covered += c;
  if (num_covered == covered.size() || !edge_fallback_) return full.status();

  // Left-to-right over maximal covered runs and uncovered positions; the
  // departure time advances by each finished segment's mean (Eq. 3's
  // shift-and-enlarge needs per-edge variables the gaps don't have — the
  // scalar progression is the degraded stand-in).
  const size_t n = path.size();
  const size_t max_buckets = options_.chain.max_result_buckets;
  Histogram1D total;
  bool have_total = false;
  bool multi_edge_run = false;
  size_t covered_runs = 0;
  size_t synthesized = 0;
  double t = departure_time;
  auto accumulate = [&](const Histogram1D& seg) -> Status {
    t += seg.Mean();
    if (!have_total) {
      total = seg;
      have_total = true;
      return Status::OK();
    }
    PCDE_ASSIGN_OR_RETURN(conv, hist::Convolve(total, seg, max_buckets));
    total = std::move(conv);
    return Status::OK();
  };
  size_t k = 0;
  while (k < n) {
    // Per-segment checkpoint: each covered run or synthesized edge is one
    // unit of ladder work between polls.
    if (CancelToken::Check(cancel)) return CancelToken::StatusOf(cancel);
    if (covered[k] != 0) {
      size_t end = k;
      while (end < n && covered[end] != 0) ++end;
      auto run = EstimateCostDistribution(path.Slice(k, end - k), t, nullptr,
                                          cancel);
      if (run.ok()) {
        if (end - k >= 2) multi_edge_run = true;
        ++covered_runs;
        PCDE_RETURN_NOT_OK(accumulate(run.value()));
        k = end;
        continue;
      }
      // A run cancelled mid-sweep must unwind, not descend to its edges.
      if (CancelToken::Check(cancel)) return CancelToken::StatusOf(cancel);
      // A covered run can still fail (e.g. a unit variable none of whose
      // intervals is temporally relevant): descend to its edges one by one,
      // trying the single-edge decomposition before the synthesizer.
      for (; k < end; ++k) {
        if (CancelToken::Check(cancel)) return CancelToken::StatusOf(cancel);
        auto one = EstimateCostDistribution(path.Slice(k, 1), t, nullptr,
                                            cancel);
        if (one.ok()) {
          ++covered_runs;
          PCDE_RETURN_NOT_OK(accumulate(one.value()));
          continue;
        }
        // A cancelled edge estimate must not degrade into a synthesized one.
        if (CancelToken::Check(cancel)) return CancelToken::StatusOf(cancel);
        PCDE_ASSIGN_OR_RETURN(synth, edge_fallback_(path[k]));
        ++synthesized;
        PCDE_RETURN_NOT_OK(accumulate(synth));
      }
      continue;
    }
    PCDE_ASSIGN_OR_RETURN(synth, edge_fallback_(path[k]));
    ++synthesized;
    PCDE_RETURN_NOT_OK(accumulate(synth));
    ++k;
  }
  if (!have_total) return full.status();
  if (provenance != nullptr) {
    provenance->level = multi_edge_run ? DegradationLevel::kSubpath
                                       : DegradationLevel::kEdge;
    provenance->covered_fraction =
        static_cast<double>(num_covered) / static_cast<double>(n);
    provenance->covered_runs = covered_runs;
    provenance->synthesized_edges = synthesized;
  }
  return total;
}

std::vector<StatusOr<Histogram1D>> HybridEstimator::EstimateBatch(
    const PathQuery* queries, size_t num_queries, ThreadPool* pool,
    BatchMetrics* metrics, const CancelToken* cancel) const {
  std::vector<StatusOr<Histogram1D>> results(
      num_queries, Status::Internal("EstimateBatch: query not run"));
  // Preallocate both metric lanes before the fan-out; inside it, a worker
  // writes only to its own query's slots. The previous shared atomic
  // hit/miss counters bounced one cache line across every worker on every
  // query — the aggregate totals are summed once after the join instead.
  if (metrics != nullptr) {
    metrics->query_seconds.assign(num_queries, 0.0);
    metrics->query_cache_hit.assign(num_queries, 0);
  }
  auto run_one = [this, queries, &results, metrics, cancel](size_t i) {
    if (metrics == nullptr) {
      results[i] = EstimateCostDistribution(
          queries[i].path, queries[i].departure_time, nullptr, cancel);
      return;
    }
    Stopwatch watch;
    EstimateBreakdown breakdown;
    results[i] = EstimateCostDistribution(
        queries[i].path, queries[i].departure_time, &breakdown, cancel);
    metrics->query_seconds[i] = watch.ElapsedSeconds();
    metrics->query_cache_hit[i] = breakdown.cache_hit ? 1 : 0;
  };
  if (pool != nullptr) {
    pool->ParallelFor(num_queries, run_one);
  } else {
    // No pool: run inline on the calling thread (previously a null deref —
    // the admission layer can legitimately reach here with pooling off).
    for (size_t i = 0; i < num_queries; ++i) run_one(i);
  }
  if (metrics != nullptr) {
    metrics->cache_hits = 0;
    metrics->cache_misses = 0;
    if (cache_ != nullptr) {
      for (uint8_t hit : metrics->query_cache_hit) {
        (hit != 0 ? metrics->cache_hits : metrics->cache_misses) += 1;
      }
    }
  }
  return results;
}

std::vector<StatusOr<Histogram1D>> HybridEstimator::EstimateBatch(
    const PathQuery* queries, size_t num_queries, size_t num_threads) const {
  ThreadPool pool(num_threads);
  return EstimateBatch(queries, num_queries, &pool);
}

StatusOr<double> HybridEstimator::EstimateEntropy(const Path& path,
                                                  double departure_time) const {
  PCDE_ASSIGN_OR_RETURN(de, Decompose(path, departure_time));
  return DecompositionEntropy(de);
}

// ---------------------------------------------------------------------------
// IncrementalEstimator
// ---------------------------------------------------------------------------

namespace {

ChainOptions ChainOptionsFor(const EstimateOptions& options) {
  ChainOptions chain = options.chain;
  if (options.policy == DecompositionPolicy::kUnit) {
    chain.force_independence = true;
  }
  return chain;
}

}  // namespace

IncrementalEstimator::IncrementalEstimator(const PathWeightFunction& wp,
                                           EstimateOptions options,
                                           roadnet::EdgeId first_edge,
                                           double departure_time)
    : wp_(wp),
      options_(options),
      path_(std::vector<roadnet::EdgeId>{first_edge}),
      departure_time_(departure_time),
      sweeper_(ChainOptionsFor(options)) {
  windows_.emplace_back(departure_time, departure_time);
  const InstantiatedVariable* unit =
      wp_.UnitVariable(first_edge, windows_[0]);
  if (unit != nullptr) {
    parts_.push_back(DecompositionPart{unit, 0});
    min_total_ += unit->joint.DimRange(0).lo;
    windows_.emplace_back(windows_[0].lo + unit->joint.DimRange(0).lo,
                          windows_[0].hi + unit->joint.DimRange(0).hi);
  }
  PushUnitBounds(unit);
}

void IncrementalEstimator::PushUnitBounds(const InstantiatedVariable* unit) {
  const double lo = unit != nullptr ? unit->joint.DimRange(0).lo : 0.0;
  const double hi = unit != nullptr ? unit->joint.DimRange(0).hi : 0.0;
  if (unit == nullptr) ++units_missing_;
  unit_lo_prefix_.push_back(unit_lo_prefix_.back() + lo);
  unit_hi_prefix_.push_back(unit_hi_prefix_.back() + hi);
}

size_t IncrementalEstimator::MaxAbsorbRank() const {
  constexpr size_t kDefaultMaxRank = 8;  // HybridParams::max_instantiated_rank
  return options_.rank_cap > 0 ? options_.rank_cap : kDefaultMaxRank;
}

void IncrementalEstimator::AdvanceStablePrefix() {
  // A part starting before path_.size() + 1 - MaxAbsorbRank() can never be
  // absorbed by a future part (future parts start at >= m - max_rank with
  // m > |path|), so its chain transition is final and can be streamed.
  const size_t n = path_.size();
  const size_t max_rank = MaxAbsorbRank();
  const size_t stable_before = n + 1 > max_rank ? n + 1 - max_rank : 0;
  while (applied_ + 1 < parts_.size() &&
         parts_[applied_].start < stable_before &&
         parts_[applied_ + 1].start < stable_before) {
    // Both this part and its successor are final, so the separator between
    // them is final too.
    sweeper_.ApplyPart(parts_[applied_], parts_[applied_ + 1].start);
    ++applied_;
  }
}

Status IncrementalEstimator::ExtendByEdge(roadnet::EdgeId e) {
  if (parts_.empty()) {
    return Status::FailedPrecondition("IncrementalEstimator: no initial part");
  }
  std::vector<roadnet::EdgeId> edges = path_.edges();
  edges.push_back(e);
  const Path extended{std::vector<roadnet::EdgeId>(edges)};
  const size_t n = extended.size();  // new edge is at position n-1

  // Incremental counterpart of Algorithm 1: pick the highest-rank
  // temporally relevant variable ending at the new edge. Trailing parts
  // whose spans the new part contains are absorbed (they would violate
  // the no-sub-path condition); the part preceding the absorbed ones
  // bounds how far back the new part may start. Rank 1 always exists
  // (speed-limit fallback), absorbing nothing.
  const size_t max_rank =
      options_.rank_cap > 0 ? std::min(options_.rank_cap, n) : n;
  const InstantiatedVariable* chosen = nullptr;
  size_t chosen_start = n - 1;
  const TimeBinning& binning = wp_.binning();
  for (size_t r = max_rank; r >= 1 && chosen == nullptr; --r) {
    const size_t start = n - r;
    // The new part absorbs trailing parts whose spans it contains (all
    // parts starting at or after `start`); the surviving predecessor then
    // starts strictly before `start`, preserving ordering and the
    // no-sub-path condition.
    size_t surviving = parts_.size();
    while (surviving > 0 && parts_[surviving - 1].start >= start) {
      --surviving;
    }
    // Candidate variables with path == extended.Slice(start, r).
    const InstantiatedVariable* best = nullptr;
    double best_overlap = 0.0;
    // Departure window at the candidate's start position (Eq. 3), kept
    // per edge as the path grows.
    const Interval& win = windows_[std::min(start, windows_.size() - 1)];
    for (const InstantiatedVariable* v : wp_.StartingAt(extended[start])) {
      if (v->rank() != r) continue;
      bool spatial = true;
      for (size_t d = 0; d < r; ++d) {
        if (v->path[d] != extended[start + d]) {
          spatial = false;
          break;
        }
      }
      if (!spatial) continue;
      double overlap;
      if (v->interval == kAllDayInterval) {
        overlap = 1e-12;
      } else {
        const Interval ij = binning.IntervalOf(v->interval);
        overlap = win.width() > 0.0 ? win.OverlapRatioOf(ij)
                                    : (ij.Contains(win.lo) ? 1.0 : 0.0);
      }
      if (overlap > best_overlap) {
        best_overlap = overlap;
        best = v;
      }
    }
    if (best != nullptr) {
      chosen = best;
      chosen_start = start;
      parts_.resize(surviving);  // absorb contained trailing parts
    }
  }
  if (chosen == nullptr) {
    return Status::NotFound("ExtendByEdge: no variable for edge " +
                            std::to_string(e));
  }

  path_ = extended;
  parts_.push_back(DecompositionPart{chosen, chosen_start});

  // Maintain the pruning lower bound and the arrival window with the unit
  // variable of the new edge.
  const Interval& at_edge = windows_.back();
  const InstantiatedVariable* unit = wp_.UnitVariable(e, at_edge);
  if (unit != nullptr) {
    min_total_ += unit->joint.DimRange(0).lo;
    windows_.emplace_back(at_edge.lo + unit->joint.DimRange(0).lo,
                          at_edge.hi + unit->joint.DimRange(0).hi);
  } else {
    windows_.push_back(at_edge);
  }
  PushUnitBounds(unit);
  AdvanceStablePrefix();
  return Status::OK();
}

double IncrementalEstimator::MinTotalCostWithEdge(roadnet::EdgeId e) const {
  // Mirrors ExtendByEdge's min_total_ update exactly: the unit lookup uses
  // the same arrival window the extension would, so the value is what a
  // clone's MinTotalCost() would report after extending.
  const InstantiatedVariable* unit = wp_.UnitVariable(e, windows_.back());
  return min_total_ + (unit != nullptr ? unit->joint.DimRange(0).lo : 0.0);
}

namespace {

/// Safety slack on support-bound comparisons: Finalize inflates state
/// intervals by epsilons (Interval::Inflated) and the flatten/compact
/// pipeline adds a few rounding steps, so a probe evaluated on the raw
/// streamed states could sit an epsilon on the wrong side of the final
/// histogram's CDF. Widening every bound by this (absolute + relative)
/// slack keeps the probes conservative; the pruning it forgoes is mass
/// within ~1e-6 s of the threshold — noise at road-network cost scales.
double SupportSlack(double v) { return 1e-6 + 1e-9 * std::abs(v); }

}  // namespace

double IncrementalEstimator::ArrivalProbabilityUpperBound(
    double budget, double remaining_lower_bound) const {
  // Prefix positions not yet streamed into the sweeper cost at least their
  // unit minima (the same per-position support bounds min_total_ sums);
  // the streamed (stable) positions' contributions are final for every
  // completion, so the surviving state mass below the residual budget
  // bounds any completion's arrival probability from above.
  const double uncounted_min = min_total_ - unit_lo_prefix_[CountedEnd()];
  double x = budget - remaining_lower_bound - uncounted_min;
  x += SupportSlack(x);
  return sweeper_.CdfUpperBoundAt(x);
}

bool IncrementalEstimator::PrefixCostEnvelope(
    std::vector<std::pair<double, double>>* optimistic,
    std::vector<std::pair<double, double>>* pessimistic) const {
  if (units_missing_ > 0) return false;  // no per-position maxima exist
  optimistic->clear();
  pessimistic->clear();
  const double mass = sweeper_.AppendSupportPoints(optimistic, pessimistic);
  if (mass < 1.0 - 1e-9) {
    // Destroyed mass renormalizes at Finalize; neither side still bounds
    // the final distribution.
    optimistic->clear();
    pessimistic->clear();
    return false;
  }
  const size_t ce = CountedEnd();
  const double uncounted_lo = min_total_ - unit_lo_prefix_[ce];
  const double uncounted_hi = unit_hi_prefix_.back() - unit_hi_prefix_[ce];
  for (auto& point : *optimistic) {
    point.first += uncounted_lo;
    point.first -= SupportSlack(point.first);
  }
  for (auto& point : *pessimistic) {
    point.first += uncounted_hi;
    point.first += SupportSlack(point.first);
  }
  return true;
}

StatusOr<Histogram1D> IncrementalEstimator::CurrentDistribution() const {
  // Replay only the unstable tail on a copy of the streamed chain state.
  ChainSweeper sweeper = sweeper_;
  for (size_t k = applied_; k < parts_.size(); ++k) {
    const size_t next_start =
        k + 1 < parts_.size() ? parts_[k + 1].start : parts_[k].end();
    sweeper.ApplyPart(parts_[k], next_start);
  }
  auto result = sweeper.Finalize();
  if (result.ok()) return result;
  if (result.status().code() != StatusCode::kFailedPrecondition) {
    return result.status();
  }
  // Separator-support mismatch destroyed the mass: recompute the whole
  // chain under part independence (same fallback as the batch path).
  ChainOptions chain = ChainOptionsFor(options_);
  chain.force_independence = true;
  return EstimateFromDecomposition(parts_, chain);
}

StatusOr<Histogram1D> IncrementalEstimator::CurrentDistribution(
    QueryCache* cache) const {
  if (cache == nullptr) return CurrentDistribution();
  const QueryCache::Key key = QueryCache::MakeKey(
      parts_, departure_time_, cache->options().time_bucket_seconds,
      QueryCache::Fingerprint(ChainOptionsFor(options_)), wp_.fingerprint());
  Histogram1D cached;
  if (cache->Lookup(key, &cached)) return cached;
  auto result = CurrentDistribution();
  if (result.ok()) cache->Insert(key, result.value());
  return result;
}

}  // namespace core
}  // namespace pcde
