// Evaluation of Eq. 2 — the decomposable-model estimate
//   p̂(C_P) = Π p(C_Pi) / Π p(C_{Pi ∩ Pi-1})
// over multi-dimensional histograms, fused with the Sec. 4.2 reduction to
// the univariate cost distribution.
//
// The decomposition is a chain junction tree (parts ordered left to right,
// consecutive parts overlapping on separators). ChainSweeper sweeps the
// chain keeping a sparse distribution over states
//   (accumulated-sum interval, open separator box),
// where "open" dimensions are the edges shared with the next part. Each
// part contributes a proper conditional p(new dims | separator) formed from
// its own histogram (hyper-bucket mass divided by its separator marginal);
// separator boundary mismatches between adjacent histograms are resolved by
// box intersection under the uniform-within-bucket assumption. Closed
// dimensions Minkowski-sum their bucket ranges into the running total; the
// final states are flattened into a disjoint 1-D histogram (Fig. 7) and
// compacted.
//
// State representation (the hot path of every efficiency figure): open
// boxes are interned into a per-sweeper interval pool, so a state's open
// separator box is a short tuple of integer ids. Grouping states then
// probes a flat open-addressing table keyed on that inline integer tuple
// (no heap key, no per-group node, no double-byte aliasing — interning
// normalizes -0.0 to 0.0, so signed zeros cannot split a group), the
// per-part separator marginal is a dense array indexed by flattened
// hyper-bucket separator id, and all per-transition temporaries live in
// warm thread-local scratch buffers (including the progressive compaction,
// which runs the hist:: flatten+compact pipeline allocation-free, ending
// in the shared size-dispatched greedy merge of hist/greedy_merge.h —
// blocked argmin small, lazy pair heap large, identical sequences).
// Because a part's open suffix is a contiguous position range,
// position→slot lookup is arithmetic.
//
// A group's accumulated sums are stored structure-of-arrays (lo/hi/prob
// lanes, SumsSoA): the transition convolution and the flatten's density
// preparation run as contiguous SIMD kernels (common/simd.h — AVX2/NEON
// with a bit-identical scalar fallback), and the progressive compaction's
// cut ordering uses the sort-free monotone bucket grid shared with
// hist::FlattenToDisjoint (hist/cut_binning.h) instead of a comparison
// sort. SoA buffers are recycled through the per-thread scratch arena.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/cancel_token.h"
#include "common/interval.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "core/decomposition.h"
#include "hist/cut_binning.h"
#include "hist/greedy_merge.h"
#include "hist/histogram1d.h"

namespace pcde {
namespace core {

struct ChainOptions {
  size_t max_result_buckets = 64;
  /// Cap on accumulated-sum entries per open-box group; beyond it the sums
  /// are flattened and compacted (bounded-memory progressive convolution).
  size_t sums_per_box_cap = 48;
  /// Cap on the number of open-box groups; the lowest-mass groups beyond
  /// it are demoted to an unconditioned overflow group (their boxes close
  /// into the running sums), trading a little tail dependence for bounded
  /// per-step work.
  size_t max_groups = 48;
  /// If the surviving probability mass falls below this (adjacent
  /// histograms with disjoint separator supports), the caller should retry
  /// under part independence.
  double min_total_mass = 1e-9;
  /// Ignore separators: every part treated as independent (the fallback
  /// mode, and the natural semantics of the LB unit chain).
  bool force_independence = false;
};

struct ChainDiagnostics {
  size_t variables_used = 0;
  size_t max_states = 0;  // peak total sum-entries across groups
  bool independence_fallback = false;
};

/// \brief Stateful left-to-right sweep over a decomposition chain.
///
/// Copyable: stochastic routing branches the sweep state per explored
/// prefix ("path + another edge", Sec. 4.3).
class ChainSweeper {
 public:
  /// Separator dimensions a state can keep open. Parts whose open suffix
  /// exceeds this (rank far beyond HybridParams::max_instantiated_rank = 8)
  /// have the excess leading dimensions closed into the running sums — a
  /// graceful fallback toward part independence for those dimensions only.
  /// Later parts covering an early-closed position marginalize their own
  /// histogram over it (the cost is already in the sums; re-adding the box
  /// would double-count it).
  static constexpr size_t kMaxOpenDims = 16;

  explicit ChainSweeper(const ChainOptions& options);

  /// Applies one part. `next_overlap_start` is the query position where the
  /// overlap with the *next* part will begin (== the next part's start);
  /// pass part.end() (or anything >= it) for the final part. Positions of
  /// this part at or beyond it stay open for conditioning.
  void ApplyPart(const DecompositionPart& part, size_t next_overlap_start);

  /// Probability mass still alive (1 minus what box mismatches destroyed).
  double MassRemaining() const;

  /// Peak state count observed so far.
  size_t max_states() const { return max_states_; }

  /// Closes all open dimensions and produces the cost distribution.
  /// Returns FailedPrecondition when the remaining mass is below
  /// options.min_total_mass (caller retries with force_independence).
  StatusOr<hist::Histogram1D> Finalize() const;

  /// Smallest possible accumulated cost over surviving states (a support
  /// lower bound used by routing pruning).
  double MinSum() const;

  /// Mass fraction of surviving states whose smallest possible accumulated
  /// cost is <= x — an upper bound on the final CDF at x while the sweep
  /// has conserved its mass. Returns 1.0 (no information) once separator
  /// mismatch has destroyed mass: Finalize renormalizes the remainder, so
  /// a ratio over the surviving states would no longer bound the final
  /// distribution. Routing's incumbent pruning probes this per extension.
  double CdfUpperBoundAt(double x) const;

  /// Appends one (cost, mass) point per surviving state: its smallest
  /// possible accumulated cost into `optimistic` and its largest into
  /// `pessimistic` — the support envelope of the accumulated-cost
  /// distribution, from which routing's dominance frontier builds its
  /// step-function sketches. Returns the total surviving mass (callers
  /// must discard the envelope when it has dropped below 1: destroyed
  /// mass renormalizes at Finalize and voids both sides).
  double AppendSupportPoints(
      std::vector<std::pair<double, double>>* optimistic,
      std::vector<std::pair<double, double>>* pessimistic) const;

  /// Approximate heap footprint of the sweep state (groups' SoA lanes plus
  /// the interval pool).
  size_t MemoryBytes() const;

 private:
  using BoxId = uint32_t;

  /// Structure-of-arrays accumulated-sum storage: interval bounds and
  /// probabilities in three contiguous double lanes, so the transition
  /// convolution (shift every interval, scale every probability) and the
  /// flatten's inflation/density preparation vectorize over whole groups
  /// instead of striding through AoS entries. Buffers are recycled through
  /// the per-thread scratch arena between parts.
  struct SumsSoA {
    std::vector<double> lo, hi, prob;

    size_t size() const { return prob.size(); }
    bool empty() const { return prob.empty(); }
    size_t capacity() const { return prob.capacity(); }
    void clear() {
      lo.clear();
      hi.clear();
      prob.clear();
    }
    Interval interval(size_t i) const { return Interval(lo[i], hi[i]); }
    void PushBack(const Interval& iv, double p) {
      lo.push_back(iv.lo);
      hi.push_back(iv.hi);
      prob.push_back(p);
    }
    /// Plain concatenation (overflow demotion); copies bits untouched.
    void Append(const SumsSoA& src);
    /// The vectorized transition convolution: appends src with intervals
    /// shifted by (dlo, dhi) and probabilities scaled by w. src must not
    /// alias this.
    void AppendShiftScale(const SumsSoA& src, double dlo, double dhi,
                          double w);
  };

  /// Inline tuple of interned open-box ids; the group key. Hashes and
  /// compares as integers.
  struct BoxKey {
    uint32_t n = 0;
    std::array<BoxId, kMaxOpenDims> ids{};

    bool operator==(const BoxKey& o) const {
      if (n != o.n) return false;
      for (uint32_t i = 0; i < n; ++i) {
        if (ids[i] != o.ids[i]) return false;
      }
      return true;
    }
  };
  struct BoxKeyHash {
    size_t operator()(const BoxKey& k) const;
  };

  /// A state group: all accumulated-sum entries sharing one open box tuple.
  /// The open *positions* are shared by every group of a sweep (always the
  /// contiguous range [open_begin_, open_begin_ + key.n); the overflow /
  /// initial group has key.n == 0), so they live on the sweeper, not here.
  struct Group {
    BoxKey key;
    SumsSoA sums;
  };

  /// Interns intervals (exact value equality, signed zeros normalized) so
  /// box tuples compare and hash as integer ids. Compacted when it outgrows
  /// the surviving groups, keeping sweeper copies cheap.
  class IntervalPool {
   public:
    BoxId Intern(const Interval& iv);
    const Interval& Get(BoxId id) const { return intervals_[id]; }
    size_t size() const { return intervals_.size(); }
    void Clear();

   private:
    struct Bits {
      uint64_t lo, hi;
      bool operator==(const Bits& o) const {
        return lo == o.lo && hi == o.hi;
      }
    };
    struct BitsHash {
      size_t operator()(const Bits& b) const;
    };
    std::vector<Interval> intervals_;
    std::unordered_map<Bits, BoxId, BitsHash> index_;
  };

  /// Per-thread scratch for ApplyPart: rebuilt from scratch per part, so
  /// one warm instance per thread serves every sweeper on it (routing
  /// copies sweepers per explored prefix; per-sweeper scratch would start
  /// cold each time and pay the allocations again). Sweepers on different
  /// threads get independent instances, keeping EstimateBatch lock-free.
  struct Scratch {
    std::vector<uint32_t> live;         // indices of positive-mass buckets
    std::vector<double> cond_w;         // per live bucket: prob / sep marginal
    std::vector<Interval> o_box;        // per live bucket × O dim: bucket box
    std::vector<Interval> close_shift;  // per live bucket: closing, non-O dims
    std::vector<BoxId> open_ids;        // per live bucket × non-O open slot
    std::vector<BoxId> raw_o_ids;       // per live bucket × O dim (unkeyed)
    std::vector<double> sep_marginal;   // dense separator marginal
    std::vector<uint64_t> sep_stride;   // flattening strides per O dim
    std::vector<Group> next_groups;
    /// Flat open-addressing transition index (slot -> next_groups index,
    /// linear probing, power-of-two slots): the per-step group lookup of
    /// the transition sweep. Keys live in next_groups themselves (the
    /// pooled SoA group storage), so the table is a bare u32 lane — no
    /// per-group node allocation, no pointer chasing, rebuilt by a memset
    /// per part (same pattern as weight_function.cc's (seq, interval)
    /// probe table).
    std::vector<uint32_t> group_slots;
    std::vector<std::pair<double, uint32_t>> by_mass;  // demote ordering
    /// The per-thread SoA arena: recycled sums buffers. A part can
    /// materialize thousands of transient groups, and without reuse every
    /// one pays three heap allocations for its lanes (the dominant hidden
    /// cost of the old kernel's per-part rebuild). Total retained capacity
    /// is budgeted (the scratch lives for the thread's lifetime; one
    /// pathological query must not pin its peak footprint forever).
    std::vector<SumsSoA> sums_pool;
    size_t sums_pool_entries = 0;  // summed capacity of pooled buffers
    // Fused flatten+compact (CompactSums) buffers.
    std::vector<double> cs_ilo;    // inflated interval lanes
    std::vector<double> cs_ihi;
    std::vector<double> cs_width;  // inflated widths
    std::vector<double> cs_dens;   // per-entry densities prob / width
    std::vector<double> cs_cuts;
    hist::CutBinningScratch cs_cut_bins;  // sort-free cut ordering
    std::vector<uint32_t> cs_cut_order;   // sorted-cut origin positions
    std::vector<uint32_t> cs_slice_of;    // per-bound deduped cut index
    std::vector<double> cs_diff;
    std::vector<int32_t> cs_cover;
    std::vector<hist::Bucket> cs_flat;    // flattened slices (AoS staging)
    hist::GreedyMergeScratch cs_merge;    // lazy pair-heap merge storage
  };

  static Scratch& LocalScratch();
  static double GroupMass(const Group& g);
  void CompactSums(SumsSoA* sums, size_t cap);
  /// Folds a group's open boxes into its sums (the interval Minkowski
  /// shift), leaving it unconditioned.
  void CloseGroup(Group* g);
  /// Re-interns the surviving groups' boxes into a fresh pool once the pool
  /// outgrows them, bounding sweeper copy cost.
  void MaybeCompactPool();

  ChainOptions options_;
  std::vector<Group> groups_;
  IntervalPool pool_;
  size_t open_begin_ = 0;   // first open position; groups with key.n > 0
                            // cover [open_begin_, open_begin_ + key.n)
  size_t max_states_ = 0;
};

/// \brief One-shot estimation of the cost distribution of the query path
/// from a decomposition (Sec. 4.1.2 + Sec. 4.2). Retries under independence
/// when separator-support mismatch destroys (nearly) all mass.
///
/// `jc_timer` / `mc_timer` (optional) accumulate the joint-computation and
/// marginalization phases for the Fig. 17 run-time breakdown.
///
/// `cancel` (optional) is polled between part transitions — the sweep's
/// cooperative-cancellation checkpoint. A tripped token unwinds with the
/// token's Status (kDeadlineExceeded / kCancelled) before the next
/// ApplyPart, so the deadline overshoot is bounded by one part sweep.
StatusOr<hist::Histogram1D> EstimateFromDecomposition(
    const Decomposition& de, const ChainOptions& options = ChainOptions(),
    ChainDiagnostics* diagnostics = nullptr, PhaseTimer* jc_timer = nullptr,
    PhaseTimer* mc_timer = nullptr, const CancelToken* cancel = nullptr);

/// \brief H_DE(C_P) of Theorem 2: sum of part entropies minus sum of
/// separator entropies (differential, in nats). By Theorem 2,
/// KL(p, p̂_DE) = H_DE − H, so smaller is better; Fig. 15 compares methods
/// by this quantity.
double DecompositionEntropy(const Decomposition& de);

}  // namespace core
}  // namespace pcde
