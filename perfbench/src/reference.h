// Reference computations made apart from the program under test: a plain
// Dijkstra, the CRPS of a bucketed distribution against samples, and a
// level-wise frequent-window count. Each has its own self-check on cases
// with known answers (SelfCheckReferences).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "hist/histogram1d.h"
#include "roadnet/graph.h"
#include "roadnet/path.h"
#include "traj/types.h"

namespace perfbench {

// ---- Dijkstra --------------------------------------------------------------

struct ShortestPathTree {
  std::vector<double> dist;              // +inf when unreachable
  std::vector<pcde::roadnet::EdgeId> via;      // last edge into each vertex
};

/// Single-source shortest paths with a binary heap. Stops once `target`
/// is settled when a target is given.
ShortestPathTree Dijkstra(
    const pcde::roadnet::Graph& g, pcde::roadnet::VertexId source,
    const std::function<double(const pcde::roadnet::Edge&)>& weight,
    pcde::roadnet::VertexId target = static_cast<pcde::roadnet::VertexId>(-1));

/// The tree path from the source to `target` (empty when unreachable).
pcde::roadnet::Path TreePath(const pcde::roadnet::Graph& g, const ShortestPathTree& tree,
                       pcde::roadnet::VertexId target);

/// Free-flow seconds of a path, summed edge by edge from its start.
double FreeFlowCost(const pcde::roadnet::Graph& g, const pcde::roadnet::Path& path);

/// True when `path` is a non-empty chain of adjacent edges from `from` to
/// `to` that visits no vertex twice.
bool IsSimplePathBetween(const pcde::roadnet::Graph& g, const pcde::roadnet::Path& path,
                         pcde::roadnet::VertexId from, pcde::roadnet::VertexId to);

// ---- Distributions ---------------------------------------------------------

/// One piece of a bucketed distribution: mass `p` spread uniformly over
/// [lo, hi], or a point mass at lo when lo == hi.
struct Piece {
  double lo;
  double hi;
  double p;
};

std::vector<Piece> PiecesOf(const pcde::hist::Histogram1D& h);

/// P(X <= x), integrating the pieces directly.
double CdfAt(const std::vector<Piece>& pieces, double x);

/// Mean continuous ranked probability score of the distribution against
/// each sample: (1/m) sum_j integral (F(x) - 1{x >= y_j})^2 dx, integrated
/// exactly (F is piecewise linear between breakpoints).
double Crps(const std::vector<Piece>& pieces, const std::vector<double>& samples);

// ---- Frequent windows ------------------------------------------------------

/// Level-wise count of frequent (window, alpha-interval) pairs: a unit
/// window is frequent with >= beta traversals entering it in the interval;
/// a k-edge window is counted only at trajectory positions whose (k-1)-edge
/// prefix is frequent in the same interval (prefix pruning), and is
/// frequent with >= beta such positions.
struct WindowCensus {
  /// rank -> number of frequent windows (rank 1 = unit windows).
  std::map<size_t, size_t> frequent_by_rank;
  /// Cost samples of every frequent window, by rank (rows of per-edge
  /// costs), when requested.
  std::map<size_t, std::vector<std::vector<std::vector<double>>>> samples;
};

WindowCensus CountFrequentWindows(
    const std::vector<pcde::traj::MatchedTrajectory>& trajectories,
    double alpha_seconds, size_t beta, size_t max_rank, bool keep_samples);

/// Runs every self-check; returns false and describes the first failure.
bool SelfCheckReferences(std::string* why);

}  // namespace perfbench
