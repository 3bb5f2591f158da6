#include "reference.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <set>

namespace perfbench {

using pcde::roadnet::Edge;
using pcde::roadnet::EdgeId;
using pcde::roadnet::Graph;
using pcde::roadnet::Path;
using pcde::roadnet::VertexId;

ShortestPathTree Dijkstra(const Graph& g, VertexId source,
                          const std::function<double(const Edge&)>& weight,
                          VertexId target) {
  const double inf = std::numeric_limits<double>::infinity();
  ShortestPathTree tree;
  tree.dist.assign(g.NumVertices(), inf);
  tree.via.assign(g.NumVertices(), pcde::roadnet::kInvalidEdge);
  std::vector<uint8_t> settled(g.NumVertices(), 0);
  using Entry = std::pair<double, VertexId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  tree.dist[source] = 0.0;
  heap.push({0.0, source});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (settled[u]) continue;
    settled[u] = 1;
    if (u == target) break;
    for (EdgeId e : g.OutEdges(u)) {
      const Edge& edge = g.edge(e);
      const double nd = d + weight(edge);
      if (nd < tree.dist[edge.to]) {
        tree.dist[edge.to] = nd;
        tree.via[edge.to] = e;
        heap.push({nd, edge.to});
      }
    }
  }
  return tree;
}

Path TreePath(const Graph& g, const ShortestPathTree& tree, VertexId target) {
  if (!std::isfinite(tree.dist[target])) return Path();
  std::vector<EdgeId> edges;
  for (VertexId v = target; tree.via[v] != pcde::roadnet::kInvalidEdge;
       v = g.edge(tree.via[v]).from) {
    edges.push_back(tree.via[v]);
  }
  std::reverse(edges.begin(), edges.end());
  return Path(std::move(edges));
}

double FreeFlowCost(const Graph& g, const Path& path) {
  double cost = 0.0;
  for (EdgeId e : path) cost += g.edge(e).FreeFlowSeconds();
  return cost;
}

bool IsSimplePathBetween(const Graph& g, const Path& path, VertexId from,
                         VertexId to) {
  if (path.empty()) return false;
  for (EdgeId e : path) {
    if (static_cast<size_t>(e) >= g.NumEdges()) return false;
  }
  if (g.edge(path.front()).from != from || g.edge(path.back()).to != to) {
    return false;
  }
  std::set<VertexId> seen{from};
  for (size_t i = 0; i < path.size(); ++i) {
    const Edge& edge = g.edge(path[i]);
    if (i > 0 && g.edge(path[i - 1]).to != edge.from) return false;
    if (!seen.insert(edge.to).second) return false;
  }
  return true;
}

std::vector<Piece> PiecesOf(const pcde::hist::Histogram1D& h) {
  std::vector<Piece> pieces;
  pieces.reserve(h.NumBuckets());
  for (const auto& b : h.buckets()) {
    pieces.push_back(Piece{b.range.lo, b.range.hi, b.prob});
  }
  return pieces;
}

namespace {

/// Right-continuous CDF F(x) when `inclusive`, else the left limit F(x-).
double CdfImpl(const std::vector<Piece>& pieces, double x, bool inclusive) {
  double f = 0.0;
  for (const Piece& piece : pieces) {
    if (piece.hi <= piece.lo) {
      if (inclusive ? piece.lo <= x : piece.lo < x) f += piece.p;
    } else if (x >= piece.hi) {
      f += piece.p;
    } else if (x > piece.lo) {
      f += piece.p * (x - piece.lo) / (piece.hi - piece.lo);
    }
  }
  return f;
}

}  // namespace

double CdfAt(const std::vector<Piece>& pieces, double x) {
  return CdfImpl(pieces, x, /*inclusive=*/true);
}

double Crps(const std::vector<Piece>& pieces,
            const std::vector<double>& samples) {
  if (pieces.empty() || samples.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::vector<double> breaks;
  for (const Piece& piece : pieces) {
    breaks.push_back(piece.lo);
    breaks.push_back(piece.hi);
  }
  std::sort(breaks.begin(), breaks.end());
  breaks.erase(std::unique(breaks.begin(), breaks.end()), breaks.end());
  double total = 0.0;
  std::vector<double> xs;
  for (double y : samples) {
    xs = breaks;
    xs.insert(std::upper_bound(xs.begin(), xs.end(), y), y);
    xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
    double score = 0.0;
    // Left of every breakpoint F = H = 0, right of them F = H = 1. Between
    // consecutive breakpoints F is linear and the step H is constant, so
    // the integral of (F - H)^2 over a segment of length L with end values
    // a, b is L (a^2 + ab + b^2) / 3.
    for (size_t i = 0; i + 1 < xs.size(); ++i) {
      const double x0 = xs[i];
      const double x1 = xs[i + 1];
      const double h = x0 >= y ? 1.0 : 0.0;
      const double a = CdfImpl(pieces, x0, true) - h;
      const double b = CdfImpl(pieces, x1, false) - h;
      score += (x1 - x0) * (a * a + a * b + b * b) / 3.0;
    }
    total += score;
  }
  return total / static_cast<double>(samples.size());
}

WindowCensus CountFrequentWindows(
    const std::vector<pcde::traj::MatchedTrajectory>& trajectories,
    double alpha_seconds, size_t beta, size_t max_rank, bool keep_samples) {
  using Key = std::pair<std::vector<EdgeId>, int64_t>;
  WindowCensus census;
  std::set<Key> frequent;
  for (size_t k = 1; k <= max_rank; ++k) {
    if (k > 1 && frequent.empty()) break;
    std::map<Key, std::vector<std::vector<double>>> groups;
    for (const auto& t : trajectories) {
      const auto& edges = t.path.edges();
      for (size_t pos = 0; pos + k <= edges.size(); ++pos) {
        const int64_t interval = static_cast<int64_t>(
            std::floor(t.edge_enter_times[pos] / alpha_seconds));
        Key key{std::vector<EdgeId>(edges.begin() + pos,
                                    edges.begin() + pos + k),
                interval};
        if (k > 1) {
          Key prefix{std::vector<EdgeId>(key.first.begin(),
                                         key.first.end() - 1),
                     interval};
          if (frequent.count(prefix) == 0) continue;
        }
        groups[key].emplace_back(t.edge_travel_seconds.begin() + pos,
                                 t.edge_travel_seconds.begin() + pos + k);
      }
    }
    frequent.clear();
    for (auto& [key, rows] : groups) {
      if (rows.size() < beta) continue;
      frequent.insert(key);
      ++census.frequent_by_rank[k];
      if (keep_samples) census.samples[k].push_back(std::move(rows));
    }
  }
  return census;
}

namespace {

bool Near(double a, double b, double tol = 1e-12) {
  return std::fabs(a - b) <= tol * std::max(1.0, std::fabs(b));
}

bool CheckDijkstra(std::string* why) {
  // 0 -> 1 -> 3 costs 2 + 2; 0 -> 2 -> 3 costs 1 + 5; 0 -> 3 directly 7.
  Graph g;
  for (int i = 0; i < 5; ++i) g.AddVertex(i * 100.0, 0.0);
  auto add = [&g](VertexId a, VertexId b, double seconds) {
    (void)g.AddEdge(a, b, seconds * 10.0, 10.0);
  };
  add(0, 1, 2.0);
  add(1, 3, 2.0);
  add(0, 2, 1.0);
  add(2, 3, 5.0);
  add(0, 3, 7.0);
  auto free_flow = [](const Edge& e) { return e.FreeFlowSeconds(); };
  const ShortestPathTree tree = Dijkstra(g, 0, free_flow);
  const Path path = TreePath(g, tree, 3);
  if (!Near(tree.dist[3], 4.0) || path.size() != 2 ||
      g.edge(path[0]).to != 1 || !IsSimplePathBetween(g, path, 0, 3) ||
      !Near(FreeFlowCost(g, path), 4.0) || !Near(tree.dist[2], 1.0) ||
      std::isfinite(tree.dist[4]) || !TreePath(g, tree, 4).empty()) {
    *why = "Dijkstra on the five-vertex fixture";
    return false;
  }
  return true;
}

bool CheckCrps(std::string* why) {
  // Point mass at x against a sample y: |x - y|.
  const std::vector<Piece> point{{3.0, 3.0, 1.0}};
  // Uniform [0, 1] against y = 0: 1/3; against y = 0.5: 1/12; against y = 2:
  // E|X - 2| - E|X - X'| / 2 = 1.5 - 1/6.
  const std::vector<Piece> uniform{{0.0, 1.0, 1.0}};
  // Half point mass at 0, half at 1, against y = 0: integral over [0, 1)
  // of (1/2 - 1)^2 = 1/4.
  const std::vector<Piece> two_points{{0.0, 0.0, 0.5}, {1.0, 1.0, 0.5}};
  if (!Near(Crps(point, {5.5}), 2.5) || !Near(Crps(point, {1.0}), 2.0) ||
      !Near(Crps(point, {3.0}), 0.0) || !Near(Crps(uniform, {0.0}), 1.0 / 3) ||
      !Near(Crps(uniform, {0.5}), 1.0 / 12) ||
      !Near(Crps(uniform, {2.0}), 1.5 - 1.0 / 6) ||
      !Near(Crps(two_points, {0.0}), 0.25) ||
      !Near(Crps(uniform, {0.0, 0.5}), (1.0 / 3 + 1.0 / 12) / 2)) {
    *why = "CRPS closed-form cases";
    return false;
  }
  if (!Near(CdfAt(uniform, 0.25), 0.25) || !Near(CdfAt(point, 3.0), 1.0) ||
      !Near(CdfAt(point, 2.999), 0.0) || !Near(CdfAt(two_points, 0.5), 0.5)) {
    *why = "CDF integration cases";
    return false;
  }
  return true;
}

bool CheckWindows(std::string* why) {
  // Three trajectories over edges 1-2-3 entering in interval 0 and one over
  // 1-2-4 in interval 1, with beta = 3: frequent are (1,i0), (2,i0), (3,i0),
  // (1-2,i0), (2-3,i0), (1-2-3,i0); (1,i1) etc. stay below beta, and the
  // prefix rule keeps (2-4) from being counted at all.
  auto trip = [](std::vector<EdgeId> edges, double t0) {
    pcde::traj::MatchedTrajectory t;
    t.path = Path(edges);
    for (size_t i = 0; i < edges.size(); ++i) {
      t.edge_enter_times.push_back(t0 + 10.0 * static_cast<double>(i));
      t.edge_travel_seconds.push_back(10.0);
      t.edge_emission_grams.push_back(1.0);
    }
    return t;
  };
  std::vector<pcde::traj::MatchedTrajectory> trips{
      trip({1, 2, 3}, 0.0), trip({1, 2, 3}, 100.0), trip({1, 2, 3}, 200.0),
      trip({1, 2, 4}, 2000.0)};
  const WindowCensus census = CountFrequentWindows(trips, 1800.0, 3, 8, true);
  const std::map<size_t, size_t> expected{{1, 3}, {2, 2}, {3, 1}};
  if (census.frequent_by_rank != expected ||
      census.samples.at(3).size() != 1 ||
      census.samples.at(3)[0].size() != 3) {
    *why = "frequent-window count on the four-trajectory fixture";
    return false;
  }
  return true;
}

}  // namespace

bool SelfCheckReferences(std::string* why) {
  return CheckDijkstra(why) && CheckCrps(why) && CheckWindows(why);
}

}  // namespace perfbench
