#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "reference.h"
#include "roadnet/generators.h"

namespace perfbench {

using pcde::Rng;
using pcde::roadnet::Edge;
using pcde::roadnet::EdgeId;
using pcde::roadnet::Graph;
using pcde::roadnet::Path;
using pcde::roadnet::VertexId;

namespace {

/// Vertices that can reach and be reached from `root` (its strongly
/// connected component), by two breadth-first searches.
std::vector<uint8_t> ComponentOf(const Graph& g, VertexId root) {
  auto sweep = [&g, root](bool forward) {
    std::vector<uint8_t> seen(g.NumVertices(), 0);
    std::vector<VertexId> stack{root};
    seen[root] = 1;
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      for (EdgeId e : forward ? g.OutEdges(v) : g.InEdges(v)) {
        const VertexId w = forward ? g.edge(e).to : g.edge(e).from;
        if (!seen[w]) {
          seen[w] = 1;
          stack.push_back(w);
        }
      }
    }
    return seen;
  };
  std::vector<uint8_t> out = sweep(true);
  const std::vector<uint8_t> in = sweep(false);
  for (size_t v = 0; v < out.size(); ++v) out[v] = out[v] && in[v];
  return out;
}

}  // namespace

World::World() {
  // The city layout and the traffic process keep the library's own seeds:
  // drawn from the run seed, they swung the model size 0.11-0.24 MB and
  // the build time 0.6-2.3 s over five seeds, far beyond any usable bound.
  // The run seed drives the demand, the trips and every request stream.
  graph = pcde::roadnet::MakeCity(pcde::roadnet::CityAConfig());
  traffic = std::make_unique<pcde::traj::TrafficModel>(
      graph, pcde::traj::TrafficConfig());
  pcde::traj::GeneratorConfig sim_config;
  sim_config.num_trips = 0;  // demand comes from SampleDemand
  simulator =
      std::make_unique<pcde::traj::TrajectoryGenerator>(*traffic, sim_config);

  // Hubs sit on a fixed lattice over the city's extent, so every seed has
  // the same demand geometry (seed-drawn hubs make the model size swing
  // several-fold between seeds).
  double min_x = std::numeric_limits<double>::infinity(), max_x = -min_x;
  double min_y = min_x, max_y = -min_x;
  for (const auto& v : graph.vertices()) {
    min_x = std::min(min_x, v.x);
    max_x = std::max(max_x, v.x);
    min_y = std::min(min_y, v.y);
    max_y = std::max(max_y, v.y);
  }
  const VertexId center = graph.NumVertices() / 2;
  const std::vector<uint8_t> component = ComponentOf(graph, center);
  const size_t side = shape.hubs_per_side;
  for (size_t i = 0; i < side; ++i) {
    for (size_t j = 0; j < side; ++j) {
      const double x = min_x + (max_x - min_x) * (i + 0.5) / side;
      const double y = min_y + (max_y - min_y) * (j + 0.5) / side;
      VertexId best = center;
      double best_d = std::numeric_limits<double>::infinity();
      for (const auto& v : graph.vertices()) {
        const double d = std::hypot(v.x - x, v.y - y);
        if (component[v.id] && d < best_d) {
          best_d = d;
          best = v.id;
        }
      }
      hubs.push_back(best);
    }
  }
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    if (component[v]) connected.push_back(v);
  }
}

std::vector<Demand> SampleDemand(const World& world, size_t n, uint64_t seed) {
  Rng rng(seed);
  const Graph& g = world.graph;
  const auto& shape = world.shape;
  auto random_vertex = [&]() {
    return world.connected[static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(world.connected.size()) - 1))];
  };
  auto random_hub = [&]() {
    return world.hubs[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(world.hubs.size()) - 1))];
  };
  std::vector<Demand> demand;
  demand.reserve(n);
  while (demand.size() < n) {
    Demand d;
    d.depart = world.simulator->SampleDeparture(&rng);
    const double u = rng.Uniform();
    d.background = false;
    if (u < shape.hub_trip_share) {
      d.from = random_hub();
      d.to = random_hub();
    } else if (u < shape.hub_trip_share + shape.commute_share) {
      const VertexId hub = random_hub();
      const VertexId other = random_vertex();
      const bool inbound = d.depart < 13.0 * 3600.0;
      d.from = inbound ? other : hub;
      d.to = inbound ? hub : other;
    } else {
      d.from = random_vertex();
      d.to = random_vertex();
      d.background = true;
    }
    const auto& a = g.vertex(d.from);
    const auto& b = g.vertex(d.to);
    if (d.from == d.to ||
        std::hypot(a.x - b.x, a.y - b.y) < shape.min_trip_crow_m) {
      continue;
    }
    demand.push_back(d);
  }
  return demand;
}

Path DriverRoute(const World& world, const Demand& demand, bool jittered,
                 uint64_t jitter_seed) {
  const double jitter = world.shape.route_jitter;
  auto weight = [jittered, jitter, jitter_seed](const Edge& e) {
    if (!jittered) return e.FreeFlowSeconds();
    uint64_t h = (static_cast<uint64_t>(e.id) + 1) * 0x9e3779b97f4a7c15ull ^
                 jitter_seed;
    h ^= h >> 31;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 29;
    const double u = static_cast<double>(h % 100000) / 100000.0;
    return e.FreeFlowSeconds() * std::exp((2.0 * u - 1.0) * jitter);
  };
  const ShortestPathTree tree =
      Dijkstra(world.graph, demand.from, weight, demand.to);
  return TreePath(world.graph, tree, demand.to);
}

std::vector<pcde::traj::MatchedTrajectory> SimulateTrips(
    const World& world, const std::vector<Demand>& demand, uint64_t seed) {
  Rng rng(seed);
  std::vector<pcde::traj::MatchedTrajectory> trips;
  trips.reserve(demand.size());
  for (const Demand& d : demand) {
    const uint64_t jitter_seed = rng.engine()();
    const Path route = DriverRoute(world, d, d.background, jitter_seed);
    if (route.empty()) continue;
    pcde::traj::MatchedTrajectory trip =
        world.simulator->GenerateOnPath(route, d.depart, &rng).truth;
    trip.id = trips.size();
    trips.push_back(std::move(trip));
  }
  return trips;
}

std::vector<double> SampleTravelTimes(const World& world, const Path& path,
                                      double depart, size_t m, Rng* rng) {
  std::vector<double> samples;
  samples.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    samples.push_back(
        world.simulator->GenerateOnPath(path, depart, rng).truth.TotalSeconds());
  }
  return samples;
}

double SampleQuantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::min(samples.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double ShareWithin(const std::vector<double>& samples, double budget) {
  size_t within = 0;
  for (double s : samples) within += s <= budget ? 1 : 0;
  return static_cast<double>(within) / static_cast<double>(samples.size());
}

std::vector<Path> ObservedBiasedPaths(const World& world,
                                      const std::vector<size_t>& edge_traversals,
                                      size_t n, size_t min_edges,
                                      size_t max_edges, uint64_t seed) {
  Rng rng(seed);
  const Graph& g = world.graph;
  std::vector<double> start_weights(g.NumEdges());
  for (size_t e = 0; e < g.NumEdges(); ++e) {
    start_weights[e] = 1.0 + static_cast<double>(edge_traversals[e]);
  }
  std::set<std::vector<EdgeId>> seen;
  std::vector<Path> paths;
  std::vector<EdgeId> edges;
  std::vector<uint8_t> visited(g.NumVertices(), 0);
  std::vector<EdgeId> options;
  std::vector<double> weights;
  while (paths.size() < n) {
    const size_t target = static_cast<size_t>(rng.UniformInt(
        static_cast<int64_t>(min_edges), static_cast<int64_t>(max_edges)));
    edges.clear();
    std::fill(visited.begin(), visited.end(), 0);
    EdgeId e = static_cast<EdgeId>(rng.Categorical(start_weights));
    visited[g.edge(e).from] = 1;
    while (true) {
      edges.push_back(e);
      visited[g.edge(e).to] = 1;
      if (edges.size() == target) break;
      options.clear();
      weights.clear();
      for (EdgeId next : g.OutEdges(g.edge(e).to)) {
        if (visited[g.edge(next).to]) continue;
        options.push_back(next);
        weights.push_back(1.0 + static_cast<double>(edge_traversals[next]));
      }
      if (options.empty()) break;
      e = options[rng.Categorical(weights)];
    }
    if (edges.size() == target && seen.insert(edges).second) {
      paths.emplace_back(edges);
    }
  }
  return paths;
}

}  // namespace perfbench
