// Seeded input generation, assembled from the library's public generators
// (CityAConfig / MakeCity, TrafficModel, TrajectoryGenerator). The city
// and the traffic process are fixed; the run seed drives the demand, the
// simulated trips and every request stream through derived seeds. The
// program under test only ever sees the generated trips, paths and
// requests.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "roadnet/graph.h"
#include "roadnet/path.h"
#include "traj/generator.h"
#include "traj/traffic_model.h"
#include "traj/types.h"

namespace perfbench {

/// Fixed make-up of the synthetic world (README "Inputs").
struct WorldShape {
  size_t hubs_per_side = 2;     // hubs on a fixed 2 x 2 lattice
  double hub_trip_share = 0.6; // hub <-> hub trips (repeated full paths)
  double commute_share = 0.3;   // random vertex <-> hub
  double min_trip_crow_m = 900.0;
  double route_jitter = 0.3;    // background trips: jittered free-flow
};

/// The road network, its traffic process and the simulator over it.
/// Non-movable: the traffic model and simulator keep references.
struct World {
  World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  WorldShape shape;
  pcde::roadnet::Graph graph;
  std::unique_ptr<pcde::traj::TrafficModel> traffic;
  std::unique_ptr<pcde::traj::TrajectoryGenerator> simulator;
  std::vector<pcde::roadnet::VertexId> hubs;
  /// The strongly connected component every hub and demand vertex is
  /// drawn from, so every demand pair is routable.
  std::vector<pcde::roadnet::VertexId> connected;
};

/// One trip demand: origin, destination and departure (seconds since
/// midnight).
struct Demand {
  pcde::roadnet::VertexId from;
  pcde::roadnet::VertexId to;
  double depart;
  bool background;  // jittered driver route instead of the fastest one
};

/// Hub-heavy demand: hub <-> hub trips, commutes between a random vertex
/// and a hub (inbound before 13:00, outbound after), and background trips
/// between random vertices; departures from the simulator's rush-hour
/// mixture.
std::vector<Demand> SampleDemand(const World& world, size_t n, uint64_t seed);

/// The route a simulated driver takes: the free-flow shortest path for hub
/// and commute trips (repeated full paths), a jittered one for background
/// trips. Computed with the benchmark's own Dijkstra.
pcde::roadnet::Path DriverRoute(const World& world, const Demand& demand,
                                bool jittered, uint64_t jitter_seed);

/// Simulated, map-matched trips for the demand (the offline build input).
std::vector<pcde::traj::MatchedTrajectory> SimulateTrips(
    const World& world, const std::vector<Demand>& demand, uint64_t seed);

/// Ground-truth travel times: `m` simulator trips along `path` departing at
/// `depart`.
std::vector<double> SampleTravelTimes(const World& world,
                                      const pcde::roadnet::Path& path,
                                      double depart, size_t m,
                                      pcde::Rng* rng);

/// Empirical `q`-quantile (nearest rank) of samples.
double SampleQuantile(std::vector<double> samples, double q);

/// Share of samples <= budget.
double ShareWithin(const std::vector<double>& samples, double budget);

/// Unique simple paths of `min_edges`..`max_edges` edges, grown as random
/// walks that prefer edges with many observed traversals.
std::vector<pcde::roadnet::Path> ObservedBiasedPaths(
    const World& world, const std::vector<size_t>& edge_traversals, size_t n,
    size_t min_edges, size_t max_edges, uint64_t seed);

}  // namespace perfbench
