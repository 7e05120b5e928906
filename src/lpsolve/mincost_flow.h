// Min-cost max-flow with real-valued capacities and costs.
//
// Successive shortest augmenting paths with Johnson potentials (Dijkstra per
// augmentation).  Costs must be nonnegative on original edges; capacities and
// flow amounts are doubles with epsilon hygiene (residuals below kFlowEps are
// treated as saturated).  This is the exact solver behind the discretized
// flow-time LP of Section 3.1 -- a pure transportation problem, for which SSP
// terminates after at most O(E) saturations per phase in practice.
//
// Layout: add_edge() only appends (tail, head, cap, cost) to one flat edge
// list.  solve() lays the edges out once as CSR residual arcs -- for every
// edge, in add_edge order, a forward arc at the tail and a reverse arc at the
// head -- so each node's arcs, and hence Dijkstra's tie-breaks, follow the
// order the edges were added in.  The arcs are stored as parallel arrays
// (cap, cost, head, rev), and each node's arcs are cut into maximal runs of
// consecutive heads; simd::for_each_improving_arc tests a whole run against
// contiguous potentials and labels, with the scalar relaxation test's exact
// operations, and relaxes the hits in arc order.  Each Dijkstra stops as
// soon as it pops the sink: the potential update caps every distance at
// dist[t], so nodes it never settled get exactly the value a full Dijkstra
// would give them.
// Dijkstra's queue is an indexed 4-ary heap ordered by (dist[v], v), with
// one entry per reached node and decrease-key; it pops the same nodes in the
// same order as a lazy heap of (dist, node) pairs (see solve()).  solve()
// counts "mcmf.augmentations", "mcmf.settled" and "mcmf.arc_scans" (arcs
// tested).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tempofair::lpsolve {

inline constexpr double kFlowEps = 1e-9;

class MinCostFlow {
 public:
  /// `num_edges` sizes the edge list up front (a hint, not a limit).
  explicit MinCostFlow(std::size_t num_nodes, std::size_t num_edges = 0);

  /// Adds a directed edge u -> v; returns its handle for flow queries.
  /// Requires cap >= 0 and cost >= 0 (SSP with potentials needs nonnegative
  /// reduced costs; our LPs have nonnegative costs natively).  Throws
  /// std::logic_error after solve().
  std::size_t add_edge(std::size_t u, std::size_t v, double cap, double cost);

  struct Result {
    double flow = 0.0;
    double cost = 0.0;
  };

  /// Sends up to `max_flow` units from s to t along successive shortest
  /// paths; returns achieved flow and its total cost.  One-shot: a second
  /// call throws std::logic_error.
  Result solve(std::size_t s, std::size_t t, double max_flow);

  /// Flow on edge `handle` (0 before solve()).
  [[nodiscard]] double flow_on(std::size_t handle) const;

  /// Johnson potentials after solve(): the sum over augmentations of the
  /// capped distances min(dist[v], dist[t]) in the residual network, so a
  /// node the early-exit Dijkstra never settled gains dist[t].  The cap keeps
  /// every residual arc's reduced cost nonnegative (up to the solver's cost
  /// tolerance), which makes these (approximate) optimal duals of the
  /// underlying transportation LP; the flow-time certificate pass repairs
  /// them into an exactly-feasible dual.
  [[nodiscard]] const std::vector<double>& potentials() const noexcept {
    return potential_;
  }

  [[nodiscard]] std::size_t num_nodes() const noexcept { return num_nodes_; }

 private:
  // 32-bit node and arc indices keep edges at 24 bytes and arcs at 24 bytes
  // across solve()'s four arc arrays.
  using Index = std::uint32_t;

  struct Edge {
    Index tail;
    Index head;
    double cap;
    double cost;
  };

  std::size_t num_nodes_;
  std::vector<Edge> edges_;        // in add_edge order; handle = index
  std::vector<double> flow_;       // per handle, filled by solve()
  std::vector<double> potential_;  // after solve()
  double max_cost_ = 0.0;
  bool solved_ = false;
};

}  // namespace tempofair::lpsolve
