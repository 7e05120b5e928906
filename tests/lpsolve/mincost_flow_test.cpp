#include "lpsolve/mincost_flow.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "obs/obs.h"
#include "workload/rng.h"

namespace tempofair::lpsolve {
namespace {

TEST(MinCostFlow, SingleEdge) {
  MinCostFlow g(2);
  (void)g.add_edge(0, 1, 5.0, 2.0);
  const auto r = g.solve(0, 1, 5.0);
  EXPECT_DOUBLE_EQ(r.flow, 5.0);
  EXPECT_DOUBLE_EQ(r.cost, 10.0);
}

TEST(MinCostFlow, PrefersCheaperPath) {
  // 0 -> 1 -> 3 (cost 1+1) and 0 -> 2 -> 3 (cost 5+5), caps 1 each.
  MinCostFlow g(4);
  (void)g.add_edge(0, 1, 1.0, 1.0);
  (void)g.add_edge(1, 3, 1.0, 1.0);
  (void)g.add_edge(0, 2, 1.0, 5.0);
  (void)g.add_edge(2, 3, 1.0, 5.0);
  const auto r = g.solve(0, 3, 2.0);
  EXPECT_DOUBLE_EQ(r.flow, 2.0);
  EXPECT_DOUBLE_EQ(r.cost, 1.0 * 2 + 5.0 * 2);
}

TEST(MinCostFlow, StopsOnlyWhenSinkIsPopped) {
  // Dijkstra first reaches 3 through 0->1->3 (cost 10), before it settles 2;
  // only stopping when the sink is popped, not when it is first relaxed,
  // finds 0->2->3 (cost 1).
  MinCostFlow g(4);
  (void)g.add_edge(0, 1, 1.0, 0.0);
  (void)g.add_edge(0, 2, 1.0, 1.0);
  const auto costly = g.add_edge(1, 3, 1.0, 10.0);
  const auto cheap = g.add_edge(2, 3, 1.0, 0.0);
  const auto r = g.solve(0, 3, 1.0);
  EXPECT_DOUBLE_EQ(r.flow, 1.0);
  EXPECT_DOUBLE_EQ(r.cost, 1.0);
  EXPECT_DOUBLE_EQ(g.flow_on(cheap), 1.0);
  EXPECT_DOUBLE_EQ(g.flow_on(costly), 0.0);
}

TEST(MinCostFlow, RespectsMaxFlowCap) {
  MinCostFlow g(2);
  (void)g.add_edge(0, 1, 10.0, 1.0);
  const auto r = g.solve(0, 1, 3.0);
  EXPECT_DOUBLE_EQ(r.flow, 3.0);
  EXPECT_DOUBLE_EQ(r.cost, 3.0);
}

TEST(MinCostFlow, StopsAtCapacityLimit) {
  MinCostFlow g(3);
  (void)g.add_edge(0, 1, 2.0, 1.0);
  (void)g.add_edge(1, 2, 1.5, 1.0);
  const auto r = g.solve(0, 2, 100.0);
  EXPECT_DOUBLE_EQ(r.flow, 1.5);
}

TEST(MinCostFlow, UsesResidualEdgesForOptimality) {
  // Classic case where the greedy path must be partially undone.
  //   0->1 (cap 1, cost 1), 0->2 (cap 1, cost 2),
  //   1->2 (cap 1, cost 0), 1->3 (cap 1, cost 2), 2->3 (cap 1, cost 1).
  MinCostFlow g(4);
  (void)g.add_edge(0, 1, 1.0, 1.0);
  (void)g.add_edge(0, 2, 1.0, 2.0);
  (void)g.add_edge(1, 2, 1.0, 0.0);
  (void)g.add_edge(1, 3, 1.0, 2.0);
  (void)g.add_edge(2, 3, 1.0, 1.0);
  const auto r = g.solve(0, 3, 2.0);
  EXPECT_DOUBLE_EQ(r.flow, 2.0);
  // Two units must leave 0 on both of its arcs (cost 1 + 2) and enter 3 on
  // both of its arcs (cost 2 + 1), so 1->2 ends up empty and the optimum is
  // 6.  SSP first routes 0->1->2->3 (cost 2), then has to undo 1->2 through
  // the residual path 0->2->1->3 (cost 2 - 0 + 2 = 4).
  EXPECT_DOUBLE_EQ(r.cost, 6.0);
}

TEST(MinCostFlow, FractionalCapacities) {
  MinCostFlow g(3);
  (void)g.add_edge(0, 1, 0.3, 1.0);
  (void)g.add_edge(0, 1, 0.7, 3.0);
  (void)g.add_edge(1, 2, 1.0, 0.0);
  const auto r = g.solve(0, 2, 1.0);
  EXPECT_NEAR(r.flow, 1.0, 1e-9);
  EXPECT_NEAR(r.cost, 0.3 * 1.0 + 0.7 * 3.0, 1e-9);
}

TEST(MinCostFlow, FlowOnReportsPerEdgeFlow) {
  MinCostFlow g(3);
  const auto cheap = g.add_edge(0, 1, 2.0, 1.0);
  const auto expensive = g.add_edge(0, 1, 2.0, 10.0);
  (void)g.add_edge(1, 2, 3.0, 0.0);
  (void)g.solve(0, 2, 3.0);
  EXPECT_NEAR(g.flow_on(cheap), 2.0, 1e-9);
  EXPECT_NEAR(g.flow_on(expensive), 1.0, 1e-9);
}

TEST(MinCostFlow, TransportationProblem) {
  // 2 supplies (3, 2), 2 demands (2, 3); cost matrix [[1, 4], [2, 1]].
  // Optimal: s0->d0: 2, s0->d1: 1, s1->d1: 2 => 2*1 + 1*4 + 2*1 = 8?
  // Or s0->d0:2, s1->d1:2, s0->d1:1 -> 8; s1->d0? cost2: s0->d1:3(12)... 8.
  MinCostFlow g(6);  // 0=src, 1,2=supply, 3,4=demand, 5=sink
  (void)g.add_edge(0, 1, 3.0, 0.0);
  (void)g.add_edge(0, 2, 2.0, 0.0);
  (void)g.add_edge(1, 3, 10.0, 1.0);
  (void)g.add_edge(1, 4, 10.0, 4.0);
  (void)g.add_edge(2, 3, 10.0, 2.0);
  (void)g.add_edge(2, 4, 10.0, 1.0);
  (void)g.add_edge(3, 5, 2.0, 0.0);
  (void)g.add_edge(4, 5, 3.0, 0.0);
  const auto r = g.solve(0, 5, 5.0);
  EXPECT_DOUBLE_EQ(r.flow, 5.0);
  EXPECT_DOUBLE_EQ(r.cost, 2.0 * 1.0 + 1.0 * 4.0 + 2.0 * 1.0);
}

TEST(MinCostFlow, RejectsInvalidInput) {
  MinCostFlow g(2);
  EXPECT_THROW((void)g.add_edge(0, 5, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)g.add_edge(0, 1, -1.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)g.add_edge(0, 1, 1.0, -1.0), std::invalid_argument);
  EXPECT_THROW((void)g.solve(0, 0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)g.flow_on(99), std::invalid_argument);
}

TEST(MinCostFlow, DisconnectedGraphDeliversPartialFlow) {
  MinCostFlow g(4);
  (void)g.add_edge(0, 1, 5.0, 1.0);
  // node 2,3 unreachable
  const auto r = g.solve(0, 3, 5.0);
  EXPECT_DOUBLE_EQ(r.flow, 0.0);
}

TEST(MinCostFlow, SolveIsOneShot) {
  MinCostFlow g(2);
  const auto e = g.add_edge(0, 1, 5.0, 2.0);
  EXPECT_DOUBLE_EQ(g.flow_on(e), 0.0);
  (void)g.solve(0, 1, 3.0);
  EXPECT_THROW((void)g.solve(0, 1, 2.0), std::logic_error);
  EXPECT_THROW((void)g.add_edge(0, 1, 1.0, 1.0), std::logic_error);
  EXPECT_DOUBLE_EQ(g.flow_on(e), 3.0);  // the refused calls changed nothing
}

TEST(MinCostFlow, PotentialsPriceEveryResidualArc) {
  // Random transportation graphs shaped like the flow-time LP (source ->
  // supplies -> a suffix of demands -> sink, costs spanning several orders
  // of magnitude).  After solve(), every residual arc must have a reduced
  // cost >= -cost_eps under the final potentials -- including arcs at nodes
  // the early-exit Dijkstra left unsettled, which only the dist[t] cap
  // prices.
  workload::Rng rng(2015);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t supplies = 3 + static_cast<std::size_t>(trial % 5);
    const std::size_t demands = 10 + static_cast<std::size_t>(trial * 3);
    const std::size_t src = 0;
    const std::size_t sink = 1 + supplies + demands;
    MinCostFlow g(sink + 1);
    struct Spec {
      std::size_t u, v;
      double cap, cost;
      std::size_t handle;
    };
    std::vector<Spec> specs;
    const auto add = [&](std::size_t u, std::size_t v, double cap, double cost) {
      specs.push_back({u, v, cap, cost, g.add_edge(u, v, cap, cost)});
    };
    double supply = 0.0;
    for (std::size_t d = 0; d < demands; ++d) {
      add(1 + supplies + d, sink, rng.uniform(0.5, 2.0), 0.0);
    }
    for (std::size_t i = 0; i < supplies; ++i) {
      const double p = rng.uniform(0.5, 3.0);
      supply += p;
      add(src, 1 + i, p, 0.0);
      const std::size_t from = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(demands / 2)));
      for (std::size_t d = from; d < demands; ++d) {
        const double t = static_cast<double>(d - from) * rng.uniform(0.5, 1.5);
        add(1 + i, 1 + supplies + d, 100.0, (t * t * t + p * p * p) / p);
      }
    }

    obs::Sink counters;
    MinCostFlow::Result r;
    {
      const obs::ScopedSink scope(&counters);
      r = g.solve(src, sink, supply);
    }
    // Early exit really left nodes unsettled in this graph.
    EXPECT_LT(counters.value("mcmf.settled"),
              counters.value("mcmf.augmentations") * (sink - 1))
        << "trial " << trial;

    double max_cost = 0.0;
    for (const Spec& e : specs) max_cost = std::max(max_cost, e.cost);
    const double cost_eps = std::max(kFlowEps, 1e-12 * max_cost);
    const std::vector<double>& phi = g.potentials();
    ASSERT_EQ(phi.size(), sink + 1);
    double total_cost = 0.0;
    for (const Spec& e : specs) {
      const double flow = g.flow_on(e.handle);
      total_cost += flow * e.cost;
      const double reduced = e.cost + phi[e.u] - phi[e.v];
      if (e.cap - flow > kFlowEps) {
        EXPECT_GE(reduced, -cost_eps) << "trial " << trial << " forward "
                                      << e.u << "->" << e.v;
      }
      if (flow > kFlowEps) {
        EXPECT_GE(-reduced, -cost_eps) << "trial " << trial << " reverse "
                                       << e.v << "->" << e.u;
      }
    }
    EXPECT_NEAR(r.flow, supply, 1e-9 * supply) << "trial " << trial;
    EXPECT_NEAR(total_cost, r.cost, 1e-9 * (1.0 + r.cost)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace tempofair::lpsolve
