#include "lpsolve/mincost_flow.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
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

// --- Reference solver --------------------------------------------------------
//
// MinCostFlow::solve as it was with a lazy binary heap of (dist, node) pairs
// (stale entries skipped on pop), on the same CSR layout.  The indexed heap
// must reproduce its flows, potentials and counters bit for bit.
namespace reference {

struct Edge {
  std::size_t tail, head;
  double cap, cost;
};

struct Solved {
  MinCostFlow::Result result;
  std::vector<double> flow;
  std::vector<double> potential;
  std::uint64_t augmentations = 0;
  std::uint64_t settled = 0;
};

Solved solve(std::size_t n, const std::vector<Edge>& edges, std::size_t s,
             std::size_t t, double max_flow) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Arc {
    double cap;
    double cost;
    std::uint32_t to;
    std::uint32_t rev;
  };
  std::vector<std::size_t> first(n + 1, 0);
  for (const Edge& e : edges) {
    ++first[e.tail + 1];
    ++first[e.head + 1];
  }
  for (std::size_t v = 0; v < n; ++v) first[v + 1] += first[v];
  std::vector<Arc> arcs(first[n]);
  std::vector<std::size_t> fwd_arc;
  {
    std::vector<std::size_t> next(first.begin(), first.end() - 1);
    for (const Edge& e : edges) {
      const std::size_t fwd = next[e.tail]++;
      const std::size_t bwd = next[e.head]++;
      arcs[fwd] = Arc{e.cap, e.cost, static_cast<std::uint32_t>(e.head),
                      static_cast<std::uint32_t>(bwd)};
      arcs[bwd] = Arc{0.0, -e.cost, static_cast<std::uint32_t>(e.tail),
                      static_cast<std::uint32_t>(fwd)};
      fwd_arc.push_back(fwd);
    }
  }
  double max_cost = 0.0;
  for (const Edge& e : edges) max_cost = std::max(max_cost, e.cost);
  const double cost_eps = std::max(kFlowEps, 1e-12 * max_cost);

  Solved out;
  out.potential.assign(n, 0.0);
  std::vector<double>& potential = out.potential;
  std::vector<double> dist(n);
  std::vector<std::size_t> prev_arc(n);
  MinCostFlow::Result& result = out.result;
  using QItem = std::pair<double, std::size_t>;
  const std::greater<> heap_order;
  std::vector<QItem> heap;

  while (result.flow < max_flow - kFlowEps) {
    ++out.augmentations;
    std::fill(dist.begin(), dist.end(), kInf);
    dist[s] = 0.0;
    heap.clear();
    heap.emplace_back(0.0, s);
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), heap_order);
      const auto [d, u] = heap.back();
      heap.pop_back();
      if (d > dist[u] + cost_eps) continue;
      if (u == t) break;
      ++out.settled;
      for (std::size_t ai = first[u]; ai < first[u + 1]; ++ai) {
        const Arc& a = arcs[ai];
        if (a.cap <= kFlowEps) continue;
        const double reduced =
            std::max(a.cost + potential[u] - potential[a.to], 0.0);
        const double nd = d + reduced;
        if (nd < dist[a.to] - cost_eps) {
          dist[a.to] = nd;
          prev_arc[a.to] = ai;
          heap.emplace_back(nd, a.to);
          std::push_heap(heap.begin(), heap.end(), heap_order);
        }
      }
    }
    if (dist[t] == kInf) break;
    for (std::size_t v = 0; v < n; ++v) {
      potential[v] += std::min(dist[v], dist[t]);
    }
    double push = max_flow - result.flow;
    for (std::size_t v = t; v != s; v = arcs[arcs[prev_arc[v]].rev].to) {
      push = std::min(push, arcs[prev_arc[v]].cap);
    }
    if (push <= kFlowEps) break;
    for (std::size_t v = t; v != s;) {
      Arc& a = arcs[prev_arc[v]];
      a.cap -= push;
      arcs[a.rev].cap += push;
      result.cost += push * a.cost;
      v = arcs[a.rev].to;
    }
    result.flow += push;
  }
  for (std::size_t i = 0; i < edges.size(); ++i) {
    out.flow.push_back(edges[i].cap - arcs[fwd_arc[i]].cap);
  }
  return out;
}

}  // namespace reference

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Solves `edges` with MinCostFlow and the reference; expects equal bits.
void expect_matches_reference(std::size_t n,
                              const std::vector<reference::Edge>& edges,
                              std::size_t s, std::size_t t, double max_flow,
                              const std::string& what) {
  MinCostFlow g(n);
  for (const reference::Edge& e : edges) {
    (void)g.add_edge(e.tail, e.head, e.cap, e.cost);
  }
  obs::Sink counters;
  MinCostFlow::Result r;
  {
    const obs::ScopedSink scope(&counters);
    r = g.solve(s, t, max_flow);
  }
  const reference::Solved want = reference::solve(n, edges, s, t, max_flow);
  EXPECT_EQ(bits(r.flow), bits(want.result.flow)) << what;
  EXPECT_EQ(bits(r.cost), bits(want.result.cost)) << what;
  EXPECT_EQ(counters.value("mcmf.augmentations"), want.augmentations) << what;
  EXPECT_EQ(counters.value("mcmf.settled"), want.settled) << what;
  std::size_t flow_diffs = 0;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    flow_diffs += bits(g.flow_on(i)) != bits(want.flow[i]);
  }
  EXPECT_EQ(flow_diffs, 0u) << what;
  ASSERT_EQ(g.potentials().size(), n) << what;
  std::size_t potential_diffs = 0;
  for (std::size_t v = 0; v < n; ++v) {
    potential_diffs += bits(g.potentials()[v]) != bits(want.potential[v]);
  }
  EXPECT_EQ(potential_diffs, 0u) << what;
}

TEST(MinCostFlow, MatchesLazyHeapReference) {
  workload::Rng rng(1729);
  // Random transportation graphs with parallel edges and costs drawn from a
  // few integers, so equal distances -- and the (dist, node) tie-break --
  // are common.
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t supplies = 2 + static_cast<std::size_t>(trial % 7);
    const std::size_t demands = 3 + static_cast<std::size_t>(trial % 11);
    const std::size_t sink = 1 + supplies + demands;
    std::vector<reference::Edge> edges;
    double supply = 0.0;
    for (std::size_t i = 0; i < supplies; ++i) {
      const double p = static_cast<double>(rng.uniform_int(1, 4));
      supply += p;
      edges.push_back({0, 1 + i, p, 0.0});
    }
    for (std::size_t i = 0; i < supplies; ++i) {
      for (std::size_t d = 0; d < demands; ++d) {
        const int copies = static_cast<int>(rng.uniform_int(0, 2));
        for (int c = 0; c < copies; ++c) {
          edges.push_back({1 + i, 1 + supplies + d,
                           static_cast<double>(rng.uniform_int(1, 3)),
                           static_cast<double>(rng.uniform_int(0, 3))});
        }
      }
    }
    for (std::size_t d = 0; d < demands; ++d) {
      edges.push_back({1 + supplies + d, sink,
                       static_cast<double>(rng.uniform_int(1, 3)), 0.0});
    }
    expect_matches_reference(sink + 1, edges, 0, sink, supply,
                             "random trial " + std::to_string(trial));
  }
  // Graphs built to cut MinCostFlow's runs of consecutive heads in every
  // way: each supply's arcs go to demands in ascending or descending order,
  // with runs of 1-9 heads, a repeated head (a parallel edge) or a skipped
  // one, and capacities small enough that arcs saturate in the middle of a
  // run.
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t supplies = 2 + static_cast<std::size_t>(trial % 5);
    const std::size_t demands = 12;
    const std::size_t demand0 = 1 + supplies;
    const std::size_t sink = demand0 + demands;
    std::vector<reference::Edge> edges;
    double supply = 0.0;
    for (std::size_t i = 0; i < supplies; ++i) {
      const double p = static_cast<double>(rng.uniform_int(2, 6));
      supply += p;
      edges.push_back({0, 1 + i, p, 0.0});
    }
    for (std::size_t i = 0; i < supplies; ++i) {
      const bool descending = (trial + static_cast<int>(i)) % 3 == 0;
      const auto len = static_cast<std::size_t>(rng.uniform_int(1, 9));
      auto d = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(demands - len)));
      if (descending) d += len - 1;
      for (std::size_t a = 0; a < len; ++a) {
        edges.push_back({1 + i, demand0 + d,
                         static_cast<double>(rng.uniform_int(1, 2)),
                         static_cast<double>(rng.uniform_int(0, 3))});
        switch (rng.uniform_int(0, 5)) {
          case 0:  // parallel edge: the same head twice in a row
            edges.push_back({1 + i, demand0 + d, 1.0,
                             static_cast<double>(rng.uniform_int(0, 3))});
            break;
          case 1:  // gap: skip a head
            if (descending ? d >= 2 : d + 2 < demands) {
              d = descending ? d - 1 : d + 1;
            }
            break;
          default:
            break;
        }
        if (descending ? d == 0 : d + 1 == demands) break;
        d = descending ? d - 1 : d + 1;
      }
    }
    for (std::size_t d = 0; d < demands; ++d) {
      edges.push_back({demand0 + d, sink,
                       static_cast<double>(rng.uniform_int(1, 4)), 0.0});
    }
    expect_matches_reference(sink + 1, edges, 0, sink, supply,
                             "run trial " + std::to_string(trial));
  }
  // The flow-time LP's graph (source -> jobs -> every slot from the release
  // on -> sink, slot capacity m * width, costs ((t - r)^k + p^k) / p) on
  // Poisson instances at m = 1, 2, 4.
  for (const int m : {1, 2, 4}) {
    for (const double k : {1.0, 2.0, 3.0}) {
      const std::size_t jobs = 40;
      const double width = 0.5;
      std::vector<std::pair<double, double>> rp;  // (release, size)
      double release = 0.0;
      double work = 0.0;
      for (std::size_t j = 0; j < jobs; ++j) {
        release += rng.uniform(0.0, 1.6 / m);
        rp.emplace_back(release, rng.uniform(0.25, 2.0));
        work += rp.back().second;
      }
      const std::size_t slots =
          static_cast<std::size_t>((release + work / m) / width) + 2;
      const std::size_t slot0 = 1 + jobs;
      const std::size_t sink = slot0 + slots;
      std::vector<reference::Edge> edges;
      for (std::size_t s = 0; s < slots; ++s) {
        edges.push_back({slot0 + s, sink, width * m, 0.0});
      }
      for (std::size_t j = 0; j < jobs; ++j) {
        const auto [r, p] = rp[j];
        edges.push_back({0, 1 + j, p, 0.0});
        for (auto s = static_cast<std::size_t>(r / width); s < slots; ++s) {
          const double wait = std::max(static_cast<double>(s) * width - r, 0.0);
          edges.push_back({1 + j, slot0 + s, work + 1.0,
                           (std::pow(wait, k) + std::pow(p, k)) / p});
        }
      }
      expect_matches_reference(sink + 1, edges, 0, sink, work,
                               "flow-time m=" + std::to_string(m) +
                                   " k=" + std::to_string(k));
    }
  }
}

}  // namespace
}  // namespace tempofair::lpsolve
