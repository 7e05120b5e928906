#include "lpsolve/mincost_flow.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/simd.h"
#include "obs/obs.h"

namespace tempofair::lpsolve {

MinCostFlow::MinCostFlow(std::size_t num_nodes, std::size_t num_edges)
    : num_nodes_(num_nodes) {
  // Dijkstra's heap reserves the two largest indices as markers.
  if (num_nodes >= std::numeric_limits<Index>::max() - 1) {
    throw std::invalid_argument("MinCostFlow: too many nodes");
  }
  edges_.reserve(num_edges);
}

std::size_t MinCostFlow::add_edge(std::size_t u, std::size_t v, double cap,
                                  double cost) {
  if (solved_) {
    throw std::logic_error("MinCostFlow::add_edge: graph already solved");
  }
  if (u >= num_nodes_ || v >= num_nodes_) {
    throw std::invalid_argument("MinCostFlow::add_edge: node out of range");
  }
  if (cap < 0.0 || cost < 0.0 || !std::isfinite(cap) || !std::isfinite(cost)) {
    throw std::invalid_argument(
        "MinCostFlow::add_edge: capacity and cost must be finite and >= 0");
  }
  if (edges_.size() >= std::numeric_limits<Index>::max() / 2) {
    throw std::length_error("MinCostFlow::add_edge: too many edges");
  }
  edges_.push_back(
      Edge{static_cast<Index>(u), static_cast<Index>(v), cap, cost});
  max_cost_ = std::max(max_cost_, cost);
  return edges_.size() - 1;
}

MinCostFlow::Result MinCostFlow::solve(std::size_t s, std::size_t t,
                                       double max_flow) {
  if (s >= num_nodes_ || t >= num_nodes_ || s == t) {
    throw std::invalid_argument("MinCostFlow::solve: bad source/sink");
  }
  if (solved_) {
    throw std::logic_error("MinCostFlow::solve: already solved");
  }
  solved_ = true;
  const obs::ScopedTimer timer("lpsolve.mcmf");
  const std::size_t n = num_nodes_;
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // CSR residual arcs, stored as four parallel arrays: node v's arcs are
  // [first[v], first[v + 1]), arc a runs to head[a] with residual capacity
  // cap[a] and cost cost[a], and rev[a] is its reverse arc.
  std::vector<std::size_t> first(n + 1, 0);
  for (const Edge& e : edges_) {
    ++first[e.tail + 1];
    ++first[e.head + 1];
  }
  for (std::size_t v = 0; v < n; ++v) first[v + 1] += first[v];
  const std::size_t num_arcs = first[n];
  std::vector<double> cap(num_arcs);
  std::vector<double> cost(num_arcs);
  std::vector<Index> head(num_arcs);
  std::vector<Index> rev(num_arcs);
  // Calls f(edge, forward arc, reverse arc) for every edge in handle order.
  const auto for_each_edge = [&](auto&& f) {
    std::vector<std::size_t> next(first.begin(), first.end() - 1);
    for (const Edge& e : edges_) {
      const std::size_t fwd = next[e.tail]++;
      f(e, fwd, next[e.head]++);
    }
  };
  for_each_edge([&](const Edge& e, std::size_t fwd, std::size_t bwd) {
    cap[fwd] = e.cap;
    cost[fwd] = e.cost;
    head[fwd] = e.head;
    rev[fwd] = static_cast<Index>(bwd);
    cap[bwd] = 0.0;
    cost[bwd] = -e.cost;
    head[bwd] = e.tail;
    rev[bwd] = static_cast<Index>(fwd);
  });
  // Runs: each node's arcs cut into maximal stretches whose heads are
  // consecutive node ids, so one run's pot and dist entries are contiguous.
  // Run r is [run_begin[r], run_begin[r + 1]); node v's runs are
  // [run_first[v], run_first[v + 1]).  In the flow-time graph nearly every
  // arc sits in a long run (source -> jobs, job -> slots, slot -> earlier
  // jobs' reverse arcs).
  const auto starts_run = [&](std::size_t v, std::size_t a) {
    return a == first[v] || head[a] != head[a - 1] + 1;
  };
  std::size_t num_runs = 0;
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t a = first[v]; a < first[v + 1]; ++a) {
      num_runs += starts_run(v, a) ? 1 : 0;
    }
  }
  std::vector<Index> run_first(n + 1);
  std::vector<Index> run_begin(num_runs + 1);
  std::size_t runs = 0;
  for (std::size_t v = 0; v < n; ++v) {
    run_first[v] = static_cast<Index>(runs);
    for (std::size_t a = first[v]; a < first[v + 1]; ++a) {
      if (starts_run(v, a)) run_begin[runs++] = static_cast<Index>(a);
    }
  }
  run_first[n] = static_cast<Index>(runs);
  run_begin[runs] = static_cast<Index>(num_arcs);

  // Tolerances must scale with the cost magnitude: with costs spanning many
  // orders of magnitude (the flow-time LP's k-th-power costs do), fixed
  // absolute epsilons let floating-point noise turn reduced costs negative,
  // which degrades Dijkstra into exponential re-expansion.
  const double cost_eps = std::max(kFlowEps, 1e-12 * max_cost_);

  potential_.assign(n, 0.0);  // costs are >= 0, so 0 is valid
  std::vector<double>& potential = potential_;
  std::vector<double> dist(n);
  std::vector<std::size_t> prev_arc(n);
  Result result;

  // Indexed 4-ary min-heap over nodes, ordered by (dist[v], v): one entry per
  // reached, unsettled node, updated in place by decrease-key.  It pops the
  // same nodes in the same order as a lazy heap of (dist, node) pairs would,
  // because (a) every label improvement lowers it by more than cost_eps, so
  // a lazy heap's stale copies never pass its staleness check and the live
  // copies are exactly (dist[v], v); and (b) reduced costs are clamped at 0
  // and pops never decrease, so a settled node cannot improve again.
  struct HeapEntry {
    double dist;
    Index node;
  };
  const auto before = [](const HeapEntry& a, const HeapEntry& b) {
    return a.dist < b.dist || (a.dist == b.dist && a.node < b.node);
  };
  constexpr Index kUnreached = std::numeric_limits<Index>::max();
  constexpr Index kSettled = kUnreached - 1;
  std::vector<HeapEntry> heap(n);  // heap[0 .. heap_size)
  std::vector<Index> heap_pos(n);  // index into heap, kUnreached or kSettled
  std::size_t heap_size = 0;
  const auto place = [&](std::size_t i, const HeapEntry& e) {
    heap[i] = e;
    heap_pos[e.node] = static_cast<Index>(i);
  };
  const auto sift_up = [&](std::size_t i, const HeapEntry e) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!before(e, heap[parent])) break;
      place(i, heap[parent]);
      i = parent;
    }
    place(i, e);
  };
  const auto pop_min = [&]() {
    const Index top = heap[0].node;
    heap_pos[top] = kSettled;
    const HeapEntry e = heap[--heap_size];
    std::size_t i = 0;
    for (;;) {
      const std::size_t child = 4 * i + 1;
      if (child >= heap_size) break;
      std::size_t best = child;
      const std::size_t last = std::min(child + 4, heap_size);
      for (std::size_t c = child + 1; c < last; ++c) {
        if (before(heap[c], heap[best])) best = c;
      }
      if (!before(heap[best], e)) break;
      place(i, heap[best]);
      i = best;
    }
    if (i < heap_size) place(i, e);
    return top;
  };

  const std::size_t max_augmentations = 100 * (num_arcs + n) + 1000;
  std::size_t augmentations = 0;
  std::size_t settled = 0;
  std::size_t arc_scans = 0;

  while (result.flow < max_flow - kFlowEps) {
    if (++augmentations > max_augmentations) {
      throw std::runtime_error(
          "MinCostFlow::solve: augmentation budget exhausted (numerically "
          "degenerate instance)");
    }
    // Dijkstra on reduced costs, stopped when the sink is popped: its
    // distance and path are final then, and every node still unsettled has
    // dist >= dist[t], which the capped update below turns into dist[t].
    std::fill(dist.begin(), dist.end(), kInf);
    std::fill(heap_pos.begin(), heap_pos.end(), kUnreached);
    dist[s] = 0.0;
    heap_size = 1;
    place(0, HeapEntry{0.0, static_cast<Index>(s)});
    while (heap_size > 0) {
      const std::size_t u = pop_min();
      if (u == t) break;
      ++settled;
      const double d = dist[u];
      arc_scans += first[u + 1] - first[u];
      // Relax every open arc whose (clamped) reduced cost improves its
      // head's label by more than cost_eps.  Reduced costs are clamped at 0:
      // tiny negative values are float noise, and the clamp preserves
      // Dijkstra's monotonicity invariant.
      for (std::size_t r = run_first[u]; r < run_first[u + 1]; ++r) {
        const std::size_t a0 = run_begin[r];
        const Index h0 = head[a0];
        simd::for_each_improving_arc(
            cap.data() + a0, cost.data() + a0, potential.data() + h0,
            dist.data() + h0, run_begin[r + 1] - a0, potential[u], d, cost_eps,
            kFlowEps, [&](std::size_t i, double nd) {
              const Index v = h0 + static_cast<Index>(i);
              Index at = heap_pos[v];
              if (at == kSettled) {
                throw std::logic_error(
                    "MinCostFlow::solve: a settled node's distance improved");
              }
              if (at == kUnreached) at = static_cast<Index>(heap_size++);
              dist[v] = nd;
              prev_arc[v] = a0 + i;
              sift_up(at, HeapEntry{nd, v});
            });
      }
    }
    if (dist[t] == kInf) break;  // no augmenting path left

    // Cap every update at dist[t]: unlike the naive "reachable-only" update,
    // this keeps reduced costs nonnegative on *every* residual arc (also ones
    // touching nodes this Dijkstra never reached), so the final potentials
    // are a valid -- and tight -- dual solution, not just a Dijkstra speedup.
    for (std::size_t v = 0; v < n; ++v) {
      potential[v] += std::min(dist[v], dist[t]);
    }

    // Bottleneck along the path (an arc's tail is its reverse arc's head).
    double push = max_flow - result.flow;
    for (std::size_t v = t; v != s; v = head[rev[prev_arc[v]]]) {
      push = std::min(push, cap[prev_arc[v]]);
    }
    if (push <= kFlowEps) break;  // numerically exhausted

    for (std::size_t v = t; v != s;) {
      const std::size_t a = prev_arc[v];
      cap[a] -= push;
      cap[rev[a]] += push;
      result.cost += push * cost[a];
      v = head[rev[a]];
    }
    result.flow += push;
  }

  flow_.reserve(edges_.size());
  for_each_edge([&](const Edge& e, std::size_t fwd, std::size_t) {
    flow_.push_back(e.cap - cap[fwd]);
  });
  obs::add("mcmf.augmentations", augmentations);
  obs::add("mcmf.settled", settled);
  obs::add("mcmf.arc_scans", arc_scans);
  return result;
}

double MinCostFlow::flow_on(std::size_t handle) const {
  if (handle >= edges_.size()) {
    throw std::invalid_argument("MinCostFlow::flow_on: bad handle");
  }
  return flow_.empty() ? 0.0 : flow_[handle];  // empty until solve() ends
}

}  // namespace tempofair::lpsolve
