//! Min-cost flow via successive shortest paths with Johnson potentials.

use crate::graph::{FlowNetwork, NodeId};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

const EPS: f64 = 1e-9;

/// Result of [`min_cost_flow`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinCostOutcome {
    /// Flow value actually routed (may be less than requested if the network
    /// saturates first).
    pub flow: f64,
    /// Total cost of the routed flow.
    pub cost: f64,
}

#[derive(Debug, PartialEq)]
struct HeapItem {
    dist: f64,
    node: usize,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on dist.
        other.dist.partial_cmp(&self.dist).unwrap_or(Ordering::Equal)
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Routes up to `target` units of flow from `s` to `t` at minimum cost,
/// using successive shortest augmenting paths with potentials (so negative
/// *residual* costs arising from augmentation are handled; the input edge
/// costs themselves must be non-negative).
///
/// Pass `target = f64::INFINITY` for a min-cost *max*-flow.
///
/// # Panics
///
/// Panics if a node is out of range or an input edge has negative cost.
pub fn min_cost_flow(g: &mut FlowNetwork, s: NodeId, t: NodeId, target: f64) -> MinCostOutcome {
    assert!(s.0 < g.num_nodes() && t.0 < g.num_nodes(), "node out of range");
    assert!(
        g.edges.iter().step_by(2).all(|e| e.cost >= 0.0),
        "input edge costs must be non-negative"
    );
    let n = g.num_nodes();
    let mut flow = 0.0;
    let mut cost = 0.0;
    let mut potential = vec![0.0f64; n];

    while flow + EPS < target {
        // Dijkstra on reduced costs.
        let mut dist = vec![f64::INFINITY; n];
        let mut prev_edge: Vec<Option<usize>> = vec![None; n];
        dist[s.0] = 0.0;
        let mut heap = BinaryHeap::new();
        heap.push(HeapItem { dist: 0.0, node: s.0 });
        while let Some(HeapItem { dist: d, node: u }) = heap.pop() {
            if d > dist[u] + EPS {
                continue;
            }
            for &ei in &g.adj[u] {
                if g.res(ei) <= EPS {
                    continue;
                }
                let v = g.edges[ei].to;
                let rc = g.edges[ei].cost + potential[u] - potential[v];
                debug_assert!(rc > -1e-6, "reduced cost must be ~non-negative, got {rc}");
                let nd = d + rc.max(0.0);
                if nd + EPS < dist[v] {
                    dist[v] = nd;
                    prev_edge[v] = Some(ei);
                    heap.push(HeapItem { dist: nd, node: v });
                }
            }
        }
        if !dist[t.0].is_finite() {
            break; // t unreachable: saturated.
        }
        for u in 0..n {
            if dist[u].is_finite() {
                potential[u] += dist[u];
            }
        }
        // Bottleneck along the path.
        let mut bottleneck = target - flow;
        let mut v = t.0;
        while v != s.0 {
            // postcard-analyze: allow(PA102) — Bellman-Ford set prev_edge
            // for every node on the shortest path it just found.
            let ei = prev_edge[v].expect("path must reach s");
            bottleneck = bottleneck.min(g.res(ei));
            v = g.edges[ei ^ 1].to;
        }
        if bottleneck <= EPS {
            break;
        }
        // Apply.
        let mut v = t.0;
        while v != s.0 {
            // postcard-analyze: allow(PA102) — same path walk as above.
            let ei = prev_edge[v].expect("path must reach s");
            g.push(ei, bottleneck);
            cost += bottleneck * g.edges[ei].cost;
            v = g.edges[ei ^ 1].to;
        }
        flow += bottleneck;
    }
    MinCostOutcome { flow, cost }
}

/// Cycle-canceling min-cost flow: first route up to `target` units by BFS
/// augmenting paths that ignore costs (Edmonds–Karp), then repeatedly cancel
/// negative-cost residual cycles found with Bellman–Ford until none remain.
///
/// Asymptotically slower than [`min_cost_flow`], kept as an independent
/// implementation for cross-validation: it shares no search with SSP, so
/// the tests check both the routed flow value and its cost.
///
/// # Panics
///
/// Panics if a node is out of range.
pub fn cycle_canceling_min_cost(
    g: &mut FlowNetwork,
    s: NodeId,
    t: NodeId,
    target: f64,
) -> MinCostOutcome {
    assert!(s.0 < g.num_nodes() && t.0 < g.num_nodes(), "node out of range");
    let n = g.num_nodes();
    // Phase 1: shortest-hop augmenting paths until `target` is routed or
    // `t` is cut off from `s`.
    let mut flow = 0.0;
    while s != t && flow + EPS < target {
        let mut prev_edge: Vec<Option<usize>> = vec![None; n];
        let mut queue = VecDeque::from([s.0]);
        while let Some(u) = queue.pop_front() {
            for &ei in &g.adj[u] {
                let v = g.edges[ei].to;
                if v != s.0 && prev_edge[v].is_none() && g.res(ei) > EPS {
                    prev_edge[v] = Some(ei);
                    queue.push_back(v);
                }
            }
        }
        if prev_edge[t.0].is_none() {
            break;
        }
        let mut path = Vec::new();
        let mut v = t.0;
        while let Some(ei) = prev_edge[v] {
            path.push(ei);
            v = g.edges[ei ^ 1].to;
        }
        let bottleneck = path.iter().fold(target - flow, |b, &ei| b.min(g.res(ei)));
        for ei in path {
            g.push(ei, bottleneck);
        }
        flow += bottleneck;
    }

    // Phase 2: cancel negative residual cycles.
    loop {
        // Bellman–Ford from a virtual source connected to every node.
        let mut dist = vec![0.0f64; n];
        let mut prev_edge: Vec<Option<usize>> = vec![None; n];
        let mut updated_node = None;
        for _ in 0..n {
            updated_node = None;
            for (ei, e) in g.edges.iter().enumerate() {
                if e.cap - e.flow > EPS {
                    let u = g.edges[ei ^ 1].to;
                    let v = e.to;
                    if dist[u] + e.cost < dist[v] - 1e-9 {
                        dist[v] = dist[u] + e.cost;
                        prev_edge[v] = Some(ei);
                        updated_node = Some(v);
                    }
                }
            }
            if updated_node.is_none() {
                break;
            }
        }
        let Some(mut v) = updated_node else { break };
        // Walk back n steps to land inside the cycle, then extract it.
        for _ in 0..n {
            // postcard-analyze: allow(PA102) — a node relaxed in pass n has
            // a predecessor chain at least n long.
            v = g.edges[prev_edge[v].expect("updated node has a predecessor") ^ 1].to;
        }
        let start = v;
        let mut cycle = Vec::new();
        let mut bottleneck = f64::INFINITY;
        loop {
            // postcard-analyze: allow(PA102) — every node of the extracted
            // negative cycle was relaxed, so it has a predecessor edge.
            let ei = prev_edge[v].expect("cycle edge");
            cycle.push(ei);
            bottleneck = bottleneck.min(g.res(ei));
            v = g.edges[ei ^ 1].to;
            if v == start {
                break;
            }
        }
        if bottleneck <= EPS {
            break;
        }
        for ei in cycle {
            g.push(ei, bottleneck);
        }
    }
    MinCostOutcome { flow, cost: g.total_cost() }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(i: usize) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn prefers_cheap_path() {
        // Two parallel paths 0→1→3 (cost 2) and 0→2→3 (cost 10), cap 5 each.
        let mut g = FlowNetwork::new(4);
        g.add_edge(nid(0), nid(1), 5.0, 1.0);
        g.add_edge(nid(1), nid(3), 5.0, 1.0);
        g.add_edge(nid(0), nid(2), 5.0, 5.0);
        g.add_edge(nid(2), nid(3), 5.0, 5.0);
        let out = min_cost_flow(&mut g, nid(0), nid(3), 5.0);
        assert!((out.flow - 5.0).abs() < 1e-9);
        assert!((out.cost - 10.0).abs() < 1e-9);
    }

    #[test]
    fn spills_to_expensive_path_when_needed() {
        let mut g = FlowNetwork::new(4);
        g.add_edge(nid(0), nid(1), 5.0, 1.0);
        g.add_edge(nid(1), nid(3), 5.0, 1.0);
        g.add_edge(nid(0), nid(2), 5.0, 5.0);
        g.add_edge(nid(2), nid(3), 5.0, 5.0);
        let out = min_cost_flow(&mut g, nid(0), nid(3), 8.0);
        assert!((out.flow - 8.0).abs() < 1e-9);
        assert!((out.cost - (10.0 + 30.0)).abs() < 1e-9);
    }

    #[test]
    fn saturation_reported() {
        let mut g = FlowNetwork::new(2);
        g.add_edge(nid(0), nid(1), 3.0, 2.0);
        let out = min_cost_flow(&mut g, nid(0), nid(1), 10.0);
        assert!((out.flow - 3.0).abs() < 1e-9);
        assert!((out.cost - 6.0).abs() < 1e-9);
    }

    #[test]
    fn rerouting_via_residual_edges() {
        // Classic example where the second augmentation must undo part of
        // the first through a residual edge.
        let mut g = FlowNetwork::new(4);
        g.add_edge(nid(0), nid(1), 1.0, 1.0);
        g.add_edge(nid(0), nid(2), 1.0, 3.0);
        g.add_edge(nid(1), nid(2), 1.0, 1.0);
        g.add_edge(nid(1), nid(3), 1.0, 4.0);
        g.add_edge(nid(2), nid(3), 1.0, 1.0);
        let out = min_cost_flow(&mut g, nid(0), nid(3), 2.0);
        assert!((out.flow - 2.0).abs() < 1e-9);
        // With unit capacities the two units decompose as 0→1→3 (cost 5)
        // plus 0→2→3 (cost 4): total 9. The first augmentation takes
        // 0→1→2→3 (cost 3), so the second must undo 1→2 through its
        // residual edge to reach the same optimum.
        assert!((out.cost - 9.0).abs() < 1e-9, "cost = {}", out.cost);
    }

    #[test]
    fn agrees_with_lp_on_random_instances() {
        use postcard_lp::{LinExpr, Model, Sense, Status};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..10 {
            let n = rng.gen_range(4..8usize);
            let mut edges = Vec::new();
            for u in 0..n {
                for v in 0..n {
                    if u != v && rng.gen_bool(0.5) {
                        edges.push((
                            u,
                            v,
                            rng.gen_range(1.0..6.0f64).round(),
                            rng.gen_range(1.0..9.0f64).round(),
                        ));
                    }
                }
            }
            let (s, t) = (0, n - 1);
            // Combinatorial answer (min-cost max-flow).
            let mut g = FlowNetwork::new(n);
            for &(u, v, cap, cost) in &edges {
                g.add_edge(nid(u), nid(v), cap, cost);
            }
            let mc = min_cost_flow(&mut g, nid(s), nid(t), f64::INFINITY);

            // LP answer: maximize flow first (via known max value), then
            // min cost at that flow value.
            let mut m = Model::new(Sense::Minimize);
            let vars: Vec<_> = edges
                .iter()
                .enumerate()
                .map(|(i, &(_, _, cap, _))| m.add_var(format!("e{i}"), 0.0, cap))
                .collect();
            let mut obj = LinExpr::new();
            for (i, &(_, _, _, cost)) in edges.iter().enumerate() {
                obj.add_term(vars[i], cost);
            }
            m.set_objective(obj);
            for node in 0..n {
                if node == s || node == t {
                    continue;
                }
                let mut e = LinExpr::new();
                for (i, &(u, v, _, _)) in edges.iter().enumerate() {
                    if u == node {
                        e.add_term(vars[i], 1.0);
                    }
                    if v == node {
                        e.add_term(vars[i], -1.0);
                    }
                }
                m.eq(e, 0.0);
            }
            let mut src_out = LinExpr::new();
            for (i, &(u, v, _, _)) in edges.iter().enumerate() {
                if u == s {
                    src_out.add_term(vars[i], 1.0);
                }
                if v == s {
                    src_out.add_term(vars[i], -1.0);
                }
            }
            m.eq(src_out, mc.flow);
            let sol = m.solve().unwrap();
            assert_eq!(sol.status(), Status::Optimal, "trial {trial}");
            assert!(
                (sol.objective() - mc.cost).abs() < 1e-5 * (1.0 + mc.cost),
                "trial {trial}: LP {} vs SSP {}",
                sol.objective(),
                mc.cost
            );
        }
    }
}
