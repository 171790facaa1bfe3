//! A residual flow network for combinatorial flow algorithms.

/// Node identifier (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Edge identifier returned by [`FlowNetwork::add_edge`]; the paired reverse
/// (residual) edge is `EdgeId(id.0 ^ 1)` internally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub usize);

#[derive(Debug, Clone)]
pub(crate) struct Edge {
    pub to: usize,
    pub cap: f64,
    pub cost: f64,
    pub flow: f64,
}

/// A directed graph with residual edges, for max-flow / min-cost-flow.
///
/// ```
/// use postcard_flow::{min_cost_flow, FlowNetwork, NodeId};
///
/// let mut g = FlowNetwork::new(4);
/// g.add_edge(NodeId(0), NodeId(1), 3.0, 1.0);
/// g.add_edge(NodeId(0), NodeId(2), 2.0, 2.0);
/// g.add_edge(NodeId(1), NodeId(3), 2.0, 1.0);
/// g.add_edge(NodeId(2), NodeId(3), 3.0, 2.0);
/// let out = min_cost_flow(&mut g, NodeId(0), NodeId(3), f64::INFINITY);
/// assert!((out.flow - 4.0).abs() < 1e-9);
/// assert!((out.cost - 12.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    pub(crate) edges: Vec<Edge>,
    pub(crate) adj: Vec<Vec<usize>>,
}

impl FlowNetwork {
    /// Creates a network with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        Self { edges: Vec::new(), adj: vec![Vec::new(); n] }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of forward edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len() / 2
    }

    /// Adds a directed edge with `cap ≥ 0` and unit cost `cost`, returning
    /// its id.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or a negative/NaN capacity.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, cap: f64, cost: f64) -> EdgeId {
        assert!(from.0 < self.adj.len() && to.0 < self.adj.len(), "node out of range");
        assert!(cap >= 0.0 && !cap.is_nan(), "capacity must be non-negative");
        assert!(!cost.is_nan(), "cost must be a number");
        let id = self.edges.len();
        self.edges.push(Edge { to: to.0, cap, cost, flow: 0.0 });
        self.edges.push(Edge { to: from.0, cap: 0.0, cost: -cost, flow: 0.0 });
        self.adj[from.0].push(id);
        self.adj[to.0].push(id + 1);
        EdgeId(id)
    }

    /// The flow currently on a forward edge.
    pub fn flow(&self, e: EdgeId) -> f64 {
        self.edges[e.0].flow
    }

    /// The residual capacity of a forward edge.
    pub fn residual(&self, e: EdgeId) -> f64 {
        self.edges[e.0].cap - self.edges[e.0].flow
    }

    /// Resets all flows to zero (capacities and costs unchanged).
    pub fn reset_flows(&mut self) {
        for e in &mut self.edges {
            e.flow = 0.0;
        }
    }

    /// Pushes `amount` through internal edge `idx`, updating the residual
    /// pair.
    pub(crate) fn push(&mut self, idx: usize, amount: f64) {
        self.edges[idx].flow += amount;
        self.edges[idx ^ 1].flow -= amount;
    }

    /// Residual capacity of internal edge `idx`.
    pub(crate) fn res(&self, idx: usize) -> f64 {
        self.edges[idx].cap - self.edges[idx].flow
    }

    /// Iterates the forward edges as `(id, from, to, capacity, cost)`.
    pub fn forward_edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId, f64, f64)> + '_ {
        self.edges.iter().enumerate().step_by(2).map(|(i, e)| {
            let from = self.edges[i ^ 1].to;
            (EdgeId(i), NodeId(from), NodeId(e.to), e.cap, e.cost)
        })
    }

    /// Total cost of the current flow: `Σ flow_e · cost_e` over forward
    /// edges.
    pub fn total_cost(&self) -> f64 {
        self.edges.iter().step_by(2).map(|e| e.flow.max(0.0) * e.cost).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_inspect_edges() {
        let mut g = FlowNetwork::new(3);
        let e = g.add_edge(NodeId(0), NodeId(1), 5.0, 2.0);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.flow(e), 0.0);
        assert_eq!(g.residual(e), 5.0);
    }

    #[test]
    fn push_updates_residual_pair() {
        let mut g = FlowNetwork::new(2);
        let e = g.add_edge(NodeId(0), NodeId(1), 5.0, 1.0);
        g.push(e.0, 3.0);
        assert_eq!(g.flow(e), 3.0);
        assert_eq!(g.residual(e), 2.0);
        // Reverse edge gained residual capacity 3.
        assert_eq!(g.res(e.0 ^ 1), 3.0);
        assert!((g.total_cost() - 3.0).abs() < 1e-12);
        g.reset_flows();
        assert_eq!(g.flow(e), 0.0);
    }

    #[test]
    #[should_panic(expected = "node out of range")]
    fn bad_endpoint_panics() {
        FlowNetwork::new(1).add_edge(NodeId(0), NodeId(1), 1.0, 0.0);
    }
}
