//! The time-expanded graph (paper Sec. V).
//!
//! Following Ford & Fulkerson's time expansion, the inter-datacenter network
//! `G = (V, E)` over slots `[t, t + H)` becomes a static graph `G(t)`:
//!
//! * one **node** `i^n` per datacenter `i` per *layer* `n ∈ [t, t + H]`
//!   (a layer marks the boundary between two slots);
//! * one **transit arc** `i^n → j^{n+1}` per link `{i,j} ∈ E` per slot,
//!   carrying the link's price and its (residual) capacity in that slot;
//! * one **storage arc** `i^n → i^{n+1}` per datacenter per slot, with
//!   infinite capacity and zero cost — holding data at a datacenter is free
//!   and unconstrained.
//!
//! A file `k` released at `t` with deadline `T_k` is the three-tuple
//! `(s_k^t, d_k^{t+T_k}, F_k)` in `G(t)` and may only use arcs in slots
//! `n ≤ t + T_k − 1` (the paper's Eq. 10).

use crate::file::TransferRequest;
use crate::topology::{DcId, Network};

/// A node `i^n` of the time-expanded graph: datacenter `dc` at layer
/// `layer` (the start-of-slot boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimeNode {
    /// The datacenter.
    pub dc: DcId,
    /// The layer (slot boundary), absolute.
    pub layer: u64,
}

/// Dense identifier of an arc within one [`TimeExpandedGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArcId(pub usize);

impl ArcId {
    /// Dense 0-based index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Whether an arc moves data between datacenters or holds it in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArcKind {
    /// `i^n → j^{n+1}`, `i ≠ j`: real inter-datacenter traffic.
    Transit,
    /// `i^n → i^{n+1}`: store-and-forward holdover, free and uncapacitated.
    Storage,
}

/// One arc of the time-expanded graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arc {
    /// Tail datacenter (at layer `slot`).
    pub from: DcId,
    /// Head datacenter (at layer `slot + 1`).
    pub to: DcId,
    /// The slot during which the data moves (tail layer).
    pub slot: u64,
    /// Transit or storage.
    pub kind: ArcKind,
    /// Cost per GB (`a_ij` for transit, 0 for storage).
    pub price: f64,
    /// Capacity in GB for this slot (possibly residual; ∞ for storage).
    pub capacity: f64,
}

impl Arc {
    /// Tail node.
    pub fn tail(&self) -> TimeNode {
        TimeNode { dc: self.from, layer: self.slot }
    }

    /// Head node.
    pub fn head(&self) -> TimeNode {
        TimeNode { dc: self.to, layer: self.slot + 1 }
    }

    /// `true` if file `k` is allowed to use this arc (the arc's slot lies in
    /// the file's active window — Eq. 10).
    pub fn usable_by(&self, file: &TransferRequest) -> bool {
        file.active_in(self.slot)
    }
}

/// The time-expanded graph over slots `[t0, t0 + num_slots)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeExpandedGraph {
    t0: u64,
    num_slots: usize,
    num_dcs: usize,
    arcs: Vec<Arc>,
    /// Arc ids grouped by slot offset for fast per-slot iteration.
    by_slot: Vec<Vec<ArcId>>,
}

impl TimeExpandedGraph {
    /// Builds the expansion of `network` over `num_slots` slots starting at
    /// `t0`, with transit capacities taken straight from the network.
    ///
    /// # Panics
    ///
    /// Panics if `num_slots == 0`.
    pub fn new(network: &Network, t0: u64, num_slots: usize) -> Self {
        Self::with_residual(network, t0, num_slots, |l, _slot| Some(l.capacity))
    }

    /// Builds the expansion with per-arc residual capacities supplied by
    /// `residual(link, slot)`; returning `None` keeps the base capacity, and
    /// any returned value is clamped to `≥ 0`.
    ///
    /// This is how the online controller exposes capacity already consumed
    /// by earlier files (paper Sec. III: `c_ij(t)` is the residual capacity).
    ///
    /// # Panics
    ///
    /// Panics if `num_slots == 0`.
    pub fn with_residual(
        network: &Network,
        t0: u64,
        num_slots: usize,
        mut residual: impl FnMut(crate::topology::LinkView, u64) -> Option<f64>,
    ) -> Self {
        assert!(num_slots > 0, "time expansion needs at least one slot");
        let num_dcs = network.num_dcs();
        let mut arcs = Vec::with_capacity(num_slots * (network.num_links() + num_dcs));
        let mut by_slot = vec![Vec::new(); num_slots];
        for (off, slot_arcs) in by_slot.iter_mut().enumerate() {
            let slot = t0 + off as u64;
            for link in network.links() {
                let cap = residual(link, slot).unwrap_or(link.capacity).max(0.0);
                slot_arcs.push(ArcId(arcs.len()));
                arcs.push(Arc {
                    from: link.from,
                    to: link.to,
                    slot,
                    kind: ArcKind::Transit,
                    price: link.price,
                    capacity: cap,
                });
            }
            for dc in network.dcs() {
                slot_arcs.push(ArcId(arcs.len()));
                arcs.push(Arc {
                    from: dc,
                    to: dc,
                    slot,
                    kind: ArcKind::Storage,
                    price: 0.0,
                    capacity: f64::INFINITY,
                });
            }
        }
        Self { t0, num_slots, num_dcs, arcs, by_slot }
    }

    /// Assembles a graph directly from an arc list, with **no validation**.
    ///
    /// Arcs whose slot lies outside `[t0, t0 + num_slots)` are kept in the
    /// arc list (and therefore visible to [`TimeExpandedGraph::arcs`]) but
    /// not indexed by slot. The regular constructors can only produce
    /// well-formed expansions; this one exists so that tests and the
    /// `postcard-analyze` malformed-graph fixtures can express structurally
    /// broken graphs — deadline-violating slots, storage arcs that change
    /// datacenter — and exercise the checks that reject them.
    ///
    /// # Panics
    ///
    /// Panics if `num_slots == 0`.
    pub fn from_arcs(t0: u64, num_slots: usize, num_dcs: usize, arcs: Vec<Arc>) -> Self {
        assert!(num_slots > 0, "time expansion needs at least one slot");
        let mut by_slot = vec![Vec::new(); num_slots];
        for (i, a) in arcs.iter().enumerate() {
            if a.slot >= t0 && a.slot < t0 + num_slots as u64 {
                by_slot[(a.slot - t0) as usize].push(ArcId(i));
            }
        }
        Self { t0, num_slots, num_dcs, arcs, by_slot }
    }

    /// First slot covered.
    pub fn first_slot(&self) -> u64 {
        self.t0
    }

    /// Number of slots covered.
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// Last slot covered (inclusive).
    pub fn last_slot(&self) -> u64 {
        self.t0 + self.num_slots as u64 - 1
    }

    /// Number of datacenters per layer.
    pub fn num_dcs(&self) -> usize {
        self.num_dcs
    }

    /// Number of arcs.
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// Arc lookup.
    pub fn arc(&self, id: ArcId) -> &Arc {
        &self.arcs[id.0]
    }

    /// Iterates all arcs with their ids.
    pub fn arcs(&self) -> impl Iterator<Item = (ArcId, &Arc)> {
        self.arcs.iter().enumerate().map(|(i, a)| (ArcId(i), a))
    }

    /// Iterates the arcs of one absolute slot (empty iterator if the slot is
    /// outside the expansion).
    pub fn arcs_in_slot(&self, slot: u64) -> impl Iterator<Item = (ArcId, &Arc)> {
        let ids: &[ArcId] = if slot >= self.t0 && slot <= self.last_slot() {
            &self.by_slot[(slot - self.t0) as usize]
        } else {
            &[]
        };
        ids.iter().map(move |&id| (id, &self.arcs[id.0]))
    }

    /// Iterates arcs *leaving* node `i^layer` (i.e. arcs of slot `layer`
    /// with tail `dc`).
    pub fn arcs_out(&self, node: TimeNode) -> impl Iterator<Item = (ArcId, &Arc)> {
        self.arcs_in_slot(node.layer).filter(move |(_, a)| a.from == node.dc)
    }

    /// Iterates arcs *entering* node `i^layer` (arcs of slot `layer − 1`
    /// with head `dc`).
    pub fn arcs_in(&self, node: TimeNode) -> impl Iterator<Item = (ArcId, &Arc)> {
        let prev = node.layer.checked_sub(1);
        prev.into_iter()
            .flat_map(move |s| self.arcs_in_slot(s))
            .filter(move |(_, a)| a.to == node.dc)
    }

    /// Indexes every in-window arc by its tail and head node in one pass,
    /// so a caller visiting every node (conservation rows) reads each
    /// node's arcs directly instead of scanning the whole slot per node.
    /// [`NodeArcs::outgoing`] and [`NodeArcs::incoming`] list the same arcs, in the
    /// same order, as [`TimeExpandedGraph::arcs_out`] and
    /// [`TimeExpandedGraph::arcs_in`]; arcs whose datacenter lies outside
    /// `[0, num_dcs)` are not indexed.
    pub fn node_arcs(&self) -> NodeArcs {
        let buckets = self.num_slots * self.num_dcs;
        let bucket =
            |off: usize, dc: DcId| (dc.0 < self.num_dcs).then(|| off * self.num_dcs + dc.0);
        let in_window = || {
            self.by_slot
                .iter()
                .enumerate()
                .flat_map(|(off, ids)| ids.iter().map(move |&id| (off, id, &self.arcs[id.0])))
        };
        NodeArcs {
            t0: self.t0,
            num_slots: self.num_slots,
            num_dcs: self.num_dcs,
            outgoing: Csr::group(
                buckets,
                in_window().filter_map(|(off, id, arc)| Some((bucket(off, arc.from)?, id))),
            ),
            incoming: Csr::group(
                buckets,
                in_window().filter_map(|(off, id, arc)| Some((bucket(off, arc.to)?, id))),
            ),
        }
    }

    /// All layers of the expansion (`num_slots + 1` boundaries).
    pub fn layers(&self) -> impl Iterator<Item = u64> {
        self.t0..=self.t0 + self.num_slots as u64
    }

    /// The arcs file `k` may use (its window clipped to the expansion).
    pub fn arcs_usable_by<'a>(
        &'a self,
        file: &'a TransferRequest,
    ) -> impl Iterator<Item = (ArcId, &'a Arc)> {
        self.arcs().filter(move |(_, a)| a.usable_by(file))
    }
}

/// Per-node arc lists of one [`TimeExpandedGraph`], built by
/// [`TimeExpandedGraph::node_arcs`].
#[derive(Debug, Clone)]
pub struct NodeArcs {
    t0: u64,
    num_slots: usize,
    num_dcs: usize,
    /// Bucket `(slot offset, tail dc)`.
    outgoing: Csr,
    /// Bucket `(slot offset, head dc)`.
    incoming: Csr,
}

impl NodeArcs {
    /// The arcs leaving node `i^layer` (as [`TimeExpandedGraph::arcs_out`]).
    pub fn outgoing(&self, node: TimeNode) -> &[ArcId] {
        match self.bucket(node.dc, node.layer) {
            Some(b) => self.outgoing.bucket(b),
            None => &[],
        }
    }

    /// The arcs entering node `i^layer` (as [`TimeExpandedGraph::arcs_in`]).
    pub fn incoming(&self, node: TimeNode) -> &[ArcId] {
        match node.layer.checked_sub(1).and_then(|slot| self.bucket(node.dc, slot)) {
            Some(b) => self.incoming.bucket(b),
            None => &[],
        }
    }

    fn bucket(&self, dc: DcId, slot: u64) -> Option<usize> {
        let off = slot.checked_sub(self.t0)? as usize;
        (off < self.num_slots && dc.0 < self.num_dcs).then(|| off * self.num_dcs + dc.0)
    }
}

/// Ids grouped into buckets; bucket `b` is `ids[start[b]..start[b + 1]]`.
#[derive(Debug, Clone)]
struct Csr {
    start: Vec<usize>,
    ids: Vec<ArcId>,
}

impl Csr {
    /// Groups `(bucket, id)` pairs by bucket with a counting pass, keeping
    /// their order within each bucket.
    fn group(buckets: usize, items: impl Iterator<Item = (usize, ArcId)> + Clone) -> Self {
        let mut start = vec![0; buckets + 1];
        for (b, _) in items.clone() {
            start[b + 1] += 1;
        }
        for b in 1..=buckets {
            start[b] += start[b - 1];
        }
        let mut next = start.clone();
        let mut ids = vec![ArcId(0); start[buckets]];
        for (b, id) in items {
            ids[next[b]] = id;
            next[b] += 1;
        }
        Self { start, ids }
    }

    fn bucket(&self, b: usize) -> &[ArcId] {
        &self.ids[self.start[b]..self.start[b + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::FileId;

    fn net() -> Network {
        Network::complete(3, 2.0, 10.0)
    }

    #[test]
    fn arc_counts() {
        let g = TimeExpandedGraph::new(&net(), 5, 4);
        // Per slot: 6 transit (complete digraph on 3) + 3 storage.
        assert_eq!(g.num_arcs(), 4 * 9);
        assert_eq!(g.first_slot(), 5);
        assert_eq!(g.last_slot(), 8);
        assert_eq!(g.layers().count(), 5);
    }

    #[test]
    fn storage_arcs_are_free_and_uncapacitated() {
        let g = TimeExpandedGraph::new(&net(), 0, 2);
        for (_, a) in g.arcs() {
            match a.kind {
                ArcKind::Storage => {
                    assert_eq!(a.from, a.to);
                    assert_eq!(a.price, 0.0);
                    assert!(a.capacity.is_infinite());
                }
                ArcKind::Transit => {
                    assert_ne!(a.from, a.to);
                    assert_eq!(a.price, 2.0);
                    assert_eq!(a.capacity, 10.0);
                }
            }
        }
    }

    #[test]
    fn residual_capacities_applied() {
        let g = TimeExpandedGraph::with_residual(&net(), 0, 2, |l, slot| {
            if l.from == DcId(0) && l.to == DcId(1) && slot == 1 {
                Some(3.5)
            } else {
                None
            }
        });
        let arc = g
            .arcs_in_slot(1)
            .find(|(_, a)| a.from == DcId(0) && a.to == DcId(1))
            .map(|(_, a)| *a)
            .unwrap();
        assert_eq!(arc.capacity, 3.5);
        let arc0 = g
            .arcs_in_slot(0)
            .find(|(_, a)| a.from == DcId(0) && a.to == DcId(1))
            .map(|(_, a)| *a)
            .unwrap();
        assert_eq!(arc0.capacity, 10.0);
    }

    #[test]
    fn negative_residual_clamped() {
        let g = TimeExpandedGraph::with_residual(&net(), 0, 1, |_, _| Some(-5.0));
        assert!(g
            .arcs()
            .filter(|(_, a)| a.kind == ArcKind::Transit)
            .all(|(_, a)| a.capacity == 0.0));
    }

    #[test]
    fn in_out_arcs_connect_layers() {
        let g = TimeExpandedGraph::new(&net(), 0, 3);
        let node = TimeNode { dc: DcId(1), layer: 1 };
        let outs: Vec<_> = g.arcs_out(node).collect();
        // 2 transit + 1 storage leave D1 at layer 1.
        assert_eq!(outs.len(), 3);
        assert!(outs.iter().all(|(_, a)| a.slot == 1 && a.from == DcId(1)));
        let ins: Vec<_> = g.arcs_in(node).collect();
        assert_eq!(ins.len(), 3);
        assert!(ins.iter().all(|(_, a)| a.slot == 0 && a.to == DcId(1)));
        // Layer 0 has no incoming arcs.
        assert_eq!(g.arcs_in(TimeNode { dc: DcId(0), layer: 0 }).count(), 0);
    }

    #[test]
    fn node_arcs_match_the_scanning_iterators() {
        let g = TimeExpandedGraph::with_residual(&net(), 4, 3, |_, slot| Some(slot as f64));
        let idx = g.node_arcs();
        for layer in 2..=8 {
            for dc in 0..4 {
                let node = TimeNode { dc: DcId(dc), layer };
                let out: Vec<ArcId> = g.arcs_out(node).map(|(id, _)| id).collect();
                let into: Vec<ArcId> = g.arcs_in(node).map(|(id, _)| id).collect();
                assert_eq!(idx.outgoing(node), out, "out of {dc}^{layer}");
                assert_eq!(idx.incoming(node), into, "into {dc}^{layer}");
            }
        }
        assert_eq!(idx.outgoing(TimeNode { dc: DcId(1), layer: 5 }).len(), 3);
    }

    #[test]
    fn file_window_filters_arcs() {
        let g = TimeExpandedGraph::new(&net(), 3, 5); // slots 3..=7
        let f = TransferRequest::new(FileId(0), DcId(0), DcId(1), 8.0, 2, 3); // slots 3..=4
        let usable: Vec<u64> = g.arcs_usable_by(&f).map(|(_, a)| a.slot).collect();
        assert!(usable.iter().all(|&s| s == 3 || s == 4));
        assert_eq!(usable.len(), 2 * 9);
    }

    #[test]
    fn from_arcs_keeps_out_of_range_arcs_unindexed() {
        let arcs = vec![
            Arc {
                from: DcId(0),
                to: DcId(1),
                slot: 2,
                kind: ArcKind::Transit,
                price: 1.0,
                capacity: 5.0,
            },
            // Slot 9 is outside [2, 4): visible via arcs(), absent per slot.
            Arc {
                from: DcId(0),
                to: DcId(0),
                slot: 9,
                kind: ArcKind::Storage,
                price: 0.0,
                capacity: f64::INFINITY,
            },
        ];
        let g = TimeExpandedGraph::from_arcs(2, 2, 2, arcs);
        assert_eq!(g.num_arcs(), 2);
        assert_eq!(g.arcs_in_slot(2).count(), 1);
        assert_eq!(g.arcs_in_slot(9).count(), 0);
        assert_eq!(g.arcs().filter(|(_, a)| a.slot == 9).count(), 1);
    }

    #[test]
    fn head_tail_nodes() {
        let g = TimeExpandedGraph::new(&net(), 2, 1);
        let (_, a) = g.arcs().next().unwrap();
        assert_eq!(a.tail().layer, 2);
        assert_eq!(a.head().layer, 3);
    }
}
