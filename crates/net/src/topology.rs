//! Inter-datacenter network topology.
//!
//! The paper models the network as a complete directed graph
//! `G = (V, E)` of datacenters operated by a single cloud provider, each
//! directed overlay link `{i, j}` carrying a per-slot capacity `c_ij` and a
//! non-negative cost per traffic unit `a_ij` (Sec. III). This module also
//! supports sparse (non-complete) topologies, used by the motivating
//! examples and by tests.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a datacenter, dense and 0-based within its [`Network`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct DcId(pub usize);

impl DcId {
    /// The dense index of this datacenter.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for DcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D{}", self.0)
    }
}

/// Parameters of one directed overlay link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct LinkParams {
    /// Cost per traffic unit, `a_ij ≥ 0` ($ / GB).
    price: f64,
    /// Capacity per slot, `c_ij` (GB / slot); `f64::INFINITY` allowed.
    capacity: f64,
}

/// A read-only view of one directed link, yielded by [`Network::links`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkView {
    /// Tail datacenter.
    pub from: DcId,
    /// Head datacenter.
    pub to: DcId,
    /// Cost per traffic unit ($ / GB).
    pub price: f64,
    /// Capacity (GB / slot).
    pub capacity: f64,
}

/// A directed inter-datacenter overlay network.
///
/// Construct via [`Network::complete`] (the paper's setting) or
/// [`NetworkBuilder`] for arbitrary topologies:
///
/// ```
/// use postcard_net::{DcId, NetworkBuilder};
///
/// let net = NetworkBuilder::new(3)
///     .link(DcId(1), DcId(0), 1.0, f64::INFINITY) // price, capacity
///     .link(DcId(0), DcId(2), 3.0, f64::INFINITY)
///     .link(DcId(1), DcId(2), 10.0, f64::INFINITY)
///     .build();
/// assert_eq!(net.num_dcs(), 3);
/// assert_eq!(net.price(DcId(1), DcId(0)), Some(1.0));
/// assert_eq!(net.price(DcId(0), DcId(1)), None); // directed
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    n: usize,
    names: Vec<String>,
    /// Dense `n × n` adjacency; `None` on the diagonal and for absent links.
    links: Vec<Option<LinkParams>>,
}

impl Network {
    /// Creates a complete directed graph over `n` datacenters where every
    /// link has the given uniform price and capacity.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `price < 0`, or `capacity` is negative or NaN.
    pub fn complete(n: usize, price: f64, capacity: f64) -> Self {
        let mut b = NetworkBuilder::new(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    b = b.link(DcId(i), DcId(j), price, capacity);
                }
            }
        }
        b.build()
    }

    /// Creates a complete directed graph with per-link prices supplied by a
    /// function `(from, to) -> price` and a uniform capacity.
    ///
    /// This is the paper's evaluation setting: `a_ij ~ U[1, 10]` with
    /// `c_ij ∈ {30, 100}` GB per slot.
    pub fn complete_with_prices(
        n: usize,
        capacity: f64,
        mut price: impl FnMut(DcId, DcId) -> f64,
    ) -> Self {
        let mut b = NetworkBuilder::new(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    b = b.link(DcId(i), DcId(j), price(DcId(i), DcId(j)), capacity);
                }
            }
        }
        b.build()
    }

    /// Number of datacenters.
    pub fn num_dcs(&self) -> usize {
        self.n
    }

    /// Number of directed links present.
    pub fn num_links(&self) -> usize {
        self.links.iter().filter(|l| l.is_some()).count()
    }

    /// Iterates over all datacenter ids.
    pub fn dcs(&self) -> impl Iterator<Item = DcId> {
        (0..self.n).map(DcId)
    }

    /// Display name of a datacenter.
    pub fn dc_name(&self, dc: DcId) -> &str {
        &self.names[dc.0]
    }

    /// Renames a datacenter.
    ///
    /// # Panics
    ///
    /// Panics if `dc` is out of range.
    pub fn set_dc_name(&mut self, dc: DcId, name: impl Into<String>) {
        self.names[dc.0] = name.into();
    }

    /// `true` if the directed link `from → to` exists.
    pub fn has_link(&self, from: DcId, to: DcId) -> bool {
        from != to && self.params(from, to).is_some()
    }

    /// Price per GB of a link, if present.
    pub fn price(&self, from: DcId, to: DcId) -> Option<f64> {
        self.params(from, to).map(|p| p.price)
    }

    /// Capacity per slot of a link, if present.
    pub fn capacity(&self, from: DcId, to: DcId) -> Option<f64> {
        self.params(from, to).map(|p| p.capacity)
    }

    /// Iterates over present directed links.
    pub fn links(&self) -> impl Iterator<Item = LinkView> + '_ {
        (0..self.n).flat_map(move |i| {
            (0..self.n).filter_map(move |j| {
                self.links[i * self.n + j].map(|p| LinkView {
                    from: DcId(i),
                    to: DcId(j),
                    price: p.price,
                    capacity: p.capacity,
                })
            })
        })
    }

    /// Out-neighbors of a datacenter.
    pub fn neighbors_out(&self, dc: DcId) -> impl Iterator<Item = DcId> + '_ {
        let i = dc.0;
        (0..self.n).filter(move |&j| self.links[i * self.n + j].is_some()).map(DcId)
    }

    /// In-neighbors of a datacenter.
    pub fn neighbors_in(&self, dc: DcId) -> impl Iterator<Item = DcId> + '_ {
        let j = dc.0;
        (0..self.n).filter(move |&i| self.links[i * self.n + j].is_some()).map(DcId)
    }

    /// Overwrites the capacity of an existing link. A capacity of `0.0` is
    /// allowed and models a full outage: the link stays in the topology (it
    /// keeps its price and may be billed for past peaks) but can carry no
    /// new traffic.
    ///
    /// # Panics
    ///
    /// Panics if the link does not exist or `capacity` is negative or NaN.
    pub fn set_capacity(&mut self, from: DcId, to: DcId, capacity: f64) {
        assert!(capacity >= 0.0, "capacity must be non-negative");
        let n = self.n;
        // postcard-analyze: allow(PA102) — documented panic contract (see
        // the `# Panics` section above).
        let slot = self.links[from.0 * n + to.0].as_mut().expect("link must exist");
        slot.capacity = capacity;
    }

    /// Overwrites the per-GB price of an existing link, modeling a mid-cycle
    /// tariff change. Volume already recorded keeps being billed at whatever
    /// price the ledger's cost queries see at evaluation time — the ledger
    /// stores volumes, not dollars.
    ///
    /// # Panics
    ///
    /// Panics if the link does not exist or `price` is negative or NaN.
    pub fn set_price(&mut self, from: DcId, to: DcId, price: f64) {
        assert!(price >= 0.0, "price must be non-negative");
        let n = self.n;
        // postcard-analyze: allow(PA102) — documented panic contract (see
        // the `# Panics` section above).
        let slot = self.links[from.0 * n + to.0].as_mut().expect("link must exist");
        slot.price = price;
    }

    fn params(&self, from: DcId, to: DcId) -> Option<&LinkParams> {
        if from.0 >= self.n || to.0 >= self.n {
            return None;
        }
        self.links[from.0 * self.n + to.0].as_ref()
    }

    /// Serializes the topology to CSV: a header line, then one
    /// `from,to,price,capacity` line per directed link (`inf` allowed for
    /// capacity). Datacenter names are not persisted.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("from,to,price,capacity\n");
        for l in self.links() {
            out.push_str(&format!("{},{},{},{}\n", l.from.0, l.to.0, l.price, l.capacity));
        }
        out
    }

    /// Parses the CSV produced by [`Network::to_csv`]. The datacenter count
    /// is one past the largest id mentioned.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    pub fn from_csv(text: &str) -> Result<Network, String> {
        let mut rows: Vec<(usize, usize, f64, f64)> = Vec::new();
        let mut max_dc = 0usize;
        for (i, line) in text.lines().enumerate() {
            if (i == 0 && line.starts_with("from,")) || line.trim().is_empty() {
                continue;
            }
            let err = |m: &str| format!("network CSV line {}: {m}", i + 1);
            let Some(parts) = split_csv_fields::<4>(line) else {
                return Err(err("expected `from,to,price,capacity`"));
            };
            let from: usize = parts[0].trim().parse().map_err(|_| err("bad from"))?;
            let to: usize = parts[1].trim().parse().map_err(|_| err("bad to"))?;
            let price: f64 = parts[2].trim().parse().map_err(|_| err("bad price"))?;
            let capacity: f64 = match parts[3].trim() {
                "inf" | "INF" => f64::INFINITY,
                s => s.parse().map_err(|_| err("bad capacity"))?,
            };
            if from == to {
                return Err(err("self-loops are not links"));
            }
            if !price.is_finite() || price < 0.0 || capacity.is_nan() || capacity < 0.0 {
                return Err(err("price must be ≥ 0 and capacity ≥ 0"));
            }
            max_dc = max_dc.max(from).max(to);
            rows.push((from, to, price, capacity));
        }
        if rows.is_empty() {
            return Err("network CSV has no links".into());
        }
        let mut b = NetworkBuilder::new(max_dc + 1);
        for (from, to, price, capacity) in rows {
            b = b.link(DcId(from), DcId(to), price, capacity);
        }
        Ok(b.build())
    }
}

/// Splits one CSV line into exactly `N` comma-separated fields without
/// allocating. Returns `None` when the line has fewer or more fields.
pub fn split_csv_fields<const N: usize>(line: &str) -> Option<[&str; N]> {
    let mut fields = [""; N];
    let mut parts = line.split(',');
    for field in &mut fields {
        *field = parts.next()?;
    }
    parts.next().is_none().then_some(fields)
}

/// Incremental construction of a [`Network`].
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    n: usize,
    names: Vec<String>,
    links: Vec<Option<LinkParams>>,
}

impl NetworkBuilder {
    /// Starts a builder for `n` datacenters with no links.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a network needs at least one datacenter");
        Self { n, names: (0..n).map(|i| format!("D{i}")).collect(), links: vec![None; n * n] }
    }

    /// Adds (or overwrites) the directed link `from → to`. A capacity of
    /// `0.0` is allowed (a fully degraded link — see
    /// [`Network::set_capacity`]) so snapshots of outage-degraded networks
    /// can be rebuilt.
    ///
    /// # Panics
    ///
    /// Panics on a self-loop, out-of-range id, negative price, or
    /// negative/NaN capacity.
    pub fn link(mut self, from: DcId, to: DcId, price: f64, capacity: f64) -> Self {
        assert!(from != to, "self-loops are expressed as storage, not links");
        assert!(from.0 < self.n && to.0 < self.n, "datacenter id out of range");
        assert!(price >= 0.0 && price.is_finite(), "price must be finite and non-negative");
        assert!(capacity >= 0.0, "capacity must be non-negative");
        self.links[from.0 * self.n + to.0] = Some(LinkParams { price, capacity });
        self
    }

    /// Adds a symmetric pair of links with identical parameters.
    pub fn bidirectional(self, a: DcId, b: DcId, price: f64, capacity: f64) -> Self {
        self.link(a, b, price, capacity).link(b, a, price, capacity)
    }

    /// Names a datacenter.
    pub fn name(mut self, dc: DcId, name: impl Into<String>) -> Self {
        self.names[dc.0] = name.into();
        self
    }

    /// Finalizes the network.
    pub fn build(self) -> Network {
        Network { n: self.n, names: self.names, links: self.links }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_graph_has_all_links() {
        let net = Network::complete(4, 2.0, 100.0);
        assert_eq!(net.num_dcs(), 4);
        assert_eq!(net.num_links(), 12);
        for i in net.dcs() {
            for j in net.dcs() {
                assert_eq!(net.has_link(i, j), i != j);
            }
        }
        assert_eq!(net.price(DcId(0), DcId(1)), Some(2.0));
        assert_eq!(net.capacity(DcId(3), DcId(2)), Some(100.0));
    }

    #[test]
    fn directed_links_are_independent() {
        let net = NetworkBuilder::new(2).link(DcId(0), DcId(1), 5.0, 10.0).build();
        assert!(net.has_link(DcId(0), DcId(1)));
        assert!(!net.has_link(DcId(1), DcId(0)));
        assert_eq!(net.num_links(), 1);
    }

    #[test]
    fn neighbors() {
        let net = NetworkBuilder::new(3)
            .link(DcId(0), DcId(1), 1.0, 1.0)
            .link(DcId(2), DcId(1), 1.0, 1.0)
            .build();
        let out: Vec<_> = net.neighbors_out(DcId(0)).collect();
        assert_eq!(out, vec![DcId(1)]);
        let inn: Vec<_> = net.neighbors_in(DcId(1)).collect();
        assert_eq!(inn, vec![DcId(0), DcId(2)]);
    }

    #[test]
    fn complete_with_prices_uses_function() {
        let net = Network::complete_with_prices(3, 50.0, |i, j| (i.0 * 10 + j.0) as f64);
        assert_eq!(net.price(DcId(1), DcId(2)), Some(12.0));
        assert_eq!(net.capacity(DcId(2), DcId(0)), Some(50.0));
    }

    #[test]
    fn names_default_and_custom() {
        let mut net = NetworkBuilder::new(2)
            .name(DcId(0), "us-east")
            .link(DcId(0), DcId(1), 1.0, 1.0)
            .build();
        assert_eq!(net.dc_name(DcId(0)), "us-east");
        assert_eq!(net.dc_name(DcId(1)), "D1");
        net.set_dc_name(DcId(1), "eu-west");
        assert_eq!(net.dc_name(DcId(1)), "eu-west");
    }

    #[test]
    fn set_capacity_overwrites() {
        let mut net = Network::complete(2, 1.0, 10.0);
        net.set_capacity(DcId(0), DcId(1), 33.0);
        assert_eq!(net.capacity(DcId(0), DcId(1)), Some(33.0));
        assert_eq!(net.capacity(DcId(1), DcId(0)), Some(10.0));
    }

    #[test]
    fn zero_capacity_models_full_outage() {
        // Capacity 0 is legal — the link keeps its price (and, upstream,
        // its billed past peaks) but can carry no new traffic — so fault
        // injection can kill a link and a snapshot of the degraded network
        // can rebuild.
        let mut net = Network::complete(2, 1.0, 10.0);
        net.set_capacity(DcId(0), DcId(1), 0.0);
        assert_eq!(net.capacity(DcId(0), DcId(1)), Some(0.0));
        assert_eq!(net.price(DcId(0), DcId(1)), Some(1.0));
        let rebuilt = NetworkBuilder::new(2).link(DcId(0), DcId(1), 1.0, 0.0).build();
        assert_eq!(rebuilt.capacity(DcId(0), DcId(1)), Some(0.0));
        let round = Network::from_csv(&rebuilt.to_csv()).unwrap();
        assert_eq!(round.capacity(DcId(0), DcId(1)), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_capacity_rejected() {
        let mut net = Network::complete(2, 1.0, 10.0);
        net.set_capacity(DcId(0), DcId(1), -1.0);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let _ = NetworkBuilder::new(2).link(DcId(0), DcId(0), 1.0, 1.0);
    }

    #[test]
    fn bidirectional_adds_both() {
        let net = NetworkBuilder::new(2).bidirectional(DcId(0), DcId(1), 1.0, 2.0).build();
        assert!(net.has_link(DcId(0), DcId(1)) && net.has_link(DcId(1), DcId(0)));
    }

    #[test]
    fn display_of_dc_id() {
        assert_eq!(DcId(3).to_string(), "D3");
    }

    #[test]
    fn clone_preserves_structure() {
        let net = Network::complete(3, 2.5, 30.0);
        let clone = net.clone();
        assert_eq!(net, clone);
    }

    #[test]
    fn csv_round_trip() {
        let net = NetworkBuilder::new(3)
            .link(DcId(0), DcId(1), 1.5, 10.0)
            .link(DcId(2), DcId(0), 3.0, f64::INFINITY)
            .build();
        let back = Network::from_csv(&net.to_csv()).unwrap();
        assert_eq!(back.num_dcs(), 3);
        assert_eq!(back.price(DcId(0), DcId(1)), Some(1.5));
        assert_eq!(back.capacity(DcId(2), DcId(0)), Some(f64::INFINITY));
        assert!(!back.has_link(DcId(1), DcId(0)));
    }

    #[test]
    fn csv_field_count_errors_name_the_line() {
        let text = "from,to,price,capacity\n0,1,1.0,5.0\n\n";
        for (bad, expected) in [
            ("1,0,1.0", "network CSV line 4: expected `from,to,price,capacity`"),
            ("1,0,1.0,5.0,7", "network CSV line 4: expected `from,to,price,capacity`"),
            ("1,x,1.0,5.0", "network CSV line 4: bad to"),
            ("1,0,1.0,", "network CSV line 4: bad capacity"),
        ] {
            assert_eq!(Network::from_csv(&format!("{text}{bad}\n")).unwrap_err(), expected);
        }
        assert_eq!(split_csv_fields::<2>("a,b"), Some(["a", "b"]));
        assert_eq!(split_csv_fields::<2>("a"), None);
        assert_eq!(split_csv_fields::<2>("a,b,"), None);
    }

    #[test]
    fn csv_parse_errors_are_specific() {
        assert!(Network::from_csv("").unwrap_err().contains("no links"));
        assert!(Network::from_csv("0,0,1.0,5.0\n").unwrap_err().contains("self-loops"));
        assert!(Network::from_csv("0,1,-1.0,5.0\n").unwrap_err().contains("price"));
        assert!(Network::from_csv("0,1,1.0\n").unwrap_err().contains("line 1"));
    }
}
