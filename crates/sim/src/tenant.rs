//! Multi-tenant evaluation scenarios for the sharded runtime.
//!
//! A tenant is a cluster of datacenters with its own traffic. The network
//! is block-diagonal: each tenant's datacenters form a complete digraph
//! with seeded prices, and **no link crosses tenants**, so the workload is
//! tenant-disjoint by construction. On such instances the sharded
//! runtime's reconciliation pass never finds a shared-link conflict and
//! the merged objective must match the unsharded solve — the property the
//! equivalence tests in `tests/shard.rs` are built on.
//!
//! Requests carry their owner in the [`FileId`] high bits
//! ([`FileId::for_tenant`]), which is exactly what
//! `postcard serve --shards N --shard-by tenant` partitions on.

use crate::workload::Trace;
use postcard_net::{DcId, FileId, Network, NetworkBuilder, TransferRequest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A block-diagonal multi-tenant setting.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantScenario {
    /// Display name (e.g. `"quad"`).
    pub name: String,
    /// Number of tenants (= shard count under `--shard-by tenant`).
    pub tenants: usize,
    /// Datacenters per tenant cluster.
    pub dcs_per_tenant: usize,
    /// Uniform per-link capacity (GB/slot) inside every cluster.
    pub capacity_gb: f64,
    /// Uniform price range `a_ij ~ U[lo, hi]` ($/GB).
    pub price_range: (f64, f64),
    /// Batch-size range per tenant per slot.
    pub files_per_tenant_slot: (usize, usize),
    /// File-size range (GB).
    pub size_gb: (f64, f64),
    /// Deadline range (slots).
    pub deadline_slots: (usize, usize),
    /// Slots per run.
    pub num_slots: u64,
}

impl TenantScenario {
    /// The four-tenant setting used by the equivalence tests in
    /// `tests/shard.rs`: 4 clusters of 3 datacenters, ample capacity,
    /// paper-style prices and deadlines.
    pub fn quad() -> Self {
        Self {
            name: "quad".into(),
            tenants: 4,
            dcs_per_tenant: 3,
            capacity_gb: 100.0,
            price_range: (1.0, 10.0),
            files_per_tenant_slot: (1, 2),
            size_gb: (10.0, 40.0),
            deadline_slots: (1, 3),
            num_slots: 8,
        }
    }

    /// Total datacenter count across all clusters.
    pub fn num_dcs(&self) -> usize {
        self.tenants * self.dcs_per_tenant
    }

    /// The datacenter ids of one tenant's cluster.
    pub fn dcs_of(&self, tenant: usize) -> std::ops::Range<usize> {
        let lo = tenant * self.dcs_per_tenant;
        lo..lo + self.dcs_per_tenant
    }

    /// Samples the block-diagonal network: a complete digraph *within* each
    /// tenant's cluster, no links between clusters.
    pub fn network(&self, seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let (lo, hi) = self.price_range;
        let mut b = NetworkBuilder::new(self.num_dcs());
        for tenant in 0..self.tenants {
            for i in self.dcs_of(tenant) {
                for j in self.dcs_of(tenant) {
                    if i != j {
                        b = b.link(DcId(i), DcId(j), rng.gen_range(lo..=hi), self.capacity_gb);
                    }
                }
            }
        }
        b.build()
    }

    /// Samples a tenant-tagged trace: every slot, every tenant releases a
    /// uniform batch whose endpoints stay inside its own cluster and whose
    /// ids carry the tenant in their high bits.
    pub fn trace(&self, seed: u64) -> Trace {
        assert!(self.dcs_per_tenant >= 2, "a cluster needs at least two datacenters");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seqs = vec![0u64; self.tenants];
        let mut requests = Vec::new();
        for slot in 0..self.num_slots {
            for (tenant, seq) in seqs.iter_mut().enumerate() {
                let count =
                    rng.gen_range(self.files_per_tenant_slot.0..=self.files_per_tenant_slot.1);
                for _ in 0..count {
                    let base = tenant * self.dcs_per_tenant;
                    let src = base + rng.gen_range(0..self.dcs_per_tenant);
                    let mut dst = base + rng.gen_range(0..self.dcs_per_tenant);
                    while dst == src {
                        dst = base + rng.gen_range(0..self.dcs_per_tenant);
                    }
                    let size = rng.gen_range(self.size_gb.0..=self.size_gb.1);
                    let deadline = rng.gen_range(self.deadline_slots.0..=self.deadline_slots.1);
                    let id = FileId::for_tenant(tenant as u16, *seq);
                    *seq += 1;
                    requests.push(TransferRequest::new(
                        id,
                        DcId(src),
                        DcId(dst),
                        size,
                        deadline,
                        slot,
                    ));
                }
            }
        }
        Trace::from_requests(requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_is_block_diagonal() {
        let s = TenantScenario::quad();
        let net = s.network(3);
        assert_eq!(net.num_dcs(), 12);
        for l in net.links() {
            assert_eq!(
                l.from.0 / s.dcs_per_tenant,
                l.to.0 / s.dcs_per_tenant,
                "link {:?} -> {:?} crosses tenant clusters",
                l.from,
                l.to
            );
        }
        // Every cluster is internally complete.
        let per_cluster = s.dcs_per_tenant * (s.dcs_per_tenant - 1);
        assert_eq!(net.num_links(), s.tenants * per_cluster);
    }

    #[test]
    fn trace_is_tenant_tagged_and_cluster_local() {
        let s = TenantScenario::quad();
        let t = s.trace(9);
        assert!(!t.is_empty());
        for r in t.requests() {
            let tenant = r.id.tenant() as usize;
            assert!(tenant < s.tenants);
            assert!(s.dcs_of(tenant).contains(&r.src.0), "{r:?}");
            assert!(s.dcs_of(tenant).contains(&r.dst.0), "{r:?}");
            assert_ne!(r.src, r.dst);
        }
        // All tenants release traffic.
        for tenant in 0..s.tenants {
            assert!(t.requests().iter().any(|r| r.id.tenant() as usize == tenant));
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let s = TenantScenario::quad();
        assert_eq!(s.network(5), s.network(5));
        assert_eq!(s.trace(5), s.trace(5));
        assert_ne!(s.trace(5), s.trace(6));
    }
}
