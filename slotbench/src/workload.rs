//! The three benchmark workloads, generated from a seed.
//!
//! Generation is the benchmark's job; the program under test only ever sees
//! the generated network and trace as CSV text (parsed in [`Instance::start`],
//! which is what `setup_s` times), plus the runtime configuration and fault
//! plan the workload fixes.

use postcard_net::{ChargingScheme, DcId, Network};
use postcard_runtime::{ArrivalSchedule, FaultPlan, Runtime, RuntimeConfig};
use postcard_sim::{DiurnalWorkload, Scenario, Trace, UniformWorkload, WorkloadConfig};
use std::path::Path;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Scaled-down Fig. 7: every slot is a cold Postcard LP under strict
    /// analysis.
    Fig7Lp,
    /// The paper's 20-DC network with hundreds of requests per slot through
    /// the ALAP admission rung; the LP never runs.
    AlapBurst,
    /// Diurnal traffic billed at p95 with the headroom rung, a checkpoint
    /// per billing window, one reprice and one maintenance window.
    P95Ckpt,
}

/// One generated run: the inputs handed to the program plus the
/// configuration the workload fixes.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The network in `from,to,price,capacity` CSV.
    pub network_csv: String,
    /// The arrivals in `id,src,dst,size_gb,deadline_slots,release_slot` CSV.
    pub trace_csv: String,
    /// Scheduled faults (reprices and maintenance windows).
    pub faults: FaultPlan,
    /// Slots to serve (the runtime extends this to cover every deadline).
    pub num_slots: u64,
    /// The runtime configuration: one shard, simulated clock.
    pub config: RuntimeConfig,
}

impl Instance {
    /// Parses the generated inputs and builds a fresh runtime over them.
    ///
    /// # Errors
    ///
    /// Reports malformed inputs or a configuration the runtime rejects.
    pub fn start(&self) -> Result<Runtime, String> {
        let network = Network::from_csv(&self.network_csv)?;
        let arrivals = ArrivalSchedule::from_csv(&self.trace_csv)?;
        Runtime::new(network, arrivals, self.faults.clone(), self.num_slots, self.config.clone())
            .map_err(|e| e.to_string())
    }

    /// Files offered over the whole run.
    pub fn files_offered(&self) -> u64 {
        self.trace_csv.lines().skip(1).filter(|l| !l.trim().is_empty()).count() as u64
    }
}

/// Slots between `p95-ckpt` checkpoints: one per billing window (a 48-slot
/// day). With a checkpoint after every slot, the shared virtual disk's
/// write latency entered every slot: across seeds the p95 spread by 0.33 to
/// 0.59 of its median, and a checkpoint every eighth slot still spread it
/// by 0.24. At one per day, checkpoints are 2% of the slots, above the p95.
const CHECKPOINT_EVERY: u64 = 48;

/// The seed of the fixed networks (prices U[1, 10] per link).
const NETWORK_SEED: u64 = 2012;

/// A split-mix step: independent, reproducible sub-seeds from one seed.
fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 3] = [Workload::Fig7Lp, Workload::AlapBurst, Workload::P95Ckpt];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig7Lp => "fig7-lp",
            Workload::AlapBurst => "alap-burst",
            Workload::P95Ckpt => "p95-ckpt",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Instances (network + trace) per run. Each instance has its own
    /// network, so a run averages over several price draws instead of
    /// reporting one network's luck.
    pub fn num_instances(self) -> usize {
        match self {
            Workload::Fig7Lp => 8,
            Workload::AlapBurst => 1,
            Workload::P95Ckpt => 16,
        }
    }

    /// Slots of arrivals per instance.
    pub fn slots(self) -> u64 {
        match self {
            Workload::Fig7Lp => 200,
            Workload::AlapBurst => 200,
            Workload::P95Ckpt => 240,
        }
    }

    /// Generates the run's instances. The networks are the provider's
    /// fixed fleet: instance `i` always gets the network drawn from
    /// [`NETWORK_SEED`] and `i`, so runs compare like with like. `seed`
    /// draws the traffic. Checkpoints (p95-ckpt only) go to files under
    /// `run_dir`.
    pub fn instances(self, seed: u64, run_dir: &Path) -> Vec<Instance> {
        self.instances_with_slots(seed, run_dir, self.slots())
    }

    /// [`Workload::instances`] with `slots` slots of arrivals each (tests
    /// use short runs).
    pub(crate) fn instances_with_slots(
        self,
        seed: u64,
        run_dir: &Path,
        slots: u64,
    ) -> Vec<Instance> {
        (0..self.num_instances())
            .map(|i| {
                let net_seed = derive_seed(NETWORK_SEED, i as u64);
                let trace_seed = derive_seed(seed, i as u64);
                let checkpoint = run_dir.join(format!("ckpt{i}.json"));
                self.instance(net_seed, trace_seed, slots, &checkpoint)
            })
            .collect()
    }

    fn instance(self, net_seed: u64, trace_seed: u64, slots: u64, checkpoint: &Path) -> Instance {
        match self {
            Workload::Fig7Lp => {
                let scenario = Scenario::fig7().scaled_down();
                let trace = Trace::generate(&mut scenario.workload(trace_seed), slots);
                Instance {
                    network_csv: scenario.network(net_seed).to_csv(),
                    trace_csv: trace.to_csv(),
                    faults: FaultPlan::none(),
                    num_slots: slots,
                    config: RuntimeConfig { strict_analysis: true, ..RuntimeConfig::default() },
                }
            }
            Workload::AlapBurst => {
                let scenario = Scenario::fig5();
                let config = WorkloadConfig {
                    num_dcs: scenario.num_dcs,
                    files_per_slot: (200, 600),
                    size_gb: scenario.size_gb,
                    deadline_slots: scenario.deadline_slots,
                };
                let trace = Trace::generate(&mut UniformWorkload::new(config, trace_seed), slots);
                Instance {
                    network_csv: scenario.network(net_seed).to_csv(),
                    trace_csv: trace.to_csv(),
                    faults: FaultPlan::none(),
                    num_slots: slots,
                    config: RuntimeConfig {
                        alap: true,
                        reopt_every: 0,
                        ..RuntimeConfig::default()
                    },
                }
            }
            Workload::P95Ckpt => {
                let scenario = Scenario::fig4().scaled_down();
                let day = 48;
                let config = WorkloadConfig {
                    num_dcs: scenario.num_dcs,
                    files_per_slot: scenario.files_per_slot,
                    size_gb: scenario.size_gb,
                    deadline_slots: scenario.deadline_slots,
                };
                let mut traffic = DiurnalWorkload::new(config, 6.0, 0.5, day, trace_seed);
                let trace = Trace::generate(&mut traffic, slots);
                // One tariff rise half-way through, and one half-day
                // maintenance outage on another link two days later.
                let faults = FaultPlan::none().reprice(slots / 2, DcId(0), DcId(1), 12.0).maintain(
                    slots / 2 + 2 * day,
                    slots / 2 + 2 * day + day / 2,
                    DcId(2),
                    DcId(3),
                );
                Instance {
                    network_csv: scenario.network(net_seed).to_csv(),
                    trace_csv: trace.to_csv(),
                    faults,
                    num_slots: slots,
                    config: RuntimeConfig {
                        charging: ChargingScheme::Percentile {
                            q: 95.0,
                            window_slots: day as usize,
                        },
                        checkpoint_every: CHECKPOINT_EVERY,
                        checkpoint_path: Some(checkpoint.display().to_string()),
                        ..RuntimeConfig::default()
                    },
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let dir = Path::new("unused");
        for w in Workload::ALL {
            let a = w.instances(7, dir);
            let b = w.instances(7, dir);
            let c = w.instances(8, dir);
            assert_eq!(a.len(), w.num_instances());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.network_csv, y.network_csv);
                assert_eq!(x.trace_csv, y.trace_csv);
            }
            assert_ne!(a[0].trace_csv, c[0].trace_csv, "{}", w.name());
        }
    }

    #[test]
    fn generated_inputs_parse_and_start() {
        let dir = Path::new("unused");
        for w in [Workload::Fig7Lp, Workload::AlapBurst] {
            let inst = &w.instances(3, dir)[0];
            let rt = inst.start().expect("generated inputs must start a runtime");
            assert!(rt.num_slots() >= w.slots());
            assert!(inst.files_offered() > 0);
        }
    }
}
