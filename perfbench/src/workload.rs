//! The benchmark workloads: fleet shape, trace length, and lifecycle plan.
//!
//! A workload's trace is fixed: the generator always runs at
//! [`TRACE_SEED`]. The generator draws a cluster's character (memory
//! demand, untouched-memory bias, customer mix) from its seed, so a new
//! trace seed is a different cluster, and the simulated results swing with
//! it by more than any regression bound (see `README.md`). The workload
//! seed drives the randomness the replay itself consumes instead: policy
//! training and telemetry sampling, and the drill's failure schedule.

use cluster_sim::source::ArrivalSource;
use cluster_sim::tracegen::{ClusterConfig, TraceGenerator};
use cxl_hw::topology::PodStyle;
use cxl_hw::units::Bytes;
use pond_core::multipool::{
    DrillKind, FailureDrillSpec, GroupSchedulerKind, LifecycleEvent, LifecycleOp, LifecyclePlan,
    MultiPoolConfig, RebalanceSpec,
};

/// Hosts per Octopus pod: the paper's 8–16-socket pool at its upper end.
const POD_HOSTS: u32 = 16;
/// Share of fleet DRAM moved into the pools.
const POOL_FRACTION: f64 = 0.20;
/// Repair time of a failed memory device in the drill.
const MTTR_SECS: u64 = 6 * 3_600;
/// The generator seed every workload's trace is drawn from: the
/// repository's standard generator seed.
pub const TRACE_SEED: u64 = TraceGenerator::DEFAULT_SEED;
/// Salt that separates the drill's failure schedule from the policy seed.
const DRILL_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 8,192 hosts for one day in 512 pods: per-group work dominates.
    Octopus512Day,
    /// 256 hosts for 224 days in 16 pods: the per-pod control plane, the
    /// ladder, and trace-length memory dominate. A diagnostic that
    /// `BENCHMARK.json` does not list: `Octopus16Drill` minus this is the
    /// lifecycle cost.
    Octopus16Long,
    /// `Octopus16Long` plus failures, repairs, a decommission, an
    /// expansion, and rebalancing.
    Octopus16Drill,
}

/// Workload scale: the benchmark's full size, or a small shape of the same
/// workload for the smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
        }
    }
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::Octopus512Day, Workload::Octopus16Long, Workload::Octopus16Drill];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Octopus512Day => "octopus512-day",
            Workload::Octopus16Long => "octopus16-long",
            Workload::Octopus16Drill => "octopus16-drill",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Pods in the fleet; every pod holds [`POD_HOSTS`] hosts.
    fn pods(self, size: Size) -> u32 {
        match (self, size) {
            (Workload::Octopus512Day, Size::Full) => 512,
            (Workload::Octopus512Day, Size::Smoke) => 32,
            (_, _) => 16,
        }
    }

    fn days(self, size: Size) -> u32 {
        match (self, size) {
            (Workload::Octopus512Day, _) => 1,
            (_, Size::Full) => 224,
            (_, Size::Smoke) => 7,
        }
    }

    /// The trace generator: `azure_like` VM mix at this workload's fleet
    /// size and length.
    pub fn generator(self, size: Size) -> TraceGenerator {
        let cluster = ClusterConfig {
            servers: self.pods(size) * POD_HOSTS,
            duration_days: self.days(size),
            ..ClusterConfig::azure_like()
        };
        TraceGenerator::new(cluster, 1).with_seed(TRACE_SEED)
    }

    /// The fleet configuration for `seed`: Octopus pods, 20% pool,
    /// round-robin group scheduling, borrowing on.
    pub fn config(self, size: Size, generator: &TraceGenerator, seed: u64) -> MultiPoolConfig {
        let header = generator.stream(0).header().clone();
        let groups = u16::try_from(self.pods(size)).expect("pod counts fit u16");
        let mut config = MultiPoolConfig::for_header(
            &header,
            PodStyle::Octopus,
            groups,
            POOL_FRACTION,
            GroupSchedulerKind::RoundRobin,
            seed,
        )
        .with_borrowing(true);
        if self == Workload::Octopus512Day {
            return config;
        }
        // A 224-day trace trains on its first ~22 days.
        config.control.policy.training_fraction = 0.10;
        if self == Workload::Octopus16Drill {
            let duration = header.duration;
            config = config
                .with_drill(FailureDrillSpec {
                    rate_per_day: 8.0,
                    kind: DrillKind::EmcWithRepair { mttr_secs: MTTR_SECS },
                    seed: seed ^ DRILL_SALT,
                })
                .with_lifecycle(LifecyclePlan {
                    events: vec![
                        LifecycleEvent {
                            time: duration / 3,
                            op: LifecycleOp::ExpandGroup {
                                group: 0,
                                capacity: Bytes::from_gib(32),
                            },
                        },
                        LifecycleEvent {
                            time: duration / 2,
                            op: LifecycleOp::DecommissionGroup { group: 3 },
                        },
                    ],
                })
                .with_rebalance(RebalanceSpec { starved_fraction: 0.10, max_moves_per_pass: 2 });
        }
        config
    }
}
