//! The outcome gate: a timing counts only if its replay produced the
//! right outcome.
//!
//! Every replay must satisfy the accounting identities below, and every
//! replay of one run must equal the first bit for bit. For the pinned
//! seeds in [`PINS`] the outcome must also equal the recorded one, so a
//! change that alters simulated behaviour fails the run instead of timing
//! a different replay.

use crate::workload::{Size, Workload};
use pond_core::fleet::FleetOutcome;
use pond_core::multipool::MultiPoolOutcome;

/// The seed later changes confirm a claim on. It is pinned below and is
/// not used while tuning a change.
pub const HELD_OUT_SEED: u64 = 7919;

/// The deterministic summary of one replay the gate compares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Digest {
    pub scheduled: u64,
    pub rejected: u64,
    pub killed: u64,
    pub events: u64,
    pub dram_saved: f64,
    /// FNV-1a hash of the per-group breakdown (see [`fingerprint`]).
    pub groups: u64,
}

impl Digest {
    pub fn of(outcome: &MultiPoolOutcome) -> Digest {
        let fleet = &outcome.fleet;
        Digest {
            scheduled: fleet.scheduled_vms,
            rejected: fleet.rejected_vms,
            killed: fleet.vms_killed,
            events: replay_events(fleet),
            dram_saved: fleet.dram_savings_fraction(),
            groups: fingerprint(outcome),
        }
    }
}

/// Hashes a fixed list of every group's placement, QoS, lifecycle, and
/// DRAM-peak tallies, plus the cross-group placement count, so a change
/// that moves work between groups shows even where the fleet totals
/// agree. The list is fixed, so adding an outcome field changes nothing.
fn fingerprint(outcome: &MultiPoolOutcome) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    let mut mix = |value: u64| {
        for byte in value.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
        }
    };
    mix(outcome.cross_group_placements);
    for g in &outcome.per_group {
        for value in [
            g.scheduled_vms,
            g.rejected_vms,
            g.fallback_all_local,
            g.violations,
            g.mitigations,
            g.reconfig_completions,
            g.releases_completed,
            g.emc_failures,
            g.vms_migrated,
            g.vms_killed,
            g.vms_drained,
            g.vms_rebalanced,
            g.vms_borrowed,
            g.pooled_host_count,
            g.sum_local_peaks.as_u64(),
            g.sum_host_pool_peaks.as_u64(),
            g.sum_total_peaks.as_u64(),
            g.pool_peak.as_u64(),
            g.pool_gib_hours.to_bits(),
            g.total_gib_hours.to_bits(),
        ] {
            mix(value);
        }
    }
    hash
}

/// A recorded outcome for one (workload, size, seed).
struct Pin {
    workload: Workload,
    size: Size,
    seed: u64,
    digest: Digest,
    /// Ladder decisions by rung, in `tracer::RUNGS` order.
    ladder: [u64; 6],
}

/// Recorded outcomes: seeds 1–5 and the held-out seed at full size, seed 3
/// at smoke size. A row is regenerated only by a change that means to
/// alter simulated behaviour; the traced run prints the row for its seed.
#[rustfmt::skip]
const PINS: &[Pin] = &[
    Pin { workload: Workload::Octopus512Day, size: Size::Full, seed: 1, digest: Digest { scheduled: 78697, rejected: 276, killed: 0, events: 215123, dram_saved: 0.08009966738945962, groups: 0x5fa6af0ca73ab6c2 }, ladder: [44012, 1214, 4682, 28763, 26, 276] },
    Pin { workload: Workload::Octopus512Day, size: Size::Full, seed: 2, digest: Digest { scheduled: 78694, rejected: 279, killed: 0, events: 215364, dram_saved: 0.08085092685187967, groups: 0xfdeb28231d3c7bd8 }, ladder: [44255, 1104, 4782, 28523, 30, 279] },
    Pin { workload: Workload::Octopus512Day, size: Size::Full, seed: 3, digest: Digest { scheduled: 78696, rejected: 277, killed: 0, events: 215118, dram_saved: 0.08128640780861218, groups: 0xa5c7162034df6a8e }, ladder: [44109, 1162, 4647, 28748, 30, 277] },
    Pin { workload: Workload::Octopus512Day, size: Size::Full, seed: 4, digest: Digest { scheduled: 78700, rejected: 273, killed: 0, events: 215247, dram_saved: 0.08092987343084712, groups: 0xd57a2c4839f64cb6 }, ladder: [44126, 1149, 4746, 28645, 34, 273] },
    Pin { workload: Workload::Octopus512Day, size: Size::Full, seed: 5, digest: Digest { scheduled: 78698, rejected: 275, killed: 0, events: 215411, dram_saved: 0.08105577801106911, groups: 0x1cb5a71b9877cdce }, ladder: [44318, 1155, 4674, 28520, 31, 275] },
    Pin { workload: Workload::Octopus512Day, size: Size::Full, seed: 7919, digest: Digest { scheduled: 78695, rejected: 278, killed: 0, events: 215189, dram_saved: 0.08070995763847932, groups: 0xd2c5ea464390fc2e }, ladder: [44101, 1177, 4714, 28673, 30, 278] },
    Pin { workload: Workload::Octopus512Day, size: Size::Smoke, seed: 3, digest: Digest { scheduled: 4848, rejected: 21, killed: 0, events: 13290, dram_saved: 0.07108379029723022, groups: 0x6db6e309410274d7 }, ladder: [2677, 63, 305, 1800, 3, 21] },
    Pin { workload: Workload::Octopus16Long, size: Size::Full, seed: 1, digest: Digest { scheduled: 185748, rejected: 920, killed: 0, events: 557211, dram_saved: 0.49427806990821066, groups: 0x821febb20722e185 }, ladder: [114661, 19579, 22024, 29342, 142, 920] },
    Pin { workload: Workload::Octopus16Long, size: Size::Full, seed: 2, digest: Digest { scheduled: 185752, rejected: 916, killed: 0, events: 557586, dram_saved: 0.4839385474860335, groups: 0xd325206a661ed9de }, ladder: [115588, 19329, 21377, 29303, 155, 916] },
    Pin { workload: Workload::Octopus16Long, size: Size::Full, seed: 3, digest: Digest { scheduled: 185744, rejected: 924, killed: 0, events: 556617, dram_saved: 0.498331486801165, groups: 0x271f07d0a2b22451 }, ladder: [112933, 21205, 21602, 29846, 158, 924] },
    Pin { workload: Workload::Octopus16Long, size: Size::Full, seed: 4, digest: Digest { scheduled: 185763, rejected: 905, killed: 0, events: 556886, dram_saved: 0.4996516511734379, groups: 0xc2347ed6a6dc7906 }, ladder: [112877, 20255, 22590, 29889, 152, 905] },
    Pin { workload: Workload::Octopus16Long, size: Size::Full, seed: 5, digest: Digest { scheduled: 185749, rejected: 919, killed: 0, events: 557318, dram_saved: 0.4973341310995878, groups: 0xca527fd5fba37f2b }, ladder: [113324, 22002, 20632, 29631, 160, 919] },
    Pin { workload: Workload::Octopus16Long, size: Size::Full, seed: 7919, digest: Digest { scheduled: 185768, rejected: 900, killed: 0, events: 556036, dram_saved: 0.49634978311268174, groups: 0x3bc07b8579e5031f }, ladder: [111749, 21449, 22091, 30340, 139, 900] },
    Pin { workload: Workload::Octopus16Long, size: Size::Smoke, seed: 3, digest: Digest { scheduled: 7302, rejected: 28, killed: 0, events: 21803, dram_saved: 0.2616678589235004, groups: 0xb8d96e8e87d3a090 }, ladder: [5135, 430, 471, 1265, 1, 28] },
    Pin { workload: Workload::Octopus16Drill, size: Size::Full, seed: 1, digest: Digest { scheduled: 185997, rejected: 671, killed: 191, events: 616085, dram_saved: 0.6660791169416592, groups: 0xa7ff7a6ad306a0eb }, ladder: [147889, 23397, 2160, 12322, 229, 671] },
    Pin { workload: Workload::Octopus16Drill, size: Size::Full, seed: 2, digest: Digest { scheduled: 186018, rejected: 650, killed: 160, events: 616488, dram_saved: 0.6627012790463415, groups: 0x053f4fa3f48480ad }, ladder: [147687, 23315, 2295, 12540, 181, 650] },
    Pin { workload: Workload::Octopus16Drill, size: Size::Full, seed: 3, digest: Digest { scheduled: 186026, rejected: 642, killed: 186, events: 616667, dram_saved: 0.6545173414761041, groups: 0x8c4d28b7400afb5e }, ladder: [147611, 23690, 1978, 12541, 206, 642] },
    Pin { workload: Workload::Octopus16Drill, size: Size::Full, seed: 4, digest: Digest { scheduled: 186042, rejected: 626, killed: 167, events: 617230, dram_saved: 0.6600092401871138, groups: 0x67e2def8ecce630c }, ladder: [147657, 23074, 2258, 12806, 247, 626] },
    Pin { workload: Workload::Octopus16Drill, size: Size::Full, seed: 5, digest: Digest { scheduled: 186027, rejected: 641, killed: 185, events: 617221, dram_saved: 0.6588050768357341, groups: 0xf20b902838015855 }, ladder: [147261, 23746, 2238, 12580, 202, 641] },
    Pin { workload: Workload::Octopus16Drill, size: Size::Full, seed: 7919, digest: Digest { scheduled: 186042, rejected: 626, killed: 187, events: 615697, dram_saved: 0.6595565133231942, groups: 0xf77f5c8116cbc36f }, ladder: [147228, 23491, 2246, 12871, 206, 626] },
    Pin { workload: Workload::Octopus16Drill, size: Size::Smoke, seed: 3, digest: Digest { scheduled: 7305, rejected: 25, killed: 3, events: 23104, dram_saved: 0.33080025108900346, groups: 0x5aec7879d81cb41e }, ladder: [5232, 596, 214, 1255, 8, 25] },
];

/// Events the replay pops, counted from its outcome: arrivals, departures
/// (one per placed VM, killed ones included), release, reconfiguration
/// and migration completions, QoS ticks, and lifecycle operations.
pub fn replay_events(fleet: &FleetOutcome) -> u64 {
    let arrivals = fleet.scheduled_vms + fleet.rejected_vms;
    let lifecycle = fleet.emc_failures
        + fleet.emcs_repaired
        + fleet.groups_decommissioned
        + fleet.groups_expanded;
    arrivals
        + fleet.scheduled_vms
        + fleet.releases_completed
        + fleet.reconfig_completions
        + fleet.migration_completions
        + fleet.qos_passes
        + lifecycle
}

/// Accounting identities every replay of `requests` requests must meet.
pub fn check_identities(outcome: &MultiPoolOutcome, requests: u64) -> Result<(), String> {
    let fleet = &outcome.fleet;
    let sum = |f: fn(&FleetOutcome) -> u64| outcome.per_group.iter().map(f).sum::<u64>();
    let checks = [
        (fleet.scheduled_vms + fleet.rejected_vms == requests, "every request is decided once"),
        (sum(|g| g.scheduled_vms) == fleet.scheduled_vms, "per-group scheduled sums to fleet"),
        (sum(|g| g.rejected_vms) == fleet.rejected_vms, "per-group rejected sums to fleet"),
        (fleet.vms_killed <= fleet.scheduled_vms, "only placed VMs can be killed"),
        (
            fleet.migration_completions
                == fleet.vms_migrated + fleet.vms_drained + fleet.vms_rebalanced,
            "one migration completion per migration copy",
        ),
        ((0.0..1.0).contains(&fleet.dram_savings_fraction()), "DRAM savings lie in [0, 1)"),
        (fleet.mitigations <= fleet.scheduled_vms, "mitigations are bounded by placements"),
    ];
    match checks.iter().find(|(ok, _)| !ok) {
        Some((_, what)) => Err(format!("outcome identity broken: {what}")),
        None => Ok(()),
    }
}

fn pin(workload: Workload, size: Size, seed: u64) -> Option<&'static Pin> {
    PINS.iter().find(|p| p.workload == workload && p.size == size && p.seed == seed)
}

/// Whether [`PINS`] records an outcome for this run.
pub fn is_pinned(workload: Workload, size: Size, seed: u64) -> bool {
    pin(workload, size, seed).is_some()
}

/// Checks `digest` (and `ladder`, when the run was traced) against the
/// pinned row for this seed, if there is one.
pub fn check_pin(
    workload: Workload,
    size: Size,
    seed: u64,
    digest: &Digest,
    ladder: Option<&[u64; 6]>,
) -> Result<(), String> {
    let Some(pin) = pin(workload, size, seed) else { return Ok(()) };
    if pin.digest != *digest {
        return Err(format!("outcome {digest:?} differs from the pinned {:?}", pin.digest));
    }
    match ladder {
        Some(ladder) if pin.ladder != *ladder => {
            Err(format!("ladder {ladder:?} differs from the pinned {:?}", pin.ladder))
        }
        _ => Ok(()),
    }
}

/// The [`PINS`] row for an outcome, as Rust source.
pub fn pin_row(
    workload: Workload,
    size: Size,
    seed: u64,
    digest: &Digest,
    ladder: &[u64; 6],
) -> String {
    format!(
        "Pin {{ workload: Workload::{workload:?}, size: Size::{size:?}, seed: {seed}, \
         digest: Digest {{ scheduled: {}, rejected: {}, killed: {}, events: {}, \
         dram_saved: {:?}, groups: {:#018x} }}, ladder: {ladder:?} }},",
        digest.scheduled,
        digest.rejected,
        digest.killed,
        digest.events,
        digest.dram_saved,
        digest.groups,
    )
}
