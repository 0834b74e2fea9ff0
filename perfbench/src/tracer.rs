//! The traced run's observer: wall-clock windows between replay hooks plus
//! the deterministic decision, QoS, and lifecycle counts.
//!
//! Each `on_event` closes the window opened by the previous hook and opens
//! one for the popped event's class. An arrival's window closes at its
//! ladder decision (`on_decision`), which opens the `post_event` window
//! that runs to the next pop. Samples stay in memory; the caller
//! summarizes them after the replay. Time before the first pop (plane
//! construction) and after the last one (final accounting) belongs to no
//! window: it is the replay's unattributed remainder.

use cluster_sim::event::Event;
use pond_metrics::{DecisionTrace, LadderRung, LifecycleTrace, QosPassTrace, ReplayObserver};
use std::time::Instant;

/// Window names, in report order. The first two split an arrival at its
/// ladder decision; the rest are one window per non-arrival event class.
pub const WINDOWS: [&str; 11] = [
    "arrival",
    "post_event",
    "departure",
    "release",
    "reconfig_done",
    "migration_done",
    "snapshot",
    "emc_failure",
    "emc_repair",
    "decommission",
    "expansion",
];
const ARRIVAL: usize = 0;
const POST_EVENT: usize = 1;

/// Every ladder rung, in report order.
pub const RUNGS: [LadderRung; 6] = [
    LadderRung::PooledHome,
    LadderRung::BorrowedNeighbor,
    LadderRung::PooledNeighbor,
    LadderRung::AllLocalHome,
    LadderRung::AllLocalNeighbor,
    LadderRung::Rejected,
];

/// Every lifecycle operation name `LifecycleOpKind::name` can return.
pub const LIFECYCLE_OPS: [&str; 8] = [
    "emc_failure",
    "emc_repair",
    "decommission_started",
    "decommission_complete",
    "expansion",
    "vm_evacuated",
    "vm_drained",
    "vm_rebalanced",
];

fn window_of(event: &Event) -> usize {
    match event {
        Event::Arrival { .. } => ARRIVAL,
        Event::Departure { .. } => 2,
        Event::Release { .. } => 3,
        Event::ReconfigDone { .. } => 4,
        Event::MigrationDone { .. } => 5,
        Event::Snapshot { .. } => 6,
        Event::EmcFailure { .. } => 7,
        Event::EmcRepair { .. } => 8,
        Event::GroupDecommission { .. } => 9,
        Event::GroupExpansion { .. } => 10,
    }
}

/// The traced replay's observer.
#[derive(Debug)]
pub struct WindowTracer {
    open: Option<(usize, Instant)>,
    /// Per-window durations in nanoseconds, one per closed window.
    pub samples: Vec<Vec<u64>>,
    /// Events popped, by window index (`post_event` stays zero).
    pub events: [u64; WINDOWS.len()],
    /// Ladder decisions, by [`RUNGS`] index.
    pub rungs: [u64; RUNGS.len()],
    pub qos_passes: u64,
    pub qos_reconfigured: u64,
    /// Lifecycle operations, by [`LIFECYCLE_OPS`] index.
    pub lifecycle: [u64; LIFECYCLE_OPS.len()],
}

impl WindowTracer {
    /// A tracer with room for `arrivals` arrival samples, so the hot path
    /// rarely reallocates.
    pub fn with_capacity(arrivals: usize) -> Self {
        let mut samples = vec![Vec::new(); WINDOWS.len()];
        for window in [ARRIVAL, POST_EVENT, 2] {
            samples[window].reserve(arrivals);
        }
        WindowTracer {
            open: None,
            samples,
            events: [0; WINDOWS.len()],
            rungs: [0; RUNGS.len()],
            qos_passes: 0,
            qos_reconfigured: 0,
            lifecycle: [0; LIFECYCLE_OPS.len()],
        }
    }

    fn switch(&mut self, next: usize) {
        let now = Instant::now();
        if let Some((window, start)) = self.open.replace((next, now)) {
            self.samples[window].push(now.duration_since(start).as_nanos() as u64);
        }
    }

    /// Seconds covered by closed windows.
    pub fn window_secs(&self) -> f64 {
        self.samples.iter().flatten().sum::<u64>() as f64 * 1e-9
    }
}

impl ReplayObserver for WindowTracer {
    fn on_event(&mut self, event: &Event) {
        let window = window_of(event);
        self.switch(window);
        self.events[window] += 1;
    }

    fn on_decision(&mut self, decision: &DecisionTrace) {
        self.switch(POST_EVENT);
        let rung = RUNGS.iter().position(|&r| r == decision.rung).expect("every rung is listed");
        self.rungs[rung] += 1;
    }

    fn on_qos_pass(&mut self, pass: &QosPassTrace) {
        self.qos_passes += 1;
        self.qos_reconfigured += pass.reconfigured;
    }

    fn on_lifecycle_op(&mut self, op: &LifecycleTrace) {
        let name = op.kind.name();
        let index = LIFECYCLE_OPS.iter().position(|&n| n == name).expect("every op is listed");
        self.lifecycle[index] += 1;
    }
}
