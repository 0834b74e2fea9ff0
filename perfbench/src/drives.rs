//! Isolated drives of single layers over the workload's own inputs, each
//! through the layer's public functions.

use crate::stats::{proc_status_mb, timed};
use cluster_sim::event::{Event, EventQueue};
use cluster_sim::source::ArrivalSource;
use cluster_sim::trace::VmRequest;
use cluster_sim::tracegen::TraceGenerator;
use pond_core::control_plane::{ControlPlaneConfig, PondControlPlane};
use pond_core::multipool::MultiPoolConfig;
use pond_core::policy::PondPolicy;
use std::hint::black_box;

/// Arrivals the group-scan drive probes every plane for.
const SCAN_ARRIVALS: usize = 20_000;
/// Requests the policy drive decides and feeds back.
const DECIDE_REQUESTS: usize = 50_000;

/// Per-layer figures measured outside the replay.
#[derive(Debug, Clone, PartialEq)]
pub struct Drives {
    /// Requests in the workload's stream.
    pub requests: u64,
    pub stream_ns_per_request: f64,
    pub queue_ns_per_event: f64,
    pub decide_ns: f64,
    pub control_plane_build_s: f64,
    pub rss_after_setup_mb: f64,
    pub group_scan_ns: f64,
}

/// The workload's first `n` requests.
pub fn first_requests(generator: &TraceGenerator, n: usize) -> Vec<VmRequest> {
    let mut source = generator.stream(0);
    let mut requests = Vec::with_capacity(n);
    while requests.len() < n {
        match source.next_request().expect("generator streams never fail") {
            Some(request) => requests.push(request),
            None => break,
        }
    }
    requests
}

/// Requests in the workload's stream.
pub fn count_requests(generator: &TraceGenerator) -> u64 {
    let mut source = generator.stream(0);
    let mut count = 0;
    while let Some(request) = source.next_request().expect("generator streams never fail") {
        black_box(&request);
        count += 1;
    }
    count
}

/// Builds one control plane per pool group exactly as the replay does:
/// the fleet template resized to the group's hosts and pool, each with its
/// own clone of the trained policy.
pub fn build_planes(config: &MultiPoolConfig, policy: &PondPolicy) -> Vec<PondControlPlane> {
    let topology = config.group_topology().expect("benchmark topologies are valid");
    (0..topology.group_count())
        .map(|g| {
            let group = ControlPlaneConfig {
                hosts: topology.hosts_in(g),
                pool_capacity: topology.pool(g).total_capacity(),
                ..config.control.clone()
            };
            PondControlPlane::with_policy(group, policy.clone())
                .expect("benchmark planes are valid")
        })
        .collect()
}

/// The event core alone: every arrival is taken and its departure
/// scheduled, with no placement work in between.
fn drive_queue(generator: &TraceGenerator, snapshot_interval: u64) -> f64 {
    let (events, secs) = timed(|| {
        let mut queue = EventQueue::new(generator.stream(0), snapshot_interval);
        let mut events = 0u64;
        while let Some(event) = queue.next_event() {
            events += 1;
            if let Event::Arrival { request_index, .. } = event {
                let request = queue.take_arrival();
                queue.schedule_departure(request.departure(), request_index as u64, request_index);
            }
        }
        events
    });
    secs * 1e9 / events as f64
}

/// Policy inference plus the completion feedback the control plane gives
/// it at departure, over the workload's first requests.
fn drive_policy(policy: &PondPolicy, requests: &[VmRequest]) -> f64 {
    let mut policy = policy.clone();
    let ((), secs) = timed(|| {
        for request in requests {
            black_box(policy.try_decide(request).expect("serving features match training"));
            policy.record_completion(
                request.customer,
                request.untouched_fraction,
                request.workload_index,
            );
        }
    });
    secs * 1e9 / requests.len() as f64
}

/// The four plane accessors a group view reads, over every plane, once
/// per arrival.
fn drive_group_scan(planes: &[PondControlPlane], requests: &[VmRequest]) -> f64 {
    let ((), secs) = timed(|| {
        for request in requests {
            for plane in planes {
                black_box(plane.pool().available());
                black_box(plane.most_free_host());
                black_box(plane.tightest_feasible_host(request.memory));
                black_box(plane.running_vms());
            }
        }
    });
    secs * 1e9 / requests.len() as f64
}

/// Runs every drive. Call it right after set-up: the resident-set figure
/// is read while the freshly built planes are alive.
pub fn run(generator: &TraceGenerator, config: &MultiPoolConfig, policy: &PondPolicy) -> Drives {
    let (planes, control_plane_build_s) = timed(|| build_planes(config, policy));
    let rss_after_setup_mb = proc_status_mb("VmRSS:").unwrap_or(0.0);
    let scan_requests = first_requests(generator, SCAN_ARRIVALS);
    let group_scan_ns = drive_group_scan(&planes, &scan_requests);
    drop(planes);

    let (requests, stream_secs) = timed(|| count_requests(generator));
    let stream_ns_per_request = stream_secs * 1e9 / requests as f64;
    let queue_ns_per_event = drive_queue(generator, config.qos_interval);
    let decide_ns = drive_policy(policy, &first_requests(generator, DECIDE_REQUESTS));
    Drives {
        requests,
        stream_ns_per_request,
        queue_ns_per_event,
        decide_ns,
        control_plane_build_s,
        rss_after_setup_mb,
        group_scan_ns,
    }
}
