//! The repository benchmark: replays one pooled-fleet workload through the
//! public sharded-replay entry point and prints every metric by name and
//! unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload octopus512-day --seed 1 --seconds 35 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no observer attached;
//! `--trace 1` makes a separate traced run for the per-layer metrics.
//! `--size smoke` runs a small shape of the same workload. The last line
//! of stdout is one JSON object; `perfbench/runs/` keeps a copy of it with
//! the run record. See `perfbench/README.md` for the workloads and what
//! each metric should move.

mod drives;
mod gate;
mod stats;
mod tracer;
mod workload;

use cluster_sim::tracegen::TraceGenerator;
use gate::{Digest, HELD_OUT_SEED};
use pond_core::multipool::{
    run_multipool_source, run_multipool_source_observed, MultiPoolConfig, MultiPoolOutcome,
};
use pond_core::policy::PondPolicy;
use stats::{median, proc_status_mb, quantile, timed};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use tracer::{WindowTracer, LIFECYCLE_OPS, RUNGS, WINDOWS};
use workload::{Size, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Fewest timed replays per untraced run, however short `--seconds` is.
const MIN_REPLAYS: usize = 3;

#[derive(Debug)]
struct Args {
    workload: Workload,
    size: Size,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut size, mut seed, mut seconds, mut trace) =
        (None, Size::Full, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                let names = Workload::ALL.map(Workload::name).join(", ");
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&names))?);
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    _ => return Err(bad("full or smoke")),
                }
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let secs: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(secs);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        size,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A workload's inputs, ready to replay.
struct Setup {
    generator: TraceGenerator,
    config: MultiPoolConfig,
    policy: PondPolicy,
}

/// Trace source set-up plus policy training. Returns the set-up with its
/// total seconds and the training seconds within them.
fn set_up(args: &Args) -> (Setup, f64, f64) {
    let start = Instant::now();
    let generator = args.workload.generator(args.size);
    let config = args.workload.config(args.size, &generator, args.seed);
    let (policy, train_s) = timed(|| {
        PondPolicy::train_source(|| generator.stream(0), &config.control.policy, config.seed)
            .expect("generator streams never fail")
    });
    (Setup { generator, config, policy }, start.elapsed().as_secs_f64(), train_s)
}

/// One untraced replay through the public entry point. The policy clone
/// the replay consumes is made before the clock starts.
fn replay(setup: &Setup) -> (MultiPoolOutcome, f64) {
    let policy = setup.policy.clone();
    timed(|| {
        run_multipool_source(setup.generator.stream(0), &setup.config, policy)
            .expect("benchmark replays never fail")
    })
}

/// Metrics in print order: name, value, unit.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric values are finite");
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The verdict of a run's correctness checks: replays attempted, and one
/// error per replay that failed a check.
#[derive(Default)]
struct Verdict {
    attempted: u64,
    errors: Vec<String>,
}

impl Verdict {
    /// Counts one replay and records its failed checks.
    fn replay(&mut self, checks: Result<(), String>) {
        self.attempted += 1;
        if let Err(error) = checks {
            self.errors.push(error);
        }
    }
}

/// Identities, the first replay's digest, and the pinned row.
fn check_replay(
    args: &Args,
    outcome: &MultiPoolOutcome,
    first: &MultiPoolOutcome,
    requests: u64,
    ladder: Option<&[u64; 6]>,
) -> Result<(), String> {
    gate::check_identities(outcome, requests)?;
    if outcome != first {
        return Err("a replay differs from the run's first replay".into());
    }
    gate::check_pin(args.workload, args.size, args.seed, &Digest::of(outcome), ladder)
}

fn untraced(args: &Args, metrics: &mut Metrics, verdict: &mut Verdict) -> MultiPoolOutcome {
    let (mut setup, secs, _) = set_up(args);
    let mut setup_times = vec![secs];
    while setup_times.len() < SETUP_REPEATS {
        // Free the previous set-up first, so memory holds one at a time.
        drop(setup);
        let secs;
        (setup, secs, _) = set_up(args);
        setup_times.push(secs);
    }
    let requests = drives::count_requests(&setup.generator);

    // The first replay warms the allocator and is checked but not timed:
    // it runs slower than the replays after it.
    let (outcome, _) = replay(&setup);
    // The peak of set-up plus one replay: later replays only reuse memory,
    // and their number depends on speed.
    let peak_rss_mb = proc_status_mb("VmHWM:").unwrap_or(0.0);
    verdict.replay(check_replay(args, &outcome, &outcome, requests, None));
    let mut replay_times = Vec::new();
    while replay_times.len() < MIN_REPLAYS || replay_times.iter().sum::<f64>() < args.seconds {
        let (again, secs) = replay(&setup);
        replay_times.push(secs);
        verdict.replay(check_replay(args, &again, &outcome, requests, None));
    }
    let fleet = &outcome.fleet;
    // The mean, not the median: the host's speed drifts in phases longer
    // than a replay, and a run's median jumps to whichever phase held more
    // of its replays, where the mean weighs each phase by its time.
    let replay_s = replay_times.iter().sum::<f64>() / replay_times.len() as f64;
    metrics.put("setup_s", median(&setup_times), "s");
    metrics.put("replay_s", replay_s, "s");
    metrics.put("events_per_s", gate::replay_events(fleet) as f64 / replay_s, "1/s");
    metrics.put("peak_rss_mb", peak_rss_mb, "MB");
    metrics.put("dram_saved_pct", 100.0 * fleet.dram_savings_fraction(), "%");
    metrics.put(
        "vms_failed_pct",
        100.0 * (fleet.rejected_vms + fleet.vms_killed) as f64 / requests as f64,
        "%",
    );
    metrics.put("mitigation_pct", 100.0 * fleet.mitigation_rate(), "%");
    eprintln!(
        "{} set-ups {setup_times:.3?} s, {} replays {replay_times:.3?} s",
        SETUP_REPEATS,
        replay_times.len()
    );
    outcome
}

/// Seconds, count, median and p99 of one window, in that order. A
/// percentile the sample cannot support (fewer than ten samples above it)
/// reads 0.
fn window_summary(samples: &mut [u64]) -> (f64, u64, f64, f64) {
    samples.sort_unstable();
    let us = |q: f64| quantile(samples, q).map_or(0.0, |ns| ns as f64 / 1e3);
    (samples.iter().sum::<u64>() as f64 * 1e-9, samples.len() as u64, us(0.5), us(0.99))
}

/// Checks the tracer saw exactly the events the outcome accounts for.
fn check_tracer(tracer: &WindowTracer, outcome: &MultiPoolOutcome) -> Result<(), String> {
    let fleet = &outcome.fleet;
    let seen = |window: &str| {
        tracer.events[WINDOWS.iter().position(|&w| w == window).expect("a listed window")]
    };
    let placed: u64 = tracer.rungs[..5].iter().sum();
    let checks = [
        (seen("arrival") == fleet.scheduled_vms + fleet.rejected_vms, "arrivals"),
        (seen("departure") == fleet.scheduled_vms, "departures"),
        (seen("release") == fleet.releases_completed, "releases"),
        (seen("reconfig_done") == fleet.reconfig_completions, "reconfig completions"),
        (seen("migration_done") == fleet.migration_completions, "migration completions"),
        (seen("snapshot") == fleet.qos_passes, "snapshots"),
        (seen("emc_failure") == fleet.emc_failures, "EMC failures"),
        (seen("emc_repair") >= fleet.emcs_repaired, "EMC repairs"),
        (seen("decommission") >= fleet.groups_decommissioned, "decommissions"),
        (seen("expansion") == fleet.groups_expanded, "expansions"),
        (placed == fleet.scheduled_vms, "placed ladder decisions"),
        (tracer.rungs[5] == fleet.rejected_vms, "rejected ladder decisions"),
    ];
    match checks.iter().find(|(ok, _)| !ok) {
        Some((_, what)) => Err(format!("traced {what} disagree with the outcome")),
        None => Ok(()),
    }
}

fn traced(args: &Args, metrics: &mut Metrics, verdict: &mut Verdict) -> MultiPoolOutcome {
    let (setup, _, train_s) = set_up(args);
    let drives = drives::run(&setup.generator, &setup.config, &setup.policy);
    let requests = drives.requests;

    // The first replay warms the allocator; the second is the untraced
    // time the traced replay is compared against.
    let (untraced, _) = replay(&setup);
    verdict.replay(check_replay(args, &untraced, &untraced, requests, None));
    let (again, untraced_s) = replay(&setup);
    verdict.replay(check_replay(args, &again, &untraced, requests, None));
    let mut tracer = WindowTracer::with_capacity(requests as usize);
    let policy = setup.policy.clone();
    let (outcome, traced_s) = timed(|| {
        run_multipool_source_observed(setup.generator.stream(0), &setup.config, policy, &mut tracer)
            .expect("benchmark replays never fail")
    });
    verdict.replay(
        check_replay(args, &outcome, &untraced, requests, Some(&tracer.rungs))
            .and_then(|()| check_tracer(&tracer, &outcome)),
    );
    println!(
        "pin {}",
        gate::pin_row(args.workload, args.size, args.seed, &Digest::of(&outcome), &tracer.rungs)
    );

    let window_sum_s = tracer.window_secs();
    for (name, samples) in WINDOWS.iter().zip(&mut tracer.samples) {
        let (secs, count, p50, p99) = window_summary(samples);
        metrics.put(format!("multipool.{name}_s"), secs, "s");
        metrics.put(format!("multipool.{name}.count"), count as f64, "count");
        metrics.put(format!("multipool.{name}_us"), p50, "us");
        metrics.put(format!("multipool.{name}_us.p99"), p99, "us");
    }
    metrics.put("replay.traced_s", traced_s, "s");
    metrics.put("replay.untraced_s", untraced_s, "s");
    metrics.put("replay.window_sum_s", window_sum_s, "s");
    metrics.put("replay.unattributed_s", traced_s - window_sum_s, "s");
    metrics.put("trace.overhead_pct", 100.0 * (traced_s - untraced_s) / untraced_s, "%");

    let decisions: u64 = tracer.rungs.iter().sum();
    for (rung, count) in RUNGS.iter().zip(tracer.rungs) {
        metrics.put(format!("ladder.{}", rung.name()), count as f64, "count");
    }
    metrics.put("ladder.pooled_home_ratio", tracer.rungs[0] as f64 / decisions as f64, "ratio");
    metrics.put("qos.passes", tracer.qos_passes as f64, "count");
    metrics.put("qos.reconfigured", tracer.qos_reconfigured as f64, "count");
    for (op, count) in LIFECYCLE_OPS.iter().zip(tracer.lifecycle) {
        metrics.put(format!("lifecycle.{op}"), count as f64, "count");
    }

    metrics.put("tracegen.stream_ns_per_request", drives.stream_ns_per_request, "ns");
    metrics.put("event.queue_ns_per_event", drives.queue_ns_per_event, "ns");
    metrics.put("policy.decide_ns", drives.decide_ns, "ns");
    metrics.put("policy.train_s", train_s, "s");
    metrics.put("multipool.group_scan_ns", drives.group_scan_ns, "ns");
    metrics.put("control_plane.build_s", drives.control_plane_build_s, "s");
    metrics.put("rss.after_setup_mb", drives.rss_after_setup_mb, "MB");
    outcome
}

/// The checked-out revision, read from `.git` when the working directory
/// is a git checkout.
fn git_revision() -> String {
    let read = |path: &Path| std::fs::read_to_string(path).ok().map(|s| s.trim().to_string());
    let git = Path::new(".git");
    let Some(head) = read(&git.join("HEAD")) else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(reference)?.strip_suffix(' ').map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("error: {error}");
            eprintln!(
                "usage: pond-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                 [--size full|smoke]"
            );
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let record = format!(
        "{{\"workload\": \"{}\", \"size\": \"{}\", \"seed\": {}, \"pinned\": {}, \
         \"held_out_seed\": {HELD_OUT_SEED}, \"trace\": {}, \"seconds\": {}, \"cores\": {cores}, \
         \"git_rev\": \"{}\"}}",
        args.workload.name(),
        args.size.name(),
        args.seed,
        gate::is_pinned(args.workload, args.size, args.seed),
        u8::from(args.trace),
        args.seconds,
        git_revision(),
    );
    println!("run {record}");

    let mut metrics = Metrics::default();
    let mut verdict = Verdict::default();
    let outcome = if args.trace {
        traced(&args, &mut metrics, &mut verdict)
    } else {
        untraced(&args, &mut metrics, &mut verdict)
    };
    println!("outcome {:?}", Digest::of(&outcome));
    for error in &verdict.errors {
        eprintln!("check failed: {error}");
    }
    let correct = verdict.errors.is_empty();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        verdict.attempted,
        verdict.errors.len(),
        metrics.json()
    );
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("runs");
    let file = dir.join(format!(
        "{}-{}-seed{}-trace{}.json",
        args.workload.name(),
        args.size.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(&file, format!("{{\"run\": {record}, \"result\": {result}}}\n"))
    });
    if let Err(error) = written {
        eprintln!("could not write {}: {error}", file.display());
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
