//! Criterion micro-benchmarks for the prediction models: training and
//! inference latency of the sensitivity and untouched-memory models.
//!
//! Inference latency matters because the sensitivity model sits on the VM
//! request path (Figure 11, A2) and the untouched-memory prediction is added
//! to the VM request path by the serving system (§5).

use cluster_sim::tracegen::{ClusterConfig, TraceGenerator};
use criterion::{criterion_group, criterion_main, Criterion};
use pond_core::policy::PondPolicyConfig;
use pond_core::sensitivity::{SensitivityModel, SensitivityModelConfig};
use pond_core::untouched::{replay_history, UntouchedMemoryModel, UntouchedModelConfig};
use std::hint::black_box;
use workload_model::telemetry::TelemetrySampler;
use workload_model::WorkloadSuite;

fn bench_sensitivity(c: &mut Criterion) {
    let suite = WorkloadSuite::standard();
    let config = SensitivityModelConfig { samples_per_workload: 2, ..Default::default() };
    c.bench_function("sensitivity_model_training", |b| {
        b.iter(|| black_box(SensitivityModel::train(&suite, &config, 1)))
    });

    let model = SensitivityModel::train(&suite, &SensitivityModelConfig::default(), 1);
    let counters = TelemetrySampler::default().sample(suite.at(10).unwrap(), 3);
    c.bench_function("sensitivity_model_inference", |b| {
        b.iter(|| black_box(model.insensitive_probability(black_box(&counters))))
    });
}

fn bench_untouched(c: &mut Criterion) {
    let config = ClusterConfig { servers: 16, duration_days: 6, ..ClusterConfig::small() };
    let trace = TraceGenerator::new(config, 1).generate(0);
    let model_config = UntouchedModelConfig { quantile: 0.05, rounds: 30 };
    c.bench_function("untouched_model_training", |b| {
        b.iter(|| black_box(UntouchedMemoryModel::train(&trace.requests, &model_config, 2)))
    });

    // The fleet benchmark's training shape: the first 40% of one day's
    // requests on 8,192 servers (~31,600 rows) with the policy's 50 rounds.
    // The small trace above has too few rows per tree node to show how
    // training scales.
    let fleet = ClusterConfig { servers: 8192, duration_days: 1, ..ClusterConfig::azure_like() };
    let fleet_trace = TraceGenerator::new(fleet, 1).generate(0);
    let policy = PondPolicyConfig::default();
    let prefix_len =
        ((fleet_trace.requests.len() as f64) * policy.training_fraction).round() as usize;
    let prefix = &fleet_trace.requests[..prefix_len];
    let prefix_config = UntouchedModelConfig { quantile: policy.untouched_quantile, rounds: 50 };
    c.bench_function("untouched_model_training_benchmark_prefix", |b| {
        b.iter(|| black_box(UntouchedMemoryModel::train(prefix, &prefix_config, 2)))
    });

    let model = UntouchedMemoryModel::train(&trace.requests, &model_config, 2);
    let history = replay_history(&trace.requests);
    let request = &trace.requests[0];
    c.bench_function("untouched_model_inference", |b| {
        b.iter(|| black_box(model.predict_fraction(black_box(request), &history)))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sensitivity, bench_untouched
);
criterion_main!(benches);
