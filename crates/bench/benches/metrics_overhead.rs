//! Telemetry overhead benchmarks — the acceptance gate for the recorder
//! layer: the same hot paths with recording **off** (`NoopRecorder`,
//! which monomorphizes every `if Rec::ENABLED` to dead code — the
//! baseline, identical machine code to the pre-telemetry engines), and
//! with a live `MetricsRecorder`.  The off/on gap is the price of the
//! counters.  Run with `BENCH_JSON=<file>` to record both sides; no
//! recorded file is committed.
//!
//! Groups:
//!
//! * `metrics-agent-round` — one synchronous 3-majority round on the
//!   n = 10⁶ clique (per-node sample counting via `CountingSource`);
//! * `metrics-gossip-failure-tick` — gossip ticks under a composed
//!   structured failure model (per-edge + Gilbert–Elliott), the densest
//!   counter traffic: per-layer drop attribution on every leg;
//! * `metrics-gossip-convergence` — full async convergence, the
//!   amortized end-to-end cost.
//!
//! Each gossip measurement runs several ticks per iteration so the
//! engine setup (placement shuffle, inbox allocation, failure-chain
//! seeding — identical on both sides) does not drown the per-activation
//! signal.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use plurality_core::{builders, ThreeMajority};
use plurality_engine::{AgentEngine, Placement, RunOptions};
use plurality_gossip::{ExchangeMode, FailureModel, GossipEngine, NetworkConfig};
use plurality_telemetry::MetricsRecorder;
use plurality_topology::{random_regular, Clique};

fn bench_agent_round_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("metrics-agent-round");
    g.sample_size(10);
    let d = ThreeMajority::new();
    let n = 1_000_000usize;
    let clique = Clique::new(n);
    let cfg = builders::biased(n as u64, 8, n as u64 / 10);
    let engine = AgentEngine::new(&clique);
    let opts = RunOptions::with_max_rounds(1);

    g.bench_with_input(
        BenchmarkId::new("off", format!("3-majority/n={n}")),
        &n,
        |b, _| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(engine.run(&d, &cfg, Placement::Blocks, &opts, seed).rounds)
            });
        },
    );
    g.bench_with_input(
        BenchmarkId::new("on", format!("3-majority/n={n}")),
        &n,
        |b, _| {
            let mut seed = 0u64;
            let mut rec = MetricsRecorder::new();
            b.iter(|| {
                seed += 1;
                black_box(
                    engine
                        .run_recorded(&d, &cfg, Placement::Blocks, &opts, seed, &mut rec)
                        .rounds,
                )
            });
        },
    );
    g.finish();
}

fn bench_gossip_failure_tick_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("metrics-gossip-failure-tick");
    g.sample_size(10);
    let d = ThreeMajority::new();
    let n = 50_000usize;
    let ticks = 8u64;
    let graph = random_regular(n, 8, 0xBE2C);
    let cfg = builders::biased(n as u64, 8, n as u64 / 10);
    let model = FailureModel::parse(
        "edge:loss=0..0.2;ge:up=6,down=6,loss=0.8",
        NetworkConfig::default(),
    )
    .unwrap();
    let engine = GossipEngine::new(&graph)
        .with_mode(ExchangeMode::PushPull)
        .with_failure_model(model);
    let opts = RunOptions::with_max_rounds(ticks);

    g.bench_with_input(
        BenchmarkId::new("off", format!("n={n},ticks={ticks}")),
        &n,
        |b, _| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(
                    engine
                        .run_detailed(&d, &cfg, Placement::Blocks, &opts, seed)
                        .0
                        .rounds,
                )
            });
        },
    );
    g.bench_with_input(
        BenchmarkId::new("on", format!("n={n},ticks={ticks}")),
        &n,
        |b, _| {
            let mut seed = 0u64;
            let mut rec = MetricsRecorder::new();
            b.iter(|| {
                seed += 1;
                black_box(
                    engine
                        .run_recorded(&d, &cfg, Placement::Blocks, &opts, seed, &mut rec)
                        .0
                        .rounds,
                )
            });
        },
    );
    g.finish();
}

fn bench_convergence_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("metrics-gossip-convergence");
    g.sample_size(10);
    let d = ThreeMajority::new();
    let n = 10_000usize;
    let clique = Clique::new(n);
    let cfg = builders::biased(n as u64, 3, n as u64 / 4);
    let engine = GossipEngine::new(&clique);
    let opts = RunOptions::with_max_rounds(10_000);

    g.bench_with_input(BenchmarkId::new("off", n), &n, |b, _| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(
                engine
                    .run_detailed(&d, &cfg, Placement::Shuffled, &opts, seed)
                    .0
                    .rounds,
            )
        });
    });
    g.bench_with_input(BenchmarkId::new("on", n), &n, |b, _| {
        let mut seed = 0u64;
        let mut rec = MetricsRecorder::new();
        b.iter(|| {
            seed += 1;
            black_box(
                engine
                    .run_recorded(&d, &cfg, Placement::Shuffled, &opts, seed, &mut rec)
                    .0
                    .rounds,
            )
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_agent_round_overhead,
    bench_gossip_failure_tick_overhead,
    bench_convergence_overhead
);
criterion_main!(benches);
