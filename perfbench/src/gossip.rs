//! The gossip section of the traced run, made by the `agent-clique-1e7`
//! workload's `--trace 1` run: asynchronous 3-majority (Becchetti et
//! al.'s gossip model) on a random-regular(8) graph at n = 10⁴, with the
//! Poisson scheduler, push-pull exchanges, i.i.d. delay and a per-edge
//! loss + Gilbert–Elliott failure scenario, run to consensus through
//! `run_job` on one thread.
//!
//! The path is per-activation and latency-bound: event queue, per-edge
//! failure state, inboxes and CSR neighbor sampling.  That is also why
//! it is not a gated workload: on a shared host its time per activation
//! follows neighbour load (the same seed on one warm cache read 350 to
//! 720 ns over a few minutes), further than any end-to-end bound allows,
//! so its figures are reported per layer.

use crate::stats::median;
use crate::{Args, Outcome};
use plurality_core::Dynamics;
use plurality_engine::{Placement, RunOptions};
use plurality_gossip::{ExchangeMode, GossipEngine, NetworkConfig, Scheduler};
use plurality_sampling::derive_stream;
use plurality_server::{
    build_dynamics, run_job, EngineKind, JobOutcome, JobSpec, StateCache, TrialRow,
};
use plurality_telemetry::{Counter, MetricsRecorder};
use plurality_topology::Topology;
use std::time::Instant;

/// The failure scenario layered on the i.i.d. delay: per-edge loss
/// drawn once per edge, plus Gilbert–Elliott bursts (e16's rates).
const FAILURE: &str = "edge:loss=0..0.1;ge:up=6,down=6,loss=0.5";

/// The job every trial of the workload runs.
#[must_use]
pub fn spec(args: &Args) -> JobSpec {
    JobSpec {
        engine: EngineKind::Gossip,
        dynamics: "3-majority".into(),
        n: if args.smoke { 2_000 } else { 10_000 },
        k: 8,
        bias: None,
        topology: "random-regular:d=8".into(),
        mode: ExchangeMode::PushPull,
        scheduler: Scheduler::Poisson,
        delay: 0.2,
        failure: Some(FAILURE.into()),
        trials: 1,
        seed: derive_stream(args.seed, 2),
        max_rounds: 100_000,
        ..JobSpec::default()
    }
}

/// Consensus on the initial plurality within the tick cap.
fn check(row: &TrialRow) -> Result<(), String> {
    if !row.converged {
        return Err(format!(
            "trial stopped at the tick cap ({} ticks)",
            row.rounds
        ));
    }
    if !row.success {
        return Err(format!(
            "winner {:?} is not the initial plurality",
            row.winner
        ));
    }
    Ok(())
}

/// One trial through `run_job` on a fresh cache.
fn job(spec: &JobSpec) -> Result<(TrialRow, JobOutcome), String> {
    let cache = StateCache::new();
    let mut rows = Vec::new();
    let outcome = run_job(spec, &cache, |row| rows.push(row.clone())).map_err(|e| e.to_string())?;
    match rows.as_slice() {
        [row] if row.gossip.is_some() => Ok((row.clone(), outcome)),
        _ => Err(format!("expected 1 gossip trial row, got {}", rows.len())),
    }
}

/// The gossip section of the traced run: one untraced `run_job` trial
/// of the workload's spec, the engine's recorder on the same trial, and
/// the ablation ladder at a fixed event cap on the same graph and seed.
pub fn trace(args: &Args, out: &mut Outcome) {
    let spec = spec(args);
    out.note(&format!(
        "gossip: n={} k={} bias={} topology={} mode=push-pull scheduler=poisson delay={} failure={FAILURE:?}",
        spec.n,
        spec.k,
        spec.resolved_bias(),
        spec.topology,
        spec.delay
    ));
    let (row, outcome) = match job(&spec) {
        Ok(v) => v,
        Err(e) => return out.op(Err(e)),
    };
    out.op(check(&row));
    let plain = row.gossip.unwrap_or_default();
    let e2e_ns = outcome.run_ns as f64 / plain.activations as f64;
    out.metric(
        "gossip.ns_per_activation",
        e2e_ns,
        "ns",
        &format!("untraced run_job trial, {} activations", plain.activations),
    );

    let cache = StateCache::new();
    let (topology, _) = cache.topology(&spec).expect("the gossip spec is valid");
    let dynamics = build_dynamics(&spec.dynamics, spec.k, spec.h, spec.noise)
        .expect("3-majority is a known rule");
    let full = engine(&spec, &*topology, &cache);
    let mut rec = MetricsRecorder::new();
    let t = Instant::now();
    let (r, stats) = full.run_recorded(
        dynamics.as_ref(),
        &spec.configuration(),
        Placement::Shuffled,
        &spec.run_options(),
        derive_stream(spec.seed, 0),
        &mut rec,
    );
    let traced_ns = t.elapsed().as_nanos() as f64 / stats.activations as f64;
    let same = (r.rounds, r.winner, stats) == (row.rounds, row.winner, plain);
    out.op(if same {
        Ok(())
    } else {
        Err("traced run_recorded disagrees with run_job on the same seed".into())
    });

    let c = |k: Counter| rec.counter(k) as f64;
    let act = c(Counter::Activations);
    let legs = c(Counter::PullSent) + c(Counter::PushSent);
    out.metric(
        "gossip.msgs_per_activation",
        stats.messages as f64 / act,
        "count",
        "exchanges",
    );
    out.metric(
        "gossip.lost_frac",
        stats.lost_messages as f64 / legs,
        "ratio",
        "lost legs / legs sent",
    );
    out.metric(
        "gossip.queue_pushed_per_activation",
        c(Counter::QueuePushed) / act,
        "count",
        "event-queue pushes",
    );
    out.metric(
        "gossip.queue_stale_frac",
        c(Counter::QueueSkippedStale) / c(Counter::QueuePushed).max(1.0),
        "ratio",
        "stale pops / pushes",
    );
    out.metric(
        "gossip.superseded_frac",
        stats.superseded_commits as f64 / act,
        "ratio",
        "superseded commits / activations",
    );
    out.metric(
        "gossip.inbox_served_frac",
        stats.inbox_served as f64 / (3.0 * act),
        "ratio",
        "rule samples served from the inbox",
    );
    out.metric(
        "telemetry.overhead_frac.gossip",
        traced_ns / e2e_ns - 1.0,
        "ratio",
        "traced run_recorded vs untraced run_job, per activation",
    );

    // Ablation ladder: each rung adds one mechanism to the previous one.
    let cap = if args.smoke { 20_000 } else { 200_000 };
    let ideal = |mode, scheduler| {
        GossipEngine::new(&*topology)
            .with_mode(mode)
            .with_scheduler(scheduler)
            .with_network(NetworkConfig::new(0.0, 0.0))
    };
    let rung = |e: &GossipEngine<'_>| capped_ns(e, dynamics.as_ref(), &spec, cap);
    let l0 = rung(&ideal(ExchangeMode::Pull, Scheduler::Sequential));
    let l1 = rung(&ideal(ExchangeMode::Pull, Scheduler::Poisson));
    let l2 = rung(&ideal(ExchangeMode::PushPull, Scheduler::Poisson));
    let l3 = rung(&full);
    let note = format!("{cap} events, same graph and seed");
    out.metric(
        "gossip.base_ns",
        l0,
        "ns",
        &format!("sequential pull ideal, {note}"),
    );
    out.metric("gossip.scheduler_ns", l1 - l0, "ns", "poisson - sequential");
    out.metric("gossip.exchange_ns", l2 - l1, "ns", "push-pull - pull");
    out.metric(
        "gossip.failure_ns",
        l3 - l2,
        "ns",
        "delay + failure scenario - ideal",
    );
    out.metric(
        "gossip.unexplained_frac",
        1.0 - l3 / e2e_ns,
        "ratio",
        "1 - ladder sum / end-to-end",
    );
    out.note(&format!(
        "gossip shortfall: ladder sum {l3:.1} ns/activation vs end-to-end {e2e_ns:.1} ns ({:.1}% unexplained)",
        100.0 * (1.0 - l3 / e2e_ns)
    ));
}

/// Engine configured as `run_job` configures it, over `topology`.
fn engine<'t>(spec: &JobSpec, topology: &'t dyn Topology, cache: &StateCache) -> GossipEngine<'t> {
    let model = spec
        .failure_model()
        .expect("valid scenario")
        .expect("scenario set");
    let table = cache.edge_table(spec, &model, topology).map(|(t, _)| t);
    let slots = GossipEngine::ge_slot_count(&model, topology);
    GossipEngine::new(topology)
        .with_mode(spec.mode)
        .with_scheduler(spec.scheduler)
        .with_inbox_policy(spec.inbox_policy)
        .with_prebuilt_failure_model(model, table, slots)
}

/// Nanoseconds per activation of `engine` capped at `max_events`
/// (median of three runs from the workload's first trial seed).
fn capped_ns(
    engine: &GossipEngine<'_>,
    dynamics: &dyn Dynamics,
    spec: &JobSpec,
    max_events: u64,
) -> f64 {
    let opts = RunOptions::with_max_rounds(spec.max_rounds).with_max_events(max_events);
    let cfg = spec.configuration();
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let (_, stats) = engine.run_detailed(
                dynamics,
                &cfg,
                Placement::Shuffled,
                &opts,
                derive_stream(spec.seed, 0),
            );
            t.elapsed().as_nanos() as f64 / stats.activations.max(1) as f64
        })
        .collect();
    median(&runs)
}
