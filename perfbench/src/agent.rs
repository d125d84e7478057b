//! `agent-clique-1e7`: 3-majority on the clique at n = 10⁷, k = 8 and
//! the paper-threshold bias, run to consensus through `run_job` on the
//! sharded agent engine at `nproc` threads (the paper's Corollary 1
//! regime at the scale the sharded engine was built for).
//!
//! One operation is one trial.  Every trial in a run uses the same spec,
//! so each repetition must reproduce the first one's rounds and winner.

use crate::stats::{median, secs};
use crate::{host, Args, Outcome};
use plurality_engine::{layout_initial_states, AgentEngine, Placement};
use plurality_sampling::derive_stream;
use plurality_server::{
    build_dynamics, run_job, EngineKind, JobOutcome, JobSpec, StateCache, TrialRow,
};
use plurality_telemetry::{Counter, Hist, MetricsRecorder, Phase};
use std::hint::black_box;
use std::time::Instant;

/// Set-ups measured per run (the median is reported).
const SETUP_REPS: usize = 11;

/// The job every trial of the workload runs.
#[must_use]
pub fn spec(args: &Args) -> JobSpec {
    JobSpec {
        engine: EngineKind::Agent,
        dynamics: "3-majority".into(),
        n: if args.smoke { 200_000 } else { 10_000_000 },
        k: 8,
        bias: None,
        topology: "clique".into(),
        trials: 1,
        seed: derive_stream(args.seed, 1),
        max_rounds: 10_000,
        threads: host::nproc(),
        ..JobSpec::default()
    }
}

/// One trial through `run_job` on a fresh cache.
fn job(spec: &JobSpec) -> Result<(f64, TrialRow, JobOutcome), String> {
    let cache = StateCache::new();
    let mut rows = Vec::new();
    let t = Instant::now();
    let outcome = run_job(spec, &cache, |row| rows.push(row.clone())).map_err(|e| e.to_string())?;
    let wall = secs(t);
    match rows.as_slice() {
        [row] => Ok((wall, row.clone(), outcome)),
        _ => Err(format!("expected 1 trial row, got {}", rows.len())),
    }
}

/// Consensus on the initial plurality, and the same (rounds, winner) as
/// every earlier trial of this spec.
fn check(row: &TrialRow, first: &mut Option<(u64, Option<usize>)>) -> Result<(), String> {
    if !row.converged {
        return Err(format!(
            "trial stopped at the round cap ({} rounds)",
            row.rounds
        ));
    }
    if !row.success {
        return Err(format!(
            "winner {:?} is not the initial plurality",
            row.winner
        ));
    }
    let got = (row.rounds, row.winner);
    match first {
        None => *first = Some(got),
        Some(want) if *want != got => {
            return Err(format!("trial gave {got:?}, an earlier one {want:?}"));
        }
        Some(_) => {}
    }
    Ok(())
}

/// Trial set-up as the engine performs it: topology from a fresh cache,
/// the lifted configuration, the shuffled placement of every node, and
/// the engine.
fn setup_once(spec: &JobSpec) -> f64 {
    let t = Instant::now();
    let cache = StateCache::new();
    let (topology, _) = cache.topology(spec).expect("the clique spec is valid");
    let dynamics = build_dynamics(&spec.dynamics, spec.k, spec.h, spec.noise)
        .expect("3-majority is a known rule");
    let lifted = dynamics.lift(&spec.configuration());
    let layout = layout_initial_states(&lifted, Placement::Shuffled, derive_stream(spec.seed, 0));
    let engine = AgentEngine::new(&*topology).with_threads(spec.threads);
    black_box((&layout, &engine));
    secs(t)
}

/// Run the workload (end-to-end or traced, per `args.trace`).
pub fn run(args: &Args, out: &mut Outcome) {
    let spec = spec(args);
    out.note(&format!(
        "agent: n={} k={} bias={} threads={} topology=clique",
        spec.n,
        spec.k,
        spec.resolved_bias(),
        spec.threads
    ));
    if args.trace {
        traced(&spec, out);
        return;
    }
    let setups: Vec<f64> = (0..SETUP_REPS).map(|_| setup_once(&spec)).collect();
    let start = Instant::now();
    let (mut walls, mut per_round) = (Vec::new(), Vec::new());
    let mut first = None;
    while walls.is_empty() || secs(start) < args.seconds {
        let result = job(&spec).and_then(|(wall, row, outcome)| {
            check(&row, &mut first)?;
            walls.push(wall);
            per_round.push(outcome.run_ns as f64 / 1e6 / row.rounds as f64);
            Ok(())
        });
        let stop = result.is_err();
        out.op(result);
        if stop {
            break;
        }
    }
    let rounds = first.map_or(0, |(r, _)| r);
    let ms_per_round = median(&per_round);
    out.note(&format!(
        "ms_per_round = {ms_per_round:.3} ms (median of {} trials, {rounds} rounds each, placement amortized)",
        per_round.len()
    ));
    out.metric(
        "setup_s",
        median(&setups),
        "s",
        &format!("topology + placement, median of {SETUP_REPS}"),
    );
    out.metric(
        "wall_s",
        median(&walls),
        "s",
        &format!("one trial to consensus, median of {}", walls.len()),
    );
    out.metric(
        "step_ns",
        ms_per_round * 1e6 / spec.n as f64,
        "ns",
        "per node update = ms_per_round / n",
    );
}

/// Traced run: the engine's own recorder at `nproc` threads and at 1
/// thread, against an untraced `run_job` trial of the same spec.
fn traced(spec: &JobSpec, out: &mut Outcome) {
    let (plain_wall, row, outcome) = match job(spec) {
        Ok(v) => v,
        Err(e) => return out.op(Err(e)),
    };
    let mut first = None;
    out.op(check(&row, &mut first));
    let dynamics = build_dynamics(&spec.dynamics, spec.k, spec.h, spec.noise)
        .expect("3-majority is a known rule");
    let cache = StateCache::new();
    let (topology, _) = cache.topology(spec).expect("the clique spec is valid");
    let cfg = spec.configuration();
    let opts = spec.run_options();
    let recorded = |threads: usize| {
        let mut rec = MetricsRecorder::new();
        let t = Instant::now();
        let r = AgentEngine::new(&*topology)
            .with_threads(threads)
            .run_recorded(
                dynamics.as_ref(),
                &cfg,
                Placement::Shuffled,
                &opts,
                derive_stream(spec.seed, 0),
                &mut rec,
            );
        (secs(t), (r.rounds, r.winner), rec)
    };
    let want = (row.rounds, row.winner);
    let (traced_wall, got, rec) = recorded(spec.threads);
    out.op(if got == want {
        Ok(())
    } else {
        Err(format!(
            "traced run_recorded gave {got:?}, run_job {want:?}"
        ))
    });
    let (_, got1, rec1) = recorded(1);
    out.op(if got1 == want {
        Ok(())
    } else {
        Err(format!(
            "1 thread gave {got1:?}, {} threads {want:?}",
            spec.threads
        ))
    });

    let p = |rec: &MetricsRecorder, q: f64| rec.hist(Hist::RoundWallNanos).quantile(q) as f64 / 1e6;
    let rounds = rec.counter(Counter::Rounds) as f64;
    out.metric(
        "engine.agent.round_ms_p50",
        p(&rec, 0.5),
        "ms",
        &format!("{} threads", spec.threads),
    );
    out.metric(
        "engine.agent.round_ms_p99",
        p(&rec, 0.99),
        "ms",
        &format!("{rounds} rounds"),
    );
    out.metric(
        "engine.agent.setup_ms",
        rec.phase_nanos(Phase::Setup) as f64 / 1e6,
        "ms",
        "Phase::Setup, placement included",
    );
    out.metric(
        "engine.agent.samples_per_round",
        rec.counter(Counter::SamplesDrawn) as f64 / rounds,
        "count",
        "exact",
    );
    // u8 state words: one sequential read and one write per node, plus
    // three random gathers that each fill a 64-byte line.
    out.metric(
        "engine.agent.bytes_per_round",
        spec.n as f64 * (2.0 + 3.0 * 64.0),
        "B",
        "computed, line-granular gathers",
    );
    let one_thread_ms = p(&rec1, 0.5);
    out.metric(
        "engine.agent.speedup",
        one_thread_ms / p(&rec, 0.5),
        "x",
        "1 thread over nproc threads",
    );
    out.metric(
        "telemetry.overhead_frac.agent",
        traced_wall / plain_wall - 1.0,
        "ratio",
        "traced run_recorded vs untraced run_job wall",
    );

    // Layer sum for one node update at 1 thread: three clique samples
    // (each includes its RNG draw) and three gathers, plus the rule.
    let layer = |name: &str| out.value(name).unwrap_or(f64::NAN);
    let node_ns = 3.0 * (layer("topology.clique_sample_ns") + layer("host.gather_ns"))
        + layer("core.update_ns");
    let sum_ms = node_ns * spec.n as f64 / 1e6;
    out.metric(
        "engine.agent.unexplained_frac",
        1.0 - sum_ms / one_thread_ms,
        "ratio",
        "1 - layer sum / 1-thread round",
    );
    out.note(&format!(
        "agent shortfall: layer sum {sum_ms:.1} ms/round vs measured 1-thread round {one_thread_ms:.1} ms \
         ({:.1}% unexplained); end-to-end run_job round {:.1} ms at {} threads",
        100.0 * (1.0 - sum_ms / one_thread_ms),
        outcome.run_ns as f64 / 1e6 / row.rounds as f64,
        spec.threads
    ));
}
