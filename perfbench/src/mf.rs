//! `mf-kscan`: mean-field 3-majority at n = 10⁷ over a k ladder that
//! crosses the (n / ln n)^{1/3} knee (≈ 85 at this n), thousands of
//! trials through `run_mean_field_trials` — the Monte Carlo fan-out the
//! paper experiments use — at `nproc` threads.
//!
//! Each round is a closed-form O(k) kernel plus a multinomial draw, with
//! no per-node work and no memory footprint.  One operation is one pass
//! over the whole ladder; every pass reuses the same seeds, so each must
//! reproduce the first pass's round statistics exactly.

use crate::stats::{median, secs};
use crate::{host, Args, Outcome};
use plurality_core::{builders, Configuration, ThreeMajority};
use plurality_engine::{MeanFieldEngine, MonteCarlo, RunOptions, StopReason};
use plurality_experiments::run_mean_field_trials;
use plurality_sampling::{derive_stream, stream_rng};
use plurality_server::auto_bias;
use plurality_telemetry::{Hist, MetricsRecorder};
use std::hint::black_box;
use std::time::Instant;

/// The k ladder (knee at (n / ln n)^{1/3} ≈ 85 for n = 10⁷).
pub const LADDER: [usize; 5] = [2, 8, 32, 128, 512];

/// Set-ups measured per run (the median is reported).
const SETUP_REPS: usize = 25;

/// Population size.
#[must_use]
pub fn population(args: &Args) -> u64 {
    if args.smoke {
        100_000
    } else {
        10_000_000
    }
}

/// Trials per rung: more where trials are short, so each rung costs a
/// similar share of a pass.
fn trials(args: &Args, k: usize) -> usize {
    let full = match k {
        0..=8 => 2000,
        9..=32 => 1000,
        33..=128 => 400,
        _ => 100,
    };
    if args.smoke {
        full / 20
    } else {
        full
    }
}

/// One rung of the ladder.
struct Rung {
    k: usize,
    cfg: Configuration,
    trials: usize,
    seed: u64,
}

fn ladder(args: &Args) -> Vec<Rung> {
    let n = population(args);
    LADDER
        .iter()
        .map(|&k| Rung {
            k,
            cfg: builders::biased(n, k, auto_bias(n, k)),
            trials: trials(args, k),
            seed: derive_stream(args.seed, 100 + k as u64),
        })
        .collect()
}

/// Round statistics a pass must reproduce: per rung, the converged and
/// winning trial counts and the sum, min and max of rounds.
type PassPrint = Vec<(usize, usize, u64, u64, u64)>;

/// Run one pass; returns its wall time, total rounds and fingerprint,
/// or the first failed check.
fn pass(rungs: &[Rung], threads: usize) -> Result<(f64, u64, PassPrint), String> {
    let rule = ThreeMajority::new();
    let opts = RunOptions::default();
    let t = Instant::now();
    let mut print = Vec::new();
    for r in rungs {
        let stats = run_mean_field_trials(&rule, &r.cfg, &opts, r.trials, threads, r.seed);
        let rounds = &stats.rounds;
        print.push((
            stats.converged,
            stats.plurality_wins,
            (rounds.mean() * rounds.count() as f64).round() as u64,
            rounds.min() as u64,
            rounds.max() as u64,
        ));
    }
    let wall = secs(t);
    for (r, &(converged, wins, ..)) in rungs.iter().zip(&print) {
        if converged != r.trials || wins != r.trials {
            return Err(format!(
                "k={}: {converged}/{} trials converged, {wins} won by the initial plurality",
                r.k, r.trials
            ));
        }
    }
    let total_rounds = print.iter().map(|p| p.2).sum();
    Ok((wall, total_rounds, print))
}

/// Run the workload (end-to-end or traced, per `args.trace`).
pub fn run(args: &Args, out: &mut Outcome) {
    let threads = host::nproc();
    let rungs = ladder(args);
    out.note(&format!(
        "mf: n={} k ladder {:?} trials {:?} threads={threads} bias=auto",
        population(args),
        LADDER,
        rungs.iter().map(|r| r.trials).collect::<Vec<_>>()
    ));
    if args.trace {
        traced(&rungs, threads, out);
        return;
    }
    // Set-up: the ladder's configurations, then a cold Monte Carlo
    // fan-out with one trial per worker at every rung (worker start-up
    // and first-touch allocation, before throughput is reached).
    let setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            let opts = RunOptions::default();
            for r in ladder(args) {
                black_box(run_mean_field_trials(
                    &ThreeMajority::new(),
                    &r.cfg,
                    &opts,
                    threads,
                    threads,
                    r.seed,
                ));
            }
            secs(t)
        })
        .collect();
    let start = Instant::now();
    let (mut walls, mut per_round) = (Vec::new(), Vec::new());
    let mut first: Option<PassPrint> = None;
    let total_trials: usize = rungs.iter().map(|r| r.trials).sum();
    while walls.is_empty() || secs(start) < args.seconds {
        let result = pass(&rungs, threads).and_then(|(wall, rounds, print)| {
            match &first {
                None => first = Some(print),
                Some(want) if *want != print => {
                    return Err(format!("pass gave {print:?}, the first one {want:?}"));
                }
                Some(_) => {}
            }
            walls.push(wall);
            per_round.push(wall * 1e9 / rounds as f64);
            Ok(())
        });
        let stop = result.is_err();
        out.op(result);
        if stop {
            break;
        }
    }
    out.note(&format!(
        "trials_per_s = {:.1} 1/s ({total_trials} trials per pass, median of {} passes)",
        total_trials as f64 / median(&walls),
        walls.len()
    ));
    out.metric(
        "setup_s",
        median(&setups),
        "s",
        &format!("configs + one cold trial per worker per rung, median of {SETUP_REPS}"),
    );
    out.metric(
        "wall_s",
        median(&walls),
        "s",
        &format!("one ladder pass, median of {}", walls.len()),
    );
    out.metric(
        "step_ns",
        median(&per_round),
        "ns",
        "wall per mean-field round at nproc threads",
    );
}

/// Traced run: the engine's per-round timer and the Monte Carlo busy
/// share on the rung nearest the knee, checked against the fan-out.
fn traced(rungs: &[Rung], threads: usize, out: &mut Outcome) {
    let rung = &rungs[3];
    let rule = ThreeMajority::new();
    let engine = MeanFieldEngine::new(&rule);
    let opts = RunOptions::default();
    let mc = MonteCarlo {
        trials: rung.trials,
        threads,
        master_seed: rung.seed,
    };
    let t = Instant::now();
    let timed = mc.run(|_, rng| {
        let t = Instant::now();
        let r = engine.run(&rung.cfg, &opts, rng);
        (t.elapsed().as_nanos() as f64, r)
    });
    let wall_ns = t.elapsed().as_nanos() as f64;
    let busy: f64 = timed.iter().map(|(ns, _)| ns).sum();
    out.metric(
        "engine.montecarlo.busy_frac",
        busy / (wall_ns * threads as f64),
        "ratio",
        &format!("k={}, {} trials, {threads} threads", rung.k, rung.trials),
    );
    let mut rec = MetricsRecorder::new();
    for (i, (_, want)) in timed.iter().enumerate().take(20) {
        let got = engine.run_recorded(
            &rung.cfg,
            &opts,
            None,
            &mut stream_rng(rung.seed, i as u64),
            &mut rec,
        );
        let ok = got.reason == StopReason::Stopped && got.success;
        out.op(
            if ok && (got.rounds, got.winner) == (want.rounds, want.winner) {
                Ok(())
            } else {
                Err(format!(
                    "k={} trial {i}: traced ({}, {:?}) vs fan-out ({}, {:?})",
                    rung.k, got.rounds, got.winner, want.rounds, want.winner
                ))
            },
        );
    }
    out.metric(
        "engine.mf.round_us",
        rec.hist(Hist::RoundWallNanos).quantile(0.5) as f64 / 1e3,
        "us",
        &format!(
            "k={}, p50 of {} rounds",
            rung.k,
            rec.hist(Hist::RoundWallNanos).count()
        ),
    );
}
