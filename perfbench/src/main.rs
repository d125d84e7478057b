//! The repository benchmark: two gated workloads that drive the
//! plurality system through its public APIs, check every result, and
//! print each metric by name and unit.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload agent-clique-1e7 --seed 1 --seconds 15 --trace 0
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with no
//! instrumentation enabled; with `--trace 1` it makes a separate traced
//! run that times each layer from outside, around calls into that layer,
//! and reports the per-layer metrics.  The traced runs also carry the
//! gossip engine (with the agent workload) and the job server (with the
//! mean-field workload): their timings follow neighbour load on a shared
//! host too far to gate, so they are reported per layer only.
//! `--smoke` shrinks every size so a run finishes in seconds (the
//! package's own tests use it).
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value","unit"}}}`.
//! Every line before it is the human-readable report.

mod agent;
mod gossip;
mod host;
mod layers;
mod mf;
mod serve;
mod stats;

use std::process::ExitCode;

/// End-to-end metrics: every workload reports each one, with the
/// meaning stated in `perfbench/README.md`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("step_ns", "ns"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by the traced run (`--trace 1`).  A
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sampling.rng_ns", "ns"),
    ("sampling.multinomial_us.k2", "us"),
    ("sampling.multinomial_us.k8", "us"),
    ("sampling.multinomial_us.k32", "us"),
    ("sampling.multinomial_us.k128", "us"),
    ("sampling.multinomial_us.k512", "us"),
    ("topology.clique_sample_ns", "ns"),
    ("topology.csr_sample_ns", "ns"),
    ("topology.build_ms", "ms"),
    ("core.update_ns", "ns"),
    ("core.mf_step_us.k2", "us"),
    ("core.mf_step_us.k8", "us"),
    ("core.mf_step_us.k32", "us"),
    ("core.mf_step_us.k128", "us"),
    ("core.mf_step_us.k512", "us"),
    ("engine.agent.round_ms_p50", "ms"),
    ("engine.agent.round_ms_p99", "ms"),
    ("engine.agent.setup_ms", "ms"),
    ("engine.agent.samples_per_round", "count"),
    ("engine.agent.bytes_per_round", "B"),
    ("engine.agent.speedup", "x"),
    ("engine.agent.unexplained_frac", "ratio"),
    ("engine.mf.round_us", "us"),
    ("engine.montecarlo.busy_frac", "ratio"),
    ("gossip.ns_per_activation", "ns"),
    ("gossip.msgs_per_activation", "count"),
    ("gossip.lost_frac", "ratio"),
    ("gossip.queue_pushed_per_activation", "count"),
    ("gossip.queue_stale_frac", "ratio"),
    ("gossip.superseded_frac", "ratio"),
    ("gossip.inbox_served_frac", "ratio"),
    ("gossip.base_ns", "ns"),
    ("gossip.scheduler_ns", "ns"),
    ("gossip.exchange_ns", "ns"),
    ("gossip.failure_ns", "ns"),
    ("gossip.unexplained_frac", "ratio"),
    ("server.job_p50_ms", "ms"),
    ("server.job_p99_ms", "ms"),
    ("server.max_jobs_per_s", "1/s"),
    ("server.parse_us", "us"),
    ("server.cache_hit_us", "us"),
    ("server.cache_build_ms", "ms"),
    ("server.exec_ms_p50", "ms"),
    ("server.wait_ms_p50", "ms"),
    ("server.wait_ms_p99", "ms"),
    ("server.cache_hit_frac", "ratio"),
    ("server.generator_lag_ms", "ms"),
    ("telemetry.overhead_frac.agent", "ratio"),
    ("telemetry.overhead_frac.gossip", "ratio"),
    ("host.gather_ns", "ns"),
    ("host.stream_gbps", "GB/s"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["agent-clique-1e7", "mf-kscan"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed every input of the run derives from.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
    /// Shrink every size so the run finishes in seconds.
    pub smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload expects one of {}, got {:?}",
            WORKLOADS.join("|"),
            args.workload
        ));
    }
    Ok(args)
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (trials, scans or jobs).
    pub attempted: u64,
    /// Operations that failed, were refused, or gave a wrong result.
    pub failed: u64,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
    /// Metric values by name (end-to-end or per-layer).
    pub metrics: Vec<(String, f64)>,
}

impl Outcome {
    /// Record a metric and print it as a report line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str, note: &str) {
        println!("  {name:<36} {value:>14.4} {unit:<6} {note}");
        self.metrics.push((name.to_string(), value));
    }

    /// Print a report line that is not a metric.
    pub fn note(&self, line: &str) {
        println!("  {line}");
    }

    /// Record one operation; a failing one carries the reason.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.fail(why);
        }
    }

    /// Record a failed check that is not tied to one operation.
    pub fn fail(&mut self, why: String) {
        println!("  FAILED: {why}");
        self.problems.push(why);
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let (l2, l3) = host::cache_sizes();
    let mib = |b: Option<u64>| b.map_or_else(|| "unknown".into(), |b| format!("{} MiB", b >> 20));
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} smoke={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke
    );
    println!(
        "# host nproc={} l2={} l3={} toolchain={:?}",
        host::nproc(),
        mib(l2),
        mib(l3),
        host::RUSTC
    );

    let mut out = measure(&args);
    println!("{}", result_line(&args, &mut out));
    ExitCode::SUCCESS
}

/// Run the workload `args` names and record its metrics.
fn measure(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    // The traced run probes the layers first: the agent workload's
    // shortfall figure is computed from those probes.
    if args.trace {
        layers::run(args, &mut out);
    }
    match args.workload.as_str() {
        "agent-clique-1e7" => {
            agent::run(args, &mut out);
            if args.trace {
                gossip::trace(args, &mut out);
            }
        }
        "mf-kscan" => {
            mf::run(args, &mut out);
            if args.trace {
                serve::trace(args, &mut out);
            }
        }
        _ => unreachable!("workload validated by parse_args"),
    }
    if !args.trace {
        out.metric(
            "peak_rss_mib",
            host::peak_rss_mib(),
            "MiB",
            "VmHWM of this process",
        );
    }
    out
}

/// The closing JSON line: every metric the run mode owes, plus the
/// operation counts.  A missing or non-finite end-to-end value makes
/// the run incorrect.
fn result_line(args: &Args, out: &mut Outcome) -> String {
    let wanted: &[(&str, &str)] = if args.trace { PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in wanted {
        let value = match out.value(name) {
            Some(v) => v,
            None if args.trace => 0.0, // layer not exercised by this workload
            None => {
                out.fail(format!("end-to-end metric {name} was not measured"));
                f64::NAN
            }
        };
        if !value.is_finite() {
            out.fail(format!("metric {name} is not a finite number"));
        }
        fields.push(format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(value)
        ));
    }
    let correct = out.problems.is_empty() && out.failed == 0;
    println!(
        "# attempted={} failed={} failed_frac={:.4} correct={correct}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn benchmark_json_names_the_same_metrics_and_workloads() {
        let names = |list: &[(&str, &str)]| {
            for (name, unit) in list {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(
                    BENCHMARK_JSON.contains(&entry),
                    "BENCHMARK.json lacks {entry}"
                );
            }
        };
        names(&END_TO_END);
        names(PER_LAYER);
        for w in WORKLOADS {
            assert!(BENCHMARK_JSON.contains(&format!("\"name\": \"{w}\"")));
        }
        let count = BENCHMARK_JSON.matches("\"unit\"").count();
        assert_eq!(count, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload mf-kscan --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!((a.seed, a.trace), (7, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload mf-kscan --trace 2")).is_err());
        assert!(parse_args(&argv("--workload mf-kscan --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload mf-kscan --bogus 1")).is_err());
    }

    /// Every workload, both modes, at smoke size: all operations pass
    /// and every metric the mode owes is present and finite.
    fn smoke(workload: &str) {
        for trace in [false, true] {
            let args = Args {
                workload: workload.into(),
                seed: 3,
                seconds: 0.5,
                trace,
                smoke: true,
            };
            let mut out = measure(&args);
            let line = result_line(&args, &mut out);
            assert!(out.attempted > 0, "{workload}: nothing attempted");
            assert!(out.problems.is_empty(), "{workload}: {:?}", out.problems);
            assert!(line.starts_with("{\"correct\":true,"), "{line}");
            if !trace {
                for (name, _) in END_TO_END {
                    assert!(
                        out.value(name).is_some_and(|v| v > 0.0),
                        "{workload}: {name}"
                    );
                }
            }
        }
    }

    #[test]
    fn agent_smoke() {
        smoke("agent-clique-1e7");
    }

    #[test]
    fn mf_smoke() {
        smoke("mf-kscan");
    }
}
