//! The server section of the traced run, made by the `mf-kscan`
//! workload's `--trace 1` run: an in-process job server with
//! `nproc − 1` workers and one client connection from the same process sending an open loop of
//! small jobs — mostly gossip on random-regular(8) at n = 2000, some
//! agent jobs on the clique at n = 10⁴, some mean-field jobs.  One
//! submission in eight carries a fresh seed, so its wiring misses the
//! state cache and sets the latency tail.
//!
//! The generator sends on a fixed schedule whatever the server does, and
//! every job is timed from its due time, so a stall also delays the jobs
//! queued behind it.  A `stats` snapshot before and after each phase
//! scopes the cache counters to that phase.
//!
//! It is not a gated workload: job execution is dominated by gossip
//! jobs, whose time follows neighbour load on a shared host further than
//! any end-to-end bound allows, and queueing amplifies that in the job
//! latency.  Its figures are reported per layer.

use crate::stats::{median, quantile, secs};
use crate::{host, Args, Outcome};
use plurality_sampling::derive_stream;
use plurality_server::{run_job, EngineKind, JobSpec, Server, StateCache};
use plurality_telemetry::json::{self, Json};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Offered rate of the fixed-rate phase, jobs per second (about half the
/// one-worker capacity of this mix on the reference host).
const FIXED_RATE: f64 = 75.0;

/// Offered rates of the capacity ladder, jobs per second.
const LADDER: [f64; 6] = [75.0, 100.0, 125.0, 150.0, 175.0, 200.0];

/// p99 latency limit a ladder rung must meet, milliseconds.
const P99_LIMIT_MS: f64 = 50.0;

/// Longest a phase waits for its last jobs after the last send.
const DRAIN: Duration = Duration::from_secs(10);

/// Warm gossip seeds shared by seven submissions in eight.
const WARM_SEEDS: u64 = 32;

/// A gossip job on random-regular(8), n = 2000, sequential pull, no
/// failures; `seed_index` selects its wiring.
#[must_use]
pub fn gossip_job(args: &Args, seed_index: u64) -> JobSpec {
    JobSpec {
        engine: EngineKind::Gossip,
        n: if args.smoke { 500 } else { 2_000 },
        k: 3,
        topology: "random-regular:d=8".into(),
        trials: 2,
        seed: derive_stream(args.seed, 1_000 + seed_index),
        ..JobSpec::default()
    }
}

fn agent_job(args: &Args) -> JobSpec {
    JobSpec {
        engine: EngineKind::Agent,
        n: if args.smoke { 2_000 } else { 10_000 },
        k: 8,
        topology: "clique".into(),
        trials: 1,
        seed: derive_stream(args.seed, 2_000),
        ..JobSpec::default()
    }
}

fn mf_job(args: &Args) -> JobSpec {
    JobSpec {
        engine: EngineKind::MeanField,
        n: 1_000_000,
        k: 8,
        trials: 4,
        seed: derive_stream(args.seed, 3_000),
        ..JobSpec::default()
    }
}

/// One of each job kind (the gossip one with warm seed `warm`).
#[must_use]
pub fn mix_specs(args: &Args, warm: u64) -> Vec<JobSpec> {
    vec![gossip_job(args, warm), agent_job(args), mf_job(args)]
}

/// The job submitted at position `i` of the open loop; `fresh` counts
/// fresh seeds handed out so far.
fn submission(args: &Args, i: u64, fresh: &mut u64) -> JobSpec {
    match i % 8 {
        3 => {
            *fresh += 1;
            gossip_job(args, WARM_SEEDS + *fresh)
        }
        6 => agent_job(args),
        7 => mf_job(args),
        _ => gossip_job(args, derive_stream(args.seed ^ i, 4) % WARM_SEEDS),
    }
}

/// A line received from the server, stamped on arrival.
struct Event {
    at: Instant,
    doc: Json,
}

/// The client connection: a writer, and a reader thread that stamps
/// and forwards every line.
struct Client {
    stream: TcpStream,
    events: Receiver<Event>,
    reader: Option<JoinHandle<()>>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let read = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        let (tx, events) = channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(read).lines() {
                let Ok(line) = line else { break };
                let at = Instant::now();
                let doc = json::parse(&line).unwrap_or(Json::Str(line));
                if tx.send(Event { at, doc }).is_err() {
                    break;
                }
            }
        });
        Ok(Self {
            stream,
            events,
            reader: Some(reader),
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// Wait for the next event whose `event` field is `kind`, dropping
    /// the lines before it (replies to jobs no phase is waiting for).
    fn wait_for(&mut self, kind: &str) -> Result<Json, String> {
        loop {
            let ev = self
                .events
                .recv_timeout(DRAIN)
                .map_err(|_| format!("no {kind} reply from the server"))?;
            if ev.doc.get("event").and_then(Json::as_str) == Some(kind) {
                return Ok(ev.doc);
            }
        }
    }

    /// Cache hit and miss counters from the `stats` op.
    fn cache_counters(&mut self) -> Result<(u128, u128), String> {
        self.send("{\"op\":\"stats\"}")?;
        let doc = self.wait_for("stats")?;
        let cache = doc.get("cache").ok_or("stats without cache")?;
        let num = |k: &str| {
            cache
                .get(k)
                .and_then(Json::as_num)
                .ok_or(format!("stats without {k}"))
        };
        Ok((num("hits")?, num("misses")?))
    }

    /// Ask the server to stop, close the connection and wait for the
    /// reader thread.
    fn shutdown(mut self) -> Result<(), String> {
        self.send("{\"op\":\"shutdown\"}")?;
        self.wait_for("bye")?;
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            reader.join().map_err(|_| "reader thread panicked")?;
        }
        Ok(())
    }
}

/// Per-trial fields compared between the wire and in-process `run_job`:
/// trial, rounds, converged, success, winner, and the gossip counters
/// (activations, messages, lost, delayed, superseded).
type Row = [u64; 10];

/// Job totals from the done line: trials, converged, wins.
type Totals = [u64; 3];

/// What the client saw of one job.
struct Seen {
    due: Instant,
    rows: Vec<Row>,
    /// Arrival of the done line, its totals, and the server's execution
    /// time (set-up + run) in nanoseconds.
    done: Option<(Instant, Totals, u64)>,
    /// An error line, or a line that did not parse as expected.
    error: Option<String>,
}

impl Seen {
    /// Fold one server line for this job in; true once the job is over.
    fn absorb(&mut self, at: Instant, doc: &Json) -> bool {
        let num = |k: &str| doc.get(k).and_then(Json::as_num).map(|v| v as u64);
        match doc.get("event").and_then(Json::as_str) {
            Some("trial") => {
                let row = (|| {
                    Some([
                        num("trial")?,
                        num("rounds")?,
                        num("converged")?,
                        num("success")?,
                        num("winner").unwrap_or(u64::MAX),
                        num("activations").unwrap_or(0),
                        num("messages").unwrap_or(0),
                        num("lost").unwrap_or(0),
                        num("delayed").unwrap_or(0),
                        num("superseded").unwrap_or(0),
                    ])
                })();
                match row {
                    Some(row) => self.rows.push(row),
                    None => self.error = Some("malformed trial line".into()),
                }
                false
            }
            Some("done") => {
                let done = (|| {
                    let totals = [num("trials")?, num("converged")?, num("wins")?];
                    Some((at, totals, num("setup_ns")? + num("run_ns")?))
                })();
                if done.is_none() {
                    self.error = Some("malformed done line".into());
                }
                self.done = done;
                true
            }
            _ => {
                let msg = doc
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("error line");
                self.error = Some(msg.to_string());
                true
            }
        }
    }
}

/// The server plus the client talking to it.
struct Running {
    client: Client,
    server: JoinHandle<()>,
}

impl Running {
    fn stop(self) -> Result<(), String> {
        self.client.shutdown()?;
        self.server
            .join()
            .map_err(|_| "server thread panicked".to_string())
    }
}

/// Start a server, connect, and run one job of every kind (each warm
/// gossip seed once) so the cache holds what the open loop reuses.
/// Returns the running pair and the seconds it took.
fn start(args: &Args, workers: usize) -> Result<(Running, f64), String> {
    let t = Instant::now();
    let (addr, server) = Server::spawn("127.0.0.1:0", workers).map_err(|e| format!("bind: {e}"))?;
    let mut client = Client::connect(addr)?;
    let mut warm: Vec<JobSpec> = (0..WARM_SEEDS).map(|s| gossip_job(args, s)).collect();
    warm.extend([agent_job(args), mf_job(args)]);
    for (id, spec) in warm.iter().enumerate() {
        client.send(&format!(
            "{{\"op\":\"run\",\"id\":{id},\"spec\":{}}}",
            spec.to_json()
        ))?;
    }
    for _ in &warm {
        let doc = client.wait_for("done")?;
        if doc.get("trials").and_then(Json::as_num).is_none() {
            return Err("warm-up job returned a malformed done line".into());
        }
    }
    Ok((Running { client, server }, secs(t)))
}

/// Results of one open-loop phase.
struct Phase {
    rate: f64,
    jobs: Vec<(JobSpec, Seen)>,
    lags_ms: Vec<f64>,
    hits: u128,
    misses: u128,
}

impl Phase {
    /// Client latency of every job from its due time to its done line,
    /// in milliseconds.  A job that failed or never finished counts as
    /// infinitely late, so it misses any latency limit.
    fn latencies_ms(&self) -> Vec<f64> {
        self.jobs
            .iter()
            .map(|(_, s)| match (s.done, &s.error) {
                (Some((at, ..)), None) => at.duration_since(s.due).as_secs_f64() * 1e3,
                _ => f64::INFINITY,
            })
            .collect()
    }

    /// Per finished job: client latency and server execution time, in
    /// milliseconds.
    fn timings_ms(&self) -> Vec<(f64, f64)> {
        self.jobs
            .iter()
            .filter_map(|(_, s)| {
                let (at, _, exec_ns) = s.done?;
                let latency = at.duration_since(s.due).as_secs_f64() * 1e3;
                Some((latency, exec_ns as f64 / 1e6))
            })
            .collect()
    }
}

/// Send `count` jobs at `rate` jobs/s starting now, folding replies in
/// as they arrive, then wait for the rest (at most [`DRAIN`]).
fn open_loop(
    args: &Args,
    client: &mut Client,
    rate: f64,
    count: u64,
    next_id: &mut u64,
    fresh: &mut u64,
) -> Result<Phase, String> {
    let (hits0, misses0) = client.cache_counters()?;
    let mut jobs: BTreeMap<u64, (JobSpec, Seen)> = BTreeMap::new();
    let mut open = 0usize;
    // Fold a line into its job; true when it finished one.
    let absorb = |jobs: &mut BTreeMap<u64, (JobSpec, Seen)>, ev: Event| {
        let id = ev
            .doc
            .get("id")
            .and_then(Json::as_num)
            .and_then(|id| u64::try_from(id).ok());
        id.and_then(|id| jobs.get_mut(&id))
            .is_some_and(|(_, seen)| seen.absorb(ev.at, &ev.doc))
    };
    let mut lags_ms = Vec::new();
    let t0 = Instant::now();
    for j in 0..count {
        let due = t0 + Duration::from_secs_f64(j as f64 / rate);
        while let Ok(ev) = client.events.try_recv() {
            open -= usize::from(absorb(&mut jobs, ev));
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let spec = submission(args, *next_id, fresh);
        let id = *next_id;
        *next_id += 1;
        client.send(&format!(
            "{{\"op\":\"run\",\"id\":{id},\"spec\":{}}}",
            spec.to_json()
        ))?;
        lags_ms.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
        let seen = Seen {
            due,
            rows: Vec::new(),
            done: None,
            error: None,
        };
        jobs.insert(id, (spec, seen));
        open += 1;
    }
    let deadline = Instant::now() + DRAIN;
    while open > 0 {
        match client
            .events
            .recv_timeout(deadline.saturating_duration_since(Instant::now()))
        {
            Ok(ev) => open -= usize::from(absorb(&mut jobs, ev)),
            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => break,
        }
    }
    let (hits1, misses1) = client.cache_counters()?;
    Ok(Phase {
        rate,
        jobs: jobs.into_values().collect(),
        lags_ms,
        hits: hits1 - hits0,
        misses: misses1 - misses0,
    })
}

/// Per-trial rows and totals of `spec` from `run_job` in this process.
fn expected(spec: &JobSpec) -> Result<(Vec<Row>, Totals), String> {
    let mut rows = Vec::new();
    let outcome = run_job(spec, &StateCache::new(), |row| {
        let g = row.gossip.unwrap_or_default();
        rows.push([
            row.trial as u64,
            row.rounds,
            u64::from(row.converged),
            u64::from(row.success),
            row.winner.map_or(u64::MAX, |w| w as u64),
            g.activations,
            g.messages,
            g.lost_messages,
            g.delayed_messages,
            g.superseded_commits,
        ]);
    })
    .map_err(|e| e.to_string())?;
    Ok((
        rows,
        [
            outcome.trials as u64,
            outcome.converged as u64,
            outcome.wins as u64,
        ],
    ))
}

/// Check every job of `phases` against in-process `run_job` on the same
/// spec, and that every trial reached consensus on the initial
/// plurality.  Records one operation per job.
fn verify(phases: &[&Phase], out: &mut Outcome) {
    let mut truth: HashMap<String, Result<(Vec<Row>, Totals), String>> = HashMap::new();
    for phase in phases {
        for (spec, seen) in &phase.jobs {
            let want = truth
                .entry(spec.to_json())
                .or_insert_with(|| expected(spec));
            let kind = spec.engine.name();
            let result = match (&seen.error, seen.done, &*want) {
                (Some(e), _, _) => Err(format!("{kind} job failed: {e}")),
                (None, None, _) => Err(format!("{kind} job never finished")),
                (None, Some(_), Err(e)) => Err(format!("in-process run_job failed: {e}")),
                (None, Some((_, totals, _)), Ok((rows, want_totals))) => {
                    if seen.rows != *rows || totals != *want_totals {
                        Err(format!(
                            "{kind} job over TCP disagrees with in-process run_job"
                        ))
                    } else if rows.iter().any(|r| r[2] != 1 || r[3] != 1) {
                        Err(format!(
                            "{kind} job did not reach consensus on the plurality"
                        ))
                    } else {
                        Ok(())
                    }
                }
            };
            out.op(result);
        }
    }
}

/// The server section of the traced run: a fixed-rate phase, then the
/// capacity ladder, each over a quarter of `--seconds`.
pub fn trace(args: &Args, out: &mut Outcome) {
    let workers = host::nproc().saturating_sub(1).max(1);
    out.note(&format!(
        "serve: {workers} worker(s), open loop at {FIXED_RATE} jobs/s, then ladder {LADDER:?}; \
         mix per 8 submissions: 5 warm gossip (n={}), 1 fresh-seed gossip, 1 agent (n={}), \
         1 mean-field (n={})",
        gossip_job(args, 0).n,
        agent_job(args).n,
        mf_job(args).n
    ));
    if let Err(e) = drive(args, workers, out) {
        out.op(Err(e));
    }
}

fn drive(args: &Args, workers: usize, out: &mut Outcome) -> Result<(), String> {
    let (mut running, setup_s) = start(args, workers)?;
    let (mut next_id, mut fresh) = (1_000u64, 0u64);
    let count = (FIXED_RATE * args.seconds / 4.0).ceil() as u64;
    let fixed = open_loop(
        args,
        &mut running.client,
        FIXED_RATE,
        count,
        &mut next_id,
        &mut fresh,
    )?;
    let rung_secs = args.seconds / 4.0 / LADDER.len() as f64;
    let mut ladder = Vec::new();
    for rate in LADDER {
        let n = (rate * rung_secs).ceil() as u64;
        let phase = open_loop(args, &mut running.client, rate, n, &mut next_id, &mut fresh)?;
        let ok = quantile(&phase.latencies_ms(), 0.99) <= P99_LIMIT_MS;
        // Every rung runs, so each run submits the same jobs (and holds
        // the same fresh wirings) whatever the capacity.
        ladder.push((phase, ok));
    }
    running.stop()?;

    let mut phases = vec![&fixed];
    phases.extend(ladder.iter().map(|(p, _)| p));
    verify(&phases, out);

    let lat = fixed.latencies_ms();
    let p99 = quantile(&lat, 0.99);
    let (exec, waits): (Vec<f64>, Vec<f64>) = fixed
        .timings_ms()
        .into_iter()
        .map(|(latency, exec)| (exec, latency - exec))
        .unzip();
    let max_rate = ladder
        .iter()
        .take_while(|(_, ok)| *ok)
        .map(|(p, _)| p.rate)
        .fold(0.0, f64::max);
    out.note(&format!("server start + cache warm-up took {setup_s:.3} s"));
    out.metric(
        "server.job_p50_ms",
        median(&lat),
        "ms",
        &format!(
            "latency from due time, {} jobs at {FIXED_RATE}/s",
            lat.len()
        ),
    );
    out.metric(
        "server.job_p99_ms",
        p99,
        "ms",
        &format!(
            "{} jobs beyond it",
            lat.iter().filter(|&&l| l > p99).count()
        ),
    );
    out.metric(
        "server.max_jobs_per_s",
        max_rate,
        "1/s",
        &format!("highest ladder rate with p99 <= {P99_LIMIT_MS} ms, a failed job counts as late"),
    );
    out.metric(
        "server.exec_ms_p50",
        median(&exec),
        "ms",
        "done line setup_ns + run_ns",
    );
    out.metric(
        "server.wait_ms_p50",
        median(&waits),
        "ms",
        "client latency - exec",
    );
    out.metric(
        "server.wait_ms_p99",
        quantile(&waits, 0.99),
        "ms",
        &format!("{} jobs", waits.len()),
    );
    out.metric(
        "server.cache_hit_frac",
        fixed.hits as f64 / (fixed.hits + fixed.misses).max(1) as f64,
        "ratio",
        &format!("{} hits, {} misses in the phase", fixed.hits, fixed.misses),
    );
    out.metric(
        "server.generator_lag_ms",
        quantile(&fixed.lags_ms, 0.99),
        "ms",
        "p99 send - due",
    );
    Ok(())
}
