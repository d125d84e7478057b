//! Per-layer probes the traced run makes on every workload: each times
//! one public entry point of a layer from outside, in a tight loop, at
//! the sizes the workloads use.

use crate::stats::{median, secs};
use crate::{agent, gossip, host, mf, serve, Args, Outcome};
use plurality_core::{builders, Dynamics, DynamicsCore, NodeScratch, SampleSource, ThreeMajority};
use plurality_sampling::multinomial::sample_multinomial;
use plurality_sampling::Xoshiro256PlusPlus;
use plurality_server::{auto_bias, JobSpec, StateCache};
use plurality_telemetry::json;
use plurality_topology::{downcast_topology, Clique, CsrGraph, TopologyCore};
use rand::{RngCore, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time budget of one probe.
const BUDGET: Duration = Duration::from_millis(150);

/// Nanoseconds per call of `f`: the median over batches of `batch`
/// calls, run for [`BUDGET`] and at least five batches.
fn probe_ns(batch: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < 5 || start.elapsed() < BUDGET {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_call.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&per_call)
}

/// A [`SampleSource`] that replays pre-drawn states, so a rule update
/// is timed without any sampling or memory traffic.
struct Replay<'a> {
    states: &'a [u32],
    at: usize,
}

impl SampleSource for Replay<'_> {
    #[inline]
    fn draw<R: RngCore + ?Sized>(&mut self, _rng: &mut R) -> u32 {
        let s = self.states[self.at];
        self.at = (self.at + 1) % self.states.len();
        s
    }
}

/// Run every probe and record its metric.
pub fn run(args: &Args, out: &mut Outcome) {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(args.seed);

    // sampling: one 64-bit draw.
    let rng_ns = probe_ns(1 << 16, || {
        black_box(rng.next_u64());
    });
    out.metric("sampling.rng_ns", rng_ns, "ns", "per next_u64");

    // topology: clique and CSR neighbor draws at the workloads' sizes,
    // and the CSR build.
    let agent_n = agent::spec(args).n as usize;
    let clique = Clique::new(agent_n);
    let mut node = 0usize;
    let clique_ns = probe_ns(1 << 16, || {
        node = clique.sample_neighbor_core(node, &mut rng);
    });
    out.metric(
        "topology.clique_sample_ns",
        clique_ns,
        "ns",
        &format!("n={agent_n}, RNG draw included"),
    );
    let gossip_spec = gossip::spec(args);
    let topo_spec = gossip_spec.topology_spec().expect("valid topology");
    let gossip_n = gossip_spec.n as usize;
    let builds: Vec<f64> = (0..3)
        .map(|i| {
            let t = Instant::now();
            black_box(
                topo_spec
                    .build(gossip_n, args.seed + i)
                    .expect("valid topology"),
            );
            secs(t) * 1e3
        })
        .collect();
    out.metric(
        "topology.build_ms",
        median(&builds),
        "ms",
        &format!("{topo_spec} at n={gossip_n}"),
    );
    let graph = topo_spec
        .build(gossip_n, args.seed)
        .expect("valid topology");
    let csr = downcast_topology::<CsrGraph>(&*graph).expect("random-regular is a CSR graph");
    let mut node = 0usize;
    let csr_ns = probe_ns(1 << 16, || {
        node = csr.sample_neighbor_core(node, &mut rng);
    });
    out.metric(
        "topology.csr_sample_ns",
        csr_ns,
        "ns",
        "dependent walk, RNG draw included",
    );

    // core: the 3-majority rule on replayed samples, and the mean-field
    // kernel with its multinomial draw at each ladder k.
    let rule = ThreeMajority::new();
    let replay: Vec<u32> = (0..3 * 4096).map(|_| (rng.next_u64() % 8) as u32).collect();
    let mut source = Replay {
        states: &replay,
        at: 0,
    };
    let mut scratch = NodeScratch::with_states(8);
    let mut own = 0u32;
    let update_ns = probe_ns(1 << 16, || {
        own = rule.node_update_core(own, &mut source, &mut scratch, &mut rng);
    });
    out.metric(
        "core.update_ns",
        update_ns,
        "ns",
        "ThreeMajority::node_update_core, k=8",
    );
    let mf_n = mf::population(args);
    for k in mf::LADDER {
        let cfg = builders::biased(mf_n, k, auto_bias(mf_n, k));
        let cur = cfg.counts().to_vec();
        let mut next = vec![0u64; k];
        let step_us = probe_ns(64, || {
            rule.step_mean_field(&cur, &mut next, &mut rng);
        }) / 1e3;
        out.metric(
            &format!("core.mf_step_us.k{k}"),
            step_us,
            "us",
            "step_mean_field from the initial config",
        );
        let probs: Vec<f64> = cur.iter().map(|&c| c as f64 / mf_n as f64).collect();
        let draw_us = probe_ns(64, || {
            sample_multinomial(mf_n, &probs, &mut next, &mut rng);
        }) / 1e3;
        out.metric(
            &format!("sampling.multinomial_us.k{k}"),
            draw_us,
            "us",
            &format!("n={mf_n}"),
        );
    }

    // server: request parsing and the topology cache, hit and miss.
    let lines: Vec<String> = serve::mix_specs(args, 1)
        .iter()
        .map(|s| format!("{{\"op\":\"run\",\"id\":1,\"spec\":{}}}", s.to_json()))
        .collect();
    let mut i = 0usize;
    let parse_us = probe_ns(256, || {
        let doc = json::parse(&lines[i % lines.len()]).expect("well-formed request");
        black_box(JobSpec::from_json(doc.get("spec").expect("has spec")).expect("valid spec"));
        i += 1;
    }) / 1e3;
    out.metric(
        "server.parse_us",
        parse_us,
        "us",
        "json::parse + JobSpec::from_json",
    );
    let job = serve::gossip_job(args, 0);
    let cache = StateCache::new();
    let builds: Vec<f64> = (0..5)
        .map(|_| {
            let fresh = StateCache::new();
            let t = Instant::now();
            black_box(fresh.topology(&job).expect("valid spec"));
            secs(t) * 1e3
        })
        .collect();
    out.metric(
        "server.cache_build_ms",
        median(&builds),
        "ms",
        &format!("miss, {} n={}", job.topology, job.n),
    );
    cache.topology(&job).expect("valid spec");
    let hit_us = probe_ns(256, || {
        black_box(cache.topology(&job).expect("valid spec"));
    }) / 1e3;
    out.metric(
        "server.cache_hit_us",
        hit_us,
        "us",
        "StateCache::topology hit",
    );

    // host: random gathers at the agent working set, and streaming
    // bandwidth over an array at least four times the last-level cache.
    out.metric(
        "host.gather_ns",
        host::gather_ns(agent_n, args.seed),
        "ns",
        &format!("{agent_n}-byte u8 array"),
    );
    let llc = host::cache_sizes().1.unwrap_or(256 << 20) as usize;
    let bytes = if args.smoke { 64 << 20 } else { 4 * llc };
    out.metric(
        "host.stream_gbps",
        host::stream_gbps(bytes),
        "GB/s",
        &format!("{} MiB array, LLC {} MiB", bytes >> 20, llc >> 20),
    );
}
