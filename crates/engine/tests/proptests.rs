//! Property-based tests on the engines: arbitrary starts must produce
//! well-formed trials, monotone traces, and scheduling-independent
//! Monte-Carlo output.

use plurality_core::{builders, Dynamics, HPlurality, ThreeMajority, UndecidedState, Voter};
use plurality_engine::{
    AgentEngine, MeanFieldEngine, MonteCarlo, Placement, RunOptions, StateWidth, StopReason,
};
use plurality_sampling::stream_rng;
use plurality_topology::{random_regular, Clique, Topology};
use proptest::prelude::*;

/// The dispatch-table rules the determinism contract is pinned over:
/// one batched fixed-draws rule (3-majority), one with data-dependent
/// randomness (h-plurality's reservoir tie-break), one lifted-state rule
/// (undecided), and the single-draw baseline (voter).
fn zoo_dynamics(idx: usize, k: usize) -> Box<dyn Dynamics> {
    match idx {
        0 => Box::new(ThreeMajority::new()),
        1 => Box::new(HPlurality::new(4)),
        2 => Box::new(UndecidedState::new(k)),
        _ => Box::new(Voter),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any biased start: the trial result is internally consistent.
    #[test]
    fn mean_field_trial_consistency(
        n in 1_000u64..200_000,
        k in 2usize..10,
        bias_frac in 0.05f64..0.6,
        seed in any::<u64>(),
    ) {
        let s = ((n as f64) * bias_frac) as u64;
        prop_assume!(s >= 1 && s <= n);
        let cfg = builders::biased(n, k, s);
        let d = ThreeMajority::new();
        let engine = MeanFieldEngine::new(&d);
        let opts = RunOptions::with_max_rounds(100_000).traced();
        let mut rng = stream_rng(seed, 0);
        let r = engine.run(&cfg, &opts, &mut rng);

        prop_assert_eq!(r.initial_plurality, 0);
        match r.reason {
            StopReason::Stopped => {
                prop_assert!(r.winner.is_some());
                prop_assert_eq!(r.success, r.winner == Some(0));
            }
            StopReason::MaxRounds => {
                prop_assert!(r.winner.is_none());
                prop_assert!(!r.success);
            }
        }
        let trace = r.trace.expect("traced");
        prop_assert_eq!(trace.rounds.len() as u64, r.rounds + 1);
        // Population conserved every recorded round.
        for stats in &trace.rounds {
            prop_assert_eq!(
                stats.plurality_count + stats.minority_mass + stats.extra_state_mass,
                n
            );
        }
        // Round indices are 0..=rounds in order.
        for (i, stats) in trace.rounds.iter().enumerate() {
            prop_assert_eq!(stats.round, i as u64);
        }
    }

    /// The agent engine is bit-identical across thread counts — full
    /// per-round traces, not just the outcome — for every dispatch-table
    /// topology (clique, CSR) × dynamics (3-majority, h-plurality,
    /// undecided, voter) pair, any seed, and any thread count.
    #[test]
    fn agent_threads_invariant(
        n in 64usize..400,
        k in 2usize..5,
        seed in any::<u64>(),
        threads in 2usize..6,
        use_csr in any::<bool>(),
        dyn_idx in 0usize..4,
    ) {
        let n_u = n as u64;
        let cfg = builders::biased(n_u, k, n_u / 4);
        let topo: Box<dyn Topology> = if use_csr {
            // degree 8 keeps n·d even for every n.
            Box::new(random_regular(n, 8, seed ^ 0x70B0))
        } else {
            Box::new(Clique::new(n))
        };
        let d = zoo_dynamics(dyn_idx, k);
        let opts = RunOptions::with_max_rounds(120).traced();
        let small_chunk = 64; // force multiple chunks even at small n
        let a = AgentEngine::new(&*topo)
            .with_chunk_size(small_chunk)
            .run(d.as_ref(), &cfg, Placement::Shuffled, &opts, seed);
        let b = AgentEngine::new(&*topo)
            .with_threads(threads)
            .with_chunk_size(small_chunk)
            .run(d.as_ref(), &cfg, Placement::Shuffled, &opts, seed);
        prop_assert_eq!(a.rounds, b.rounds);
        prop_assert_eq!(a.winner, b.winner);
        prop_assert_eq!(
            a.trace.expect("traced").rounds,
            b.trace.expect("traced").rounds
        );
    }

    /// Narrow state words are storage only: `Auto` (packed 4-bit here —
    /// at most 6 states, even chunk size) and forced `u8` words produce
    /// the same trajectory as the widest word, sequential or sharded (odd
    /// n leaves the last packed byte half used).
    #[test]
    fn agent_state_width_invariant(
        n in 64usize..300,
        k in 2usize..5,
        seed in any::<u64>(),
        threads in 1usize..4,
        dyn_idx in 0usize..4,
    ) {
        let n_u = n as u64;
        let cfg = builders::biased(n_u, k, n_u / 4);
        let clique = Clique::new(n);
        let d = zoo_dynamics(dyn_idx, k);
        let opts = RunOptions::with_max_rounds(120).traced();
        let run_width = |w: StateWidth| {
            AgentEngine::new(&clique)
                .with_threads(threads)
                .with_chunk_size(64)
                .with_state_width(w)
                .run(d.as_ref(), &cfg, Placement::Shuffled, &opts, seed)
        };
        let wide = run_width(StateWidth::U32);
        for width in [StateWidth::Auto, StateWidth::U8] {
            let narrow = run_width(width);
            prop_assert_eq!(narrow.rounds, wide.rounds, "{:?}", width);
            prop_assert_eq!(narrow.winner, wide.winner, "{:?}", width);
            prop_assert_eq!(
                &narrow.trace.expect("traced").rounds,
                &wide.trace.as_ref().expect("traced").rounds,
                "{:?}", width
            );
        }
    }

    /// Monte-Carlo output is a pure function of (seed, trials), not of
    /// the thread count, for an arbitrary stochastic job.
    #[test]
    fn montecarlo_scheduling_free(
        trials in 1usize..24,
        seed in any::<u64>(),
        threads in 2usize..8,
    ) {
        let cfg = builders::binary(10_000, 4_000);
        let engine_dynamics = Voter;
        let engine = MeanFieldEngine::new(&engine_dynamics);
        let opts = RunOptions::with_max_rounds(200);
        let serial = MonteCarlo { trials, threads: 1, master_seed: seed }
            .run(|_, rng| engine.run(&cfg, &opts, rng).rounds);
        let parallel = MonteCarlo { trials, threads, master_seed: seed }
            .run(|_, rng| engine.run(&cfg, &opts, rng).rounds);
        prop_assert_eq!(serial, parallel);
    }

    /// M-plurality stopping is never later than full consensus under the
    /// same randomness.
    #[test]
    fn mplurality_stops_no_later(
        n in 10_000u64..100_000,
        m_frac in 0.001f64..0.2,
        seed in any::<u64>(),
    ) {
        let cfg = builders::biased(n, 4, n / 3);
        let d = ThreeMajority::new();
        let engine = MeanFieldEngine::new(&d);
        let m = ((n as f64) * m_frac) as u64;
        let full = engine.run(
            &cfg,
            &RunOptions::with_max_rounds(100_000),
            &mut stream_rng(seed, 0),
        );
        let early = engine.run(
            &cfg,
            &RunOptions {
                stop: plurality_engine::StopRule::MPlurality(m),
                ..RunOptions::with_max_rounds(100_000)
            },
            &mut stream_rng(seed, 0),
        );
        prop_assert!(early.rounds <= full.rounds);
    }
}
