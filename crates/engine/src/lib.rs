//! Simulation engines for the plurality-consensus dynamics.
//!
//! Two engines, one exact law:
//!
//! * [`MeanFieldEngine`] — `O(k)`-per-round **exact** simulation on the
//!   clique, by sampling the (group-wise) multinomial transition each
//!   dynamics exposes.  This is the workhorse for the paper's theorems,
//!   reaching populations of `10^9+`.
//! * [`AgentEngine`] — explicit per-node simulation (`O(n·h)` per round)
//!   on any [`plurality_topology::Topology`], deterministically
//!   parallelized over node chunks.  Cross-validates the mean-field
//!   engine and powers the non-clique extension experiments.
//!
//! Plus [`MonteCarlo`], a scheduling-independent parallel runner for
//! independent trials, and the shared run options / trial results /
//! trajectory tracing in [`run`] and [`trace`].
//!
//! Every engine draws from per-purpose PRNG streams of its trial seed;
//! the full stream registry and the parallel draw-order contract live in
//! `docs/DETERMINISM.md` at the repository root.
//!
//! This crate denies `unsafe` code with a single exception: the agent
//! engine's private cache-prefetch helper, which wraps the x86_64
//! `_mm_prefetch` hint (a no-op on other targets) and documents its
//! safety argument.  Every other crate in the workspace forbids
//! `unsafe` outright.
//!
//! ```
//! use plurality_core::{builders, ThreeMajority};
//! use plurality_engine::{MeanFieldEngine, RunOptions};
//! use plurality_sampling::stream_rng;
//!
//! let cfg = builders::biased(1_000_000, 10, 50_000);
//! let dynamics = ThreeMajority::new();
//! let engine = MeanFieldEngine::new(&dynamics);
//! let mut rng = stream_rng(7, 0);
//! let result = engine.run(&cfg, &RunOptions::default(), &mut rng);
//! assert!(result.success, "strong bias should carry the plurality");
//! ```

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod agent;
pub mod mean_field;
pub mod montecarlo;
pub mod run;
pub mod trace;

pub use agent::{layout_initial_states, AgentEngine, Placement, StateWidth};
pub use mean_field::MeanFieldEngine;
pub use montecarlo::MonteCarlo;
pub use run::{
    evaluate_stop, unique_initial_plurality, NoHook, RoundHook, RunOptions, StopReason, StopRule,
    TraceLevel, TrialResult,
};
pub use trace::{RoundStats, Trace};
