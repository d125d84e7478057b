//! Event-driven **asynchronous** gossip simulation of the plurality
//! consensus dynamics.
//!
//! The paper analyses its dynamics in the synchronous clique model: in
//! every round, every node simultaneously samples peers and updates.  Its
//! follow-up literature (*Plurality Consensus in the Gossip Model*,
//! Becchetti et al. 2014; *Fast Consensus via the Unconstrained Undecided
//! State Dynamics*, Bankhamer et al. 2021) asks what survives under
//! **asynchrony**, **unreliable communication**, and the **PUSH/PULL
//! trade-off**.  This crate answers those questions experimentally for
//! every [`plurality_core::Dynamics`], through the same
//! run/trace/result contract as the synchronous engines, so Monte-Carlo
//! runners, analysis, experiments, and the CLI compose with it
//! unchanged.
//!
//! # Model
//!
//! Nodes activate one at a time.  What an activation *does* is chosen by
//! the [`ExchangeMode`]:
//!
//! * [`ExchangeMode::Pull`] — the node issues PULL sample requests (one
//!   message per sample its rule draws) and recolors from the responses.
//!   This is the paper's model and the default.
//! * [`ExchangeMode::Push`] — the node sends its own color to one random
//!   peer; received colors queue in per-node inboxes, and a node's rule
//!   runs (at its own activation) only once its inbox can answer every
//!   sample — see [`crate::modes`] for the starvation semantics.
//! * [`ExchangeMode::PushPull`] — every sample request is a
//!   bidirectional call: the peer's color comes back (pull leg) while
//!   the caller's color lands in the peer's inbox (push leg); later
//!   activations consume the inbox before placing fresh calls.  Network
//!   loss/delay strike each leg independently.
//!
//! *When* nodes activate is the [`Scheduler`]'s job:
//!
//! * [`Scheduler::Sequential`] — a discrete-time sequential process: at
//!   each step one random node activates (uniformly, or
//!   rate-proportionally under heterogeneous rates).  Step `i` happens at
//!   time `i/n`, so one unit of time ("tick") is `n` activations — the
//!   asynchronous analogue of one synchronous round.
//! * [`Scheduler::Poisson`] — each node carries an independent Poisson
//!   clock (rate 1, or its own rate from
//!   [`GossipEngine::with_node_rates`]).  The superposition theorem makes
//!   this exact *without* per-node heap entries: the union of the clocks
//!   is one Poisson process of the total rate whose events land on nodes
//!   rate-proportionally, so each activation costs `O(1)` (uniform
//!   rates) instead of `O(log n)` heap traffic — see [`crate::scheduler`]
//!   for the event-queue design and `BENCH_gossip_scheduler.json` for
//!   the measured gap to the sequential scheduler.  The embedded jump
//!   chain is exactly the sequential process; only real-time stamps
//!   differ.  The cross-validation tests pin this down.
//!
//! Network conditions apply per message — and, for PUSH-PULL, per *leg*
//! ([`NetworkConfig`]):
//!
//! * **loss** — with probability `loss_fraction` a payload is dropped.
//!   A lost PULL sample falls back to the requester's *own* current
//!   color (a node can always count itself); a lost push leg simply
//!   never reaches the peer's inbox.
//! * **delay** — with probability `delay_fraction` a payload is slow: it
//!   still carries the state read at send time, but lands after an
//!   `Exp(1)`-distributed extra time (in ticks).  A delayed PULL response
//!   gates the requester's recolor (the commit is superseded if the node
//!   activates again first — last activation wins); a delayed push leg
//!   parks in the event queue and joins the peer's inbox late.
//!
//! PUSH and PUSH-PULL buffer received colors in bounded per-node
//! inboxes ([`INBOX_CAP`]); what a *full* inbox does with the next
//! receipt is the [`InboxPolicy`]: drop-oldest by default, drop-newest
//! as the maximally stale alternative, random-replace for geometric
//! staleness, or a TTL that expires colors by age (`ttl=T` in the CLI).
//!
//! # Telemetry
//!
//! [`GossipEngine::run_recorded`] threads a
//! [`plurality_telemetry::Recorder`] through the monomorphized event
//! loop: message counters attributed per failure layer ([`DropLayer`]),
//! inbox admission/eviction/staleness accounting, scheduler queue depth
//! and lazy-deletion waste, delay distributions, and phase timers.
//! Recording consumes no randomness, and the disabled
//! (`NoopRecorder`) instantiation — what `run`/`run_detailed` use —
//! compiles to the uninstrumented engine, so golden traces stay
//! bit-identical and the hot path stays at parity (the
//! `metrics_overhead` bench measures the off/on gap).  The counters obey exact
//! conservation laws (documented on `plurality_telemetry::Counter`)
//! that `tests/metrics_reconcile.rs` pins across mode × scheduler ×
//! failure-scenario grids.
//!
//! # Failure models
//!
//! [`NetworkConfig`] is the i.i.d. baseline: every message flips the
//! same coins.  The [`crate::failure`] module generalizes it to
//! **structured** failures via [`FailureModel`], which layers on top of
//! the baseline (resolution order is documented there):
//!
//! * **per-edge** parameters ([`EdgeDists`]) — loss/delay drawn *once
//!   per unordered edge* from configurable distributions
//!   ([`ParamDist`]: fixed, uniform range, or flaky-fraction), backed
//!   by deterministic per-edge streams; on CSR topologies the engine
//!   precomputes a dense per-directed-slot table (a pure cache —
//!   trajectories are identical without it);
//! * **time-varying** schedules ([`Window`]) — absolute loss/delay
//!   overrides during `[t0, t1)` windows (degraded periods);
//! * **correlated** failures — a per-edge two-state Gilbert–Elliott
//!   good/bad channel ([`GilbertElliott`]), node-scoped burst outages
//!   ([`NodeOutages`]), and a timed `k`-way [`Partition`] that silences
//!   cross-cut edges.
//!
//! Loss and delay still strike *per message* — and per **leg** in
//! PUSH-PULL — whatever layer produced the effective fractions.  A
//! model that reduces to the uniform baseline (no schedule/chains, all
//! edges alike) reproduces plain [`NetworkConfig`] trials **bit for
//! bit**; the golden fingerprints and the degenerate-equivalence
//! property suites pin this.  Configure with
//! [`GossipEngine::with_failure_model`], the CLI's `--failure` scenario
//! DSL ([`FailureModel::parse`]), or experiment e16 (the robustness
//! grid).
//!
//! Every message draws its loss/delay/peer randomness from its own
//! deterministic RNG stream (`stream_rng(message_master, message_index)`),
//! chain randomness (burst holding times) from the trial's dedicated
//! failure stream, and model-scoped randomness (per-edge parameters,
//! partition assignment, outage membership) from the model's salt — so a
//! trial is a pure function of `(seed, mode, scheduler, rates, failure
//! model)` and the condition grid of an experiment cannot perturb the
//! scheduler's randomness.
//!
//! With the default PULL mode, `delay_fraction = 0` and `loss_fraction =
//! 0`, the engine is the standard asynchronous (sequential-activation)
//! version of the dynamics; on the clique its convergence statistics
//! match the synchronous engines' within statistical tolerance, and the
//! PUSH-PULL variant matches PULL's convergence law (see
//! `tests/gossip_vs_sync.rs` and `tests/gossip_modes.rs` at the
//! workspace root).
//!
//! # Churn (dynamic membership)
//!
//! [`ChurnModel`] ([`crate::churn`]) makes the population itself
//! dynamic: Poisson **crash** / graceful-**leave** / **rejoin** / fresh
//! **join** processes mutate a membership overlay on the base topology
//! (`plurality_topology::Membership`) while the run is in flight.  Dead
//! nodes stop activating, their inboxes are flushed and in-flight
//! traffic to them is orphaned; samplers redraw around dead peers (a
//! bounded redraw budget, then the sample is lost to the `dead_peer`
//! layer); rejoining nodes return with their stale color or a fresh one,
//! and joining spares attach via overlay edges and color themselves by a
//! configurable [`InitPolicy`].  All churn randomness lives on its own
//! per-trial stream, so a zero-rate model is bit-identical to no churn
//! at all.  Configure with [`GossipEngine::with_churn_model`], the CLI's
//! `--churn` DSL ([`ChurnModel::parse`]), or experiment e18 (the churn
//! phase-boundary grid).
//!
//! # Quick start
//!
//! ```
//! use plurality_core::{builders, ThreeMajority};
//! use plurality_engine::{Placement, RunOptions};
//! use plurality_gossip::{ExchangeMode, GossipEngine, NetworkConfig, Scheduler};
//! use plurality_topology::Clique;
//!
//! let clique = Clique::new(2_000);
//! let cfg = builders::biased(2_000, 4, 800);
//! let engine = GossipEngine::new(&clique)
//!     .with_mode(ExchangeMode::PushPull)
//!     .with_scheduler(Scheduler::Poisson)
//!     .with_network(NetworkConfig::new(0.25, 0.02));
//! let r = engine.run(
//!     &ThreeMajority::new(),
//!     &cfg,
//!     Placement::Shuffled,
//!     &RunOptions::with_max_rounds(20_000),
//!     7,
//! );
//! assert!(r.success, "biased start should carry the plurality");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod engine;
pub mod failure;
pub mod modes;
pub mod network;
pub mod scheduler;

pub use churn::{ChurnModel, InitPolicy, DEFAULT_ATTACH};
pub use engine::{GossipEngine, GossipStats};
pub use failure::{
    DropLayer, EdgeDists, FailureModel, FailureState, GilbertElliott, LinkConditions, NodeOutages,
    ParamDist, Partition, Window,
};
pub use modes::{ExchangeMode, Inbox, InboxAdmit, InboxPolicy, INBOX_CAP};
pub use network::{ExchangeFate, LegFate, MessageFate, NetworkConfig};
pub use scheduler::{ActivationClock, EventKind, EventQueue, RatedActivation, Scheduler};
