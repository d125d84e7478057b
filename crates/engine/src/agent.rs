//! The agent-based engine: explicit per-node simulation on arbitrary
//! topologies.
//!
//! Where the mean-field engine exploits the clique's exchangeability, this
//! engine keeps one state per node and executes every sample the dynamics
//! draws — `O(n·h)` per round — which is what makes non-clique topologies
//! (and cross-validation of the mean-field engine) possible.
//!
//! # Determinism under parallelism
//!
//! Rounds are parallelized over *fixed-size node chunks*; chunk `c` of
//! round `r` always draws from the PRNG stream `1 + r·C + c` of the trial
//! seed (`C` = number of chunks), regardless of how chunks are assigned
//! to threads.  A run is therefore bit-for-bit identical for any
//! `threads` setting — the property the determinism tests pin down.  The
//! full draw-order contract, including the batched-draw and state-width
//! invariances below, is written down in `docs/DETERMINISM.md`.
//!
//! # Worker pool
//!
//! With `threads > 1` the round loop runs on a persistent pool: workers
//! are spawned once per trial and synchronize on a [`Barrier`] twice per
//! round (once after writing their span of the next-state array, once
//! after the coordinator has merged counts and evaluated the stop rule).
//! Node states live in two shared buffers of relaxed atomics — each node
//! is written by exactly one worker and reads only the previous round's
//! buffer, so the barrier provides all the ordering the round needs.
//!
//! # Narrow state words
//!
//! The per-node state arrays store 4-bit/`u8`/`u16`/`u32` words, picked
//! by the dynamics' state count (`k ≤ 16` → 4-bit, `k ≤ 256` → `u8`,
//! `k ≤ 65 536` → `u16`).  4-bit states pack two nodes per byte — node
//! `i` in the low nibble of byte `i / 2` when `i` is even, the high
//! nibble when odd — and are written by a load-modify-store of the byte.
//! Two workers never share a byte because the packed layout is used only
//! with an even chunk size, which starts every worker's span on a byte
//! boundary; with an odd chunk size `Auto` falls back to `u8`.  All
//! randomness is consumed sampling *node indices*, never states, so the
//! trajectory is independent of the word width; a pin test runs the
//! packed layout (reached only through [`StateWidth::Auto`]) and each
//! forced width over the same seed and compares traces.
//!
//! # Batched neighbor draws
//!
//! Rules that declare [`Dynamics::fixed_draws`]`= Some(s)` (exactly `s`
//! sampler draws, no other randomness) run a three-pass loop over each
//! batch of nodes: first draw the `s` neighbor indices of every node in
//! node order into an index buffer, prefetching each indexed state's
//! cache line as it is drawn, then gather the indexed states in a pure
//! load loop, then evaluate the rule over the gathered buffer.  The
//! prefetches' misses complete while the next draws are computed, so the
//! gather pass mostly reads lines already in cache.  A prefetch is a
//! hint that consumes no randomness and changes no state, and the draw
//! order is unchanged — the same draws, in the same order, from the same
//! chunk stream as the one-pass path — so the PRNG sequence is identical
//! and golden fingerprints pin both paths.  The prefetch helper is the
//! engine's one `unsafe` block (`_mm_prefetch` on x86_64, a no-op
//! elsewhere).
//!
//! # Devirtualization
//!
//! The public constructors still take `&dyn Topology` / `&dyn Dynamics`
//! so the CLI, experiments, and adversary hooks compose unchanged, but
//! [`AgentEngine::run`] resolves both to concrete types up front
//! (`downcast_topology` / `downcast_dynamics`) and runs a round loop
//! monomorphized over `(Topology, Dynamics, Xoshiro256PlusPlus)` — the
//! three layers of per-sample virtual dispatch inline away.  Types
//! outside the dispatch tables fall back to [`DynTopology`] /
//! [`DynDynamics`] wrappers, which cost exactly what the pre-refactor
//! engine cost.  Both paths consume the PRNG identically; golden-trace
//! tests (`tests/agent_golden.rs`) pin them bit-for-bit.
//!
//! # Telemetry
//!
//! [`AgentEngine::run_recorded`] threads a
//! [`plurality_telemetry::Recorder`] through the round loop: samples
//! drawn, per-round wall-clock, leading-color occupancy, and phase
//! timers.  Recording consumes no randomness and never branches the
//! simulation, so the trajectory is independent of the recorder; the
//! disabled ([`NoopRecorder`]) instantiation — what [`AgentEngine::run`]
//! uses — compiles the instrumentation away.

use crate::run::{
    evaluate_stop, unique_initial_plurality, RunOptions, StopReason, TraceLevel, TrialResult,
};
use crate::trace::Trace;
use plurality_core::{
    downcast_dynamics, Configuration, DynDynamics, Dynamics, DynamicsCore, HPlurality, NodeScratch,
    SampleSource, ThreeMajority, UndecidedState, Voter,
};
use plurality_sampling::stream_rng;
use plurality_telemetry::{ticks_to_fp, Counter, Gauge, Hist, NoopRecorder, Phase, Recorder};
use plurality_topology::{
    downcast_topology, ChungLu, Clique, CsrGraph, DynTopology, ImplicitRing, Topology, TopologyCore,
};
use rand::{Rng, RngCore};
use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU32, AtomicU8, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// How initial colors are laid onto nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Random assignment (uniform over placements with the given counts).
    /// The right default: on non-clique topologies adversarial placements
    /// change the process.
    #[default]
    Shuffled,
    /// Contiguous blocks of equal color (worst-case-ish for sparse
    /// topologies; useful for placement-sensitivity experiments).
    Blocks,
}

/// Storage width of the per-node state array.
///
/// [`StateWidth::Auto`] (the default) picks the narrowest word the
/// dynamics' state count fits; the explicit widths exist for the
/// width-equivalence pin tests and benchmarks.  The trajectory is
/// independent of the width — randomness samples node indices, never
/// state words — so forcing a wider word changes memory traffic only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StateWidth {
    /// Narrowest word that fits the state count: 4-bit (two nodes per
    /// byte, only with an even chunk size), `u8`, `u16`, or `u32`.
    #[default]
    Auto,
    /// Force `u8` words (panics at run time if the state count exceeds 256).
    U8,
    /// Force `u16` words (panics at run time if the state count exceeds 65 536).
    U16,
    /// Force `u32` words (always fits).
    U32,
}

/// Lay a (lifted) state configuration onto nodes: contiguous blocks per
/// state, Fisher–Yates-shuffled on PRNG stream 0 of the trial seed when
/// `placement` is [`Placement::Shuffled`].
///
/// This is the one layout convention shared by every per-node engine
/// (the agent engine here and the asynchronous gossip engine), so that
/// their trials start from identically distributed placements.
#[must_use]
pub fn layout_initial_states(lifted: &Configuration, placement: Placement, seed: u64) -> Vec<u32> {
    let mut states: Vec<u32> = Vec::with_capacity(lifted.n() as usize);
    for (state, &count) in lifted.counts().iter().enumerate() {
        states.extend(std::iter::repeat_n(state as u32, count as usize));
    }
    if placement == Placement::Shuffled {
        let mut rng = stream_rng(seed, 0);
        for i in (1..states.len()).rev() {
            let j = rng.gen_range(0..=i);
            states.swap(i, j);
        }
    }
    states
}

/// The state-array layout a run actually uses, resolved from
/// [`StateWidth`] by [`AgentEngine::resolve_width`].  Packed 4-bit states
/// are reachable only through [`StateWidth::Auto`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WordLayout {
    U4,
    U8,
    U16,
    U32,
}

/// Per-node simulator over a [`Topology`].
pub struct AgentEngine<'t> {
    topology: &'t dyn Topology,
    threads: usize,
    chunk_size: usize,
    width: StateWidth,
}

/// Nodes per batch on the batched-draw path; bounds the index and gather
/// buffers at `BATCH_NODES · s` entries each so they stay cache-resident.
const BATCH_NODES: usize = 1024;

/// A state-array layout narrow enough for the dynamics' state count:
/// the storage cell of the sequential buffer, its atomic twin for the
/// shared (parallel) buffers, and how node states pack into cells.  All
/// atomic loads/stores are `Relaxed`: each cell is written by exactly one
/// worker per round and the per-round [`Barrier`] orders rounds against
/// each other.
trait StateWord: 'static {
    /// Storage cell of the sequential buffer.
    type Cell: Copy + Default + Send + Sync;
    /// The matching atomic cell type.
    type Atomic: Send + Sync;
    /// Largest representable state count.
    const CAPACITY: usize;
    /// Nodes stored per cell: 1, or 2 for packed 4-bit states.
    const PER_CELL: usize;
    /// Pack node states (all below `CAPACITY`) into cells.
    fn pack(states: &[u32]) -> Vec<Self::Cell>;
    fn atomic_from(c: Self::Cell) -> Self::Atomic;
    fn read(cells: &[Self::Cell], i: usize) -> u32;
    fn write(cells: &mut [Self::Cell], i: usize, v: u32);
    fn atomic_read(cells: &[Self::Atomic], i: usize) -> u32;
    fn atomic_write(cells: &[Self::Atomic], i: usize, v: u32);
}

macro_rules! impl_state_word {
    ($word:ty, $atomic:ty) => {
        impl StateWord for $word {
            type Cell = $word;
            type Atomic = $atomic;
            const CAPACITY: usize = (<$word>::MAX as usize) + 1;
            const PER_CELL: usize = 1;

            fn pack(states: &[u32]) -> Vec<$word> {
                states.iter().map(|&s| s as $word).collect()
            }

            #[inline(always)]
            fn atomic_from(c: $word) -> $atomic {
                <$atomic>::new(c)
            }

            #[inline(always)]
            fn read(cells: &[$word], i: usize) -> u32 {
                cells[i] as u32
            }

            #[inline(always)]
            fn write(cells: &mut [$word], i: usize, v: u32) {
                cells[i] = v as $word;
            }

            #[inline(always)]
            fn atomic_read(cells: &[$atomic], i: usize) -> u32 {
                cells[i].load(Ordering::Relaxed) as u32
            }

            #[inline(always)]
            fn atomic_write(cells: &[$atomic], i: usize, v: u32) {
                cells[i].store(v as $word, Ordering::Relaxed);
            }
        }
    };
}

impl_state_word!(u8, AtomicU8);
impl_state_word!(u16, AtomicU16);
impl_state_word!(u32, AtomicU32);

/// Two 4-bit states per byte: node `i` lives in byte `i / 2`, in the low
/// nibble when `i` is even and the high nibble when odd.  A write is a
/// load-modify-store of the byte, which is race-free on the shared
/// buffers only because both nodes of a byte belong to the same worker:
/// the engine uses this layout only with an even chunk size, so every
/// worker's span starts on a byte boundary.
struct U4;

impl U4 {
    #[inline(always)]
    fn shift(i: usize) -> u32 {
        ((i & 1) as u32) << 2
    }

    #[inline(always)]
    fn merge(byte: u8, i: usize, v: u32) -> u8 {
        let shift = Self::shift(i);
        (byte & !(0xF << shift)) | ((v as u8) << shift)
    }
}

impl StateWord for U4 {
    type Cell = u8;
    type Atomic = AtomicU8;
    const CAPACITY: usize = 16;
    const PER_CELL: usize = 2;

    fn pack(states: &[u32]) -> Vec<u8> {
        states
            .chunks(2)
            .map(|pair| pair.iter().rev().fold(0u8, |b, &s| (b << 4) | s as u8))
            .collect()
    }

    #[inline(always)]
    fn atomic_from(c: u8) -> AtomicU8 {
        AtomicU8::new(c)
    }

    #[inline(always)]
    fn read(cells: &[u8], i: usize) -> u32 {
        u32::from(cells[i >> 1] >> Self::shift(i)) & 0xF
    }

    #[inline(always)]
    fn write(cells: &mut [u8], i: usize, v: u32) {
        let cell = &mut cells[i >> 1];
        *cell = Self::merge(*cell, i, v);
    }

    #[inline(always)]
    fn atomic_read(cells: &[AtomicU8], i: usize) -> u32 {
        u32::from(cells[i >> 1].load(Ordering::Relaxed) >> Self::shift(i)) & 0xF
    }

    #[inline(always)]
    fn atomic_write(cells: &[AtomicU8], i: usize, v: u32) {
        let cell = &cells[i >> 1];
        cell.store(
            Self::merge(cell.load(Ordering::Relaxed), i, v),
            Ordering::Relaxed,
        );
    }
}

/// Ask the CPU to start loading the cache line holding `*p` into L1.
/// A hint only: no architectural effect, and a no-op off x86_64.
#[allow(unsafe_code)]
#[inline(always)]
fn prefetch_line<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: a prefetch is a hint that never faults, whatever the
        // address, and does not read or write memory as far as the
        // program can observe; SSE is part of the x86_64 baseline.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(p.cast::<i8>()) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Read access to the current round's state array, abstracting over the
/// plain (sequential) and atomic (shared) buffers so the chunk processor
/// is written once.
trait ReadStates: Sync {
    fn read(&self, i: usize) -> u32;
    /// Start loading node `i`'s state into cache ahead of a [`read`];
    /// consumes no randomness and changes no state.
    ///
    /// [`read`]: ReadStates::read
    fn prefetch(&self, i: usize);
}

struct PlainStates<'a, W: StateWord>(&'a [W::Cell]);

impl<W: StateWord> ReadStates for PlainStates<'_, W> {
    #[inline(always)]
    fn read(&self, i: usize) -> u32 {
        W::read(self.0, i)
    }

    #[inline(always)]
    fn prefetch(&self, i: usize) {
        prefetch_line(self.0.as_ptr().wrapping_add(i / W::PER_CELL));
    }
}

struct SharedStates<'a, W: StateWord>(&'a [W::Atomic]);

impl<W: StateWord> ReadStates for SharedStates<'_, W> {
    #[inline(always)]
    fn read(&self, i: usize) -> u32 {
        W::atomic_read(self.0, i)
    }

    #[inline(always)]
    fn prefetch(&self, i: usize) {
        prefetch_line(self.0.as_ptr().wrapping_add(i / W::PER_CELL));
    }
}

/// Draws the state of a random neighbor of one node; monomorphic over
/// the topology and state buffer so the whole sampling chain inlines.
struct NeighborSource<'a, T, S: ?Sized> {
    topology: &'a T,
    states: &'a S,
    node: usize,
}

impl<T: TopologyCore, S: ReadStates + ?Sized> SampleSource for NeighborSource<'_, T, S> {
    #[inline]
    fn draw<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> u32 {
        self.states
            .read(self.topology.sample_neighbor_core(self.node, rng))
    }
}

/// Replays gathered neighbor states on the batched-draw path.  Consumes
/// no randomness: the draw pass already drew every sample, in node
/// order, from the chunk's stream.
struct SliceSource<'a> {
    buf: &'a [u32],
    pos: usize,
}

impl SampleSource for SliceSource<'_> {
    #[inline(always)]
    fn draw<R: RngCore + ?Sized>(&mut self, _rng: &mut R) -> u32 {
        let v = self.buf[self.pos];
        self.pos += 1;
        v
    }
}

/// Counts draws on the way through to an inner source.  Used only on the
/// recorder-enabled path, so the disabled engine keeps the bare source.
struct CountingSource<S> {
    inner: S,
    drawn: u64,
}

impl<S: SampleSource> SampleSource for CountingSource<S> {
    #[inline]
    fn draw<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> u32 {
        self.drawn += 1;
        self.inner.draw(rng)
    }
}

/// Per-worker reusable buffers: the dynamics scratch plus the two
/// batched-draw buffers — `idx` holds a batch's neighbor indices (draw
/// pass), `batch` the states read at them (gather pass), both in draw
/// order for the evaluate pass to replay.
struct WorkerScratch {
    scratch: NodeScratch,
    idx: Vec<usize>,
    batch: Vec<u32>,
}

impl WorkerScratch {
    fn new(state_count: usize, fixed: Option<usize>) -> Self {
        let cap = fixed.map_or(0, |s| BATCH_NODES * s);
        Self {
            scratch: NodeScratch::with_states(state_count),
            idx: Vec::with_capacity(cap),
            batch: Vec::with_capacity(cap),
        }
    }
}

/// Process a contiguous span of chunks `[first_chunk, last_chunk)` for
/// one round: read states through `src`, write each node's next state
/// through `write`, tally into `counts`.  Returns the number of neighbor
/// samples drawn (always 0 when `Rec` is disabled — counting rides the
/// recorder-enabled instantiation only, so the disabled hot loop stays
/// untouched).
///
/// Chunk `c` always draws from stream `stream_base + c` of the trial
/// seed, and, when `fixed = Some(s)`, the draw pass draws the same
/// samples in the same node order as the one-pass path — both halves of
/// the determinism contract (see the module docs).
#[allow(clippy::too_many_arguments)]
fn process_span<T, D, S, Rec, Out>(
    topology: &T,
    dynamics: &D,
    src: &S,
    n: usize,
    first_chunk: usize,
    last_chunk: usize,
    chunk: usize,
    stream_base: u64,
    seed: u64,
    fixed: Option<usize>,
    ws: &mut WorkerScratch,
    counts: &mut [u64],
    write: &mut Out,
) -> u64
where
    T: TopologyCore,
    D: DynamicsCore,
    S: ReadStates,
    Rec: Recorder,
    Out: FnMut(usize, u32),
{
    let mut drawn = 0u64;
    for chunk_index in first_chunk..last_chunk {
        let start = chunk_index * chunk;
        if start >= n {
            break;
        }
        let end = ((chunk_index + 1) * chunk).min(n);
        let mut rng = stream_rng(seed, stream_base + chunk_index as u64);
        if let Some(s) = fixed {
            // Three-pass batched path: draw every neighbor index of the
            // batch in node order, gather their states, then evaluate.
            // Each draw prefetches its state's line, so the misses
            // complete while later draws are computed and the gather
            // pass mostly hits cache; the draw order is unchanged.
            let mut node = start;
            while node < end {
                let batch_end = (node + BATCH_NODES).min(end);
                ws.idx.clear();
                for node_i in node..batch_end {
                    for _ in 0..s {
                        let j = topology.sample_neighbor_core(node_i, &mut rng);
                        src.prefetch(j);
                        ws.idx.push(j);
                    }
                }
                ws.batch.clear();
                ws.batch.extend(ws.idx.iter().map(|&i| src.read(i)));
                let mut pos = 0usize;
                for node_i in node..batch_end {
                    let own = src.read(node_i);
                    let slice = SliceSource {
                        buf: &ws.batch,
                        pos,
                    };
                    // `Rec::ENABLED` is a monomorphization-time constant:
                    // the disabled arm compiles to the bare source chain.
                    let new = if Rec::ENABLED {
                        let mut counting = CountingSource {
                            inner: slice,
                            drawn: 0,
                        };
                        let new = dynamics.node_update_core(
                            own,
                            &mut counting,
                            &mut ws.scratch,
                            &mut rng,
                        );
                        drawn += counting.drawn;
                        pos = counting.inner.pos;
                        new
                    } else {
                        let mut slice = slice;
                        let new =
                            dynamics.node_update_core(own, &mut slice, &mut ws.scratch, &mut rng);
                        pos = slice.pos;
                        new
                    };
                    debug_assert_eq!(
                        pos,
                        (node_i - node + 1) * s,
                        "fixed_draws promised exactly {s} draws per node"
                    );
                    write(node_i, new);
                    counts[new as usize] += 1;
                }
                node = batch_end;
            }
        } else {
            for node_i in start..end {
                let own = src.read(node_i);
                let source = NeighborSource {
                    topology,
                    states: src,
                    node: node_i,
                };
                let new = if Rec::ENABLED {
                    let mut counting = CountingSource {
                        inner: source,
                        drawn: 0,
                    };
                    let new =
                        dynamics.node_update_core(own, &mut counting, &mut ws.scratch, &mut rng);
                    drawn += counting.drawn;
                    new
                } else {
                    let mut source = source;
                    dynamics.node_update_core(own, &mut source, &mut ws.scratch, &mut rng)
                };
                write(node_i, new);
                counts[new as usize] += 1;
            }
        }
    }
    drawn
}

/// Per-round bookkeeping shared by the sequential and pooled drivers:
/// recorder updates, trace recording, stop evaluation.  Returns
/// `Some(result)` when the trial ends this round.
#[allow(clippy::too_many_arguments)]
fn after_round<D: DynamicsCore, Rec: Recorder>(
    dynamics: &D,
    opts: &RunOptions,
    rec: &mut Rec,
    trace: &mut Option<Trace>,
    full: bool,
    k_colors: usize,
    initial_plurality: usize,
    counts: &[u64],
    drawn: u64,
    rounds: u64,
    round_t0: Option<Instant>,
) -> Option<TrialResult> {
    if Rec::ENABLED {
        if let Some(t0) = round_t0 {
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            rec.observe(Hist::RoundWallNanos, ns);
        }
        rec.incr(Counter::Rounds);
        rec.add(Counter::SamplesDrawn, drawn);
        let leader = counts[..k_colors].iter().copied().max().unwrap_or(0);
        rec.observe(Hist::LeaderOccupancy, leader);
    }
    if let Some(t) = trace.as_mut() {
        t.record(rounds, counts, k_colors, full);
    }
    if let Some(winner) = evaluate_stop(opts.stop, dynamics, counts, initial_plurality) {
        rec.phase_end(Phase::Run);
        record_stop(rec, rounds);
        let out = TrialResult {
            rounds,
            reason: StopReason::Stopped,
            winner: Some(winner),
            initial_plurality,
            success: winner == initial_plurality,
            trace: trace.take(),
        };
        rec.phase_end(Phase::Finalize);
        return Some(out);
    }
    if rounds >= opts.max_rounds {
        rec.phase_end(Phase::Run);
        record_stop(rec, rounds);
        let out = TrialResult {
            rounds,
            reason: StopReason::MaxRounds,
            winner: None,
            initial_plurality,
            success: false,
            trace: trace.take(),
        };
        rec.phase_end(Phase::Finalize);
        return Some(out);
    }
    None
}

impl<'t> AgentEngine<'t> {
    /// Default chunk granularity (nodes per RNG stream).
    pub const DEFAULT_CHUNK: usize = 4096;

    /// Single-threaded engine on a topology.
    #[must_use]
    pub fn new(topology: &'t dyn Topology) -> Self {
        Self {
            topology,
            threads: 1,
            chunk_size: Self::DEFAULT_CHUNK,
            width: StateWidth::Auto,
        }
    }

    /// Use up to `threads` worker threads per round.
    ///
    /// The trajectory is bit-identical for every value — see the module
    /// docs and `docs/DETERMINISM.md`.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        self.threads = threads;
        self
    }

    /// Override the chunk granularity (testing/benchmarking only; changes
    /// the random stream layout and therefore exact trajectories).
    #[must_use]
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        self.chunk_size = chunk_size;
        self
    }

    /// Override the state-array word width (testing/benchmarking only;
    /// the trajectory is width-independent, unlike
    /// [`AgentEngine::with_chunk_size`] which *does* move trajectories).
    ///
    /// # Panics
    /// The subsequent run panics if the dynamics' state count does not
    /// fit the forced width.
    #[must_use]
    pub fn with_state_width(mut self, width: StateWidth) -> Self {
        self.width = width;
        self
    }

    /// Run one trial.  `seed` fully determines the trajectory.
    ///
    /// Dispatches to a round loop monomorphized over the concrete
    /// topology and dynamics (see the module docs); unknown types run
    /// through dyn fallback wrappers with identical results.
    ///
    /// # Panics
    /// Panics if the configuration population differs from the topology
    /// size.
    pub fn run(
        &self,
        dynamics: &dyn Dynamics,
        initial: &Configuration,
        placement: Placement,
        opts: &RunOptions,
        seed: u64,
    ) -> TrialResult {
        self.run_recorded(dynamics, initial, placement, opts, seed, &mut NoopRecorder)
    }

    /// [`AgentEngine::run`] with a telemetry [`Recorder`].
    ///
    /// Records [`Counter::Rounds`], [`Counter::SamplesDrawn`],
    /// [`Hist::RoundWallNanos`], [`Hist::LeaderOccupancy`], the
    /// completed-ticks gauge, and setup/run/finalize phase timers.
    /// Recording consumes no randomness and never branches the
    /// simulation: the trajectory is identical for every recorder, and
    /// the [`NoopRecorder`] instantiation is the uninstrumented engine.
    ///
    /// # Panics
    /// Panics if the configuration population differs from the topology
    /// size.
    pub fn run_recorded<Rec: Recorder>(
        &self,
        dynamics: &dyn Dynamics,
        initial: &Configuration,
        placement: Placement,
        opts: &RunOptions,
        seed: u64,
        rec: &mut Rec,
    ) -> TrialResult {
        if let Some(t) = downcast_topology::<Clique>(self.topology) {
            self.run_with_topology(t, dynamics, initial, placement, opts, seed, rec)
        } else if let Some(t) = downcast_topology::<CsrGraph>(self.topology) {
            self.run_with_topology(t, dynamics, initial, placement, opts, seed, rec)
        } else if let Some(t) = downcast_topology::<ImplicitRing>(self.topology) {
            self.run_with_topology(t, dynamics, initial, placement, opts, seed, rec)
        } else if let Some(t) = downcast_topology::<ChungLu>(self.topology) {
            self.run_with_topology(t, dynamics, initial, placement, opts, seed, rec)
        } else {
            self.run_with_topology(
                &DynTopology(self.topology),
                dynamics,
                initial,
                placement,
                opts,
                seed,
                rec,
            )
        }
    }

    /// Second dispatch level: resolve the dynamics to a concrete type.
    #[allow(clippy::too_many_arguments)]
    fn run_with_topology<T: TopologyCore, Rec: Recorder>(
        &self,
        topology: &T,
        dynamics: &dyn Dynamics,
        initial: &Configuration,
        placement: Placement,
        opts: &RunOptions,
        seed: u64,
        rec: &mut Rec,
    ) -> TrialResult {
        if let Some(d) = downcast_dynamics::<ThreeMajority>(dynamics) {
            self.run_core(topology, d, initial, placement, opts, seed, rec)
        } else if let Some(d) = downcast_dynamics::<HPlurality>(dynamics) {
            self.run_core(topology, d, initial, placement, opts, seed, rec)
        } else if let Some(d) = downcast_dynamics::<UndecidedState>(dynamics) {
            self.run_core(topology, d, initial, placement, opts, seed, rec)
        } else if let Some(d) = downcast_dynamics::<Voter>(dynamics) {
            self.run_core(topology, d, initial, placement, opts, seed, rec)
        } else {
            self.run_core(
                topology,
                &DynDynamics(dynamics),
                initial,
                placement,
                opts,
                seed,
                rec,
            )
        }
    }

    /// Third dispatch level: trial setup, then pick the state-word width
    /// ([`AgentEngine::resolve_width`]) and enter the monomorphized round
    /// loop.
    #[allow(clippy::too_many_arguments)]
    fn run_core<T: TopologyCore, D: DynamicsCore, Rec: Recorder>(
        &self,
        topology: &T,
        dynamics: &D,
        initial: &Configuration,
        placement: Placement,
        opts: &RunOptions,
        seed: u64,
        rec: &mut Rec,
    ) -> TrialResult {
        rec.phase_start(Phase::Setup);
        let n = topology.n();
        assert_eq!(
            initial.n() as usize,
            n,
            "configuration population must match topology size"
        );
        let initial_plurality = unique_initial_plurality(initial);
        let k_colors = initial.k();
        let lifted = dynamics.lift(initial);
        let state_count = lifted.k();

        let layout = layout_initial_states(&lifted, placement, seed);
        let counts: Vec<u64> = lifted.counts().to_vec();

        let mut trace = match opts.trace {
            TraceLevel::Off => None,
            _ => Some(Trace::new()),
        };
        let full = opts.trace == TraceLevel::Full;
        if let Some(t) = trace.as_mut() {
            t.record(0, &counts, k_colors, full);
        }
        rec.phase_end(Phase::Setup);

        if let Some(winner) = evaluate_stop(opts.stop, dynamics, &counts, initial_plurality) {
            record_stop(rec, 0);
            let out = TrialResult {
                rounds: 0,
                reason: StopReason::Stopped,
                winner: Some(winner),
                initial_plurality,
                success: winner == initial_plurality,
                trace,
            };
            rec.phase_end(Phase::Finalize);
            return out;
        }

        macro_rules! run_sized {
            ($word:ty) => {
                self.run_sized::<T, D, $word, Rec>(
                    topology,
                    dynamics,
                    layout,
                    counts,
                    state_count,
                    k_colors,
                    initial_plurality,
                    opts,
                    seed,
                    trace,
                    full,
                    rec,
                )
            };
        }
        match self.resolve_width(state_count) {
            WordLayout::U4 => run_sized!(U4),
            WordLayout::U8 => run_sized!(u8),
            WordLayout::U16 => run_sized!(u16),
            WordLayout::U32 => run_sized!(u32),
        }
    }

    /// The layout a run over `state_count` states uses: the forced width,
    /// or under [`StateWidth::Auto`] the narrowest that fits.  Packed
    /// 4-bit states share a byte between nodes `2j` and `2j+1`, so `Auto`
    /// packs only with an even chunk size: it keeps every worker's span
    /// byte-aligned, and no byte is ever written by two workers.
    ///
    /// # Panics
    /// Panics if a forced width cannot hold `state_count` states.
    fn resolve_width(&self, state_count: usize) -> WordLayout {
        let fits = |cap: usize| {
            assert!(
                state_count <= cap,
                "state count {state_count} does not fit forced StateWidth::{:?}",
                self.width
            );
        };
        match self.width {
            StateWidth::Auto
                if state_count <= U4::CAPACITY && self.chunk_size.is_multiple_of(2) =>
            {
                WordLayout::U4
            }
            StateWidth::Auto if state_count <= u8::CAPACITY => WordLayout::U8,
            StateWidth::Auto if state_count <= u16::CAPACITY => WordLayout::U16,
            StateWidth::Auto => WordLayout::U32,
            StateWidth::U8 => {
                fits(u8::CAPACITY);
                WordLayout::U8
            }
            StateWidth::U16 => {
                fits(u16::CAPACITY);
                WordLayout::U16
            }
            StateWidth::U32 => WordLayout::U32,
        }
    }

    /// The monomorphized round loop: sequential double-buffer when
    /// `threads == 1` (or a single chunk), persistent barrier-synced
    /// worker pool otherwise.
    #[allow(clippy::too_many_arguments)]
    fn run_sized<T: TopologyCore, D: DynamicsCore, W: StateWord, Rec: Recorder>(
        &self,
        topology: &T,
        dynamics: &D,
        layout: Vec<u32>,
        mut counts: Vec<u64>,
        state_count: usize,
        k_colors: usize,
        initial_plurality: usize,
        opts: &RunOptions,
        seed: u64,
        mut trace: Option<Trace>,
        full: bool,
        rec: &mut Rec,
    ) -> TrialResult {
        let n = layout.len();
        let chunk = self.chunk_size;
        let num_chunks = n.div_ceil(chunk);
        let fixed = dynamics.fixed_draws().filter(|&s| s > 0);
        rec.phase_start(Phase::Run);

        if self.threads <= 1 || num_chunks <= 1 {
            let mut cur = W::pack(&layout);
            drop(layout);
            let mut nxt = vec![W::Cell::default(); cur.len()];
            let mut ws = WorkerScratch::new(state_count, fixed);
            let mut rounds = 0u64;
            loop {
                let round_t0 = if Rec::ENABLED {
                    Some(Instant::now())
                } else {
                    None
                };
                counts.fill(0);
                let stream_base = 1 + rounds * num_chunks as u64;
                let drawn = process_span::<T, D, _, Rec, _>(
                    topology,
                    dynamics,
                    &PlainStates::<W>(&cur),
                    n,
                    0,
                    num_chunks,
                    chunk,
                    stream_base,
                    seed,
                    fixed,
                    &mut ws,
                    &mut counts,
                    &mut |i, v| W::write(&mut nxt, i, v),
                );
                std::mem::swap(&mut cur, &mut nxt);
                rounds += 1;
                if let Some(out) = after_round(
                    dynamics,
                    opts,
                    rec,
                    &mut trace,
                    full,
                    k_colors,
                    initial_plurality,
                    &counts,
                    drawn,
                    rounds,
                    round_t0,
                ) {
                    return out;
                }
            }
        }

        // Persistent worker pool.  Worker `w` owns the contiguous chunk
        // range [w·chunks_per, (w+1)·chunks_per) — the same static
        // partition as the sequential path walks, so the chunk→stream
        // mapping (and hence the trajectory) is thread-count independent.
        let workers = self.threads.min(num_chunks);
        let chunks_per = num_chunks.div_ceil(workers);
        let cur: Vec<W::Atomic> = W::pack(&layout).into_iter().map(W::atomic_from).collect();
        drop(layout);
        let nxt = (0..cur.len())
            .map(|_| W::atomic_from(W::Cell::default()))
            .collect();
        let bufs: [Vec<W::Atomic>; 2] = [cur, nxt];
        let barrier = Barrier::new(workers);
        let done = AtomicBool::new(false);
        // One slot per helper worker: (state counts, samples drawn).
        // Each lock is touched once per round by its owner and once by
        // the coordinator after the barrier — never contended.
        let slots: Vec<Mutex<(Vec<u64>, u64)>> = (1..workers)
            .map(|_| Mutex::new((vec![0u64; state_count], 0u64)))
            .collect();

        std::thread::scope(|scope| {
            for w in 1..workers {
                let slot = &slots[w - 1];
                let bufs = &bufs;
                let barrier = &barrier;
                let done = &done;
                scope.spawn(move || {
                    let first_chunk = w * chunks_per;
                    let last_chunk = ((w + 1) * chunks_per).min(num_chunks);
                    let mut ws = WorkerScratch::new(state_count, fixed);
                    let mut local = vec![0u64; state_count];
                    let mut round = 0u64;
                    loop {
                        let (cur, nxt) = if round.is_multiple_of(2) {
                            (&bufs[0], &bufs[1])
                        } else {
                            (&bufs[1], &bufs[0])
                        };
                        local.fill(0);
                        let drawn = process_span::<T, D, _, Rec, _>(
                            topology,
                            dynamics,
                            &SharedStates::<W>(cur),
                            n,
                            first_chunk,
                            last_chunk,
                            chunk,
                            1 + round * num_chunks as u64,
                            seed,
                            fixed,
                            &mut ws,
                            &mut local,
                            &mut |i, v| W::atomic_write(nxt, i, v),
                        );
                        {
                            let mut s = slot.lock().expect("coordinator panicked");
                            s.0.copy_from_slice(&local);
                            s.1 = drawn;
                        }
                        // Barrier 1: all next-state writes visible.
                        barrier.wait();
                        // Barrier 2: coordinator merged counts and
                        // decided whether to stop.
                        barrier.wait();
                        if done.load(Ordering::Relaxed) {
                            break;
                        }
                        round += 1;
                    }
                });
            }

            // The coordinator is worker 0: it processes the first span,
            // then merges counts and runs the bookkeeping between the
            // two barriers.
            let mut ws = WorkerScratch::new(state_count, fixed);
            let mut rounds = 0u64;
            loop {
                let round_t0 = if Rec::ENABLED {
                    Some(Instant::now())
                } else {
                    None
                };
                let (cur, nxt) = if rounds.is_multiple_of(2) {
                    (&bufs[0], &bufs[1])
                } else {
                    (&bufs[1], &bufs[0])
                };
                counts.fill(0);
                let mut drawn = process_span::<T, D, _, Rec, _>(
                    topology,
                    dynamics,
                    &SharedStates::<W>(cur),
                    n,
                    0,
                    chunks_per,
                    chunk,
                    1 + rounds * num_chunks as u64,
                    seed,
                    fixed,
                    &mut ws,
                    &mut counts,
                    &mut |i, v| W::atomic_write(nxt, i, v),
                );
                barrier.wait();
                for slot in &slots {
                    let s = slot.lock().expect("worker panicked");
                    for (dst, &x) in counts.iter_mut().zip(&s.0) {
                        *dst += x;
                    }
                    drawn += s.1;
                }
                rounds += 1;
                let outcome = after_round(
                    dynamics,
                    opts,
                    rec,
                    &mut trace,
                    full,
                    k_colors,
                    initial_plurality,
                    &counts,
                    drawn,
                    rounds,
                    round_t0,
                );
                if outcome.is_some() {
                    done.store(true, Ordering::Relaxed);
                }
                barrier.wait();
                if let Some(out) = outcome {
                    break out;
                }
            }
        })
    }
}

/// Close the books at stop: completed-round gauges, then open the
/// finalize phase (the caller closes it once the result is assembled).
fn record_stop<Rec: Recorder>(rec: &mut Rec, rounds: u64) {
    if Rec::ENABLED {
        rec.gauge_set(Gauge::CompletedTicks, rounds);
        rec.gauge_set(Gauge::FinalTimeFp, ticks_to_fp(rounds as f64));
    }
    rec.phase_start(Phase::Finalize);
}

#[cfg(test)]
mod tests {
    use super::*;
    use plurality_core::{builders, ThreeMajority, UndecidedState, Voter};
    use plurality_topology::{ring, torus, Clique};

    #[test]
    fn converges_on_clique_with_bias() {
        let clique = Clique::new(2_000);
        let engine = AgentEngine::new(&clique);
        let cfg = builders::biased(2_000, 4, 800);
        let d = ThreeMajority::new();
        let mut wins = 0;
        for trial in 0..5 {
            let r = engine.run(
                &d,
                &cfg,
                Placement::Shuffled,
                &RunOptions::with_max_rounds(5_000),
                1000 + trial,
            );
            assert_eq!(r.reason, StopReason::Stopped);
            if r.success {
                wins += 1;
            }
        }
        assert!(wins >= 4, "won only {wins}/5");
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let clique = Clique::new(3_000);
        let cfg = builders::biased(3_000, 3, 600);
        let d = ThreeMajority::new();
        let opts = RunOptions::with_max_rounds(2_000).traced();
        let r1 = AgentEngine::new(&clique).run(&d, &cfg, Placement::Shuffled, &opts, 7);
        let r4 =
            AgentEngine::new(&clique)
                .with_threads(4)
                .run(&d, &cfg, Placement::Shuffled, &opts, 7);
        assert_eq!(r1.rounds, r4.rounds);
        assert_eq!(r1.winner, r4.winner);
        let t1 = r1.trace.unwrap();
        let t4 = r4.trace.unwrap();
        for (a, b) in t1.rounds.iter().zip(&t4.rounds) {
            assert_eq!(a, b, "trajectories must be identical");
        }
    }

    #[test]
    fn deterministic_across_state_widths() {
        // The width pin: packed 4-bit, u8, u16, and u32 state arrays must
        // walk the same trajectory (randomness samples node indices, not
        // words).  `Auto` packs here (3 or 4 states, even chunk size).
        // Odd n leaves the last packed byte half used; chunk 512 at 2 and
        // 3 threads puts byte-sharing node pairs on every worker's span
        // edge.  3-majority takes the batched path, 3-majority-uar the
        // one-pass path, and undecided (k + 1 states) also reads each
        // node's own state.
        let n = 2 * 512 * 3 + 1;
        let clique = Clique::new(n);
        let cfg = builders::biased(n as u64, 3, 500);
        let opts = RunOptions::with_max_rounds(2_000).traced();
        let rules: [&dyn Dynamics; 3] = [
            &ThreeMajority::new(),
            &ThreeMajority::with_uniform_ties(),
            &UndecidedState::new(3),
        ];
        for d in rules {
            let run = |threads: usize, width: StateWidth| {
                AgentEngine::new(&clique)
                    .with_threads(threads)
                    .with_chunk_size(512)
                    .with_state_width(width)
                    .run(d, &cfg, Placement::Shuffled, &opts, 21)
            };
            let states = d.lift(&cfg).k();
            assert_eq!(
                AgentEngine::new(&clique)
                    .with_chunk_size(512)
                    .resolve_width(states),
                WordLayout::U4,
                "{}",
                d.name()
            );
            let wide = run(1, StateWidth::U32);
            assert_eq!(wide.reason, StopReason::Stopped, "{}", d.name());
            for threads in [1, 2, 3] {
                for width in [
                    StateWidth::Auto,
                    StateWidth::U8,
                    StateWidth::U16,
                    StateWidth::U32,
                ] {
                    let what = format!("{} at {threads} threads, {width:?}", d.name());
                    let narrow = run(threads, width);
                    assert_eq!(narrow.rounds, wide.rounds, "{what}");
                    assert_eq!(narrow.winner, wide.winner, "{what}");
                    assert_eq!(
                        narrow.trace.as_ref().unwrap().rounds,
                        wide.trace.as_ref().unwrap().rounds,
                        "{what}: trajectory must be width-independent"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_nibbles_round_trip() {
        let states: Vec<u32> = (0..7).map(|i| (i * 5 + 3) % 16).collect();
        let mut cells = U4::pack(&states);
        assert_eq!(cells.len(), 4, "odd n leaves the last byte half used");
        assert_eq!(cells[0], (8 << 4) | 3, "node 0 low nibble, node 1 high");
        let shared: Vec<AtomicU8> = cells.iter().map(|&c| U4::atomic_from(c)).collect();
        for (i, &s) in states.iter().enumerate() {
            assert_eq!(U4::read(&cells, i), s);
            assert_eq!(U4::atomic_read(&shared, i), s);
        }
        // A write touches only its own nibble.
        for (i, v) in [(3, 15), (4, 0), (6, 9)] {
            U4::write(&mut cells, i, v);
            U4::atomic_write(&shared, i, v);
        }
        let mut expect = states;
        expect[3] = 15;
        expect[4] = 0;
        expect[6] = 9;
        for (i, &s) in expect.iter().enumerate() {
            assert_eq!(U4::read(&cells, i), s, "node {i}");
            assert_eq!(U4::atomic_read(&shared, i), s, "node {i}");
        }
    }

    #[test]
    fn auto_width_packs_only_with_even_chunks() {
        let tiny = Clique::new(2);
        let engine = |chunk: usize| AgentEngine::new(&tiny).with_chunk_size(chunk);
        assert_eq!(engine(512).resolve_width(16), WordLayout::U4);
        assert_eq!(engine(512).resolve_width(17), WordLayout::U8);
        assert_eq!(engine(511).resolve_width(2), WordLayout::U8);
        assert_eq!(engine(511).resolve_width(257), WordLayout::U16);
        assert_eq!(engine(511).resolve_width(65_537), WordLayout::U32);

        // An odd chunk size falls back to u8 words and walks the same
        // trajectory as forcing them.
        let n = 3 * 511 + 2;
        let clique = Clique::new(n);
        let cfg = builders::biased(n as u64, 3, 400);
        let opts = RunOptions::with_max_rounds(2_000).traced();
        let d = ThreeMajority::new();
        for threads in [1, 2] {
            let run = |width: StateWidth| {
                AgentEngine::new(&clique)
                    .with_threads(threads)
                    .with_chunk_size(511)
                    .with_state_width(width)
                    .run(&d, &cfg, Placement::Shuffled, &opts, 29)
            };
            let auto = run(StateWidth::Auto);
            let forced = run(StateWidth::U8);
            assert_eq!(auto.reason, StopReason::Stopped);
            assert_eq!(auto.rounds, forced.rounds, "{threads} threads");
            assert_eq!(
                auto.trace.unwrap().rounds,
                forced.trace.unwrap().rounds,
                "{threads} threads"
            );
        }
    }

    #[test]
    #[should_panic(expected = "does not fit forced StateWidth::U8")]
    fn forced_narrow_width_rejects_large_state_counts() {
        let clique = Clique::new(600);
        let mut counts = vec![1u64; 300];
        counts[0] = 301;
        let cfg = Configuration::new(counts);
        let _ = AgentEngine::new(&clique)
            .with_state_width(StateWidth::U8)
            .run(
                &ThreeMajority::new(),
                &cfg,
                Placement::Shuffled,
                &RunOptions::with_max_rounds(1),
                1,
            );
    }

    #[test]
    fn deterministic_same_seed_same_result() {
        let clique = Clique::new(1_000);
        let cfg = builders::biased(1_000, 3, 300);
        let d = ThreeMajority::new();
        let opts = RunOptions::with_max_rounds(2_000);
        let a = AgentEngine::new(&clique).run(&d, &cfg, Placement::Shuffled, &opts, 9);
        let b = AgentEngine::new(&clique).run(&d, &cfg, Placement::Shuffled, &opts, 9);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.winner, b.winner);
    }

    #[test]
    fn works_on_torus() {
        let g = torus(20, 20);
        let engine = AgentEngine::new(&g);
        let cfg = builders::biased(400, 2, 200);
        let d = ThreeMajority::new();
        let r = engine.run(
            &d,
            &cfg,
            Placement::Shuffled,
            &RunOptions::with_max_rounds(20_000),
            11,
        );
        assert_eq!(r.reason, StopReason::Stopped, "torus run did not settle");
        assert!(r.success, "heavily biased start should win on the torus");
    }

    #[test]
    fn voter_on_odd_ring_eventually_absorbs() {
        // Odd ring on purpose: on an *even* cycle the synchronous voter
        // can reach the perfectly alternating configuration, where both
        // neighbors of every node hold the opposite color and the whole
        // ring flips deterministically forever (a genuine oscillation
        // trap of the synchronous model; observed at ring(60), seed 13).
        // No alternating trap exists when n is odd.
        let g = ring(61);
        let engine = AgentEngine::new(&g);
        let cfg = builders::biased(61, 2, 21);
        let r = engine.run(
            &Voter,
            &cfg,
            Placement::Shuffled,
            &RunOptions::with_max_rounds(200_000),
            13,
        );
        assert_eq!(
            r.reason,
            StopReason::Stopped,
            "voter on odd ring must absorb"
        );
    }

    #[test]
    fn undecided_state_on_clique_agents() {
        let clique = Clique::new(2_000);
        let engine = AgentEngine::new(&clique);
        let cfg = builders::biased(2_000, 3, 700);
        let d = UndecidedState::new(3);
        let r = engine.run(
            &d,
            &cfg,
            Placement::Shuffled,
            &RunOptions::with_max_rounds(50_000),
            17,
        );
        assert_eq!(r.reason, StopReason::Stopped);
        assert!(r.success);
    }

    #[test]
    fn blocks_placement_supported() {
        let clique = Clique::new(500);
        let engine = AgentEngine::new(&clique);
        let cfg = builders::biased(500, 2, 200);
        let d = ThreeMajority::new();
        let r = engine.run(
            &d,
            &cfg,
            Placement::Blocks,
            &RunOptions::with_max_rounds(5_000),
            19,
        );
        // On the clique placement is irrelevant; it must still converge.
        assert_eq!(r.reason, StopReason::Stopped);
    }

    #[test]
    #[should_panic(expected = "match topology size")]
    fn size_mismatch_rejected() {
        let clique = Clique::new(10);
        let engine = AgentEngine::new(&clique);
        let cfg = builders::biased(11, 2, 3);
        let _ = engine.run(
            &ThreeMajority::new(),
            &cfg,
            Placement::Shuffled,
            &RunOptions::default(),
            1,
        );
    }

    #[test]
    fn recording_does_not_perturb_the_trajectory() {
        use plurality_telemetry::MetricsRecorder;
        let clique = Clique::new(1_500);
        let cfg = builders::biased(1_500, 3, 450);
        let d = ThreeMajority::new();
        let opts = RunOptions::with_max_rounds(2_000).traced();
        let engine = AgentEngine::new(&clique);
        let plain = engine.run(&d, &cfg, Placement::Shuffled, &opts, 31);
        let mut rec = MetricsRecorder::new();
        let recorded = engine.run_recorded(&d, &cfg, Placement::Shuffled, &opts, 31, &mut rec);
        assert_eq!(plain.rounds, recorded.rounds);
        assert_eq!(plain.winner, recorded.winner);
        assert_eq!(
            plain.trace.unwrap().rounds,
            recorded.trace.unwrap().rounds,
            "recording must not perturb the trajectory"
        );
    }

    #[test]
    fn counters_reconcile_with_known_sample_budgets() {
        use plurality_telemetry::{Counter, Gauge, Hist, MetricsRecorder, Phase};
        let clique = Clique::new(600);
        let cfg = builders::biased(600, 3, 220);
        let opts = RunOptions::with_max_rounds(40);
        // Three-majority draws exactly 3 samples per node per round;
        // voter exactly 1 — samples_drawn is an identity, not an estimate.
        let mut rec = MetricsRecorder::new();
        let r = AgentEngine::new(&clique).run_recorded(
            &ThreeMajority::new(),
            &cfg,
            Placement::Shuffled,
            &opts,
            37,
            &mut rec,
        );
        assert_eq!(rec.counter(Counter::Rounds), r.rounds);
        assert_eq!(rec.counter(Counter::SamplesDrawn), 3 * 600 * r.rounds);
        assert_eq!(rec.gauge(Gauge::CompletedTicks), r.rounds);
        assert_eq!(rec.hist(Hist::RoundWallNanos).count(), r.rounds);
        assert_eq!(rec.hist(Hist::LeaderOccupancy).count(), r.rounds);
        assert!(rec.hist(Hist::LeaderOccupancy).max() <= 600);
        assert!(rec.phase_nanos(Phase::Run) > 0, "run phase must be timed");

        let mut vrec = MetricsRecorder::new();
        let vr = AgentEngine::new(&clique).run_recorded(
            &Voter,
            &cfg,
            Placement::Shuffled,
            &RunOptions::with_max_rounds(25),
            41,
            &mut vrec,
        );
        assert_eq!(vrec.counter(Counter::SamplesDrawn), 600 * vr.rounds);
    }

    #[test]
    fn counters_identical_across_thread_counts() {
        use plurality_telemetry::{Counter, MetricsRecorder};
        let clique = Clique::new(9_000);
        let cfg = builders::biased(9_000, 4, 2_600);
        let d = ThreeMajority::new();
        let opts = RunOptions::with_max_rounds(400);
        let mut r1 = MetricsRecorder::new();
        let mut r4 = MetricsRecorder::new();
        AgentEngine::new(&clique)
            .with_chunk_size(1024)
            .run_recorded(&d, &cfg, Placement::Shuffled, &opts, 43, &mut r1);
        AgentEngine::new(&clique)
            .with_chunk_size(1024)
            .with_threads(4)
            .run_recorded(&d, &cfg, Placement::Shuffled, &opts, 43, &mut r4);
        for c in [Counter::Rounds, Counter::SamplesDrawn] {
            assert_eq!(r1.counter(c), r4.counter(c), "{}", c.name());
        }
    }

    /// Delegates every rule to an inner dynamics but withholds its
    /// `fixed_draws` promise (and its downcast), so the engine runs the
    /// inner rule on the one-pass path.
    struct OnePass<'a>(&'a dyn Dynamics);

    impl Dynamics for OnePass<'_> {
        fn name(&self) -> String {
            self.0.name()
        }

        fn state_count(&self, k_colors: usize) -> usize {
            self.0.state_count(k_colors)
        }

        fn color_count(&self, n_states: usize) -> usize {
            self.0.color_count(n_states)
        }

        fn lift(&self, colors: &Configuration) -> Configuration {
            self.0.lift(colors)
        }

        fn node_update(
            &self,
            own: u32,
            sampler: &mut dyn plurality_core::StateSampler,
            scratch: &mut NodeScratch,
            rng: &mut dyn RngCore,
        ) -> u32 {
            self.0.node_update(own, sampler, scratch, rng)
        }

        fn consensus(&self, states: &[u64]) -> Option<usize> {
            self.0.consensus(states)
        }
    }

    #[test]
    fn batched_path_matches_one_pass_path() {
        // Two full chunks plus a partial one (1503 nodes), whose second
        // batch is partial too (479 nodes).
        let n = 2 * AgentEngine::DEFAULT_CHUNK + 1_500 + 3;
        let clique = Clique::new(n);
        let cfg = builders::biased(n as u64, 3, 1_200);
        let opts = RunOptions {
            trace: TraceLevel::Full,
            ..RunOptions::with_max_rounds(2_000)
        };
        let rules: [&dyn Dynamics; 2] = [&ThreeMajority::new(), &UndecidedState::new(3)];
        for d in rules {
            let one_pass = OnePass(d);
            assert!(d.fixed_draws().is_some(), "{}", d.name());
            assert_eq!(one_pass.fixed_draws(), None);
            for threads in [1, 2] {
                let engine = AgentEngine::new(&clique).with_threads(threads);
                let batched = engine.run(d, &cfg, Placement::Shuffled, &opts, 47);
                let unbatched = engine.run(&one_pass, &cfg, Placement::Shuffled, &opts, 47);
                let what = format!("{} at {threads} threads", d.name());
                assert_eq!(batched.reason, StopReason::Stopped, "{what}");
                assert_eq!(batched.rounds, unbatched.rounds, "{what}");
                assert_eq!(batched.winner, unbatched.winner, "{what}");
                assert_eq!(
                    batched.trace.unwrap().rounds,
                    unbatched.trace.unwrap().rounds,
                    "{what}: batched and one-pass trajectories must match"
                );
            }
        }
    }

    #[test]
    fn trace_counts_match_population() {
        let clique = Clique::new(800);
        let engine = AgentEngine::new(&clique);
        let cfg = builders::biased(800, 3, 300);
        let d = ThreeMajority::new();
        let r = engine.run(
            &d,
            &cfg,
            Placement::Shuffled,
            &RunOptions::with_max_rounds(3_000).traced(),
            23,
        );
        let trace = r.trace.unwrap();
        for stats in &trace.rounds {
            assert_eq!(
                stats.plurality_count + stats.minority_mass + stats.extra_state_mass,
                800,
                "round {}",
                stats.round
            );
        }
    }
}
