//! Zero-cost telemetry for the plurality-consensus engines.
//!
//! The paper states its guarantees in rounds, but the real resource of
//! the gossip-model literature is **messages** (Becchetti et al. 2014,
//! *Plurality Consensus in the Gossip Model*).  This crate makes that
//! resource measurable without taxing the simulators that don't ask for
//! it:
//!
//! * [`Recorder`] — the sink abstraction engines are generic over.
//!   [`NoopRecorder`] is a zero-sized type whose methods are empty
//!   inline bodies: engine cores monomorphized over it carry **no**
//!   instrumentation instructions, so golden traces stay bit-identical
//!   and hot-path benches stay at parity (the `metrics_overhead` bench
//!   and perfbench's `telemetry.overhead_frac.{agent,gossip}` measure
//!   the gap).  [`MetricsRecorder`] keeps dense arrays
//!   indexed by the metric enums; an enabled counter bump is one add.
//! * [`Counter`] / [`Gauge`] / [`Hist`] / [`Phase`] — the closed metric
//!   catalogue, with stable snake-case labels that double as the JSONL
//!   keys.  Gossip drops are **attributed per failure layer** (baseline
//!   coin, per-edge parameters, degradation window, Gilbert–Elliott
//!   burst, node outage, partition cut), and the counters obey exact
//!   conservation laws — see [`Counter`] — that the workspace pins with
//!   reconciliation proptests.
//! * [`LogHistogram`] — HDR-style log-bucketed histogram (base-2 ranges,
//!   16 sub-buckets, ≤ 1/16 relative error) with exact bucket-wise
//!   merge; fractional tick quantities (delays, staleness) are recorded
//!   in ×1024 fixed point ([`histogram::TICK_FP`]).
//! * [`MetricsReport`] — a mergeable snapshot with a stable JSONL
//!   contract ([`report::SCHEMA`]), a hand-rolled writer *and* validator
//!   ([`MetricsReport::from_json`]; the workspace has no serde), and
//!   human-readable tables via `plurality-analysis`.
//!
//! # Quick start
//!
//! ```
//! use plurality_telemetry::{Counter, Hist, MetricsRecorder, MetricsReport, Recorder};
//!
//! fn simulate<R: Recorder>(rec: &mut R) {
//!     for i in 0..100 {
//!         rec.incr(Counter::PullSent);
//!         if R::ENABLED {
//!             rec.observe(Hist::QueueDepth, i % 7);
//!         }
//!     }
//! }
//!
//! let mut rec = MetricsRecorder::new();
//! simulate(&mut rec);
//! let mut report = rec.report();
//! report.set_label("doc example");
//! assert_eq!(report.counter(Counter::PullSent), 100);
//! let line = report.to_json();
//! assert_eq!(MetricsReport::from_json(&line).unwrap(), report);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod histogram;
pub mod json;
pub mod recorder;
pub mod report;

pub use histogram::{fp_to_ticks, ticks_to_fp, LogHistogram};
pub use recorder::{Counter, Gauge, Hist, MetricsRecorder, NoopRecorder, Phase, Recorder};
pub use report::{MetricsReport, SCHEMA};
