//! # ppa-obs — observability for the whole simulation stack
//!
//! The paper's entire evidence chain is *counted controller steps*
//! ("considering that all the statements have O(1) complexity ..."), so
//! this crate treats the step index as the canonical clock and provides:
//!
//! * [`trace`] — hierarchical spans (`mcp > iteration[3] > stmt 11`) and
//!   per-instruction events over a [`trace::TraceSink`], with in-memory,
//!   JSON-lines, and Chrome `trace_event` (Perfetto-loadable) sinks;
//! * [`metrics`] — a counter/histogram registry snapshotable to JSON and
//!   parseable back (exact round-trip);
//! * [`profile`] — wall-clock phase profiles that reconcile host time
//!   against simulated steps, plus per-micro-op-class wall time;
//! * [`json`] — the one JSON implementation behind all artifacts;
//! * [`recorder::Recorder`] — the emitter bundle used by the baseline
//!   architecture models so PPA, hypercube, GCN, and plain-mesh runs all
//!   produce directly comparable profiles.
//!
//! This crate is dependency-free and sits below `ppa-machine`; the
//! controller and the cost meters feed it, the CLI tools export it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod profile;
pub mod recorder;
pub mod sampling;
pub mod trace;

pub use json::{Json, JsonError};
pub use metrics::{Histogram, Metrics};
pub use profile::{parse_folded, ClassWall, MicroProfile, PhaseWall, WallProfile};
pub use recorder::Recorder;
pub use sampling::OccupancySampling;
pub use trace::{
    validate_chrome_trace, ChromeTraceSink, Event, JsonLinesSink, MemorySink, TraceRecord,
    TraceSink,
};
