//! Benchmark harness for the PPA solver stack.
//!
//! The binary (`src/main.rs`) drives the workloads; this library holds the
//! pieces the self-tests in `tests/` check on their own:
//!
//! * [`inputs`] — seeded workload inputs (graph pools, job streams);
//! * [`timed`] — a delegating [`Executor`](ppa_machine::Executor) that
//!   times every call into the packed backend;
//! * [`stmt`] — a host-clock trace sink that splits solve time by the
//!   paper statement the controller is executing;
//! * [`stats`] — quantiles and means.

pub mod inputs;
pub mod stats;
pub mod stmt;
pub mod timed;
