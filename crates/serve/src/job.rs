//! Job specifications, outcomes, and the service error taxonomy.

use ppa_graph::WeightMatrix;
use ppa_mcp::widest::WidestOutput;
use ppa_mcp::{McpError, McpOutput};
use ppa_obs::Json;
use std::fmt;
use std::time::Duration;

/// What a job asks the service to solve.
#[derive(Debug, Clone)]
pub enum JobKind {
    /// Minimum-cost paths from every vertex to `dest` (the paper's MCP
    /// problem), verified against the host-side invariants.
    Shortest {
        /// Destination vertex.
        dest: usize,
    },
    /// Widest (maximum-bottleneck) paths to `dest`.
    Widest {
        /// Destination vertex.
        dest: usize,
    },
    /// An all-pairs campaign: every destination in order, with completed
    /// destinations checkpointed so an interrupted campaign resumes
    /// instead of restarting.
    Apsp {
        /// Resume document from a previous interrupted campaign (the
        /// `checkpoint` carried by [`ServeError::Interrupted`]); `None`
        /// starts from destination 0.
        resume_from: Option<Json>,
        /// Flush a checkpoint every this-many completed destinations
        /// (clamped to at least 1). Progress past the last flush is lost
        /// on interruption — exactly like a real durability boundary.
        checkpoint_every: usize,
    },
    /// A chaos probe: the worker deliberately panics while "solving".
    /// Used by drills and the stress campaign to prove panic isolation
    /// and automatic worker replacement; never retried.
    Chaos,
}

impl JobKind {
    /// Short label used by introspection snapshots and status dumps.
    pub fn label(&self) -> &'static str {
        match self {
            JobKind::Shortest { .. } => "shortest",
            JobKind::Widest { .. } => "widest",
            JobKind::Apsp { .. } => "apsp",
            JobKind::Chaos => "chaos",
        }
    }
}

/// A job submitted to the service: the graph, what to solve, and the
/// per-job resource limits.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The input graph.
    pub graph: WeightMatrix,
    /// What to solve.
    pub kind: JobKind,
    /// Wall-clock deadline measured from submission. Expiring in the
    /// queue rejects the job unrun; expiring mid-solve cancels the
    /// machine cooperatively. `None` falls back to the service default.
    pub deadline: Option<Duration>,
    /// Controller step budget per solve attempt (the cooperative brake
    /// of `ppa_machine::Machine::limit_steps`). `None` falls back to the
    /// service default.
    pub step_budget: Option<u64>,
    /// Transient-fault injection for this job's machine: probability per
    /// bus transfer and RNG seed (see
    /// `ppa_machine::TransientFaults::new`). Used by stress campaigns.
    pub transient_faults: Option<(f64, u64)>,
}

impl JobSpec {
    /// A job with no per-job overrides (service defaults apply).
    pub fn new(graph: WeightMatrix, kind: JobKind) -> Self {
        JobSpec {
            graph,
            kind,
            deadline: None,
            step_budget: None,
            transient_faults: None,
        }
    }
}

/// Which backend a job attempt ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendChoice {
    /// The packed bit-plane backend (fast path, guarded by the circuit
    /// breaker).
    Packed,
    /// The scalar reference backend (fallback path).
    Scalar,
}

impl fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendChoice::Packed => write!(f, "packed"),
            BackendChoice::Scalar => write!(f, "scalar"),
        }
    }
}

/// A successful job result.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// MCP output for a [`JobKind::Shortest`] job.
    Shortest(McpOutput),
    /// Widest-path output for a [`JobKind::Widest`] job.
    Widest(WidestOutput),
    /// The final checkpoint document of a completed [`JobKind::Apsp`]
    /// campaign (see `checkpoint::ApspCheckpoint::to_json`).
    Apsp(Json),
}

/// Why a job did not produce a result.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The bounded intake queue was full — backpressure, not failure.
    /// Resubmit later; nothing was enqueued.
    Rejected {
        /// The queue capacity that was exhausted.
        capacity: usize,
    },
    /// The service is draining; no new jobs are accepted.
    ShuttingDown,
    /// The deadline expired while the job waited in the queue; it was
    /// never started.
    DeadlineExpiredInQueue {
        /// How long the job had waited.
        waited: Duration,
    },
    /// The deadline expired mid-solve; the machine was cancelled
    /// cooperatively between instructions.
    DeadlineExceeded,
    /// The client cancelled the job (`SolveService::cancel`). A queued
    /// job is dropped unrun; a running job's machine is cancelled
    /// cooperatively between instructions.
    Cancelled,
    /// The per-attempt controller step budget ran out — the input drove
    /// the solve loop past its allowance (the runaway-job brake).
    StepBudgetExhausted {
        /// The budget that was granted.
        budget: u64,
    },
    /// The worker panicked while executing this job. The panic was
    /// isolated; the worker was replaced; the job was not retried.
    WorkerPanicked {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// An APSP campaign was interrupted (deadline, budget, fault) after
    /// completing some destinations. Resume by resubmitting with
    /// [`JobKind::Apsp`] `resume_from: Some(checkpoint)`.
    Interrupted {
        /// The last *flushed* checkpoint document.
        checkpoint: Json,
        /// Why the campaign stopped.
        cause: Box<ServeError>,
    },
    /// An APSP resume document was malformed or does not match the
    /// submitted graph; the job was not run.
    InvalidResume {
        /// What was wrong with the document.
        reason: String,
    },
    /// The solver rejected the job or failed after exhausting the retry
    /// policy.
    Solver(McpError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Rejected { capacity } => {
                write!(f, "rejected: intake queue full (capacity {capacity})")
            }
            ServeError::ShuttingDown => write!(f, "rejected: service is shutting down"),
            ServeError::DeadlineExpiredInQueue { waited } => {
                write!(f, "deadline expired after {waited:?} in the queue")
            }
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded mid-solve"),
            ServeError::Cancelled => write!(f, "cancelled by the client"),
            ServeError::StepBudgetExhausted { budget } => {
                write!(f, "step budget exhausted ({budget} steps granted)")
            }
            ServeError::WorkerPanicked { message } => {
                write!(f, "worker panicked: {message}")
            }
            ServeError::Interrupted { cause, .. } => {
                write!(f, "campaign interrupted ({cause}); checkpoint available")
            }
            ServeError::InvalidResume { reason } => {
                write!(f, "invalid resume checkpoint: {reason}")
            }
            ServeError::Solver(e) => write!(f, "solver error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Solver(e) => Some(e),
            ServeError::Interrupted { cause, .. } => Some(cause),
            _ => None,
        }
    }
}

/// The terminal report for one job: outcome plus execution footprint.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The id assigned at submission (also on the ticket).
    pub id: u64,
    /// Result or typed failure.
    pub outcome: Result<JobOutcome, ServeError>,
    /// Solve attempts executed (0 when the job never started; retries
    /// make this exceed 1).
    pub attempts: u32,
    /// Backend of the final attempt (`None` when the job never started).
    pub backend: Option<BackendChoice>,
    /// Submission-to-completion wall time.
    pub latency: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = ServeError::Rejected { capacity: 8 };
        assert!(e.to_string().contains("capacity 8"), "{e}");
        let e = ServeError::StepBudgetExhausted { budget: 500 };
        assert!(e.to_string().contains("500"), "{e}");
        let e = ServeError::Interrupted {
            checkpoint: Json::Null,
            cause: Box::new(ServeError::DeadlineExceeded),
        };
        assert!(e.to_string().contains("deadline"), "{e}");
    }
}
