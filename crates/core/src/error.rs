//! Errors of the MCP algorithms.

use ppa_graph::MatrixError;
use ppa_machine::{Coord, MachineError};
use ppa_ppc::PpcError;
use std::fmt;

/// Errors raised by the PPA graph algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum McpError {
    /// A PPC runtime operation failed.
    Ppc(PpcError),
    /// The machine is `rows x cols` but the graph needs an `n x n` array.
    SizeMismatch {
        /// Vertices in the graph.
        n: usize,
        /// Machine rows.
        rows: usize,
        /// Machine columns.
        cols: usize,
    },
    /// The machine's `h`-bit word cannot hold every possible path cost of
    /// this input below `MAXINT`; costs would saturate and masquerade as
    /// "unreachable". Use a wider word (see `fit_word_bits`).
    WordBitsTooSmall {
        /// Minimum width that is safe for this input.
        required: u32,
        /// Width the machine actually has.
        actual: u32,
    },
    /// The iteration did not converge within `n` rounds — impossible for
    /// non-negative weights, so this indicates a corrupted input matrix.
    NoConvergence {
        /// Rounds executed before giving up.
        rounds: usize,
    },
    /// A result-verification invariant failed: the run produced values a
    /// correct execution cannot produce (e.g. a row-`d` cost increased
    /// across iterations, or the destination's own cost is non-zero),
    /// signalling hardware corruption on an unverified run.
    InvariantViolation {
        /// Which invariant tripped.
        invariant: &'static str,
    },
    /// The destination index does not name a vertex of the graph.
    DestinationOutOfRange {
        /// The requested destination vertex.
        d: usize,
        /// Vertices in the graph.
        n: usize,
    },
    /// The weight matrix was rejected at the solver boundary: a weight
    /// overflows the machine's `h`-bit representation or an edge is
    /// malformed (see [`MatrixError`]). Raised instead of a panic so
    /// untrusted job payloads can never abort a serving worker.
    InvalidWeights(MatrixError),
    /// A lane batch was malformed: no lanes, more lanes than a machine
    /// word has bits (64), graphs of mixed sizes, or a destination
    /// wavefront that does not cover every lane.
    BatchShape {
        /// What was wrong with the requested batch.
        detail: String,
    },
    /// The array is faulty and the recovery policy could not produce a
    /// verified result (self-test localization attached).
    FaultyArray {
        /// Faulty switch-box coordinates located by the runtime self-test
        /// (empty when BIST could not localize the corruption, e.g. for
        /// transient glitches that did not recur under retry).
        located: Vec<Coord>,
    },
    /// A redundant (DMR, or detect-only/majority-less TMR) vote
    /// disagreed: replica lanes of the same destination returned
    /// different results and the mode could not correct. Carries the
    /// replica lanes voted out (or, for a DMR tie, both) and whatever
    /// targeted BIST localized inside their physical column bands.
    VoteDisagreement {
        /// Absolute lane indices of the disagreeing replicas.
        lanes: Vec<usize>,
        /// Faults targeted BIST localized inside the suspect bands
        /// (empty when the sweep could not localize, e.g. a transient
        /// glitch that corrupted one replica and left no stuck switch).
        located: Vec<Coord>,
    },
}

impl fmt::Display for McpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McpError::Ppc(e) => write!(f, "PPC runtime error: {e}"),
            McpError::SizeMismatch { n, rows, cols } => write!(
                f,
                "graph has {n} vertices but the machine is {rows}x{cols}; an {n}x{n} array is required"
            ),
            McpError::WordBitsTooSmall { required, actual } => write!(
                f,
                "machine word width h={actual} is too small for this input; need h>={required}"
            ),
            McpError::NoConvergence { rounds } => {
                write!(f, "MCP iteration did not converge after {rounds} rounds")
            }
            McpError::InvariantViolation { invariant } => {
                write!(f, "result verification failed: {invariant}")
            }
            McpError::DestinationOutOfRange { d, n } => {
                write!(f, "destination {d} out of range for {n} vertices")
            }
            McpError::InvalidWeights(e) => write!(f, "invalid weight matrix: {e}"),
            McpError::BatchShape { detail } => write!(f, "malformed lane batch: {detail}"),
            McpError::FaultyArray { located } => {
                if located.is_empty() {
                    write!(f, "faulty array: corruption detected but not localized")
                } else {
                    write!(f, "faulty array: {} switch box(es) at [", located.len())?;
                    for (i, c) in located.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "({},{})", c.row, c.col)?;
                    }
                    write!(f, "]")
                }
            }
            McpError::VoteDisagreement { lanes, located } => {
                write!(f, "redundant vote disagreed: replica lane(s) {lanes:?}")?;
                if located.is_empty() {
                    write!(f, " (no stuck fault localized in their bands)")
                } else {
                    write!(f, "; BIST localized [")?;
                    for (i, c) in located.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "({},{})", c.row, c.col)?;
                    }
                    write!(f, "]")
                }
            }
        }
    }
}

impl std::error::Error for McpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            McpError::Ppc(e) => Some(e),
            McpError::InvalidWeights(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PpcError> for McpError {
    fn from(e: PpcError) -> Self {
        McpError::Ppc(e)
    }
}

impl From<MatrixError> for McpError {
    fn from(e: MatrixError) -> Self {
        McpError::InvalidWeights(e)
    }
}

impl McpError {
    /// Whether this failure is the machine's cooperative step budget
    /// running out
    /// ([`MachineError::StepBudgetExhausted`]) — a resource-limit
    /// outcome, not a corruption signal: the partial work is simply
    /// over budget and retrying without a bigger budget cannot succeed.
    pub fn is_step_budget_exhausted(&self) -> bool {
        matches!(
            self,
            McpError::Ppc(PpcError::Machine(MachineError::StepBudgetExhausted { .. }))
        )
    }

    /// Whether this failure is a raised [`CancelToken`](ppa_machine::CancelToken)
    /// ([`MachineError::Cancelled`]) — the supervisor asked the run to
    /// stop (deadline, shutdown); not a corruption signal.
    pub fn is_cancelled(&self) -> bool {
        matches!(
            self,
            McpError::Ppc(PpcError::Machine(MachineError::Cancelled))
        )
    }

    /// Whether this failure indicates hardware corruption — values a
    /// correct execution cannot produce, a dead bus line, an impossible
    /// empty selection. These are the failures worth a self-test and a
    /// retry ([`RecoveryPolicy`](crate::RecoveryPolicy) semantics): a
    /// transient glitch clears on the next attempt, a permanent fault is
    /// localized by BIST. Resource-limit and input-validation failures
    /// are *not* corruption; retrying them cannot succeed.
    pub fn indicates_corruption(&self) -> bool {
        matches!(
            self,
            McpError::InvariantViolation { .. }
                | McpError::NoConvergence { .. }
                | McpError::VoteDisagreement { .. }
                | McpError::Ppc(PpcError::Machine(MachineError::BusFault { .. }))
                | McpError::Ppc(PpcError::EmptySelection)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let e = McpError::SizeMismatch {
            n: 5,
            rows: 4,
            cols: 4,
        };
        assert!(e.to_string().contains("5 vertices"));
        let e = McpError::WordBitsTooSmall {
            required: 12,
            actual: 8,
        };
        assert!(e.to_string().contains("h=8"));
        assert!(e.to_string().contains("h>=12"));
        let e = McpError::NoConvergence { rounds: 9 };
        assert!(e.to_string().contains("9 rounds"));
        let e = McpError::Ppc(PpcError::EmptySelection);
        assert!(e.to_string().contains("PPC"));
        let e = McpError::InvariantViolation {
            invariant: "destination cost must be zero",
        };
        assert!(e.to_string().contains("destination cost"));
        let e = McpError::FaultyArray {
            located: vec![Coord::new(1, 2)],
        };
        assert!(e.to_string().contains("(1,2)"));
        let e = McpError::FaultyArray { located: vec![] };
        assert!(e.to_string().contains("not localized"));
        let e = McpError::VoteDisagreement {
            lanes: vec![1],
            located: vec![Coord::new(0, 5)],
        };
        assert!(e.to_string().contains("[1]"));
        assert!(e.to_string().contains("(0,5)"));
        assert!(e.indicates_corruption());
        let e = McpError::VoteDisagreement {
            lanes: vec![0, 1],
            located: vec![],
        };
        assert!(e.to_string().contains("no stuck fault"));
    }
}
