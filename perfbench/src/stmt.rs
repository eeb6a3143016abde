//! A host-clock trace sink that attributes solve time to paper statements.
//!
//! The controller stamps every instruction event with its phase label
//! (`"stmt 11: min"`, ...). [`StmtClock`] reads the host clock at every
//! event and span boundary and charges the interval since the previous
//! boundary to the statement of the previous event, so each statement's
//! total covers the instructions issued under it plus the bookkeeping in
//! between. Time outside the `mcp` span is charged to nothing.

use ppa_obs::trace::{Event, TraceSink};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Controller phase labels of `McpSession::solve` and the metric name of
/// each (`ppc.<name>`). Events under any other label count as `other`.
pub const STATEMENTS: [(&str, &str); 7] = [
    ("setup", "setup"),
    ("step 1 (stmts 4-7)", "step1"),
    ("stmt 10: broadcast+add", "stmt10_broadcast_add"),
    ("stmt 11: min", "stmt11_min"),
    ("stmt 12: selected_min", "stmt12_selected_min"),
    ("stmts 14-18: fold into row d", "stmt14_18_fold"),
    ("stmt 20: loop test", "stmt20_loop_test"),
];

/// Slots: one per [`STATEMENTS`] entry plus `other`.
pub const SLOTS: usize = STATEMENTS.len() + 1;

/// Accumulated attribution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StmtTally {
    /// Host nanoseconds charged per slot.
    pub ns: [u64; SLOTS],
    /// Instruction events per slot.
    pub events: [u64; SLOTS],
}

#[derive(Debug, Default)]
struct State {
    depth: u32,
    current: Option<usize>,
    mark: Option<Instant>,
    tally: StmtTally,
}

impl State {
    fn settle(&mut self) {
        let now = Instant::now();
        if let (Some(slot), Some(mark)) = (self.current, self.mark) {
            self.tally.ns[slot] += now.duration_since(mark).as_nanos() as u64;
        }
        self.mark = Some(now);
    }
}

/// The sink handle: one clone goes to `Ppa::install_sink`, the caller
/// keeps another to read the tally.
#[derive(Debug, Clone, Default)]
pub struct StmtClock(Arc<Mutex<State>>);

impl StmtClock {
    /// A fresh sink with an empty tally.
    pub fn new() -> StmtClock {
        StmtClock::default()
    }

    /// The tally so far.
    pub fn tally(&self) -> StmtTally {
        self.state().tally
    }

    /// Zeroes the tally (span nesting is kept).
    pub fn reset(&self) {
        self.state().tally = StmtTally::default();
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        // Every update leaves the tally consistent, so a poisoned guard
        // is still valid data.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

fn slot_of(label: Option<&str>) -> usize {
    label
        .and_then(|l| STATEMENTS.iter().position(|(phase, _)| *phase == l))
        .unwrap_or(STATEMENTS.len())
}

impl TraceSink for StmtClock {
    fn enter_span(&mut self, _name: &str, _step: u64) {
        let mut st = self.state();
        st.settle();
        st.depth += 1;
    }

    fn exit_span(&mut self, _step: u64) {
        let mut st = self.state();
        st.settle();
        st.depth = st.depth.saturating_sub(1);
        if st.depth == 0 {
            st.current = None;
        }
    }

    fn event(&mut self, ev: &Event<'_>) {
        let mut st = self.state();
        st.settle();
        let slot = slot_of(ev.label);
        st.tally.events[slot] += ev.dur;
        st.current = (st.depth > 0).then_some(slot);
    }
}
