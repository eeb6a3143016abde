//! Self-tests of the benchmark's own instruments: the timing executor
//! must not change what it measures, the statement sink must see every
//! step, and inputs must follow from the seed alone.

use ppa_graph::gen;
use ppa_mcp::{BatchSession, McpSession};
use ppa_perfbench::inputs::{input_bytes, Workload};
use ppa_perfbench::stmt::{StmtClock, STATEMENTS};
use ppa_perfbench::timed::{timed_batch, timed_session, Ledger};

#[test]
fn timed_executor_is_bit_identical_to_packed_on_a_seeded_graph() {
    let w = gen::random_connected(20, 0.2, 25, 41);
    let ledger = Ledger::new();
    let mut timed = timed_session(&w, &ledger).unwrap();
    let mut bare = McpSession::new_packed(&w).unwrap();
    for d in 0..w.n() {
        let want = bare.solve_verified(d).unwrap();
        let got = timed.solve_verified(d).unwrap();
        // McpOutput equality covers SOW, PTN, iterations and the
        // per-class StepReport of init, every iteration and the total.
        assert_eq!(got, want, "dest {d}");
    }
    assert_eq!(timed.ppa().steps(), bare.ppa().steps());
    assert_eq!(timed.exec_stats(), bare.exec_stats());
    let calls: u64 = ledger.snapshot().iter().map(|t| t.calls).sum();
    assert!(
        calls > 0 && ledger.total_ns() > 0,
        "the ledger saw no calls"
    );
}

#[test]
fn timed_executor_is_bit_identical_to_packed_on_a_lanes8_batch() {
    let graphs: Vec<_> = (0..8)
        .map(|k| gen::random_connected(12, 0.2, 25, 100 + k))
        .collect();
    let dests: Vec<usize> = (0..8).map(|k| (k * 5) % 12).collect();
    let ledger = Ledger::new();
    let mut timed = timed_batch(&graphs, &ledger).unwrap();
    let mut bare = BatchSession::new_packed(&graphs).unwrap();
    let want = bare.solve_verified(&dests).unwrap();
    let got = timed.solve_verified(&dests).unwrap();
    assert_eq!(got.len(), 8);
    for (lane, (g, w)) in got.into_iter().zip(want).enumerate() {
        assert_eq!(g.unwrap(), w.unwrap(), "lane {lane}");
    }
    assert_eq!(timed.ppa().steps(), bare.ppa().steps());
    assert!(ledger.total_ns() > 0);
}

#[test]
fn statement_sink_events_add_up_to_steps_total() {
    let w = gen::random_connected(16, 0.2, 25, 7);
    let clock = StmtClock::new();
    let mut s = McpSession::new_packed(&w).unwrap();
    s.ppa_mut().install_sink(clock.clone());
    let mut steps = 0u64;
    for d in 0..w.n() {
        steps += s.solve(d).unwrap().stats.total.total();
    }
    let tally = clock.tally();
    assert_eq!(tally.events.iter().sum::<u64>(), steps);
    // Every statement of the paper's loop was seen and timed.
    for (slot, (label, _)) in STATEMENTS.iter().enumerate() {
        assert!(tally.events[slot] > 0, "no events under `{label}`");
        assert!(tally.ns[slot] > 0, "no time under `{label}`");
    }
}

#[test]
fn the_same_seed_always_generates_byte_identical_inputs() {
    for w in Workload::ALL {
        let a = input_bytes(w, 7, 500);
        assert_eq!(a, input_bytes(w, 7, 500), "{}", w.name());
        assert_ne!(a, input_bytes(w, 8, 500), "{}", w.name());
    }
}
