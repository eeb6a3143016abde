//! Integration checks for the pluggable-backend acceptance criteria:
//! the packed backend solves MCP bit-identically to the scalar backend
//! (outputs *and* step counters), sessions match the one-shot drivers,
//! and a session reuses its plan cache and mask arena across
//! destinations instead of re-allocating.

use ppa_graph::gen;
use ppa_machine::faults::{FaultMap, SwitchFault};
use ppa_machine::{Coord, PackedBackend};
use ppa_mcp::batch::{replicate, BatchSession};
use ppa_mcp::mcp::{minimum_cost_path, minimum_cost_path_verified};
use ppa_mcp::{apsp, McpSession};
use ppa_ppc::Ppa;

#[test]
fn packed_mcp_matches_scalar_mcp_exactly() {
    for (n, seed) in [(8usize, 1u64), (12, 7), (16, 42)] {
        let w = gen::random_connected(n, 0.3, 20, seed);
        let h = ppa_mcp::mcp::fit_word_bits(&w).clamp(2, 62);

        let mut scalar = Ppa::square(n).with_word_bits(h);
        let mut packed = Ppa::<PackedBackend>::packed(n).with_word_bits(h);
        let a = minimum_cost_path(&mut scalar, &w, 0).unwrap();
        let b = minimum_cost_path(&mut packed, &w, 0).unwrap();

        assert_eq!(a.sow, b.sow, "n={n} seed={seed}");
        assert_eq!(a.ptn, b.ptn, "n={n} seed={seed}");
        assert_eq!(a.iterations, b.iterations, "n={n} seed={seed}");
        // The acceptance bar: identical instruction streams, class by
        // class, not just identical answers.
        assert_eq!(scalar.steps(), packed.steps(), "n={n} seed={seed}");
    }
}

#[test]
fn packed_session_all_pairs_matches_scalar_apsp_driver() {
    let w = gen::random_connected(10, 0.3, 15, 9);
    let mut session = McpSession::new_packed(&w).unwrap();
    let by_session = session.all_pairs().unwrap();

    let mut ppa = Ppa::square(10).with_word_bits(session.ppa().word_bits());
    let by_driver = apsp::all_pairs(&mut ppa, &w).unwrap();

    assert_eq!(by_session.matrix_flat(), by_driver.matrix_flat());
    assert_eq!(by_session.total_iterations(), by_driver.total_iterations());
}

#[test]
fn session_reuses_planes_and_plans_across_destinations() {
    let n = 12;
    let w = gen::random_connected(n, 0.25, 18, 17);
    let ppa = Ppa::<PackedBackend>::packed(n).with_word_bits(16);
    let mut session = McpSession::from_ppa(ppa, &w).unwrap();

    session.solve(0).unwrap();
    let warm = session.exec_stats();
    assert!(warm.arena_fresh > 0, "first solve must populate the arena");

    for d in 1..n {
        session.solve(d).unwrap();
    }
    let done = session.exec_stats();
    assert_eq!(
        done.arena_fresh, warm.arena_fresh,
        "destinations after the first must not allocate new planes"
    );
    assert!(done.arena_reused > warm.arena_reused);
    assert!(
        done.plan_hit_rate() > 0.9,
        "bus-plan cache should be warm across destinations: {done:?}"
    );
}

#[test]
fn faulted_solves_stay_bit_identical_across_backends() {
    // Statements 10, 16 and 18 broadcast through packed switch patterns
    // (`row_is_d`, `diag`); with a fault map attached those broadcasts
    // are routed through the faulty hardware's effective pattern. Scalar
    // and packed must agree on every outcome and every step class, for
    // solo solves and lane-batched waves alike.
    let n = 7;
    let d = 2;
    let w = gen::random_connected(n, 0.35, 12, 23);
    let h = ppa_mcp::mcp::fit_word_bits(&w).clamp(2, 62);
    let sites = [(d, d), (d, 5), (4, 4), (3, n - 1), (0, 1)];
    let mut corrupted = 0;
    for (r, c) in sites {
        for fault in [SwitchFault::StuckOpen, SwitchFault::StuckShort] {
            let mut fm = FaultMap::new();
            fm.inject(Coord::new(r, c), fault);
            let label = format!("{fault:?} at ({r},{c})");

            let mut scalar = Ppa::square(n).with_word_bits(h);
            let mut packed = Ppa::<PackedBackend>::packed(n).with_word_bits(h);
            scalar.machine_mut().attach_faults(fm.clone());
            packed.machine_mut().attach_faults(fm.clone());
            let a = minimum_cost_path_verified(&mut scalar, &w, d);
            let b = minimum_cost_path_verified(&mut packed, &w, d);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "solo, {label}");
            assert_eq!(scalar.steps(), packed.steps(), "solo, {label}");
            corrupted += usize::from(a.is_err());

            let graphs = replicate(&w, 3);
            let mut scalar = BatchSession::new(&graphs).unwrap();
            let mut packed = BatchSession::new_packed(&graphs).unwrap();
            scalar.ppa_mut().machine_mut().attach_faults(fm.clone());
            packed.ppa_mut().machine_mut().attach_faults(fm);
            let a = scalar.solve_verified(&[d, 0, 5]);
            let b = packed.solve_verified(&[d, 0, 5]);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "batch, {label}");
            assert_eq!(scalar.ppa().steps(), packed.ppa().steps(), "batch, {label}");
        }
    }
    assert!(corrupted > 0, "some planted fault must disturb the solve");
}
