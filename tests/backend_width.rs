//! Scalar-vs-packed differential suite on 64-bit words: random programs
//! and random graphs must produce identical results AND identical
//! per-class step reports on the scalar reference and the packed
//! backend — including runs with injected transient faults, exhausted
//! step budgets, a pre-cancelled token, and lane batches whose `u64`
//! words straddle lane and row seams.
//!
//! The random and the cancellation cases run at both array widths: arrays
//! of n <= 8, whose planes fit in one `u64` word, and wider ones, whose
//! rows straddle words.
//!
//! The machine word is a host-side representation choice; the simulated
//! machine must not be able to observe it. Budget runs are additionally
//! checked against the budget itself, not only against each other, so a
//! budget fault shared by both backends still fails here.

use ppa_graph::gen;
use ppa_machine::{CancelToken, Dim, Direction, PackedBackend, TransientFaults};
use ppa_mcp::batch::replicate;
use ppa_mcp::mcp::{fit_word_bits, minimum_cost_path};
use ppa_mcp::{BatchSession, LaneLimit, McpError, McpOutput, McpSession};
use ppa_ppc::{Parallel, Ppa};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::ops::RangeInclusive;

fn packed_ppa(n: usize, h: u32) -> Ppa<PackedBackend> {
    Ppa::<PackedBackend>::packed(n).with_word_bits(h)
}

/// An array side: one-word planes and row-straddling ones equally often.
fn side(
    narrow: RangeInclusive<usize>,
    wide: RangeInclusive<usize>,
) -> impl Strategy<Value = usize> {
    prop_oneof![narrow, wide]
}

fn direction() -> impl Strategy<Value = Direction> {
    prop_oneof![
        Just(Direction::North),
        Just(Direction::East),
        Just(Direction::South),
        Just(Direction::West),
    ]
}

/// Ensures every line has at least one Open node so the collectives never
/// trip the all-lines-driven guardrail.
fn force_driver(dim: Dim, dir: Direction, open: &mut Parallel<bool>) {
    let axis = dir.axis();
    for line in 0..dim.lines(axis) {
        let any =
            (0..dim.line_len(axis)).any(|pos| open.as_slice()[dim.line_index(dir, line, pos)]);
        if !any {
            let idx = dim.line_index(dir, line, 0);
            open.as_mut_slice()[idx] = true;
        }
    }
}

/// Asserts two solver outcomes are the same success or the same error.
fn same_outcome(
    want: &Result<McpOutput, McpError>,
    got: &Result<McpOutput, McpError>,
) -> Result<(), TestCaseError> {
    match (want, got) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(&a.sow, &b.sow, "sow diverged");
            prop_assert_eq!(&a.ptn, &b.ptn, "ptn diverged");
            prop_assert_eq!(a.iterations, b.iterations, "iterations diverged");
            prop_assert_eq!(a.stats.total, b.stats.total, "step report diverged");
        }
        (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string(), "error diverged"),
        (a, b) => prop_assert!(false, "divergent outcomes: {:?} vs {:?}", a, b),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn collectives_match_scalar_at_both_widths(
        args in side(3..=8, 9..=11).prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec(0i64..=255, n * n),
                proptest::collection::vec(any::<bool>(), n * n),
            )
        }),
        dir in direction(),
        h in 4u32..=10,
    ) {
        let (n, vals, mask) = args;
        let dim = Dim::square(n);
        let cap = (1i64 << h) - 1;
        let vals: Vec<i64> = vals.into_iter().map(|v| v.min(cap)).collect();
        let src = Parallel::from_vec(dim, vals);
        let mut open = Parallel::from_vec(dim, mask);
        force_driver(dim, dir, &mut open);

        let mut s = Ppa::square(n).with_word_bits(h);
        let mut p = packed_ppa(n, h);
        prop_assert_eq!(p.min(&src, dir, &open).unwrap(), s.min(&src, dir, &open).unwrap());
        prop_assert_eq!(p.max(&src, dir, &open).unwrap(), s.max(&src, dir, &open).unwrap());
        prop_assert_eq!(p.steps(), s.steps());
    }

    #[test]
    fn mcp_matches_scalar_at_both_widths(
        (n, seed) in (side(4..=8, 9..=11), 0u64..1000),
        dest_pick in 0usize..10,
    ) {
        let w = gen::random_digraph(n, 0.4, 15, seed);
        let h = fit_word_bits(&w).clamp(2, 62);
        let d = dest_pick % n;

        let mut s = Ppa::square(n).with_word_bits(h);
        let mut p = packed_ppa(n, h);
        same_outcome(&minimum_cost_path(&mut s, &w, d), &minimum_cost_path(&mut p, &w, d))?;
        prop_assert_eq!(p.steps(), s.steps());
    }

    #[test]
    fn transient_faults_land_identically_at_both_widths(
        n in side(6..=6, 9..=9),
        seed in 0u64..500,
        p_fault in prop_oneof![Just(0.002f64), Just(0.01), Just(1.0)],
    ) {
        let w = gen::random_connected(n, 0.45, 9, seed);
        let h = fit_word_bits(&w).clamp(2, 62);

        // Fault routing lives on the issue side, so the corrupted run —
        // success or failure — must be bit-identical on both backends.
        let mut s = Ppa::square(n).with_word_bits(h);
        s.machine_mut()
            .attach_transient_faults(TransientFaults::new(p_fault, seed));
        let mut p = packed_ppa(n, h);
        p.machine_mut()
            .attach_transient_faults(TransientFaults::new(p_fault, seed));
        same_outcome(&minimum_cost_path(&mut s, &w, 0), &minimum_cost_path(&mut p, &w, 0))?;
        prop_assert_eq!(p.steps(), s.steps());
    }

    #[test]
    fn step_budgets_exhaust_on_the_same_step_at_both_widths(
        n in side(6..=6, 9..=9),
        seed in 0u64..200,
        budget in 3u64..400,
    ) {
        let w = gen::random_connected(n, 0.45, 9, seed);
        let h = fit_word_bits(&w).clamp(2, 62);

        let mut s = Ppa::square(n).with_word_bits(h);
        s.limit_steps(budget);
        let want = minimum_cost_path(&mut s, &w, 0);
        let mut p = packed_ppa(n, h);
        p.limit_steps(budget);
        let got = minimum_cost_path(&mut p, &w, 0);
        same_outcome(&want, &got)?;
        prop_assert_eq!(p.steps(), s.steps());

        // The budget is checked before every fallible instruction, so a
        // run stops on the first fallible instruction issued with the
        // budget spent (infallible ones may run past it), and a run that
        // finishes could not have finished one step sooner. Both are
        // fixed points a re-run with the spent count as budget must hit.
        let spent = p.steps().total();
        let rerun = |b: u64| {
            let mut q = packed_ppa(n, h);
            q.limit_steps(b);
            let ok = minimum_cost_path(&mut q, &w, 0).is_ok();
            (ok, q.steps().total())
        };
        match &got {
            Err(e) => {
                prop_assert!(e.is_step_budget_exhausted(), "wrong error class {:?}", e);
                prop_assert!(spent >= budget, "stopped {} steps early", budget - spent);
                prop_assert_eq!(rerun(spent), (false, spent), "exhaustion overshot");
            }
            Ok(_) => {
                prop_assert!(spent <= budget, "finished {} steps over", spent - budget);
                prop_assert!(!rerun(spent - 1).0, "finished on a budget one step short");
            }
        }
        let left = Some(budget.saturating_sub(spent));
        prop_assert_eq!(p.steps_remaining(), left);
        prop_assert_eq!(s.steps_remaining(), left);
    }
}

/// A pre-raised token is the deterministic edge of cancellation: both
/// backends must refuse at the first fallible instruction with the same
/// typed error and the same number of issued steps.
#[test]
fn cancellation_fires_on_the_same_step_at_both_widths() {
    let cancelled = || {
        let token = CancelToken::new();
        token.cancel();
        token
    };
    for n in [6, 9] {
        for seed in 0..8 {
            let w = gen::random_connected(n, 0.45, 9, seed);
            let h = fit_word_bits(&w).clamp(2, 62);

            let mut s = Ppa::square(n).with_word_bits(h);
            s.attach_cancel(cancelled());
            let want = minimum_cost_path(&mut s, &w, 0).unwrap_err();
            assert!(want.is_cancelled(), "n {n} seed {seed}: {want:?}");

            let mut p = packed_ppa(n, h);
            p.attach_cancel(cancelled());
            let got = minimum_cost_path(&mut p, &w, 0).unwrap_err();
            assert_eq!(got.to_string(), want.to_string(), "n {n} seed {seed}");
            assert_eq!(p.steps(), s.steps(), "n {n} seed {seed}");
        }
    }
}

/// Lane and row seams must be invisible to 64-bit words. Two lanes of a
/// 20-vertex graph make a 20 x 40 machine: word 0 holds row 0 (lane 0's
/// columns 0-19 and lane 1's columns 20-39) and columns 0-23 of row 1,
/// so it crosses both the lane seam and a row seam, and later words
/// straddle rows at other offsets: word 4 starts at bit 256 (row 6,
/// column 16) and crosses the lane seam and a row seam again. Every lane — budgeted or not — must match the scalar batch and a solo
/// scalar run exactly.
#[test]
fn lane_seam_straddling_a_w256_word_boundary_is_invisible() {
    let n = 20usize;
    let w = gen::random_connected(n, 0.3, 25, 0xA11CE);
    let graphs = replicate(&w, 2);
    let dests = [3usize, 17];

    let mut packed = BatchSession::new_packed(&graphs).unwrap();
    let mut scalar = BatchSession::new(&graphs).unwrap();
    let word_bits = packed.word_bits();
    let wave = packed.solve(&dests).unwrap();
    for (lane, &d) in dests.iter().enumerate() {
        let got = wave[lane].as_ref().expect("lane converges");
        let solo = Ppa::square(n).with_word_bits(word_bits);
        let want = McpSession::from_ppa(solo, &w)
            .and_then(|mut s| s.solve(d))
            .unwrap();
        assert_eq!(
            got.sow, want.sow,
            "lane {lane}: SOW diverged across the seam"
        );
        assert_eq!(
            got.ptn, want.ptn,
            "lane {lane}: PTN diverged across the seam"
        );
        assert_eq!(
            got.stats.total, want.stats.total,
            "lane {lane}: step report diverged across the seam"
        );
    }

    // Lane 0 runs out of budget mid-solve, lane 1 is pre-cancelled: the
    // packed wave fails them exactly as the scalar wave does.
    let cancelled = CancelToken::new();
    cancelled.cancel();
    let limits = [
        LaneLimit {
            step_budget: Some(150),
            cancel: None,
        },
        LaneLimit {
            step_budget: None,
            cancel: Some(cancelled),
        },
    ];
    let got = packed.solve_with(&dests, &limits).unwrap();
    let want = scalar.solve_with(&dests, &limits).unwrap();
    for (lane, (g, s)) in got.iter().zip(&want).enumerate() {
        let (g, s) = (g.as_ref().unwrap_err(), s.as_ref().unwrap_err());
        assert_eq!(g.to_string(), s.to_string(), "lane {lane}");
    }
    assert!(got[0].as_ref().unwrap_err().is_step_budget_exhausted());
    assert!(got[1].as_ref().unwrap_err().is_cancelled());
}
