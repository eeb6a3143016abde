//! Property tests of the machine layer: bus cluster laws, shift algebra
//! and fault-map consistency.

#![allow(clippy::needless_range_loop)]
use ppa_machine::bus::{broadcast, bus_or, cluster_heads, clusters_covered, shift, shift_wrapping};
use ppa_machine::faults::{FaultMap, SwitchFault};
use ppa_machine::{Coord, Dim, Direction, Plane};
use proptest::prelude::*;

fn direction() -> impl Strategy<Value = Direction> {
    prop_oneof![
        Just(Direction::North),
        Just(Direction::East),
        Just(Direction::South),
        Just(Direction::West),
    ]
}

fn grid(n: usize) -> impl Strategy<Value = (Vec<i64>, Vec<bool>)> {
    (
        proptest::collection::vec(-100i64..100, n * n),
        proptest::collection::vec(any::<bool>(), n * n),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cluster_heads_are_open_and_self_heading((_, mask) in grid(6), dir in direction()) {
        let dim = Dim::square(6);
        let open = Plane::from_vec(dim, mask);
        match cluster_heads(dim, dir, &open) {
            Err(lines) => {
                // Every reported line really has no open node.
                for line in lines {
                    for pos in 0..dim.line_len(dir.axis()) {
                        let idx = dim.line_index(dir, line, pos);
                        prop_assert!(!open.as_slice()[idx]);
                    }
                }
            }
            Ok(heads) => {
                for (i, &h) in heads.iter().enumerate() {
                    // Heads are open nodes, and open nodes head themselves.
                    prop_assert!(open.as_slice()[h]);
                    if open.as_slice()[i] {
                        prop_assert_eq!(h, i);
                    }
                    // Heads are fixed points of the head map.
                    prop_assert_eq!(heads[h], h);
                    // A node and its head share the same bus line.
                    let (a, b) = (dim.coord(i), dim.coord(h));
                    match dir.axis() {
                        ppa_machine::Axis::Row => prop_assert_eq!(a.row, b.row),
                        ppa_machine::Axis::Col => prop_assert_eq!(a.col, b.col),
                    }
                }
            }
        }
    }

    #[test]
    fn broadcast_gathers_head_values((vals, mut mask) in grid(5), dir in direction()) {
        let dim = Dim::square(5);
        // Guarantee drivers on every line.
        for line in 0..dim.lines(dir.axis()) {
            let idx = dim.line_index(dir, line, 0);
            mask[idx] = true;
        }
        let open = Plane::from_vec(dim, mask);
        let src = Plane::from_vec(dim, vals);
        let heads = cluster_heads(dim, dir, &open).unwrap();
        let got = broadcast(dim, &src, dir, &open).unwrap();
        for i in 0..dim.len() {
            prop_assert_eq!(got.as_slice()[i], src.as_slice()[heads[i]]);
        }
    }

    #[test]
    fn bus_or_is_monotone((_, mask) in grid(5), (flags_a, _) in grid(5), dir in direction()) {
        let dim = Dim::square(5);
        let open = Plane::from_vec(dim, mask);
        let a: Vec<bool> = flags_a.iter().map(|v| v % 3 == 0).collect();
        // b is a superset of a.
        let b: Vec<bool> = a.iter().enumerate().map(|(i, &x)| x || i % 7 == 0).collect();
        let oa = bus_or(dim, &Plane::from_vec(dim, a), dir, &open).unwrap();
        let ob = bus_or(dim, &Plane::from_vec(dim, b), dir, &open).unwrap();
        for i in 0..dim.len() {
            prop_assert!(!oa.as_slice()[i] || ob.as_slice()[i], "monotonicity at {}", i);
        }
    }

    #[test]
    fn shift_then_opposite_restores_interior((vals, _) in grid(6), dir in direction()) {
        let dim = Dim::square(6);
        let src = Plane::from_vec(dim, vals);
        let fwd = shift(dim, &src, dir, i64::MIN).unwrap();
        let back = shift(dim, &fwd, dir.opposite(), i64::MIN).unwrap();
        for (c, &v) in src.enumerate() {
            // Interior = nodes whose downstream neighbour exists.
            if c.neighbor(dir, dim).is_some() {
                prop_assert_eq!(*back.get(c), v, "at {}", c);
            }
        }
    }

    #[test]
    fn wrapping_shift_has_order_n((vals, _) in grid(4), dir in direction()) {
        let dim = Dim::square(4);
        let src = Plane::from_vec(dim, vals);
        let mut p = src.clone();
        for _ in 0..4 {
            p = shift_wrapping(dim, &p, dir).unwrap();
        }
        prop_assert_eq!(p, src);
    }

    #[test]
    fn fault_apply_is_idempotent_and_resolves_distortion(
        (_, mask) in grid(5),
        fr in 0usize..5,
        fc in 0usize..5,
        stuck_open in any::<bool>(),
    ) {
        let dim = Dim::square(5);
        let intended = Plane::from_vec(dim, mask);
        let mut fm = FaultMap::new();
        let fault = if stuck_open { SwitchFault::StuckOpen } else { SwitchFault::StuckShort };
        fm.inject(Coord::new(fr, fc), fault);
        let once = fm.apply(&intended);
        let twice = fm.apply(&once);
        prop_assert_eq!(&once, &twice, "apply must be idempotent");
        // After applying, the map no longer distorts.
        prop_assert!(!fm.distorts(&once));
        // And distortion <=> the effective mask differs from the intent.
        prop_assert_eq!(fm.distorts(&intended), once != intended);
    }
}

/// SplitMix64: a seeded, dependency-free source for the sweep below.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A plane whose cells are set with probability `per_mille / 1000`.
fn random_plane(dim: Dim, per_mille: u64, state: &mut u64) -> Plane<bool> {
    Plane::from_vec(
        dim,
        (0..dim.len())
            .map(|_| splitmix(state) % 1000 < per_mille)
            .collect(),
    )
}

#[test]
fn clusters_covered_matches_the_wired_or_guardrail() {
    const DIRS: [Direction; 4] = [
        Direction::North,
        Direction::East,
        Direction::South,
        Direction::West,
    ];
    let dims = [(1, 1), (3, 5), (5, 13), (9, 31), (1, 65), (65, 1), (21, 21)];
    let mut state = 0x5eed_u64;
    let (mut covered_cases, mut uncovered_cases) = (0, 0);
    for (rows, cols) in dims {
        let dim = Dim::new(rows, cols);
        for trial in 0..4 {
            // Open patterns: dense, sparse (most lines driverless), all
            // Short (every line one floating cluster), and one Open node
            // per row and column (every line driven).
            let opens = [
                random_plane(dim, 500, &mut state),
                random_plane(dim, 40, &mut state),
                Plane::filled(dim, false),
                Plane::from_fn(dim, |c| c.row % cols == c.col % rows),
            ];
            for open in &opens {
                // Selections: empty, sparse, full, every Open node (covers
                // every driven cluster, no driverless line), and full but
                // one node.
                let hole = (splitmix(&mut state) as usize) % dim.len();
                let sels = [
                    Plane::filled(dim, false),
                    random_plane(dim, 60 + 200 * trial, &mut state),
                    Plane::filled(dim, true),
                    open.clone(),
                    Plane::from_vec(dim, (0..dim.len()).map(|i| i != hole).collect()),
                ];
                for sel in &sels {
                    for dir in DIRS {
                        let want = bus_or(dim, sel, dir, open).unwrap().all();
                        let got = clusters_covered(dim, sel, dir, open).unwrap();
                        assert_eq!(got, want, "{dim} {dir:?} trial {trial}");
                        if want {
                            covered_cases += 1;
                        } else {
                            uncovered_cases += 1;
                        }
                    }
                }
            }
        }
    }
    // Both answers are exercised, not just the trivial one.
    assert!(covered_cases > 100 && uncovered_cases > 100);
}

#[test]
fn clusters_covered_rejects_mismatched_planes() {
    let dim = Dim::new(3, 4);
    let good = Plane::filled(dim, true);
    let bad = Plane::filled(Dim::new(4, 3), true);
    for (sel, open) in [(&bad, &good), (&good, &bad)] {
        assert_eq!(
            clusters_covered(dim, sel, Direction::East, open),
            Err(ppa_machine::MachineError::DimMismatch {
                expected: dim,
                found: bad.dim()
            })
        );
    }
}
