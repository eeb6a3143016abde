//! Image kernels on the PPA: the city-block distance transform.
//!
//! The paper's Section 2 mentions, in passing, that the PPC communication
//! primitives were "used to implement the EDT algorithm" — the distance
//! transform being the flagship image-analysis workload of the
//! reconfigurable-mesh literature the PPA came from. This module supplies
//! that companion kernel: the exact **L1 (city-block) distance transform**
//! of a binary image, one pixel per PE.
//!
//! The L1 metric is separable, so the transform is two 1-D passes:
//!
//! 1. per row, the distance to the nearest feature pixel in the same row
//!    (two directional prefix scans over index markers);
//! 2. per column, the min-plus relaxation `dt[i] = min_i' (rowdt[i'] +
//!    |i - i'|)`, realized as `n - 1` shift/add/min rounds in each
//!    vertical direction.
//!
//! Total cost `O(n)` SIMD steps — on the row/column PPA the distance
//! transform is communication-bound, not comparison-bound, so no
//! bit-serial scans appear at all (contrast with the MCP's `O(p * h)`).

use crate::error::McpError;
use crate::Result;
use ppa_machine::Direction;
use ppa_ppc::{Parallel, Ppa};

/// Computes the L1 distance transform of a binary image.
///
/// `features` marks feature (object) pixels `true`. Returns, per PE, the
/// city-block distance to the nearest feature pixel (`None` per pixel is
/// not needed: an image with no features at all yields `None`).
///
/// # Errors
/// [`McpError::WordBitsTooSmall`] if the machine word cannot hold the
/// largest possible distance (`rows + cols`).
pub fn distance_transform_l1(
    ppa: &mut Ppa,
    features: &Parallel<bool>,
) -> Result<Option<Parallel<i64>>> {
    let dim = ppa.dim();
    assert_eq!(features.dim(), dim, "feature plane shape mismatch");
    let maxint = ppa.maxint();
    let worst = (dim.rows + dim.cols) as i64;
    if worst >= maxint {
        return Err(McpError::WordBitsTooSmall {
            required: (64 - (worst as u64 + 1).leading_zeros()).max(2),
            actual: ppa.word_bits(),
        });
    }
    if !features.any() {
        return Ok(None);
    }

    let col = ppa.col_index();
    let one = ppa.constant(1i64);
    let inf = ppa.constant(maxint);

    // ---- pass 1: nearest feature within each row -------------------------
    // Left side: the largest feature column <= own column.
    let neg = ppa.constant(-1i64);
    let left_marker = ppa.select(features, &col, &neg)?;
    let left_best = ppa.prefix_max(&left_marker, Direction::East, -1)?;
    let left_found = {
        let zero = ppa.constant(0i64);
        ppa.le(&zero, &left_best)?
    };
    let left_dist_raw = ppa.sub(&col, &left_best)?;
    let left_dist = ppa.select(&left_found, &left_dist_raw, &inf)?;

    // Right side: the smallest feature column >= own column.
    let right_marker = ppa.select(features, &col, &inf)?;
    let right_best = ppa.prefix_min(&right_marker, Direction::West)?;
    let right_found = ppa.lt(&right_best, &inf)?;
    let right_dist_raw = ppa.sub(&right_best, &col)?;
    let right_dist = ppa.select(&right_found, &right_dist_raw, &inf)?;

    let mut rowdt = ppa.min2(&left_dist, &right_dist)?;

    // ---- pass 2: min-plus relaxation along the columns --------------------
    // Downward: dt_i = min(rowdt_i, dt_{i-1} + 1), then the mirror upward.
    for dir in [Direction::South, Direction::North] {
        for _ in 1..dim.rows {
            let shifted = ppa.shift(&rowdt, dir, maxint)?;
            let bumped = ppa.sat_add(&shifted, &one)?;
            rowdt = ppa.min2(&rowdt, &bumped)?;
        }
    }
    Ok(Some(rowdt))
}

/// Brute-force oracle: per pixel, the minimum L1 distance to any feature.
pub fn distance_transform_oracle(features: &Parallel<bool>) -> Option<Parallel<i64>> {
    let dim = features.dim();
    let pts: Vec<(i64, i64)> = features
        .enumerate()
        .filter(|(_, &f)| f)
        .map(|(c, _)| (c.row as i64, c.col as i64))
        .collect();
    if pts.is_empty() {
        return None;
    }
    Some(Parallel::from_fn(dim, |c| {
        pts.iter()
            .map(|&(r, k)| (c.row as i64 - r).abs() + (c.col as i64 - k).abs())
            .min()
            .expect("non-empty features")
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_machine::Coord;

    fn run(n: usize, feats: &[(usize, usize)]) -> Parallel<i64> {
        let mut ppa = Ppa::square(n).with_word_bits(10);
        let mut plane = Parallel::filled(ppa.dim(), false);
        for &(r, c) in feats {
            plane.set(Coord::new(r, c), true);
        }
        let got = distance_transform_l1(&mut ppa, &plane).unwrap().unwrap();
        let want = distance_transform_oracle(&plane).unwrap();
        assert_eq!(got, want);
        got
    }

    #[test]
    fn single_feature_center() {
        let dt = run(5, &[(2, 2)]);
        assert_eq!(*dt.at(2, 2), 0);
        assert_eq!(*dt.at(0, 0), 4);
        assert_eq!(*dt.at(2, 0), 2);
        assert_eq!(*dt.at(4, 4), 4);
    }

    #[test]
    fn corner_and_edge_features() {
        run(6, &[(0, 0)]);
        run(6, &[(5, 5), (0, 5)]);
        run(6, &[(0, 0), (0, 5), (5, 0), (5, 5)]);
    }

    #[test]
    fn feature_rows_and_empty_rows_mix() {
        // Features only in row 0: distances grow straight down.
        let dt = run(4, &[(0, 0), (0, 1), (0, 2), (0, 3)]);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(*dt.at(r, c), r as i64);
            }
        }
    }

    #[test]
    fn random_patterns_match_oracle() {
        for seed in 0..10u64 {
            let n = 7;
            let mut ppa = Ppa::square(n).with_word_bits(10);
            let plane = Parallel::from_fn(ppa.dim(), |c| {
                (c.row as u64 * 31 + c.col as u64 * 17 + seed).is_multiple_of(5)
            });
            if !plane.any() {
                continue;
            }
            let got = distance_transform_l1(&mut ppa, &plane).unwrap().unwrap();
            let want = distance_transform_oracle(&plane).unwrap();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn empty_image_is_none() {
        let mut ppa = Ppa::square(4).with_word_bits(8);
        let plane = Parallel::filled(ppa.dim(), false);
        assert_eq!(distance_transform_l1(&mut ppa, &plane).unwrap(), None);
        assert_eq!(distance_transform_oracle(&plane), None);
    }

    #[test]
    fn all_features_is_zero() {
        let dt = run(
            4,
            &(0..4)
                .flat_map(|r| (0..4).map(move |c| (r, c)))
                .collect::<Vec<_>>(),
        );
        assert!(dt.iter().all(|&v| v == 0));
    }

    #[test]
    fn cost_is_linear_in_n_and_free_of_bit_scans() {
        let mut steps = Vec::new();
        for n in [6usize, 12] {
            let mut ppa = Ppa::square(n).with_word_bits(10);
            let plane = Parallel::from_fn(ppa.dim(), |c| c.row == 0 && c.col == 0);
            ppa.reset_steps();
            let _ = distance_transform_l1(&mut ppa, &plane).unwrap().unwrap();
            let report = ppa.steps();
            assert_eq!(
                report.count(ppa_machine::Op::BusOr),
                0,
                "no bit-serial scans"
            );
            steps.push(report.total());
        }
        // Roughly linear: doubling n roughly doubles steps.
        let ratio = steps[1] as f64 / steps[0] as f64;
        assert!((1.5..2.5).contains(&ratio), "{steps:?}");
    }

    #[test]
    fn word_width_guard() {
        let mut ppa = Ppa::square(40).with_word_bits(6); // 2n = 80 > 63
        let plane = Parallel::from_fn(ppa.dim(), |c| c.row == 0);
        assert!(matches!(
            distance_transform_l1(&mut ppa, &plane),
            Err(McpError::WordBitsTooSmall { .. })
        ));
    }
}
