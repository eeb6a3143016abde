//! Ablation variants of the MCP algorithm.
//!
//! DESIGN.md calls out two modeling decisions worth quantifying:
//!
//! * **A1 — bus model.** The standard implementation relies on circular
//!   buses: statement 16's diagonal fold injects at row `i` and may be
//!   read at a row *above* it. On strictly linear buses the same fold is
//!   still implementable, but costs two passes (one per direction) plus a
//!   merge. [`BusModel::Linear`] runs that variant so the report can put
//!   a number on what wrap-around saves.
//! * **A2 — combining model.** The PPA pays `O(h)` per `min` because its
//!   buses carry one bit at a time. A hypothetical word-parallel
//!   combining bus ([`MinModel::Word`]) collapses that to `O(1)`;
//!   running it shows how much of the total the bit-serial scans are.
//!
//! Both variants compute *identical results* to the reference
//! implementation — only the step counts move — which the tests assert.

use crate::error::McpError;
use crate::mcp::{fit_word_bits, McpOutput};
use crate::stats::McpStats;
use crate::Result;
use ppa_graph::{Weight, WeightMatrix, INF};
use ppa_machine::{Direction, StepReport};
use ppa_ppc::{Parallel, Ppa};

/// Bus topology under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusModel {
    /// Wrap-around lines (the model of the main implementation).
    Circular,
    /// Strictly linear lines: every fold-style broadcast is emulated with
    /// one pass per direction plus a select-merge.
    Linear,
}

/// Row-minimum implementation under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MinModel {
    /// The paper's bit-serial scan, `O(h)` steps.
    BitSerial,
    /// A hypothetical single-step word-combining bus, `O(1)` steps
    /// (not PPA-implementable; ablation only).
    Word,
}

/// Variant configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VariantConfig {
    /// Bus topology.
    pub bus: BusModel,
    /// Minimum implementation.
    pub min: MinModel,
}

impl VariantConfig {
    /// The reference configuration (circular buses, bit-serial min).
    pub fn reference() -> Self {
        VariantConfig {
            bus: BusModel::Circular,
            min: MinModel::BitSerial,
        }
    }
}

/// Runs the MCP dynamic program under a variant configuration.
///
/// Semantics match [`crate::mcp::minimum_cost_path`] exactly; only the
/// realization (and therefore the step count) of the communication and
/// combination phases differs.
pub fn minimum_cost_path_variant(
    ppa: &mut Ppa,
    w: &WeightMatrix,
    d: usize,
    config: VariantConfig,
) -> Result<McpOutput> {
    let n = w.n();
    let dim = ppa.dim();
    if dim.rows != n || dim.cols != n {
        return Err(McpError::SizeMismatch {
            n,
            rows: dim.rows,
            cols: dim.cols,
        });
    }
    if d >= n {
        return Err(McpError::DestinationOutOfRange { d, n });
    }
    let required = fit_word_bits(w);
    if ppa.word_bits() < required {
        return Err(McpError::WordBitsTooSmall {
            required,
            actual: ppa.word_bits(),
        });
    }

    let maxint = ppa.maxint();
    let start = ppa.steps();

    let row = ppa.row_index();
    let col = ppa.col_index();
    let d_imm = ppa.constant(d as i64);
    let nm1_imm = ppa.constant(n as i64 - 1);
    let row_is_d = ppa.eq(&row, &d_imm)?;
    let row_ne_d = ppa.not(&row_is_d)?;
    let col_is_d = ppa.eq(&col, &d_imm)?;
    let diag = ppa.eq(&row, &col)?;
    let last_col = ppa.eq(&col, &nm1_imm)?;

    let mut w_vec = w.try_saturated_vec(maxint)?;
    for i in 0..n {
        w_vec[i * n + i] = 0;
    }
    let w_plane: Parallel<i64> = Parallel::from_vec(dim, w_vec);

    // A fold broadcast: from the Open nodes of `open`, deliver to every
    // node of the line. On circular buses this is one instruction; on
    // linear buses it takes a pass in each direction plus a select.
    let fold = |ppa: &mut Ppa,
                src: &Parallel<i64>,
                open: &Parallel<bool>|
     -> ppa_ppc::Result<Parallel<i64>> {
        match config.bus {
            BusModel::Circular => ppa.broadcast(src, Direction::South, open),
            BusModel::Linear => {
                // Down-pass reaches nodes below the injector...
                let down = ppa.broadcast(src, Direction::South, open)?;
                // ...the up-pass reaches nodes above it...
                let up = ppa.broadcast(src, Direction::North, open)?;
                // ...and each node keeps the copy that really came
                // from its line's injector. With exactly one Open
                // node per column (all uses here), "below or at the
                // injector" is decided by comparing against the
                // injector's row, itself folded the same way; the
                // hardware equivalent is a one-bit valid flag riding
                // with each pass. We charge one select step.
                let ri = ppa.row_index();
                let rows_down = ppa.broadcast(&ri, Direction::South, open)?;
                let below = ppa.le(&rows_down, &ri)?;
                ppa.select(&below, &down, &up)
            }
        }
    };

    let rowmin = |ppa: &mut Ppa, src: &Parallel<i64>, heads: &Parallel<bool>| match config.min {
        MinModel::BitSerial => ppa.min(src, Direction::West, heads),
        MinModel::Word => ppa.min_word(src, Direction::West, heads),
    };

    // Step 1 (same intended initialization as the reference).
    let in_weights = ppa.broadcast(&w_plane, Direction::East, &col_is_d)?;
    let in_weights_t = fold(ppa, &in_weights, &diag)?;
    let mut sow = ppa.constant(maxint);
    let mut min_sow = ppa.constant(maxint);
    let mut ptn = ppa.constant(0i64);
    let mut old_sow = ppa.constant(maxint);
    ppa.where_(&row_is_d, |p| -> ppa_ppc::Result<()> {
        p.assign(&mut sow, &in_weights_t)?;
        p.assign(&mut ptn, &d_imm)?;
        p.assign(&mut min_sow, &in_weights_t)?;
        Ok(())
    })??;
    let init_report = ppa.steps().since(&start);

    let mut per_iteration: Vec<StepReport> = Vec::new();
    let mut iterations = 0usize;
    loop {
        let iter_start = ppa.steps();
        iterations += 1;

        let bsow = fold(ppa, &sow, &row_is_d)?;
        let sum = ppa.sat_add(&bsow, &w_plane)?;
        ppa.where_(&row_ne_d, |p| p.assign(&mut sow, &sum))??;

        let rm = rowmin(ppa, &sow, &last_col)?;
        ppa.where_(&row_ne_d, |p| p.assign(&mut min_sow, &rm))??;

        let is_argmin = ppa.eq(&min_sow, &sow)?;
        let sel = ppa.or(&is_argmin, &row_is_d)?;
        let argmin_col = match config.min {
            MinModel::BitSerial => ppa.selected_min(&col, Direction::West, &last_col, &sel)?,
            MinModel::Word => {
                // Word model: mask unselected indices to MAXINT, then a
                // single-step word combine.
                let inf = ppa.constant(maxint);
                let masked = ppa.select(&sel, &col, &inf)?;
                ppa.min_word(&masked, Direction::West, &last_col)?
            }
        };
        ppa.where_(&row_ne_d, |p| p.assign(&mut ptn, &argmin_col))??;

        let bc_min = fold(ppa, &min_sow, &diag)?;
        let bc_ptn = fold(ppa, &ptn, &diag)?;
        let changed = ppa.where_(&row_is_d, |p| -> ppa_ppc::Result<Parallel<bool>> {
            p.assign(&mut old_sow, &sow)?;
            p.assign(&mut sow, &bc_min)?;
            let changed = p.ne(&sow, &old_sow)?;
            p.where_(&changed, |q| q.assign(&mut ptn, &bc_ptn))??;
            Ok(changed)
        })??;

        per_iteration.push(ppa.steps().since(&iter_start));
        let changed_in_row_d = ppa.and(&changed, &row_is_d)?;
        if !ppa.any(&changed_in_row_d)? {
            break;
        }
        if iterations > n {
            return Err(McpError::NoConvergence { rounds: iterations });
        }
    }

    let mut out_sow: Vec<Weight> = Vec::with_capacity(n);
    let mut out_ptn: Vec<usize> = Vec::with_capacity(n);
    for i in 0..n {
        let cost = *sow.at(d, i);
        if i == d {
            out_sow.push(0);
            out_ptn.push(d);
        } else if cost >= maxint {
            out_sow.push(INF);
            out_ptn.push(i);
        } else {
            out_sow.push(cost);
            out_ptn.push(*ptn.at(d, i) as usize);
        }
    }
    let total = ppa.steps().since(&start);
    Ok(McpOutput {
        dest: d,
        sow: out_sow,
        ptn: out_ptn,
        iterations,
        stats: McpStats {
            init: init_report,
            per_iteration,
            total,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcp::minimum_cost_path;
    use ppa_graph::gen;

    fn machine_for(w: &WeightMatrix) -> Ppa {
        Ppa::square(w.n()).with_word_bits(fit_word_bits(w).clamp(2, 62))
    }

    #[test]
    fn reference_variant_equals_mainline() {
        let w = gen::random_connected(10, 0.2, 12, 8);
        let mut a = machine_for(&w);
        let main = minimum_cost_path(&mut a, &w, 4).unwrap();
        let mut b = machine_for(&w);
        let var = minimum_cost_path_variant(&mut b, &w, 4, VariantConfig::reference()).unwrap();
        assert_eq!(main.sow, var.sow);
        assert_eq!(main.ptn, var.ptn);
        assert_eq!(main.iterations, var.iterations);
    }

    #[test]
    fn linear_bus_variant_is_correct_but_costlier() {
        for seed in 0..6u64 {
            let w = gen::random_digraph(9, 0.3, 10, seed);
            let mut a = machine_for(&w);
            let circ =
                minimum_cost_path_variant(&mut a, &w, 2, VariantConfig::reference()).unwrap();
            let mut b = machine_for(&w);
            let lin = minimum_cost_path_variant(
                &mut b,
                &w,
                2,
                VariantConfig {
                    bus: BusModel::Linear,
                    min: MinModel::BitSerial,
                },
            )
            .unwrap();
            assert_eq!(circ.sow, lin.sow, "seed {seed}");
            assert_eq!(circ.ptn, lin.ptn, "seed {seed}");
            assert!(
                lin.stats.total.total() > circ.stats.total.total(),
                "linear buses must cost extra steps"
            );
        }
    }

    #[test]
    fn word_min_variant_is_correct_and_h_independent() {
        let w = gen::ring(8);
        let word = VariantConfig {
            bus: BusModel::Circular,
            min: MinModel::Word,
        };
        let mut p8 = Ppa::square(8).with_word_bits(8);
        let a = minimum_cost_path_variant(&mut p8, &w, 0, word).unwrap();
        let mut p32 = Ppa::square(8).with_word_bits(32);
        let b = minimum_cost_path_variant(&mut p32, &w, 0, word).unwrap();
        assert_eq!(a.sow, b.sow);
        assert_eq!(
            a.stats.total.total(),
            b.stats.total.total(),
            "word-combining steps must not depend on h"
        );
        // And both match the bit-serial answer.
        let mut r = Ppa::square(8).with_word_bits(8);
        let reference =
            minimum_cost_path_variant(&mut r, &w, 0, VariantConfig::reference()).unwrap();
        assert_eq!(a.sow, reference.sow);
        assert!(a.stats.total.total() < reference.stats.total.total());
    }

    #[test]
    fn linear_and_word_compose() {
        let w = gen::random_connected(8, 0.25, 9, 5);
        let mut ppa = machine_for(&w);
        let out = minimum_cost_path_variant(
            &mut ppa,
            &w,
            3,
            VariantConfig {
                bus: BusModel::Linear,
                min: MinModel::Word,
            },
        )
        .unwrap();
        assert!(ppa_graph::validate::is_valid_solution(
            &w, 3, &out.sow, &out.ptn
        ));
    }
}
