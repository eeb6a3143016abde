//! Maximum-capacity (widest / bottleneck) paths on the PPA.
//!
//! The paper's dynamic program is generic over the cost semiring: swap
//! `(min, +)` for `(max, min)` and the same machine program computes, for
//! every vertex, the path to `d` whose *narrowest edge is widest* — the
//! classic bottleneck-routing problem (bandwidth reservation, load
//! limits). The mapping onto the PPA is untouched: column broadcast,
//! per-PE combine, bit-serial row *maximum*, diagonal fold. Cost is the
//! same `O(p * h)`.
//!
//! Conventions (duals of the shortest-path ones):
//! * an absent edge has capacity **0** (untraversable) — no `MAXINT`
//!   sentinel is needed;
//! * the diagonal is loaded as `MAXINT` ("unlimited"), so the `j = i`
//!   candidate `min(w_ii, CAP_id)` preserves the old value — the same
//!   trick that makes statement 16's overwrite correct for shortest
//!   paths;
//! * `CAP_dd = MAXINT` (a vertex reaches itself at unlimited capacity).

use crate::error::McpError;
use crate::stats::McpStats;
use crate::Result;
use ppa_graph::{Weight, WeightMatrix};
use ppa_machine::Executor;
use ppa_machine::{Direction, StepReport};
use ppa_ppc::{Parallel, Ppa};

/// Result of a widest-path run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WidestOutput {
    /// Destination vertex.
    pub dest: usize,
    /// `cap[i]` — the best achievable bottleneck capacity from `i` to
    /// `d`; `0` means unreachable. `cap[d]` is the machine's `MAXINT`
    /// ("unlimited").
    pub cap: Vec<Weight>,
    /// `ptn[i]` — successor of `i` on one widest path (`ptn[i] == i`
    /// marks "no path"; `ptn[d] == d`).
    pub ptn: Vec<usize>,
    /// Do-while iterations executed.
    pub iterations: usize,
    /// Step accounting.
    pub stats: McpStats,
}

/// The sequential oracle: widest path to `d` by iterated relaxation over
/// the `(max, min)` semiring.
pub fn widest_path_oracle(w: &WeightMatrix, d: usize) -> Vec<Weight> {
    let n = w.n();
    assert!(d < n);
    let cap_edge = |i: usize, j: usize| {
        let e = w.get(i, j);
        if e == ppa_graph::INF {
            0
        } else {
            e
        }
    };
    let mut cap: Vec<Weight> = (0..n).map(|i| cap_edge(i, d)).collect();
    cap[d] = Weight::MAX;
    loop {
        let mut changed = false;
        let snapshot = cap.clone();
        for i in 0..n {
            if i == d {
                continue;
            }
            for j in 0..n {
                let cand = cap_edge(i, j).min(snapshot[j]);
                if cand > cap[i] {
                    cap[i] = cand;
                    changed = true;
                }
            }
        }
        if !changed {
            return cap;
        }
    }
}

/// Runs the widest-path dynamic program on the PPA.
///
/// Requirements: square `n x n` machine; all finite capacities must fit
/// strictly below the machine's `MAXINT` (which plays "unlimited").
pub fn widest_path<E: Executor>(
    ppa: &mut Ppa<E>,
    w: &WeightMatrix,
    d: usize,
) -> Result<WidestOutput> {
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
    let maxint = ppa.maxint();
    let max_cap = w.max_finite_weight().unwrap_or(0);
    if max_cap >= maxint || (n as i64 - 1) >= maxint {
        return Err(McpError::WordBitsTooSmall {
            required: (64 - (max_cap.max(n as i64 - 1) as u64 + 1).leading_zeros()).max(2),
            actual: ppa.word_bits(),
        });
    }

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

    // Capacity plane: absent edge -> 0, diagonal -> MAXINT ("unlimited").
    let cap_plane: Parallel<i64> = Parallel::from_fn(dim, |c| {
        if c.row == c.col {
            maxint
        } else {
            let e = w.get(c.row, c.col);
            if e == ppa_graph::INF {
                0
            } else {
                e
            }
        }
    });

    // Init: CAP[d][i] = capacity of edge i -> d (column-d fold, as in MCP);
    // the diagonal MAXINT lands on CAP[d][d] automatically.
    let in_caps = ppa.broadcast(&cap_plane, Direction::East, &col_is_d)?;
    let in_caps_t = ppa.broadcast(&in_caps, Direction::South, &diag)?;
    let mut cap = ppa.constant(0i64);
    let mut max_cap_row = ppa.constant(0i64);
    let mut ptn = ppa.constant(0i64);
    let mut old_cap = ppa.constant(0i64);
    ppa.where_(&row_is_d, |p| -> ppa_ppc::Result<()> {
        p.assign(&mut cap, &in_caps_t)?;
        p.assign(&mut ptn, &d_imm)?;
        p.assign(&mut max_cap_row, &in_caps_t)?;
        Ok(())
    })??;
    let init_report = ppa.steps().since(&start);

    let mut per_iteration: Vec<StepReport> = Vec::new();
    let mut iterations = 0usize;
    loop {
        let iter_start = ppa.steps();
        iterations += 1;

        // Candidate at PE (i,j): min(capacity(i->j), CAP_jd).
        let bcap = ppa.broadcast(&cap, Direction::South, &row_is_d)?;
        let cand = ppa.min2(&bcap, &cap_plane)?;
        ppa.where_(&row_ne_d, |p| p.assign(&mut cap, &cand))??;

        // Row-wise maximum (bit-serial, O(h)).
        let rowmax = ppa.max(&cap, Direction::West, &last_col)?;
        ppa.where_(&row_ne_d, |p| p.assign(&mut max_cap_row, &rowmax))??;

        // Pointer: smallest column achieving the maximum (row-d repair
        // as in MCP).
        let is_arg = ppa.eq(&max_cap_row, &cap)?;
        let sel = ppa.or(&is_arg, &row_is_d)?;
        let arg_col = ppa.selected_min(&col, Direction::West, &last_col, &sel)?;
        ppa.where_(&row_ne_d, |p| p.assign(&mut ptn, &arg_col))??;

        // Fold the diagonal into row d.
        let bc_max = ppa.broadcast(&max_cap_row, Direction::South, &diag)?;
        let bc_ptn = ppa.broadcast(&ptn, Direction::South, &diag)?;
        let changed = ppa.where_(&row_is_d, |p| -> ppa_ppc::Result<Parallel<bool>> {
            p.assign(&mut old_cap, &cap)?;
            p.assign(&mut cap, &bc_max)?;
            let changed = p.ne(&cap, &old_cap)?;
            p.where_(&changed, |q| q.assign(&mut ptn, &bc_ptn))??;
            Ok(changed)
        })??;

        per_iteration.push(ppa.steps().since(&iter_start));
        let changed_row_d = ppa.and(&changed, &row_is_d)?;
        if !ppa.any(&changed_row_d)? {
            break;
        }
        if iterations > n {
            return Err(McpError::NoConvergence { rounds: iterations });
        }
    }

    let mut out_cap = Vec::with_capacity(n);
    let mut out_ptn = Vec::with_capacity(n);
    for i in 0..n {
        let c = *cap.at(d, i);
        if i == d {
            out_cap.push(maxint);
            out_ptn.push(d);
        } else if c <= 0 {
            out_cap.push(0);
            out_ptn.push(i);
        } else {
            out_cap.push(c);
            out_ptn.push(*ptn.at(d, i) as usize);
        }
    }
    let total = ppa.steps().since(&start);
    Ok(WidestOutput {
        dest: d,
        cap: out_cap,
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
    use ppa_graph::gen;

    fn machine_for(w: &WeightMatrix) -> Ppa {
        Ppa::square(w.n()).with_word_bits(w.required_word_bits().clamp(4, 62))
    }

    #[test]
    fn widest_on_tiny_graph() {
        // Two routes 0 -> 2: direct capacity 3, or via 1 with bottleneck
        // min(9, 7) = 7 — the detour wins.
        let w = WeightMatrix::from_edges(3, &[(0, 2, 3), (0, 1, 9), (1, 2, 7)]);
        let mut ppa = machine_for(&w);
        let out = widest_path(&mut ppa, &w, 2).unwrap();
        assert_eq!(out.cap[0], 7);
        assert_eq!(out.ptn[0], 1);
        assert_eq!(out.cap[1], 7);
    }

    #[test]
    fn matches_oracle_on_random_graphs() {
        for seed in 0..12u64 {
            let w = gen::random_digraph(10, 0.3, 20, seed);
            let d = seed as usize % 10;
            let mut ppa = machine_for(&w);
            let out = widest_path(&mut ppa, &w, d).unwrap();
            let oracle = widest_path_oracle(&w, d);
            for i in 0..10 {
                if i == d {
                    continue;
                }
                assert_eq!(out.cap[i], oracle[i], "seed {seed} vertex {i}");
            }
        }
    }

    #[test]
    fn unreachable_has_capacity_zero() {
        let w = WeightMatrix::from_edges(4, &[(0, 1, 5)]);
        let mut ppa = machine_for(&w);
        let out = widest_path(&mut ppa, &w, 1).unwrap();
        assert_eq!(out.cap[0], 5);
        assert_eq!(out.cap[2], 0);
        assert_eq!(out.ptn[2], 2);
    }

    #[test]
    fn pointers_trace_a_path_achieving_the_bottleneck() {
        let w = gen::random_connected(9, 0.25, 15, 4);
        let mut ppa = machine_for(&w);
        let out = widest_path(&mut ppa, &w, 3).unwrap();
        for i in 0..9 {
            if i == 3 || out.cap[i] == 0 {
                continue;
            }
            // Walk pointers; the min edge capacity along the walk must
            // equal the claimed bottleneck.
            let mut cur = i;
            let mut bottleneck = i64::MAX;
            let mut hops = 0;
            while cur != 3 {
                let nxt = out.ptn[cur];
                assert!(w.has_edge(cur, nxt), "edge {cur}->{nxt} missing (from {i})");
                bottleneck = bottleneck.min(w.get(cur, nxt));
                cur = nxt;
                hops += 1;
                assert!(hops <= 9, "cycle from {i}");
            }
            assert_eq!(bottleneck, out.cap[i], "from {i}");
        }
    }

    #[test]
    fn same_step_complexity_class_as_mcp() {
        let w = gen::ring(8);
        let mut a = machine_for(&w);
        let widest = widest_path(&mut a, &w, 0).unwrap();
        let mut b = machine_for(&w);
        let mcp = crate::mcp::minimum_cost_path(&mut b, &w, 0).unwrap();
        let ratio = widest.stats.steps_per_iteration() / mcp.stats.steps_per_iteration();
        assert!((0.8..1.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn capacity_overflow_guard() {
        let w = WeightMatrix::from_edges(2, &[(0, 1, 300)]);
        let mut ppa = Ppa::square(2).with_word_bits(8); // MAXINT = 255
        assert!(matches!(
            widest_path(&mut ppa, &w, 1),
            Err(McpError::WordBitsTooSmall { .. })
        ));
    }
}
