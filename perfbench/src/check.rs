//! Correctness: result validation and the recorded step counts.
//!
//! Every result is validated outside its timed interval with
//! `ppa_graph::validate::validate_solution` (costs against Bellman–Ford,
//! every pointer a valid successor on a path of that cost); repeats of a
//! problem must reproduce the validated answer exactly. Step counts are
//! the paper's evidence and may never move: each run re-solves a fixed
//! anchor graph and compares its per-class steps with `expected.json`,
//! and runs on the default or held-out seed also compare the machine
//! steps of a whole sweep of the workload's own calls.

use crate::kernel::Runner;
use crate::Outcome;
use ppa_graph::validate::validate_solution;
use ppa_graph::{Weight, WeightMatrix};
use ppa_machine::{Op, StepReport};
use ppa_mcp::{batch, BatchSession, McpSession};
use ppa_obs::Json;
use ppa_perfbench::inputs::{self, Problem, Workload};

/// Step classes in report order, with their metric-name fragment.
pub const CLASSES: [(Op, &str); 5] = [
    (Op::Alu, "alu"),
    (Op::Shift, "shift"),
    (Op::Broadcast, "broadcast"),
    (Op::BusOr, "bus_or"),
    (Op::GlobalOr, "global_or"),
];

/// Per-class step counts, indexed like [`CLASSES`].
pub type Steps = [u64; 5];

/// The per-class counts of a step report.
pub fn steps_of(r: &StepReport) -> Steps {
    CLASSES.map(|(op, _)| r.count(op))
}

/// Adds `b` into `a`, class by class.
pub fn add(a: &mut Steps, b: &Steps) {
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

const EXPECTED: &str = include_str!("../expected.json");

fn expected() -> Json {
    Json::parse(EXPECTED).expect("expected.json is compiled in and must parse")
}

fn seed_field(key: &str) -> u64 {
    expected()
        .get(key)
        .and_then(Json::as_u64)
        .expect("expected.json names its seeds")
}

/// The seed a run uses when `--seed` is not given.
pub fn default_seed() -> u64 {
    seed_field("default_seed")
}

fn steps_json(s: &Steps) -> Json {
    Json::Array(s.iter().map(|&x| x.into()).collect())
}

fn steps_from_json(v: Option<&Json>) -> Option<Steps> {
    let a = v?.as_array()?;
    if a.len() != 5 {
        return None;
    }
    let mut s = [0u64; 5];
    for (slot, x) in s.iter_mut().zip(a) {
        *slot = x.as_u64()?;
    }
    Some(s)
}

/// Validates results against the graph pool and remembers each
/// problem's validated answer.
pub struct Checker<'a> {
    pool: &'a [WeightMatrix],
    n: usize,
    seen: Vec<Option<(Vec<Weight>, Vec<usize>)>>,
    wrong: u64,
    first_wrong: Option<String>,
}

impl<'a> Checker<'a> {
    /// A checker for `pool` (all graphs of `n` vertices).
    pub fn new(pool: &'a [WeightMatrix], n: usize) -> Checker<'a> {
        Checker {
            pool,
            n,
            seen: vec![None; pool.len() * n],
            wrong: 0,
            first_wrong: None,
        }
    }

    /// Whether `(dest, sow, ptn)` is a correct answer to `p`.
    pub fn check(&mut self, p: Problem, dest: usize, sow: &[Weight], ptn: &[usize]) -> bool {
        let ok = dest == p.dest && sow.len() == self.n && ptn.len() == self.n && {
            match &self.seen[p.index(self.n)] {
                Some((s, t)) => s.as_slice() == sow && t.as_slice() == ptn,
                None => {
                    let valid = validate_solution(&self.pool[p.graph], p.dest, sow, ptn).is_empty();
                    if valid {
                        self.seen[p.index(self.n)] = Some((sow.to_vec(), ptn.to_vec()));
                    }
                    valid
                }
            }
        };
        if !ok {
            self.wrong += 1;
            self.first_wrong
                .get_or_insert_with(|| format!("graph {} dest {}: wrong result", p.graph, p.dest));
        }
        ok
    }

    /// Records wrong results, if any, as a correctness problem of `out`.
    pub fn report(&self, out: &mut Outcome) {
        if let Some(w) = &self.first_wrong {
            out.problems
                .push(format!("{} wrong result(s); first: {w}", self.wrong));
        }
    }
}

/// Per-class steps of solo packed solves of every destination of `w`.
fn solo_sweep(w: &WeightMatrix) -> Result<Steps, String> {
    let mut s = McpSession::new_packed(w).map_err(|e| e.to_string())?;
    let mut sum = [0u64; 5];
    for d in 0..w.n() {
        let out = s.solve(d).map_err(|e| e.to_string())?;
        add(&mut sum, &steps_of(&out.stats.total));
    }
    Ok(sum)
}

/// Machine steps of one `LANES`-lane wave over copies of `w`.
fn wave_steps(w: &WeightMatrix) -> Result<Steps, String> {
    let mut b =
        BatchSession::new_packed(&batch::replicate(w, inputs::LANES)).map_err(|e| e.to_string())?;
    let dests: Vec<usize> = (0..inputs::LANES).collect();
    let before = b.ppa().steps();
    for lane in b.solve(&dests).map_err(|e| e.to_string())? {
        lane.map_err(|e| e.to_string())?;
    }
    Ok(steps_of(&b.ppa().steps().since(&before)))
}

/// The anchor measurements of a workload: a solo sweep of the fixed
/// anchor graph, plus one lane wave for the batched workload.
fn anchor(w: Workload) -> Result<Vec<(&'static str, Steps)>, String> {
    let g = inputs::anchor_graph(w.n());
    let mut v = vec![("solo", solo_sweep(&g)?)];
    if w == Workload::Batch32 {
        v.push(("wave", wave_steps(&g)?));
    }
    Ok(v)
}

/// Re-measures the anchor and records any drift from `expected.json`.
///
/// # Errors
/// A solver failure on the anchor graph.
pub fn check_anchor(w: Workload, out: &mut Outcome) -> Result<(), String> {
    let exp = expected();
    for (name, got) in anchor(w)? {
        let want = steps_from_json(exp.get("anchor").and_then(|a| a.get(w.name())?.get(name)));
        if want != Some(got) {
            out.problems.push(format!(
                "step drift on the {} {name} anchor: expected {want:?}, measured {got:?}",
                w.name()
            ));
        }
    }
    Ok(())
}

/// Per-class machine steps of one sweep of a workload's units on packed
/// sessions (see [`Runner::sweep`]).
///
/// # Errors
/// A solver failure.
pub fn pool_steps(w: Workload, seed: u64) -> Result<Steps, String> {
    let pool = inputs::graph_pool(w.n(), seed);
    Runner::packed(w, &pool)?.sweep(&inputs::units(w, seed))
}

/// Compares a pool's step sum with `expected.json`, when the seed has a
/// recorded entry (the default and held-out seeds do).
pub fn check_pool(w: Workload, seed: u64, got: &Steps, out: &mut Outcome) {
    let exp = expected();
    let Some(rec) = exp.get("pool").and_then(|p| p.get(&seed.to_string())) else {
        out.note("pool_steps_recorded", false);
        return;
    };
    out.note("pool_steps_recorded", true);
    let want = steps_from_json(rec.get(w.name()));
    if want != Some(*got) {
        out.problems.push(format!(
            "step drift on the {} pool for seed {seed}: expected {want:?}, measured {got:?}",
            w.name()
        ));
    }
}

/// Prints a fresh `expected.json` measured from the current code.
///
/// # Errors
/// A solver failure.
pub fn print_expected() -> Result<(), String> {
    let exp = expected();
    let seeds = [default_seed(), seed_field("held_out_seed")];
    let mut anchors = Vec::new();
    for w in Workload::ALL {
        let entries = anchor(w)?
            .into_iter()
            .map(|(k, s)| (k.to_owned(), steps_json(&s)))
            .collect();
        anchors.push((w.name().to_owned(), Json::Object(entries)));
    }
    let mut pools = Vec::new();
    for seed in seeds {
        let mut per = Vec::new();
        for w in Workload::ALL {
            per.push((w.name().to_owned(), steps_json(&pool_steps(w, seed)?)));
        }
        pools.push((seed.to_string(), Json::Object(per)));
    }
    let doc = Json::Object(vec![
        (
            "comment".to_owned(),
            exp.get("comment").cloned().unwrap_or(Json::Null),
        ),
        ("default_seed".to_owned(), seeds[0].into()),
        ("held_out_seed".to_owned(), seeds[1].into()),
        ("anchor".to_owned(), Json::Object(anchors)),
        ("pool".to_owned(), Json::Object(pools)),
    ]);
    println!("{}", doc.to_string_pretty());
    Ok(())
}
