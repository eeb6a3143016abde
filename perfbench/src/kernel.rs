//! The kernel layers: the closed-loop workloads (`mcp-n64`, `batch-n32`)
//! and the per-layer ledger.
//!
//! The ledger runs a traced workload's own calls — solo solves on
//! `mcp-n64`, `LANES`-lane `BatchSession` waves on `batch-n32` — through
//! five variants, each on its own sessions and interleaved call by call
//! in rotating order, so host drift and cache warmth hit them alike:
//!
//! * bare packed `solve` — the reference wall (`core.solve_ns`);
//! * bare packed `solve_verified` — the host verification cost;
//! * [`TimedExec`] — executor time per method (`exec.*`);
//! * `enable_micro_profile` — the profiler's own cost;
//! * a [`StmtClock`] sink — time share per paper statement (`ppc.*`).
//!
//! Every traced output must equal the bare output bit for bit, steps
//! included.

use crate::check::{self, Checker, Steps, CLASSES};
use crate::Outcome;
use ppa_graph::{io, WeightMatrix};
use ppa_machine::{ExecStats, Executor, PackedBackend, StepReport};
use ppa_mcp::{BatchSession, McpOutput, McpSession};
use ppa_obs::OccupancySampling;
use ppa_perfbench::inputs::{self, Problem, Unit, Workload};
use ppa_perfbench::stats::{mean, median, quantile, Windowed};
use ppa_perfbench::stmt::{StmtClock, SLOTS, STATEMENTS};
use ppa_perfbench::timed::{timed_batch, timed_session, Ledger, TimedExec, METHODS};
use ppa_ppc::Ppa;
use ppa_serve::wire::{self, Request, SubmitRequest};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 25;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Records the latency summary of a run, in milliseconds. The median is
/// the mean over the run's one-second windows of each window's median.
/// The 90th percentile is noted with the provenance but is not an
/// end-to-end metric: on a shared 2-vCPU host its run-to-run spread is
/// several times any usable bound (see README.md).
pub fn put_latency(out: &mut Outcome, ms: &Windowed) {
    out.put("latency_ms_p50", ms.quantile(0.5), "ms");
    let all = ms.all();
    out.note("latency_samples", all.len());
    out.note("latency_ms_p90", quantile(&all, 0.9));
}

/// The sessions of a workload on backend `E`: one solo session per graph
/// (`mcp-n64`) or one `BatchSession` per lane group (`batch-n32`). A
/// [`Unit`] names the session that solves it.
pub enum Runner<E: Executor> {
    Solo(Vec<McpSession<E>>),
    Batch(Vec<BatchSession<E>>),
}

impl Runner<PackedBackend> {
    /// The workload's packed sessions over `pool`.
    ///
    /// # Errors
    /// A session's own contract checks.
    pub fn packed(w: Workload, pool: &[WeightMatrix]) -> Result<Self, String> {
        Runner::build(w, pool, McpSession::new_packed, BatchSession::new_packed)
    }
}

impl Runner<TimedExec> {
    fn timed(w: Workload, pool: &[WeightMatrix], ledger: &Ledger) -> Result<Self, String> {
        Runner::build(
            w,
            pool,
            |g| timed_session(g, ledger),
            |gs| timed_batch(gs, ledger),
        )
    }
}

impl<E: Executor> Runner<E> {
    fn build(
        w: Workload,
        pool: &[WeightMatrix],
        solo: impl Fn(&WeightMatrix) -> ppa_mcp::Result<McpSession<E>>,
        batch: impl Fn(&[WeightMatrix]) -> ppa_mcp::Result<BatchSession<E>>,
    ) -> Result<Self, String> {
        Ok(match w {
            Workload::Mcp64 => Runner::Solo(
                pool.iter()
                    .map(|g| solo(g).map_err(err))
                    .collect::<Result<_, _>>()?,
            ),
            Workload::Batch32 => Runner::Batch(
                pool.chunks(inputs::LANES)
                    .map(|g| batch(g).map_err(err))
                    .collect::<Result<_, _>>()?,
            ),
        })
    }

    /// Sessions: graphs, or lane groups.
    fn len(&self) -> usize {
        match self {
            Runner::Solo(s) => s.len(),
            Runner::Batch(b) => b.len(),
        }
    }

    /// Solves a unit, with host verification if `verified`: one output
    /// per problem (a whole-wave error is repeated for every lane).
    pub fn solve(&mut self, u: &Unit, verified: bool) -> Vec<ppa_mcp::Result<McpOutput>> {
        match self {
            Runner::Solo(s) => {
                let (s, d) = (&mut s[u.session], u.problems[0].dest);
                vec![if verified {
                    s.solve_verified(d)
                } else {
                    s.solve(d)
                }]
            }
            Runner::Batch(b) => {
                let b = &mut b[u.session];
                let dests: Vec<usize> = u.problems.iter().map(|p| p.dest).collect();
                let r = if verified {
                    b.solve_verified(&dests)
                } else {
                    b.solve(&dests)
                };
                match r {
                    Ok(lanes) => lanes,
                    Err(e) => u.problems.iter().map(|_| Err(e.clone())).collect(),
                }
            }
        }
    }

    /// The cumulative step report of the machine that solves `u`.
    pub fn steps(&self, u: &Unit) -> StepReport {
        match self {
            Runner::Solo(s) => s[u.session].ppa().steps(),
            Runner::Batch(b) => b[u.session].ppa().steps(),
        }
    }

    /// Applies `f` to every session's `Ppa`.
    fn for_each_ppa(&mut self, mut f: impl FnMut(&mut Ppa<E>)) {
        match self {
            Runner::Solo(s) => s.iter_mut().for_each(|s| f(s.ppa_mut())),
            Runner::Batch(b) => b.iter_mut().for_each(|b| f(b.ppa_mut())),
        }
    }

    /// Backend counters summed over every session.
    fn exec_stats(&self) -> ExecStats {
        let each: Vec<ExecStats> = match self {
            Runner::Solo(s) => s.iter().map(McpSession::exec_stats).collect(),
            Runner::Batch(b) => b.iter().map(BatchSession::exec_stats).collect(),
        };
        each.iter().fold(ExecStats::default(), |a, b| ExecStats {
            plan_hits: a.plan_hits + b.plan_hits,
            plan_misses: a.plan_misses + b.plan_misses,
            arena_fresh: a.arena_fresh + b.arena_fresh,
            arena_reused: a.arena_reused + b.arena_reused,
        })
    }

    /// Solves every unit once with host verification and returns the
    /// per-class machine steps issued: a solo solve's steps, or a wave's,
    /// which its lanes share.
    ///
    /// # Errors
    /// A solver failure.
    pub fn sweep(&mut self, units: &[Unit]) -> Result<Steps, String> {
        let mut sum = [0u64; 5];
        for u in units {
            let before = self.steps(u);
            for r in self.solve(u, true) {
                r.map_err(err)?;
            }
            check::add(&mut sum, &check::steps_of(&self.steps(u).since(&before)));
        }
        Ok(sum)
    }
}

/// A closed-loop workload, untraced: one thread solves the seeded sweep
/// of units (`inputs::units`) over and over, timing each call.
///
/// # Errors
/// A solver failure outside the measured loop.
pub fn run_closed(w: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let n = w.n();
    let pool = inputs::graph_pool(n, seed);
    let units = inputs::units(w, seed);
    let mut out = Outcome::default();
    check::check_anchor(w, &mut out)?;

    // Set-up: build every session and finish a first call, the k-th unit
    // of the sweep for set-up k, so the median does not hang on one
    // problem. The first set-up runs cold, the rest in a warm process;
    // the previous sessions are dropped before each rebuild, so the peak
    // resident set holds one set of sessions.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut runner = None;
    for k in 0..SETUP_REPS {
        drop(runner.take());
        let t = Instant::now();
        let mut r = Runner::packed(w, &pool)?;
        black_box(r.solve(&units[k % units.len()], true));
        setups.push(t.elapsed().as_secs_f64());
        runner = Some(r);
    }
    let mut runner = runner.expect("SETUP_REPS is positive");
    // One full sweep warms every session's plan cache and arena, and
    // counts the machine steps of the workload's own calls.
    let steps = runner.sweep(&units)?;
    check::check_pool(w, seed, &steps, &mut out);

    // The measured loop keeps each problem's first output and compares
    // repeats with it; first outputs are validated after the loop.
    let mut lat_ms = Windowed::new(seconds);
    let (mut calls, mut solves) = (0usize, 0u64);
    let mut first: Vec<Option<McpOutput>> = vec![None; pool.len() * n];
    let mut repeats = vec![0u64; pool.len() * n];
    let (mut errors, mut differing) = (0u64, 0u64);
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    while Instant::now() < stop {
        let u = &units[calls % units.len()];
        calls += 1;
        let t = Instant::now();
        let outs = runner.solve(black_box(u), true);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        lat_ms.push(start.elapsed().as_secs_f64(), ms);
        for (p, r) in u.problems.iter().zip(outs) {
            solves += 1;
            match (r, &mut first[p.index(n)]) {
                (Err(_), _) => errors += 1,
                (Ok(o), slot @ None) => *slot = Some(o),
                (Ok(o), Some(f)) if *f == o => repeats[p.index(n)] += 1,
                (Ok(_), Some(_)) => differing += 1,
            }
        }
    }

    let mut checker = Checker::new(&pool, n);
    let mut good = 0u64;
    for (idx, o) in first.iter().enumerate() {
        if let Some(o) = o {
            let p = Problem {
                graph: idx / n,
                dest: idx % n,
            };
            if checker.check(p, o.dest, &o.sow, &o.ptn) {
                good += 1 + repeats[idx];
            }
        }
    }
    checker.report(&mut out);
    if differing > 0 {
        out.problems.push(format!(
            "{differing} repeat solve(s) differ from the first solve of the same problem (steps or output)"
        ));
    }
    out.note("solver_errors", errors);
    out.note("setup_cold_s", setups[0]);

    out.attempted = solves;
    out.failed = solves - good;
    let success = good as f64 / solves.max(1) as f64;
    let per_call = units[0].problems.len() as f64;
    out.put("setup_s", median(&setups), "s");
    out.put(
        "throughput_per_s",
        lat_ms.rate() * per_call * success,
        "1/s",
    );
    put_latency(&mut out, &lat_ms);
    out.put("success_rate", success, "ratio");
    put_steps_per_solve(&mut out, &steps, pool.len() * n);
    out.put("peak_rss_mib", peak_rss_mib(), "MiB");
    Ok(out)
}

/// Records `steps_per_solve`: the machine steps of a sweep divided by
/// the destinations it solved.
pub fn put_steps_per_solve(out: &mut Outcome, sum: &Steps, problems: usize) {
    let total: u64 = sum.iter().sum();
    out.put("steps_per_solve", total as f64 / problems as f64, "steps");
}

/// `mcp-n64`, traced: the ledger over the whole budget.
///
/// # Errors
/// A solver failure outside the measured loop.
pub fn trace_mcp(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    check::check_anchor(Workload::Mcp64, &mut out)?;
    ledger(Workload::Mcp64, seed, seconds, &mut out)?;
    Ok(out)
}

/// The solve variants of the ledger.
const VARIANTS: usize = 5;
const BARE: usize = 0;
const VERIFIED: usize = 1;
const TIMED: usize = 2;
const MICRO: usize = 3;
const SINK: usize = 4;

/// The ledger's copies of a workload's sessions, one per variant.
struct Variants {
    bare: Runner<PackedBackend>,
    verified: Runner<PackedBackend>,
    timed: Runner<TimedExec>,
    micro: Runner<PackedBackend>,
    sink: Runner<PackedBackend>,
}

impl Variants {
    fn build(
        w: Workload,
        pool: &[WeightMatrix],
        ledger: &Ledger,
        clock: &StmtClock,
    ) -> Result<Variants, String> {
        let mut micro = Runner::packed(w, pool)?;
        micro.for_each_ppa(|p| p.enable_micro_profile());
        let mut sink = Runner::packed(w, pool)?;
        sink.for_each_ppa(|p| {
            // Activity statistics are not part of the attribution and
            // would triple the traced wall; step counts are unaffected.
            p.set_occupancy_sampling(OccupancySampling::Off);
            p.install_sink(clock.clone());
        });
        Ok(Variants {
            bare: Runner::packed(w, pool)?,
            verified: Runner::packed(w, pool)?,
            timed: Runner::timed(w, pool, ledger)?,
            micro,
            sink,
        })
    }

    fn solve(&mut self, variant: usize, u: &Unit) -> Vec<ppa_mcp::Result<McpOutput>> {
        match variant {
            BARE => self.bare.solve(u, false),
            VERIFIED => self.verified.solve(u, true),
            TIMED => self.timed.solve(u, false),
            MICRO => self.micro.solve(u, false),
            _ => self.sink.solve(u, false),
        }
    }
}

/// The per-layer ledger of a workload (see module docs), over the
/// workload's own units — solo solves on `mcp-n64`, `LANES`-lane waves on
/// `batch-n32` — so every figure describes the calls its end-to-end run
/// times. Records `exec.*`, `machine.steps.*`, `ppc.*`, `core.*`, the
/// tracing overheads, and the input-side `graph.parse_us` /
/// `net.request_bytes`.
///
/// # Errors
/// A solver failure outside the measured loop, or of the bare variant.
pub fn ledger(w: Workload, seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let n = w.n();
    let pool = inputs::graph_pool(n, seed);
    let units = inputs::units(w, seed);
    let mut checker = Checker::new(&pool, n);

    // core.setup_ns: building one of the workload's sessions.
    let mut setup_ns = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let r = black_box(Runner::packed(w, &pool)?);
        setup_ns.push(t.elapsed().as_nanos() as f64 / r.len() as f64);
    }

    let ledger = Ledger::new();
    let clock = StmtClock::new();
    let mut s = Variants::build(w, &pool, &ledger, &clock)?;
    // Warm every session of every variant with its first four units.
    for session in 0..s.bare.len() {
        for u in units.iter().filter(|u| u.session == session).take(4) {
            for v in 0..VARIANTS {
                for r in s.solve(v, u) {
                    black_box(r.map_err(err)?);
                }
            }
        }
    }
    ledger.reset();
    clock.reset();
    let stats0 = s.timed.exec_stats();

    let mut ns = [0f64; VARIANTS];
    let mut bare_ms = Vec::new();
    let (mut calls, mut solves) = (0usize, 0usize);
    let mut steps = [0u64; 5];
    let mut iterations = 0usize;
    let (mut diverged, mut wrong) = (0u64, 0u64);
    let budget = Duration::from_secs_f64(seconds * 0.9);
    let start = Instant::now();
    while start.elapsed() < budget {
        let u = &units[calls % units.len()];
        let before = s.bare.steps(u);
        let mut outs: [Vec<ppa_mcp::Result<McpOutput>>; VARIANTS] = Default::default();
        for k in 0..VARIANTS {
            let v = (k + calls) % VARIANTS;
            let t = Instant::now();
            outs[v] = s.solve(v, u);
            let took = t.elapsed().as_nanos() as f64;
            ns[v] += took;
            if v == BARE {
                bare_ms.push(took / 1e6);
            }
        }
        calls += 1;
        check::add(
            &mut steps,
            &check::steps_of(&s.bare.steps(u).since(&before)),
        );
        let [bare, traced @ ..] = outs;
        for (lane, (p, r)) in u.problems.iter().zip(bare).enumerate() {
            solves += 1;
            let o = r.map_err(err)?;
            wrong += u64::from(!checker.check(*p, o.dest, &o.sow, &o.ptn));
            iterations += o.iterations;
            diverged += traced
                .iter()
                .filter(|t| !matches!(t.get(lane), Some(Ok(x)) if *x == o))
                .count() as u64;
        }
    }
    if diverged > 0 {
        out.problems.push(format!(
            "{diverged} traced solve(s) differ from the bare packed solve"
        ));
    }
    out.attempted += (solves * VARIANTS) as u64;
    out.failed += diverged + wrong;

    // Everything below is per call: one solve, or one wave.
    let per = |x: f64| x / calls.max(1) as f64;
    let solve_ns = per(ns[BARE]);
    let timed_ns = per(ns[TIMED]);
    let tallies = ledger.snapshot();
    for (name, t) in METHODS.iter().zip(&tallies) {
        out.put(&format!("exec.{name}.calls"), per(t.calls as f64), "count");
        out.put(&format!("exec.{name}.ns"), per(t.ns as f64), "ns");
    }
    let exec_ns = per(ledger.total_ns() as f64);
    out.put("exec.share", exec_ns / timed_ns, "ratio");
    let d = s.timed.exec_stats().since(&stats0);
    out.put("exec.plan_hit_rate", d.plan_hit_rate(), "ratio");
    let allocs = (d.arena_reused + d.arena_fresh).max(1) as f64;
    out.put(
        "exec.arena_reuse_rate",
        d.arena_reused as f64 / allocs,
        "ratio",
    );

    for ((_, name), count) in CLASSES.iter().zip(&steps) {
        out.put(
            &format!("machine.steps.{name}"),
            per(*count as f64),
            "steps",
        );
    }
    out.put(
        "machine.steps.total",
        per(steps.iter().sum::<u64>() as f64),
        "steps",
    );

    let tally = clock.tally();
    let sink_ns = ns[SINK].max(1.0);
    let names = STATEMENTS.iter().map(|(_, m)| *m).chain(["other"]);
    for (slot, name) in names.enumerate().take(SLOTS) {
        out.put(
            &format!("ppc.{name}.share"),
            tally.ns[slot] as f64 / sink_ns,
            "ratio",
        );
        out.put(
            &format!("ppc.{name}.events"),
            per(tally.events[slot] as f64),
            "count",
        );
    }

    out.put("core.setup_ns", mean(&setup_ns), "ns");
    out.put("core.solve_ns", solve_ns, "ns");
    out.metrics
        .entry("e2e.latency_ms_p90".to_owned())
        .or_insert((quantile(&bare_ms, 0.9), "ms"));
    out.put("core.verify_ns", per(ns[VERIFIED]) - solve_ns, "ns");
    out.put("core.residual_ns", timed_ns - exec_ns, "ns");
    out.put(
        "core.iterations_per_solve",
        iterations as f64 / solves.max(1) as f64,
        "count",
    );
    if w == Workload::Batch32 {
        out.put("core.batch.wave_ns", median(&bare_ms) * 1e6, "ns");
        out.put(
            "core.batch.lanes_per_wave",
            solves as f64 / calls.max(1) as f64,
            "count",
        );
    }
    let overhead = |v: usize| (per(ns[v]) / solve_ns - 1.0) * 100.0;
    out.put("trace.exec_overhead_pct", overhead(TIMED), "%");
    out.put("trace.stmt_overhead_pct", overhead(SINK), "%");
    out.put("obs.micro_profile_overhead_pct", overhead(MICRO), "%");
    // Executor plus residual time is the timed solve; the ledger closes
    // when that matches the bare solve wall, and the gap is the wrapper's
    // own cost. Informational: host noise alone can open it.
    let closure = timed_ns / solve_ns;
    out.note("ledger_calls", calls);
    out.note("ledger_closure", closure);
    if (closure - 1.0).abs() > 0.05 {
        eprintln!(
            "perfbench: warning: exec.share + residual share = {closure:.3} of the bare solve wall"
        );
    }
    checker.report(out);
    input_side(&pool, out)
}

/// The request-side costs of the pool's graphs: edge-list parsing and
/// the size of a `submit` frame carrying one.
fn input_side(pool: &[WeightMatrix], out: &mut Outcome) -> Result<(), String> {
    let texts: Vec<String> = pool.iter().map(io::to_edge_list).collect();
    let mut parse_us = Vec::new();
    for _ in 0..20 {
        for (text, g) in texts.iter().zip(pool) {
            let t = Instant::now();
            let parsed = io::parse_edge_list(black_box(text)).map_err(err)?;
            parse_us.push(t.elapsed().as_secs_f64() * 1e6);
            if &parsed != g {
                return Err("parse_edge_list did not round-trip a pool graph".to_owned());
            }
        }
    }
    out.put("graph.parse_us", mean(&parse_us), "us");
    let mut bytes = Vec::new();
    for text in &texts {
        let mut frame = Vec::new();
        wire::write_frame(&mut frame, &submit_request(text.clone(), 0).to_json()).map_err(err)?;
        bytes.push(frame.len() as f64);
    }
    out.put("net.request_bytes", mean(&bytes), "bytes");
    Ok(())
}

/// The `submit` request the net probe sends: a shortest-path job over
/// edge-list text, answered on the same connection.
pub fn submit_request(graph: String, dest: usize) -> Request {
    Request::Submit(SubmitRequest {
        graph,
        kind: "shortest".to_owned(),
        dest,
        checkpoint_every: 1,
        resume_from: None,
        deadline_ms: None,
        step_budget: None,
        transient_faults: None,
        wait: true,
    })
}

/// Every per-layer metric name and unit, in `BENCHMARK.json` order.
pub fn layer_metrics() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for m in METHODS {
        v.push((format!("exec.{m}.calls"), "count"));
        v.push((format!("exec.{m}.ns"), "ns"));
    }
    for m in ["exec.share", "exec.plan_hit_rate", "exec.arena_reuse_rate"] {
        v.push((m.to_owned(), "ratio"));
    }
    for (_, c) in CLASSES {
        v.push((format!("machine.steps.{c}"), "steps"));
    }
    v.push(("machine.steps.total".to_owned(), "steps"));
    for s in STATEMENTS.iter().map(|(_, m)| *m).chain(["other"]) {
        v.push((format!("ppc.{s}.share"), "ratio"));
        v.push((format!("ppc.{s}.events"), "count"));
    }
    let fixed: [(&str, &'static str); 34] = [
        ("core.setup_ns", "ns"),
        ("core.solve_ns", "ns"),
        ("core.verify_ns", "ns"),
        ("core.residual_ns", "ns"),
        ("core.iterations_per_solve", "count"),
        ("core.batch.wave_ns", "ns"),
        ("core.batch.lanes_per_wave", "count"),
        ("serve.submit_us_p50", "us"),
        ("serve.job_latency_ms_p50", "ms"),
        ("serve.overhead_ms_p50", "ms"),
        ("serve.queue_depth_mean", "count"),
        ("serve.batch_pending_mean", "count"),
        ("serve.batch.occupancy_mean", "count"),
        ("serve.batch.flushed", "count"),
        ("serve.retries", "count"),
        ("serve.rejected", "count"),
        ("serve.failed", "count"),
        ("net.rtt_ms_p50", "ms"),
        ("net.server_latency_ms_p50", "ms"),
        ("net.overhead_ms_p50", "ms"),
        ("net.status_ms_p50", "ms"),
        ("net.request_bytes", "bytes"),
        ("graph.parse_us", "us"),
        ("net.requests", "count"),
        ("net.malformed", "count"),
        ("loadgen.late_ms_p90", "ms"),
        ("e2e.latency_ms_p90", "ms"),
        ("trace.exec_overhead_pct", "%"),
        ("trace.stmt_overhead_pct", "%"),
        ("obs.micro_profile_overhead_pct", "%"),
        ("exec.total_ns", "ns"),
        ("serve.jobs", "count"),
        ("net.status_reads", "count"),
        ("ppc.total_events", "count"),
    ];
    v.extend(fixed.iter().map(|(m, u)| ((*m).to_owned(), *u)));
    v
}

/// Completes a traced run's metrics: derived totals, and 0 for every
/// layer the workload does not exercise (serve and net on `mcp-n64`).
pub fn fill_layer_defaults(out: &mut Outcome) {
    let get = |out: &Outcome, k: &str| out.metrics.get(k).map_or(0.0, |v| v.0);
    let exec_total: f64 = METHODS
        .iter()
        .map(|m| get(out, &format!("exec.{m}.ns")))
        .sum();
    out.put("exec.total_ns", exec_total, "ns");
    let events: f64 = STATEMENTS
        .iter()
        .map(|(_, m)| *m)
        .chain(["other"])
        .map(|m| get(out, &format!("ppc.{m}.events")))
        .sum();
    out.put("ppc.total_events", events, "count");
    for (name, unit) in layer_metrics() {
        out.metrics.entry(name).or_insert((0.0, unit));
    }
}
