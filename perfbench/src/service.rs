//! The service layers, measured in the traced run of `batch-n32`: the
//! serve probe (an open loop into an in-process `SolveService` with
//! batching) and the net probe (two paced `NetClient` connections against
//! a `NetServer`).

use crate::check::{self, Checker};
use crate::kernel::{self, submit_request};
use crate::Outcome;
use ppa_graph::{io, WeightMatrix};
use ppa_mcp::{McpOutput, McpSession};
use ppa_obs::Metrics;
use ppa_perfbench::inputs::{self, JobStream, Problem, Workload};
use ppa_perfbench::stats::{mean, median, quantile};
use ppa_serve::wire::{outcome_from_json, Request, Response};
use ppa_serve::{
    BatchingConfig, JobKind, JobOutcome, JobReport, JobSpec, NetClient, NetConfig, NetServer,
    ServeConfig, ServeError, SolveService,
};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Offered rate of the serve probe's open loop, in jobs per second.
pub const SERVE_RATE: f64 = 300.0;
/// Offered rate of the net probe's paced loop over both connections, in
/// requests per second.
pub const NET_RATE: f64 = 1000.0;
/// Every this-many requests, a net-probe connection reads `status`.
pub const STATUS_EVERY: usize = 10;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The traced run of `batch-n32`: half the budget on the serve probe, a
/// quarter on the kernel ledger of the workload's own `LANES`-lane waves,
/// a quarter on the net probe.
///
/// # Errors
/// A failure outside the measured regions (start-up, the anchor).
pub fn trace_batch(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let w = Workload::Batch32;
    let mut out = Outcome::default();
    check::check_anchor(w, &mut out)?;
    let pool = inputs::graph_pool(w.n(), seed);
    serve_probe(&pool, seed, seconds / 2.0, &mut out)?;
    kernel::ledger(w, seed, seconds / 4.0, &mut out)?;
    let net_pool = inputs::graph_pool(inputs::NET_N, seed);
    net_probe(&net_pool, seed, seconds / 4.0, &mut out)?;
    Ok(out)
}

fn counter_delta(after: &Metrics, before: &Metrics, name: &str) -> f64 {
    after.counter(name).saturating_sub(before.counter(name)) as f64
}

/// The serve tier's own counters over the measured region.
fn put_serve_counters(out: &mut Outcome, after: &Metrics, before: &Metrics) {
    let d = |name| counter_delta(after, before, name);
    out.put("serve.batch.flushed", d("serve.batch.flushed"), "count");
    out.put("serve.retries", d("serve.retries"), "count");
    let rejected = d("serve.rejected_queue_full") + d("serve.rejected_shutdown");
    out.put("serve.rejected", rejected, "count");
    out.put("serve.failed", d("serve.failed"), "count");
    let occ = |m: &Metrics| {
        m.histogram("serve.batch.occupancy")
            .map_or((0, 0), |h| (h.count, h.sum))
    };
    let ((c1, s1), (c0, s0)) = (occ(after), occ(before));
    if c1 > c0 {
        let mean_lanes = (s1 - s0) as f64 / (c1 - c0) as f64;
        out.put("serve.batch.occupancy_mean", mean_lanes, "count");
    }
}

/// The serve configuration of the serve probe: two workers (one per
/// core), the coalescer on with its default lane cap and hold window, and
/// an intake queue deep enough that the open loop is never refused.
fn batched_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: 4096,
        batching: BatchingConfig {
            enabled: true,
            ..BatchingConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// Waits for a load generator's due time by yielding, not sleeping. On a
/// VM a sleeping generator lets idle vCPUs halt, and every wake-up of a
/// halted vCPU then waits on the hypervisor. On the 2-vCPU reference
/// host that cost far more than the solves themselves and varied run to
/// run (serve p90 4.2–7.2 ms sleeping, 2.92–3.01 ms yielding, same five
/// seeds). The yield hands the CPU to any runnable service thread at once.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        thread::yield_now();
    }
}

fn spec(pool: &[WeightMatrix], p: Problem) -> JobSpec {
    JobSpec::new(pool[p.graph].clone(), JobKind::Shortest { dest: p.dest })
}

fn shortest(report: &JobReport) -> Option<&McpOutput> {
    match &report.outcome {
        Ok(JobOutcome::Shortest(o)) => Some(o),
        _ => None,
    }
}

/// One open-loop submission, handed from the generator to the collector.
struct Sent {
    problem: Problem,
    /// How long after its due time the job was submitted.
    late: Duration,
    submit: Duration,
    ticket: Result<ppa_serve::JobTicket, ServeError>,
}

/// What the open-loop collector saw, validated as the jobs finished.
#[derive(Default)]
struct Collected {
    jobs: u64,
    good: u64,
    /// Latency from each job's due time.
    lat_ms: Vec<f64>,
    /// Submission-to-completion, as the service reports it.
    job_ms: Vec<f64>,
    late_ms: Vec<f64>,
    submit_us: Vec<f64>,
}

/// The serve probe: an open loop at `SERVE_RATE` into an in-process
/// `SolveService` with batching on, latency timed from each job's due
/// time, `introspect()` sampled every `STATUS_EVERY`-th job. Records the
/// `serve.*` and load-generator metrics.
fn serve_probe(
    pool: &[WeightMatrix],
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let n = pool[0].n();
    let svc = SolveService::start(batched_config());
    // Warm-up on a separate stream: half a second at the offered rate.
    let warm: Vec<_> = JobStream::new(n, seed, 100)
        .take((SERVE_RATE / 2.0) as usize)
        .map(|p| {
            thread::sleep(Duration::from_secs_f64(1.0 / SERVE_RATE));
            svc.submit(spec(pool, p))
        })
        .collect();
    for t in warm {
        t.map_err(err)?.wait();
    }
    let before = svc.metrics();

    let total = (SERVE_RATE * seconds).round().max(1.0) as usize;
    let jobs: Vec<Problem> = JobStream::new(n, seed, 0).take(total).collect();
    let mut depth = Vec::new();
    let mut pending = Vec::new();
    let mut checker = Checker::new(pool, n);
    let (tx, rx) = mpsc::channel::<Sent>();
    let t0 = Instant::now();
    let c: Collected = thread::scope(|s| {
        let svc = &svc;
        let (depth, pending, checker) = (&mut depth, &mut pending, &mut checker);
        s.spawn(move || {
            for (k, p) in jobs.iter().enumerate() {
                let due = t0 + Duration::from_secs_f64(k as f64 / SERVE_RATE);
                wait_until(due);
                let sent = Instant::now();
                let ticket = svc.submit(spec(pool, *p));
                let submit = sent.elapsed();
                let late = sent.duration_since(due);
                let msg = Sent {
                    problem: *p,
                    late,
                    submit,
                    ticket,
                };
                if tx.send(msg).is_err() {
                    break;
                }
                if k % STATUS_EVERY == 0 {
                    let snap = svc.introspect();
                    depth.push(snap.queue_depth as f64);
                    pending.push(snap.batch_pending as f64);
                }
            }
        });
        let collector = s.spawn(move || {
            let mut c = Collected::default();
            for sent in rx {
                c.jobs += 1;
                c.late_ms.push(sent.late.as_secs_f64() * 1e3);
                c.submit_us.push(sent.submit.as_secs_f64() * 1e6);
                let Ok(ticket) = sent.ticket else { continue };
                let report = ticket.wait();
                let ms = (sent.late + report.latency).as_secs_f64() * 1e3;
                c.lat_ms.push(ms);
                c.job_ms.push(report.latency.as_secs_f64() * 1e3);
                let p = sent.problem;
                if shortest(&report).is_some_and(|o| checker.check(p, o.dest, &o.sow, &o.ptn)) {
                    c.good += 1;
                }
            }
            c
        });
        collector.join().expect("collector thread panicked")
    });
    let after = svc.metrics();
    svc.shutdown();
    let solo_ms = solo_solve_ms(pool, seed)?;

    checker.report(out);
    out.attempted += c.jobs;
    out.failed += c.jobs - c.good;
    out.note("serve_rate_per_s", SERVE_RATE);
    out.put("serve.submit_us_p50", median(&c.submit_us), "us");
    out.put("serve.job_latency_ms_p50", median(&c.job_ms), "ms");
    let overhead = median(&c.job_ms) - solo_ms;
    out.put("serve.overhead_ms_p50", overhead, "ms");
    out.put("serve.queue_depth_mean", mean(&depth), "count");
    out.put("serve.batch_pending_mean", mean(&pending), "count");
    out.put("serve.jobs", c.jobs as f64, "count");
    out.put("loadgen.late_ms_p90", quantile(&c.late_ms, 0.9), "ms");
    out.put("e2e.latency_ms_p90", quantile(&c.lat_ms, 0.9), "ms");
    put_serve_counters(out, &after, &before);
    Ok(())
}

/// Median wall of a bare packed solo solve of the pool, in milliseconds:
/// the serve probe's job without the service. At the probe's rate most
/// waves hold one lane, and a one-lane wave runs as a plain solo job
/// (`serve.batch.occupancy_mean` shows how many lanes the others held).
fn solo_solve_ms(pool: &[WeightMatrix], seed: u64) -> Result<f64, String> {
    let mut sessions = pool
        .iter()
        .map(|g| McpSession::new_packed(g).map_err(err))
        .collect::<Result<Vec<_>, _>>()?;
    for s in &mut sessions {
        s.solve(0).map_err(err)?;
    }
    let mut ms = Vec::new();
    for p in inputs::sweep_order(pool[0].n(), seed).iter().take(256) {
        let t = Instant::now();
        let o = sessions[p.graph].solve(p.dest).map_err(err)?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(o);
    }
    Ok(median(&ms))
}

/// What one net-probe connection saw, validated as responses arrived.
#[derive(Default)]
struct Calls {
    calls: u64,
    good: u64,
    /// Submit round trips.
    rtt_ms: Vec<f64>,
    server_ms: Vec<f64>,
    /// Round trip minus the server's own latency, per request.
    gap_ms: Vec<f64>,
    status_ms: Vec<f64>,
}

impl Calls {
    fn absorb(&mut self, o: Calls) {
        self.calls += o.calls;
        self.good += o.good;
        self.rtt_ms.extend(o.rtt_ms);
        self.server_ms.extend(o.server_ms);
        self.gap_ms.extend(o.gap_ms);
        self.status_ms.extend(o.status_ms);
    }
}

/// One connection's paced loop: request `k` is due at `(k + phase) /
/// rate` seconds and is sent then, or as soon as the previous reply is
/// in. Every `STATUS_EVERY`-th request reads `status`; the others submit
/// a solve and wait for its report.
fn client_loop(
    addr: std::net::SocketAddr,
    texts: &[String],
    mut jobs: JobStream,
    (t0, seconds, phase): (Instant, f64, f64),
    checker: &mut Checker<'_>,
) -> Calls {
    let mut c = Calls::default();
    let rate = NET_RATE / 2.0;
    let total = (rate * seconds).round() as u64;
    let Ok(mut client) = NetClient::connect(addr) else {
        c.calls = total.max(1);
        return c;
    };
    for k in 0..total {
        let due_s = (k as f64 + phase) / rate;
        let due = t0 + Duration::from_secs_f64(due_s);
        wait_until(due);
        c.calls += 1;
        let ok = if (k + 1) % STATUS_EVERY as u64 == 0 {
            let t = Instant::now();
            let r = client.call(&Request::Status);
            c.status_ms.push(t.elapsed().as_secs_f64() * 1e3);
            match r {
                Ok(Response::Status(doc)) => doc.get("queue_depth").is_some(),
                _ => false,
            }
        } else {
            let p = jobs.next().expect("endless stream");
            let req = submit_request(texts[p.graph].clone(), p.dest);
            let t = Instant::now();
            let r = client.call(&req);
            let rtt = t.elapsed().as_secs_f64() * 1e3;
            c.rtt_ms.push(rtt);
            match r {
                Ok(Response::Report {
                    outcome,
                    latency_us,
                    ..
                }) => {
                    let server = latency_us as f64 / 1e3;
                    c.server_ms.push(server);
                    c.gap_ms.push(rtt - server);
                    matches!(outcome_from_json(&outcome),
                        Ok(JobOutcome::Shortest(o)) if checker.check(p, o.dest, &o.sow, &o.ptn))
                }
                _ => false,
            }
        };
        c.good += u64::from(ok);
    }
    c
}

/// The net probe: a `NetServer` over the default `ServeConfig` and two
/// paced `NetClient` connections (one per core), `submit` with
/// `wait: true` over edge-list text, every `STATUS_EVERY`-th request a
/// `status` read. Records the `net.*` metrics.
fn net_probe(
    pool: &[WeightMatrix],
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let n = pool[0].n();
    let texts: Vec<String> = pool.iter().map(io::to_edge_list).collect();
    let svc = Arc::new(SolveService::start(ServeConfig::default()));
    let server = NetServer::start(Arc::clone(&svc), NetConfig::default()).map_err(err)?;
    let addr = server.local_addr();
    let mut checkers = [Checker::new(pool, n), Checker::new(pool, n)];
    // Warm-up on separate streams, then the measured paced loop.
    let clients = |salt: u64, secs: f64, checkers: &mut [Checker<'_>; 2]| {
        let t0 = Instant::now();
        thread::scope(|s| {
            let handles: Vec<_> = checkers
                .iter_mut()
                .zip(0u64..)
                .map(|(checker, c)| {
                    let (texts, jobs) = (&texts, JobStream::new(n, seed, salt + c));
                    let pacing = (t0, secs, c as f64 / 2.0);
                    s.spawn(move || client_loop(addr, texts, jobs, pacing, checker))
                })
                .collect();
            let mut all = Calls::default();
            for h in handles {
                all.absorb(h.join().expect("client thread panicked"));
            }
            all
        })
    };
    clients(100, 0.5, &mut checkers);
    let before = server.metrics();
    let c = clients(0, seconds, &mut checkers);
    let after = server.metrics();
    server.shutdown();
    if let Ok(svc) = Arc::try_unwrap(svc) {
        svc.shutdown();
    }

    for checker in &checkers {
        checker.report(out);
    }
    out.attempted += c.calls;
    out.failed += c.calls - c.good;
    out.put("net.rtt_ms_p50", median(&c.rtt_ms), "ms");
    out.put("net.server_latency_ms_p50", median(&c.server_ms), "ms");
    out.put("net.overhead_ms_p50", median(&c.gap_ms), "ms");
    out.put("net.status_ms_p50", median(&c.status_ms), "ms");
    out.put("net.status_reads", c.status_ms.len() as f64, "count");
    let d = |name| counter_delta(&after, &before, name);
    out.put("net.requests", d("net.requests"), "count");
    out.put("net.malformed", d("net.malformed"), "count");
    Ok(())
}
