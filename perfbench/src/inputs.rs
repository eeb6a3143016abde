//! Seeded workload inputs. The same seed always yields byte-identical
//! inputs; the program under test only ever sees what these functions
//! generate.

use ppa_graph::{gen, io, WeightMatrix};

/// Edge density of the generated graphs (the T6 family of `report`).
pub const DENSITY: f64 = 0.2;
/// Largest edge weight of the generated graphs.
pub const MAX_W: i64 = 25;
/// Graphs in every workload's pool.
pub const POOL: usize = 16;
/// Lanes per `BatchSession` wave of `batch-n32` (and of the anchor wave).
pub const LANES: usize = 8;
/// Vertices per graph of the net probe in the traced `batch-n32` run:
/// small enough that framing, JSON, parsing and TCP dominate.
pub const NET_N: usize = 16;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Single-thread closed loop over packed `McpSession::solve_verified`.
    Mcp64,
    /// Single-thread closed loop over packed `BatchSession::solve_verified`
    /// waves of `LANES` graphs.
    Batch32,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Mcp64, Workload::Batch32];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mcp64 => "mcp-n64",
            Workload::Batch32 => "batch-n32",
        }
    }

    /// Vertices per graph.
    pub fn n(self) -> usize {
        match self {
            Workload::Mcp64 => 64,
            Workload::Batch32 => 32,
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64: a small, well-mixed, fully specified generator, so the
/// input stream never depends on a library's RNG implementation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, salted so different input kinds drawn from
    /// the same seed are independent.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One solve request: a graph of the pool and a destination vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Problem {
    /// Index into the graph pool.
    pub graph: usize,
    /// Destination vertex.
    pub dest: usize,
}

impl Problem {
    /// A dense index over `pool × n`, for per-problem tables.
    pub fn index(self, n: usize) -> usize {
        self.graph * n + self.dest
    }
}

/// The pool of `POOL` seeded `random_connected(n, 0.2, 25)` graphs.
pub fn graph_pool(n: usize, seed: u64) -> Vec<WeightMatrix> {
    let mut rng = Rng::new(seed, 1);
    (0..POOL)
        .map(|_| gen::random_connected(n, DENSITY, MAX_W, rng.next_u64()))
        .collect()
}

/// Every `(graph, dest)` pair of the pool, in a seeded shuffled order —
/// the closed-loop sweep of `mcp-n64`.
pub fn sweep_order(n: usize, seed: u64) -> Vec<Problem> {
    let mut all: Vec<Problem> = (0..POOL)
        .flat_map(|graph| (0..n).map(move |dest| Problem { graph, dest }))
        .collect();
    let mut rng = Rng::new(seed, 2);
    for i in (1..all.len()).rev() {
        all.swap(i, rng.below(i + 1));
    }
    all
}

/// One unit of closed-loop work: the problems one call solves (one for a
/// solo session, `LANES` for a wave) and the session that solves them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unit {
    /// Index of the session: the graph for solo sessions, the lane group
    /// for waves.
    pub session: usize,
    /// The problems, one per lane.
    pub problems: Vec<Problem>,
}

/// The closed-loop sweep of a workload: every `(graph, dest)` pair of the
/// pool exactly once, in a seeded order. `mcp-n64` solves one pair per
/// unit; `batch-n32` groups graphs `LANES` at a time, and wave `j` of a
/// group gives each lane the `j`-th destination of its graph's own seeded
/// permutation.
pub fn units(workload: Workload, seed: u64) -> Vec<Unit> {
    let n = workload.n();
    if workload == Workload::Mcp64 {
        return sweep_order(n, seed)
            .into_iter()
            .map(|p| Unit {
                session: p.graph,
                problems: vec![p],
            })
            .collect();
    }
    let mut rng = Rng::new(seed, 4);
    let perms: Vec<Vec<usize>> = (0..POOL)
        .map(|_| {
            let mut d: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                d.swap(i, rng.below(i + 1));
            }
            d
        })
        .collect();
    let mut all: Vec<Unit> = (0..POOL / LANES)
        .flat_map(|session| (0..n).map(move |j| (session, j)))
        .map(|(session, j)| Unit {
            session,
            problems: (0..LANES)
                .map(|lane| {
                    let graph = session * LANES + lane;
                    Problem {
                        graph,
                        dest: perms[graph][j],
                    }
                })
                .collect(),
        })
        .collect();
    for i in (1..all.len()).rev() {
        all.swap(i, rng.below(i + 1));
    }
    all
}

/// An endless seeded stream of uniformly drawn problems — the job mix of
/// the serve and net probes.
#[derive(Debug, Clone)]
pub struct JobStream {
    rng: Rng,
    n: usize,
}

impl JobStream {
    /// The stream for an `n`-vertex pool and `seed`; `salt` separates
    /// independent streams (one per client connection).
    pub fn new(n: usize, seed: u64, salt: u64) -> JobStream {
        JobStream {
            rng: Rng::new(seed, 3 + salt),
            n,
        }
    }
}

impl Iterator for JobStream {
    type Item = Problem;

    fn next(&mut self) -> Option<Problem> {
        let graph = self.rng.below(POOL);
        let dest = self.rng.below(self.n);
        Some(Problem { graph, dest })
    }
}

/// The fixed graph of the step-count anchor: independent of `--seed`, so
/// every run re-checks the same recorded step counts.
pub fn anchor_graph(n: usize) -> WeightMatrix {
    gen::random_connected(n, DENSITY, MAX_W, 0x0a2c_4012)
}

/// A canonical byte rendering of a workload's inputs: the pool as edge
/// lists, its closed-loop sweep, then the first `jobs` problems of its
/// probe job stream. Used to
/// prove seeded generation is deterministic, and digested into the
/// provenance line.
pub fn input_bytes(workload: Workload, seed: u64, jobs: usize) -> Vec<u8> {
    let n = workload.n();
    let mut out = String::new();
    for g in graph_pool(n, seed) {
        out.push_str(&io::to_edge_list(&g));
        out.push('\n');
    }
    let problems = units(workload, seed)
        .into_iter()
        .flat_map(|u| u.problems)
        .chain(JobStream::new(n, seed, 0).take(jobs));
    for p in problems {
        out.push_str(&format!("{} {}\n", p.graph, p.dest));
    }
    out.into_bytes()
}

/// FNV-1a digest of a byte string (for the provenance line).
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
