//! Host-side execution engine for the data-parallel per-PE loops.
//!
//! Every simulated SIMD instruction touches all `rows * cols` PEs
//! independently, so the simulator can execute the per-PE work either
//! sequentially or chunked across OS threads (crossbeam scoped threads).
//! The choice changes only the *host wall-clock*; the simulated step counts
//! recorded by the [`Controller`](crate::Controller) are identical by
//! construction, which the engine equivalence tests assert.
//!
//! ## Profiling
//!
//! [`enable_profiling`] turns on process-wide wall-clock accounting:
//! every `build`/`reduce` call adds its host time to an
//! [`EngineProfile`], including per-worker chunk timings in threaded
//! mode (which expose chunk imbalance). [`take_profile`] stops
//! accounting and returns the totals. The flag is a relaxed atomic read
//! on the hot path, so the disabled cost is negligible.

use ppa_obs::EngineProfile;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static PROFILING: AtomicBool = AtomicBool::new(false);
static PROFILE: Mutex<Option<EngineProfile>> = Mutex::new(None);

/// Locks the profile store, recovering from poisoning: a panicking worker
/// must not turn every later profiled run into a panic. The stored
/// `EngineProfile` is plain counters, valid regardless of where a panic
/// interrupted an update.
fn profile_lock() -> std::sync::MutexGuard<'static, Option<EngineProfile>> {
    PROFILE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Starts wall-clock profiling of every engine call, process-wide,
/// resetting any previous totals.
pub fn enable_profiling() {
    *profile_lock() = Some(EngineProfile::default());
    PROFILING.store(true, Ordering::SeqCst);
}

/// Stops profiling and returns the accumulated totals (`None` if
/// profiling was never enabled).
pub fn take_profile() -> Option<EngineProfile> {
    PROFILING.store(false, Ordering::SeqCst);
    profile_lock().take()
}

/// Whether engine profiling is currently enabled.
pub fn profiling_enabled() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

fn note_call(is_build: bool, threaded: bool, elapsed: Duration, chunks: &[(usize, u64)]) {
    let mut guard = profile_lock();
    let Some(p) = guard.as_mut() else { return };
    if is_build {
        p.build_calls += 1;
    } else {
        p.reduce_calls += 1;
    }
    let ns = elapsed.as_nanos() as u64;
    if threaded {
        p.threaded_nanos += ns;
    } else {
        p.sequential_nanos += ns;
    }
    for &(slot, n) in chunks {
        if p.per_thread_nanos.len() <= slot {
            p.per_thread_nanos.resize(slot + 1, 0);
        }
        p.per_thread_nanos[slot] += n;
    }
}

/// How the per-PE loops of each simulated instruction run on the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Single-threaded execution (the default; fastest for small arrays).
    #[default]
    Sequential,
    /// Chunk the PE planes across this many OS threads.
    Threaded(NonZeroUsize),
}

impl ExecMode {
    /// A threaded mode using all available host parallelism (falls back to
    /// [`ExecMode::Sequential`] when only one hardware thread exists).
    pub fn auto() -> Self {
        match std::thread::available_parallelism() {
            Ok(n) if n.get() > 1 => ExecMode::Threaded(n),
            _ => ExecMode::Sequential,
        }
    }

    /// A threaded mode with exactly `threads` workers.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn threaded(threads: usize) -> Self {
        ExecMode::Threaded(NonZeroUsize::new(threads).expect("thread count must be non-zero"))
    }

    /// Number of worker threads this mode uses.
    pub fn thread_count(self) -> usize {
        match self {
            ExecMode::Sequential => 1,
            ExecMode::Threaded(n) => n.get(),
        }
    }
}

/// Minimum number of work items per thread before the engine bothers
/// spawning; tiny planes always run sequentially to avoid spawn overhead
/// dominating.
const MIN_CHUNK: usize = 1024;

/// Builds a vector of `len` elements where element `i` is `f(i)`,
/// using the requested execution mode.
///
/// This single entry point covers every per-PE loop in the simulator: maps,
/// zips and gathers are all expressed as index functions over borrowed
/// slices captured by `f`.
pub fn build<T, F>(mode: ExecMode, len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let profiling = profiling_enabled();
    let call_start = profiling.then(Instant::now);
    let threads = mode.thread_count();
    if threads <= 1 || len < MIN_CHUNK * 2 {
        let out: Vec<T> = (0..len).map(f).collect();
        if let Some(t0) = call_start {
            note_call(true, false, t0.elapsed(), &[]);
        }
        return out;
    }
    let chunk = len.div_ceil(threads);
    let mut parts: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut chunk_times: Vec<(usize, u64)> = Vec::new();
    crossbeam::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        let f = &f;
        for t in 0..threads {
            let start = t * chunk;
            let end = ((t + 1) * chunk).min(len);
            if start >= end {
                break;
            }
            handles.push(scope.spawn(move |_| {
                let w0 = profiling.then(Instant::now);
                let part = (start..end).map(f).collect::<Vec<T>>();
                (part, w0.map_or(0, |t0| t0.elapsed().as_nanos() as u64))
            }));
        }
        for (slot, h) in handles.into_iter().enumerate() {
            let (part, nanos) = h.join().expect("engine worker panicked");
            parts.push(part);
            if profiling {
                chunk_times.push((slot, nanos));
            }
        }
    })
    .expect("engine scope panicked");
    let mut out = Vec::with_capacity(len);
    for p in parts {
        out.extend(p);
    }
    if let Some(t0) = call_start {
        note_call(true, true, t0.elapsed(), &chunk_times);
    }
    out
}

/// Folds `f(i)` over `0..len` with a commutative, associative `combine`,
/// seeded with `identity` — the engine-parallel reduction used by the
/// global-OR instruction and by test oracles.
pub fn reduce<T, F, C>(mode: ExecMode, len: usize, identity: T, f: F, combine: C) -> T
where
    T: Send + Clone,
    F: Fn(usize) -> T + Sync,
    C: Fn(T, T) -> T + Sync + Send,
{
    let profiling = profiling_enabled();
    let call_start = profiling.then(Instant::now);
    let threads = mode.thread_count();
    if threads <= 1 || len < MIN_CHUNK * 2 {
        let out = (0..len).map(f).fold(identity, combine);
        if let Some(t0) = call_start {
            note_call(false, false, t0.elapsed(), &[]);
        }
        return out;
    }
    let chunk = len.div_ceil(threads);
    let mut acc = identity.clone();
    let mut chunk_times: Vec<(usize, u64)> = Vec::new();
    crossbeam::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        let f = &f;
        let combine = &combine;
        for t in 0..threads {
            let start = t * chunk;
            let end = ((t + 1) * chunk).min(len);
            if start >= end {
                break;
            }
            let id = identity.clone();
            handles.push(scope.spawn(move |_| {
                let w0 = profiling.then(Instant::now);
                let part = (start..end).map(f).fold(id, combine);
                (part, w0.map_or(0, |t0| t0.elapsed().as_nanos() as u64))
            }));
        }
        for (slot, h) in handles.into_iter().enumerate() {
            let (part, nanos) = h.join().expect("engine worker panicked");
            acc = combine(acc.clone(), part);
            if profiling {
                chunk_times.push((slot, nanos));
            }
        }
    })
    .expect("engine scope panicked");
    if let Some(t0) = call_start {
        note_call(false, true, t0.elapsed(), &chunk_times);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_build_matches_iterator() {
        let v = build(ExecMode::Sequential, 10, |i| i * i);
        assert_eq!(v, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn threaded_build_matches_sequential() {
        let len = 10_000;
        let seq = build(ExecMode::Sequential, len, |i| i as u64 * 3 + 1);
        let par = build(ExecMode::threaded(4), len, |i| i as u64 * 3 + 1);
        assert_eq!(seq, par);
    }

    #[test]
    fn small_inputs_skip_spawning_but_agree() {
        let seq = build(ExecMode::Sequential, 7, |i| i + 1);
        let par = build(ExecMode::threaded(8), 7, |i| i + 1);
        assert_eq!(seq, par);
    }

    #[test]
    fn reduce_sums_correctly_in_both_modes() {
        let len = 5_000;
        let seq = reduce(ExecMode::Sequential, len, 0u64, |i| i as u64, |a, b| a + b);
        let par = reduce(ExecMode::threaded(3), len, 0u64, |i| i as u64, |a, b| a + b);
        let expect = (len as u64 - 1) * len as u64 / 2;
        assert_eq!(seq, expect);
        assert_eq!(par, expect);
    }

    #[test]
    fn reduce_or_short_forms() {
        let hit = reduce(
            ExecMode::threaded(2),
            4_000,
            false,
            |i| i == 3_999,
            |a, b| a || b,
        );
        assert!(hit);
    }

    #[test]
    fn auto_mode_is_valid() {
        let m = ExecMode::auto();
        assert!(m.thread_count() >= 1);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_threads_rejected() {
        let _ = ExecMode::threaded(0);
    }

    /// Serializes the tests that switch the process-wide profiler on and
    /// off: run in parallel, one test's `take_profile` would stop the
    /// other's accounting midway.
    static PROFILER_TESTS: Mutex<()> = Mutex::new(());

    fn profiler_exclusive() -> std::sync::MutexGuard<'static, ()> {
        PROFILER_TESTS.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn profile_survives_a_poisoned_mutex() {
        let _serial = profiler_exclusive();
        // Poison PROFILE by panicking while holding its guard, then check
        // the profiling API keeps working instead of propagating the
        // poison forever.
        let _ = std::panic::catch_unwind(|| {
            let _guard = profile_lock();
            panic!("poison the profile mutex");
        });
        enable_profiling();
        let _ = build(ExecMode::Sequential, 100, |i| i);
        let p = take_profile().expect("profiling recovered after poisoning");
        assert!(p.build_calls >= 1, "{p:?}");
    }

    #[test]
    fn profiling_accounts_calls_and_worker_chunks() {
        let _serial = profiler_exclusive();
        enable_profiling();
        let _ = build(ExecMode::Sequential, 100, |i| i);
        let _ = build(ExecMode::threaded(3), 10_000, |i| i as u64);
        let _ = reduce(
            ExecMode::threaded(3),
            10_000,
            0u64,
            |i| i as u64,
            |a, b| a + b,
        );
        let p = take_profile().expect("profile collected");
        // Other tests may run concurrently and add their own calls, so
        // assert lower bounds only.
        assert!(p.build_calls >= 2, "{p:?}");
        assert!(p.reduce_calls >= 1, "{p:?}");
        assert!(p.per_thread_nanos.len() >= 3, "{p:?}");
        assert!(take_profile().is_none());
    }
}
