//! A delegating executor that times every call into the packed backend.
//!
//! [`TimedExec`] wraps [`PackedBackend`] and forwards each
//! [`Executor`] method unchanged, charging its wall time and call count
//! to a shared [`Ledger`]. It changes no value and no step: the
//! self-tests hold it bit-identical to the bare backend on results and
//! per-class step reports.

use ppa_graph::WeightMatrix;
use ppa_machine::{
    Dim, Direction, ExecMode, ExecStats, Executor, Fill, Machine, MachineError, PackedBackend,
    PackedMask, Plane,
};
use ppa_mcp::{mcp, BatchSession, McpSession};
use ppa_ppc::Ppa;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Executor methods, in the order [`METHODS`] names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    BitPlane,
    Vote,
    Knockout,
    MaskBusOr,
    Broadcast,
    BroadcastMasked,
    Shift,
    Build,
    MaskFromPlane,
    MaskToPlane,
    MaskFilled,
    MaskCount,
    BusOr,
}

/// Metric-name fragment of every [`Method`], indexed by `Method as usize`.
pub const METHODS: [&str; 13] = [
    "bit_plane",
    "vote",
    "knockout",
    "mask_bus_or",
    "broadcast",
    "broadcast_masked",
    "shift",
    "build",
    "mask_from_plane",
    "mask_to_plane",
    "mask_filled",
    "mask_count",
    "bus_or",
];

/// Calls and wall nanoseconds charged to one executor method.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Invocations.
    pub calls: u64,
    /// Wall time inside the backend, in nanoseconds.
    pub ns: u64,
}

/// Per-method tallies shared by every clone of a [`TimedExec`].
#[derive(Debug, Clone, Default)]
pub struct Ledger(Rc<RefCell<[Tally; 13]>>);

impl Ledger {
    /// A fresh, zeroed ledger.
    pub fn new() -> Ledger {
        Ledger::default()
    }

    /// A copy of the tallies, indexed like [`METHODS`].
    pub fn snapshot(&self) -> [Tally; 13] {
        *self.0.borrow()
    }

    /// Zeroes every tally.
    pub fn reset(&self) {
        *self.0.borrow_mut() = [Tally::default(); 13];
    }

    /// Total backend nanoseconds across all methods.
    pub fn total_ns(&self) -> u64 {
        self.0.borrow().iter().map(|t| t.ns).sum()
    }

    fn charge(&self, m: Method, since: Instant) {
        let ns = since.elapsed().as_nanos() as u64;
        let t = &mut self.0.borrow_mut()[m as usize];
        t.calls += 1;
        t.ns += ns;
    }
}

/// [`PackedBackend`] behind a timing shim.
#[derive(Debug, Clone)]
pub struct TimedExec {
    inner: PackedBackend,
    ledger: Ledger,
}

impl TimedExec {
    /// A fresh packed backend charging to `ledger`.
    pub fn new(ledger: &Ledger) -> TimedExec {
        TimedExec {
            inner: PackedBackend::new(),
            ledger: ledger.clone(),
        }
    }
}

/// Times one delegated call.
macro_rules! timed {
    ($self:ident, $m:expr, $call:expr) => {{
        let t = Instant::now();
        let r = $call;
        $self.ledger.charge($m, t);
        r
    }};
}

impl Executor for TimedExec {
    type Mask = PackedMask;
    const NAME: &'static str = "timed";

    fn mask_from_plane(&mut self, dim: Dim, plane: &Plane<bool>) -> PackedMask {
        timed!(
            self,
            Method::MaskFromPlane,
            self.inner.mask_from_plane(dim, plane)
        )
    }

    fn mask_to_plane(&self, dim: Dim, mask: &PackedMask) -> Plane<bool> {
        timed!(
            self,
            Method::MaskToPlane,
            self.inner.mask_to_plane(dim, mask)
        )
    }

    fn mask_filled(&mut self, dim: Dim, value: bool) -> PackedMask {
        timed!(self, Method::MaskFilled, self.inner.mask_filled(dim, value))
    }

    fn mask_count(&self, dim: Dim, mask: &PackedMask) -> usize {
        timed!(self, Method::MaskCount, self.inner.mask_count(dim, mask))
    }

    fn bit_plane(&mut self, mode: ExecMode, dim: Dim, src: &Plane<i64>, j: u32) -> PackedMask {
        timed!(
            self,
            Method::BitPlane,
            self.inner.bit_plane(mode, dim, src, j)
        )
    }

    fn vote(
        &mut self,
        mode: ExecMode,
        dim: Dim,
        enable: &PackedMask,
        bit: &PackedMask,
        keep_low: bool,
    ) -> PackedMask {
        timed!(
            self,
            Method::Vote,
            self.inner.vote(mode, dim, enable, bit, keep_low)
        )
    }

    fn knockout(
        &mut self,
        mode: ExecMode,
        dim: Dim,
        enable: &PackedMask,
        present: &PackedMask,
        bit: &PackedMask,
        keep_low: bool,
    ) -> PackedMask {
        timed!(
            self,
            Method::Knockout,
            self.inner
                .knockout(mode, dim, enable, present, bit, keep_low)
        )
    }

    fn mask_bus_or(
        &mut self,
        mode: ExecMode,
        dim: Dim,
        values: &PackedMask,
        dir: Direction,
        open: &PackedMask,
    ) -> Result<PackedMask, MachineError> {
        timed!(
            self,
            Method::MaskBusOr,
            self.inner.mask_bus_or(mode, dim, values, dir, open)
        )
    }

    fn broadcast<T: Copy + Send + Sync + 'static>(
        &mut self,
        mode: ExecMode,
        dim: Dim,
        src: &Plane<T>,
        dir: Direction,
        open: &Plane<bool>,
    ) -> Result<Plane<T>, MachineError> {
        timed!(
            self,
            Method::Broadcast,
            self.inner.broadcast(mode, dim, src, dir, open)
        )
    }

    fn broadcast_masked<T: Copy + Send + Sync + 'static>(
        &mut self,
        mode: ExecMode,
        dim: Dim,
        src: &Plane<T>,
        dir: Direction,
        open: &PackedMask,
    ) -> Result<Plane<T>, MachineError> {
        timed!(
            self,
            Method::BroadcastMasked,
            self.inner.broadcast_masked(mode, dim, src, dir, open)
        )
    }

    fn bus_or(
        &mut self,
        mode: ExecMode,
        dim: Dim,
        values: &Plane<bool>,
        dir: Direction,
        open: &Plane<bool>,
    ) -> Result<Plane<bool>, MachineError> {
        timed!(
            self,
            Method::BusOr,
            self.inner.bus_or(mode, dim, values, dir, open)
        )
    }

    fn shift<T: Copy + Send + Sync + 'static>(
        &mut self,
        mode: ExecMode,
        dim: Dim,
        src: &Plane<T>,
        dir: Direction,
        fill: Fill<T>,
    ) -> Result<Plane<T>, MachineError> {
        timed!(
            self,
            Method::Shift,
            self.inner.shift(mode, dim, src, dir, fill)
        )
    }

    fn build<U, F>(&mut self, mode: ExecMode, len: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        timed!(self, Method::Build, self.inner.build(mode, len, f))
    }

    fn stats(&self) -> ExecStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }
}

/// A solo session on the timed backend, sized and word-fitted like
/// [`McpSession::new_packed`].
///
/// # Errors
/// The session's own contract checks.
pub fn timed_session(w: &WeightMatrix, ledger: &Ledger) -> ppa_mcp::Result<McpSession<TimedExec>> {
    let machine = Machine::with_backend(
        Dim::square(w.n()),
        ExecMode::Sequential,
        TimedExec::new(ledger),
    );
    let ppa = Ppa::from_machine(machine).with_word_bits(mcp::fit_word_bits(w).clamp(2, 62));
    McpSession::from_ppa(ppa, w)
}

/// A lane batch on the timed backend, sized and word-fitted like
/// [`BatchSession::new_packed`].
///
/// # Errors
/// The batch's own shape checks.
pub fn timed_batch(
    graphs: &[WeightMatrix],
    ledger: &Ledger,
) -> ppa_mcp::Result<BatchSession<TimedExec>> {
    let n = graphs.first().map_or(0, WeightMatrix::n);
    let h = graphs
        .iter()
        .map(mcp::fit_word_bits)
        .max()
        .unwrap_or(2)
        .clamp(2, 62);
    let machine = Machine::with_backend(
        Dim::new(n, n * graphs.len()),
        ExecMode::Sequential,
        TimedExec::new(ledger),
    );
    BatchSession::from_ppa(Ppa::from_machine(machine).with_word_bits(h), graphs)
}
