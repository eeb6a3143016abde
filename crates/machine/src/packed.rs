//! The packed execution backend: `u64` bitset masks, a recycling plane
//! arena, plan-free broadcasts, memoized bit slices and a wired-OR plan
//! cache.
//!
//! [`PackedBackend`] implements [`Executor`] with these wall-clock levers
//! the scalar reference backend lacks:
//!
//! * **Packed masks** — every `Plane<bool>` mask inside the bit-serial
//!   `min`/`selected_min` loop is a [`PackedMask`]: 64 PEs per `u64` word,
//!   so votes, knockouts and occupancy counting are word ops and popcounts
//!   instead of per-PE byte walks.
//! * **Plane arena** — mask words are recycled through a shared
//!   [`WordPool`]; after warm-up the O(h) scan loop allocates nothing.
//! * **Plan-free broadcast** — `broadcast` and `broadcast_masked` read the
//!   Open pattern row by row with word scans (a plane-form pattern is
//!   packed first, eight PEs per multiply) and never derive cluster keys:
//!   a row-axis broadcast is a cyclic run of segment fills, a column-axis
//!   broadcast carries one value per column down (or up) the array,
//!   updated only at Open PEs. The survivor mask that ends every `min`
//!   scan differs on every call, so a cache keyed on it would miss every
//!   time.
//! * **Bit-sliced scan source** — the first `bit_plane(src, j)` on a source
//!   plane transposes all of its bit planes in one pass; the rest of the
//!   scan copies plane `j` out of a two-entry memo keyed by the source's
//!   shared storage.
//! * **Wired-OR plan cache** — cluster resolution (`bus::cluster_keys`) for
//!   the wired-OR is computed once per distinct (direction, Open-mask)
//!   switch configuration and reused; the MCP inner loop replays the same
//!   configuration across all h bit passes, so nearly every wired-OR hits
//!   the cache.
//!
//! Semantics are bit-identical to [`ScalarBackend`](crate::ScalarBackend):
//! the differential suites in `tests/backend_diff.rs` and
//! `tests/backend_width.rs` assert values *and* step counts across the two
//! backends.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Weak};

use crate::bus;
use crate::error::MachineError;
use crate::geometry::{Axis, Dim, Direction};
use crate::isa::{ExecMode, ExecStats, Executor};
use crate::machine::Machine;
use crate::plane::Plane;

/// Retained wired-OR plans; a `min` scan replays one configuration per
/// call and the MCP loop uses only a few, so a small LRU never evicts a
/// live plan while tolerating mask churn.
const PLAN_CACHE_CAP: usize = 32;

/// Source planes whose bit slices stay memoized: the running `min` scan's
/// source plus one loop-invariant source (statement 12's `COL`), which
/// then hits across iterations.
const SLICE_MEMO_CAP: usize = 2;

/// Number of `u64` words needed to back one bit per PE of `dim`.
fn words_for(dim: Dim) -> usize {
    dim.len().div_ceil(64)
}

/// Bits `start..end` of a word set (`start <= end <= 64`).
fn range_mask(start: usize, end: usize) -> u64 {
    let low = |n: usize| if n >= 64 { !0 } else { (1u64 << n) - 1 };
    low(end) & !low(start)
}

/// Whether bit `i` of a flat bitset is set.
#[inline]
fn bit(words: &[u64], i: usize) -> bool {
    (words[i / 64] >> (i % 64)) & 1 == 1
}

/// Sets bit `i` of a flat bitset.
#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

/// Calls `f` with each set bit position of `word`, ascending.
#[inline]
fn for_each_set_bit(mut word: u64, mut f: impl FnMut(usize)) {
    while word != 0 {
        f(word.trailing_zeros() as usize);
        word &= word - 1;
    }
}

/// Whether any bit in `start..end` of a flat bitset is set.
fn range_any(words: &[u64], start: usize, end: usize) -> bool {
    let mut i = start;
    while i < end {
        let off = i % 64;
        let take = (64 - off).min(end - i);
        if words[i / 64] & range_mask(off, off + take) != 0 {
            return true;
        }
        i += take;
    }
    false
}

/// Sets every bit in `start..end` of a flat bitset.
fn set_range(words: &mut [u64], start: usize, end: usize) {
    let mut i = start;
    while i < end {
        let off = i % 64;
        let take = (64 - off).min(end - i);
        words[i / 64] |= range_mask(off, off + take);
        i += take;
    }
}

/// Packs a flat boolean plane into `out`, 64 PEs a word.
fn pack(src: &[bool], out: &mut [u64]) {
    for (w, chunk) in out.iter_mut().zip(src.chunks(64)) {
        *w = pack_word(chunk);
    }
}

/// Packs up to 64 booleans into a word, eight at a time: a `bool` is a 0/1
/// byte, so eight of them load as one word whose byte lanes one multiply
/// gathers into a byte of bits.
fn pack_word(bools: &[bool]) -> u64 {
    let mut chunks = bools.chunks_exact(8);
    let mut word = 0u64;
    for (g, chunk) in (&mut chunks).enumerate() {
        let lanes = u64::from_le_bytes(std::array::from_fn(|t| chunk[t] as u8));
        word |= (lanes.wrapping_mul(GATHER_LSBS) >> 56) << (8 * g);
    }
    let done = bools.len() - chunks.remainder().len();
    for (b, &v) in chunks.remainder().iter().enumerate() {
        word |= (v as u64) << (done + b);
    }
    word
}

// ----- plan-free broadcast -------------------------------------------
//
// A broadcast delivers to every PE the value of the Open node heading its
// cluster: the nearest Open node at or before it in movement order,
// wrapping round the line. The kernel below derives that head on the fly
// from the packed Open pattern, scanned one row of words at a time, so no
// per-PE key vector is ever built and nothing depends on the pattern
// having been seen before.

/// Appends the Open columns of row `r` of a packed pattern, ascending, to
/// `out`.
fn open_cols(open: &[u64], dim: Dim, r: usize, out: &mut Vec<usize>) {
    let (start, end) = (r * dim.cols, (r + 1) * dim.cols);
    let mut i = start;
    while i < end {
        let (wi, off) = (i / 64, i % 64);
        let take = (64 - off).min(end - i);
        let word_start = wi * 64;
        for_each_set_bit(open[wi] & range_mask(off, off + take), |b| {
            out.push(word_start + b - start)
        });
        i += take;
    }
}

/// Cluster-head broadcast of `src` along `dir` under the packed Open
/// pattern `open`, with [`bus::broadcast`]'s semantics and fault: lines
/// without an Open node are reported, ascending, as a
/// [`MachineError::BusFault`]. `opens` is caller-owned scratch.
fn broadcast_rows<T: Copy>(
    dim: Dim,
    src: &[T],
    dir: Direction,
    open: &[u64],
    opens: &mut Vec<usize>,
) -> Result<Vec<T>, MachineError> {
    let cols = dim.cols;
    let mut driverless = Vec::new();
    let out = if dir.axis() == Axis::Row {
        // Each row is one line; its clusters are runs of columns, so the
        // row is written as a cyclic sequence of segment fills.
        let mut out = Vec::with_capacity(dim.len());
        for r in 0..dim.rows {
            let (base, row) = (r * cols, &src[r * cols..(r + 1) * cols]);
            opens.clear();
            open_cols(open, dim, r, opens);
            let (Some(&first), Some(&last)) = (opens.first(), opens.last()) else {
                driverless.push(r);
                out.resize(base + cols, row[0]);
                continue;
            };
            if dir == Direction::East {
                // An Open node drives itself and the columns after it; the
                // columns before the first Open node wrap round to the last.
                let mut head = row[last];
                for &c in opens.iter() {
                    out.resize(base + c, head);
                    head = row[c];
                }
                out.resize(base + cols, head);
            } else {
                // West: an Open node drives itself and the columns before
                // it; the columns after the last Open node wrap round to
                // the first.
                for &c in opens.iter() {
                    out.resize(base + c + 1, row[c]);
                }
                out.resize(base + cols, row[first]);
            }
        }
        out
    } else {
        // Each column is one line. Visit rows in movement order, carrying
        // every column's current head value; the carry starts at the head
        // that wraps round, the last Open node in movement order.
        let rows = dim.rows;
        let row_at = |p: usize| {
            if dir.is_increasing() {
                p
            } else {
                rows - 1 - p
            }
        };
        let mut carry = src[..cols].to_vec();
        let mut seen = vec![false; cols];
        let mut unseen = cols;
        for p in (0..rows).rev() {
            let r = row_at(p);
            opens.clear();
            open_cols(open, dim, r, opens);
            for &c in opens.iter() {
                if !seen[c] {
                    seen[c] = true;
                    carry[c] = src[r * cols + c];
                    unseen -= 1;
                }
            }
            if unseen == 0 {
                break;
            }
        }
        if unseen > 0 {
            driverless.extend((0..cols).filter(|&c| !seen[c]));
            Vec::new()
        } else {
            // Rows are produced in movement order: appended as they come
            // when that is top to bottom, otherwise written into a
            // pre-sized plane.
            let mut out = Vec::with_capacity(dim.len());
            if !dir.is_increasing() {
                out.resize(dim.len(), carry[0]);
            }
            for p in 0..rows {
                let r = row_at(p);
                opens.clear();
                open_cols(open, dim, r, opens);
                for &c in opens.iter() {
                    carry[c] = src[r * cols + c];
                }
                if dir.is_increasing() {
                    out.extend_from_slice(&carry);
                } else {
                    out[r * cols..(r + 1) * cols].copy_from_slice(&carry);
                }
            }
            out
        }
    };
    if driverless.is_empty() {
        Ok(out)
    } else {
        Err(MachineError::BusFault {
            axis: dir.axis(),
            lines: driverless,
        })
    }
}

// ----- bit slices -----------------------------------------------------

/// The least significant bit of every byte lane.
const BYTE_LSBS: u64 = 0x0101_0101_0101_0101;
/// Multiplier that moves bit 0 of byte lane `t` to bit `56 + t`. Every
/// partial product lands on a distinct bit, so no carries disturb the
/// gathered top byte.
const GATHER_LSBS: u64 = 0x0102_0408_1020_4080;

/// All bit planes of one `Plane<i64>` source, transposed in one pass.
#[derive(Debug, Clone, Default)]
struct BitSlices {
    /// The source's shared storage. The held `Weak` keeps its address from
    /// being reused, and an edit through `Arc::make_mut` either clones the
    /// buffer or disassociates this `Weak`, so a live pointer match means
    /// the contents are the ones transposed.
    src: Weak<Vec<i64>>,
    dim: Option<Dim>,
    /// Bit planes held; every higher bit is zero in every value.
    planes: usize,
    /// Words per plane.
    stride: usize,
    /// Plane `j` is `words[j * stride..(j + 1) * stride]`, 64 PEs a word.
    words: Vec<u64>,
}

impl BitSlices {
    fn holds(&self, dim: Dim, src: &Arc<Vec<i64>>) -> bool {
        self.dim == Some(dim) && self.src.upgrade().is_some_and(|s| Arc::ptr_eq(&s, src))
    }

    /// Re-fills this entry (keeping its buffer) with the bit planes of
    /// `src`. Eight PEs at a time, each byte of their values is narrowed
    /// into one byte lane of a word, and one multiply per bit gathers that
    /// bit of all eight PEs into a byte of the plane.
    fn fill(&mut self, dim: Dim, src: &Arc<Vec<i64>>, stride: usize) {
        debug_assert_eq!(src.len(), dim.len());
        let top = src.iter().fold(0u64, |acc, &v| {
            debug_assert!(v >= 0, "bit-serial scan expects non-negative values");
            acc | v as u64
        });
        let planes = (u64::BITS - top.leading_zeros()) as usize;
        self.src = Arc::downgrade(src);
        self.dim = Some(dim);
        self.planes = planes;
        self.stride = stride;
        self.words.clear();
        self.words.resize(planes * stride, 0);
        let bytes = planes.div_ceil(8);
        for (l, chunk) in src.chunks(64).enumerate() {
            // lanes[k][g]: byte k of the values of PEs 8g..8g + 8.
            let mut lanes = [[0u64; 8]; 8];
            for (g, group) in chunk.chunks(8).enumerate() {
                let mut vals = [0u64; 8];
                for (v, &x) in vals.iter_mut().zip(group) {
                    *v = x as u64;
                }
                for (k, lane) in lanes[..bytes].iter_mut().enumerate() {
                    lane[g] =
                        u64::from_le_bytes(std::array::from_fn(|t| (vals[t] >> (8 * k)) as u8));
                }
            }
            for (k, lane) in lanes[..bytes].iter().enumerate() {
                for b in 0..(planes - 8 * k).min(8) {
                    let mut word = 0u64;
                    for (g, &x) in lane.iter().enumerate() {
                        word |= (((x >> b) & BYTE_LSBS).wrapping_mul(GATHER_LSBS) >> 56) << (8 * g);
                    }
                    self.words[(8 * k + b) * stride + l] = word;
                }
            }
        }
    }

    /// Copies plane `j` into `out` (all zeros above the highest plane).
    fn copy_plane(&self, j: usize, out: &mut [u64]) {
        if j >= self.planes {
            out.fill(0);
        } else {
            out.copy_from_slice(&self.words[j * self.stride..(j + 1) * self.stride]);
        }
    }
}

/// The shared mask arena: spent word buffers waiting to be reissued.
#[derive(Debug, Default)]
struct WordPool {
    free: Vec<Vec<u64>>,
    fresh: u64,
    reused: u64,
}

impl WordPool {
    /// A zeroed buffer of exactly `words` words, recycled when possible.
    fn get(&mut self, words: usize) -> Vec<u64> {
        while let Some(mut buf) = self.free.pop() {
            if buf.len() == words {
                self.reused += 1;
                buf.fill(0);
                return buf;
            }
            // Stale geometry (machine rebuilt with another dim): discard.
        }
        self.fresh += 1;
        vec![0; words]
    }

    fn put(&mut self, buf: Vec<u64>) {
        if !buf.is_empty() {
            self.free.push(buf);
        }
    }
}

/// A boolean mask plane packed 64 PEs per `u64` word (row-major flat
/// order).
///
/// Buffers are leased from the backend's [`WordPool`]: dropping or cloning
/// a mask goes through the arena, so steady-state mask traffic allocates
/// nothing. Bits at positions `>= dim.len()` in the last word are always
/// zero (every producing operation maintains the invariant).
pub struct PackedMask {
    dim: Dim,
    words: Vec<u64>,
    pool: Rc<RefCell<WordPool>>,
}

impl PackedMask {
    /// Whether the bit for flat PE index `i` is set.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        bit(&self.words, i)
    }

    /// Number of set PEs (a popcount per word).
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The mask geometry.
    pub fn dim(&self) -> Dim {
        self.dim
    }

    /// Zeroes any bits at positions `>= dim.len()` in the last word.
    fn trim(&mut self) {
        let rem = self.dim.len() % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= range_mask(0, rem);
            }
        }
    }
}

impl Drop for PackedMask {
    fn drop(&mut self) {
        self.pool.borrow_mut().put(std::mem::take(&mut self.words));
    }
}

impl Clone for PackedMask {
    fn clone(&self) -> Self {
        let mut words = self.pool.borrow_mut().get(self.words.len());
        words.copy_from_slice(&self.words);
        PackedMask {
            dim: self.dim,
            words,
            pool: Rc::clone(&self.pool),
        }
    }
}

impl PartialEq for PackedMask {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim && self.words == other.words
    }
}

impl std::fmt::Debug for PackedMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedMask")
            .field("dim", &self.dim)
            .field("set", &self.count())
            .finish()
    }
}

/// A cached wired-OR cluster resolution for one (direction, Open mask)
/// pair.
#[derive(Debug)]
struct BusPlan {
    /// Flat index of the driving Open node, per PE (floating-segment key on
    /// driverless lines — see [`bus::cluster_keys`]).
    keys: Vec<u32>,
    /// Maximal runs of equal key as `(start, end, key)` flat-index ranges —
    /// populated only for row-axis plans, where each line's positions are
    /// contiguous in row-major order. A cluster that wraps around its line
    /// contributes two runs with the same key; the wired-OR fast path
    /// accumulates per key, so that is handled naturally.
    segs: Vec<(u32, u32, u32)>,
}

impl BusPlan {
    /// Derives the cluster plan for a packed Open mask from scratch — the
    /// wired-OR's cache-miss path.
    fn compute(dim: Dim, dir: Direction, words: &[u64]) -> BusPlan {
        let open: Vec<bool> = (0..dim.len()).map(|i| bit(words, i)).collect();
        let (keys, _) = bus::cluster_keys(dim, dir, &open);
        let mut segs = Vec::new();
        if dir.axis() == Axis::Row {
            for r in 0..dim.rows {
                let base = r * dim.cols;
                let mut s = base;
                for p in base + 1..base + dim.cols {
                    if keys[p] != keys[s] {
                        segs.push((s as u32, p as u32, keys[s]));
                        s = p;
                    }
                }
                segs.push((s as u32, (base + dim.cols) as u32, keys[s]));
            }
        }
        BusPlan { keys, segs }
    }
}

#[derive(Debug, Clone)]
struct PlanEntry {
    dim: Dim,
    dir: Direction,
    fp: u64,
    words: Vec<u64>,
    plan: Rc<BusPlan>,
}

/// FNV-1a over the packed words, seeded with the direction and the array
/// width: the same words laid out in rows of another length are another
/// bus configuration.
fn fingerprint(dim: Dim, dir: Direction, words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64
        ^ (dir as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (dim.cols as u64).wrapping_mul(0x2545_f491_4f6c_dd1d);
    for &w in words {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The packed bit-plane execution backend (see module docs).
#[derive(Debug, Clone)]
pub struct PackedBackend {
    pool: Rc<RefCell<WordPool>>,
    plans: Vec<PlanEntry>,
    plan_hits: u64,
    plan_misses: u64,
    /// Bit-slice memo, least recently used first.
    slices: Vec<BitSlices>,
    /// Broadcast scratch: a plane-form Open pattern, packed.
    scratch: Vec<u64>,
    /// Broadcast scratch: one row's Open columns.
    opens: Vec<usize>,
    /// Bench-gate mutation drill only: corrupt one bit of every vote.
    #[cfg(any(test, feature = "mutation-drill"))]
    perturb_vote: bool,
}

impl PackedBackend {
    /// A fresh backend with an empty arena, slice memo and plan cache.
    pub fn new() -> Self {
        PackedBackend {
            pool: Rc::new(RefCell::new(WordPool::default())),
            plans: Vec::new(),
            plan_hits: 0,
            plan_misses: 0,
            slices: Vec::new(),
            scratch: Vec::new(),
            opens: Vec::new(),
            #[cfg(any(test, feature = "mutation-drill"))]
            perturb_vote: false,
        }
    }

    /// A deliberately broken backend whose `vote` flips bit 0 of its first
    /// output word — the bench-gate mutation drill uses this to prove the
    /// scalar-vs-packed differential actually fails on a one-bit kernel
    /// corruption. Never compiled into release binaries.
    #[cfg(any(test, feature = "mutation-drill"))]
    pub fn with_perturbed_vote() -> Self {
        let mut be = PackedBackend::new();
        be.perturb_vote = true;
        be
    }

    fn alloc_mask(&mut self, dim: Dim) -> PackedMask {
        let words = self.pool.borrow_mut().get(words_for(dim));
        PackedMask {
            dim,
            words,
            pool: Rc::clone(&self.pool),
        }
    }

    /// The cached cluster plan for `open` given as packed words.
    fn plan_for_words(&mut self, dim: Dim, dir: Direction, words: &[u64]) -> Rc<BusPlan> {
        let fp = fingerprint(dim, dir, words);
        if let Some(pos) = self
            .plans
            .iter()
            .position(|e| e.dim == dim && e.dir == dir && e.fp == fp && e.words == words)
        {
            self.plan_hits += 1;
            let entry = self.plans.remove(pos);
            let plan = Rc::clone(&entry.plan);
            self.plans.push(entry); // LRU: most recent at the back
            return plan;
        }
        self.plan_misses += 1;
        let plan = Rc::new(BusPlan::compute(dim, dir, words));
        if self.plans.len() >= PLAN_CACHE_CAP {
            self.plans.remove(0);
        }
        self.plans.push(PlanEntry {
            dim,
            dir,
            fp,
            words: words.to_vec(),
            plan: Rc::clone(&plan),
        });
        plan
    }

    /// The memoized bit slices of `src`, transposing them on a miss into
    /// the least recently used entry's buffer.
    fn slices_for(&mut self, dim: Dim, src: &Plane<i64>) -> &BitSlices {
        let shared = src.shared();
        let entry = match self.slices.iter().position(|e| e.holds(dim, &shared)) {
            Some(pos) => self.slices.remove(pos),
            None => {
                let mut entry = if self.slices.len() >= SLICE_MEMO_CAP {
                    self.slices.remove(0)
                } else {
                    BitSlices::default()
                };
                entry.fill(dim, &shared, words_for(dim));
                entry
            }
        };
        self.slices.push(entry); // most recent at the back
        &self.slices[self.slices.len() - 1]
    }
}

impl Default for PackedBackend {
    fn default() -> Self {
        PackedBackend::new()
    }
}

impl Executor for PackedBackend {
    type Mask = PackedMask;

    const NAME: &'static str = "packed";

    fn mask_from_plane(&mut self, dim: Dim, plane: &Plane<bool>) -> PackedMask {
        let mut mask = self.alloc_mask(dim);
        pack(plane.as_slice(), &mut mask.words);
        mask
    }

    fn mask_to_plane(&self, dim: Dim, mask: &PackedMask) -> Plane<bool> {
        Plane::from_vec(dim, (0..dim.len()).map(|i| mask.bit(i)).collect())
    }

    fn mask_filled(&mut self, dim: Dim, value: bool) -> PackedMask {
        let mut mask = self.alloc_mask(dim);
        if value {
            mask.words.fill(!0);
            mask.trim();
        }
        mask
    }

    fn mask_count(&self, _dim: Dim, mask: &PackedMask) -> usize {
        mask.count()
    }

    fn bit_plane(&mut self, _mode: ExecMode, dim: Dim, src: &Plane<i64>, j: u32) -> PackedMask {
        let mut mask = self.alloc_mask(dim);
        self.slices_for(dim, src)
            .copy_plane(j as usize, &mut mask.words);
        mask
    }

    /// Min rule `e & !b`, Max rule `e & b`. `enable` has zero trailing
    /// bits, so the negation preserves the trim invariant.
    fn vote(
        &mut self,
        _mode: ExecMode,
        dim: Dim,
        enable: &PackedMask,
        bit: &PackedMask,
        keep_low: bool,
    ) -> PackedMask {
        let mut out = self.alloc_mask(dim);
        for ((w, &e), &b) in out.words.iter_mut().zip(&enable.words).zip(&bit.words) {
            *w = if keep_low { e & !b } else { e & b };
        }
        #[cfg(any(test, feature = "mutation-drill"))]
        if self.perturb_vote {
            out.words[0] ^= 1;
        }
        out
    }

    /// Min rule `e & !(p & b)`, Max rule `e & (!p | b)`.
    fn knockout(
        &mut self,
        _mode: ExecMode,
        dim: Dim,
        enable: &PackedMask,
        present: &PackedMask,
        bit: &PackedMask,
        keep_low: bool,
    ) -> PackedMask {
        let mut out = self.alloc_mask(dim);
        let operands = enable.words.iter().zip(&present.words).zip(&bit.words);
        for (w, ((&e, &p), &b)) in out.words.iter_mut().zip(operands) {
            *w = if keep_low { e & !(p & b) } else { e & (!p | b) };
        }
        out
    }

    fn mask_bus_or(
        &mut self,
        _mode: ExecMode,
        dim: Dim,
        values: &PackedMask,
        dir: Direction,
        open: &PackedMask,
    ) -> Result<PackedMask, MachineError> {
        let plan = self.plan_for_words(dim, dir, &open.words);
        let mut out = self.alloc_mask(dim);
        // Accumulator bitset indexed by cluster key: pass 1 deposits set
        // value bits at their cluster key, pass 2 reads each PE's key back.
        let mut acc = self.pool.borrow_mut().get(words_for(dim));
        if !plan.segs.is_empty() {
            // Row-axis fast path: each cluster is a handful of contiguous
            // runs, so both passes are word-masked range ops instead of
            // per-PE bit walks.
            for &(s, e, k) in &plan.segs {
                if range_any(&values.words, s as usize, e as usize) {
                    set_bit(&mut acc, k as usize);
                }
            }
            for &(s, e, k) in &plan.segs {
                if bit(&acc, k as usize) {
                    set_range(&mut out.words, s as usize, e as usize);
                }
            }
        } else {
            for (wi, &w) in values.words.iter().enumerate() {
                for_each_set_bit(w, |b| set_bit(&mut acc, plan.keys[wi * 64 + b] as usize));
            }
            for (w, keys) in out.words.iter_mut().zip(plan.keys.chunks(64)) {
                let mut word = 0u64;
                for (b, &key) in keys.iter().enumerate() {
                    word |= (bit(&acc, key as usize) as u64) << b;
                }
                *w = word;
            }
        }
        self.pool.borrow_mut().put(acc);
        Ok(out)
    }

    fn broadcast<T: Copy + Send + Sync + 'static>(
        &mut self,
        _mode: ExecMode,
        dim: Dim,
        src: &Plane<T>,
        dir: Direction,
        open: &Plane<bool>,
    ) -> Result<Plane<T>, MachineError> {
        bus::check_dim(dim, src.dim())?;
        bus::check_dim(dim, open.dim())?;
        self.scratch.clear();
        self.scratch.resize(words_for(dim), 0);
        pack(open.as_slice(), &mut self.scratch);
        let data = broadcast_rows(dim, src.as_slice(), dir, &self.scratch, &mut self.opens)?;
        Ok(Plane::from_vec(dim, data))
    }

    fn broadcast_masked<T: Copy + Send + Sync + 'static>(
        &mut self,
        _mode: ExecMode,
        dim: Dim,
        src: &Plane<T>,
        dir: Direction,
        open: &PackedMask,
    ) -> Result<Plane<T>, MachineError> {
        bus::check_dim(dim, src.dim())?;
        let data = broadcast_rows(dim, src.as_slice(), dir, &open.words, &mut self.opens)?;
        Ok(Plane::from_vec(dim, data))
    }

    fn stats(&self) -> ExecStats {
        let pool = self.pool.borrow();
        ExecStats {
            plan_hits: self.plan_hits,
            plan_misses: self.plan_misses,
            arena_fresh: pool.fresh,
            arena_reused: pool.reused,
        }
    }

    fn reset_stats(&mut self) {
        self.plan_hits = 0;
        self.plan_misses = 0;
        let mut pool = self.pool.borrow_mut();
        pool.fresh = 0;
        pool.reused = 0;
    }
}

impl Machine<PackedBackend> {
    /// Creates a `rows x cols` machine on the packed backend.
    pub fn new_packed(rows: usize, cols: usize) -> Self {
        Machine::with_backend(
            Dim::new(rows, cols),
            ExecMode::Sequential,
            PackedBackend::new(),
        )
    }

    /// Creates a square `n x n` machine on the packed backend.
    pub fn packed_square(n: usize) -> Self {
        Machine::new_packed(n, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::ScalarBackend;

    fn plane_of(dim: Dim, f: impl FnMut(usize) -> bool) -> Plane<bool> {
        Plane::from_vec(dim, (0..dim.len()).map(f).collect())
    }

    #[test]
    fn pack_roundtrip_preserves_bits() {
        let dim = Dim::new(5, 13); // 65 PEs: crosses a word boundary
        let plane = plane_of(dim, |i| i % 3 == 0 || i == 64);
        let mut be = PackedBackend::new();
        let mask = be.mask_from_plane(dim, &plane);
        assert_eq!(mask.count(), plane.count_true());
        assert_eq!(be.mask_to_plane(dim, &mask), plane);
    }

    // The `_w256` tests keep the cases once run on 256-bit words; on `u64`
    // words they cover planes whose rows or totals span four words or more.

    #[test]
    fn pack_roundtrip_preserves_bits_w256() {
        // 300 PEs: five words, bits set on both sides of bit 256, and a
        // partial trailing word (300 % 64 = 44 live bits).
        let dim = Dim::new(15, 20);
        let plane = plane_of(dim, |i| i % 3 == 0 || i == 255 || i == 256 || i == 299);
        let mut be = PackedBackend::new();
        let mask = be.mask_from_plane(dim, &plane);
        assert_eq!(mask.count(), plane.count_true());
        assert_eq!(be.mask_to_plane(dim, &mask), plane);
    }

    #[test]
    fn filled_mask_trims_trailing_bits() {
        let dim = Dim::new(3, 3);
        let mut be = PackedBackend::new();
        let mask = be.mask_filled(dim, true);
        assert_eq!(mask.count(), 9);
        assert_eq!(mask.words[0], 0x1ff);
    }

    #[test]
    fn filled_mask_trims_partial_trailing_word_w256() {
        // Trailing-word trim with 44, 0, 16, 2 and 0 live bits in the last
        // word, on masks of five to eight words.
        for (rows, cols) in [(1, 300), (1, 320), (1, 400), (1, 450), (2, 256)] {
            let dim = Dim::new(rows, cols);
            let mut be = PackedBackend::new();
            let mask = be.mask_filled(dim, true);
            assert_eq!(mask.count(), dim.len(), "dim {dim:?}");
            assert!((0..dim.len()).all(|i| mask.bit(i)), "dim {dim:?}");
            // Nothing past the live region in the last word.
            let last = *mask.words.last().unwrap();
            let rem = dim.len() % 64;
            if rem != 0 {
                assert_eq!(last >> rem, 0, "dim {dim:?}");
            }
        }
    }

    #[test]
    fn range_ops_cover_all_subword_offsets_w256() {
        // `range_any`/`set_range` with boundaries at and across the 64-bit
        // word boundaries of a 768-bit set, plus a full span.
        let bits = 768;
        for (s, e) in [
            (0, 64),
            (64, 128),
            (128, 192),
            (192, 256),
            (60, 70),
            (63, 65),
            (120, 200),
            (250, 300),
            (255, 257),
            (500, 768),
            (0, 768),
            (300, 300),
        ] {
            let mut words = vec![0u64; bits / 64];
            set_range(&mut words, s, e);
            let count: u32 = words.iter().map(|w| w.count_ones()).sum();
            assert_eq!(count as usize, e - s, "set_range {s}..{e}");
            for probe in 0..bits {
                let hit = range_any(&words, probe, probe + 1);
                assert_eq!(hit, (s..e).contains(&probe), "range {s}..{e} probe {probe}");
            }
            assert_eq!(range_any(&words, s, e), s != e);
            assert!(s == 0 || !range_any(&words, 0, s), "prefix clean {s}..{e}");
            assert!(
                e == bits || !range_any(&words, e, bits),
                "suffix clean {s}..{e}"
            );
        }
    }

    #[test]
    fn packed_bus_or_matches_scalar_reference() {
        // 9x9: row segments and column key walks straddle one word boundary.
        bus_or_matches_scalar(Dim::square(9));
    }

    #[test]
    fn packed_bus_or_matches_scalar_reference_w256() {
        // 21x21 = 441 PEs: seven words, so row segments and column key
        // walks straddle word boundaries at many offsets.
        bus_or_matches_scalar(Dim::square(21));
    }

    fn bus_or_matches_scalar(dim: Dim) {
        let mut packed = PackedBackend::new();
        let mut scalar = ScalarBackend;
        for (seed, dir) in [
            (3usize, Direction::East),
            (7, Direction::South),
            (11, Direction::West),
            (5, Direction::North),
        ] {
            let open = plane_of(dim, |i| (i * seed + 1) % 4 == 0);
            let vals = plane_of(dim, |i| (i * seed) % 5 == 0);
            let pm = packed.mask_from_plane(dim, &open);
            let pv = packed.mask_from_plane(dim, &vals);
            let got = packed
                .mask_bus_or(ExecMode::Sequential, dim, &pv, dir, &pm)
                .unwrap();
            let want = scalar
                .mask_bus_or(ExecMode::Sequential, dim, &vals, dir, &open)
                .unwrap();
            assert_eq!(packed.mask_to_plane(dim, &got), want, "{dim} {dir:?}");
        }
    }

    #[test]
    fn vote_and_knockout_match_scalar_at_w256() {
        let dim = Dim::new(9, 31); // 279 PEs: four full words and a partial one
        let mut packed = PackedBackend::new();
        let mut scalar = ScalarBackend;
        let enable = plane_of(dim, |i| i % 2 == 0);
        let present = plane_of(dim, |i| i % 3 != 0);
        let bit = plane_of(dim, |i| (i / 5) % 2 == 1);
        let (pe, pp, pb) = (
            packed.mask_from_plane(dim, &enable),
            packed.mask_from_plane(dim, &present),
            packed.mask_from_plane(dim, &bit),
        );
        let seq = ExecMode::Sequential;
        for keep_low in [true, false] {
            let got = packed.vote(seq, dim, &pe, &pb, keep_low);
            let want = scalar.vote(seq, dim, &enable, &bit, keep_low);
            assert_eq!(packed.mask_to_plane(dim, &got), want, "vote {keep_low}");
            let got = packed.knockout(seq, dim, &pe, &pp, &pb, keep_low);
            let want = scalar.knockout(seq, dim, &enable, &present, &bit, keep_low);
            assert_eq!(packed.mask_to_plane(dim, &got), want, "knockout {keep_low}");
        }
    }

    #[test]
    fn plan_cache_hits_on_repeated_configurations() {
        let dim = Dim::square(8);
        let mut be = PackedBackend::new();
        let open = be.mask_from_plane(dim, &plane_of(dim, |i| i % 8 == 0));
        let values = be.mask_from_plane(dim, &plane_of(dim, |i| i % 5 == 0));
        for _ in 0..5 {
            be.mask_bus_or(ExecMode::Sequential, dim, &values, Direction::East, &open)
                .unwrap();
        }
        let stats = be.stats();
        assert_eq!(stats.plan_misses, 1);
        assert_eq!(stats.plan_hits, 4);
        assert!(stats.plan_hit_rate() > 0.75);
    }

    #[test]
    fn broadcasts_never_consult_the_plan_cache() {
        let dim = Dim::square(8);
        let mut be = PackedBackend::new();
        let open = plane_of(dim, |i| i % 9 == 0); // the diagonal
        let mask = be.mask_from_plane(dim, &open);
        let src = Plane::from_vec(dim, (0..dim.len() as i64).collect());
        for dir in Direction::ALL {
            be.broadcast(ExecMode::Sequential, dim, &src, dir, &open)
                .unwrap();
            be.broadcast_masked(ExecMode::Sequential, dim, &src, dir, &mask)
                .unwrap();
        }
        let stats = be.stats();
        assert_eq!((stats.plan_hits, stats.plan_misses), (0, 0));
    }

    /// SplitMix64: a dependency-free stream for the randomized kernel tests.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Dims whose rows, columns or totals straddle 64-bit words.
    const STRADDLING_DIMS: [(usize, usize); 5] = [(5, 13), (9, 31), (1, 65), (65, 1), (21, 21)];

    /// Dims whose rows span four or more 64-bit words, or whose single
    /// column does.
    const WIDE_ROW_DIMS: [(usize, usize); 4] = [(2, 300), (3, 257), (1, 513), (260, 1)];

    #[test]
    fn broadcast_matches_bus_reference_at_w64() {
        broadcast_matches_reference(&STRADDLING_DIMS);
    }

    #[test]
    fn broadcast_matches_bus_reference_at_w256() {
        broadcast_matches_reference(&WIDE_ROW_DIMS);
    }

    fn broadcast_matches_reference(dims: &[(usize, usize)]) {
        let mut be = PackedBackend::new();
        let mut rng = 7u64;
        for &(rows, cols) in dims {
            let dim = Dim::new(rows, cols);
            let src = Plane::from_vec(
                dim,
                (0..dim.len()).map(|_| splitmix(&mut rng) as i64).collect(),
            );
            let flags = plane_of(dim, |i| i % 3 == 1);
            // One Open PE in `1 << density` on average: dense patterns,
            // sparse ones with a few driverless lines, and all-Short ones
            // where every line is driverless.
            for density in [1u32, 3, 5, 64] {
                for _ in 0..4 {
                    let open = plane_of(dim, |_| {
                        density < 64 && splitmix(&mut rng).trailing_zeros() >= density
                    });
                    let mask = be.mask_from_plane(dim, &open);
                    for dir in Direction::ALL {
                        let seq = ExecMode::Sequential;
                        let want = bus::broadcast(dim, &src, dir, &open);
                        let ctx = format!("{dim} density {density} {dir:?} open {open:?}");
                        assert_eq!(be.broadcast(seq, dim, &src, dir, &open), want, "{ctx}");
                        assert_eq!(
                            be.broadcast_masked(seq, dim, &src, dir, &mask),
                            want,
                            "{ctx}"
                        );
                        let want = bus::broadcast(dim, &flags, dir, &open);
                        assert_eq!(be.broadcast(seq, dim, &flags, dir, &open), want, "{ctx}");
                        assert_eq!(
                            be.broadcast_masked(seq, dim, &flags, dir, &mask),
                            want,
                            "{ctx}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn broadcast_rejects_mismatched_planes() {
        let dim = Dim::square(4);
        let mut be = PackedBackend::new();
        let src = Plane::filled(Dim::square(3), 1i64);
        let open = plane_of(dim, |_| true);
        let mask = be.mask_from_plane(dim, &open);
        let seq = ExecMode::Sequential;
        let want = Err(MachineError::DimMismatch {
            expected: dim,
            found: Dim::square(3),
        });
        assert_eq!(be.broadcast(seq, dim, &src, Direction::East, &open), want);
        assert_eq!(
            be.broadcast_masked(seq, dim, &src, Direction::East, &mask),
            want
        );
    }

    /// Bit `j` of every value, extracted one PE at a time.
    fn reference_bit_plane(src: &Plane<i64>, j: u32) -> Plane<bool> {
        src.map_free(|&x| (x >> j) & 1 == 1)
    }

    #[test]
    fn bit_slices_match_per_bit_extraction_at_w64() {
        bit_slices_match_reference(&STRADDLING_DIMS);
    }

    #[test]
    fn bit_slices_match_per_bit_extraction_at_w256() {
        bit_slices_match_reference(&WIDE_ROW_DIMS);
    }

    fn bit_slices_match_reference(dims: &[(usize, usize)]) {
        let mut be = PackedBackend::new();
        let mut rng = 11u64;
        for &(rows, cols) in dims {
            let dim = Dim::new(rows, cols);
            // Value widths from a single bit up to bit 62, the highest a
            // non-negative i64 can hold, plus an all-zero plane.
            for top in [0u32, 1, 7, 8, 9, 11, 16, 33, 62, 63] {
                let src = Plane::from_vec(
                    dim,
                    (0..dim.len())
                        .map(|_| (splitmix(&mut rng) & ((1u64 << top) - 1)) as i64)
                        .collect(),
                );
                for j in 0..63 {
                    let got = be.bit_plane(ExecMode::Sequential, dim, &src, j);
                    let want = reference_bit_plane(&src, j);
                    assert_eq!(be.mask_to_plane(dim, &got), want, "{dim} top {top} bit {j}");
                    // Trailing bits past the last PE stay clear.
                    assert_eq!(got.count(), want.count_true(), "{dim} top {top} bit {j}");
                }
            }
        }
    }

    /// `bit_plane` for every bit, unpacked.
    fn all_bits(be: &mut PackedBackend, src: &Plane<i64>) -> Vec<Plane<bool>> {
        let dim = src.dim();
        (0..12)
            .map(|j| {
                let m = be.bit_plane(ExecMode::Sequential, dim, src, j);
                be.mask_to_plane(dim, &m)
            })
            .collect()
    }

    fn reference_bits(src: &Plane<i64>) -> Vec<Plane<bool>> {
        (0..12).map(|j| reference_bit_plane(src, j)).collect()
    }

    fn memoized(be: &PackedBackend, src: &Plane<i64>) -> bool {
        be.slices.iter().any(|e| e.holds(src.dim(), &src.shared()))
    }

    #[test]
    fn slice_memo_misses_after_an_edit_in_place() {
        let dim = Dim::new(5, 13);
        let mut be = PackedBackend::new();
        let mut p = Plane::from_vec(dim, (0..dim.len() as i64).collect());
        assert_eq!(all_bits(&mut be, &p), reference_bits(&p));
        assert!(memoized(&be, &p));
        // `p` owns its buffer alone, so `set` edits without copying: the
        // memo's `Weak` must be disassociated, not matched.
        p.set(crate::geometry::Coord::new(0, 0), 2047);
        assert!(!memoized(&be, &p), "an edited plane must miss");
        assert_eq!(all_bits(&mut be, &p), reference_bits(&p));
        p.as_mut_slice()[64] = 1024;
        assert!(!memoized(&be, &p), "an edited plane must miss");
        assert_eq!(all_bits(&mut be, &p), reference_bits(&p));
    }

    #[test]
    fn slice_memo_misses_after_a_clone_is_edited() {
        let dim = Dim::new(9, 31);
        let mut be = PackedBackend::new();
        let p = Plane::from_vec(dim, (0..dim.len() as i64).map(|x| x * 3).collect());
        let mut q = p.clone();
        assert_eq!(all_bits(&mut be, &p), reference_bits(&p));
        assert!(memoized(&be, &q), "a clone shares the memoized storage");
        q.set(crate::geometry::Coord::new(8, 30), 1);
        assert!(!memoized(&be, &q), "the edited clone must miss");
        assert!(memoized(&be, &p), "the original still hits");
        assert_eq!(all_bits(&mut be, &q), reference_bits(&q));
        assert_eq!(all_bits(&mut be, &p), reference_bits(&p));
    }

    #[test]
    fn slice_memo_follows_alternating_sources() {
        let dim = Dim::square(21);
        let mut be = PackedBackend::new();
        let sources: Vec<Plane<i64>> = (0..3)
            .map(|k| Plane::from_vec(dim, (0..dim.len() as i64).map(|x| x * (k + 1)).collect()))
            .collect();
        for round in 0..3 {
            for (k, src) in sources.iter().enumerate() {
                assert_eq!(
                    all_bits(&mut be, src),
                    reference_bits(src),
                    "round {round} src {k}"
                );
            }
        }
        // Two sources stay memoized: the most recent two.
        assert_eq!(be.slices.len(), SLICE_MEMO_CAP);
        assert!(!memoized(&be, &sources[0]));
        assert!(memoized(&be, &sources[1]) && memoized(&be, &sources[2]));
    }

    #[test]
    fn slice_memo_is_keyed_by_dimension() {
        let (wide, square) = (Dim::new(1, 65), Dim::new(5, 13));
        let mut be = PackedBackend::new();
        let a = Plane::from_vec(wide, (0..65).map(|x| x * 5).collect());
        let b = Plane::from_vec(square, (0..65).map(|x| x * 7).collect());
        for _ in 0..2 {
            assert_eq!(all_bits(&mut be, &a), reference_bits(&a));
            assert_eq!(all_bits(&mut be, &b), reference_bits(&b));
        }
        // The same storage read under another geometry is a miss that
        // re-keys the entry.
        let m = be.bit_plane(ExecMode::Sequential, square, &a, 2);
        assert_eq!(be.slices.last().unwrap().dim, Some(square));
        let want = reference_bit_plane(&a, 2);
        assert!((0..65).all(|i| m.bit(i) == want.as_slice()[i]));
    }

    #[test]
    fn fingerprints_are_width_keyed() {
        // The same 64 Open bits read as an 8x8 and as a 4x16 array are
        // different bus layouts: a plan cached for one array width must
        // never be replayed against the other.
        let mut packed = PackedBackend::new();
        let mut scalar = ScalarBackend;
        for dim in [Dim::square(8), Dim::new(4, 16), Dim::square(8)] {
            let open = plane_of(dim, |i| i % 5 == 0);
            let vals = plane_of(dim, |i| i % 7 == 0);
            let pm = packed.mask_from_plane(dim, &open);
            let pv = packed.mask_from_plane(dim, &vals);
            let got = packed
                .mask_bus_or(ExecMode::Sequential, dim, &pv, Direction::East, &pm)
                .unwrap();
            let want = scalar
                .mask_bus_or(ExecMode::Sequential, dim, &vals, Direction::East, &open)
                .unwrap();
            assert_eq!(packed.mask_to_plane(dim, &got), want, "{dim}");
        }
        let stats = packed.stats();
        assert_eq!((stats.plan_misses, stats.plan_hits), (2, 1));
    }

    #[test]
    fn arena_recycles_mask_buffers() {
        let dim = Dim::square(16);
        let mut be = PackedBackend::new();
        for _ in 0..10 {
            let m = be.mask_filled(dim, true);
            drop(m);
        }
        let stats = be.stats();
        assert_eq!(stats.arena_fresh, 1, "one physical buffer serves the loop");
        assert_eq!(stats.arena_reused, 9);
    }

    #[test]
    fn driverless_broadcast_faults_like_scalar() {
        let dim = Dim::square(4);
        let mut be = PackedBackend::new();
        let open = plane_of(dim, |_| false);
        let mask = be.mask_from_plane(dim, &open);
        let src = Plane::filled(dim, 1i64);
        for dir in Direction::ALL {
            let want = Err(MachineError::BusFault {
                axis: dir.axis(),
                lines: vec![0, 1, 2, 3],
            });
            let seq = ExecMode::Sequential;
            assert_eq!(be.broadcast(seq, dim, &src, dir, &open), want);
            assert_eq!(be.broadcast_masked(seq, dim, &src, dir, &mask), want);
        }
    }

    #[test]
    fn perturbed_vote_differs_in_exactly_one_bit() {
        let dim = Dim::square(6);
        let enable = plane_of(dim, |i| i % 2 == 0);
        let bit = plane_of(dim, |i| i % 3 == 0);
        let mut clean = PackedBackend::new();
        let mut drilled = PackedBackend::with_perturbed_vote();
        let (ce, cb) = (
            clean.mask_from_plane(dim, &enable),
            clean.mask_from_plane(dim, &bit),
        );
        let (de, db) = (
            drilled.mask_from_plane(dim, &enable),
            drilled.mask_from_plane(dim, &bit),
        );
        let want = clean.vote(ExecMode::Sequential, dim, &ce, &cb, true);
        let got = drilled.vote(ExecMode::Sequential, dim, &de, &db, true);
        let diff: usize = (0..dim.len())
            .filter(|&i| want.bit(i) != got.bit(i))
            .count();
        assert_eq!(diff, 1, "exactly PE 0 corrupted");
    }
}
