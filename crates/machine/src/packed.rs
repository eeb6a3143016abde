//! The packed execution backend: wide-word bitset masks, a recycling plane
//! arena, plan-free broadcasts, memoized bit slices and a wired-OR plan
//! cache.
//!
//! [`PackedBackend`] implements [`Executor`] with these wall-clock levers
//! the scalar reference backend lacks:
//!
//! * **Packed masks** — every `Plane<bool>` mask inside the bit-serial
//!   `min`/`selected_min` loop is a [`PackedMask`]: `W::BITS` PEs per
//!   machine word (see the [`Word`] seam), so votes, knockouts and
//!   occupancy counting are word ops and popcounts instead of per-PE byte
//!   walks.
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
//!   the cache. Plans are fingerprinted per word width, so a 64-bit plan
//!   can never be replayed against 256-bit masks.
//!
//! The backend is generic over the machine word: `PackedBackend<W64>` (the
//! default) is the historical u64 backend, `PackedBackend<W256>` runs the
//! same kernels over 256-bit SWAR words. Semantics are bit-identical to
//! [`ScalarBackend`](crate::ScalarBackend) at every width: the differential
//! suites in `tests/backend_diff.rs` and `tests/backend_width.rs` assert
//! values *and* step counts across backends and widths.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Weak};

use crate::bus;
use crate::engine::ExecMode;
use crate::error::MachineError;
use crate::geometry::{Axis, Dim, Direction};
use crate::isa::{ExecStats, Executor};
use crate::machine::Machine;
use crate::plane::Plane;
use crate::word::{Word, W64};

/// Retained wired-OR plans; a `min` scan replays one configuration per
/// call and the MCP loop uses only a few, so a small LRU never evicts a
/// live plan while tolerating mask churn.
pub(crate) const PLAN_CACHE_CAP: usize = 32;

/// Source planes whose bit slices stay memoized: the running `min` scan's
/// source plus one loop-invariant source (statement 12's `COL`), which
/// then hits across iterations.
const SLICE_MEMO_CAP: usize = 2;

/// Number of `W`-words needed to back one bit per PE of `dim` — the
/// width-neutral stride every packed buffer is sized with.
pub(crate) fn words_for<W: Word>(dim: Dim) -> usize {
    dim.len().div_ceil(W::BITS)
}

/// Whether any bit in `start..end` of a flat bitset is set.
pub(crate) fn range_any<W: Word>(words: &[W], start: usize, end: usize) -> bool {
    let mut i = start;
    while i < end {
        let wi = i / W::BITS;
        let off = i % W::BITS;
        let take = (W::BITS - off).min(end - i);
        if !(words[wi] & W::range_mask(off, off + take)).is_zero() {
            return true;
        }
        i += take;
    }
    false
}

/// Sets every bit in `start..end` of a flat bitset.
pub(crate) fn set_range<W: Word>(words: &mut [W], start: usize, end: usize) {
    let mut i = start;
    while i < end {
        let wi = i / W::BITS;
        let off = i % W::BITS;
        let take = (W::BITS - off).min(end - i);
        words[wi] |= W::range_mask(off, off + take);
        i += take;
    }
}

// ----- word kernels ---------------------------------------------------
//
// The per-word mechanics of every packed mask micro-op, written over a
// word range `w0..w0 + out.len()` so the threaded backend can shard the
// same kernels across its worker pool. The packed backend always calls
// them with the full range; bit-identity across the two backends is
// therefore structural, not coincidental. All kernels are generic over
// the machine word and build output words limb-by-limb, so `W64` compiles
// to exactly the historical u64 loops.

/// Packs the booleans backing words `w0..` of a flat plane into `out`.
pub(crate) fn pack_range<W: Word>(src: &[bool], w0: usize, out: &mut [W]) {
    for (k, w) in out.iter_mut().enumerate() {
        let base = (w0 + k) * W::BITS;
        let top = W::BITS.min(src.len() - base);
        let mut word = W::zero();
        let mut done = 0;
        while done < top {
            let take = 64.min(top - done);
            word.set_limb(done / 64, pack_limb(&src[base + done..base + done + take]));
            done += take;
        }
        *w = word;
    }
}

/// Packs up to 64 booleans into a limb, eight at a time: a `bool` is a 0/1
/// byte, so eight of them load as one word whose byte lanes one multiply
/// gathers into a byte of bits.
fn pack_limb(bools: &[bool]) -> u64 {
    let mut chunks = bools.chunks_exact(8);
    let mut limb = 0u64;
    for (g, chunk) in (&mut chunks).enumerate() {
        let lanes = u64::from_le_bytes(std::array::from_fn(|t| chunk[t] as u8));
        limb |= (lanes.wrapping_mul(GATHER_LSBS) >> 56) << (8 * g);
    }
    let done = bools.len() - chunks.remainder().len();
    for (b, &v) in chunks.remainder().iter().enumerate() {
        limb |= (v as u64) << (done + b);
    }
    limb
}

/// Extracts bit `j` of the values backing words `w0..` into `out`.
pub(crate) fn bit_plane_range<W: Word>(src: &[i64], j: u32, w0: usize, out: &mut [W]) {
    for (k, w) in out.iter_mut().enumerate() {
        let base = (w0 + k) * W::BITS;
        let top = W::BITS.min(src.len() - base);
        let mut word = W::zero();
        let mut done = 0;
        while done < top {
            let take = 64.min(top - done);
            let mut limb = 0u64;
            for (b, &x) in src[base + done..base + done + take].iter().enumerate() {
                debug_assert!(x >= 0, "bit-serial scan expects non-negative values");
                limb |= (((x >> j) & 1) as u64) << b;
            }
            word.set_limb(done / 64, limb);
            done += take;
        }
        *w = word;
    }
}

/// The voting step over words `w0..`: Min rule `e & !b`, Max rule `e & b`.
/// `enable` has zero trailing bits, so the negation preserves the trim
/// invariant.
pub(crate) fn vote_range<W: Word>(e: &[W], b: &[W], keep_low: bool, w0: usize, out: &mut [W]) {
    for (k, w) in out.iter_mut().enumerate() {
        let (ew, bw) = (e[w0 + k], b[w0 + k]);
        *w = if keep_low { ew & !bw } else { ew & bw };
    }
}

/// The knockout step over words `w0..`: Min rule `e & !(p & b)`, Max rule
/// `e & (!p | b)`.
pub(crate) fn knockout_range<W: Word>(
    e: &[W],
    p: &[W],
    b: &[W],
    keep_low: bool,
    w0: usize,
    out: &mut [W],
) {
    for (k, w) in out.iter_mut().enumerate() {
        let (ew, pw, bw) = (e[w0 + k], p[w0 + k], b[w0 + k]);
        *w = if keep_low {
            ew & !(pw & bw)
        } else {
            ew & (!pw | bw)
        };
    }
}

/// Wired-OR pass 1 over row-run segments: deposits a bit at the cluster
/// key of every segment that contains a set value bit.
pub(crate) fn bus_or_deposit_segs<W: Word>(values: &[W], segs: &[(u32, u32, u32)], acc: &mut [W]) {
    for &(s, e, k) in segs {
        if range_any(values, s as usize, e as usize) {
            let k = k as usize;
            acc[k / W::BITS] = acc[k / W::BITS].with_bit(k % W::BITS);
        }
    }
}

/// Wired-OR pass 2 over row-run segments: fills every segment whose
/// cluster key is lit in `acc`.
pub(crate) fn bus_or_fill_segs<W: Word>(acc: &[W], segs: &[(u32, u32, u32)], out: &mut [W]) {
    for &(s, e, k) in segs {
        let k = k as usize;
        if acc[k / W::BITS].bit(k % W::BITS) {
            set_range(out, s as usize, e as usize);
        }
    }
}

/// Wired-OR pass 1, general axis: deposits the set bits of `values`
/// words `w0..w0 + nwords` at their cluster keys.
pub(crate) fn bus_or_deposit_keys<W: Word>(
    values: &[W],
    keys: &[u32],
    w0: usize,
    nwords: usize,
    acc: &mut [W],
) {
    for wi in w0..w0 + nwords {
        values[wi].for_each_set_bit(|b| {
            let key = keys[wi * W::BITS + b] as usize;
            acc[key / W::BITS] = acc[key / W::BITS].with_bit(key % W::BITS);
        });
    }
}

/// Wired-OR pass 2, general axis: words `w0..` of the result, each PE
/// reading its cluster key back from `acc` (`len` is the PE count).
pub(crate) fn bus_or_read_keys<W: Word>(
    acc: &[W],
    keys: &[u32],
    len: usize,
    w0: usize,
    out: &mut [W],
) {
    for (k, w) in out.iter_mut().enumerate() {
        let base = (w0 + k) * W::BITS;
        let top = W::BITS.min(len - base);
        let mut word = W::zero();
        let mut done = 0;
        while done < top {
            let take = 64.min(top - done);
            let mut limb = 0u64;
            for b in 0..take {
                let key = keys[base + done + b] as usize;
                limb |= (acc[key / W::BITS].bit(key % W::BITS) as u64) << b;
            }
            word.set_limb(done / 64, limb);
            done += take;
        }
        *w = word;
    }
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
fn open_cols<W: Word>(open: &[W], dim: Dim, r: usize, out: &mut Vec<usize>) {
    let (start, end) = (r * dim.cols, (r + 1) * dim.cols);
    let mut i = start;
    while i < end {
        let (wi, off) = (i / W::BITS, i % W::BITS);
        let take = (W::BITS - off).min(end - i);
        let word_start = wi * W::BITS;
        (open[wi] & W::range_mask(off, off + take))
            .for_each_set_bit(|b| out.push(word_start + b - start));
        i += take;
    }
}

/// Cluster-head broadcast of `src` along `dir` under the packed Open
/// pattern `open`, with [`bus::broadcast`]'s semantics and fault: lines
/// without an Open node are reported, ascending, as a
/// [`MachineError::BusFault`]. `opens` is caller-owned scratch.
fn broadcast_rows<T: Copy, W: Word>(
    dim: Dim,
    src: &[T],
    dir: Direction,
    open: &[W],
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
    /// 64-bit limbs per plane (whole `W` words).
    stride: usize,
    /// Plane `j` is `limbs[j * stride..(j + 1) * stride]`, 64 PEs a limb.
    limbs: Vec<u64>,
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
        self.limbs.clear();
        self.limbs.resize(planes * stride, 0);
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
                    let mut limb = 0u64;
                    for (g, &x) in lane.iter().enumerate() {
                        limb |= (((x >> b) & BYTE_LSBS).wrapping_mul(GATHER_LSBS) >> 56) << (8 * g);
                    }
                    self.limbs[(8 * k + b) * stride + l] = limb;
                }
            }
        }
    }

    /// Copies plane `j` into `out` (all zeros above the highest plane).
    fn copy_plane<W: Word>(&self, j: usize, out: &mut [W]) {
        if j >= self.planes {
            out.fill(W::zero());
            return;
        }
        let plane = &self.limbs[j * self.stride..(j + 1) * self.stride];
        for (w, limbs) in out.iter_mut().zip(plane.chunks_exact(W::LIMBS)) {
            for (i, &limb) in limbs.iter().enumerate() {
                w.set_limb(i, limb);
            }
        }
    }
}

/// The shared mask arena: spent word buffers waiting to be reissued.
#[derive(Debug)]
pub(crate) struct WordPool<W> {
    free: Vec<Vec<W>>,
    pub(crate) fresh: u64,
    pub(crate) reused: u64,
}

impl<W> Default for WordPool<W> {
    fn default() -> Self {
        WordPool {
            free: Vec::new(),
            fresh: 0,
            reused: 0,
        }
    }
}

impl<W: Word> WordPool<W> {
    /// A zeroed buffer of exactly `words` words, recycled when possible.
    pub(crate) fn get(&mut self, words: usize) -> Vec<W> {
        while let Some(mut buf) = self.free.pop() {
            if buf.len() == words {
                self.reused += 1;
                buf.fill(W::zero());
                return buf;
            }
            // Stale geometry (machine rebuilt with another dim): discard.
        }
        self.fresh += 1;
        vec![W::zero(); words]
    }

    pub(crate) fn put(&mut self, buf: Vec<W>) {
        if !buf.is_empty() {
            self.free.push(buf);
        }
    }
}

/// A boolean mask plane packed `W::BITS` PEs per machine word (row-major
/// flat order).
///
/// Buffers are leased from the backend's [`WordPool`]: dropping or cloning
/// a mask goes through the arena, so steady-state mask traffic allocates
/// nothing. Bits at positions `>= dim.len()` in the last word are always
/// zero (every producing operation maintains the invariant).
pub struct PackedMask<W: Word = W64> {
    dim: Dim,
    words: Vec<W>,
    pool: Rc<RefCell<WordPool<W>>>,
}

impl<W: Word> PackedMask<W> {
    /// Whether the bit for flat PE index `i` is set.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        self.words[i / W::BITS].bit(i % W::BITS)
    }

    /// Number of set PEs (a popcount per word).
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// The mask geometry.
    pub fn dim(&self) -> Dim {
        self.dim
    }

    /// Zeroes any bits at positions `>= dim.len()` in the last word.
    fn trim(&mut self) {
        let rem = self.dim.len() % W::BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= W::low_mask(rem);
            }
        }
    }
}

impl<W: Word> Drop for PackedMask<W> {
    fn drop(&mut self) {
        self.pool.borrow_mut().put(std::mem::take(&mut self.words));
    }
}

impl<W: Word> Clone for PackedMask<W> {
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

impl<W: Word> PartialEq for PackedMask<W> {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim && self.words == other.words
    }
}

impl<W: Word> std::fmt::Debug for PackedMask<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedMask")
            .field("dim", &self.dim)
            .field("word_bits", &W::BITS)
            .field("set", &self.count())
            .finish()
    }
}

/// A cached bus-cluster resolution for one (direction, Open mask) pair.
#[derive(Debug)]
pub(crate) struct BusPlan {
    /// Flat index of the driving Open node, per PE (floating-segment key on
    /// driverless lines — see [`bus::cluster_keys`]).
    pub(crate) keys: Vec<u32>,
    /// Lines with no Open node (broadcast faults on these; wired-OR spans).
    pub(crate) driverless: Vec<usize>,
    /// Maximal runs of equal key as `(start, end, key)` flat-index ranges —
    /// populated only for row-axis plans, where each line's positions are
    /// contiguous in row-major order. A cluster that wraps around its line
    /// contributes two runs with the same key; the wired-OR fast path
    /// accumulates per key, so that is handled naturally.
    pub(crate) segs: Vec<(u32, u32, u32)>,
}

/// Derives the cluster plan for a packed Open mask from scratch — the
/// packed wired-OR's cache-miss path, and every plan the threaded backend
/// caches (its broadcasts still replay plans).
pub(crate) fn compute_plan<W: Word>(dim: Dim, dir: Direction, words: &[W]) -> BusPlan {
    let mut open = vec![false; dim.len()];
    for (i, o) in open.iter_mut().enumerate() {
        *o = words[i / W::BITS].bit(i % W::BITS);
    }
    let (keys, driverless) = bus::cluster_keys(dim, dir, &open);
    let segs = if dir.axis() == Axis::Row {
        let mut segs = Vec::new();
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
        segs
    } else {
        Vec::new()
    };
    BusPlan {
        keys,
        driverless,
        segs,
    }
}

#[derive(Debug, Clone)]
struct PlanEntry<W> {
    dir: Direction,
    fp: u64,
    words: Vec<W>,
    plan: Rc<BusPlan>,
}

/// FNV-1a over the packed words, seeded with the direction *and* the word
/// width, so plans can never be confused across widths even if two mask
/// encodings happen to share limb values.
pub(crate) fn fingerprint<W: Word>(dir: Direction, words: &[W]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64
        ^ (dir as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (W::BITS as u64).wrapping_mul(0x2545_f491_4f6c_dd1d);
    for &w in words {
        h = w.fold_fnv(h);
    }
    h
}

/// The packed bit-plane execution backend (see module docs), generic over
/// the machine word `W`.
#[derive(Debug, Clone)]
pub struct PackedBackend<W: Word = W64> {
    pool: Rc<RefCell<WordPool<W>>>,
    plans: Vec<PlanEntry<W>>,
    plan_hits: u64,
    plan_misses: u64,
    /// Bit-slice memo, least recently used first.
    slices: Vec<BitSlices>,
    /// Broadcast scratch: a plane-form Open pattern, packed.
    scratch: Vec<W>,
    /// Broadcast scratch: one row's Open columns.
    opens: Vec<usize>,
    /// Bench-gate mutation drill only: corrupt one bit of every vote.
    #[cfg(any(test, feature = "mutation-drill"))]
    perturb_vote: bool,
}

impl<W: Word> PackedBackend<W> {
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
    /// width differential actually fails on a one-bit kernel corruption.
    /// Never compiled into release binaries.
    #[cfg(any(test, feature = "mutation-drill"))]
    pub fn with_perturbed_vote() -> Self {
        let mut be = PackedBackend::new();
        be.perturb_vote = true;
        be
    }

    fn alloc_mask(&mut self, dim: Dim) -> PackedMask<W> {
        let words = self.pool.borrow_mut().get(words_for::<W>(dim));
        PackedMask {
            dim,
            words,
            pool: Rc::clone(&self.pool),
        }
    }

    /// The cached cluster plan for `open` given as packed words.
    fn plan_for_words(&mut self, dim: Dim, dir: Direction, words: &[W]) -> Rc<BusPlan> {
        let fp = fingerprint(dir, words);
        if let Some(pos) = self
            .plans
            .iter()
            .position(|e| e.dir == dir && e.fp == fp && e.words == words)
        {
            self.plan_hits += 1;
            let entry = self.plans.remove(pos);
            let plan = Rc::clone(&entry.plan);
            self.plans.push(entry); // LRU: most recent at the back
            return plan;
        }
        self.plan_misses += 1;
        let plan = Rc::new(compute_plan(dim, dir, words));
        if self.plans.len() >= PLAN_CACHE_CAP {
            self.plans.remove(0);
        }
        self.plans.push(PlanEntry {
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
                entry.fill(dim, &shared, words_for::<W>(dim) * W::LIMBS);
                entry
            }
        };
        self.slices.push(entry); // most recent at the back
        &self.slices[self.slices.len() - 1]
    }
}

impl<W: Word> Default for PackedBackend<W> {
    fn default() -> Self {
        PackedBackend::new()
    }
}

impl<W: Word> Executor for PackedBackend<W> {
    type Mask = PackedMask<W>;

    const NAME: &'static str = W::PACKED_NAME;

    fn mask_from_plane(&mut self, dim: Dim, plane: &Plane<bool>) -> PackedMask<W> {
        let mut mask = self.alloc_mask(dim);
        pack_range(plane.as_slice(), 0, &mut mask.words);
        mask
    }

    fn mask_to_plane(&self, dim: Dim, mask: &PackedMask<W>) -> Plane<bool> {
        Plane::from_vec(dim, (0..dim.len()).map(|i| mask.bit(i)).collect())
    }

    fn mask_filled(&mut self, dim: Dim, value: bool) -> PackedMask<W> {
        let mut mask = self.alloc_mask(dim);
        if value {
            mask.words.fill(W::ones());
            mask.trim();
        }
        mask
    }

    fn mask_count(&self, _dim: Dim, mask: &PackedMask<W>) -> usize {
        mask.count()
    }

    fn bit_plane(&mut self, _mode: ExecMode, dim: Dim, src: &Plane<i64>, j: u32) -> PackedMask<W> {
        let mut mask = self.alloc_mask(dim);
        self.slices_for(dim, src)
            .copy_plane(j as usize, &mut mask.words);
        mask
    }

    fn vote(
        &mut self,
        _mode: ExecMode,
        dim: Dim,
        enable: &PackedMask<W>,
        bit: &PackedMask<W>,
        keep_low: bool,
    ) -> PackedMask<W> {
        let mut out = self.alloc_mask(dim);
        vote_range(&enable.words, &bit.words, keep_low, 0, &mut out.words);
        #[cfg(any(test, feature = "mutation-drill"))]
        if self.perturb_vote {
            out.words[0] ^= W::zero().with_bit(0);
        }
        out
    }

    fn knockout(
        &mut self,
        _mode: ExecMode,
        dim: Dim,
        enable: &PackedMask<W>,
        present: &PackedMask<W>,
        bit: &PackedMask<W>,
        keep_low: bool,
    ) -> PackedMask<W> {
        let mut out = self.alloc_mask(dim);
        knockout_range(
            &enable.words,
            &present.words,
            &bit.words,
            keep_low,
            0,
            &mut out.words,
        );
        out
    }

    fn mask_bus_or(
        &mut self,
        _mode: ExecMode,
        dim: Dim,
        values: &PackedMask<W>,
        dir: Direction,
        open: &PackedMask<W>,
    ) -> Result<PackedMask<W>, MachineError> {
        let plan = self.plan_for_words(dim, dir, &open.words);
        let nwords = words_for::<W>(dim);
        let mut out = self.alloc_mask(dim);
        // Accumulator bitset indexed by cluster key: pass 1 deposits set
        // value bits at their cluster key, pass 2 reads each PE's key back.
        let mut acc = self.pool.borrow_mut().get(nwords);
        if !plan.segs.is_empty() {
            // Row-axis fast path: each cluster is a handful of contiguous
            // runs, so both passes are word-masked range ops instead of
            // per-PE bit walks.
            bus_or_deposit_segs(&values.words, &plan.segs, &mut acc);
            bus_or_fill_segs(&acc, &plan.segs, &mut out.words);
        } else {
            bus_or_deposit_keys(&values.words, &plan.keys, 0, nwords, &mut acc);
            bus_or_read_keys(&acc, &plan.keys, dim.len(), 0, &mut out.words);
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
        self.scratch.resize(words_for::<W>(dim), W::zero());
        pack_range(open.as_slice(), 0, &mut self.scratch);
        let data = broadcast_rows(dim, src.as_slice(), dir, &self.scratch, &mut self.opens)?;
        Ok(Plane::from_vec(dim, data))
    }

    fn broadcast_masked<T: Copy + Send + Sync + 'static>(
        &mut self,
        _mode: ExecMode,
        dim: Dim,
        src: &Plane<T>,
        dir: Direction,
        open: &PackedMask<W>,
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
    /// Creates a `rows x cols` machine on the packed backend (64-bit words).
    pub fn new_packed(rows: usize, cols: usize) -> Self {
        Machine::new_packed_wide(rows, cols)
    }

    /// Creates a square `n x n` machine on the packed backend (64-bit words).
    pub fn packed_square(n: usize) -> Self {
        Machine::new_packed(n, n)
    }
}

impl<W: Word> Machine<PackedBackend<W>> {
    /// Creates a `rows x cols` machine on the packed backend with machine
    /// word `W`.
    pub fn new_packed_wide(rows: usize, cols: usize) -> Self {
        Machine::with_backend(
            Dim::new(rows, cols),
            ExecMode::Sequential,
            PackedBackend::new(),
        )
    }

    /// Creates a square `n x n` machine on the packed backend with machine
    /// word `W`.
    pub fn packed_square_wide(n: usize) -> Self {
        Machine::new_packed_wide(n, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::ScalarBackend;
    use crate::word::W256;

    fn plane_of(dim: Dim, f: impl FnMut(usize) -> bool) -> Plane<bool> {
        Plane::from_vec(dim, (0..dim.len()).map(f).collect())
    }

    #[test]
    fn pack_roundtrip_preserves_bits() {
        let dim = Dim::new(5, 13); // 65 PEs: crosses a word boundary
        let plane = plane_of(dim, |i| i % 3 == 0 || i == 64);
        let mut be = PackedBackend::<W64>::new();
        let mask = be.mask_from_plane(dim, &plane);
        assert_eq!(mask.count(), plane.count_true());
        assert_eq!(be.mask_to_plane(dim, &mask), plane);
    }

    #[test]
    fn pack_roundtrip_preserves_bits_w256() {
        // 300 PEs: crosses a 256-bit word boundary, with a partial
        // trailing word (300 % 256 = 44 live bits in the last word).
        let dim = Dim::new(15, 20);
        let plane = plane_of(dim, |i| i % 3 == 0 || i == 255 || i == 256 || i == 299);
        let mut be = PackedBackend::<W256>::new();
        let mask = be.mask_from_plane(dim, &plane);
        assert_eq!(mask.count(), plane.count_true());
        assert_eq!(be.mask_to_plane(dim, &mask), plane);
    }

    #[test]
    fn filled_mask_trims_trailing_bits() {
        let dim = Dim::new(3, 3);
        let mut be = PackedBackend::<W64>::new();
        let mask = be.mask_filled(dim, true);
        assert_eq!(mask.count(), 9);
        assert_eq!(mask.words[0], 0x1ff);
    }

    #[test]
    fn filled_mask_trims_partial_trailing_word_w256() {
        // Trailing-word trim at each sub-word (limb) offset of the 256-bit
        // word: dims whose `len % 256` falls in limb 0, 1, 2 and 3.
        for (rows, cols) in [(1, 300), (1, 320), (1, 400), (1, 450), (2, 256)] {
            let dim = Dim::new(rows, cols);
            let mut be = PackedBackend::<W256>::new();
            let mask = be.mask_filled(dim, true);
            assert_eq!(mask.count(), dim.len(), "dim {dim:?}");
            for i in 0..dim.len() {
                assert!(mask.bit(i));
            }
            // Nothing past the live region in the last word.
            let last = *mask.words.last().unwrap();
            let rem = dim.len() % 256;
            if rem != 0 {
                assert_eq!(last & !W256::low_mask(rem), W256::zero(), "dim {dim:?}");
            }
        }
    }

    #[test]
    fn range_ops_cover_all_subword_offsets_w256() {
        // `range_any`/`set_range` with boundaries at all four 64-bit limb
        // offsets inside a 256-bit word, plus straddles and a full span.
        let nwords = 3; // 768 bits
        for (s, e) in [
            (0, 64),
            (64, 128),
            (128, 192),
            (192, 256),
            (60, 70),
            (120, 200),
            (250, 300), // straddles the word boundary
            (255, 257), // one bit each side of the boundary
            (500, 768), // runs to the very end
            (0, 768),   // everything
            (300, 300), // empty
        ] {
            let mut words = vec![W256::zero(); nwords];
            set_range(&mut words, s, e);
            let mut count = 0;
            for w in &words {
                count += w.count_ones();
            }
            assert_eq!(count, e - s, "set_range {s}..{e}");
            for probe in 0..768 {
                let hit = range_any(&words, probe, probe + 1);
                assert_eq!(hit, (s..e).contains(&probe), "range {s}..{e} probe {probe}");
            }
            // range_any over the exact range, just outside it, and empty.
            assert_eq!(range_any(&words, s, e), s != e);
            if s > 0 {
                assert!(!range_any(&words, 0, s), "prefix clean {s}..{e}");
            }
            if e < 768 {
                assert!(!range_any(&words, e, 768), "suffix clean {s}..{e}");
            }
        }
    }

    #[test]
    fn packed_bus_or_matches_scalar_reference() {
        let dim = Dim::square(9);
        let mut packed = PackedBackend::<W64>::new();
        let mut scalar = ScalarBackend;
        for (seed, dir) in [(3usize, Direction::East), (7, Direction::South)] {
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
            assert_eq!(packed.mask_to_plane(dim, &got), want, "dir {dir:?}");
        }
    }

    #[test]
    fn packed_bus_or_matches_scalar_reference_w256() {
        // 21x21 = 441 PEs: row segments and column key walks both straddle
        // the 256-bit word boundary.
        let dim = Dim::square(21);
        let mut packed = PackedBackend::<W256>::new();
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
            assert_eq!(packed.mask_to_plane(dim, &got), want, "dir {dir:?}");
        }
    }

    #[test]
    fn vote_and_knockout_match_scalar_at_w256() {
        let dim = Dim::new(9, 31); // 279 PEs: straddles the 256-bit boundary
        let mut packed = PackedBackend::<W256>::new();
        let mut scalar = ScalarBackend;
        let enable = plane_of(dim, |i| i % 2 == 0);
        let present = plane_of(dim, |i| i % 3 != 0);
        let bit = plane_of(dim, |i| (i / 5) % 2 == 1);
        let (pe, pp, pb) = (
            packed.mask_from_plane(dim, &enable),
            packed.mask_from_plane(dim, &present),
            packed.mask_from_plane(dim, &bit),
        );
        for keep_low in [true, false] {
            let got = packed.vote(ExecMode::Sequential, dim, &pe, &pb, keep_low);
            let want = scalar.vote(ExecMode::Sequential, dim, &enable, &bit, keep_low);
            assert_eq!(packed.mask_to_plane(dim, &got), want, "vote {keep_low}");
            let got = packed.knockout(ExecMode::Sequential, dim, &pe, &pp, &pb, keep_low);
            let want =
                scalar.knockout(ExecMode::Sequential, dim, &enable, &present, &bit, keep_low);
            assert_eq!(packed.mask_to_plane(dim, &got), want, "knockout {keep_low}");
        }
    }

    #[test]
    fn plan_cache_hits_on_repeated_configurations() {
        let dim = Dim::square(8);
        let mut be = PackedBackend::<W64>::new();
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
        let mut be = PackedBackend::<W64>::new();
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

    /// Dims whose rows, columns or totals straddle 64- and 256-bit words.
    const STRADDLING_DIMS: [(usize, usize); 5] = [(5, 13), (9, 31), (1, 65), (65, 1), (21, 21)];

    fn broadcast_matches_reference<W: Word>() {
        let mut be = PackedBackend::<W>::new();
        let mut rng = 7u64;
        for (rows, cols) in STRADDLING_DIMS {
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
                        let want = bus::broadcast(seq, dim, &src, dir, &open);
                        let ctx = format!("{dim} density {density} {dir:?} open {open:?}");
                        assert_eq!(be.broadcast(seq, dim, &src, dir, &open), want, "{ctx}");
                        assert_eq!(
                            be.broadcast_masked(seq, dim, &src, dir, &mask),
                            want,
                            "{ctx}"
                        );
                        let want = bus::broadcast(seq, dim, &flags, dir, &open);
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
    fn broadcast_matches_bus_reference_at_w64() {
        broadcast_matches_reference::<W64>();
    }

    #[test]
    fn broadcast_matches_bus_reference_at_w256() {
        broadcast_matches_reference::<W256>();
    }

    #[test]
    fn broadcast_rejects_mismatched_planes() {
        let dim = Dim::square(4);
        let mut be = PackedBackend::<W64>::new();
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

    fn bit_slices_match_reference<W: Word>() {
        let mut be = PackedBackend::<W>::new();
        let mut rng = 11u64;
        for (rows, cols) in STRADDLING_DIMS {
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

    #[test]
    fn bit_slices_match_per_bit_extraction_at_w64() {
        bit_slices_match_reference::<W64>();
    }

    #[test]
    fn bit_slices_match_per_bit_extraction_at_w256() {
        bit_slices_match_reference::<W256>();
    }

    /// `bit_plane` for every bit, unpacked.
    fn all_bits<W: Word>(be: &mut PackedBackend<W>, src: &Plane<i64>) -> Vec<Plane<bool>> {
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

    fn memoized<W: Word>(be: &PackedBackend<W>, src: &Plane<i64>) -> bool {
        be.slices.iter().any(|e| e.holds(src.dim(), &src.shared()))
    }

    #[test]
    fn slice_memo_misses_after_an_edit_in_place() {
        let dim = Dim::new(5, 13);
        let mut be = PackedBackend::<W64>::new();
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
        let mut be = PackedBackend::<W256>::new();
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
        let mut be = PackedBackend::<W64>::new();
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
        let mut be = PackedBackend::<W256>::new();
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
        // The same mask content packed at different widths must produce
        // different plan fingerprints: a plan computed for W64 words can
        // never be replayed against W256 masks.
        let dim = Dim::square(8);
        let plane = plane_of(dim, |i| i % 8 == 0);
        let mut w64 = vec![W64::zero(); words_for::<W64>(dim)];
        pack_range(plane.as_slice(), 0, &mut w64);
        let mut w256 = vec![W256::zero(); words_for::<W256>(dim)];
        pack_range(plane.as_slice(), 0, &mut w256);
        assert_ne!(
            fingerprint(Direction::East, &w64),
            fingerprint(Direction::East, &w256),
        );
    }

    #[test]
    fn arena_recycles_mask_buffers() {
        let dim = Dim::square(16);
        let mut be = PackedBackend::<W64>::new();
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
        let mut be = PackedBackend::<W64>::new();
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
        let mut clean = PackedBackend::<W256>::new();
        let mut drilled = PackedBackend::<W256>::with_perturbed_vote();
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
