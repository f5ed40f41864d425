//! Sort and merge kernels for the per-round hot loops.
//!
//! Once the disks overlap, the per-round CPU cost of csort and dsort is
//! dominated by generic comparison sorting and one-record-at-a-time merging
//! — exactly the per-element overhead the streaming literature warns about.
//! This module concentrates those inner loops:
//!
//! * a cache-aware **radix sort** — one MSD scatter on the highest live
//!   key digit, then in-cache LSD passes per bucket — with adaptive digit
//!   skipping and a comparison fallback for small batches
//!   ([`sort_records`]).  16-byte records are sorted whole as
//!   `(key, payload)` register pairs; wider formats sort
//!   `(key, original index)` permutation pairs and gather;
//! * **specialized gather loops** for the 16- and 64-byte record formats
//!   that apply the sorted permutation with fixed-size copies the compiler
//!   can vectorize;
//! * **galloping run detection** over sorted record slices ([`run_len`]) —
//!   how the frontier-batch merge in [`crate::merge`] cuts each window,
//!   and the building block of the two-run merge in csort pass 3 / csort4
//!   pass 4.
//!
//! All scratch memory lives in a [`SortScratch`] that callers thread
//! through their rounds, so steady-state sorting allocates nothing (the
//! bench asserts this via [`SortScratch::capacity_fingerprint`]).

use std::sync::Arc;

use fg_core::metrics::{Counter, MetricsRegistry};

use crate::record::RecordFormat;

/// Below this many records the comparison sort wins: the radix kernel pays
/// a fixed histogram scan plus up to eight scatter passes, which only
/// amortizes once batches reach a few hundred records.
pub const RADIX_MIN_RECORDS: usize = 256;

/// Key digits (bytes) an LSD pass can sort by.
const DIGITS: usize = 8;
/// Buckets per digit.
const RADIX: usize = 256;
/// Inputs up to this many bytes sort with flat LSD passes (every scatter
/// stays cache-resident); larger inputs take the MSD-then-in-cache-LSD
/// hybrid, whose single full-array scatter is the only pass that pays
/// memory latency.
const FLAT_LSD_MAX_BYTES: usize = 4 << 20;

/// Which sort kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Radix at or above [`RADIX_MIN_RECORDS`] records, comparison below.
    Auto,
    /// Force the LSD radix kernel (benches and tests).
    Radix,
    /// Force the comparison kernel — the pre-kernel `sort_bytes` behavior.
    Comparison,
}

/// Metric handles resolved once at scratch construction so the hot loop
/// never touches the registry's interning lock.
struct KernelCounters {
    radix_sorts: Arc<Counter>,
    comparison_sorts: Arc<Counter>,
    passes_skipped: Arc<Counter>,
}

/// Reusable scratch for the sort kernels.
///
/// Owns the `(key, index)` permutation pairs, the whole-record `(key,
/// payload)` pairs the 16-byte radix path sorts directly, their radix
/// ping-pong buffers, and the auxiliary record bytes the permutation is
/// applied through.  One scratch per sort-stage replica (threaded through
/// csort, csort4, dsort pass 1, dsort-linear, and input verification)
/// keeps the per-round allocation count at zero once the buffers are warm.
#[derive(Default)]
pub struct SortScratch {
    /// `(key, original index)` pairs; after sorting, the permutation.
    pairs: Vec<(u64, u32)>,
    /// Ping-pong target for the radix scatter passes.
    pairs_tmp: Vec<(u64, u32)>,
    /// Whole 16-byte records as `(key, payload)` — the REC16 radix path
    /// sorts these directly, skipping the permutation gather.
    recs: Vec<(u64, u64)>,
    /// Ping-pong target for the whole-record radix passes.
    recs_tmp: Vec<(u64, u64)>,
    /// Auxiliary record bytes the permutation gathers into.
    pub(crate) aux: Vec<u8>,
    counters: Option<KernelCounters>,
}

impl SortScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scratch whose sorts publish `kernel/*` counters to `registry`.
    pub fn with_registry(registry: &MetricsRegistry) -> Self {
        SortScratch {
            counters: Some(KernelCounters {
                radix_sorts: registry.counter("kernel/radix_sorts"),
                comparison_sorts: registry.counter("kernel/comparison_sorts"),
                passes_skipped: registry.counter("kernel/radix_passes_skipped"),
            }),
            ..Self::default()
        }
    }

    /// Capacities of the owned buffers (permutation pairs and ping-pong,
    /// whole-record pairs and ping-pong, aux bytes).  The bench's
    /// zero-allocation assertion checks this stays constant across
    /// steady-state rounds.
    pub fn capacity_fingerprint(&self) -> (usize, usize, usize, usize, usize) {
        (
            self.pairs.capacity(),
            self.pairs_tmp.capacity(),
            self.recs.capacity(),
            self.recs_tmp.capacity(),
            self.aux.capacity(),
        )
    }
}

/// Stable sort of the records of `bytes` by key through `scratch`, picking
/// the kernel automatically ([`Kernel::Auto`]).
pub fn sort_records(fmt: RecordFormat, bytes: &mut [u8], scratch: &mut SortScratch) {
    sort_records_using(fmt, bytes, scratch, Kernel::Auto)
}

/// Stable sort with an explicit kernel choice — benches and the
/// byte-identity proptests pin a kernel; production paths use
/// [`sort_records`].
pub fn sort_records_using(
    fmt: RecordFormat,
    bytes: &mut [u8],
    scratch: &mut SortScratch,
    kernel: Kernel,
) {
    let n = fmt.count(bytes);
    if n <= 1 {
        return;
    }
    assert!(n - 1 <= u32::MAX as usize, "record index must fit in u32");
    let use_radix = match kernel {
        Kernel::Radix => true,
        Kernel::Comparison => false,
        Kernel::Auto => n >= RADIX_MIN_RECORDS,
    };
    if use_radix {
        // The key histograms are built while the items are, fusing what
        // would be a second full scan into the (memory-bound) build loop.
        let mut counts = [[0u32; RADIX]; DIGITS];
        if fmt.record_bytes == 16 {
            // A 16-byte record is one `(key, payload)` register pair:
            // radix-sort the records themselves (radix is stable, so the
            // payload rides along in original order) and skip the
            // permutation gather — its scattered reads cost as much as a
            // whole radix pass on permutation-hostile hosts.
            scratch.recs.clear();
            scratch.recs.extend(bytes.chunks_exact(16).map(|r| {
                let key = fmt.key(r);
                count_digits(key, &mut counts);
                let payload = u64::from_le_bytes(r[8..16].try_into().expect("payload"));
                (key, payload)
            }));
            radix_sort_items(
                &mut scratch.recs,
                &mut scratch.recs_tmp,
                &counts,
                scratch.counters.as_ref(),
            );
            for (r, &(key, payload)) in bytes.chunks_exact_mut(16).zip(scratch.recs.iter()) {
                fmt.set_key(r, key);
                r[8..16].copy_from_slice(&payload.to_le_bytes());
            }
        } else {
            scratch.pairs.clear();
            scratch
                .pairs
                .extend(fmt.records(bytes).enumerate().map(|(i, r)| {
                    let key = fmt.key(r);
                    count_digits(key, &mut counts);
                    (key, i as u32)
                }));
            radix_sort_items(
                &mut scratch.pairs,
                &mut scratch.pairs_tmp,
                &counts,
                scratch.counters.as_ref(),
            );
            apply_permutation(fmt, bytes, scratch);
        }
        if let Some(c) = &scratch.counters {
            c.radix_sorts.inc();
        }
    } else {
        scratch.pairs.clear();
        scratch.pairs.extend(
            fmt.records(bytes)
                .enumerate()
                .map(|(i, r)| (fmt.key(r), i as u32)),
        );
        // Stable by construction: the original index breaks ties.
        scratch.pairs.sort_unstable();
        if let Some(c) = &scratch.counters {
            c.comparison_sorts.inc();
        }
        apply_permutation(fmt, bytes, scratch);
    }
}

/// Bump all eight per-digit histograms for one key.
#[inline]
fn count_digits(key: u64, counts: &mut [[u32; RADIX]; DIGITS]) {
    let mut x = key;
    for row in counts.iter_mut() {
        row[(x & 0xFF) as usize] += 1;
        x >>= 8;
    }
}

/// A fixed-size element the radix passes can scatter: the `(key, index)`
/// permutation pair or the `(key, payload)` whole 16-byte record.
trait RadixItem: Copy + Default {
    /// Bucket sizes below this use [`RadixItem::stable_sort_small`]
    /// instead of per-bucket LSD passes: tiny buckets don't amortize the
    /// histogram scans.
    const SMALL_MAX: usize;

    /// The sort key.
    fn key(self) -> u64;

    /// Sort a small bucket from `src` into `dst` (equal-length scratch
    /// slices) in **stable-by-key** order without allocating.  Each impl
    /// must reproduce exactly the order the radix passes would produce.
    fn stable_sort_small(src: &mut [Self], dst: &mut [Self]);
}

impl RadixItem for (u64, u32) {
    const SMALL_MAX: usize = 256;

    fn key(self) -> u64 {
        self.0
    }

    fn stable_sort_small(src: &mut [Self], dst: &mut [Self]) {
        // The original index breaks ties, so the unstable tuple sort is
        // the stable-by-key order.
        src.sort_unstable();
        dst.copy_from_slice(src);
    }
}

impl RadixItem for (u64, u64) {
    // The merge fallback is n·log n, so it can carry buckets well past
    // where a quadratic fallback would: per-bucket LSD only pays off once
    // its fixed histogram cost amortizes over a few thousand records.
    const SMALL_MAX: usize = 2048;

    fn key(self) -> u64 {
        self.0
    }

    fn stable_sort_small(src: &mut [Self], dst: &mut [Self]) {
        // The second field is record payload, not a tiebreaker: equal keys
        // must keep their input order, so sort by key alone with a stable
        // bottom-up merge ping-ponging between the two scratch slices.
        let n = src.len();
        const BASE: usize = 16;
        let mut start = 0;
        while start < n {
            let end = (start + BASE).min(n);
            // Stable insertion sort of the base span (shift only while
            // strictly greater).
            let span = &mut src[start..end];
            for i in 1..span.len() {
                let mut j = i;
                while j > 0 && span[j - 1].0 > span[j].0 {
                    span.swap(j - 1, j);
                    j -= 1;
                }
            }
            start = end;
        }
        let mut width = BASE;
        let mut in_src = true;
        while width < n {
            let (from, to): (&[Self], &mut [Self]) = if in_src {
                (&*src, &mut *dst)
            } else {
                (&*dst, &mut *src)
            };
            merge_width_pass(from, to, width);
            in_src = !in_src;
            width *= 2;
        }
        if in_src {
            dst.copy_from_slice(src);
        }
    }
}

/// One bottom-up merge round: merge each adjacent pair of sorted
/// `width`-item spans of `from` into `to`, stably (left span wins ties).
fn merge_width_pass<T: RadixItem>(from: &[T], to: &mut [T], width: usize) {
    let n = from.len();
    let mut base = 0;
    while base < n {
        let mid = (base + width).min(n);
        let end = (base + 2 * width).min(n);
        let (mut i, mut j, mut o) = (base, mid, base);
        while i < mid && j < end {
            if from[i].key() <= from[j].key() {
                to[o] = from[i];
                i += 1;
            } else {
                to[o] = from[j];
                j += 1;
            }
            o += 1;
        }
        to[o..o + (mid - i)].copy_from_slice(&from[i..mid]);
        let o = o + (mid - i);
        to[o..o + (end - j)].copy_from_slice(&from[j..end]);
        base = end;
    }
}

/// Radix sort of `items` by key.  Stable: every scatter is a counting
/// sort that preserves scan order, and the small-bucket fallback is
/// required to reproduce the stable-by-key order — so the result is
/// byte-identical to the comparison kernel.
///
/// The pass structure is cache-aware.  Inputs that fit in cache
/// ([`FLAT_LSD_MAX_BYTES`]) take the classic flat LSD sweep — one stable
/// counting-sort scatter per live digit, ping-ponging between the two
/// buffers — because in-cache scatters are cheap.  Beyond that a flat
/// sweep streams the whole array through DRAM once per digit, and on
/// scattered-write-hostile hosts each pass costs nearly as much as the
/// entire comparison sort.  So for large inputs:
///
/// 1. the caller supplies all eight byte histograms (built while the
///    items were, fused into that scan); digits where every key shares the
///    byte are **degenerate** (the pass would be the identity) and are
///    skipped (counted in `kernel/radix_passes_skipped`);
/// 2. a single **MSD scatter** on the most-significant live digit
///    partitions the pairs into up to 256 contiguous buckets — the only
///    pass that touches the full array;
/// 3. each bucket (n/256 pairs in expectation, cache-resident for the
///    multi-megarecord rounds the sorts feed) is finished **in cache**:
///    LSD counting-sort passes over the remaining live digits, ping-ponging
///    between the two scratch buffers' bucket slices, with a stable
///    fallback for small buckets.
fn radix_sort_items<T: RadixItem>(
    items: &mut Vec<T>,
    tmp: &mut Vec<T>,
    counts: &[[u32; RADIX]; DIGITS],
    counters: Option<&KernelCounters>,
) {
    let n = items.len();
    let mut live = [0usize; DIGITS];
    let mut live_n = 0usize;
    for (digit, row) in counts.iter().enumerate() {
        if !row.iter().any(|&c| c as usize == n) {
            live[live_n] = digit;
            live_n += 1;
        }
    }
    if live_n < DIGITS {
        if let Some(c) = counters {
            c.passes_skipped.add((DIGITS - live_n) as u64);
        }
    }
    if live_n == 0 {
        // All keys equal: the original (stable) order is already sorted.
        return;
    }
    tmp.clear();
    tmp.resize(n, T::default());

    // Cache-resident inputs take a flat LSD sweep: every scatter lands in
    // cache, where it beats both the comparison sort and the MSD hybrid's
    // per-bucket bookkeeping.
    if n * std::mem::size_of::<T>() <= FLAT_LSD_MAX_BYTES {
        for &digit in &live[..live_n] {
            let mut pos = [0u32; RADIX];
            let mut sum = 0u32;
            for (p, &c) in pos.iter_mut().zip(counts[digit].iter()) {
                *p = sum;
                sum += c;
            }
            let shift = 8 * digit;
            for &item in items.iter() {
                let b = ((item.key() >> shift) & 0xFF) as usize;
                tmp[pos[b] as usize] = item;
                pos[b] += 1;
            }
            std::mem::swap(items, tmp);
        }
        return;
    }

    // MSD scatter on the most-significant live digit.  Digits above it are
    // constant across all keys, so this partitions by the true high-order
    // key bits; scan order keeps it stable.
    let msd = live[live_n - 1];
    let mut pos = [0u32; RADIX];
    let mut sum = 0u32;
    for (p, &c) in pos.iter_mut().zip(counts[msd].iter()) {
        *p = sum;
        sum += c;
    }
    let shift = 8 * msd;
    for &item in items.iter() {
        let b = ((item.key() >> shift) & 0xFF) as usize;
        tmp[pos[b] as usize] = item;
        pos[b] += 1;
    }
    // `pos[b]` is now the end of bucket `b`.

    // Finish each bucket in cache over the remaining live digits.
    let low_digits = &live[..live_n - 1];
    let mut lo = 0usize;
    for &end in pos.iter() {
        let hi = end as usize;
        sort_bucket(&mut tmp[lo..hi], &mut items[lo..hi], low_digits);
        lo = hi;
    }
}

/// Sort one MSD bucket from `src` into `dst` (equal slices of the two
/// scratch buffers) by the given low digits, stably.  LSD counting-sort
/// passes ping-pong between the two slices; digits degenerate *within this
/// bucket* are skipped, and small buckets fall back to the item's stable
/// small sort.
fn sort_bucket<T: RadixItem>(src: &mut [T], dst: &mut [T], low_digits: &[usize]) {
    let len = src.len();
    if len <= 1 || low_digits.is_empty() {
        // No live digits below the MSD means every key in this bucket is
        // equal: the scan order is already the stable order.
        dst.copy_from_slice(src);
        return;
    }
    if len < T::SMALL_MAX {
        T::stable_sort_small(src, dst);
        return;
    }
    // Per-bucket histograms for the live low digits in one scan.
    let mut rows = [[0u32; RADIX]; DIGITS];
    for item in src.iter() {
        let key = item.key();
        for &digit in low_digits {
            rows[digit][((key >> (8 * digit)) & 0xFF) as usize] += 1;
        }
    }
    let mut cur_in_src = true;
    for &digit in low_digits {
        let row = &rows[digit];
        if row.iter().any(|&c| c as usize == len) {
            continue; // degenerate within this bucket
        }
        let mut pos = [0u32; RADIX];
        let mut sum = 0u32;
        for (p, &c) in pos.iter_mut().zip(row.iter()) {
            *p = sum;
            sum += c;
        }
        let shift = 8 * digit;
        let (from, to): (&[T], &mut [T]) = if cur_in_src {
            (&*src, &mut *dst)
        } else {
            (&*dst, &mut *src)
        };
        for &item in from.iter() {
            let b = ((item.key() >> shift) & 0xFF) as usize;
            to[pos[b] as usize] = item;
            pos[b] += 1;
        }
        cur_in_src = !cur_in_src;
    }
    if cur_in_src {
        dst.copy_from_slice(src);
    }
}

/// Apply the sorted permutation: gather records into `scratch.aux` in
/// order, then copy back (FG's auxiliary-buffer pattern).  REC16 and REC64
/// go through fixed-size gathers.
fn apply_permutation(fmt: RecordFormat, bytes: &mut [u8], scratch: &mut SortScratch) {
    let rb = fmt.record_bytes;
    if scratch.aux.len() < bytes.len() {
        scratch.aux.resize(bytes.len(), 0);
    }
    let aux = &mut scratch.aux[..bytes.len()];
    match rb {
        16 => gather::<16>(bytes, aux, &scratch.pairs),
        64 => gather::<64>(bytes, aux, &scratch.pairs),
        _ => {
            for (dst, &(_, src)) in scratch.pairs.iter().enumerate() {
                let s = src as usize * rb;
                aux[dst * rb..(dst + 1) * rb].copy_from_slice(&bytes[s..s + rb]);
            }
        }
    }
    bytes.copy_from_slice(aux);
}

/// Fixed-size gather: an `RB`-byte `copy_from_slice` lowers to
/// straight-line vector moves instead of a variable-length `memcpy` call
/// per record.
fn gather<const RB: usize>(src: &[u8], dst: &mut [u8], order: &[(u64, u32)]) {
    for (out, &(_, si)) in dst.chunks_exact_mut(RB).zip(order) {
        let s = si as usize * RB;
        let rec: &[u8; RB] = src[s..s + RB].try_into().expect("record bounds");
        out.copy_from_slice(rec);
    }
}

/// Number of leading records of sorted `data` whose key satisfies the
/// monotone predicate `pred` (true for a prefix of the run, false after).
/// Gallops — probes 1, 2, 4, … records ahead, then binary-searches the
/// last doubling interval — so a run of `m` records costs `O(log m)` key
/// loads instead of `m`.
pub fn run_len(fmt: RecordFormat, data: &[u8], pred: impl Fn(u64) -> bool) -> usize {
    let rb = fmt.record_bytes;
    let n = data.len() / rb;
    let ok = |i: usize| pred(fmt.key(&data[i * rb..]));
    if n == 0 || !ok(0) {
        return 0;
    }
    let mut last_true = 0usize;
    let mut step = 1usize;
    while last_true + step < n && ok(last_true + step) {
        last_true += step;
        step *= 2;
    }
    // First false index lies in (last_true, min(last_true + step, n)].
    let mut lo = last_true + 1;
    let mut hi = (last_true + step).min(n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if ok(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: RecordFormat = RecordFormat::REC16;

    fn make_records(fmt: RecordFormat, keys: &[u64]) -> Vec<u8> {
        let rb = fmt.record_bytes;
        let mut out = vec![0u8; keys.len() * rb];
        for (i, &k) in keys.iter().enumerate() {
            fmt.set_key(&mut out[i * rb..(i + 1) * rb], k);
            // Distinct payload so stability is observable.
            out[i * rb + 8] = i as u8;
        }
        out
    }

    /// The pre-kernel `sort_bytes` body: the byte-identity oracle.
    fn comparison_oracle(fmt: RecordFormat, bytes: &mut [u8]) {
        let rb = fmt.record_bytes;
        let mut order: Vec<(u64, u32)> = fmt
            .records(bytes)
            .enumerate()
            .map(|(i, r)| (fmt.key(r), i as u32))
            .collect();
        order.sort_unstable();
        let mut aux = vec![0u8; bytes.len()];
        for (dst, (_, src)) in order.iter().enumerate() {
            let s = *src as usize * rb;
            aux[dst * rb..(dst + 1) * rb].copy_from_slice(&bytes[s..s + rb]);
        }
        bytes.copy_from_slice(&aux);
    }

    #[test]
    fn radix_matches_oracle_across_sizes_and_formats() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for fmt in [RecordFormat::REC16, RecordFormat::REC64] {
            for n in [0usize, 1, 2, 3, 255, 256, 257, 1000] {
                // Narrow key range forces duplicates (stability) and
                // degenerate high digits (skipping).
                let keys: Vec<u64> = (0..n).map(|_| rng.random_range(0..50)).collect();
                let mut got = make_records(fmt, &keys);
                let mut want = got.clone();
                let mut scratch = SortScratch::new();
                sort_records_using(fmt, &mut got, &mut scratch, Kernel::Radix);
                comparison_oracle(fmt, &mut want);
                assert_eq!(got, want, "fmt {fmt:?} n {n}");
            }
        }
    }

    #[test]
    fn radix_handles_full_width_keys() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let keys: Vec<u64> = (0..2000).map(|_| rng.random()).collect();
        let mut got = make_records(F, &keys);
        let mut want = got.clone();
        let mut scratch = SortScratch::new();
        sort_records_using(F, &mut got, &mut scratch, Kernel::Radix);
        comparison_oracle(F, &mut want);
        assert_eq!(got, want);
    }

    #[test]
    fn degenerate_digits_are_skipped() {
        let reg = MetricsRegistry::new();
        let mut scratch = SortScratch::with_registry(&reg);
        // Keys below 256: digits 1..8 are all-zero and must be skipped.
        let keys: Vec<u64> = (0..600).map(|i| (599 - i) % 250).collect();
        let mut bytes = make_records(F, &keys);
        sort_records_using(F, &mut bytes, &mut scratch, Kernel::Radix);
        assert!(F.is_sorted(&bytes));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("kernel/radix_sorts"), Some(1));
        assert_eq!(snap.counter("kernel/radix_passes_skipped"), Some(7));
    }

    #[test]
    fn auto_threshold_picks_kernels() {
        let reg = MetricsRegistry::new();
        let mut scratch = SortScratch::with_registry(&reg);
        let small: Vec<u64> = (0..(RADIX_MIN_RECORDS as u64 - 1)).rev().collect();
        let big: Vec<u64> = (0..(RADIX_MIN_RECORDS as u64)).rev().collect();
        let mut b1 = make_records(F, &small);
        let mut b2 = make_records(F, &big);
        sort_records(F, &mut b1, &mut scratch);
        sort_records(F, &mut b2, &mut scratch);
        assert!(F.is_sorted(&b1) && F.is_sorted(&b2));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("kernel/comparison_sorts"), Some(1));
        assert_eq!(snap.counter("kernel/radix_sorts"), Some(1));
    }

    #[test]
    fn scratch_allocates_nothing_once_warm() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let keys: Vec<u64> = (0..4096).map(|_| rng.random()).collect();
        let pristine = make_records(F, &keys);
        let mut scratch = SortScratch::new();
        let mut bytes = pristine.clone();
        sort_records(F, &mut bytes, &mut scratch);
        let warm = scratch.capacity_fingerprint();
        for _ in 0..5 {
            bytes.copy_from_slice(&pristine);
            sort_records(F, &mut bytes, &mut scratch);
            assert_eq!(scratch.capacity_fingerprint(), warm, "scratch reallocated");
        }
    }

    #[test]
    fn run_len_gallops_correctly() {
        let keys: Vec<u64> = (0..100).map(|i| i / 3).collect();
        let bytes = make_records(F, &keys);
        for bound in [0u64, 1, 5, 32, 33, 100] {
            let want = keys.iter().take_while(|&&k| k < bound).count();
            assert_eq!(run_len(F, &bytes, |k| k < bound), want, "bound {bound}");
        }
        assert_eq!(run_len(F, &bytes, |_| true), keys.len());
        assert_eq!(run_len(F, &bytes, |_| false), 0);
        assert_eq!(run_len(F, &[], |_| true), 0);
    }
}
