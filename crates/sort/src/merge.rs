//! K-way merging: the frontier-batch kernel behind every merge path.
//!
//! Pass 2 of dsort merges up to hundreds of sorted runs (§V).  The merge
//! stage "repeatedly chooses the smallest value not yet chosen from any of
//! the buffers".  Choosing one record at a time — a tournament replay per
//! record — costs `O(log k)` data-dependent comparisons per record.  The
//! [`FrontierMerge`] kernel chooses a whole *batch* per step instead: the
//! smallest tail key among the buffered windows bounds which buffered
//! records precede everything still on disk; those records are cut from
//! every window and sorted together by the radix kernel
//! ([`crate::kernels::sort_records`]).  A stable sort of a lane-order
//! concatenation orders ties by lane, so the output is byte-identical to
//! the scalar merge.  dsort pass 2, dsort-linear's merge-read and
//! [`merge_runs`] all run this kernel.
//!
//! [`LoserTree`] is the scalar reference: one `O(log k)` replay per record.
//! No production path uses it; the proptest oracle, the kernel-bench gate
//! and the `core_merge` Criterion group do.  Its `(key, tiebreak)` pairs
//! break full ties by lane index, and an exhausted lane is `None`, which
//! loses against everything.

use crate::kernels::{run_len, sort_records, SortScratch};
use crate::record::RecordFormat;

/// A merge key: the record's sort key plus a caller-chosen tiebreak.
pub type MergeKey = (u64, u64);

/// A loser tree over `k` lanes.
///
/// Protocol: construct with each lane's initial head key (or `None` if the
/// lane is empty); repeatedly call [`LoserTree::winner`] to learn the lane
/// with the smallest head, consume that lane's head, and call
/// [`LoserTree::replace`] with the lane's next key.
#[derive(Debug)]
pub struct LoserTree {
    k: usize,
    /// `losers[0]` is the overall winner; `losers[1..k]` hold the loser of
    /// each internal tournament node.
    losers: Vec<usize>,
    keys: Vec<Option<MergeKey>>,
}

impl LoserTree {
    /// Build a tree over the given initial lane heads.
    pub fn new(heads: Vec<Option<MergeKey>>) -> Self {
        let k = heads.len();
        assert!(k > 0, "loser tree needs at least one lane");
        let mut tree = LoserTree {
            k,
            losers: vec![usize::MAX; k],
            keys: heads,
        };
        let winner = tree.build(1);
        tree.losers[0] = winner;
        tree
    }

    /// Recursively play the tournament below `node`, recording losers;
    /// returns the winning lane.
    fn build(&mut self, node: usize) -> usize {
        if node >= self.k {
            return node - self.k;
        }
        let left = self.build(2 * node);
        let right = self.build(2 * node + 1);
        let (winner, loser) = if self.beats(left, right) {
            (left, right)
        } else {
            (right, left)
        };
        self.losers[node] = loser;
        winner
    }

    /// Whether lane `a`'s head beats lane `b`'s (smaller key wins; `None`
    /// loses to everything; lane index breaks full ties).
    fn beats(&self, a: usize, b: usize) -> bool {
        match (self.keys[a], self.keys[b]) {
            (Some(ka), Some(kb)) => (ka, a) < (kb, b),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => a < b,
        }
    }

    /// The lane holding the smallest head and that head's key, or `None`
    /// once every lane is exhausted.
    pub fn winner(&self) -> Option<(usize, MergeKey)> {
        let lane = self.losers[0];
        self.keys[lane].map(|k| (lane, k))
    }

    /// Replace the current winner's head (the caller consumed it) with the
    /// lane's next key — `None` when the lane is exhausted — and replay the
    /// tournament path from that leaf.
    pub fn replace(&mut self, lane: usize, next: Option<MergeKey>) {
        debug_assert_eq!(
            lane, self.losers[0],
            "replace must be called on the current winner"
        );
        self.keys[lane] = next;
        if self.k == 1 {
            return;
        }
        let mut winner = lane;
        let mut node = (self.k + lane) / 2;
        while node >= 1 {
            let contender = self.losers[node];
            if self.beats(contender, winner) {
                self.losers[node] = winner;
                winner = contender;
            }
            node /= 2;
        }
        self.losers[0] = winner;
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.k
    }
}

/// Records per lane window in [`merge_runs`]: the 8 KiB vertical buffers
/// dsort pass 2 merges from at the benchmark's REC16 geometry.
const RUNS_WINDOW_RECORDS: usize = 512;

/// The frontier-batch k-way merge kernel.
///
/// Each lane is a sorted run read through a *window*: the lane's buffered
/// records (in dsort pass 2, its head vertical buffer).  The caller owns
/// the windows; the kernel keeps, per lane, the window's length, the
/// offset of its first unread record, and the keys of that record and of
/// the window's last record in dense arrays, so a step's `O(k)` scan never
/// touches a buffer.
///
/// Protocol: every lane starts *drained*.  Before each [`step`], refill
/// every lane [`pop_drained`] yields with [`open`] (its next window) or
/// [`close`] (the run is exhausted).  A step emits one sorted batch and
/// drains exactly one lane: the merge needs at most as many steps as
/// windows.
///
/// [`step`]: FrontierMerge::step
/// [`pop_drained`]: FrontierMerge::pop_drained
/// [`open`]: FrontierMerge::open
/// [`close`]: FrontierMerge::close
pub struct FrontierMerge {
    fmt: RecordFormat,
    /// Lanes not yet closed, ascending.
    live: Vec<usize>,
    /// Key of the first unread record of each lane's window.
    heads: Vec<u64>,
    /// Key of the last record of each lane's window.
    tails: Vec<u64>,
    /// Byte offset of the first unread record in each lane's window.
    pos: Vec<usize>,
    /// Byte length of each lane's window.
    lens: Vec<usize>,
    /// Lanes awaiting [`FrontierMerge::open`] or [`FrontierMerge::close`].
    drained: Vec<usize>,
    /// `(lane, start, end)` byte ranges the current step takes, lane order.
    cut: Vec<(usize, usize, usize)>,
    /// The current step's concatenated, then sorted, records.
    batch: Vec<u8>,
    scratch: SortScratch,
}

impl FrontierMerge {
    /// A merge over `k` lanes, every one drained.
    pub fn new(fmt: RecordFormat, k: usize) -> Self {
        FrontierMerge {
            fmt,
            live: (0..k).collect(),
            heads: vec![0; k],
            tails: vec![0; k],
            pos: vec![0; k],
            lens: vec![0; k],
            // Popped from the back: lanes refill in lane order.
            drained: (0..k).rev().collect(),
            cut: Vec::with_capacity(k),
            batch: Vec::new(),
            scratch: SortScratch::new(),
        }
    }

    /// The next lane whose window must be refilled before the next step.
    pub fn pop_drained(&mut self) -> Option<usize> {
        self.drained.pop()
    }

    /// Give a drained lane its next window: a non-empty, sorted run of
    /// whole records.  [`FrontierMerge::step`] must then read the same
    /// bytes for this lane until the lane drains again.
    pub fn open(&mut self, lane: usize, window: &[u8]) {
        let rb = self.fmt.record_bytes;
        assert!(
            !window.is_empty() && window.len().is_multiple_of(rb),
            "a window holds at least one whole record"
        );
        self.heads[lane] = self.fmt.key(window);
        self.tails[lane] = self.fmt.key(&window[window.len() - rb..]);
        self.pos[lane] = 0;
        self.lens[lane] = window.len();
    }

    /// Retire a drained lane whose run is exhausted.
    pub fn close(&mut self, lane: usize) {
        let i = self
            .live
            .binary_search(&lane)
            .expect("close a lane that is still live");
        self.live.remove(i);
    }

    /// One frontier step over the windows `window(lane)` returns (the
    /// whole window, as given to [`FrontierMerge::open`]): the next sorted
    /// batch of the merge, or `None` once every lane is closed.
    ///
    /// 1. **Bound**: `B = (key, lane)` is the least `(tail key, lane)` of
    ///    the live lanes; call its lane `L*`.
    /// 2. **Cut**: each lane gives up the prefix of its unread records
    ///    that precedes every record not yet buffered — `key ≤ B.key`
    ///    below `L*`, the whole window at `L*`, `key < B.key` above it.
    /// 3. **Sort**: the prefixes, concatenated in lane order, are stably
    ///    sorted by key, so ties fall in lane order and then run order —
    ///    the scalar loser tree's `(key, lane, position)` order exactly.
    ///    A batch from one lane is already sorted and is returned in
    ///    place, without a copy.
    ///
    /// Every record left behind is at least `B` in `(key, lane)` order and
    /// every record taken at most `B`, so batches concatenate into the
    /// merged stream.  The step drains `L*`.
    ///
    /// # Panics
    /// Panics if a drained lane was neither opened nor closed.
    pub fn step<'a>(&'a mut self, window: impl Fn(usize) -> &'a [u8]) -> Option<&'a [u8]> {
        assert!(
            self.drained.is_empty(),
            "refill every drained lane before the next step"
        );
        let (&first, rest) = self.live.split_first()?;
        let (mut star, mut bound) = (first, self.tails[first]);
        for &j in rest {
            if self.tails[j] < bound {
                (star, bound) = (j, self.tails[j]);
            }
        }

        let fmt = self.fmt;
        self.cut.clear();
        for &j in &self.live {
            let head = self.heads[j];
            if head > bound || (head == bound && j > star) {
                continue;
            }
            let (start, len) = (self.pos[j], self.lens[j]);
            let unread = &window(j)[start..len];
            debug_assert_eq!(window(j).len(), len, "lane {j}'s window changed");
            let end = if j == star {
                len
            } else {
                let n = if j < star {
                    run_len(fmt, unread, |k| k <= bound)
                } else {
                    run_len(fmt, unread, |k| k < bound)
                };
                let end = start + n * fmt.record_bytes;
                self.heads[j] = fmt.key(&unread[end - start..]);
                end
            };
            self.pos[j] = end;
            self.cut.push((j, start, end));
        }
        self.drained.push(star);

        if let [(lane, start, end)] = self.cut[..] {
            return Some(&window(lane)[start..end]);
        }
        self.batch.clear();
        for &(lane, start, end) in &self.cut {
            self.batch.extend_from_slice(&window(lane)[start..end]);
        }
        sort_records(fmt, &mut self.batch, &mut self.scratch);
        Some(&self.batch)
    }
}

/// Merge fully-materialized sorted runs of records through the
/// [`FrontierMerge`] kernel, reading each run through 512-record windows.
/// Ties between runs resolve in run order.
pub fn merge_runs(format: RecordFormat, runs: &[&[u8]]) -> Vec<u8> {
    let window_bytes = RUNS_WINDOW_RECORDS * format.record_bytes;
    // Each run's current window is `runs[j][starts[j]..ends[j]]`.
    let mut starts = vec![0usize; runs.len()];
    let mut ends = vec![0usize; runs.len()];
    let mut merge = FrontierMerge::new(format, runs.len());
    let mut out = Vec::with_capacity(runs.iter().map(|r| r.len()).sum());
    loop {
        while let Some(j) = merge.pop_drained() {
            if ends[j] == runs[j].len() {
                merge.close(j);
                continue;
            }
            starts[j] = ends[j];
            ends[j] = (starts[j] + window_bytes).min(runs[j].len());
            merge.open(j, &runs[j][starts[j]..ends[j]]);
        }
        match merge.step(|j| &runs[j][starts[j]..ends[j]]) {
            Some(batch) => out.extend_from_slice(batch),
            None => return out,
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    fn drain(lanes: Vec<Vec<u64>>) -> Vec<u64> {
        let mut cursors = vec![0usize; lanes.len()];
        let head = |lane: &Vec<u64>, c: usize| lane.get(c).map(|&k| (k, 0));
        let mut tree = LoserTree::new(
            lanes
                .iter()
                .zip(&cursors)
                .map(|(l, &c)| head(l, c))
                .collect(),
        );
        let mut out = Vec::new();
        while let Some((lane, (key, _))) = tree.winner() {
            out.push(key);
            cursors[lane] += 1;
            tree.replace(lane, head(&lanes[lane], cursors[lane]));
        }
        out
    }

    #[test]
    fn merges_basic() {
        let got = drain(vec![vec![1, 4, 7], vec![2, 5, 8], vec![3, 6, 9]]);
        assert_eq!(got, (1..=9).collect::<Vec<u64>>());
    }

    #[test]
    fn single_lane() {
        assert_eq!(drain(vec![vec![3, 3, 5]]), vec![3, 3, 5]);
    }

    #[test]
    fn empty_lanes_among_full() {
        let got = drain(vec![vec![], vec![2, 2], vec![], vec![1], vec![]]);
        assert_eq!(got, vec![1, 2, 2]);
    }

    #[test]
    fn all_lanes_empty() {
        assert_eq!(drain(vec![vec![], vec![]]), Vec::<u64>::new());
    }

    #[test]
    fn duplicates_across_lanes_resolve_by_lane_order() {
        let got = drain(vec![vec![5; 4], vec![5; 4]]);
        assert_eq!(got, vec![5; 8]);
    }

    #[test]
    fn many_lanes_arbitrary_k() {
        for k in [1usize, 2, 3, 5, 7, 13, 31, 100] {
            let lanes: Vec<Vec<u64>> = (0..k)
                .map(|l| (0..20).map(|i| (i * k + l) as u64).collect())
                .collect();
            let got = drain(lanes);
            let expect: Vec<u64> = (0..(20 * k) as u64).collect();
            assert_eq!(got, expect, "k = {k}");
        }
    }

    #[test]
    fn randomized_against_std_sort() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..50 {
            let k = rng.random_range(1..12);
            let mut all = Vec::new();
            let lanes: Vec<Vec<u64>> = (0..k)
                .map(|_| {
                    let n = rng.random_range(0..40);
                    let mut lane: Vec<u64> = (0..n).map(|_| rng.random_range(0..50)).collect();
                    lane.sort_unstable();
                    all.extend_from_slice(&lane);
                    lane
                })
                .collect();
            all.sort_unstable();
            assert_eq!(drain(lanes), all);
        }
    }

    /// REC16 records with the given keys; byte 8 stamps `lane` and byte 9
    /// the record's position, so tie order is visible in the output.
    fn stamped(lane: u8, keys: &[u64]) -> Vec<u8> {
        let f = RecordFormat::REC16;
        let mut out = vec![0u8; keys.len() * 16];
        for (i, (rec, &k)) in out.chunks_exact_mut(16).zip(keys).enumerate() {
            f.set_key(rec, k);
            rec[8] = lane;
            rec[9] = i as u8;
        }
        out
    }

    /// A record's `(key, lane, position)`.
    type Tag = (u64, u8, u8);

    /// The tag of each record in `bytes`.
    fn tagged(bytes: &[u8]) -> Vec<Tag> {
        let f = RecordFormat::REC16;
        f.records(bytes).map(|r| (f.key(r), r[8], r[9])).collect()
    }

    /// Run the kernel over lanes that are each a single window; per step,
    /// the batch and the lane it drained.
    fn steps(windows: &[Vec<u8>]) -> Vec<(Vec<Tag>, usize)> {
        let mut merge = FrontierMerge::new(RecordFormat::REC16, windows.len());
        let mut opened = vec![false; windows.len()];
        let mut out = Vec::new();
        loop {
            while let Some(j) = merge.pop_drained() {
                if opened[j] || windows[j].is_empty() {
                    merge.close(j);
                } else {
                    opened[j] = true;
                    merge.open(j, &windows[j]);
                }
            }
            let Some(batch) = merge.step(|j| &windows[j]) else {
                return out;
            };
            let batch = tagged(batch);
            out.push((batch, merge.drained[0]));
        }
    }

    #[test]
    fn bound_is_the_least_tail_with_lane_tiebreak() {
        // Tails 3, 9, 2: lane 2 bounds the first step; lane 1 (below it)
        // gives up its 1, lane 0's head 3 is past the bound.
        let got = steps(&[stamped(0, &[3]), stamped(1, &[1, 9]), stamped(2, &[2])]);
        assert_eq!(
            got,
            vec![
                (vec![(1, 1, 0), (2, 2, 0)], 2),
                (vec![(3, 0, 0)], 0),
                (vec![(9, 1, 1)], 1),
            ]
        );
        // Equal tails: the lower lane bounds, and drains alone.
        let got = steps(&[stamped(0, &[5]), stamped(1, &[5])]);
        assert_eq!(got, vec![(vec![(5, 0, 0)], 0), (vec![(5, 1, 0)], 1)]);
        // One live lane drains window by window; empty lanes never bound.
        let got = steps(&[vec![], stamped(1, &[4, 6]), vec![]]);
        assert_eq!(got, vec![(vec![(4, 1, 0), (6, 1, 1)], 1)]);
        assert!(steps(&[]).is_empty());
    }

    #[test]
    fn cut_takes_ties_through_the_bound_only_below_its_lane() {
        // Lane 1's tail 4 bounds: lane 0 gives up everything below 7.
        let got = steps(&[stamped(0, &[1, 2, 3, 7]), stamped(1, &[4])]);
        assert_eq!(
            got[0],
            (vec![(1, 0, 0), (2, 0, 1), (3, 0, 2), (4, 1, 0)], 1)
        );
        // A lane below the bound's lane takes its ties with the bound's key
        // and they sort ahead of the bound lane's.
        let got = steps(&[stamped(0, &[4, 4, 5]), stamped(1, &[4])]);
        assert_eq!(got[0], (vec![(4, 0, 0), (4, 0, 1), (4, 1, 0)], 1));
        // A lane above it keeps them: lane 0 bounds and drains alone.
        let got = steps(&[stamped(0, &[4]), stamped(1, &[4, 4, 5])]);
        assert_eq!(got[0], (vec![(4, 0, 0)], 0));
        assert_eq!(got[1], (vec![(4, 1, 0), (4, 1, 1), (5, 1, 2)], 1));
    }

    #[test]
    fn one_lane_batches_are_returned_in_place() {
        let f = RecordFormat::REC16;
        let windows = [stamped(0, &[1, 2]), stamped(1, &[8, 9])];
        let mut merge = FrontierMerge::new(f, 2);
        while let Some(j) = merge.pop_drained() {
            merge.open(j, &windows[j]);
        }
        let batch = merge.step(|j| &windows[j]).expect("a batch");
        assert_eq!(batch.as_ptr(), windows[0].as_ptr());
        assert_eq!(batch.len(), windows[0].len());
    }

    #[test]
    fn interleaved_runs_take_at_most_one_step_per_window() {
        // Fully interleaved lanes (lane l holds l, l + k, l + 2k, ...): a
        // per-record tournament's worst case.  The kernel still drains one
        // window per step, and emits the scalar merge's order.
        let f = RecordFormat::REC16;
        for (k, per_lane) in [(2usize, 64usize), (7, 100), (64, 1500)] {
            let runs: Vec<Vec<u8>> = (0..k)
                .map(|l| {
                    let keys: Vec<u64> = (0..per_lane).map(|i| (i * k + l) as u64).collect();
                    stamped(l as u8, &keys)
                })
                .collect();
            let refs: Vec<&[u8]> = runs.iter().map(|r| r.as_slice()).collect();
            let keys: Vec<u64> = f.records(&merge_runs(f, &refs)).map(|r| f.key(r)).collect();
            assert_eq!(keys, (0..(k * per_lane) as u64).collect::<Vec<u64>>());

            let window = 16 * 16;
            let mut merge = FrontierMerge::new(f, k);
            let mut offs = vec![0usize; k];
            let mut starts = vec![0usize; k];
            let mut steps = 0usize;
            loop {
                while let Some(j) = merge.pop_drained() {
                    if offs[j] == runs[j].len() {
                        merge.close(j);
                    } else {
                        starts[j] = offs[j];
                        offs[j] = (offs[j] + window).min(runs[j].len());
                        merge.open(j, &runs[j][starts[j]..offs[j]]);
                    }
                }
                if merge.step(|j| &runs[j][starts[j]..offs[j]]).is_none() {
                    break;
                }
                steps += 1;
            }
            let windows = k * (per_lane * 16).div_ceil(window);
            assert!(steps <= windows, "k {k}: {steps} steps > {windows} windows");
        }
    }

    #[test]
    fn merge_runs_over_records() {
        let f = RecordFormat::REC16;
        let mk = |keys: &[u64]| {
            let mut out = vec![0u8; keys.len() * 16];
            for (i, &k) in keys.iter().enumerate() {
                f.set_key(&mut out[i * 16..(i + 1) * 16], k);
            }
            out
        };
        let a = mk(&[1, 3, 5]);
        let b = mk(&[2, 3, 6]);
        let merged = merge_runs(f, &[&a, &b]);
        let keys: Vec<u64> = f.records(&merged).map(|r| f.key(r)).collect();
        assert_eq!(keys, vec![1, 2, 3, 3, 5, 6]);
        assert_eq!(merge_runs(f, &[]), Vec::<u8>::new());
    }
}
