//! Property-based tests (proptest) on the sorting substrates' invariants.

use proptest::collection::vec;
use proptest::prelude::*;

use fg_sort::chunks;
use fg_sort::columnsort::{boundary_merge, columnsort, sort_columns, transpose, untranspose};
use fg_sort::kernels::{sort_records_using, Kernel, SortScratch};
use fg_sort::merge::{merge_runs, FrontierMerge, LoserTree};
use fg_sort::record::{partition_of, ExtKey, RecordFormat};

/// Build records with distinct payloads so stability is observable.
fn records_with_payloads(f: RecordFormat, keys: &[u64]) -> Vec<u8> {
    let rb = f.record_bytes;
    let mut bytes = vec![0u8; keys.len() * rb];
    for (i, &k) in keys.iter().enumerate() {
        f.set_key(&mut bytes[i * rb..(i + 1) * rb], k);
        bytes[i * rb + 8] = i as u8;
        bytes[i * rb + 9] = (i >> 8) as u8;
    }
    bytes
}

proptest! {
    /// Columnsort sorts any input meeting Leighton's geometry (r = 12,
    /// s = 3 is the smallest interesting valid shape; larger shapes too).
    #[test]
    fn columnsort_sorts(data in vec(any::<u64>(), 36)) {
        let mut d = data.clone();
        let mut expect = data;
        expect.sort_unstable();
        columnsort(&mut d, 12, 3).unwrap();
        prop_assert_eq!(d, expect);
    }

    #[test]
    fn columnsort_sorts_with_duplicates(data in vec(0u64..8, 128)) {
        let mut d = data.clone();
        let mut expect = data;
        expect.sort_unstable();
        columnsort(&mut d, 32, 4).unwrap();
        prop_assert_eq!(d, expect);
    }

    /// transpose/untranspose are inverse permutations for any geometry.
    #[test]
    fn transpose_roundtrip(r in 1usize..20, s in 1usize..8, seed in any::<u64>()) {
        let n = r * s;
        let data: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(seed | 1)).collect();
        let mut d = data.clone();
        transpose(&mut d, r, s);
        untranspose(&mut d, r, s);
        prop_assert_eq!(d, data);
    }

    /// transpose is a permutation (multiset preserved).
    #[test]
    fn transpose_is_permutation(r in 1usize..16, s in 1usize..8) {
        let n = r * s;
        let data: Vec<u64> = (0..n as u64).collect();
        let mut d = data.clone();
        transpose(&mut d, r, s);
        let mut sorted = d;
        sorted.sort_unstable();
        prop_assert_eq!(sorted, data);
    }

    /// Sorting columns then boundary windows never unsorts a fully sorted
    /// sequence (idempotence of the last steps on sorted input).
    #[test]
    fn final_steps_preserve_sorted(mut data in vec(any::<u64>(), 24)) {
        data.sort_unstable();
        let mut d = data.clone();
        sort_columns(&mut d, 12, 2);
        boundary_merge(&mut d, 12, 2);
        prop_assert_eq!(d, data);
    }

    /// The loser tree merges arbitrary sorted lanes into the global sort.
    #[test]
    fn loser_tree_merges(lanes in vec(vec(0u64..1000, 0..30), 1..10)) {
        let mut lanes = lanes;
        for lane in &mut lanes {
            lane.sort_unstable();
        }
        let mut expect: Vec<u64> = lanes.iter().flatten().copied().collect();
        expect.sort_unstable();

        let mut cursors = vec![0usize; lanes.len()];
        let head = |lane: &Vec<u64>, c: usize| lane.get(c).map(|&k| (k, 0));
        let mut tree = LoserTree::new(
            lanes.iter().zip(&cursors).map(|(l, &c)| head(l, c)).collect(),
        );
        let mut got = Vec::new();
        while let Some((lane, (key, _))) = tree.winner() {
            got.push(key);
            cursors[lane] += 1;
            tree.replace(lane, head(&lanes[lane], cursors[lane]));
        }
        prop_assert_eq!(got, expect);
    }

    /// merge_runs over records equals sorting the concatenation.
    #[test]
    fn merge_runs_matches_sort(lanes in vec(vec(any::<u64>(), 0..20), 0..6)) {
        let f = RecordFormat::REC16;
        let mut all_keys: Vec<u64> = Vec::new();
        let runs: Vec<Vec<u8>> = lanes
            .iter()
            .map(|keys| {
                let mut keys = keys.clone();
                keys.sort_unstable();
                all_keys.extend_from_slice(&keys);
                let mut bytes = vec![0u8; keys.len() * 16];
                for (i, &k) in keys.iter().enumerate() {
                    f.set_key(&mut bytes[i * 16..(i + 1) * 16], k);
                }
                bytes
            })
            .collect();
        all_keys.sort_unstable();
        let run_refs: Vec<&[u8]> = runs.iter().map(|r| r.as_slice()).collect();
        let merged = merge_runs(f, &run_refs);
        let got: Vec<u64> = f.records(&merged).map(|r| f.key(r)).collect();
        prop_assert_eq!(got, all_keys);
    }

    /// Chunk streams round-trip arbitrary payload sets.
    #[test]
    fn chunks_roundtrip(items in vec((any::<u64>(), any::<u64>(), vec(any::<u8>(), 0..50)), 0..10)) {
        let mut buf = Vec::new();
        for (a, b, data) in &items {
            chunks::push_chunk(&mut buf, *a, *b, data);
        }
        let parsed = chunks::parse_chunks(&buf).unwrap();
        prop_assert_eq!(parsed.len(), items.len());
        for (chunk, (a, b, data)) in parsed.iter().zip(&items) {
            prop_assert_eq!(chunk.a, *a);
            prop_assert_eq!(chunk.b, *b);
            prop_assert_eq!(chunk.data, data.as_slice());
        }
    }

    /// Coalesced writes reproduce the same file contents as direct writes.
    #[test]
    fn coalesce_preserves_file_image(
        runs in vec((0u64..200, vec(any::<u8>(), 1..20)), 0..12)
    ) {
        // Reference: apply sorted-by-offset writes directly.
        let apply = |writes: &[(u64, Vec<u8>)]| {
            let mut file = vec![0u8; 512];
            for (off, data) in writes {
                let off = *off as usize;
                file[off..off + data.len()].copy_from_slice(data);
            }
            file
        };
        // Skip overlapping inputs: coalescing guarantees order only for
        // non-overlapping runs (which is what the sorts produce).
        let mut sorted = runs.clone();
        sorted.sort_by_key(|(o, _)| *o);
        let overlapping = sorted
            .windows(2)
            .any(|w| w[0].0 + w[0].1.len() as u64 > w[1].0);
        prop_assume!(!overlapping);

        let direct = apply(&sorted);
        let coalesced = chunks::coalesce_writes(runs);
        let via_coalesce = apply(&coalesced);
        prop_assert_eq!(direct, via_coalesce);
        // And coalescing never produces adjacent mergeable runs.
        for w in coalesced.windows(2) {
            prop_assert!(w[0].0 + w[0].1.len() as u64 != w[1].0);
        }
    }

    /// Any permutation of adjacent chunk frames coalesces back into the
    /// maximal runs: one emitted write per gap-separated group, carrying
    /// the group's bytes in offset order, regardless of arrival order.
    #[test]
    fn permuted_adjacent_frames_coalesce_maximally(
        spec in vec((1u64..16, vec(1usize..12, 1..5)), 1..5),
        shuffle_seed in any::<u64>(),
    ) {
        // Lay out gap-separated groups of adjacent frames; byte values
        // record file position so placement errors are visible.
        let mut frames: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut expected: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut cursor = 0u64;
        for (gap, frame_lens) in &spec {
            cursor += gap;
            let start = cursor;
            let mut group = Vec::new();
            for &len in frame_lens {
                let bytes: Vec<u8> = (0..len).map(|i| (cursor + i as u64) as u8).collect();
                frames.push((cursor, bytes.clone()));
                group.extend_from_slice(&bytes);
                cursor += len as u64;
            }
            expected.push((start, group));
        }
        // Fisher–Yates with a seeded xorshift: an arbitrary permutation.
        let mut rng = shuffle_seed | 1;
        for i in (1..frames.len()).rev() {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            frames.swap(i, (rng % (i as u64 + 1)) as usize);
        }
        let mut payload = Vec::new();
        for (off, data) in &frames {
            chunks::push_chunk(&mut payload, *off, 0, data);
        }
        let mut runs = Vec::new();
        let mut scratch = Vec::new();
        let mut got: Vec<(u64, Vec<u8>)> = Vec::new();
        chunks::for_each_coalesced_write::<fg_sort::SortError>(
            &payload,
            &mut runs,
            &mut scratch,
            |off, data| {
                got.push((off, data.to_vec()));
                Ok(())
            },
        )
        .unwrap();
        prop_assert_eq!(&got, &expected);
        // Maximality: no emitted run is mergeable with its successor.
        for w in got.windows(2) {
            prop_assert!(w[0].0 + w[0].1.len() as u64 != w[1].0);
        }
    }

    /// ExtKey serialization round-trips and preserves order.
    #[test]
    fn extkey_roundtrip_and_order(
        a in (any::<u64>(), any::<u32>(), any::<u64>()),
        b in (any::<u64>(), any::<u32>(), any::<u64>()),
    ) {
        let ka = ExtKey { key: a.0, node: a.1, seq: a.2 };
        let kb = ExtKey { key: b.0, node: b.1, seq: b.2 };
        prop_assert_eq!(ExtKey::from_bytes(&ka.to_bytes()).unwrap(), ka);
        // Order agrees with the tuple order.
        prop_assert_eq!(ka < kb, (a.0, a.1, a.2) < (b.0, b.1, b.2));
    }

    /// partition_of respects splitter boundaries for any sorted splitters.
    #[test]
    fn partition_respects_splitters(
        mut splitter_keys in vec(any::<u64>(), 1..8),
        probe in (any::<u64>(), any::<u32>(), any::<u64>()),
    ) {
        splitter_keys.sort_unstable();
        let splitters: Vec<ExtKey> = splitter_keys
            .iter()
            .map(|&key| ExtKey { key, node: 0, seq: 0 })
            .collect();
        let e = ExtKey { key: probe.0, node: probe.1, seq: probe.2 };
        let p = partition_of(&splitters, e);
        prop_assert!(p <= splitters.len());
        if p > 0 {
            prop_assert!(splitters[p - 1] < e);
        }
        if p < splitters.len() {
            prop_assert!(e <= splitters[p]);
        }
    }

    /// sort_bytes sorts and preserves the record multiset.
    #[test]
    fn sort_bytes_sorts_any_records(keys in vec(any::<u64>(), 0..100)) {
        let f = RecordFormat::REC16;
        let mut bytes = vec![0u8; keys.len() * 16];
        for (i, &k) in keys.iter().enumerate() {
            f.set_key(&mut bytes[i * 16..(i + 1) * 16], k);
            bytes[i * 16 + 12] = i as u8; // payload identity
        }
        let before = f.multiset_fingerprint(&bytes);
        let mut aux = Vec::new();
        f.sort_bytes(&mut bytes, &mut aux);
        prop_assert!(f.is_sorted(&bytes));
        prop_assert_eq!(f.multiset_fingerprint(&bytes), before);
    }

    /// The radix kernel is byte-identical to the stable comparison kernel
    /// — including duplicate-key stability via the index tiebreak — on
    /// both record formats.  Narrow key ranges force duplicates and
    /// degenerate (skippable) high digits.
    #[test]
    fn radix_kernel_is_byte_identical_to_comparison(
        keys in vec(0u64..32, 0..400),
        wide in any::<bool>(),
    ) {
        for f in [RecordFormat::REC16, RecordFormat::REC64] {
            let keys: Vec<u64> = if wide {
                // Spread across all eight digits too.
                keys.iter().map(|&k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect()
            } else {
                keys.clone()
            };
            let pristine = records_with_payloads(f, &keys);
            let mut via_radix = pristine.clone();
            let mut via_cmp = pristine;
            let mut scratch = SortScratch::new();
            sort_records_using(f, &mut via_radix, &mut scratch, Kernel::Radix);
            sort_records_using(f, &mut via_cmp, &mut scratch, Kernel::Comparison);
            prop_assert_eq!(&via_radix, &via_cmp);
        }
    }

    /// Batched (galloping) merge output equals a scalar one-record-at-a-
    /// time LoserTree oracle under random lane contents and exhaustion
    /// patterns — byte-identical, so equal keys resolve to the same lane.
    #[test]
    fn batched_merge_matches_scalar_oracle(lanes in vec(vec(0u64..40, 0..50), 1..8)) {
        let f = RecordFormat::REC16;
        let rb = f.record_bytes;
        let runs: Vec<Vec<u8>> = lanes
            .iter()
            .enumerate()
            .map(|(lane, keys)| {
                let mut keys = keys.clone();
                keys.sort_unstable();
                let mut bytes = records_with_payloads(f, &keys);
                // Stamp the lane so cross-lane ties are distinguishable.
                for rec in bytes.chunks_exact_mut(rb) {
                    rec[10] = lane as u8;
                }
                bytes
            })
            .collect();
        let run_refs: Vec<&[u8]> = runs.iter().map(|r| r.as_slice()).collect();

        // Scalar oracle: one winner/replace per record.
        let mut offsets = vec![0usize; runs.len()];
        let head = |run: &[u8], off: usize| -> Option<(u64, u64)> {
            (off < run.len()).then(|| (f.key(&run[off..off + rb]), 0))
        };
        let mut tree = LoserTree::new(
            runs.iter().zip(&offsets).map(|(r, &o)| head(r, o)).collect(),
        );
        let mut oracle = Vec::new();
        while let Some((lane, _)) = tree.winner() {
            let off = offsets[lane];
            oracle.extend_from_slice(&runs[lane][off..off + rb]);
            offsets[lane] += rb;
            tree.replace(lane, head(&runs[lane], offsets[lane]));
        }

        // merge_runs runs the frontier-batch kernel.
        let batched = merge_runs(f, &run_refs);
        prop_assert_eq!(&batched, &oracle);
    }

    /// The frontier-batch kernel emits the scalar LoserTree oracle's
    /// stream byte for byte, whatever the window sizes: keys in 0..40 make
    /// cross-lane ties common, lanes may be empty, exhaust early, or hold
    /// one-record windows, and the lane stamped in each payload makes the
    /// tie order visible.
    #[test]
    fn frontier_merge_matches_scalar_oracle(
        lanes in vec(vec(0u64..40, 0..60), 0..12),
        windows in vec(vec(1usize..10, 1..6), 12),
    ) {
        let f = RecordFormat::REC16;
        let rb = f.record_bytes;
        let runs: Vec<Vec<u8>> = lanes
            .iter()
            .enumerate()
            .map(|(lane, keys)| {
                let mut keys = keys.clone();
                keys.sort_unstable();
                let mut bytes = records_with_payloads(f, &keys);
                for rec in bytes.chunks_exact_mut(rb) {
                    rec[10] = lane as u8;
                }
                bytes
            })
            .collect();
        let k = runs.len();

        let mut oracle = Vec::new();
        if k > 0 {
            let mut offsets = vec![0usize; k];
            let head = |run: &[u8], off: usize| -> Option<(u64, u64)> {
                (off < run.len()).then(|| (f.key(&run[off..off + rb]), 0))
            };
            let mut tree = LoserTree::new(
                runs.iter().zip(&offsets).map(|(r, &o)| head(r, o)).collect(),
            );
            while let Some((lane, _)) = tree.winner() {
                let off = offsets[lane];
                oracle.extend_from_slice(&runs[lane][off..off + rb]);
                offsets[lane] += rb;
                tree.replace(lane, head(&runs[lane], offsets[lane]));
            }
        }

        // Lane j's n-th window holds windows[j][n % len] records.
        let mut merge = FrontierMerge::new(f, k);
        let mut starts = vec![0usize; k];
        let mut ends = vec![0usize; k];
        let mut opened = vec![0usize; k];
        let mut got = Vec::new();
        loop {
            while let Some(j) = merge.pop_drained() {
                if ends[j] == runs[j].len() {
                    merge.close(j);
                    continue;
                }
                let sizes = &windows[j];
                let records = sizes[opened[j] % sizes.len()];
                opened[j] += 1;
                starts[j] = ends[j];
                ends[j] = (starts[j] + records * rb).min(runs[j].len());
                merge.open(j, &runs[j][starts[j]..ends[j]]);
            }
            match merge.step(|j| &runs[j][starts[j]..ends[j]]) {
                Some(batch) => got.extend_from_slice(batch),
                None => break,
            }
        }
        prop_assert_eq!(&got, &oracle);
    }
}
