//! Self-describing chunked payloads.
//!
//! Communication stages move *placed* data: a run of record bytes plus
//! where those bytes belong (a destination column and row, or a global
//! offset in the striped output).  Rather than making every receiver
//! re-derive placement arithmetic, senders prefix each run with a small
//! header.  A payload is a sequence of chunks:
//!
//! ```text
//! [a: u64 LE][b: u64 LE][len: u64 LE][data: len bytes]  ...repeated...
//! ```
//!
//! The meaning of `a` and `b` is up to the protocol using the codec (e.g.
//! `a` = destination column, `b` = destination row; or `a` = global byte
//! offset, `b` unused).

use crate::SortError;

/// One placed run of bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk<'a> {
    /// First placement word (protocol-defined).
    pub a: u64,
    /// Second placement word (protocol-defined).
    pub b: u64,
    /// The data.
    pub data: &'a [u8],
}

/// Bytes of overhead per chunk.
pub const CHUNK_HEADER_BYTES: usize = 24;

/// Append a chunk to `out`.
pub fn push_chunk(out: &mut Vec<u8>, a: u64, b: u64, data: &[u8]) {
    out.extend_from_slice(&chunk_header(a, b, data.len()));
    out.extend_from_slice(data);
}

/// The header of a chunk of `len` data bytes: write it, then the data, to
/// pack a chunk into a buffer without staging it.
pub(crate) fn chunk_header(a: u64, b: u64, len: usize) -> [u8; CHUNK_HEADER_BYTES] {
    let mut header = [0u8; CHUNK_HEADER_BYTES];
    header[..8].copy_from_slice(&a.to_le_bytes());
    header[8..16].copy_from_slice(&b.to_le_bytes());
    header[16..].copy_from_slice(&(len as u64).to_le_bytes());
    header
}

/// Size a chunk of `len` data bytes occupies.
pub fn chunk_size(len: usize) -> usize {
    CHUNK_HEADER_BYTES + len
}

/// Iterate over the chunks of a payload.
pub fn iter_chunks(bytes: &[u8]) -> ChunkIter<'_> {
    ChunkIter { bytes, off: 0 }
}

/// Iterator over [`Chunk`]s; yields an error item on malformed input.
pub struct ChunkIter<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> Iterator for ChunkIter<'a> {
    type Item = Result<Chunk<'a>, SortError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.off == self.bytes.len() {
            return None;
        }
        let bad = |what: &str| {
            Some(Err(SortError::Corrupt(format!(
                "chunk stream: {what} at offset {}",
                self.bytes.len()
            ))))
        };
        if self.off + CHUNK_HEADER_BYTES > self.bytes.len() {
            self.off = self.bytes.len();
            return bad("truncated header");
        }
        let word = |i: usize| {
            u64::from_le_bytes(
                self.bytes[self.off + i * 8..self.off + (i + 1) * 8]
                    .try_into()
                    .expect("8 bytes"),
            )
        };
        let (a, b, len) = (word(0), word(1), word(2) as usize);
        let start = self.off + CHUNK_HEADER_BYTES;
        let end = match start.checked_add(len) {
            Some(e) if e <= self.bytes.len() => e,
            _ => {
                self.off = self.bytes.len();
                return bad("truncated data");
            }
        };
        self.off = end;
        Some(Ok(Chunk {
            a,
            b,
            data: &self.bytes[start..end],
        }))
    }
}

/// Collect all chunks, failing on the first malformed one.
pub fn parse_chunks(bytes: &[u8]) -> Result<Vec<Chunk<'_>>, SortError> {
    iter_chunks(bytes).collect()
}

/// Coalesce positioned writes: given `(offset, data)` runs, sort by offset
/// and merge runs that are adjacent in the file, so a write stage issues
/// one large disk operation instead of many small ones (positioned-write
/// batching, as any real implementation's write stage would do).
///
/// Overlapping runs are *not* merged; they are issued as separate writes
/// in **offset order** (not input order), so callers must not rely on any
/// particular overlap outcome.  The sorts never produce overlapping writes.
pub fn coalesce_writes(mut runs: Vec<(u64, Vec<u8>)>) -> Vec<(u64, Vec<u8>)> {
    runs.retain(|(_, d)| !d.is_empty());
    runs.sort_by_key(|(off, _)| *off);
    let mut out: Vec<(u64, Vec<u8>)> = Vec::with_capacity(runs.len());
    for (off, data) in runs {
        match out.last_mut() {
            Some((last_off, last_data)) if *last_off + last_data.len() as u64 == off => {
                last_data.extend_from_slice(&data);
            }
            _ => out.push((off, data)),
        }
    }
    out
}

/// Allocation-free variant of [`coalesce_writes`] for write stages on the
/// hot path: walk the chunk-framed `payload` (with `a` = file offset),
/// coalesce offset-adjacent runs, and hand each maximal positioned write to
/// `emit`.  A run with no adjacent neighbor is emitted straight out of
/// `payload` without copying; only genuinely mergeable groups are gathered
/// into `scratch`.  `runs` and `scratch` are caller-owned and reused across
/// rounds, so a warmed-up round allocates nothing.
///
/// Overlap semantics match [`coalesce_writes`]: overlapping runs are issued
/// separately in offset order.
pub fn for_each_coalesced_write<E: From<SortError>>(
    payload: &[u8],
    runs: &mut Vec<(u64, std::ops::Range<usize>)>,
    scratch: &mut Vec<u8>,
    mut emit: impl FnMut(u64, &[u8]) -> Result<(), E>,
) -> Result<(), E> {
    runs.clear();
    for chunk in iter_chunks(payload) {
        let chunk = chunk.map_err(E::from)?;
        if chunk.data.is_empty() {
            continue;
        }
        let start = chunk.data.as_ptr() as usize - payload.as_ptr() as usize;
        runs.push((chunk.a, start..start + chunk.data.len()));
    }
    runs.sort_unstable_by_key(|(off, _)| *off);
    let mut i = 0;
    while i < runs.len() {
        let off = runs[i].0;
        let mut end_off = off + runs[i].1.len() as u64;
        let mut j = i + 1;
        while j < runs.len() && runs[j].0 == end_off {
            end_off += runs[j].1.len() as u64;
            j += 1;
        }
        if j == i + 1 {
            emit(off, &payload[runs[i].1.clone()])?;
        } else {
            scratch.clear();
            for (_, range) in &runs[i..j] {
                scratch.extend_from_slice(&payload[range.clone()]);
            }
            emit(off, scratch)?;
        }
        i = j;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_multiple_chunks() {
        let mut buf = Vec::new();
        push_chunk(&mut buf, 1, 2, &[10, 20]);
        push_chunk(&mut buf, 3, 4, &[]);
        push_chunk(&mut buf, 5, 6, &[7; 100]);
        let chunks = parse_chunks(&buf).unwrap();
        assert_eq!(chunks.len(), 3);
        assert_eq!(
            (chunks[0].a, chunks[0].b, chunks[0].data),
            (1, 2, &[10u8, 20][..])
        );
        assert_eq!(chunks[1].data, &[] as &[u8]);
        assert_eq!(chunks[2].data.len(), 100);
        assert_eq!(buf.len(), 3 * CHUNK_HEADER_BYTES + 102);
        assert_eq!(chunk_size(2), CHUNK_HEADER_BYTES + 2);
    }

    #[test]
    fn empty_payload_is_empty() {
        assert!(parse_chunks(&[]).unwrap().is_empty());
    }

    #[test]
    fn truncated_header_rejected() {
        let mut buf = Vec::new();
        push_chunk(&mut buf, 1, 2, &[9]);
        assert!(parse_chunks(&buf[..buf.len() - 2]).is_err());
        assert!(parse_chunks(&buf[..10]).is_err());
    }

    #[test]
    fn absurd_length_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&2u64.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(parse_chunks(&buf).is_err());
    }
}

#[cfg(test)]
mod coalesce_tests {
    use super::*;

    #[test]
    fn merges_adjacent_runs() {
        let runs = vec![(10u64, vec![3, 4]), (0u64, vec![0, 1]), (2u64, vec![2])];
        let out = coalesce_writes(runs);
        assert_eq!(out, vec![(0, vec![0, 1, 2]), (10, vec![3, 4])]);
    }

    #[test]
    fn keeps_gaps_separate() {
        let out = coalesce_writes(vec![(0, vec![1]), (2, vec![2])]);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn drops_empty_runs() {
        let out = coalesce_writes(vec![(0, vec![]), (5, vec![9])]);
        assert_eq!(out, vec![(5, vec![9])]);
    }

    #[test]
    fn overlapping_runs_stay_separate() {
        let out = coalesce_writes(vec![(0, vec![1, 1]), (1, vec![2])]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, 0);
        assert_eq!(out[1].0, 1);
    }

    #[test]
    fn empty_input() {
        assert!(coalesce_writes(vec![]).is_empty());
    }

    fn collect_writes(payload: &[u8]) -> Vec<(u64, Vec<u8>)> {
        let mut runs = Vec::new();
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        for_each_coalesced_write::<SortError>(payload, &mut runs, &mut scratch, |off, data| {
            out.push((off, data.to_vec()));
            Ok(())
        })
        .unwrap();
        out
    }

    #[test]
    fn streaming_variant_matches_batch_semantics() {
        let mut payload = Vec::new();
        push_chunk(&mut payload, 10, 0, &[3, 4]);
        push_chunk(&mut payload, 0, 0, &[0, 1]);
        push_chunk(&mut payload, 2, 0, &[2]);
        push_chunk(&mut payload, 20, 0, &[]);
        assert_eq!(
            collect_writes(&payload),
            vec![(0, vec![0, 1, 2]), (10, vec![3, 4])]
        );
    }

    #[test]
    fn streaming_variant_reuses_scratch_across_rounds() {
        let mut a = Vec::new();
        push_chunk(&mut a, 0, 0, &[1]);
        push_chunk(&mut a, 1, 0, &[2]);
        let mut b = Vec::new();
        push_chunk(&mut b, 7, 0, &[9]);
        let mut runs = Vec::new();
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        for payload in [&a, &b] {
            for_each_coalesced_write::<SortError>(payload, &mut runs, &mut scratch, |off, data| {
                out.push((off, data.to_vec()));
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(out, vec![(0, vec![1, 2]), (7, vec![9])]);
    }

    #[test]
    fn streaming_variant_propagates_malformed_payload() {
        let mut payload = Vec::new();
        push_chunk(&mut payload, 0, 0, &[1, 2, 3]);
        let mut runs = Vec::new();
        let mut scratch = Vec::new();
        let r = for_each_coalesced_write::<SortError>(
            &payload[..payload.len() - 1],
            &mut runs,
            &mut scratch,
            |_, _| Ok(()),
        );
        assert!(r.is_err());
    }
}
