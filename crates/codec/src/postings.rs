//! Posting-list encoding shared by the classic IF and the OIF.
//!
//! §2: "for each record-id in an inverted list, we also store the length
//! (i.e., cardinality) of the respective set", which drives equality
//! filtering and superset verification. §5: ids are stored as v-byte d-gaps
//! and lengths as v-bytes.
//!
//! The encoding interleaves `(gap, length)` pairs so a list can be scanned
//! in a single pass. A raw (uncompressed) mode is kept for the compression
//! ablation in the bench suite.

use crate::vbyte::{encode_u64, encoded_len, VByteReader};
use crate::DecodeError;

/// One inverted-list entry: a record id plus the record's set cardinality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Posting {
    /// Record id (OIF: the re-assigned, order-preserving id).
    pub id: u64,
    /// Cardinality of the record's set-value.
    pub len: u32,
}

impl Posting {
    pub fn new(id: u64, len: u32) -> Self {
        Posting { id, len }
    }
}

/// Whether posting lists are v-byte/d-gap compressed or stored raw.
///
/// `Raw` exists only for the ablation benchmarks; all defaults use
/// `VByteDGap`, like the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Compression {
    #[default]
    VByteDGap,
    Raw,
}

impl Compression {
    /// Stable one-byte tag for persisted index catalogs.
    pub fn to_tag(self) -> u8 {
        match self {
            Compression::VByteDGap => 0,
            Compression::Raw => 1,
        }
    }

    /// Inverse of [`Compression::to_tag`]; `None` for unknown tags (a
    /// catalog written by a newer build).
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(Compression::VByteDGap),
            1 => Some(Compression::Raw),
            _ => None,
        }
    }
}

/// Streaming encoder that appends postings (sorted by id) to a byte buffer.
#[derive(Debug)]
pub struct PostingsEncoder {
    buf: Vec<u8>,
    prev_id: Option<u64>,
    count: usize,
    mode: Compression,
}

impl PostingsEncoder {
    pub fn new() -> Self {
        Self::with_mode(Compression::VByteDGap)
    }

    pub fn with_mode(mode: Compression) -> Self {
        Self::resume(mode, None)
    }

    /// An encoder that *continues* a stream whose last posting had id
    /// `last_id` (`None`: the stream is empty so far). The d-gap stream is
    /// prefix-stable — the bytes of a posting depend only on its
    /// predecessor's id — so for every split `k` of a sorted list `L`,
    /// `encode(L[..k]) ++ resume(mode, last id of L[..k]).encode(L[k..])`
    /// equals `encode(L)`. That is what lets an inverted list grow by
    /// appending bytes instead of being re-encoded. `Raw` postings are
    /// self-contained and ignore `last_id`.
    pub fn resume(mode: Compression, last_id: Option<u64>) -> Self {
        PostingsEncoder {
            buf: Vec::new(),
            prev_id: last_id,
            count: 0,
            mode,
        }
    }

    /// Append one posting. Ids must arrive strictly increasing.
    pub fn push(&mut self, p: Posting) {
        match self.mode {
            Compression::VByteDGap => {
                match self.prev_id {
                    None => encode_u64(p.id, &mut self.buf),
                    Some(prev) => {
                        debug_assert!(p.id > prev, "posting ids must be strictly increasing");
                        encode_u64(p.id - prev, &mut self.buf)
                    }
                };
                encode_u64(p.len as u64, &mut self.buf);
            }
            Compression::Raw => {
                self.buf.extend_from_slice(&p.id.to_le_bytes());
                self.buf.extend_from_slice(&p.len.to_le_bytes());
            }
        }
        self.prev_id = Some(p.id);
        self.count += 1;
    }

    /// Size in bytes the encoder would grow by if `p` were pushed now.
    pub fn cost_of(&self, p: Posting) -> usize {
        match self.mode {
            Compression::VByteDGap => {
                let gap = match self.prev_id {
                    None => p.id,
                    Some(prev) => p.id - prev,
                };
                encoded_len(gap) + encoded_len(p.len as u64)
            }
            Compression::Raw => 12,
        }
    }

    pub fn len_bytes(&self) -> usize {
        self.buf.len()
    }

    pub fn count(&self) -> usize {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Id of the stream's last posting so far — what a later
    /// [`PostingsEncoder::resume`] continues from.
    pub fn last_id(&self) -> Option<u64> {
        self.prev_id
    }

    /// Finish and take the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

impl Default for PostingsEncoder {
    fn default() -> Self {
        Self::new()
    }
}

/// Streaming decoder over an encoded posting list.
///
/// The compressed layout is an interleaved stream of `(gap, length)`
/// varints, so one cursor plus the previous id is all the state needed.
#[derive(Debug, Clone)]
pub struct PostingsDecoder<'a> {
    mode: Compression,
    cursor: VByteReader<'a>,
    prev_id: Option<u64>,
    raw: &'a [u8],
}

impl<'a> PostingsDecoder<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self::with_mode(buf, Compression::VByteDGap)
    }

    pub fn with_mode(buf: &'a [u8], mode: Compression) -> Self {
        PostingsDecoder {
            mode,
            cursor: VByteReader::new(buf),
            prev_id: None,
            raw: buf,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.cursor.is_empty()
    }

    /// Decode the next posting, or `None` at end of input.
    pub fn next_posting(&mut self) -> Result<Option<Posting>, DecodeError> {
        if self.is_empty() {
            return Ok(None);
        }
        match self.mode {
            Compression::VByteDGap => {
                let delta = self.cursor.read()?;
                let id = match self.prev_id {
                    None => delta,
                    Some(prev) => {
                        if delta == 0 {
                            return Err(DecodeError::Corrupt("zero d-gap"));
                        }
                        prev.checked_add(delta).ok_or(DecodeError::Overflow)?
                    }
                };
                let len = u32::try_from(self.cursor.read()?)
                    .map_err(|_| DecodeError::Corrupt("record length exceeds u32"))?;
                self.prev_id = Some(id);
                Ok(Some(Posting { id, len }))
            }
            Compression::Raw => {
                let pos = self.cursor.position();
                if self.raw.len() - pos < 12 {
                    return Err(DecodeError::UnexpectedEnd);
                }
                let id = u64::from_le_bytes(self.raw[pos..pos + 8].try_into().unwrap());
                let len = u32::from_le_bytes(self.raw[pos + 8..pos + 12].try_into().unwrap());
                self.cursor.skip(12);
                Ok(Some(Posting { id, len }))
            }
        }
    }
}

/// Decode a complete posting list.
pub fn decode_postings(buf: &[u8]) -> Result<Vec<Posting>, DecodeError> {
    decode_postings_mode(buf, Compression::VByteDGap)
}

/// Decode a complete posting list with an explicit compression mode.
pub fn decode_postings_mode(buf: &[u8], mode: Compression) -> Result<Vec<Posting>, DecodeError> {
    let mut d = PostingsDecoder::with_mode(buf, mode);
    let mut out = Vec::new();
    while let Some(p) = d.next_posting()? {
        out.push(p);
    }
    Ok(out)
}

/// Encode a complete posting list (must be sorted by id).
pub fn encode_postings(postings: &[Posting]) -> Vec<u8> {
    encode_postings_mode(postings, Compression::VByteDGap)
}

/// Encode a complete posting list with an explicit compression mode.
pub fn encode_postings_mode(postings: &[Posting], mode: Compression) -> Vec<u8> {
    let mut e = PostingsEncoder::with_mode(mode);
    for &p in postings {
        e.push(p);
    }
    e.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Vec<Posting> {
        vec![
            Posting::new(2, 3),
            Posting::new(5, 4),
            Posting::new(12, 2),
            Posting::new(15, 2),
            Posting::new(17, 2),
            Posting::new(18, 2),
        ]
    }

    #[test]
    fn round_trip_compressed() {
        let ps = sample();
        let buf = encode_postings(&ps);
        assert_eq!(decode_postings(&buf).unwrap(), ps);
        // 6 postings, every gap and length < 128 -> exactly 2 bytes each.
        assert_eq!(buf.len(), 12);
    }

    #[test]
    fn round_trip_raw() {
        let ps = sample();
        let buf = encode_postings_mode(&ps, Compression::Raw);
        assert_eq!(buf.len(), 12 * ps.len());
        assert_eq!(decode_postings_mode(&buf, Compression::Raw).unwrap(), ps);
    }

    #[test]
    fn compression_beats_raw_on_dense_lists() {
        let ps: Vec<Posting> = (1..1000u64).map(|i| Posting::new(i, 5)).collect();
        let c = encode_postings(&ps).len();
        let r = encode_postings_mode(&ps, Compression::Raw).len();
        assert!(c * 3 < r, "compressed {c} raw {r}");
    }

    #[test]
    fn cost_of_matches_actual_growth() {
        let mut e = PostingsEncoder::new();
        for p in sample() {
            let before = e.len_bytes();
            let predicted = e.cost_of(p);
            e.push(p);
            assert_eq!(e.len_bytes() - before, predicted);
        }
    }

    #[test]
    fn truncated_raw_errors() {
        let ps = sample();
        let buf = encode_postings_mode(&ps, Compression::Raw);
        let mut d = PostingsDecoder::with_mode(&buf[..buf.len() - 1], Compression::Raw);
        let mut last;
        loop {
            last = d.next_posting().map(Some);
            match &last {
                Ok(Some(None)) | Err(_) => break,
                _ => {}
            }
        }
        assert!(last.is_err());
    }

    #[test]
    fn resume_after_none_is_a_fresh_stream() {
        let ps = sample();
        for mode in [Compression::VByteDGap, Compression::Raw] {
            let mut e = PostingsEncoder::resume(mode, None);
            ps.iter().for_each(|&p| e.push(p));
            assert_eq!(e.count(), ps.len(), "count covers only resumed postings");
            assert_eq!(e.last_id(), Some(18));
            assert_eq!(e.finish(), encode_postings_mode(&ps, mode));
        }
    }

    proptest! {
        #[test]
        fn resume_split_concatenates_to_the_whole_encoding(
            ids in proptest::collection::btree_set(any::<u64>(), 0..120),
            lens in proptest::collection::vec(1u32..100_000, 120),
            cut in any::<usize>(),
        ) {
            let ps: Vec<Posting> = ids
                .iter()
                .zip(lens.iter())
                .map(|(&id, &len)| Posting::new(id, len))
                .collect();
            let k = cut % (ps.len() + 1);
            for mode in [Compression::VByteDGap, Compression::Raw] {
                let mut bytes = encode_postings_mode(&ps[..k], mode);
                let mut tail = PostingsEncoder::resume(mode, ps[..k].last().map(|p| p.id));
                ps[k..].iter().for_each(|&p| tail.push(p));
                prop_assert_eq!(tail.count(), ps.len() - k);
                bytes.extend_from_slice(&tail.finish());
                prop_assert_eq!(bytes, encode_postings_mode(&ps, mode), "split at {}", k);
            }
        }

        #[test]
        fn round_trip_any_sorted_list(
            ids in proptest::collection::btree_set(any::<u32>(), 0..200),
            lens in proptest::collection::vec(1u32..100, 200),
        ) {
            let ps: Vec<Posting> = ids
                .iter()
                .zip(lens.iter())
                .map(|(&id, &len)| Posting::new(id as u64, len))
                .collect();
            for mode in [Compression::VByteDGap, Compression::Raw] {
                let buf = encode_postings_mode(&ps, mode);
                prop_assert_eq!(decode_postings_mode(&buf, mode).unwrap(), ps.clone());
            }
        }
    }
}
