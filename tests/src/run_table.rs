//! Frozen run-table reference: `RunFile::from_bytes` and `to_bytes` as
//! they were while a run's mapping table was a `Vec<RunEntry>`. Reading
//! decodes every `IIR3` row into its 48-byte `RunEntry` up front (the
//! parent's `read_compact` push loop), a look-up binary-searches that
//! vector, the manifest's postings record and the document range are sums
//! over it, and writing re-encodes every row (the loop the old `to_bytes`
//! ran). The product now keeps the table as its bytes and decodes a row
//! when asked; `tests/run_format_diff.rs` and `tests/hostile_bytes.rs` hold
//! it to this module on generated, truncated and mutated tables. Do not
//! optimise it — its value is that it stays the old code.

use ii_core::corpus::DocId;
use ii_core::postings::block::n_blocks;
use ii_core::postings::run::{RunEntry, RunFileError};
use ii_core::postings::{varbyte, Codec, Posting};
use ii_core::store::PostingsMeta;
use std::ops::Range;

const RUN_MAGIC_V3: &[u8; 4] = b"IIR3";
const HEADER_BYTES_V3: usize = 41;
const MIN_ROW_BYTES_V3: usize = 4;
const GOLOMB_TAG: u8 = 2;

fn codec_tag(c: Codec) -> (u8, u64) {
    match c {
        Codec::VarByte => (0, 0),
        Codec::Gamma => (1, 0),
        Codec::Golomb(b) => (GOLOMB_TAG, b),
        Codec::Bp128 => (3, 0),
        Codec::PFor => (4, 0),
        Codec::EliasFano => (5, 0),
        Codec::Auto => (6, 0),
    }
}

fn codec_from_tag(tag: u8, b: u64) -> Option<Codec> {
    match tag {
        0 => Some(Codec::VarByte),
        1 => Some(Codec::Gamma),
        GOLOMB_TAG => Some(Codec::Golomb(b.max(1))),
        3 => Some(Codec::Bp128),
        4 => Some(Codec::PFor),
        5 => Some(Codec::EliasFano),
        6 => Some(Codec::Auto),
        _ => None,
    }
}

/// A run file with its mapping table materialised.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MaterialisedRun {
    /// Which run produced this file.
    pub run_id: u32,
    /// Which indexer produced this file.
    pub indexer_id: u32,
    /// Every row, decoded, sorted by handle.
    pub entries: Vec<RunEntry>,
    /// Concatenated encoded postings.
    pub payload: Vec<u8>,
    /// The codec the run was built with.
    pub codec: Codec,
}

impl MaterialisedRun {
    /// An empty run, for a builder to fill.
    pub fn new(run_id: u32, indexer_id: u32, codec: Codec) -> Self {
        MaterialisedRun { run_id, indexer_id, entries: Vec::new(), payload: Vec::new(), codec }
    }

    /// Deserialize a run file, every row at once.
    pub fn from_bytes(buf: &[u8]) -> Result<MaterialisedRun, RunFileError> {
        if buf.len() < HEADER_BYTES_V3 {
            return Err(RunFileError::Truncated);
        }
        if &buf[..4] != RUN_MAGIC_V3 {
            return Err(RunFileError::Malformed);
        }
        let rd32 = |o: usize| u32::from_le_bytes(buf[o..o + 4].try_into().unwrap());
        let rd64 = |o: usize| u64::from_le_bytes(buf[o..o + 8].try_into().unwrap());
        let mut run = MaterialisedRun {
            run_id: rd32(4),
            indexer_id: rd32(8),
            entries: Vec::new(),
            payload: Vec::new(),
            codec: codec_from_tag(buf[12], rd64(13)).ok_or(RunFileError::Malformed)?,
        };
        run.read_compact(buf, rd32(21) as usize)?;
        Ok(run)
    }

    /// Table and payload: `buf` is the whole file (at least a header), `n`
    /// the header's row count.
    fn read_compact(&mut self, buf: &[u8], n: usize) -> Result<(), RunFileError> {
        let rd64 = |o: usize| u64::from_le_bytes(buf[o..o + 8].try_into().unwrap());
        let (table_len, payload_len) = (rd64(25), rd64(33));
        let body = (buf.len() - HEADER_BYTES_V3) as u64;
        match table_len.checked_add(payload_len) {
            Some(need) if need == body => {}
            Some(need) if need > body => return Err(RunFileError::Truncated),
            _ => return Err(RunFileError::Malformed),
        }
        let (table, payload) = buf[HEADER_BYTES_V3..].split_at(table_len as usize);
        if n.checked_mul(MIN_ROW_BYTES_V3).is_none_or(|min| min > table.len()) {
            return Err(RunFileError::Malformed);
        }
        self.entries.reserve_exact(n);
        let mut pos = 0usize;
        let mut next_handle = 0u64;
        let mut offset = 0u64;
        for _ in 0..n {
            let mut field = || varbyte::decode_u32(table, &mut pos).ok_or(RunFileError::Truncated);
            let handle = next_handle + u64::from(field()?);
            let handle = u32::try_from(handle).map_err(|_| RunFileError::Malformed)?;
            next_handle = u64::from(handle) + 1;
            let n_postings = field()?;
            if n_postings == 1 {
                let (doc, tf) = (field()?, field()?);
                if tf == 0 {
                    return Err(RunFileError::Malformed);
                }
                let posting = Posting { doc: DocId(doc), tf };
                self.entries.push(RunEntry {
                    handle,
                    offset,
                    len: 0,
                    n_postings: 1,
                    doc_min: posting.doc.0,
                    doc_max: posting.doc.0,
                    codec: self.codec.resolve(1),
                    max_tf: posting.tf,
                });
                continue;
            }
            let (len, doc_min, doc_span, max_tf) = (field()?, field()?, field()?, field()?);
            let tag = *table.get(pos).ok_or(RunFileError::Truncated)?;
            pos += 1;
            let b = if tag == GOLOMB_TAG {
                let raw = table.get(pos..pos + 8).ok_or(RunFileError::Truncated)?;
                pos += 8;
                u64::from_le_bytes(raw.try_into().unwrap())
            } else {
                0
            };
            let codec = codec_from_tag(tag, b).ok_or(RunFileError::Malformed)?;
            if codec == Codec::Auto || n_postings == 0 {
                return Err(RunFileError::Malformed);
            }
            self.entries.push(RunEntry {
                handle,
                offset,
                len,
                n_postings,
                doc_min,
                doc_max: doc_min.checked_add(doc_span).ok_or(RunFileError::Malformed)?,
                codec,
                max_tf,
            });
            offset = offset.checked_add(u64::from(len)).ok_or(RunFileError::Malformed)?;
        }
        if pos != table.len() || offset != payload_len {
            return Err(RunFileError::Malformed);
        }
        self.payload = payload.to_vec();
        Ok(())
    }

    /// Serialize to bytes, every row re-encoded.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(RUN_MAGIC_V3);
        out.extend_from_slice(&self.run_id.to_le_bytes());
        out.extend_from_slice(&self.indexer_id.to_le_bytes());
        let (tag, b) = codec_tag(self.codec);
        out.push(tag);
        out.extend_from_slice(&b.to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        let table_len_at = out.len();
        out.extend_from_slice(&[0; 8]);
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        let mut next_handle = 0u32;
        for e in &self.entries {
            encode_row(e, next_handle, &mut out);
            next_handle = e.handle.wrapping_add(1);
        }
        let table_len = (out.len() - HEADER_BYTES_V3) as u64;
        out[table_len_at..table_len_at + 8].copy_from_slice(&table_len.to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Where each row sits in [`Self::to_bytes`].
    pub fn row_spans(&self) -> Vec<Range<usize>> {
        let (mut at, mut next_handle) = (HEADER_BYTES_V3, 0u32);
        let mut spans = Vec::with_capacity(self.entries.len());
        for e in &self.entries {
            let mut row = Vec::new();
            encode_row(e, next_handle, &mut row);
            spans.push(at..at + row.len());
            at += row.len();
            next_handle = e.handle.wrapping_add(1);
        }
        spans
    }

    /// The row of `handle`.
    pub fn entry(&self, handle: u32) -> Option<&RunEntry> {
        self.entries.binary_search_by_key(&handle, |e| e.handle).ok().map(|i| &self.entries[i])
    }

    /// What the manifest records of the run.
    pub fn postings_meta(&self) -> PostingsMeta {
        PostingsMeta {
            format: 3,
            lists: self.entries.len() as u64,
            blocks: self.entries.iter().map(|e| n_blocks(e.n_postings as usize) as u64).sum(),
            max_tf: self.entries.iter().map(|e| e.max_tf).max().unwrap_or(0),
        }
    }

    /// Document range covered by the whole run, if any list is present.
    pub fn doc_range(&self) -> Option<(u32, u32)> {
        let lo = self.entries.iter().map(|e| e.doc_min).min()?;
        let hi = self.entries.iter().map(|e| e.doc_max).max()?;
        Some((lo, hi))
    }
}

/// One row, its handle as a delta from `next_handle`.
fn encode_row(e: &RunEntry, next_handle: u32, out: &mut Vec<u8>) {
    varbyte::encode_u32(e.handle - next_handle, out);
    varbyte::encode_u32(e.n_postings, out);
    if e.n_postings == 1 {
        varbyte::encode_u32(e.doc_min, out);
        varbyte::encode_u32(e.max_tf, out);
        return;
    }
    varbyte::encode_u32(e.len, out);
    varbyte::encode_u32(e.doc_min, out);
    varbyte::encode_u32(e.doc_max - e.doc_min, out);
    varbyte::encode_u32(e.max_tf, out);
    let (tag, b) = codec_tag(e.codec);
    out.push(tag);
    if tag == GOLOMB_TAG {
        out.extend_from_slice(&b.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ii_core::pipeline::run_postings_meta;
    use ii_core::postings::{PostingsList, RunFile};

    #[test]
    fn matches_the_product_table() {
        let list = |n: u32, first: u32| -> PostingsList {
            (0..n).map(|i| Posting { doc: DocId(first + i * 3), tf: 1 + i % 4 }).collect()
        };
        let lists: Vec<(u32, PostingsList)> =
            (0..50).map(|i| (i * 7, list(1 + (i % 5) * 70, i * 1000))).collect();
        let run = RunFile::build(3, 1, &mut lists.iter().map(|(h, l)| (*h, l)), Codec::Golomb(9));
        let bytes = run.to_bytes();
        let old = MaterialisedRun::from_bytes(&bytes).unwrap();
        assert_eq!(run.entries.iter().collect::<Vec<_>>(), old.entries);
        assert!(old.payload == run.payload && old.to_bytes() == bytes);
        assert_eq!(old.postings_meta(), run_postings_meta(&run));
        assert_eq!(old.doc_range(), run.doc_range());
        for h in 0..=350 {
            assert_eq!(old.entry(h).copied(), run.entry(h), "handle {h}");
        }
        let spans = old.row_spans();
        assert_eq!(spans.last().unwrap().end, bytes.len() - run.payload.len());
    }
}
