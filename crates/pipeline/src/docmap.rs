//! Auxiliary document-ID → source-file map (paper §III.F).
//!
//! "This is possible since we include an auxiliary file containing the
//! mapping of document IDs to output file names" — the structure that lets
//! a range-narrowed retrieval know which container files (and thus which
//! runs) a document window touches. One record per container file: the
//! first global doc ID it holds and its document count, plus the source
//! URL table for doc-level provenance.

use ii_corpus::DocId;
use std::io::{self, Read, Write};

/// One container file's document range.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DocMapEntry {
    /// Source container file index.
    pub file_idx: u32,
    /// First global document ID in the file.
    pub first_doc: u32,
    /// Number of documents in the file.
    pub n_docs: u32,
}

/// The docID → file mapping for a whole collection.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DocMap {
    entries: Vec<DocMapEntry>,
    /// First doc ID of the next file — tracked explicitly so quarantined
    /// files can reserve an ID gap that `entries` alone cannot express.
    next_first: u32,
}

const DOCMAP_MAGIC: &[u8; 4] = b"IIDM";

/// Most records [`DocMap::read_from`] reserves room for before reading any
/// (768 KiB): one record per container file, so far more than any
/// collection here has.
const MAX_PRESIZED_ENTRIES: usize = 1 << 16;

impl DocMap {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the next file's range; files must arrive in order and
    /// ranges must be contiguous from 0 (modulo quarantine gaps).
    pub fn push_file(&mut self, file_idx: u32, n_docs: u32) {
        self.entries.push(DocMapEntry { file_idx, first_doc: self.next_first, n_docs });
        self.next_first += n_docs;
    }

    /// Record a quarantined file: an empty entry that still reserves
    /// `reserved` doc IDs, so every later file keeps the IDs a clean build
    /// would assign and [`Self::file_of`] answers `None` inside the gap.
    pub fn push_quarantined(&mut self, file_idx: u32, reserved: u32) {
        self.entries.push(DocMapEntry { file_idx, first_doc: self.next_first, n_docs: 0 });
        self.next_first += reserved;
    }

    /// End of the doc-ID space (quarantine gaps included).
    pub fn total_docs(&self) -> u32 {
        self.next_first
    }

    /// Records, in doc order.
    pub fn entries(&self) -> &[DocMapEntry] {
        &self.entries
    }

    /// Source file of a global document ID.
    pub fn file_of(&self, doc: DocId) -> Option<u32> {
        let i = self.entries.partition_point(|e| e.first_doc + e.n_docs <= doc.0);
        let e = self.entries.get(i)?;
        (doc.0 >= e.first_doc).then_some(e.file_idx)
    }

    /// Files whose doc range overlaps `[lo, hi]` — the pre-filter for
    /// range-narrowed retrieval.
    pub fn files_overlapping(&self, lo: DocId, hi: DocId) -> Vec<u32> {
        self.entries
            .iter()
            .filter(|e| e.first_doc <= hi.0 && e.first_doc + e.n_docs > lo.0)
            .map(|e| e.file_idx)
            .collect()
    }

    /// Serialize. The record block is followed by a `next_first` trailer so
    /// a quarantine gap after the last file survives the round-trip.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(DOCMAP_MAGIC)?;
        w.write_all(&(self.entries.len() as u32).to_le_bytes())?;
        for e in &self.entries {
            w.write_all(&e.file_idx.to_le_bytes())?;
            w.write_all(&e.first_doc.to_le_bytes())?;
            w.write_all(&e.n_docs.to_le_bytes())?;
        }
        w.write_all(&self.next_first.to_le_bytes())?;
        Ok(())
    }

    /// Deserialize what [`Self::write_to`] wrote: exactly `n` records and
    /// the trailer, every record inside the doc-ID space the trailer ends.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<DocMap> {
        let bad = |m: &'static str| io::Error::new(io::ErrorKind::InvalidData, m);
        let mut head = [0u8; 8];
        r.read_exact(&mut head)?;
        if &head[..4] != DOCMAP_MAGIC {
            return Err(bad("bad docmap magic"));
        }
        let n = u32::from_le_bytes(head[4..].try_into().unwrap()) as usize;
        // The count is not yet backed by bytes (`ii repair` reads files no
        // checksum has vouched for): reserve for a collection of any size
        // seen so far, and let a larger honest one grow as it arrives.
        let mut entries = Vec::with_capacity(n.min(MAX_PRESIZED_ENTRIES));
        for _ in 0..n {
            let mut rec = [0u8; 12];
            r.read_exact(&mut rec)?;
            entries.push(DocMapEntry {
                file_idx: u32::from_le_bytes(rec[0..4].try_into().unwrap()),
                first_doc: u32::from_le_bytes(rec[4..8].try_into().unwrap()),
                n_docs: u32::from_le_bytes(rec[8..12].try_into().unwrap()),
            });
        }
        let mut trailer = [0u8; 4];
        r.read_exact(&mut trailer)?;
        let next_first = u32::from_le_bytes(trailer);
        match r.read_exact(&mut [0u8; 1]) {
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {}
            Err(e) => return Err(e),
            Ok(()) => return Err(bad("bytes after the docmap trailer")),
        }
        // `file_of` and `files_overlapping` add these without a check.
        let inside = |e: &DocMapEntry| {
            e.first_doc.checked_add(e.n_docs).is_some_and(|end| end <= next_first)
        };
        if !entries.iter().all(inside) {
            return Err(bad("docmap entry outside the doc-ID space"));
        }
        Ok(DocMap { entries, next_first })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(counts: &[u32]) -> DocMap {
        let mut m = DocMap::new();
        for (i, &n) in counts.iter().enumerate() {
            m.push_file(i as u32, n);
        }
        m
    }

    #[test]
    fn contiguous_ranges() {
        let m = map(&[3, 5, 2]);
        assert_eq!(m.total_docs(), 10);
        assert_eq!(m.file_of(DocId(0)), Some(0));
        assert_eq!(m.file_of(DocId(2)), Some(0));
        assert_eq!(m.file_of(DocId(3)), Some(1));
        assert_eq!(m.file_of(DocId(7)), Some(1));
        assert_eq!(m.file_of(DocId(8)), Some(2));
        assert_eq!(m.file_of(DocId(9)), Some(2));
        assert_eq!(m.file_of(DocId(10)), None);
    }

    #[test]
    fn empty_file_handled() {
        let m = map(&[2, 0, 3]);
        assert_eq!(m.file_of(DocId(2)), Some(2));
        assert_eq!(m.total_docs(), 5);
    }

    #[test]
    fn overlap_query() {
        let m = map(&[4, 4, 4]);
        assert_eq!(m.files_overlapping(DocId(0), DocId(3)), vec![0]);
        assert_eq!(m.files_overlapping(DocId(3), DocId(4)), vec![0, 1]);
        assert_eq!(m.files_overlapping(DocId(5), DocId(20)), vec![1, 2]);
        assert!(m.files_overlapping(DocId(50), DocId(60)).is_empty());
    }

    #[test]
    fn serialization_roundtrip() {
        let m = map(&[7, 1, 9, 0, 2]);
        let mut buf = Vec::new();
        m.write_to(&mut buf).unwrap();
        assert_eq!(DocMap::read_from(&mut buf.as_slice()).unwrap(), m);
        buf[0] = b'X';
        assert!(DocMap::read_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn trailing_quarantine_gap_survives_roundtrip() {
        let mut m = map(&[3, 2]);
        m.push_quarantined(2, 4);
        assert_eq!(m.total_docs(), 9);
        let mut buf = Vec::new();
        m.write_to(&mut buf).unwrap();
        let back = DocMap::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.total_docs(), 9, "gap after the last file preserved");
    }

    fn kind_of(buf: &[u8]) -> io::ErrorKind {
        DocMap::read_from(&mut &buf[..]).unwrap_err().kind()
    }

    #[test]
    fn hostile_count_is_a_failed_read_not_an_allocation() {
        // Magic and a count of u32::MAX records (48 GB), then nothing.
        let mut buf = DOCMAP_MAGIC.to_vec();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(kind_of(&buf), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn trailer_is_mandatory_and_final_and_bounds_every_entry() {
        let mut buf = Vec::new();
        map(&[3, 2]).write_to(&mut buf).unwrap();
        assert_eq!(kind_of(&buf[..buf.len() - 4]), io::ErrorKind::UnexpectedEof, "no trailer");
        assert_eq!(kind_of(&[&buf[..], &[0]].concat()), io::ErrorKind::InvalidData, "trailing");
        // The last record ([file 1, first_doc 3, n_docs 2]) running past
        // `next_first` = 5, then overflowing u32.
        let n_docs_at = buf.len() - 8;
        for n_docs in [3u32, u32::MAX] {
            let mut bad = buf.clone();
            bad[n_docs_at..n_docs_at + 4].copy_from_slice(&n_docs.to_le_bytes());
            assert_eq!(kind_of(&bad), io::ErrorKind::InvalidData, "n_docs {n_docs}");
        }
    }

    #[test]
    fn empty_map() {
        let m = DocMap::new();
        assert_eq!(m.total_docs(), 0);
        assert_eq!(m.file_of(DocId(0)), None);
    }
}
