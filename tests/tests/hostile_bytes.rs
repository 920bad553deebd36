//! Hostile bytes against the two readers an index is opened through:
//! `GlobalDictionary::from_bytes` (`dictionary.bin`) and
//! `RunFile::from_bytes` (`.iirf`), and against `Index::open` and a resumed
//! build with the manifest's length and CRC rewritten to vouch for the
//! damage — the state a buggy writer, not a flipped bit, leaves behind.
//!
//! Truncated files are always refused, and so is a dictionary whose front
//! coding lies: a suffix sharing more than the suffix before it, a
//! collection's first suffix sharing at all, a length escape cut off at
//! the end of its column, a pair that does not ascend. A mutated file is
//! refused with a typed error or yields a value that is safe to query:
//! every walk and look-up terminates without a panic and the value
//! survives its own serialization. Neither reader sizes an allocation by a count it has not
//! checked against the bytes it holds: the dictionary's length must be what
//! its header's counts and widths call for before any column is unpacked,
//! a run's row count and row sample are bounded by its
//! table length, and the index's holders column by the term count of a
//! dictionary header whose file is exactly as long as it says. (`run_format_diff.rs` mutates every header and table
//! byte of whole run files against the frozen reader; the run cases here
//! are the ones the one-posting row adds, and rows flipped, cut and spliced
//! where the row sample's groups begin and end, opened through
//! `Index::open` and answered handle by handle.) A codec tag the index no
//! longer writes, in a run's header or in a row, and a reserved header byte
//! that is not zero are refused there too.
//!
//! `DocMap::read_from` (`docmap.bin`) refuses every truncation, and
//! records that overlap or run out of doc order; whatever map a flipped
//! byte leaves it accepting answers `file_of` as a linear scan of its
//! records does.
//!
//! A manifest that lists one run twice — the same record again, or a
//! second name for the same run — is a typed error at `Index::open` and on
//! `--resume`, not a run appended twice.
//!
//! Every JSON an index directory or a build leaves behind — `MANIFEST.json`,
//! `checkpoint.json`, a Chrome trace, a post-mortem bundle — is read by the
//! one vendored `serde_json`: JSON nested deeper than its recursion limit
//! is a typed error at each of those readers, never a stack overflow, and a
//! trace of tens of thousands of events reads back in linear time.

use ii_core::corpus::{CollectionGenerator, CollectionSpec, DocId, StoredCollection};
use ii_core::dict::{GlobalDictionary, TRIE_ENTRIES};
use ii_core::obs::trace::{GaugeTrack, NO_ID};
use ii_core::obs::{GpuSpanArgs, Trace, TraceEvent, TraceKind, WorkerTrace};
use ii_core::pipeline::{
    build_index, build_index_durable, render_bundle_report, BuildCheckpoint, DocMap,
    DurableOptions, PipelineConfig, PipelineError, CHECKPOINT_ARTIFACT, DICTIONARY_ARTIFACT,
    DOCMAP_ARTIFACT,
};
use ii_core::postings::run::RunFileError;
use ii_core::postings::{
    parse_run_artifact_name, run_artifact_name, varbyte, Codec, Posting, PostingsList, RunFile,
    SAMPLE_EVERY,
};
use ii_core::store::{
    crc32, ArtifactMeta, CrashMode, CrashVfs, Manifest, ManifestKind, Store, StoreError,
    MANIFEST_NAME,
};
use ii_core::Index;
use ii_integration_tests::reference::{DictColumns, RefEntry};
use ii_integration_tests::run_table::MaterialisedRun;
use std::io::ErrorKind;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Header of `dictionary.bin`: magic, term count, suffix bytes, rest
/// bytes, escape bytes, the count, owner and handle widths, a reserved zero
/// byte.
const DICT_HEADER: usize = 24;

/// Where each section of a `dictionary.bin` starts, from its header: the
/// collection counts, the owners, the front-coded lengths and their
/// escapes, the handles, the rest bytes.
struct Sections {
    counts: usize,
    owners: usize,
    lens: usize,
    handles: usize,
    arena: usize,
}

fn sections(bytes: &[u8]) -> Sections {
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let (n, escapes) = (word(4), word(16));
    let packed = |len: usize, w: u8| (len * w as usize).div_ceil(8);
    let counts = DICT_HEADER;
    let owners = counts + packed(TRIE_ENTRIES, bytes[20]);
    let lens = owners + packed(TRIE_ENTRIES, bytes[21]);
    let handles = lens + n + escapes;
    Sections { counts, owners, lens, handles, arena: handles + packed(n, bytes[22]) }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ii-hostile-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small two-indexer index and the directory it is saved in.
fn saved_index(tag: &str) -> (Index, PathBuf) {
    let coll_dir = scratch(&format!("{tag}-coll"));
    let spec = CollectionSpec { num_files: 3, ..CollectionSpec::tiny(23) };
    let coll = Arc::new(StoredCollection::generate(spec, &coll_dir).unwrap());
    let out = build_index(&coll, &PipelineConfig::small(2, 1, 1)).expect("build");
    std::fs::remove_dir_all(&coll_dir).unwrap();
    let idx = Index::from_output(out);
    let dir = scratch(tag);
    idx.save(&dir).unwrap();
    (idx, dir)
}

fn dictionary_bytes() -> (GlobalDictionary, Vec<u8>) {
    let spec = CollectionSpec::tiny(23);
    let gen = CollectionGenerator::new(spec.clone());
    let mut shard = ii_core::dict::PartialDictionary::new(2);
    for f in 0..spec.num_files {
        let batch = ii_core::text::parse_documents(&gen.generate_file(f), spec.html, f);
        for g in &batch.groups {
            for (_, term) in g.iter_terms() {
                shard.insert_term(g.trie_index, term);
            }
        }
    }
    let dict = GlobalDictionary::combine(&[shard]);
    let mut bytes = Vec::new();
    dict.write_to(&mut bytes).unwrap();
    (dict, bytes)
}

/// Whatever the reader accepted must be safe to use.
fn exercise_dictionary(d: &GlobalDictionary, terms: &[String]) {
    let mut listed = 0usize;
    for e in d.entries() {
        listed += 1;
        std::hint::black_box(e.full_term());
    }
    assert_eq!(listed, d.len());
    for t in terms {
        std::hint::black_box(d.lookup(t));
    }
    let mut again = Vec::new();
    d.write_to(&mut again).unwrap();
    assert!(GlobalDictionary::from_bytes(&again).unwrap() == *d);
}

#[test]
fn truncated_dictionaries_are_refused() {
    let (dict, bytes) = dictionary_bytes();
    let at = sections(&bytes);
    // Every cut through the header and the first bytes of each column,
    // then a stride through the rest, then the last bytes.
    let cuts = (0..DICT_HEADER + 64)
        .chain(at.owners - 8..at.owners + 8)
        .chain(at.lens - 8..at.lens + 8)
        .chain(at.handles - 8..at.handles + 8)
        .chain(at.arena - 8..at.arena + 8)
        .chain((0..bytes.len()).step_by(997))
        .chain(bytes.len() - 64..bytes.len());
    for cut in cuts {
        let err = GlobalDictionary::from_bytes(&bytes[..cut]).expect_err("a cut file parsed");
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "cut at {cut}");
        let err = GlobalDictionary::read_from(&mut &bytes[..cut]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "cut at {cut} through a reader");
    }
    assert!(GlobalDictionary::from_bytes(&bytes).unwrap() == dict);
}

#[test]
fn mutated_dictionary_bytes_never_panic() {
    let (dict, bytes) = dictionary_bytes();
    let terms: Vec<String> = dict.entries().map(|e| e.full_term()).collect();
    let at = sections(&bytes);
    // The header, the counts around the first occupied collection, the
    // first and last 64 bytes of every column and of the arena.
    let first_count = at.counts + dict.entries().next().unwrap().trie_index as usize * bytes[20] as usize / 8;
    let spans = [
        0..DICT_HEADER + 64,
        first_count.saturating_sub(16)..first_count + 64,
        at.owners - 64..at.owners + 64,
        at.lens - 64..at.lens + 64,
        at.handles - 64..at.handles + 64,
        at.arena - 64..at.arena + 64,
        bytes.len() - 64..bytes.len(),
    ];
    let (mut refused, mut parsed) = (0usize, 0usize);
    let mut hostile = bytes.clone();
    for at in spans.into_iter().flatten() {
        for flip in [0x01u8, 0x80, 0xFF] {
            hostile[at] = bytes[at] ^ flip;
            match GlobalDictionary::from_bytes(&hostile) {
                Ok(d) => {
                    parsed += 1;
                    exercise_dictionary(&d, &terms);
                }
                Err(e) => {
                    refused += 1;
                    assert!(
                        matches!(e.kind(), ErrorKind::InvalidData | ErrorKind::UnexpectedEof),
                        "byte {at}: {e}"
                    );
                }
            }
        }
        hostile[at] = bytes[at];
    }
    // Header, count and length damage is refused; an owner or a handle is
    // any value of its width.
    assert!(refused > 300 && parsed > 300, "{refused} refused, {parsed} parsed");
}

/// `bytes` with the little-endian word at `at` replaced.
fn with_word(bytes: &[u8], at: usize, word: u32) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at..at + 4].copy_from_slice(&word.to_le_bytes());
    out
}

/// The dictionary `bytes` hold, its columns changed by `lie` and laid out
/// again, each at the width its values need.
fn with_columns(bytes: &[u8], lie: impl FnOnce(&mut DictColumns)) -> Vec<u8> {
    let mut cols = DictColumns::of_dictionary(&GlobalDictionary::from_bytes(bytes).unwrap());
    lie(&mut cols);
    cols.to_bytes()
}

#[test]
fn dictionary_columns_that_lie_are_refused() {
    let (dict, bytes) = dictionary_bytes();
    let n = dict.len() as u32;
    let refused = |hostile: Vec<u8>, kind: ErrorKind, what: &str| {
        let err = GlobalDictionary::from_bytes(&hostile).expect_err(what);
        assert_eq!(err.kind(), kind, "{what}: {err}");
    };
    assert_eq!(with_columns(&bytes, |_| {}), bytes, "the reference lays out the product's bytes");
    // Counts the bytes cannot back: the reader runs out of input, not memory.
    refused(with_word(&bytes, 4, u32::MAX), ErrorKind::UnexpectedEof, "u32::MAX terms");
    refused(with_word(&bytes, 12, u32::MAX), ErrorKind::UnexpectedEof, "u32::MAX rest bytes");
    refused(with_word(&bytes, 16, u32::MAX), ErrorKind::UnexpectedEof, "u32::MAX escapes");
    refused(with_word(&bytes, 4, n + 1), ErrorKind::UnexpectedEof, "one term too many");
    refused(with_word(&bytes, 4, n - 1), ErrorKind::InvalidData, "one term too few");
    // More suffix bytes than n terms can share: refused before the arena
    // is allocated.
    refused(with_word(&bytes, 8, u32::MAX), ErrorKind::InvalidData, "u32::MAX suffix bytes");
    let mut header_only = bytes[..DICT_HEADER].to_vec();
    header_only[4..20].fill(0xFF);
    refused(header_only, ErrorKind::UnexpectedEof, "a header and nothing else");
    // Widths past 32 bits and a reserved byte that is not zero.
    for (at, what) in [(20, "count"), (21, "owner"), (22, "handle")] {
        let mut wide = bytes.clone();
        wide[at] = 33;
        refused(wide, ErrorKind::InvalidData, &format!("a {what} width of 33"));
    }
    let mut reserved = bytes.clone();
    reserved[23] = 1;
    refused(reserved, ErrorKind::InvalidData, "a reserved byte of 1");
    // The handle column a byte short, everything after it in place.
    let at = sections(&bytes);
    let short = [&bytes[..at.arena - 1], &bytes[at.arena..]].concat();
    refused(short, ErrorKind::UnexpectedEof, "a handle column cut short");
    // Collection counts that overshoot the term count, fall short of it,
    // start in collection 0, or overflow a word.
    let last = dict.entries().last().unwrap().trie_index as usize;
    let lie = |f: fn(&mut DictColumns, usize)| with_columns(&bytes, |c| f(c, last));
    refused(lie(|c, t| c.counts[t] += 1), ErrorKind::InvalidData, "counts end past n");
    refused(lie(|c, t| c.counts[t] -= 1), ErrorKind::InvalidData, "counts end short of n");
    refused(lie(|c, _| c.counts[0] += 1), ErrorKind::InvalidData, "collection 0 holds a term");
    refused(lie(|c, _| c.counts[100] = u32::MAX), ErrorKind::InvalidData, "count overflows");
    refused(lie(|c, t| c.counts[t] += 7), ErrorKind::InvalidData, "ordinal past n");
    // Rest lengths that miss the arena's end, either way, an arena a byte
    // longer than the lengths, and suffix bytes the lengths do not sum to.
    refused(lie(|c, _| c.rest[0] += 1), ErrorKind::InvalidData, "a length one too long");
    refused(lie(|c, _| *c.rest.last_mut().unwrap() -= 1), ErrorKind::InvalidData, "lengths end early");
    refused(lie(|c, _| c.arena.push(b'z')), ErrorKind::InvalidData, "an arena past the lengths");
    refused(lie(|c, _| c.suffix_bytes += 1), ErrorKind::InvalidData, "a suffix byte too many");
    refused(lie(|c, _| c.suffix_bytes -= 1), ErrorKind::InvalidData, "a suffix byte too few");

    // Front coding. Each lie below keeps the header's suffix bytes equal
    // to what the lengths sum to, so the length is the only thing wrong.
    let entries: Vec<_> = dict.entries().collect();
    let cols = DictColumns::of_dictionary(&dict);
    let firsts: Vec<bool> =
        (0..entries.len()).map(|i| i == 0 || entries[i - 1].trie_index != entries[i].trie_index).collect();
    let rest_at = |i: usize| cols.rest[..i].iter().map(|&r| usize::from(r)).sum::<usize>();
    // A suffix sharing one byte more than the whole suffix before it.
    let i = (1..entries.len()).find(|&i| !firsts[i]).expect("a collection of two suffixes");
    refused(
        with_columns(&bytes, |c| {
            c.shared[i] = entries[i - 1].suffix.len() as u8 + 1;
            c.suffix_bytes += u32::from(c.shared[i]) - u32::from(cols.shared[i]);
        }),
        ErrorKind::InvalidData,
        "a shared length longer than the previous suffix",
    );
    // A collection's first suffix that shares a byte with the collection
    // before it.
    let i = (1..entries.len()).find(|&i| firsts[i]).expect("two collections");
    refused(
        with_columns(&bytes, |c| {
            c.shared[i] = 1;
            c.suffix_bytes += 1;
        }),
        ErrorKind::InvalidData,
        "a collection's first suffix that shares",
    );
    // The last length byte escapes its rest length to a byte past the
    // length column.
    let last_term = entries.len() - 1;
    assert!(cols.shared[last_term] < 15 && cols.rest[last_term] < 15, "the last length has no escape");
    let mut cut_escape = bytes.clone();
    cut_escape[at.handles - 1] |= 0x0F;
    refused(cut_escape, ErrorKind::InvalidData, "an escape cut off at the end of the length column");
    // Shorter than the previous suffix, and a first rest byte equal to,
    // then below, the previous suffix's byte there: not ascending.
    let i = (1..entries.len())
        .find(|&i| !firsts[i] && usize::from(cols.shared[i]) < entries[i - 1].suffix.len())
        .expect("a suffix sharing less than the whole of the one before");
    let before = entries[i - 1].suffix[usize::from(cols.shared[i])];
    for first_rest in [before, before - 1] {
        refused(
            with_columns(&bytes, |c| c.arena[rest_at(i)] = first_rest),
            ErrorKind::InvalidData,
            &format!("a first rest byte of {first_rest} against {before}"),
        );
    }
    // Two neighbours of one collection swapped, front-coded as they now
    // stand: each is a fine suffix, the pair is out of order. The same
    // suffix twice is out of order too: the order is strict.
    let pair = (1..entries.len()).find(|&i| !firsts[i]).unwrap() - 1;
    let mut listed: Vec<RefEntry> =
        entries.iter().map(|e| (e.trie_index, e.suffix.to_vec(), e.indexer, e.postings)).collect();
    listed.swap(pair, pair + 1);
    (listed[pair].3, listed[pair + 1].3) = (listed[pair + 1].3, listed[pair].3);
    refused(DictColumns::of(&listed).to_bytes(), ErrorKind::InvalidData, "suffixes out of order");
    listed.swap(pair, pair + 1);
    listed[pair].1 = listed[pair + 1].1.clone();
    refused(DictColumns::of(&listed).to_bytes(), ErrorKind::InvalidData, "the same suffix twice");
}

/// The source file of `doc` by a walk over every record: what `file_of`'s
/// binary search must agree with.
fn scanned_file_of(map: &DocMap, doc: u32) -> Option<u32> {
    let e = map.entries().iter().find(|e| e.first_doc <= doc && doc - e.first_doc < e.n_docs)?;
    Some(e.file_idx)
}

#[test]
fn docmaps_that_lie_are_refused_or_answer_as_a_scan() {
    let mut map = DocMap::new();
    for (file, n_docs) in [(0, 5), (1, 3), (2, 0), (3, 7)] {
        map.push_file(file, n_docs);
    }
    map.push_quarantined(4, 2);
    map.push_file(5, 4);
    let mut bytes = Vec::new();
    map.write_to(&mut bytes).unwrap();
    let read = |b: &[u8]| DocMap::read_from(&mut &b[..]);
    assert_eq!(read(&bytes).unwrap(), map);
    for cut in 0..bytes.len() {
        assert_eq!(read(&bytes[..cut]).unwrap_err().kind(), ErrorKind::UnexpectedEof, "cut at {cut}");
    }
    // Magic, count; then 12-byte records of file, first doc, doc count;
    // then the end of the doc-ID space.
    let record = |i: usize| 8 + 12 * i..8 + 12 * (i + 1);
    let mut swapped = bytes.clone();
    swapped[record(0)].copy_from_slice(&bytes[record(1)]);
    swapped[record(1)].copy_from_slice(&bytes[record(0)]);
    assert_eq!(read(&swapped).unwrap_err().kind(), ErrorKind::InvalidData, "records swapped");
    let mut overlapping = bytes.clone();
    let first_doc = record(3).start + 4;
    overlapping[first_doc..first_doc + 4].copy_from_slice(&6u32.to_le_bytes());
    assert_eq!(read(&overlapping).unwrap_err().kind(), ErrorKind::InvalidData, "records overlap");

    // Every bit pattern a flip of each byte can leave: refused, or a map
    // whose binary search agrees with the scan on every document it could
    // hold and on each record's edges.
    let (mut refused, mut parsed) = (0usize, 0usize);
    let mut hostile = bytes.clone();
    for at in 0..bytes.len() {
        for flip in [0x01u8, 0x02, 0x10, 0x80, 0xFF] {
            hostile[at] = bytes[at] ^ flip;
            match read(&hostile) {
                Err(e) => {
                    refused += 1;
                    assert!(matches!(e.kind(), ErrorKind::InvalidData | ErrorKind::UnexpectedEof), "byte {at}: {e}");
                }
                Ok(m) => {
                    parsed += 1;
                    let edges = m.entries().iter().flat_map(|e| {
                        let end = e.first_doc + e.n_docs;
                        [e.first_doc.saturating_sub(1), e.first_doc, end.saturating_sub(1), end]
                    });
                    for doc in (0..=map.total_docs() + 1).chain(edges).chain([m.total_docs()]) {
                        assert_eq!(m.file_of(DocId(doc)), scanned_file_of(&m, doc), "byte {at} ^ {flip:#x}, doc {doc}");
                    }
                }
            }
        }
        hostile[at] = bytes[at];
    }
    assert!(refused > 50 && parsed > 50, "{refused} refused, {parsed} parsed");
}

/// One `IIR3` file from a hand-written table over `payload`.
fn run_file(rows: &[Vec<u8>], payload: &[u8]) -> Vec<u8> {
    let list: PostingsList = [Posting { doc: DocId(0), tf: 1 }].into_iter().collect();
    let donor = RunFile::build(0, 0, &mut [(0u32, &list)].into_iter(), Codec::VarByte).to_bytes();
    let table = rows.concat();
    let mut out = donor[..21].to_vec();
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    out.extend_from_slice(&(table.len() as u64).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&table);
    out.extend_from_slice(payload);
    out
}

/// `[handle delta, 1, doc, tf]`.
fn single(handle_delta: u32, doc: u32, tf: u32) -> Vec<u8> {
    varbyte::encode_all(&[handle_delta, 1, doc, tf])
}

/// `[handle delta, n, len, doc_min, doc_max - doc_min, max_tf]` and the
/// varbyte codec tag.
fn multi(fields: [u32; 6]) -> Vec<u8> {
    let mut row = varbyte::encode_all(&fields);
    row.push(0);
    row
}

#[test]
fn one_posting_rows_that_lie_are_refused() {
    let p = |doc, tf| Posting { doc: DocId(doc), tf };
    // The honest file: a one-posting row, then two postings (docs 8 and 10,
    // tfs 1 and 2: varbyte gap 1, tf-1 0 and 1) whose payload starts at 0
    // because the row before them owns no byte, then one more posting.
    let rows = [single(3, 7, 2), multi([0, 2, 3, 8, 2, 2]), single(5, 40, 9)];
    let payload = [0x81, 0x80, 0x81];
    let bytes = run_file(&rows, &payload);
    let run = RunFile::from_bytes(&bytes).unwrap();
    assert_eq!(run.get(3).unwrap(), vec![p(7, 2)]);
    assert_eq!(run.get(4).unwrap(), vec![p(8, 1), p(10, 2)]);
    assert_eq!(run.get(10).unwrap(), vec![p(40, 9)]);
    let at: Vec<(u64, u32)> = run.entries.iter().map(|e| (e.offset, e.len)).collect();
    assert_eq!(at, [(0, 0), (0, 3), (3, 0)], "offsets are the running sum of the lengths");
    assert_eq!(run.to_bytes(), bytes);
    for cut in 0..bytes.len() {
        assert!(RunFile::from_bytes(&bytes[..cut]).is_err(), "cut at {cut} parsed");
    }
    let malformed = |rows: &[Vec<u8>], payload: &[u8], what: &str| {
        assert_eq!(RunFile::from_bytes(&run_file(rows, payload)), Err(RunFileError::Malformed), "{what}");
    };
    malformed(&[single(3, 7, 0)], &[], "a posting with tf 0");
    malformed(&[single(3, 7, 2)], &[0x80], "a payload byte no row owns");
    malformed(&[single(3, 7, 2), multi([0, 2, 3, 8, 2, 2])], &payload[..2], "lengths past the payload");
    malformed(&[single(u32::MAX, 7, 2), single(0, 8, 1)], &[], "handles past u32::MAX");
    // A count of rows the table could not hold is refused before any row is
    // read or reserved for.
    let mut many = run_file(&[single(3, 7, 2)], &[]);
    many[21..25].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(RunFile::from_bytes(&many), Err(RunFileError::Malformed));
}

/// Replace artifact `name` of the index in `dir` with `bytes` and make the
/// manifest vouch for them.
fn overwrite_artifact(dir: &Path, name: &str, bytes: &[u8]) {
    let mut manifest = Manifest::load(dir).unwrap();
    let record = manifest.artifacts.iter_mut().find(|a| a.name == name).expect("artifact is listed");
    std::fs::write(dir.join(&record.file), bytes).unwrap();
    record.len = bytes.len() as u64;
    record.crc32 = crc32(bytes);
    std::fs::write(dir.join(MANIFEST_NAME), manifest.to_bytes()).unwrap();
}

/// The manifest of `dir` rewritten to list run artifact `name` twice, each
/// paired with the artifact the refusal must name: the record appended
/// again (what a hand-edited manifest looks like), the record next to
/// itself, and a second, unpadded name for the same run — a manifest in
/// order, but a generation that would append the run twice.
fn listed_twice(dir: &Path, name: &str) -> Vec<(Manifest, String)> {
    let honest = Manifest::load(dir).unwrap();
    let at = honest.artifacts.iter().position(|a| a.name == name).expect("artifact is listed");
    let record = honest.artifacts[at].clone();
    let (indexer, run) = parse_run_artifact_name(name).expect("a run artifact");
    let alias = format!("run_{indexer}_{run}.iirf");
    let mut appended = honest.clone();
    appended.artifacts.push(record.clone());
    let mut doubled = honest.clone();
    doubled.artifacts.insert(at, record.clone());
    let mut aliased = honest.clone();
    aliased.artifacts.push(ArtifactMeta { name: alias.clone(), ..record });
    aliased.artifacts.sort_by(|a, b| a.name.cmp(&b.name));
    vec![(appended, MANIFEST_NAME.into()), (doubled, MANIFEST_NAME.into()), (aliased, alias)]
}

fn corrupt_artifact(r: Result<Index, StoreError>) -> String {
    match r {
        Err(StoreError::Corrupt { name, .. }) => name,
        Err(e) => panic!("expected StoreError::Corrupt, got {e}"),
        Ok(_) => panic!("expected StoreError::Corrupt, the index opened"),
    }
}

#[test]
fn index_open_refuses_what_the_manifest_wrongly_vouches_for() {
    let (idx, dir) = saved_index("open");
    let reopened = Index::open(&dir).unwrap();
    assert_eq!(reopened.num_terms(), idx.num_terms());

    // A run whose last handle is not a term of the dictionary: the holders
    // column is sized by the dictionary, so this must not be marked past it.
    let (&indexer, set) = idx.run_sets.iter().next().unwrap();
    let victim = set.runs().last().unwrap();
    let name = run_artifact_name(indexer, victim.run_id);
    let honest = victim.to_bytes();
    for handle in [idx.num_terms() as u32, u32::MAX] {
        let stray: PostingsList = [Posting { doc: DocId(1), tf: 1 }].into_iter().collect();
        let run = RunFile::build(victim.run_id, indexer, &mut [(handle, &stray)].into_iter(), victim.codec);
        overwrite_artifact(&dir, &name, &run.to_bytes());
        assert_eq!(corrupt_artifact(Index::open(&dir)), name, "handle {handle}");
    }
    // The same run, its largest handle still a term: opens.
    let stray: PostingsList = [Posting { doc: DocId(1), tf: 1 }].into_iter().collect();
    let top = idx.num_terms() as u32 - 1;
    let run = RunFile::build(victim.run_id, indexer, &mut [(top, &stray)].into_iter(), victim.codec);
    overwrite_artifact(&dir, &name, &run.to_bytes());
    Index::open(&dir).expect("a handle below the term count is in range");
    // A run file that is some other run's, under this one's name.
    let run = RunFile::build(victim.run_id + 1, indexer, &mut [(0, &stray)].into_iter(), victim.codec);
    overwrite_artifact(&dir, &name, &run.to_bytes());
    assert_eq!(corrupt_artifact(Index::open(&dir)), name, "run id from another name");
    // A run file cut short under a manifest that agrees with the cut.
    overwrite_artifact(&dir, &name, &honest[..honest.len() - 1]);
    assert_eq!(corrupt_artifact(Index::open(&dir)), name);
    overwrite_artifact(&dir, &name, &honest);
    Index::open(&dir).expect("restored");

    // One run listed twice: refused, not appended twice.
    let manifest = std::fs::read(dir.join(MANIFEST_NAME)).unwrap();
    for (hostile, refusal) in listed_twice(&dir, &name) {
        std::fs::write(dir.join(MANIFEST_NAME), hostile.to_bytes()).unwrap();
        assert_eq!(corrupt_artifact(Index::open(&dir)), refusal);
    }
    std::fs::write(dir.join(MANIFEST_NAME), &manifest).unwrap();
    Index::open(&dir).expect("restored");

    // The dictionary: cut short, counts past the term count, and the
    // retired magics (an earlier front coding, fixed-width columns, then
    // packed columns of whole suffixes).
    let mut dict_bytes = Vec::new();
    idx.dictionary.write_to(&mut dict_bytes).unwrap();
    for hostile in [
        dict_bytes[..dict_bytes.len() - 3].to_vec(),
        with_columns(&dict_bytes, |c| c.counts[TRIE_ENTRIES - 1] += 1),
        with_word(&dict_bytes, 0, u32::from_le_bytes(*b"IIDC")),
        with_word(&dict_bytes, 0, u32::from_le_bytes(*b"IIDT")),
        with_word(&dict_bytes, 0, u32::from_le_bytes(*b"IIDP")),
    ] {
        overwrite_artifact(&dir, DICTIONARY_ARTIFACT, &hostile);
        assert_eq!(corrupt_artifact(Index::open(&dir)), DICTIONARY_ARTIFACT);
    }
    overwrite_artifact(&dir, DICTIONARY_ARTIFACT, &dict_bytes);
    let restored = Index::open(&dir).expect("restored");
    let probe = idx.dictionary.entries().next().unwrap().full_term();
    assert_eq!(restored.postings_stemmed(&probe), idx.postings_stemmed(&probe));

    // A manifest nested 200 000 deep is a torn manifest, not a stack overflow.
    let manifest = std::fs::read(dir.join(MANIFEST_NAME)).unwrap();
    std::fs::write(dir.join(MANIFEST_NAME), deep_json()).unwrap();
    for r in [Index::open(&dir).map(|_| ()), Store::open(&dir).map(|_| ())] {
        match r {
            Err(StoreError::TornManifest { detail }) => assert!(detail.contains("recursion limit")),
            Err(e) => panic!("a 200 000-deep manifest: expected TornManifest, got {e}"),
            Ok(()) => panic!("a 200 000-deep manifest opened"),
        }
    }
    std::fs::write(dir.join(MANIFEST_NAME), manifest).unwrap();
    Index::open(&dir).expect("restored");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Open reads the runs on a second thread while it decodes the dictionary
/// and the doc map, and still reports what it meets in the order a
/// sequential read would: a damaged dictionary before a damaged run, a
/// damaged doc map before a damaged run, each under a manifest that vouches
/// for the damage.
#[test]
fn index_open_reports_the_dictionary_then_the_docmap_then_the_runs() {
    let (idx, dir) = saved_index("open-order");
    let (&indexer, set) = idx.run_sets.iter().next().unwrap();
    let run = run_artifact_name(indexer, set.runs()[0].run_id);
    let honest_run = set.runs()[0].to_bytes();
    let mut dict_bytes = Vec::new();
    idx.dictionary.write_to(&mut dict_bytes).unwrap();
    let mut docmap = Vec::new();
    idx.doc_map.write_to(&mut docmap).unwrap();

    overwrite_artifact(&dir, &run, &honest_run[..honest_run.len() - 1]);
    assert_eq!(corrupt_artifact(Index::open(&dir)), run, "the run alone");
    overwrite_artifact(&dir, DOCMAP_ARTIFACT, &docmap[..docmap.len() - 1]);
    assert_eq!(corrupt_artifact(Index::open(&dir)), DOCMAP_ARTIFACT, "the doc map and a run");
    overwrite_artifact(&dir, DICTIONARY_ARTIFACT, &dict_bytes[..dict_bytes.len() - 1]);
    assert_eq!(corrupt_artifact(Index::open(&dir)), DICTIONARY_ARTIFACT, "all three");
    overwrite_artifact(&dir, DOCMAP_ARTIFACT, &docmap);
    assert_eq!(corrupt_artifact(Index::open(&dir)), DICTIONARY_ARTIFACT, "the dictionary and a run");
    // A dictionary whose header is damaged, so no term count reaches the
    // run walk: the dictionary is still what is reported.
    overwrite_artifact(&dir, DICTIONARY_ARTIFACT, &with_word(&dict_bytes, 4, u32::MAX));
    assert_eq!(corrupt_artifact(Index::open(&dir)), DICTIONARY_ARTIFACT, "a damaged header");
    overwrite_artifact(&dir, DICTIONARY_ARTIFACT, &dict_bytes);
    overwrite_artifact(&dir, &run, &honest_run);
    Index::open(&dir).expect("restored");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Codec tags the index no longer writes — γ (1), Golomb (2) and
/// Elias-Fano (5) — in a run's header and in a multi-posting row, and a
/// header whose reserved bytes 13..21 are not zero, each under a manifest
/// re-vouched for it: the checksum pass of `ii verify` finds every artifact
/// as committed, and `Index::open` — the pass after it — refuses the run
/// with a typed `Corrupt` naming it.
#[test]
fn retired_codec_tags_and_reserved_header_bytes_are_refused() {
    let (idx, dir) = saved_index("retired");
    let (indexer, victim) = idx
        .run_sets
        .iter()
        .flat_map(|(&indexer, set)| set.runs().iter().map(move |run| (indexer, run)))
        .find(|(_, run)| run.entries.iter().any(|e| e.n_postings > 1))
        .expect("some run holds a list of two postings or more");
    let name = run_artifact_name(indexer, victim.run_id);
    let honest = victim.to_bytes();
    let rows = MaterialisedRun::from_bytes(&honest).unwrap();
    let multi = rows.entries.iter().position(|e| e.n_postings > 1).unwrap();
    // A multi-posting row ends in its codec tag.
    let row_tag_at = rows.row_spans()[multi].end - 1;
    assert!(matches!(honest[row_tag_at], 0 | 3 | 4), "tag {}", honest[row_tag_at]);
    assert_eq!(honest[13..21], [0; 8], "the reserved bytes are written as zero");

    let mut cases = Vec::new();
    for tag in [1u8, 2, 5] {
        for at in [12, row_tag_at] {
            let mut bytes = honest.clone();
            bytes[at] = tag;
            cases.push((format!("tag {tag} at byte {at}"), bytes));
        }
    }
    for reserved in [[1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0x80], [0xFF; 8]] {
        let mut bytes = honest.clone();
        bytes[13..21].copy_from_slice(&reserved);
        cases.push((format!("reserved bytes {reserved:?}"), bytes));
    }
    for (what, bytes) in &cases {
        assert_eq!(RunFile::from_bytes(bytes), Err(RunFileError::Malformed), "{what}");
        overwrite_artifact(&dir, &name, bytes);
        let statuses = Index::verify_dir(&dir).unwrap();
        assert!(statuses.iter().all(|s| s.ok), "{what}: the manifest vouches for the bytes");
        assert_eq!(corrupt_artifact(Index::open(&dir)), name, "{what}");
    }
    overwrite_artifact(&dir, &name, &honest);
    Index::open(&dir).expect("restored");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `bytes`, a run file, with `bytes[range]` replaced by `with`, the
/// header's row count moved by `rows` and its table length by the splice:
/// a file whose lengths agree around a rewritten table.
fn splice(bytes: &[u8], range: Range<usize>, with: &[u8], rows: i32) -> Vec<u8> {
    let mut out = [&bytes[..range.start], with, &bytes[range.end..]].concat();
    let n = u32::from_le_bytes(out[21..25].try_into().unwrap()).wrapping_add_signed(rows);
    out[21..25].copy_from_slice(&n.to_le_bytes());
    let table = u64::from_le_bytes(out[25..33].try_into().unwrap()) + with.len() as u64;
    out[25..33].copy_from_slice(&(table - range.len() as u64).to_le_bytes());
    out
}

/// Every handle of `index` answers as the reference's rows of run `run_id`
/// (`want`) and the other runs' own rows say, decoded over the same
/// payloads: the same postings, or an error for both.
fn answers_like(index: &Index, indexer: u32, run_id: u32, want: &MaterialisedRun) {
    let set = &index.run_sets[&indexer];
    for run in set.runs() {
        assert!(run.entries.sampled() <= run.entries.len() / SAMPLE_EVERY + 1);
    }
    let hostile = set.runs().iter().find(|r| r.run_id == run_id).unwrap();
    for h in 0..index.num_terms() as u32 {
        assert_eq!(hostile.entry(h), want.entry(h).copied(), "handle {h}");
        // `None`: a part that does not decode, or parts out of order.
        let mut expected = Some(Vec::new());
        for run in set.runs() {
            let row = if run.run_id == run_id { want.entry(h).copied() } else { run.entry(h) };
            if let (Some(list), Some(row)) = (&mut expected, row) {
                match run.decode_entry(&row) {
                    Ok(part) => list.extend(part),
                    Err(_) => expected = None,
                }
            }
        }
        let expected = expected.filter(|list| list.windows(2).all(|w| w[0].doc < w[1].doc));
        assert_eq!(set.fetch(h).ok().map(|l| l.postings().to_vec()), expected, "handle {h}");
    }
}

/// Rows of a multi-block `IIR3` table flipped, cut and spliced where the
/// row sample's groups begin and end — the first row of a group, a row
/// inside one, the last row of one and the table's last row — each under a
/// manifest re-vouched for it. A file the frozen reader refuses is refused
/// at `Index::open`; one it reads is refused only for a handle past the
/// dictionary, or opens and answers every handle as its rows say. No open
/// keeps more sample than its rows need.
#[test]
fn rows_damaged_at_sample_group_boundaries_are_refused_or_answered_right() {
    let coll_dir = scratch("groups-coll");
    let spec =
        CollectionSpec { num_files: 2, docs_per_file: 300, vocab_size: 1_000, ..CollectionSpec::tiny(31) };
    let coll = Arc::new(StoredCollection::generate(spec, &coll_dir).unwrap());
    // One run over both files: 600 documents, so the head terms' lists
    // pass one block.
    let cfg = PipelineConfig { batches_per_run: 2, ..PipelineConfig::small(1, 1, 0) };
    let out = build_index(&coll, &cfg).expect("build");
    std::fs::remove_dir_all(&coll_dir).unwrap();
    let idx = Index::from_output(out);
    let dir = scratch("groups");
    idx.save(&dir).unwrap();
    let (&indexer, set) = idx.run_sets.iter().next().unwrap();
    let victim = set.runs().iter().max_by_key(|r| r.entries.len()).unwrap();
    let name = run_artifact_name(indexer, victim.run_id);
    let honest = victim.to_bytes();
    let rows = MaterialisedRun::from_bytes(&honest).unwrap();
    assert!(rows.entries.len() > 3 * SAMPLE_EVERY, "{} rows", rows.entries.len());
    let longest = rows.entries.iter().map(|e| e.n_postings).max();
    assert!(longest > Some(128), "no multi-block list: {longest:?} postings at most");

    let spans = rows.row_spans();
    let last = spans.len() - 1;
    let mut hostile = Vec::new();
    for r in [SAMPLE_EVERY, SAMPLE_EVERY + SAMPLE_EVERY / 2, 2 * SAMPLE_EVERY - 1, last] {
        let span = spans[r].clone();
        let row = &honest[span.clone()];
        for at in span.clone() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut bytes = honest.clone();
                bytes[at] ^= flip;
                hostile.push(bytes);
            }
        }
        for keep in 0..row.len() {
            hostile.push(splice(&honest, span.clone(), &row[..keep], 0));
        }
        hostile.push(splice(&honest, span.clone(), &[], -1));
        hostile.push(splice(&honest, span.start..span.start, row, 1));
        if r < last {
            let next = &honest[spans[r + 1].clone()];
            hostile.push(splice(&honest, span.start..spans[r + 1].end, &[next, row].concat(), 0));
        }
    }
    let (mut refused, mut answered) = (0usize, 0usize);
    for bytes in &hostile {
        overwrite_artifact(&dir, &name, bytes);
        let want = MaterialisedRun::from_bytes(bytes);
        match Index::open(&dir) {
            Err(StoreError::Corrupt { name: refused_name, .. }) => {
                assert_eq!(refused_name, name);
                if let Ok(want) = want {
                    let top = want.entries.last().unwrap().handle;
                    assert!(top as usize >= idx.num_terms(), "a readable table refused");
                }
                refused += 1;
            }
            Err(e) => panic!("expected StoreError::Corrupt, got {e}"),
            Ok(index) => {
                let want = want.expect("the index opened a table the reference refuses");
                answers_like(&index, indexer, victim.run_id, &want);
                answered += 1;
            }
        }
    }
    assert!(refused > 50 && answered > 10, "{refused} refused, {answered} answered");
    overwrite_artifact(&dir, &name, &honest);
    answers_like(&Index::open(&dir).expect("restored"), indexer, victim.run_id, &rows);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// 200 000 unclosed `[`: about 200 KB that nests past any stack.
fn deep_json() -> String {
    "[".repeat(200_000)
}

/// A checkpoint is read by the reader an index is, and then turned back
/// into shards: a dictionary no `combine` wrote, a run naming a handle its
/// shard has not issued, a descriptor counting fewer runs than it holds, a
/// descriptor nested 200 000 deep and checkpoints older builds wrote (a
/// dictionary of the retired layout, a descriptor with watermarks,
/// per-indexer shard files and no `dictionary.bin`) each end a resumed
/// build in a typed error.
#[test]
fn resume_refuses_what_the_manifest_wrongly_vouches_for() {
    let coll_dir = scratch("ckpt-coll");
    let spec = CollectionSpec { num_files: 5, ..CollectionSpec::tiny(29) };
    let coll = Arc::new(StoredCollection::generate(spec, &coll_dir).unwrap());
    let cfg = PipelineConfig { batches_per_run: 1, ..PipelineConfig::small(2, 1, 1) };
    // Kill a build halfway through its storage ops: some checkpoint is in.
    let probe = CrashVfs::probe();
    let opts = DurableOptions::new(scratch("ckpt-probe")).checkpoint_every(1).with_vfs(&probe);
    build_index_durable(&coll, &cfg, &opts).expect("probe build");
    std::fs::remove_dir_all(&opts.dir).unwrap();
    let dir = scratch("ckpt");
    let crash = CrashVfs::new(probe.ops() / 2, CrashMode::PowerLoss, 3);
    let opts = DurableOptions::new(&dir).checkpoint_every(1).with_vfs(&crash);
    assert!(build_index_durable(&coll, &cfg, &opts).is_err(), "killed");
    let honest = Manifest::load(&dir).unwrap();
    assert_eq!(honest.kind, ManifestKind::Checkpoint);
    let read = |name: &str| std::fs::read(dir.join(&honest.artifact(name).unwrap().file)).unwrap();
    let dict_bytes = read(DICTIONARY_ARTIFACT);
    let dict = GlobalDictionary::from_bytes(&dict_bytes).unwrap();
    let descriptor = read(CHECKPOINT_ARTIFACT);

    let resume = || {
        let opts = DurableOptions::new(&dir).checkpoint_every(1).resume(true);
        build_index_durable(&coll, &cfg, &opts).map(|_| ())
    };
    let corrupt = |what: &str| match resume() {
        Err(PipelineError::Store(StoreError::Corrupt { name, .. })) => name,
        Err(e) => panic!("{what}: expected StoreError::Corrupt, got {e}"),
        Ok(()) => panic!("{what}: expected StoreError::Corrupt, the build resumed"),
    };

    // Two terms of one indexer claim one handle; a handle past the shard.
    let first = dict.entries().next().unwrap();
    let twin = dict.entries().position(|e| e.indexer == first.indexer && e.postings != first.postings);
    let twin = twin.expect("the first term's indexer owns a second term");
    for (what, handle) in [("a handle held twice", first.postings), ("a handle past the shard", u32::MAX)] {
        let hostile = with_columns(&dict_bytes, |c| c.handles[twin] = handle);
        overwrite_artifact(&dir, DICTIONARY_ARTIFACT, &hostile);
        assert_eq!(corrupt(what), DICTIONARY_ARTIFACT, "{what}");
    }
    // A collection owned by an indexer the pool does not have. (Its terms
    // leave their old owner's count, so that owner's runs may be refused
    // first: either way the build does not resume.)
    let stray_owner = with_columns(&dict_bytes, |c| c.owners[first.trie_index as usize] = 2);
    overwrite_artifact(&dir, DICTIONARY_ARTIFACT, &stray_owner);
    corrupt("an owner past the pool");
    overwrite_artifact(&dir, DICTIONARY_ARTIFACT, &dict_bytes);

    // A sealed run naming a handle its shard has not issued.
    let name = honest.names().find(|n| n.starts_with("run_")).unwrap().to_string();
    let honest_run = RunFile::from_bytes(&read(&name)).unwrap();
    let issued = dict.entries().filter(|e| e.indexer == honest_run.indexer_id).count() as u32;
    let stray: PostingsList = [Posting { doc: DocId(1), tf: 1 }].into_iter().collect();
    let lists = [(issued, &stray)];
    let run = RunFile::build(honest_run.run_id, honest_run.indexer_id, &mut lists.into_iter(), honest_run.codec);
    overwrite_artifact(&dir, &name, &run.to_bytes());
    assert_eq!(corrupt("a handle the shard has not issued"), name);
    overwrite_artifact(&dir, &name, &honest_run.to_bytes());

    // A sealed run listed twice.
    let manifest = std::fs::read(dir.join(MANIFEST_NAME)).unwrap();
    for (hostile, refusal) in listed_twice(&dir, &name) {
        std::fs::write(dir.join(MANIFEST_NAME), hostile.to_bytes()).unwrap();
        assert_eq!(corrupt("a run listed twice"), refusal);
    }
    std::fs::write(dir.join(MANIFEST_NAME), &manifest).unwrap();

    // A descriptor counting fewer runs than its run files: the first run
    // the resumed build flushes does not follow the runs it holds.
    let mut undercount: BuildCheckpoint = serde_json::from_slice(&descriptor).unwrap();
    assert!(undercount.runs_flushed > 0, "the checkpoint holds a run");
    undercount.runs_flushed = 0;
    overwrite_artifact(&dir, CHECKPOINT_ARTIFACT, &serde_json::to_vec(&undercount).unwrap());
    match resume() {
        Err(PipelineError::RunOrder { indexer: 0, run: 0 }) => {}
        Err(e) => panic!("a descriptor short of its runs: unexpected error {e}"),
        Ok(()) => panic!("a descriptor short of its runs resumed"),
    }

    overwrite_artifact(&dir, CHECKPOINT_ARTIFACT, deep_json().as_bytes());
    match resume() {
        Err(PipelineError::Resume(why)) => assert!(why.contains("recursion limit"), "{why}"),
        Err(e) => panic!("a 200 000-deep descriptor: unexpected error {e}"),
        Ok(()) => panic!("a 200 000-deep descriptor resumed"),
    }

    // What older builds wrote, vouched for by the manifest, is refused as
    // old, not as corrupt: the two dictionary layouts before this one
    // (fixed-width columns; packed columns of whole suffixes), and a
    // descriptor whose config fingerprint names the flush and shed
    // watermarks that one budget replaced.
    overwrite_artifact(&dir, CHECKPOINT_ARTIFACT, &descriptor);
    let older = |what: &str| match resume() {
        Err(PipelineError::Resume(why)) => {
            let old = why.contains("an older build wrote it, build again without --resume");
            assert!(old, "{what}: {why}")
        }
        Err(e) => panic!("{what}: unexpected error {e}"),
        Ok(()) => panic!("{what}: resumed"),
    };
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    for layout in ["written_by_0da7cc7", "written_by_51f554f"] {
        let retired = std::fs::read(fixtures.join(layout).join("dictionary.bin")).unwrap();
        overwrite_artifact(&dir, DICTIONARY_ARTIFACT, &retired);
        older(&format!("a dictionary of the layout {layout} wrote"));
    }
    overwrite_artifact(&dir, DICTIONARY_ARTIFACT, &dict_bytes);
    let mut watermarked: BuildCheckpoint = serde_json::from_slice(&descriptor).unwrap();
    watermarked.config.push_str("|flush_wm=0.5|shed_wm=0.85");
    overwrite_artifact(&dir, CHECKPOINT_ARTIFACT, &serde_json::to_vec(&watermarked).unwrap());
    older("a descriptor with watermarks");

    // The generation before those: a shard file per indexer, their ids
    // listed in the descriptor, and no combined dictionary.
    let mut old = Manifest::load(&dir).unwrap();
    old.artifacts.retain(|a| a.name != DICTIONARY_ARTIFACT);
    for id in 0..2 {
        let name = format!("state_{id:03}.{}", "iipd");
        let bytes = b"a shard nothing reads any more".to_vec();
        std::fs::write(dir.join(&name), &bytes).unwrap();
        let (len, crc32) = (bytes.len() as u64, crc32(&bytes));
        old.artifacts.push(ArtifactMeta { file: name.clone(), name, len, crc32, postings: None });
    }
    std::fs::write(dir.join(MANIFEST_NAME), old.to_bytes()).unwrap();
    let descriptor = String::from_utf8(descriptor).unwrap();
    let descriptor = descriptor.replacen('{', "{\n  \"indexers\": [0, 1],", 1);
    overwrite_artifact(&dir, CHECKPOINT_ARTIFACT, descriptor.as_bytes());
    match resume() {
        Err(PipelineError::Resume(why)) => assert!(why.contains("older build"), "{why}"),
        Err(e) => panic!("a parent-shaped checkpoint: unexpected error {e}"),
        Ok(()) => panic!("a parent-shaped checkpoint resumed"),
    }
    // Nor does repair keep what nothing reads.
    let report = Index::repair(&dir).unwrap();
    assert!(report.lost.iter().any(|(name, _)| name.ends_with("iipd")), "{:?}", report.lost);

    // Put back as committed, the checkpoint resumes.
    std::fs::remove_dir_all(&dir).unwrap();
    let crash = CrashVfs::new(probe.ops() / 2, CrashMode::PowerLoss, 3);
    let opts = DurableOptions::new(&dir).checkpoint_every(1).with_vfs(&crash);
    assert!(build_index_durable(&coll, &cfg, &opts).is_err(), "killed");
    resume().expect("the honest checkpoint resumes");
    Index::open(&dir).expect("and ends as an index");
    for d in [coll_dir, dir] {
        std::fs::remove_dir_all(d).unwrap();
    }
}


#[test]
fn deeply_nested_traces_and_bundles_are_errors() {
    for hostile in [deep_json(), format!("{{\"traceEvents\": {}", deep_json())] {
        let err = Trace::from_chrome_json(&hostile).expect_err("a hostile trace parsed");
        assert!(err.contains("recursion limit"), "{err}");
        let err = render_bundle_report(&hostile).expect_err("a hostile bundle rendered");
        assert!(err.contains("recursion limit"), "{err}");
    }
}

/// 32 000 spans on three workers plus a gauge, about 4 MB of Chrome JSON,
/// read back exactly. (A reader that re-validated the rest of the document
/// at every string character took minutes on this.)
#[test]
fn a_long_chrome_trace_round_trips() {
    let kinds = [TraceKind::Read, TraceKind::Parse, TraceKind::Index, TraceKind::ParserWait];
    let mut workers: Vec<WorkerTrace> = ["parser-0", "driver", "gpu-0"]
        .map(|name| WorkerTrace { name: name.into(), events: Vec::new(), dropped: 7 })
        .into();
    for i in 0..32_000u64 {
        let (w, t) = ((i % 3) as usize, 1_000_000_007 + (i / 3) * 20_011);
        let gpu = w == 2 && i % 4 == 2;
        workers[w].events.push(TraceEvent {
            kind: kinds[(i % 4) as usize],
            t_start_ns: t,
            t_end_ns: t + 10_000 + i % 1000,
            bytes: i * 4096,
            batch_id: if i % 5 == 1 { (i / 7) as u32 } else { NO_ID },
            trie_lo: if gpu { (i % 17_000) as u32 } else { NO_ID },
            trie_hi: if gpu { (i % 17_000) as u32 + 600 } else { NO_ID },
            gpu: gpu.then(|| GpuSpanArgs {
                device_ns: i * 31,
                instructions: i * 20_000,
                ..Default::default()
            }),
        });
    }
    let samples = (0..500).map(|i| (1_000_000_000 + i * 333_333, (i % 9) as i64 - 2)).collect();
    let gauges = vec![GaugeTrack { name: "queue.parsed".into(), samples }];
    let trace = Trace { workers, gauges, dropped: 21 };
    let json = trace.to_chrome_json();
    assert!(json.len() > 3_500_000, "{} bytes", json.len());
    assert_eq!(Trace::from_chrome_json(&json).expect("the trace reads back"), trace);
}
