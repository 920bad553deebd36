//! Hostile-bytes and differential suite for the run-file wire layout.
//!
//! The first half holds the `IIR3` reader — a table kept as its bytes,
//! checked in one walk and looked up through a sparse sample of its rows —
//! to the reader it replaced, which decoded every row into a `Vec` up front
//! (`ii_integration_tests::run_table`, frozen): on generated runs under
//! every codec, every handle's look-up, every row, the manifest's postings
//! record and the document range must be the reference's, and on truncated
//! and mutated files the reader must return the reference's error or the
//! reference's rows — never panic — and whatever it parses must decode to
//! postings or to a typed `CodecError`.
//!
//! The second half holds the in-place run writer — `RunFile::build` and the
//! indexers' posting-log flush — to the bytes of the builder it replaced,
//! frozen in `mod frozen`, and every run it builds to `from_bytes ∘ to_bytes`
//! being the identity. The frozen builder carries one later rule, marked
//! where it applies: a list of one posting is its mapping-table row.

use ii_core::corpus::DocId;
use ii_core::indexer::PostingLog;
use ii_core::pipeline::run_postings_meta;
use ii_core::postings::{Codec, Posting, PostingsList, RunFile, SAMPLE_EVERY};
use ii_integration_tests::run_table::MaterialisedRun;
use proptest::prelude::*;

/// One list of a run under test: its handle and its postings.
type List = (u32, Vec<Posting>);

/// The same run through the product's builder.
fn built(run_id: u32, indexer_id: u32, codec: Codec, lists: &[List]) -> RunFile {
    let owned: Vec<(u32, PostingsList)> =
        lists.iter().map(|(h, l)| (*h, l.iter().copied().collect())).collect();
    let mut it = owned.iter().map(|(h, l)| (*h, l));
    RunFile::build(run_id, indexer_id, &mut it, codec)
}

// ---------------------------------------------------------------------------
// Generated runs.
// ---------------------------------------------------------------------------

/// Block-boundary list lengths.
const LENGTHS: [usize; 7] = [1, 2, 127, 128, 129, 256, 1_000];

/// Every block codec, and the length-class policy.
const CODECS: [Codec; 4] = [Codec::VarByte, Codec::Bp128, Codec::PFor, Codec::Auto];

fn codec_strategy() -> impl Strategy<Value = Codec> {
    (0..CODECS.len()).prop_map(|i| CODECS[i])
}

/// Handle gaps: mostly small, sometimes as wide as the handle space.
fn handle_gap_strategy() -> impl Strategy<Value = u32> {
    (0u32..8, any::<u32>()).prop_map(|(class, v)| match class {
        0..=3 => v % 4,
        4 | 5 => v % 100_000,
        6 => u32::MAX,
        _ => v,
    })
}

/// One list's shape: length class, first doc, doc gap, tf modulus.
type ListShape = (usize, u32, u32, u32);

fn shape_strategy() -> impl Strategy<Value = Vec<(u32, ListShape)>> {
    let shape = (0..LENGTHS.len(), 0u32..1 << 20, 1u32..5_000, 1u32..300)
        .prop_map(|(l, first, gap, tf)| (LENGTHS[l], first, gap, tf));
    proptest::collection::vec((handle_gap_strategy(), shape), 1..6)
}

/// Lists of one run in ascending handle order (rows whose handle would pass
/// `u32::MAX` are dropped). With `at_top` every list is shifted to end on
/// `u32::MAX`, so the run sits above any `at_top = false` run.
fn materialise(shapes: &[(u32, ListShape)], at_top: bool) -> Vec<List> {
    let mut next = 0u64;
    let mut out = Vec::new();
    for &(handle_gap, (n, first, gap, tf_mod)) in shapes {
        let handle = next + u64::from(handle_gap);
        if handle > u64::from(u32::MAX) {
            break;
        }
        next = handle + 1;
        let span = (n as u32 - 1) * gap;
        let first = if at_top { u32::MAX - span } else { first };
        let list = (0..n as u32)
            .map(|i| Posting { doc: DocId(first + i * gap), tf: 1 + i % tf_mod })
            .collect();
        out.push((handle as u32, list));
    }
    out
}

// ---------------------------------------------------------------------------
// The table in place against the materialised rows.
// ---------------------------------------------------------------------------

/// Row counts on both sides of the first few sample boundaries.
const ROW_COUNTS: [usize; 9] = [
    1,
    SAMPLE_EVERY - 1,
    SAMPLE_EVERY,
    SAMPLE_EVERY + 1,
    2 * SAMPLE_EVERY - 1,
    2 * SAMPLE_EVERY,
    2 * SAMPLE_EVERY + 1,
    3 * SAMPLE_EVERY,
    5 * SAMPLE_EVERY + 3,
];

/// A run of one of [`ROW_COUNTS`] lists: handle gaps of 0 (consecutive
/// handles), of a few or of thousands, lengths of 1, 2–128 and past one
/// block. Each row is drawn from one random word.
fn table_strategy() -> impl Strategy<Value = (Codec, Vec<List>)> {
    let most = ROW_COUNTS[ROW_COUNTS.len() - 1];
    let words = proptest::collection::vec(any::<u64>(), most..=most);
    (codec_strategy(), 0..ROW_COUNTS.len(), words).prop_map(|(codec, rows, words)| {
        let mut handle = 0u32;
        let lists = words[..ROW_COUNTS[rows]]
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let field = |shift: u32, modulus: u64| ((w >> shift) % modulus) as u32;
                handle += match field(0, 6) {
                    0..=2 => u32::from(i > 0),
                    3 | 4 => 2 + field(8, 4),
                    _ => 1_000 + field(8, 10_000),
                };
                let n = [1, 2 + field(24, 127), 129 + field(32, 172)][field(40, 3) as usize];
                let (first, tf_mod) = (i as u32 * 4_000, 1 + field(48, 39));
                let list = (0..n)
                    .map(|k| Posting { doc: DocId(first + k * 3), tf: 1 + k % tf_mod })
                    .collect();
                (handle, list)
            })
            .collect();
        (codec, lists)
    })
}

/// Every answer the table gives equals the reference's: each row, the
/// look-up of every handle from 0 to one past the largest (present ones and
/// their neighbours when that is too many), the manifest's record, the
/// document range.
fn assert_answers_like(run: &RunFile, want: &MaterialisedRun) {
    assert_eq!(run.entries.iter().collect::<Vec<_>>(), want.entries, "rows");
    assert_eq!(run.entries.len(), want.entries.len());
    assert_eq!(run.entries.is_empty(), want.entries.is_empty());
    assert_eq!(run.entries.last(), want.entries.last().copied());
    assert_eq!(run_postings_meta(run), want.postings_meta());
    assert_eq!(run.doc_range(), want.doc_range());
    assert!(run.entries.sampled() <= run.entries.len() / SAMPLE_EVERY + 1);
    let top = want.entries.last().map_or(0, |e| u64::from(e.handle) + 1);
    let probes: Vec<u64> = if top <= 100_000 {
        (0..=top).collect()
    } else {
        let near = want.entries.iter().flat_map(|e| {
            let h = u64::from(e.handle);
            [h.saturating_sub(1), h, h + 1]
        });
        near.chain((0..=1_000).map(|i| top * i / 1_000)).collect()
    };
    for h in probes.into_iter().filter_map(|h| u32::try_from(h).ok()) {
        assert_eq!(run.entry(h), want.entry(h).copied(), "handle {h}");
    }
}

/// Whatever `from_bytes` accepted must be safe to query: each row either
/// decodes or yields a typed error, through both entry points, and the row
/// count is one a file of `file_len` bytes could hold (4 table bytes each).
fn exercise(run: &RunFile, file_len: usize) {
    assert!(run.entries.len() * 4 <= file_len, "more rows than the file has bytes for");
    for e in &run.entries {
        let decoded = run.decode_entry(&e);
        let mut streamed = Vec::new();
        let walked = run.cursor_of(&e).and_then(|mut c| {
            while let Some(p) = c.next()? {
                streamed.push(p);
            }
            Ok(())
        });
        if let (Ok(list), Ok(())) = (&decoded, &walked) {
            assert_eq!(list, &streamed);
        }
    }
}

/// `bytes` read by the product and by the reference: the same error, or
/// the same rows and payload. Returns what the product parsed.
fn read_like_the_reference(bytes: &[u8]) -> Option<RunFile> {
    let got = RunFile::from_bytes(bytes);
    match (&got, MaterialisedRun::from_bytes(bytes)) {
        (Err(e), Err(want)) => assert_eq!(*e, want),
        (Ok(run), Ok(want)) => {
            assert_eq!(run.entries.iter().collect::<Vec<_>>(), want.entries);
            assert!(run.payload == want.payload);
        }
        (got, want) => panic!("product {:?}, reference {:?}", got.as_ref().err(), want.err()),
    }
    got.ok()
}

/// Valid `IIR3` files covering every row shape: one-posting lists, full and
/// multi-block lists, wide handle gaps, doc IDs at the top of the range,
/// each codec tag in a row.
fn hostile_seeds() -> Vec<RunFile> {
    let list = |n: u32, first: u32, gap: u32| -> Vec<Posting> {
        (0..n).map(|i| Posting { doc: DocId(first + i * gap), tf: 1 + i % 7 }).collect()
    };
    let mixed = [
        (0u32, list(1, 5, 1)),
        (1, list(2, 1 << 20, 300)),
        (900, list(128, 77, 3)),
        (70_000, list(129, 0, 2)),
        (u32::MAX - 1, list(300, u32::MAX - 299 * 9, 9)),
        (u32::MAX, list(1, u32::MAX, 1)),
    ];
    let short: Vec<List> = (0..40).map(|i| (i * 3, list(1 + i % 3, i * 11, 2))).collect();
    vec![
        built(0, 0, Codec::Auto, &mixed),
        built(1, 2, Codec::VarByte, &mixed[..4]),
        built(2, 0, Codec::Bp128, &mixed[2..]),
        built(7, 1, Codec::Auto, &short),
    ]
}

#[test]
fn truncated_iir3_files_are_refused() {
    for run in hostile_seeds() {
        let bytes = run.to_bytes();
        for cut in 0..bytes.len() {
            let parsed = read_like_the_reference(&bytes[..cut]).is_some();
            assert!(!parsed, "run {} cut to {cut} of {} bytes parsed", run.run_id, bytes.len());
        }
        assert_eq!(RunFile::from_bytes(&bytes).unwrap(), run);
    }
}

#[test]
fn mutated_iir3_headers_and_tables_never_panic() {
    let mut parsed = 0usize;
    for run in hostile_seeds() {
        let bytes = run.to_bytes();
        let table_end = bytes.len() - run.payload.len();
        let mut hostile = bytes.clone();
        for at in 0..table_end {
            for value in 0..=u8::MAX {
                if value == bytes[at] {
                    continue;
                }
                hostile[at] = value;
                if let Some(run) = read_like_the_reference(&hostile) {
                    parsed += 1;
                    exercise(&run, hostile.len());
                }
            }
            hostile[at] = bytes[at];
        }
    }
    assert!(parsed > 1_000, "the harness must reach the decoders, got {parsed} parses");
}

/// The largest handles: a table whose every look-up above the last row
/// must miss without its handle arithmetic overflowing.
#[test]
fn tables_at_the_top_of_the_handle_space_answer_like_the_reference() {
    for run in hostile_seeds() {
        let want = MaterialisedRun::from_bytes(&run.to_bytes()).unwrap();
        assert_answers_like(&run, &want);
        for h in [u32::MAX - 2, u32::MAX - 1, u32::MAX] {
            assert_eq!(run.entry(h), want.entry(h).copied(), "handle {h}");
        }
    }
    let top: Vec<List> = (0..3 * SAMPLE_EVERY as u32 + 1)
        .map(|i| (u32::MAX - 100 + 2 * i, vec![Posting { doc: DocId(i), tf: 1 }]))
        .collect();
    for codec in CODECS {
        let run = built(0, 0, codec, &top);
        let want = MaterialisedRun::from_bytes(&run.to_bytes()).unwrap();
        assert_answers_like(&run, &want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Runs around multiples of the sample spacing, under every codec: the
    /// built table and the opened one agree row for row and answer every
    /// question as the materialised rows do; every truncation of the file
    /// is refused with the reference's error.
    #[test]
    fn opened_tables_answer_like_the_materialised_rows(case in table_strategy()) {
        let (codec, lists) = case;
        let run = built(5, 2, codec, &lists);
        let bytes = run.to_bytes();
        let want = MaterialisedRun::from_bytes(&bytes).unwrap();
        let opened = RunFile::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&opened, &run);
        prop_assert!(want.to_bytes() == bytes);
        assert_answers_like(&run, &want);
        assert_answers_like(&opened, &want);
        for cut in 0..bytes.len() {
            prop_assert!(read_like_the_reference(&bytes[..cut]).is_none());
        }
    }
}

// ---------------------------------------------------------------------------
// The frozen run builder.
// ---------------------------------------------------------------------------

/// `RunFile::build` as commit 8401041 had it, frozen as the oracle of the
/// in-place run writer: every list through a `ListEncoder` of its own (skip
/// table, block bodies and staging in three vectors) into an `EncodedList`,
/// then `append_list` copying it into the payload, minus the skip table of a
/// list that fits one block. The bit-level helpers (`bits`, `varbyte`) are
/// the product's, which the change did not touch; everything from the block
/// body up is the old code. It fills a `MaterialisedRun`, the frozen
/// reader's value, whose `to_bytes` is the row encoder of that commit.
mod frozen {
    use ii_core::postings::run::RunEntry;
    use ii_core::postings::{bits, varbyte, Codec, Posting};
    use ii_integration_tests::run_table::MaterialisedRun;

    const BLOCK_LEN: usize = 128;
    const SKIP_ENTRY_BYTES: usize = 12;
    const PFOR_EXCEPTION_SHIFT: usize = 3;

    fn encode_block(codec: Codec, ps: &[Posting], out: &mut Vec<u8>) {
        let m = ps.len();
        let mut gaps = [0u32; BLOCK_LEN];
        let mut tfs = [0u32; BLOCK_LEN];
        for i in 1..m {
            gaps[i - 1] = ps[i].doc.0 - ps[i - 1].doc.0 - 1;
        }
        for i in 0..m {
            tfs[i] = ps[i].tf - 1;
        }
        let gaps = &gaps[..m - 1];
        let tfs = &tfs[..m];
        match codec {
            Codec::VarByte => {
                for &g in gaps {
                    varbyte::encode_u32(g, out);
                }
                for &t in tfs {
                    varbyte::encode_u32(t, out);
                }
            }
            Codec::Bp128 => {
                let dw = gaps.iter().map(|&g| bits::bits_needed(g)).max().unwrap_or(0);
                let tw = tfs.iter().map(|&t| bits::bits_needed(t)).max().unwrap_or(0);
                out.push(dw as u8);
                out.push(tw as u8);
                bits::pack_bits(gaps, dw, out);
                bits::pack_bits(tfs, tw, out);
            }
            Codec::PFor => {
                pfor_encode(gaps, out);
                pfor_encode(tfs, out);
            }
            Codec::Auto => unreachable!("Auto must be resolved before block encode"),
        }
    }

    fn pfor_encode(vals: &[u32], out: &mut Vec<u8>) {
        let m = vals.len();
        if m == 0 {
            return;
        }
        let mut counts = [0usize; 33];
        for &v in vals {
            counts[bits::bits_needed(v) as usize] += 1;
        }
        let budget = m >> PFOR_EXCEPTION_SHIFT;
        let mut width = 32u32;
        let mut over = 0usize;
        while width > 0 && over + counts[width as usize] <= budget {
            over += counts[width as usize];
            width -= 1;
        }
        let mask: u32 = if width == 32 { u32::MAX } else { (1u32 << width) - 1 };
        out.push(width as u8);
        out.push(over as u8);
        let mut lows = [0u32; BLOCK_LEN];
        for (i, &v) in vals.iter().enumerate() {
            lows[i] = v & mask;
        }
        bits::pack_bits(&lows[..m], width, out);
        for (i, &v) in vals.iter().enumerate() {
            if bits::bits_needed(v) > width {
                out.push(i as u8);
                varbyte::encode_u32(v >> width, out);
            }
        }
    }

    struct EncodedList {
        bytes: Vec<u8>,
        n_postings: usize,
        max_tf: u32,
    }

    struct ListEncoder {
        codec: Codec,
        skip: Vec<u8>,
        data: Vec<u8>,
        staging: Vec<Posting>,
        n: usize,
        max_tf: u32,
    }

    impl ListEncoder {
        fn push(&mut self, p: Posting) {
            self.staging.push(p);
            self.n += 1;
            if self.staging.len() == BLOCK_LEN {
                self.seal();
            }
        }

        fn seal(&mut self) {
            let block_max = self.staging.iter().map(|p| p.tf).max().unwrap();
            self.skip.extend_from_slice(&self.staging[0].doc.0.to_le_bytes());
            self.skip.extend_from_slice(&(self.data.len() as u32).to_le_bytes());
            self.skip.extend_from_slice(&block_max.to_le_bytes());
            encode_block(self.codec, &self.staging, &mut self.data);
            self.max_tf = self.max_tf.max(block_max);
            self.staging.clear();
        }

        fn finish(mut self) -> EncodedList {
            if !self.staging.is_empty() {
                self.seal();
            }
            let mut bytes = self.skip;
            bytes.extend_from_slice(&self.data);
            EncodedList { bytes, n_postings: self.n, max_tf: self.max_tf }
        }
    }

    fn encode_list(ps: &[Posting], codec: Codec) -> EncodedList {
        let mut enc = ListEncoder {
            codec: codec.resolve(ps.len()),
            skip: Vec::new(),
            data: Vec::new(),
            staging: Vec::with_capacity(BLOCK_LEN),
            n: 0,
            max_tf: 0,
        };
        for &p in ps {
            enc.push(p);
        }
        enc.finish()
    }

    /// The run of `lists` (non-empty, ascending handles).
    pub fn build(run_id: u32, indexer_id: u32, codec: Codec, lists: &[super::List]) -> MaterialisedRun {
        let mut run = MaterialisedRun::new(run_id, indexer_id, codec);
        for (handle, list) in lists {
            let resolved = codec.resolve(list.len());
            let enc = encode_list(list, resolved);
            let bytes = if enc.n_postings == 1 {
                // The singleton rule, not in the frozen commit: the row's
                // `(doc_min, max_tf)` is the posting and the payload gets
                // none of the block body encoded above.
                &[]
            } else if (1..=BLOCK_LEN).contains(&enc.n_postings) {
                &enc.bytes[SKIP_ENTRY_BYTES..]
            } else {
                &enc.bytes[..]
            };
            run.entries.push(RunEntry {
                handle: *handle,
                offset: run.payload.len() as u64,
                len: bytes.len() as u32,
                n_postings: enc.n_postings as u32,
                doc_min: list[0].doc.0,
                doc_max: list[list.len() - 1].doc.0,
                codec: resolved,
                max_tf: enc.max_tf,
            });
            run.payload.extend_from_slice(bytes);
        }
        run
    }
}

/// Feed `log` what an indexing thread sees of `lists` during a run:
/// occurrences arrive document by document, a term's repeats in a document
/// back to back (`tf` calls bump one record).
fn feed_as_cpu(log: &mut PostingLog, lists: &[List]) {
    let mut arrivals: Vec<(DocId, u32, u32)> = lists
        .iter()
        .flat_map(|(h, l)| l.iter().map(move |p| (p.doc, *h, p.tf)))
        .collect();
    arrivals.sort_unstable_by_key(|&(doc, handle, _)| (doc, handle));
    for (doc, handle, tf) in arrivals {
        for _ in 0..tf {
            log.add_occurrence(handle, doc);
        }
    }
}

/// The log drained from a device: the postings the kernel retired, in
/// retirement (document) order, then each term's current posting, by handle.
fn gpu_shaped_log(lists: &[List]) -> PostingLog {
    let mut retired: Vec<(DocId, u32, Posting)> = lists
        .iter()
        .flat_map(|(h, l)| l[..l.len() - 1].iter().map(move |p| (p.doc, *h, *p)))
        .collect();
    retired.sort_unstable_by_key(|&(doc, handle, _)| (doc, handle));
    let mut log = PostingLog::with_capacity(retired.len() + lists.len(), 0);
    for (_, handle, posting) in retired {
        log.push(handle, posting);
    }
    for (handle, list) in lists {
        log.push(*handle, list[list.len() - 1]);
    }
    log
}

/// `lists` with its handles renumbered densely from `first`, gaps capped:
/// the posting log indexes a dense array by handle, as the dictionary
/// allots handles, so it is not asked about gaps as wide as the handle space.
fn densely(lists: &[List], first: u32) -> Vec<List> {
    let mut next = first;
    let mut out = Vec::new();
    let mut prev = None;
    for (handle, list) in lists {
        next += prev.map_or(0, |p: u32| (handle - p - 1) % 1_000);
        // tf-many `add_occurrence` calls per posting: keep that bounded.
        let list = list.iter().map(|p| Posting { tf: 1 + p.tf % 9, ..*p }).collect();
        out.push((next, list));
        next += 1;
        prev = Some(*handle);
    }
    out
}

fn assert_same_run(got: &RunFile, want: &MaterialisedRun, what: &str) {
    assert_eq!(got.entries.iter().collect::<Vec<_>>(), want.entries, "{what}: mapping table");
    assert!(got.payload == want.payload, "{what}: payload bytes");
    let bytes = got.to_bytes();
    assert!(bytes == want.to_bytes(), "{what}: file bytes");
    assert_eq!(RunFile::from_bytes(&bytes).as_ref(), Ok(got), "{what}: read back");
}

/// Every length class in every codec, one run each: the builder, and both
/// shapes of posting log, write the bytes the frozen builder writes.
#[test]
fn every_length_and_codec_builds_the_frozen_bytes() {
    for codec in CODECS {
        // One list per length class, doc ranges overlapping, tf up to 300.
        let shapes: Vec<(u32, ListShape)> = LENGTHS
            .iter()
            .enumerate()
            .map(|(i, &n)| (i as u32 * 3, (n, 11 * i as u32, 1 + 37 * i as u32, 1 + 60 * i as u32)))
            .collect();
        let lists = materialise(&shapes, false);
        assert_eq!(lists.len(), LENGTHS.len());
        let want = frozen::build(4, 1, codec, &lists);
        assert_same_run(&built(4, 1, codec, &lists), &want, &format!("{codec:?} build"));
        let dense = densely(&lists, 0);
        let want = frozen::build(4, 1, codec, &dense);
        let what = format!("{codec:?} log");
        let mut cpu_log = PostingLog::new();
        feed_as_cpu(&mut cpu_log, &dense);
        assert_same_run(&cpu_log.flush_run(4, 1, codec), &want, &what);
        assert_same_run(&gpu_shaped_log(&dense).flush_run(4, 1, codec), &want, &what);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `RunFile::build` over handle gaps as wide as the handle space and
    /// docs up to `u32::MAX`; the posting-log flush over the same lists on
    /// dense handles, a log reused across two runs.
    #[test]
    fn builder_and_log_flush_write_the_frozen_bytes(
        low in shape_strategy(),
        high in shape_strategy(),
        codec in codec_strategy(),
        first_handle in 0u32..50_000,
    ) {
        // The CPU log lives across runs, as an indexer's does.
        let mut cpu_log = PostingLog::new();
        for (run_id, lists) in [materialise(&low, false), materialise(&high, true)].iter().enumerate() {
            let run_id = run_id as u32;
            let want = frozen::build(run_id, 3, codec, lists);
            assert_same_run(&built(run_id, 3, codec, lists), &want, "build");
            let dense = densely(lists, first_handle);
            let want = frozen::build(run_id, 3, codec, &dense);
            feed_as_cpu(&mut cpu_log, &dense);
            let postings: u64 = dense.iter().map(|(_, l)| l.len() as u64).sum();
            prop_assert_eq!(cpu_log.mem_bytes(), 8 * postings);
            assert_same_run(&cpu_log.flush_run(run_id, 3, codec), &want, "cpu log");
            prop_assert!(cpu_log.is_empty());
            assert_same_run(&gpu_shaped_log(&dense).flush_run(run_id, 3, codec), &want, "gpu log");
        }
    }
}
