//! Property tests for the postings layer: codec round-trips on arbitrary
//! docID gap sequences, and merge associativity / ordering invariants.
//!
//! These are the differential guarantees the post-processing step of
//! §III.F leans on: any gap structure survives every codec in the block
//! layout, and folding runs in stages cannot change the final lists.

use ii_corpus::DocId;
use ii_postings::block::{decode_list, encode_list};
use ii_postings::{merge_runs, Codec, CodecError, ListCursor, Posting, PostingsList, RunFile, RunSet};
use proptest::prelude::*;

/// Arbitrary `(gap, tf)` pairs; gaps >= 1 keep docIDs strictly increasing,
/// matching the doc-sorted contract of every list in the system.
fn gaps_strategy() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((1u32..10_000, 1u32..200), 0..150)
}

/// Materialize a gap sequence into a doc-sorted postings list.
fn list_from_gaps(gaps: &[(u32, u32)]) -> Vec<Posting> {
    let mut doc = 0u32;
    let mut first = true;
    let mut out = Vec::with_capacity(gaps.len());
    for &(gap, tf) in gaps {
        // The first "gap" counts from doc -1, so gap 1 can produce doc 0.
        doc = if first { gap - 1 } else { doc + gap };
        first = false;
        out.push(Posting { doc: DocId(doc), tf });
    }
    out
}

/// Every codec, the length-class policy included.
const ALL_CODECS: [Codec; 4] = [Codec::VarByte, Codec::Bp128, Codec::PFor, Codec::Auto];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every codec round-trips every gap structure exactly.
    #[test]
    fn codecs_roundtrip_arbitrary_gap_sequences(gaps in gaps_strategy()) {
        let list = list_from_gaps(&gaps);
        for codec in ALL_CODECS {
            let buf = encode_list(&list, codec).bytes;
            let back = decode_list(&buf, list.len(), codec);
            prop_assert_eq!(back.as_deref(), Ok(list.as_slice()), "codec {:?}", codec);
        }
    }

    /// Truncating any number of trailing bytes must yield an error, never a
    /// wrong list accepted as valid.
    #[test]
    fn truncation_never_decodes_silently(
        gaps in proptest::collection::vec((1u32..1000, 1u32..50), 1..60),
        cut in 1usize..32,
    ) {
        let list = list_from_gaps(&gaps);
        for codec in [Codec::VarByte, Codec::Bp128, Codec::PFor] {
            let buf = encode_list(&list, codec).bytes;
            let cut = cut.min(buf.len());
            match decode_list(&buf[..buf.len() - cut], list.len(), codec) {
                Err(_) => {}
                // A cut that still decodes must decode to the *same*
                // postings, never wrong ones (these three codecs end
                // byte-aligned, so in fact any cut is fatal).
                Ok(back) => prop_assert_eq!(back, list, "codec {:?}", codec),
            }
        }
    }

    /// Merging all runs at once equals merging a prefix first and folding
    /// the intermediate file with the remaining runs (associativity), and
    /// merged lists keep strictly increasing docIDs. Exercised across the
    /// codec matrix, including the Auto length-class policy (which routes
    /// blocks through the verbatim-copy fast path when classes agree).
    #[test]
    fn merge_is_associative_and_keeps_order(
        gaps in gaps_strategy(),
        num_runs in 1usize..6,
        num_handles in 1u32..5,
        split_at in 0usize..6,
        codec_idx in 0usize..4,
    ) {
        let codec = [Codec::VarByte, Codec::Bp128, Codec::PFor, Codec::Auto][codec_idx];
        let all = list_from_gaps(&gaps);
        // Deal postings round-robin-by-chunk onto (handle, run) cells so
        // each handle's docs stay sorted in run order.
        let mut runs: Vec<Vec<(u32, PostingsList)>> = vec![Vec::new(); num_runs];
        for (run_idx, chunk) in all.chunks(all.len() / num_runs + 1).enumerate() {
            if run_idx >= num_runs { break; }
            for h in 0..num_handles {
                let l: PostingsList = chunk
                    .iter()
                    .filter(|p| p.doc.0 % num_handles == h)
                    .copied()
                    .collect();
                if !l.is_empty() {
                    runs[run_idx].push((h, l));
                }
            }
        }
        let files: Vec<RunFile> = runs
            .iter()
            .enumerate()
            .map(|(i, pairs)| {
                let mut it = pairs.iter().map(|(h, l)| (*h, l));
                RunFile::build(i as u32, 0, &mut it, codec)
            })
            .collect();

        let mut whole = RunSet::new();
        for f in &files {
            whole.push(f.clone());
        }
        let one_shot = merge_runs(&whole, codec);

        let split = split_at.min(files.len());
        let mut staged = RunSet::new();
        if split > 0 {
            let mut prefix = RunSet::new();
            for f in &files[..split] {
                prefix.push(f.clone());
            }
            staged.push(merge_runs(&prefix, codec));
        }
        for f in &files[split..] {
            // The intermediate file takes run_id `split`; renumber the
            // remaining runs past it to keep RunSet's in-order contract.
            let mut f = f.clone();
            f.run_id += 1;
            staged.push(f);
        }
        let two_stage = merge_runs(&staged, codec);

        for h in 0..num_handles {
            prop_assert_eq!(
                one_shot.get(h),
                two_stage.get(h),
                "handle {} diverged between one-shot and staged merge", h
            );
            if let Some(list) = one_shot.get(h) {
                prop_assert!(
                    list.windows(2).all(|w| w[0].doc < w[1].doc),
                    "handle {} not strictly doc-sorted: {:?}", h, list
                );
                // The merged file agrees with the RunSet's own fetch path.
                prop_assert_eq!(list, whole.fetch(h).unwrap().postings().to_vec());
            }
        }
    }

    /// The skip cursor agrees with a full decode for any list and any
    /// sequence of advance targets.
    #[test]
    fn cursor_advances_agree_with_linear_scan(
        gaps in proptest::collection::vec((1u32..500, 1u32..20), 1..400),
        targets in proptest::collection::vec(0u32..200_000, 1..20),
    ) {
        let list = list_from_gaps(&gaps);
        let mut targets = targets;
        targets.sort_unstable();
        for codec in [Codec::VarByte, Codec::Bp128, Codec::PFor] {
            let buf = encode_list(&list, codec).bytes;
            let mut cur = ListCursor::new(&buf, list.len(), codec).unwrap();
            let mut lin = 0usize; // next undelivered index in `list`
            for &t in &targets {
                let expect = list[lin..].iter().position(|p| p.doc.0 >= t).map(|i| lin + i);
                let got = cur.advance_to(t).unwrap();
                prop_assert_eq!(got, expect.map(|i| list[i]), "codec {:?} target {}", codec, t);
                lin = expect.map(|i| i + 1).unwrap_or(list.len());
            }
        }
    }
}

// ---- Adversarial deterministic cases ---------------------------------------

/// Single-posting lists at extreme coordinates survive every codec.
#[test]
fn single_posting_lists() {
    for (d, tf) in [(0u32, 1u32), (1, 1), (u32::MAX, 1), (0, u32::MAX), (u32::MAX, u32::MAX)] {
        let list = vec![Posting { doc: DocId(d), tf }];
        // Doc u32::MAX included: first_doc is stored raw in the skip entry.
        for codec in ALL_CODECS {
            let buf = encode_list(&list, codec).bytes;
            assert_eq!(decode_list(&buf, 1, codec).as_deref(), Ok(list.as_slice()), "{codec:?} d={d}");
        }
    }
}

/// Maximal d-gaps: postings pushed to the far ends of the u32 doc space.
#[test]
fn maximal_d_gaps() {
    let lists: Vec<Vec<Posting>> = vec![
        vec![Posting { doc: DocId(0), tf: 1 }, Posting { doc: DocId(u32::MAX), tf: 1 }],
        vec![
            Posting { doc: DocId(5), tf: 3 },
            Posting { doc: DocId(1 << 31), tf: 1 },
            Posting { doc: DocId(u32::MAX - 1), tf: 2 },
        ],
    ];
    for list in &lists {
        for codec in ALL_CODECS {
            let buf = encode_list(list, codec).bytes;
            assert_eq!(
                decode_list(&buf, list.len(), codec).as_deref(),
                Ok(list.as_slice()),
                "{codec:?}"
            );
        }
    }
}

/// Lengths straddling the block boundary (127/128/129) round-trip and
/// produce the expected block counts.
#[test]
fn block_boundary_lengths() {
    for n in [127usize, 128, 129] {
        let list: Vec<Posting> =
            (0..n as u32).map(|i| Posting { doc: DocId(i * 7 + 3), tf: 1 + i % 9 }).collect();
        for codec in ALL_CODECS {
            let buf = encode_list(&list, codec).bytes;
            assert_eq!(decode_list(&buf, n, codec).as_deref(), Ok(list.as_slice()), "{codec:?} n={n}");
            let mut cur = ListCursor::new(&buf, n, codec.resolve(n)).unwrap();
            let mut count = 0usize;
            while cur.next().unwrap().is_some() {
                count += 1;
            }
            assert_eq!(count, n);
            assert_eq!(cur.blocks_total(), n.div_ceil(128));
        }
    }
}

/// A hostile length header cannot force a giant allocation.
#[test]
fn hostile_length_header_guarded() {
    let tiny = [0u8; 16];
    for codec in ALL_CODECS {
        let err = decode_list(&tiny, u32::MAX as usize, codec).unwrap_err();
        assert!(matches!(err, CodecError::AllocGuard { .. }), "{codec:?}: {err:?}");
    }
}
