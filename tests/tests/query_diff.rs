//! Differential suite for the query evaluator.
//!
//! `Index::search` and `Index::search_ranked` run on one document-at-a-time
//! evaluator (`crates/core/src/query.rs`, DESIGN.md §16). It replaced three
//! separate loops — boolean AND and BM25 AND over a `Vec`-per-candidate
//! leapfrog, BM25 OR through a `HashMap` accumulator over materialised
//! lists — which are frozen in `mod frozen` below as the oracle: on random
//! small collections built through the pipeline (several container files,
//! so several runs per indexer; one CPU and one simulated-GPU indexer, so
//! two run sets) every query must return the same documents in the same
//! order with the same summed tf or bit-identical `f64` score, and move
//! `query.postings_scanned` by the same amount.
//!
//! The copy differs from what it was copied from in two places, both bugs:
//!
//! * **Double stemming.** `Index::search` stemmed each token and handed the
//!   stem to a helper that tokenised and stemmed it *again*; Porter is not
//!   idempotent (`agreed` → `agre` → `agr`), so boolean search looked up
//!   terms nobody indexed. The copy stems once, like the other two loops.
//! * **Scan accounting of an unsatisfiable AND.** BM25 AND added the `df`
//!   of every term it found before reaching an absent one; boolean AND
//!   added nothing. Neither scanned a posting. The copy adds nothing in
//!   both, which is the evaluator's one rule.
//!
//! The loops read postings through `RunSet::cursor`, so they also serve as
//! the oracle for the two things that changed underneath the evaluator
//! without changing an answer: a one-posting list served from its
//! mapping-table row, and the holders column that tells a look-up which
//! runs to search (`holders_and_row_postings_change_no_answer`).
//!
//! Corrupt lists are not part of this comparison (the loops disagreed with
//! each other there: AND emptied, OR dropped the list); the uniform rule is
//! pinned by `a_corrupt_list_empties_every_mode_and_is_counted` in
//! `crates/core/src/query.rs`.

use ii_core::corpus::{
    compress, container, CollectionSpec, CollectionStats, Manifest, RawDocument,
    StoredCollection,
};
use ii_core::pipeline::{build_index, PipelineConfig};
use ii_core::{Bm25Params, Index, QueryMode, RankedHit};
use proptest::prelude::*;
use std::sync::Arc;

/// The replaced query loops, as they stood in `crates/core/src/index.rs`
/// and `crates/core/src/query.rs`, reading the index through its public
/// fields. `scanned` stands in for the `query.postings_scanned` counter.
mod frozen {
    use ii_core::corpus::DocId;
    use ii_core::postings::{CodecError, Posting, SetCursor};
    use ii_core::text;
    use ii_core::{Bm25Params, Index, QueryMode, RankedHit};
    use std::collections::HashMap;

    fn stem_cursor<'a>(idx: &'a Index, stemmed: &str) -> Result<Option<SetCursor<'a>>, CodecError> {
        let Some(e) = idx.dictionary.lookup(stemmed) else { return Ok(None) };
        let Some(set) = idx.run_sets.get(&e.indexer) else { return Ok(None) };
        set.cursor(e.postings)
    }

    pub fn search(idx: &Index, query: &str, scanned: &mut u64) -> Vec<(DocId, u64)> {
        let mut cursors: Vec<SetCursor<'_>> = Vec::new();
        let mut it = text::tokenize::tokens(query);
        while let Some(tok) = it.next_token() {
            let stemmed = text::stem(tok);
            if text::is_stop_word(&stemmed) {
                continue;
            }
            // Correction 1: the original re-normalised `stemmed` here.
            match stem_cursor(idx, &stemmed) {
                Ok(Some(c)) => cursors.push(c),
                Ok(None) | Err(_) => return Vec::new(),
            }
        }
        if cursors.is_empty() {
            return Vec::new();
        }
        *scanned += cursors.iter().map(|c| c.df()).sum::<u64>();
        cursors.sort_by_key(|c| c.df());
        let hits = intersect_cursors(&mut cursors);
        let mut out: Vec<(DocId, u64)> = hits
            .unwrap_or_default()
            .into_iter()
            .map(|(doc, tfs)| (doc, tfs.iter().map(|&tf| u64::from(tf)).sum()))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    fn intersect_cursors(
        cursors: &mut [SetCursor<'_>],
    ) -> Result<Vec<(DocId, Vec<u32>)>, CodecError> {
        let mut hits = Vec::new();
        let (first, rest) = cursors.split_at_mut(1);
        let driver = &mut first[0];
        let mut pending: Vec<Option<Posting>> = vec![None; rest.len()];
        'candidates: while let Some(p) = driver.next()? {
            let target = p.doc.0;
            let mut tfs = Vec::with_capacity(rest.len() + 1);
            tfs.push(p.tf);
            for (c, pend) in rest.iter_mut().zip(pending.iter_mut()) {
                let q = match pend.take() {
                    Some(q) if q.doc.0 >= target => Some(q),
                    _ => c.advance_to(target)?,
                };
                match q {
                    Some(q) if q.doc.0 == target => tfs.push(q.tf),
                    Some(q) => {
                        *pend = Some(q);
                        continue 'candidates;
                    }
                    None => return Ok(hits),
                }
            }
            hits.push((p.doc, tfs));
        }
        Ok(hits)
    }

    pub fn search_ranked(
        idx: &Index,
        query: &str,
        mode: QueryMode,
        params: Bm25Params,
        scanned: &mut u64,
    ) -> Vec<RankedHit> {
        let mut terms: Vec<String> = Vec::new();
        let mut stem_buf = text::StemBuf::new();
        let mut it = text::tokenize::tokens(query);
        while let Some(tok) = it.next_token() {
            let stemmed = text::stem_into(tok, &mut stem_buf);
            if !text::is_stop_word(stemmed) {
                terms.push(stemmed.to_string());
            }
        }
        terms.sort_unstable();
        terms.dedup();
        if terms.is_empty() {
            return Vec::new();
        }
        let n_docs = idx.num_docs().max(idx.doc_map.total_docs()).max(1) as f64;
        let idf_of = |df: f64| ((n_docs - df + 0.5) / (df + 0.5) + 1.0).ln();

        if mode == QueryMode::And {
            let mut pairs = Vec::with_capacity(terms.len());
            let mut found = 0u64;
            for term in &terms {
                let cursor = stem_cursor(idx, term).ok().flatten();
                let Some(c) = cursor else { return Vec::new() };
                // Correction 2: the original added to the counter here,
                // before it knew whether a later term was absent.
                found += c.df();
                pairs.push((idf_of(c.df() as f64), c));
            }
            *scanned += found;
            pairs.sort_by_key(|(_, c)| c.df());
            let idfs: Vec<f64> = pairs.iter().map(|(idf, _)| *idf).collect();
            let mut cursors: Vec<_> = pairs.into_iter().map(|(_, c)| c).collect();
            let hits = intersect_cursors(&mut cursors).unwrap_or_default();
            let mut out: Vec<RankedHit> = hits
                .into_iter()
                .map(|(doc, tfs)| {
                    let score = idfs
                        .iter()
                        .zip(&tfs)
                        .map(|(idf, &tf)| {
                            let tf = tf as f64;
                            idf * (tf * (params.k1 + 1.0)) / (tf + params.k1)
                        })
                        .sum();
                    RankedHit { doc, score }
                })
                .collect();
            out.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc)));
            return out;
        }

        let mut scores: HashMap<u32, (f64, usize)> = HashMap::new();
        let mut matched_terms = 0usize;
        for term in &terms {
            let Some(list) = idx.postings_stemmed(term) else {
                if mode == QueryMode::And {
                    return Vec::new();
                }
                continue;
            };
            matched_terms += 1;
            *scanned += list.len() as u64;
            let df = list.len() as f64;
            let idf = ((n_docs - df + 0.5) / (df + 0.5) + 1.0).ln();
            for p in list.postings() {
                let tf = p.tf as f64;
                let contrib = idf * (tf * (params.k1 + 1.0)) / (tf + params.k1);
                let e = scores.entry(p.doc.0).or_insert((0.0, 0));
                e.0 += contrib;
                e.1 += 1;
            }
        }
        let mut out: Vec<RankedHit> = scores
            .into_iter()
            .filter(|(_, (_, hit_terms))| mode == QueryMode::Or || *hit_terms == matched_terms)
            .map(|(doc, (score, _))| RankedHit { doc: DocId(doc), score })
            .collect();
        out.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc)));
        out
    }
}

/// Words documents are made of, commonest first: the three Porter
/// non-fixed-points the double-stemming bug lost, inflections that share a
/// stem, and stop words the parser drops.
const DOC_WORDS: &[&str] = &[
    "apple", "the", "banana", "universities", "apples", "agreed", "of", "cherry", "analyses",
    "zebra", "running", "walrus", "and", "penguin", "kiwi", "runs", "quetzal", "music",
];

/// Words queries may use beside [`DOC_WORDS`]: never indexed.
const ABSENT_WORDS: &[&str] = &["nosuchterm", "xylophones"];

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A collection of `files` container files of `docs_per_file` short
/// documents, words drawn from [`DOC_WORDS`] skewed to its front (the first
/// word's list runs to several blocks in the larger cases), built with one
/// CPU and one GPU indexer: one run per file in each run set.
fn build(seed: u64, files: usize, docs_per_file: usize) -> Index {
    static SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ii-query-diff-{seq}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut rng = seed | 1;
    let (mut compressed, mut uncompressed) = (Vec::new(), Vec::new());
    for f in 0..files {
        let docs: Vec<RawDocument> = (0..docs_per_file)
            .map(|_| {
                let words = 1 + xorshift(&mut rng) % 6;
                let body: Vec<&str> = (0..words)
                    .map(|_| {
                        let mut draw = || xorshift(&mut rng) % DOC_WORDS.len() as u64;
                        DOC_WORDS[draw().min(draw()).min(draw()) as usize]
                    })
                    .collect();
                RawDocument { url: String::new(), body: body.join(" ") }
            })
            .collect();
        let raw = container::write_container(&docs);
        let packed = compress::compress(&raw);
        std::fs::write(dir.join(format!("file_{f:05}.iic")), &packed).unwrap();
        compressed.push(packed.len() as u64);
        uncompressed.push(raw.len() as u64);
    }
    let manifest = Manifest {
        spec: CollectionSpec {
            name: "query-diff".into(),
            num_files: files,
            docs_per_file,
            mean_doc_tokens: 4,
            vocab_size: DOC_WORDS.len(),
            zipf_s: 1.0,
            html: false,
            seed,
            shift: None,
        },
        stats: CollectionStats {
            documents: (files * docs_per_file) as u64,
            uncompressed_bytes: uncompressed.iter().sum(),
            compressed_bytes: compressed.iter().sum(),
            ..Default::default()
        },
        file_compressed_bytes: compressed,
        file_uncompressed_bytes: uncompressed,
    };
    std::fs::write(dir.join("manifest.json"), serde_json::to_vec(&manifest).unwrap()).unwrap();
    let coll = Arc::new(StoredCollection::open(&dir).unwrap());
    let out = build_index(&coll, &PipelineConfig::small(2, 1, 1)).expect("build");
    std::fs::remove_dir_all(&dir).unwrap();
    Index::from_output(out)
}

fn scanned(idx: &Index) -> u64 {
    idx.obs.counter("query.postings_scanned").get()
}

fn ranked_bits(hits: &[RankedHit]) -> Vec<(u32, u64)> {
    hits.iter().map(|h| (h.doc.0, h.score.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn evaluator_answers_as_the_three_loops_did(
        seed in any::<u64>(),
        files in 3usize..6,
        docs_per_file in 1usize..400,
        queries in proptest::collection::vec(
            proptest::collection::vec(0usize..DOC_WORDS.len() + ABSENT_WORDS.len(), 1..5),
            12,
        ),
    ) {
        let idx = build(seed, files, docs_per_file);
        let runs = idx.run_sets.values().map(|set| set.runs().len()).max().unwrap_or(0);
        prop_assert!(runs >= 3, "{} runs", runs);
        for words in &queries {
            let text = words
                .iter()
                .map(|&w| DOC_WORDS.iter().chain(ABSENT_WORDS).nth(w).copied().unwrap())
                .collect::<Vec<_>>()
                .join(" ");
            let (mut want_scanned, before) = (0u64, scanned(&idx));
            let want = frozen::search(&idx, &text, &mut want_scanned);
            prop_assert_eq!(&idx.search(&text), &want, "search({})", &text);
            prop_assert_eq!(scanned(&idx) - before, want_scanned, "search({}) scanned", &text);
            for mode in [QueryMode::And, QueryMode::Or] {
                let params = Bm25Params::default();
                let (mut want_scanned, before) = (0u64, scanned(&idx));
                let want = frozen::search_ranked(&idx, &text, mode, params, &mut want_scanned);
                let got = idx.search_ranked(&text, mode, params);
                prop_assert_eq!(ranked_bits(&got), ranked_bits(&want), "{:?}({})", mode, &text);
                prop_assert_eq!(
                    scanned(&idx) - before, want_scanned, "{:?}({}) scanned", mode, &text
                );
                prop_assert_eq!(idx.explain(&text, mode).0, want.len());
            }
        }
    }
}

/// The cases random draws reach rarely, on one fixed collection: a repeated
/// word (boolean search counts it twice, BM25 once), inflections sharing a
/// stem, stop words only, absent words in every position, one term.
#[test]
fn evaluator_matches_on_the_awkward_queries() {
    let idx = build(7, 4, 400);
    let (_, apple) = idx.explain("apple", QueryMode::Or);
    assert!(apple[0].blocks.1 > apple[0].parts.1, "some run holds a multi-block list: {apple:?}");
    for text in [
        "apple apple",
        "apple apples banana",
        "the of and",
        "",
        "nosuchterm",
        "nosuchterm apple",
        "apple nosuchterm",
        "banana nosuchterm zebra apple",
        "universities agreed analyses",
        "Universities, AGREED; analyses!",
        "quetzal",
        "running runs apple the",
    ] {
        let mut n = 0;
        assert_eq!(idx.search(text), frozen::search(&idx, text, &mut n), "search({text})");
        for mode in [QueryMode::And, QueryMode::Or] {
            let (mut want_scanned, before) = (0u64, scanned(&idx));
            let params = Bm25Params { k1: 0.9 };
            let want = frozen::search_ranked(&idx, text, mode, params, &mut want_scanned);
            let got = idx.search_ranked(text, mode, params);
            assert_eq!(ranked_bits(&got), ranked_bits(&want), "{mode:?}({text})");
            assert_eq!(scanned(&idx) - before, want_scanned, "{mode:?}({text}) scanned");
        }
    }
    assert!(!idx.search("universities agreed analyses").is_empty());
    assert_eq!(idx.search("apple apple")[0].1 % 2, 0, "a repeated word counts twice");
}

/// `idx` with every run set rebuilt from clones of its runs and no holders
/// column: each look-up searches every run's table, as before the column.
fn without_holders(mut idx: Index) -> Index {
    for set in idx.run_sets.values_mut() {
        let mut plain = ii_core::postings::RunSet::new();
        set.runs().iter().for_each(|run| plain.push(run.clone()));
        *set = plain;
    }
    idx
}

/// The holders column narrows where a look-up searches and a one-posting
/// list is read from its row; neither may change a posting, a `df`, a part
/// count, a block counter or a query result. Cursor by cursor over every
/// term, then end to end: the evaluator on the index as built against the
/// frozen loops on the same index without the column.
#[test]
fn holders_and_row_postings_change_no_answer() {
    let tracked = build(21, 5, 150);
    let plain = without_holders(build(21, 5, 150));
    let (mut row_parts, mut partial_holders) = (0usize, 0usize);
    for e in tracked.dictionary.entries() {
        let term = e.full_term();
        let runs = tracked.run_sets[&e.indexer].runs();
        row_parts += runs.iter().filter_map(|r| r.entry(e.postings)).filter(|row| row.len == 0).count();
        let mut a = tracked.run_sets[&e.indexer].cursor(e.postings).unwrap().expect("term has a list");
        let mut b = plain.run_sets[&e.indexer].cursor(e.postings).unwrap().expect("term has a list");
        partial_holders += usize::from(a.parts() < runs.len());
        assert_eq!((a.df(), a.parts(), a.blocks_total()), (b.df(), b.parts(), b.blocks_total()), "{term}");
        // Alternate `next` and `advance_to` so parts are skipped, not only read.
        let mut step = 0u32;
        loop {
            let (pa, pb) = if step % 3 == 2 {
                let target = step * 7;
                (a.advance_to(target).unwrap(), b.advance_to(target).unwrap())
            } else {
                (a.next().unwrap(), b.next().unwrap())
            };
            assert_eq!(pa, pb, "{term} step {step}");
            assert_eq!(
                (a.parts_opened(), a.blocks_decoded()),
                (b.parts_opened(), b.blocks_decoded()),
                "{term} step {step}"
            );
            if pa.is_none() {
                break;
            }
            step += 1;
        }
        assert_eq!(tracked.postings_stemmed(&term), plain.postings_stemmed(&term), "{term}");
    }
    assert!(row_parts > 0, "some run holds a term once");
    assert!(partial_holders > 0, "some term is missing from some run");
    let texts = [
        "music", "quetzal music", "apple music", "kiwi penguin walrus", "apple banana cherry",
        "zebra nosuchterm", "running runs", "universities agreed analyses", "music music",
    ];
    for text in texts {
        let mut n = 0;
        assert_eq!(tracked.search(text), frozen::search(&plain, text, &mut n), "search({text})");
        assert_eq!(plain.search(text), tracked.search(text));
        for mode in [QueryMode::And, QueryMode::Or] {
            let (mut want_scanned, before) = (0u64, scanned(&tracked));
            let params = Bm25Params::default();
            let want = frozen::search_ranked(&plain, text, mode, params, &mut want_scanned);
            let got = tracked.search_ranked(text, mode, params);
            assert_eq!(ranked_bits(&got), ranked_bits(&want), "{mode:?}({text})");
            assert_eq!(scanned(&tracked) - before, want_scanned, "{mode:?}({text}) scanned");
            assert_eq!(ranked_bits(&plain.search_ranked(text, mode, params)), ranked_bits(&want));
            assert_eq!(tracked.explain(text, mode), plain.explain(text, mode), "explain {mode:?}({text})");
        }
        // Both indexes have now run the same evaluations (one `search` more
        // on `tracked`, repeated here): every query counter agrees.
        plain.search(text);
        for name in ["query.postings_scanned", "query.blocks_decoded", "query.blocks_skipped"] {
            let (a, b) = (tracked.obs.counter(name).get(), plain.obs.counter(name).get());
            assert_eq!(a, b, "{name} after {text}");
        }
    }
    assert_eq!(tracked.obs.counter("query.decode_errors").get(), 0);
}
