//! Query evaluation over the inverted files.
//!
//! The paper's output — postings lists with term frequencies, doc-sorted —
//! is exactly what classic retrieval consumes. One document-at-a-time loop
//! ([`Evaluation`], DESIGN.md §16) serves every entry point: AND/OR is its
//! match predicate, summed tf/BM25 the fold applied as each document is
//! matched. Document lengths are not stored in the paper's postings (only
//! `<doc, tf>`), so BM25's length normalization is disabled (b = 0),
//! reducing it to the Robertson/Sparck Jones tf-idf saturation form.

use crate::index::Index;
use ii_corpus::DocId;
use ii_postings::{CodecError, Posting, SetCursor};
use std::ops::Add;

/// Boolean combination mode for multi-term queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryMode {
    /// Documents must contain every term.
    And,
    /// Documents may contain any subset of the terms.
    Or,
}

/// BM25 parameters (b is fixed at 0 — no document lengths in the index).
#[derive(Clone, Copy, Debug)]
pub struct Bm25Params {
    /// Term-frequency saturation.
    pub k1: f64,
}

impl Default for Bm25Params {
    fn default() -> Self {
        Bm25Params { k1: 1.2 }
    }
}

/// A scored document.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RankedHit {
    /// Document ID.
    pub doc: DocId,
    /// BM25 score.
    pub score: f64,
}

/// What one query term cost an evaluation ([`Index::explain`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TermExplain {
    /// The stemmed term looked up.
    pub term: String,
    /// Document frequency (0: not in the index).
    pub df: u64,
    /// Run parts the query opened, of those holding the term.
    pub parts: (usize, usize),
    /// Blocks the query decoded, of those in the term's lists.
    pub blocks: (usize, usize),
}

/// The index terms a query asks for, in query order — sorted and deduplicated
/// when `distinct`: tokenised, stemmed once (Porter is not idempotent:
/// `agreed` → `agre` → `agr`) and stop-filtered, exactly as the parser treats
/// document text.
pub(crate) fn query_terms(query: &str, distinct: bool) -> Vec<String> {
    let mut terms = Vec::new();
    let mut it = ii_text::tokenize::tokens(query);
    while let Some(tok) = it.next_token() {
        let stemmed = ii_text::stem(tok);
        if !ii_text::is_stop_word(&stemmed) {
            terms.push(stemmed.into_owned());
        }
    }
    if distinct {
        terms.sort_unstable();
        terms.dedup();
    }
    terms
}

/// `(doc, tf)` a cursor last returned, documents widened so that "none read
/// yet" (-1) sorts below every document and `EXHAUSTED` above.
type Head = (i64, u32);
const EXHAUSTED: i64 = i64::MAX;

fn head(p: Option<Posting>) -> Head {
    p.map_or((EXHAUSTED, 0), |p| (i64::from(p.doc.0), p.tf))
}

/// One query's cursors and the document-at-a-time loop over them.
struct Evaluation<'a> {
    index: &'a Index,
    mode: QueryMode,
    /// `(position in the query's terms, cursor)`, in evaluation order: term
    /// order, and for AND stably re-sorted rarest first. Folds add in this
    /// order, which is what keeps `f64` scores bit-stable.
    cursors: Vec<(usize, SetCursor<'a>)>,
    /// False when no term is indexed, or an AND asks for one that is not.
    satisfiable: bool,
}

impl<'a> Evaluation<'a> {
    fn open(index: &'a Index, terms: &[String], mode: QueryMode) -> Self {
        let indexed = |(i, term): (usize, &String)| Some((i, index.stem_cursor(term)?));
        let mut cursors: Vec<_> = terms.iter().enumerate().filter_map(indexed).collect();
        let satisfiable =
            !cursors.is_empty() && (mode == QueryMode::Or || cursors.len() == terms.len());
        if mode == QueryMode::And {
            // Rarest term drives; the others leapfrog via their skip tables.
            cursors.sort_by_key(|(_, c)| c.df());
        }
        Evaluation { index, mode, cursors, satisfiable }
    }

    /// Every matching document in document order, as
    /// `hit(doc, Σ contrib(cursor, tf))` over the cursors holding it. A
    /// decode error from any cursor, in any mode, means no result at all
    /// (`query.decode_errors`); every mode records the block counters.
    fn run<S: Default + Add<Output = S>, H>(
        &mut self,
        contrib: impl Fn(usize, u32) -> S,
        hit: impl Fn(DocId, S) -> H,
    ) -> Vec<H> {
        let obs = &self.index.query_obs;
        let mut hits = Vec::new();
        if !self.satisfiable {
            return hits;
        }
        obs.postings_scanned.add(self.cursors.iter().map(|(_, c)| c.df()).sum());
        let walked = self.walk(contrib, |doc, score| hits.push(hit(doc, score)));
        let decoded: u64 = self.cursors.iter().map(|(_, c)| u64::from(c.blocks_decoded())).sum();
        let total: u64 = self.cursors.iter().map(|(_, c)| c.blocks_total() as u64).sum();
        obs.blocks_decoded.add(decoded);
        obs.blocks_skipped.add(total.saturating_sub(decoded));
        if self.index.decoded(walked).is_none() {
            hits.clear();
        }
        hits
    }

    /// The loop itself: the match predicate finds the next document and
    /// leaves it under the head of every cursor that holds it, the fold adds
    /// those heads' contributions in cursor order.
    fn walk<S: Default + Add<Output = S>>(
        &mut self,
        contrib: impl Fn(usize, u32) -> S,
        mut emit: impl FnMut(DocId, S),
    ) -> Result<(), CodecError> {
        let mut heads: Vec<Head> = vec![(-1, 0); self.cursors.len()];
        match self.mode {
            // Leapfrog: the first cursor proposes its next document and
            // every other cursor advances to it through its skip table. A
            // cursor that lands past the candidate keeps that posting as
            // its head — `advance_to` consumes what it returns, and the
            // overshoot is what the next candidate must be checked against.
            QueryMode::And => 'candidates: while let Some(p) = self.cursors[0].1.next()? {
                let candidate = head(Some(p));
                heads[0] = candidate;
                for (h, (_, c)) in heads.iter_mut().zip(&mut self.cursors).skip(1) {
                    if h.0 < candidate.0 {
                        *h = head(c.advance_to(p.doc.0)?);
                    }
                    if h.0 == EXHAUSTED {
                        return Ok(()); // nothing later can match either
                    }
                    if h.0 != candidate.0 {
                        continue 'candidates;
                    }
                }
                let tfs = heads.iter().enumerate();
                emit(p.doc, tfs.fold(S::default(), |s, (i, h)| s + contrib(i, h.1)));
            },
            // Smallest-head merge: the smallest head is the next match, and
            // every cursor under it is folded in and moved on.
            QueryMode::Or => {
                for (h, (_, c)) in heads.iter_mut().zip(&mut self.cursors) {
                    *h = head(c.next()?);
                }
                loop {
                    let doc = heads.iter().fold(EXHAUSTED, |doc, h| doc.min(h.0));
                    if doc == EXHAUSTED {
                        break;
                    }
                    let mut score = S::default();
                    for (i, (h, (_, c))) in heads.iter_mut().zip(&mut self.cursors).enumerate() {
                        if h.0 == doc {
                            score = score + contrib(i, h.1);
                            *h = head(c.next()?);
                        }
                    }
                    emit(DocId(doc as u32), score);
                }
            }
        }
        Ok(())
    }
}

impl Index {
    /// Conjunctive (AND) search: documents containing *all* query terms,
    /// ranked by summed term frequency (a repeated query word counts
    /// twice). Stop words in the query are ignored (as they were never
    /// indexed).
    pub fn search(&self, query: &str) -> Vec<(DocId, u64)> {
        let _span = self.query_obs.stage.span();
        let mut eval = Evaluation::open(self, &query_terms(query, false), QueryMode::And);
        let mut out = eval.run(|_, tf| u64::from(tf), |doc, tf| (doc, tf));
        // Hits arrive in document order: a stable sort on the score alone
        // leaves ties doc-ascending.
        out.sort_by_key(|&(_, tf)| std::cmp::Reverse(tf));
        out
    }

    /// BM25-ranked retrieval. Query terms are normalized like document
    /// terms; stop words are dropped and a repeated word counts once, which
    /// keeps idf honest. Returns hits best-first.
    pub fn search_ranked(&self, query: &str, mode: QueryMode, params: Bm25Params) -> Vec<RankedHit> {
        let _span = self.query_obs.stage.span();
        let mut eval = Evaluation::open(self, &query_terms(query, true), mode);
        let n_docs = self.num_docs().max(self.doc_map.total_docs()).max(1) as f64;
        // BM25 idf with the +1 smoothing that keeps it positive.
        let idf_of = |df: f64| ((n_docs - df + 0.5) / (df + 0.5) + 1.0).ln();
        let idfs: Vec<f64> = eval.cursors.iter().map(|(_, c)| idf_of(c.df() as f64)).collect();
        let mut out = eval.run(
            |i, tf| idfs[i] * (f64::from(tf) * (params.k1 + 1.0)) / (f64::from(tf) + params.k1),
            |doc, score| RankedHit { doc, score },
        );
        out.sort_by(|a, b| b.score.total_cmp(&a.score));
        out
    }

    /// Evaluate `query` as [`Self::search_ranked`] would ([`Self::search`]
    /// walks its lists exactly as `QueryMode::And` does) and report the
    /// number of hits and, per term in sorted order, what it cost — read off
    /// the cursors the evaluation holds when it finishes.
    pub fn explain(&self, query: &str, mode: QueryMode) -> (usize, Vec<TermExplain>) {
        let terms = query_terms(query, true);
        let mut eval = Evaluation::open(self, &terms, mode);
        let hits = eval.run(|_, tf| u64::from(tf), |_, _| ()).len();
        let mut report: Vec<TermExplain> =
            terms.into_iter().map(|term| TermExplain { term, ..Default::default() }).collect();
        for (i, c) in &eval.cursors {
            let t = &mut report[*i];
            t.df = c.df();
            t.parts = (c.parts_opened(), c.parts());
            t.blocks = (c.blocks_decoded() as usize, c.blocks_total());
        }
        (hits, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ii_corpus::{CollectionSpec, RawDocument, StoredCollection};
    use ii_pipeline::{build_index, PipelineConfig};
    use std::sync::Arc;

    fn index_of(bodies: &[&str]) -> Index {
        // Tests run in parallel in one process: a per-call sequence number
        // keeps two tests with equally many bodies out of one directory.
        static SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("ii-query-test-{seq}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let docs: Vec<RawDocument> = bodies
            .iter()
            .map(|b| RawDocument { url: String::new(), body: (*b).into() })
            .collect();
        let raw = ii_corpus::container::write_container(&docs);
        let packed = ii_corpus::compress::compress(&raw);
        std::fs::write(dir.join("file_00000.iic"), &packed).unwrap();
        let manifest = ii_corpus::Manifest {
            spec: CollectionSpec {
                name: "query-test".into(),
                num_files: 1,
                docs_per_file: docs.len(),
                mean_doc_tokens: 8,
                vocab_size: 100,
                zipf_s: 1.0,
                html: false,
                seed: 0,
                shift: None,
            },
            stats: ii_corpus::CollectionStats {
                documents: docs.len() as u64,
                uncompressed_bytes: raw.len() as u64,
                compressed_bytes: packed.len() as u64,
                ..Default::default()
            },
            file_compressed_bytes: vec![packed.len() as u64],
            file_uncompressed_bytes: vec![raw.len() as u64],
        };
        std::fs::write(dir.join("manifest.json"), serde_json::to_vec(&manifest).unwrap())
            .unwrap();
        let coll = Arc::new(StoredCollection::open(&dir).unwrap());
        let out = build_index(&coll, &PipelineConfig::small(1, 1, 0)).expect("build");
        std::fs::remove_dir_all(&dir).unwrap();
        Index::from_output(out)
    }

    #[test]
    fn or_mode_returns_partial_matches() {
        let idx = index_of(&["apple banana", "apple", "cherry"]);
        let or = idx.search_ranked("apple banana", QueryMode::Or, Bm25Params::default());
        let or_docs: Vec<u32> = or.iter().map(|h| h.doc.0).collect();
        assert!(or_docs.contains(&0) && or_docs.contains(&1));
        let and = idx.search_ranked("apple banana", QueryMode::And, Bm25Params::default());
        let and_docs: Vec<u32> = and.iter().map(|h| h.doc.0).collect();
        assert_eq!(and_docs, vec![0]);
    }

    #[test]
    fn rare_terms_outweigh_common_ones() {
        // "apple" in every doc, "quetzal" in one: doc with the rare term
        // must rank first in OR mode.
        let idx = index_of(&["apple", "apple", "apple quetzal", "apple"]);
        let hits = idx.search_ranked("apple quetzal", QueryMode::Or, Bm25Params::default());
        assert_eq!(hits[0].doc, DocId(2));
        assert!(hits[0].score > hits[1].score);
    }

    #[test]
    fn tf_saturates() {
        // BM25's k1 saturation: 10x the tf must NOT give 10x the score.
        let idx = index_of(&[
            "zebra",
            &"zebra ".repeat(10),
        ]);
        let hits = idx.search_ranked("zebra", QueryMode::Or, Bm25Params::default());
        assert_eq!(hits[0].doc, DocId(1), "higher tf still ranks first");
        assert!(
            hits[0].score < hits[1].score * 3.0,
            "saturation bounds the gain: {} vs {}",
            hits[0].score,
            hits[1].score
        );
    }

    #[test]
    fn and_mode_missing_term_empty() {
        let idx = index_of(&["apple banana"]);
        assert!(idx
            .search_ranked("apple nosuchterm", QueryMode::And, Bm25Params::default())
            .is_empty());
        assert!(!idx
            .search_ranked("apple nosuchterm", QueryMode::Or, Bm25Params::default())
            .is_empty());
    }

    #[test]
    fn empty_and_stopword_queries() {
        let idx = index_of(&["apple"]);
        assert!(idx.search_ranked("", QueryMode::Or, Bm25Params::default()).is_empty());
        assert!(idx
            .search_ranked("the of and", QueryMode::Or, Bm25Params::default())
            .is_empty());
    }

    fn docs_of(hits: &[RankedHit]) -> Vec<u32> {
        hits.iter().map(|h| h.doc.0).collect()
    }

    #[test]
    fn query_words_are_stemmed_exactly_once() {
        // Porter is not idempotent — agreed → agre → agr, universities →
        // univers → univ, analyses → analys → anali — so a path that stems
        // a stem looks up a term nobody indexed.
        let idx = index_of(&["universities agreed analyses", "zebra"]);
        for q in ["universities agreed", "analyses", "agreed analyses universities"] {
            let found: Vec<u32> = idx.search(q).iter().map(|(d, _)| d.0).collect();
            assert_eq!(found, [0], "search({q})");
            let and = idx.search_ranked(q, QueryMode::And, Bm25Params::default());
            assert_eq!(docs_of(&and), [0], "search_ranked({q})");
        }
        for word in ["universities", "agreed", "analyses"] {
            let list = idx.postings(word).unwrap_or_else(|| panic!("postings({word})"));
            assert_eq!(list.postings().len(), 1);
            assert_eq!(idx.postings_in_range(word, DocId(0), DocId(9)), list.postings());
            assert_eq!(idx.explain(word, QueryMode::Or).1[0].df, 1);
        }
    }

    #[test]
    fn a_corrupt_list_empties_every_mode_and_is_counted() {
        let mut idx = index_of(&["apple banana", "apple", "cherry"]);
        // Unterminate the last varbyte value of apple's list, in memory (no
        // checksum in the way): its block now decodes to `Truncated`.
        let e = idx.dictionary.lookup(&ii_text::stem("apple")).unwrap();
        let mut corrupt = ii_postings::RunSet::new();
        for run in idx.run_sets[&e.indexer].runs() {
            let mut run = run.clone();
            if let Some(row) = run.entry(e.postings) {
                run.payload[(row.offset + u64::from(row.len)) as usize - 1] ^= 0x80;
            }
            corrupt.push(run).unwrap();
        }
        idx.run_sets.insert(e.indexer, corrupt);
        let errors = idx.obs.counter("query.decode_errors");
        let decoded = idx.obs.counter("query.blocks_decoded");
        assert!(idx.search("apple").is_empty());
        assert_eq!(errors.get(), 1);
        let and = idx.search_ranked("apple banana", QueryMode::And, Bm25Params::default());
        assert!(and.is_empty());
        assert_eq!(errors.get(), 2);
        // OR used to drop the unreadable list and answer from the rest.
        let or = idx.search_ranked("apple cherry", QueryMode::Or, Bm25Params::default());
        assert!(or.is_empty());
        assert_eq!(errors.get(), 3);
        // The healthy lists still answer, and OR records the block counters.
        let before = decoded.get();
        assert_eq!(docs_of(&idx.search_ranked("cherry", QueryMode::Or, Bm25Params::default())), [2]);
        assert_eq!((errors.get(), decoded.get()), (3, before + 1));
    }

    #[test]
    fn explain_reports_what_the_evaluation_touched() {
        let idx = index_of(&["apple banana", "apple", "cherry"]);
        let (hits, terms) = idx.explain("banana apple nosuchterm the", QueryMode::Or);
        assert_eq!(hits, 2);
        let names: Vec<&str> = terms.iter().map(|t| t.term.as_str()).collect();
        assert_eq!(names, ["appl", "banana", "nosuchterm"], "stemmed, sorted, stop word gone");
        assert_eq!(terms.iter().map(|t| t.df).collect::<Vec<_>>(), [2, 1, 0]);
        assert_eq!(terms[0].parts, (1, 1));
        assert_eq!(terms[0].blocks, (1, 1));
        assert_eq!(terms[2], TermExplain { term: "nosuchterm".into(), ..Default::default() });
        // An AND over an absent term evaluates nothing and opens nothing.
        let (hits, terms) = idx.explain("apple nosuchterm", QueryMode::And);
        assert_eq!((hits, terms[0].df, terms[0].parts), (0, 2, (0, 1)));
    }
}
