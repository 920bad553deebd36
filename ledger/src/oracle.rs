//! The serial oracle every output is checked against, and the query sets
//! drawn from it.
//!
//! The oracle parses each container file with `parse_documents` and folds
//! the regrouped term stream into plain `term -> (doc, tf)` lists: no
//! dictionary, no codecs, no runs, no threads. Builds are compared with it
//! term by term, and queries with brute-force intersection and union over
//! its lists.

use crate::workloads::{mix, QueryShape, HEAD_DF_MIN, TAIL_DF_MAX};
use ii_core::corpus::StoredCollection;
use ii_core::dict::TrieIndex;
use ii_core::text::{is_stop_word, parse_documents, stem, tokenize::tokens};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io;

/// Term → postings, built serially from the collection on disk.
pub struct Oracle {
    /// Term id → full stemmed term.
    pub terms: Vec<String>,
    /// Term id → `(global doc, tf)`, ascending by document.
    pub lists: Vec<Vec<(u32, u32)>>,
    /// Global document → the distinct term ids it contains.
    pub doc_terms: Vec<Vec<u32>>,
    /// Tokens the tokenizer produced, before stop-word removal.
    pub tokens_seen: u64,
    /// Term occurrences that survived stop-word removal.
    pub terms_kept: u64,
    ids: HashMap<Vec<u8>, u32>,
}

impl Oracle {
    /// Parse the whole collection, file by file, on this thread.
    pub fn build(coll: &StoredCollection) -> io::Result<Oracle> {
        let html = coll.manifest.spec.html;
        let mut o = Oracle {
            terms: Vec::new(),
            lists: Vec::new(),
            doc_terms: Vec::new(),
            tokens_seen: 0,
            terms_kept: 0,
            ids: HashMap::new(),
        };
        let mut key = Vec::new();
        for f in 0..coll.num_files() {
            let docs = coll.read_file_docs(f)?;
            let batch = parse_documents(&docs, html, f);
            let offset = o.doc_terms.len() as u32;
            o.doc_terms
                .resize(o.doc_terms.len() + batch.num_docs as usize, Vec::new());
            o.tokens_seen += batch.stats.tokens;
            o.terms_kept += batch.stats.terms_kept;
            for group in &batch.groups {
                let prefix = TrieIndex(group.trie_index).prefix();
                for (local, suffix) in group.iter_terms() {
                    key.clear();
                    key.extend_from_slice(prefix.as_bytes());
                    key.extend_from_slice(suffix);
                    let id = match o.ids.get(key.as_slice()) {
                        Some(&id) => id,
                        None => {
                            let id = o.terms.len() as u32;
                            o.terms.push(String::from_utf8_lossy(&key).into_owned());
                            o.lists.push(Vec::new());
                            o.ids.insert(key.clone(), id);
                            id
                        }
                    };
                    let doc = offset + local.0;
                    let list = &mut o.lists[id as usize];
                    match list.last_mut() {
                        Some((d, tf)) if *d == doc => *tf += 1,
                        _ => {
                            list.push((doc, 1));
                            o.doc_terms[doc as usize].push(id);
                        }
                    }
                }
            }
        }
        Ok(o)
    }

    /// Documents in the collection.
    pub fn docs(&self) -> u32 {
        self.doc_terms.len() as u32
    }

    /// `(doc, tf)` pairs over all terms.
    pub fn postings(&self) -> u64 {
        self.lists.iter().map(|l| l.len() as u64).sum()
    }

    /// A seeded sample of `n` distinct term ids (all of them when fewer).
    pub fn sample_terms(&self, n: usize, seed: u64) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..self.terms.len() as u32).collect();
        ids.shuffle(&mut StdRng::seed_from_u64(seed));
        ids.truncate(n);
        ids
    }

    /// The document set a query must return, by brute force over the lists.
    pub fn expected_docs(&self, q: &Query) -> Vec<u32> {
        let mut lists = q.terms.iter().map(|&t| &self.lists[t as usize]);
        let first = lists.next().expect("a query has at least one term");
        let mut docs: Vec<u32> = first.iter().map(|p| p.0).collect();
        for list in lists {
            match q.mode {
                Mode::Or => {
                    docs.extend(list.iter().map(|p| p.0));
                    docs.sort_unstable();
                    docs.dedup();
                }
                Mode::And | Mode::Bool => {
                    docs.retain(|d| list.binary_search_by_key(d, |p| p.0).is_ok());
                }
            }
        }
        docs
    }
}

/// Which public entry point a query goes through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `Index::search_ranked(_, QueryMode::Or, _)`.
    Or,
    /// `Index::search_ranked(_, QueryMode::And, _)`.
    And,
    /// `Index::search` (conjunctive, ranked by summed tf).
    Bool,
}

/// One query of a workload's set.
#[derive(Clone, Debug)]
pub struct Query {
    /// The text handed to the index, space-separated surface terms.
    pub text: String,
    /// Entry point, drawn per query: 40% OR, 40% AND, 20% boolean.
    pub mode: Mode,
    /// Oracle ids of the terms the text normalises to.
    pub terms: Vec<u32>,
}

/// True when `term`, typed as a query word, normalises back to itself:
/// one token, a fixed point of the stemmer (Porter is not idempotent), not
/// a stop word. Only such terms can be asked for by name.
fn askable(term: &str) -> bool {
    let mut it = tokens(term);
    it.next_token() == Some(term)
        && it.next_token().is_none()
        && stem(term) == term
        && !is_stop_word(term)
}

/// Shortest list a head query may draw in a collection of `docs` documents.
fn head_df_min(docs: usize) -> usize {
    HEAD_DF_MIN.min(docs / 8).max(2)
}

/// Draw `n` queries. Each takes a seeded document and 2–3 of its terms, so
/// every conjunction has at least that document as a hit.
pub fn make_queries(
    oracle: &Oracle,
    shape: QueryShape,
    n: usize,
    seed: u64,
) -> io::Result<Vec<Query>> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x51));
    let docs = oracle.doc_terms.len();
    let head_min = head_df_min(docs);
    let mut askable_cache: Vec<Option<bool>> = vec![None; oracle.terms.len()];
    let mut out = Vec::with_capacity(n);
    let mut draws = 0usize;
    while out.len() < n {
        draws += 1;
        if draws > 50 * n.max(20) {
            return Err(io::Error::other(format!(
                "only {} of {n} {shape:?} queries could be drawn from {docs} documents",
                out.len()
            )));
        }
        let doc = rng.gen_range(0..docs);
        let mut cands: Vec<u32> = oracle.doc_terms[doc]
            .iter()
            .copied()
            .filter(|&t| {
                let df = oracle.lists[t as usize].len();
                let in_shape = match shape {
                    QueryShape::Head => df >= head_min,
                    QueryShape::Tail => df < TAIL_DF_MAX,
                };
                in_shape
                    && *askable_cache[t as usize]
                        .get_or_insert_with(|| askable(&oracle.terms[t as usize]))
            })
            .collect();
        let k = rng.gen_range(2..=3usize);
        if cands.len() < k {
            continue;
        }
        match shape {
            QueryShape::Head => cands.shuffle(&mut rng),
            QueryShape::Tail => cands.sort_by_key(|&t| (oracle.lists[t as usize].len(), t)),
        }
        cands.truncate(k);
        let mode = match rng.gen_range(0..10u32) {
            0..=3 => Mode::Or,
            4..=7 => Mode::And,
            _ => Mode::Bool,
        };
        let text = cands
            .iter()
            .map(|&t| oracle.terms[t as usize].as_str())
            .collect::<Vec<_>>()
            .join(" ");
        out.push(Query {
            text,
            mode,
            terms: cands,
        });
    }
    Ok(out)
}
