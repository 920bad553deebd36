//! Stop-word removal (parser Step 4).
//!
//! The paper removes stop words *after* stemming (§III.C Step 3 then
//! Step 4), so the filter must recognize both surface forms ("this") and
//! their stems ("thi"). We build one sorted table containing the classic
//! stop list plus the Porter stem of every entry, and answer membership by
//! binary search.
//!
//! Because this runs once per kept token, the lookup front-loads two cheap
//! rejects — a length cap (no stop word exceeds [`max_stop_len`]) and a
//! (first letter, length) bucket — so the common case (a content word)
//! usually exits before any string comparison, and a hit scans at most a
//! handful of same-length candidates.

use crate::porter;
use std::sync::OnceLock;

/// The classic SMART-derived stop list (surface forms).
pub const STOP_WORDS: &[&str] = &[
    "a", "about", "above", "after", "again", "against", "all", "am", "an", "and", "any", "are",
    "as", "at", "be", "because", "been", "before", "being", "below", "between", "both", "but",
    "by", "can", "cannot", "could", "did", "do", "does", "doing", "down", "during", "each",
    "few", "for", "from", "further", "had", "has", "have", "having", "he", "her", "here",
    "hers", "herself", "him", "himself", "his", "how", "i", "if", "in", "into", "is", "it",
    "its", "itself", "me", "more", "most", "my", "myself", "no", "nor", "not", "of", "off",
    "on", "once", "only", "or", "other", "ought", "our", "ours", "ourselves", "out", "over",
    "own", "same", "she", "should", "so", "some", "such", "than", "that", "the", "their",
    "theirs", "them", "themselves", "then", "there", "these", "they", "this", "those",
    "through", "to", "too", "under", "until", "up", "very", "was", "we", "were", "what",
    "when", "where", "which", "while", "who", "whom", "why", "with", "would", "you", "your",
    "yours", "yourself", "yourselves",
];

struct StopTable {
    /// All surface forms plus their stems, deduped and sorted by
    /// (first letter, length, bytes) so each bucket is a contiguous run.
    words: Vec<&'static str>,
    /// Half-open `words` range per (first letter, length) pair, indexed by
    /// `(letter - 'a') * (max_len + 1) + len`. Every entry starts with a
    /// lowercase letter, so one byte plus the length picks a slice of at
    /// most a handful of candidates.
    buckets: Vec<(u16, u16)>,
    /// Length of the longest entry — anything longer is never a stop word.
    max_len: usize,
}

fn table() -> &'static StopTable {
    static TABLE: OnceLock<StopTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut v: Vec<&'static str> = Vec::with_capacity(STOP_WORDS.len() * 2);
        v.extend_from_slice(STOP_WORDS);
        for w in STOP_WORDS {
            let stemmed = porter::stem(w);
            if stemmed != *w {
                // Leak is bounded and one-time: a few dozen short strings.
                v.push(Box::leak(stemmed.into_owned().into_boxed_str()));
            }
        }
        v.sort_unstable_by_key(|w| (w.as_bytes()[0], w.len(), *w));
        v.dedup();
        let max_len = v.iter().map(|w| w.len()).max().unwrap_or(0);
        let mut buckets = vec![(0u16, 0u16); 26 * (max_len + 1)];
        let mut i = 0;
        while i < v.len() {
            let key = bucket_index(v[i].as_bytes()[0], v[i].len(), max_len);
            let start = i;
            while i < v.len()
                && bucket_index(v[i].as_bytes()[0], v[i].len(), max_len) == key
            {
                i += 1;
            }
            buckets[key] = (start as u16, i as u16);
        }
        StopTable { words: v, buckets, max_len }
    })
}

#[inline]
fn bucket_index(first: u8, len: usize, max_len: usize) -> usize {
    (first - b'a') as usize * (max_len + 1) + len
}

/// Longest stop word (surface or stemmed) in the table.
pub fn max_stop_len() -> usize {
    table().max_len
}

/// Is `term` (surface or stemmed form) a stop word?
pub fn is_stop_word(term: &str) -> bool {
    let t = table();
    let b = term.as_bytes();
    if b.is_empty() || b.len() > t.max_len || !b[0].is_ascii_lowercase() {
        return false;
    }
    let (start, end) = t.buckets[bucket_index(b[0], b.len(), t.max_len)];
    t.words[start as usize..end as usize]
        .iter()
        .any(|w| w.as_bytes() == b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_stop_words_match() {
        for w in ["the", "to", "and", "of", "a", "is"] {
            assert!(is_stop_word(w), "{w} should be a stop word");
        }
    }

    #[test]
    fn stemmed_forms_match() {
        // Porter: this -> thi, because -> becaus, having -> have, etc.
        assert!(is_stop_word("thi"));
        assert!(is_stop_word("becaus"));
        assert!(is_stop_word("onc"));
        assert!(is_stop_word("veri"));
    }

    #[test]
    fn content_words_pass() {
        for w in ["computer", "index", "parallel", "gpu", "zebra", "954", "", "-80", "\u{e9}"] {
            assert!(!is_stop_word(w), "{w} should not be a stop word");
        }
    }

    #[test]
    fn table_is_sorted_and_deduped() {
        let t = table();
        for w in t.words.windows(2) {
            let ka = (w[0].as_bytes()[0], w[0].len(), w[0]);
            let kb = (w[1].as_bytes()[0], w[1].len(), w[1]);
            assert!(ka < kb, "table must be strictly sorted by bucket key: {w:?}");
        }
    }

    #[test]
    fn buckets_cover_whole_table() {
        // Every table entry must be reachable through its bucket, i.e. the
        // fast-path lookup agrees with a plain full-table binary search.
        let t = table();
        for w in &t.words {
            assert!(is_stop_word(w), "{w} lost by bucketed lookup");
        }
        assert!(t.max_len >= 10, "ourselves/themselves are 9-10 chars");
    }
}
