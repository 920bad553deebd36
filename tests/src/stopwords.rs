//! The frozen stop-word lookup: a plain binary search over the full sorted
//! table of surface forms and their stems, with none of the length or
//! first-letter rejects `ii_text::stopwords` front-loads. The parse oracle
//! ([`crate::parse`]) filters with it.

use ii_core::text::stopwords::STOP_WORDS;
use std::sync::OnceLock;

/// Every stop word and the (frozen) Porter stem of each, sorted, deduped.
fn sorted() -> &'static [String] {
    static TABLE: OnceLock<Vec<String>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut v: Vec<String> = STOP_WORDS
            .iter()
            .flat_map(|w| [w.to_string(), crate::porter::stem(w).into_owned()])
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    })
}

/// Is `term` (surface or stemmed form) a stop word? Must agree with
/// `ii_text::is_stop_word` on every input.
pub fn is_stop_word_reference(term: &str) -> bool {
    sorted().binary_search_by(|w| w.as_str().cmp(term)).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ii_core::text::is_stop_word;

    #[test]
    fn reference_lookup_agrees() {
        let extra = ["computer", "index", "the", "thi", "954", "", "-80", "zzzz"];
        for w in sorted().iter().map(String::as_str).chain(extra) {
            assert_eq!(is_stop_word(w), is_stop_word_reference(w), "word {w:?}");
        }
    }
}
