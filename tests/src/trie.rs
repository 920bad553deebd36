//! The frozen trie classifier (paper Table I), as it was before
//! `ii_dict::trie` stopped counting characters. The parse oracle
//! ([`crate::parse`]) classifies with it.

use ii_core::dict::trie::{TrieIndex, THREE_LETTER_BASE};

/// The pre-optimization classifier: it counts Unicode chars on every term
/// where `ii_dict::trie_index` derives the same answer from byte length
/// alone. Must agree with `ii_dict::classify` on every input.
pub fn classify_reference(term: &str) -> (TrieIndex, &str) {
    let idx = trie_index_reference(term);
    (idx, &term[idx.prefix_len()..])
}

fn trie_index_reference(term: &str) -> TrieIndex {
    let b = term.as_bytes();
    if b.is_empty() {
        return TrieIndex::SPECIAL;
    }
    let c0 = b[0];
    if c0.is_ascii_digit() {
        if b.iter().all(|c| c.is_ascii_digit()) {
            return TrieIndex(1 + (c0 - b'0') as u32);
        }
        return TrieIndex::SPECIAL;
    }
    if !c0.is_ascii_lowercase() {
        return TrieIndex::SPECIAL;
    }
    let nchars = term.chars().count();
    let first3_plain = b.len() >= 3 && b[..3].iter().all(u8::is_ascii_lowercase);
    if nchars <= 3 || !first3_plain {
        return TrieIndex(11 + (c0 - b'a') as u32);
    }
    let (c1, c2) = (b[1] - b'a', b[2] - b'a');
    TrieIndex(THREE_LETTER_BASE + (c0 - b'a') as u32 * 676 + c1 as u32 * 26 + c2 as u32)
}

#[cfg(test)]
mod tests {
    use super::classify_reference;
    use ii_core::dict::classify;

    #[test]
    fn reference_classifier_agrees() {
        // The retained pre-optimization classifier and the byte-length one
        // must agree everywhere, including multibyte and 3/4-char edges.
        let mut terms: Vec<String> = vec![
            "", "a", "ab", "abc", "abcd", "ab\u{e9}", "abc\u{e9}", "\u{e9}abc",
            "a\u{f1}onuevo", "954", "3d", "-80", "zzzz", "zo\u{e9}",
        ]
        .into_iter()
        .map(str::to_string)
        .collect();
        let alphabet = b"ab0-9z\xc3\xa9";
        for &a in alphabet {
            for &b in alphabet {
                for &c in alphabet {
                    if let Ok(s) = std::str::from_utf8(&[a, b, c]) {
                        terms.push(s.to_string());
                        terms.push(format!("ab{s}"));
                    }
                }
            }
        }
        for t in &terms {
            assert_eq!(classify(t), classify_reference(t), "term {t:?}");
        }
    }
}
