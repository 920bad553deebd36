//! Trie-collection index mapping (paper Table I).
//!
//! The top level of the hybrid dictionary is a height-3 trie over the first
//! characters of a term. Because the height is fixed, the trie is never
//! materialized: a term maps directly to one of 17,613 *trie collection*
//! indices, each owning an independent B-tree. The categories are:
//!
//! | index        | category                                                  |
//! |--------------|-----------------------------------------------------------|
//! | 0            | special — anything not fitting below ("-80", "3d", "česky")|
//! | 1..=10       | pure numbers, by first digit '0'..'9'                      |
//! | 11..=36      | terms starting 'a'..'z' with ≤3 letters or a special char  |
//! |              | in the first 3 letters                                     |
//! | 37..=17612   | terms with >3 letters and plain 'a'..'z' in the first 3:   |
//! |              | 37 + (c0·676 + c1·26 + c2)                                 |
//!
//! Terms in the same collection share the trie-captured prefix, which is
//! therefore stripped before dictionary storage: 3 bytes for indices ≥37,
//! 1 byte for 1..=36, nothing for index 0.

/// Total number of trie collections: 1 + 10 + 26 + 26³.
pub const TRIE_ENTRIES: usize = 1 + 10 + 26 + 26 * 26 * 26;

/// First index of the three-letter-prefix region.
pub const THREE_LETTER_BASE: u32 = 37;

/// Identifier of a trie collection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrieIndex(pub u32);

impl TrieIndex {
    /// The special catch-all collection.
    pub const SPECIAL: TrieIndex = TrieIndex(0);

    /// Number of prefix **bytes** the trie captures for terms in this
    /// collection (all captured prefixes are ASCII, so bytes == chars).
    pub fn prefix_len(self) -> usize {
        match self.0 {
            0 => 0,
            1..=36 => 1,
            _ => 3,
        }
    }

    /// Reconstruct the captured prefix string for this collection (empty
    /// for the special collection).
    pub fn prefix(self) -> String {
        match self.0 {
            0 => String::new(),
            i @ 1..=10 => ((b'0' + (i - 1) as u8) as char).to_string(),
            i @ 11..=36 => ((b'a' + (i - 11) as u8) as char).to_string(),
            i => {
                let x = i - THREE_LETTER_BASE;
                let c0 = (x / 676) as u8;
                let c1 = ((x / 26) % 26) as u8;
                let c2 = (x % 26) as u8;
                String::from_utf8(vec![b'a' + c0, b'a' + c1, b'a' + c2]).unwrap()
            }
        }
    }
}

/// Classify a term. Returns the trie index and the number of prefix bytes
/// to strip before storing the term in its B-tree.
///
/// Terms are expected in post-parse form (lowercased); uppercase input is
/// treated as "special" just as the paper's "Česky" example is.
pub fn trie_index(term: &str) -> TrieIndex {
    let b = term.as_bytes();
    if b.is_empty() {
        return TrieIndex::SPECIAL;
    }
    let c0 = b[0];
    if c0.is_ascii_digit() {
        // Pure numbers only; "3d" falls into the special collection.
        if b.iter().all(|c| c.is_ascii_digit()) {
            return TrieIndex(1 + (c0 - b'0') as u32);
        }
        return TrieIndex::SPECIAL;
    }
    if !c0.is_ascii_lowercase() {
        return TrieIndex::SPECIAL;
    }
    // The three-letter region needs > 3 chars with the first three plain
    // lowercase ASCII. No char counting required: chars <= bytes, so
    // len <= 3 means <= 3 chars, and once the first 3 bytes are plain
    // ASCII, len > 3 guarantees a 4th char after them.
    let first3_plain = b.len() >= 3 && b[..3].iter().all(u8::is_ascii_lowercase);
    if b.len() <= 3 || !first3_plain {
        return TrieIndex(11 + (c0 - b'a') as u32);
    }
    let (c1, c2) = (b[1] - b'a', b[2] - b'a');
    TrieIndex(THREE_LETTER_BASE + (c0 - b'a') as u32 * 676 + c1 as u32 * 26 + c2 as u32)
}

/// Classify and strip in one step: returns the trie index and the stored
/// suffix (term minus the captured prefix).
pub fn classify(term: &str) -> (TrieIndex, &str) {
    let idx = trie_index(term);
    (idx, &term[idx.prefix_len()..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_examples() {
        // Rows straight out of Table I.
        assert_eq!(trie_index("-80"), TrieIndex(0));
        assert_eq!(trie_index("3d"), TrieIndex(0));
        assert_eq!(trie_index("Česky"), TrieIndex(0));
        assert_eq!(trie_index("01"), TrieIndex(1));
        assert_eq!(trie_index("0195"), TrieIndex(1));
        assert_eq!(trie_index("9"), TrieIndex(10));
        assert_eq!(trie_index("954"), TrieIndex(10));
        assert_eq!(trie_index("a"), TrieIndex(11));
        assert_eq!(trie_index("at"), TrieIndex(11));
        assert_eq!(trie_index("act"), TrieIndex(11));
        assert_eq!(trie_index("a\u{f1}onuevo"), TrieIndex(11)); // añonuevo
        assert_eq!(trie_index("z"), TrieIndex(36));
        assert_eq!(trie_index("zoo"), TrieIndex(36));
        assert_eq!(trie_index("zo\u{e9}"), TrieIndex(36)); // zoé
        assert_eq!(trie_index("aaat"), TrieIndex(37));
        assert_eq!(trie_index("aaa\u{e9}"), TrieIndex(37)); // aaaé: first 3 plain
        assert_eq!(trie_index("aabomycin"), TrieIndex(38));
        assert_eq!(trie_index("zzzy"), TrieIndex(17612));
    }

    #[test]
    fn entry_count_matches_paper() {
        assert_eq!(TRIE_ENTRIES, 17613);
        // Max index is TRIE_ENTRIES - 1.
        assert_eq!(trie_index("zzzz").0 as usize, TRIE_ENTRIES - 1);
    }

    #[test]
    fn application_example_strips_app() {
        let (idx, rest) = classify("application");
        assert_eq!(idx.prefix(), "app");
        assert_eq!(rest, "lication");
    }

    #[test]
    fn prefix_roundtrip_for_every_index() {
        for i in 0..TRIE_ENTRIES as u32 {
            let idx = TrieIndex(i);
            let p = idx.prefix();
            assert_eq!(p.len(), idx.prefix_len());
            if i >= THREE_LETTER_BASE {
                // A term made of the prefix plus one more letter maps back.
                let term = format!("{p}x");
                assert_eq!(trie_index(&term), idx, "prefix {p}");
            }
        }
    }

    #[test]
    fn empty_and_weird_terms_are_special() {
        assert_eq!(trie_index(""), TrieIndex::SPECIAL);
        assert_eq!(trie_index("\u{e9}clair"), TrieIndex::SPECIAL); // éclair
        assert_eq!(trie_index("_foo"), TrieIndex::SPECIAL);
        assert_eq!(trie_index("12ab"), TrieIndex::SPECIAL);
    }

    #[test]
    fn three_letter_terms_go_to_single_letter_collections() {
        assert_eq!(trie_index("the"), TrieIndex(11 + (b't' - b'a') as u32));
        assert_eq!(trie_index("cat"), TrieIndex(11 + 2));
        assert_eq!(trie_index("dogs"), trie_index("dogged"));
        assert_ne!(trie_index("dog"), trie_index("dogs"));
    }

    #[test]
    fn classify_strip_lengths() {
        assert_eq!(classify("-80"), (TrieIndex(0), "-80"));
        assert_eq!(classify("954"), (TrieIndex(10), "54"));
        assert_eq!(classify("zoo"), (TrieIndex(36), "oo"));
        assert_eq!(classify("zzzy"), (TrieIndex(17612), "y"));
        // Suffix may be empty for exactly-prefix-plus-nothing cases.
        assert_eq!(classify("a"), (TrieIndex(11), ""));
        assert_eq!(classify("aaaa").1, "a");
    }

    #[test]
    fn multibyte_after_prefix_is_safe() {
        // Prefix stripping is byte-based; captured prefixes are always
        // ASCII so stripping never splits a UTF-8 sequence.
        let (idx, rest) = classify("zo\u{e9}");
        assert_eq!(idx, TrieIndex(36));
        assert_eq!(rest, "o\u{e9}");
        let (idx, rest) = classify("abc\u{e9}d");
        assert_eq!(idx.prefix(), "abc");
        assert_eq!(rest, "\u{e9}d");
    }

    #[test]
    fn all_indices_in_range() {
        // Fuzz a pile of short byte strings; every classification must be
        // within table bounds and prefix_len must not exceed term length.
        let alphabet = b"ab0-9z\xc3\xa9"; // includes bytes of 'é'
        let mut terms = Vec::new();
        for &a in alphabet {
            for &b in alphabet {
                for &c in alphabet {
                    if let Ok(s) = std::str::from_utf8(&[a, b, c]) {
                        terms.push(s.to_string());
                    }
                }
            }
        }
        for t in &terms {
            let idx = trie_index(t);
            assert!((idx.0 as usize) < TRIE_ENTRIES);
            assert!(idx.prefix_len() <= t.len());
        }
    }
}
