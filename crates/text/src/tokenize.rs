//! Tokenization (parser Step 2).
//!
//! Splits text into lowercase tokens in a single pass — the same pass the
//! paper uses to compute each term's trie index as a byproduct. A token is
//! a maximal run of Unicode alphanumeric characters; a leading '-' is kept
//! when directly followed by a digit so terms like "-80" (Table I's
//! special-category example) survive.
//!
//! The scanner is driven by a 256-entry byte-class table: pure-ASCII text
//! (the overwhelming majority of the paper's corpora) never decodes a
//! `char`, and tokens that are already lowercase are returned as borrowed
//! slices of the input with no copy at all. Bytes >= 0x80 fall back to
//! `char`-wise scanning for exact Unicode-alphanumeric semantics, so output
//! is byte-identical to a plain `char`-wise scanner (the differential
//! oracle the integration test crate keeps).

/// Byte is a separator (also the class of '-' when not before a digit).
const CLASS_SEP: u8 = 0;
/// ASCII byte that is a token byte needing no transform: a-z, 0-9.
const CLASS_LOWER: u8 = 1;
/// A-Z: token byte, needs `| 0x20` lowercasing.
const CLASS_UPPER: u8 = 2;
/// '-': starts a token only when immediately followed by an ASCII digit.
const CLASS_HYPHEN: u8 = 3;
/// Lead/continuation byte of a multi-byte UTF-8 sequence: decode a `char`.
const CLASS_MULTI: u8 = 4;

const BYTE_CLASS: [u8; 256] = {
    let mut t = [CLASS_SEP; 256];
    let mut b = 0usize;
    while b < 256 {
        t[b] = if (b >= b'a' as usize && b <= b'z' as usize)
            || (b >= b'0' as usize && b <= b'9' as usize)
        {
            CLASS_LOWER
        } else if b >= b'A' as usize && b <= b'Z' as usize {
            CLASS_UPPER
        } else if b == b'-' as usize {
            CLASS_HYPHEN
        } else if b >= 0x80 {
            CLASS_MULTI
        } else {
            CLASS_SEP
        };
        b += 1;
    }
    t
};

/// Iterator over the tokens of a text.
pub struct Tokens<'a> {
    rest: &'a str,
    /// Scratch reused across tokens; only written when a token needs
    /// lowercasing (uppercase ASCII or non-ASCII characters).
    buf: String,
}

/// Tokenize `text`. Tokens are lowercased. The iterator yields borrowed
/// `&str`s via `next_token` — slices of the input when already lowercase,
/// otherwise drawn from an internal buffer.
pub fn tokens(text: &str) -> Tokens<'_> {
    Tokens { rest: text, buf: String::with_capacity(32) }
}

impl<'a> Tokens<'a> {
    /// Advance to the next token, returning it as a borrowed `&str` valid
    /// until the next call. The lending-iterator shape plus borrowed
    /// returns keep the hot parsing loop allocation- and copy-free for
    /// clean lowercase ASCII tokens.
    pub fn next_token(&mut self) -> Option<&str> {
        let bytes = self.rest.as_bytes();
        let mut i = 0usize;
        // Skip separators; allow '-' to start a token only before a digit.
        let start = loop {
            if i >= bytes.len() {
                self.rest = "";
                return None;
            }
            match BYTE_CLASS[bytes[i] as usize] {
                CLASS_LOWER | CLASS_UPPER => break i,
                CLASS_HYPHEN => {
                    if i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit() {
                        let start = i;
                        i += 1; // consume the '-'
                        break start;
                    }
                    i += 1;
                }
                CLASS_MULTI => {
                    let c = self.rest[i..].chars().next().unwrap();
                    if c.is_alphanumeric() {
                        break i;
                    }
                    i += c.len_utf8();
                }
                _ => i += 1,
            }
        };
        let mut has_upper = false;
        let mut has_multi = false;
        while i < bytes.len() {
            match BYTE_CLASS[bytes[i] as usize] {
                CLASS_LOWER => i += 1,
                CLASS_UPPER => {
                    has_upper = true;
                    i += 1;
                }
                CLASS_MULTI => {
                    let c = self.rest[i..].chars().next().unwrap();
                    if !c.is_alphanumeric() {
                        break;
                    }
                    has_multi = true;
                    i += c.len_utf8();
                }
                _ => break,
            }
        }
        let raw = &self.rest[start..i];
        self.rest = &self.rest[i..];
        if !has_upper && !has_multi {
            // Already lowercase ASCII (possibly with the leading '-'):
            // borrow straight from the input.
            return Some(raw);
        }
        self.buf.clear();
        if !has_multi {
            self.buf.push_str(raw);
            self.buf.make_ascii_lowercase();
        } else {
            for ch in raw.chars() {
                for l in ch.to_lowercase() {
                    self.buf.push(l);
                }
            }
        }
        Some(&self.buf)
    }

    /// Collect the remaining tokens into owned strings (test convenience).
    pub fn collect_all(mut self) -> Vec<String> {
        let mut out = Vec::new();
        while let Some(t) = self.next_token() {
            out.push(t.to_string());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        tokens(s).collect_all()
    }

    #[test]
    fn simple_words() {
        assert_eq!(toks("the quick brown fox"), ["the", "quick", "brown", "fox"]);
    }

    #[test]
    fn punctuation_and_newlines_split() {
        assert_eq!(toks("one, two.\nthree!four"), ["one", "two", "three", "four"]);
    }

    #[test]
    fn lowercasing() {
        assert_eq!(toks("Hello WORLD MiXeD"), ["hello", "world", "mixed"]);
    }

    #[test]
    fn numbers_kept() {
        assert_eq!(toks("in 1999 and 01 things"), ["in", "1999", "and", "01", "things"]);
    }

    #[test]
    fn negative_numbers_keep_minus() {
        assert_eq!(toks("at -80 degrees"), ["at", "-80", "degrees"]);
        // '-' not followed by a digit is a separator.
        assert_eq!(toks("well-known fact"), ["well", "known", "fact"]);
        // trailing dash
        assert_eq!(toks("dash- end -"), ["dash", "end"]);
    }

    #[test]
    fn alphanumeric_mix_is_one_token() {
        assert_eq!(toks("3d model x86"), ["3d", "model", "x86"]);
    }

    #[test]
    fn unicode_letters() {
        assert_eq!(toks("caf\u{e9} Z\u{0416}ivot"), ["caf\u{e9}", "z\u{436}ivot"]);
    }

    #[test]
    fn empty_and_separator_only() {
        assert_eq!(toks(""), Vec::<String>::new());
        assert_eq!(toks("  ,.;:!  \n\t"), Vec::<String>::new());
    }

    #[test]
    fn lending_iteration_reuses_buffer() {
        let mut it = tokens("aaa bbb");
        assert_eq!(it.next_token(), Some("aaa"));
        assert_eq!(it.next_token(), Some("bbb"));
        assert_eq!(it.next_token(), None);
        assert_eq!(it.next_token(), None);
    }

    #[test]
    fn clean_ascii_tokens_borrow_from_input() {
        let text = "zero copy";
        let mut it = tokens(text);
        let t = it.next_token().unwrap();
        assert_eq!(t.as_ptr(), text.as_ptr(), "lowercase token must borrow the input");
        assert_eq!(t, "zero");
    }
}
