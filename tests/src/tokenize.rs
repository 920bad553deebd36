//! The frozen tokenizer: the `char`-wise scanner `ii_text::tokenize`
//! replaced with its byte-class table. `ii_text::tokenize::tokens` must
//! yield the identical token sequence on every input;
//! `tests/parse_differential.rs` fuzzes that, and the parse oracle
//! ([`crate::parse`]) tokenizes with it.

/// The pre-optimization tokenizer: `char`-wise scanning with every token
/// copied into the scratch buffer.
pub struct ReferenceTokens<'a> {
    rest: &'a str,
    buf: String,
}

/// Tokenize `text` with the naive scanner (see [`ReferenceTokens`]).
pub fn tokens_reference(text: &str) -> ReferenceTokens<'_> {
    ReferenceTokens { rest: text, buf: String::with_capacity(32) }
}

impl ReferenceTokens<'_> {
    /// Advance to the next token (naive implementation).
    pub fn next_token(&mut self) -> Option<&str> {
        let bytes = self.rest.as_bytes();
        let mut i = 0usize;
        loop {
            if i >= bytes.len() {
                self.rest = "";
                return None;
            }
            let c = self.rest[i..].chars().next().unwrap();
            if c.is_alphanumeric() {
                break;
            }
            if c == '-' {
                let mut it = self.rest[i..].chars();
                it.next();
                if matches!(it.next(), Some(d) if d.is_ascii_digit()) {
                    break;
                }
            }
            i += c.len_utf8();
        }
        let start = i;
        if bytes[i] == b'-' {
            i += 1;
        }
        while i < bytes.len() {
            let c = self.rest[i..].chars().next().unwrap();
            if !c.is_alphanumeric() {
                break;
            }
            i += c.len_utf8();
        }
        let raw = &self.rest[start..i];
        self.rest = &self.rest[i..];
        self.buf.clear();
        if raw.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-') {
            self.buf.push_str(raw);
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
    use super::tokens_reference;
    use ii_core::text::tokenize::tokens;

    #[test]
    fn matches_reference_tokenizer() {
        let cases = [
            "the quick brown fox",
            "Hello WORLD MiXeD",
            "at -80 degrees, well-known -x -9y",
            "caf\u{e9} Z\u{0416}ivot \u{4e16}\u{754c} stra\u{df}e \u{130}stanbul",
            "--5 ---6 a-1 1-a \u{2014}dash\u{2014}",
            "3d model x86 \u{665}\u{660} \u{ff21}\u{ff22}",
            "",
            "  ,.;:!  \n\t",
            "ümlaut ÜMLAUT \u{1d400}\u{1d401}",
        ];
        for text in cases {
            assert_eq!(
                tokens(text).collect_all(),
                tokens_reference(text).collect_all(),
                "input {text:?}"
            );
        }
    }
}
