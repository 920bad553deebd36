//! HTML tag stripping.
//!
//! Web-crawl collections (ClueWeb09-like, Congress-like) store HTML pages;
//! the paper's Wikipedia collection had tags removed upstream. The parser
//! strips tags before tokenization for HTML collections: a small state
//! machine that drops `<...>` markup, skips `<script>`/`<style>` content
//! entirely, and decodes the handful of entities the generator emits.
//!
//! The hot path uses [`strip_tags_into`] with a caller-owned output buffer
//! so per-document stripping performs no allocation in steady state; all
//! comparisons are ASCII case-insensitive over bytes, never building
//! lowercased copies.

/// Strip HTML markup from `input`, returning the visible text. Tag
/// boundaries are replaced by single spaces so adjacent words don't fuse.
pub fn strip_tags(input: &str) -> String {
    let mut out = String::new();
    strip_tags_into(input, &mut out);
    out
}

/// First position in `haystack` where the ASCII `needle` matches
/// case-insensitively. A pure-ASCII match in valid UTF-8 always lands on a
/// char boundary, so the returned index is safe to slice at.
fn find_ascii_ci(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.len() > haystack.len() {
        return None;
    }
    haystack
        .windows(needle.len())
        .position(|w| w.eq_ignore_ascii_case(needle))
}

/// [`strip_tags`] into a reusable buffer: `out` is cleared, then filled
/// with the visible text. Capacity is retained across calls.
pub fn strip_tags_into(input: &str, out: &mut String) {
    out.clear();
    out.reserve(input.len());
    let bytes = input.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] == b'<' {
            // Find the end of the tag.
            let tag_start = i + 1;
            let mut j = tag_start;
            while j < bytes.len() && bytes[j] != b'>' {
                j += 1;
            }
            let tag = input[tag_start..j.min(input.len())].trim();
            // Leading ASCII-alphanumeric run = the element name.
            let name_len = tag
                .bytes()
                .take_while(u8::is_ascii_alphanumeric)
                .count();
            let name = &tag.as_bytes()[..name_len];
            i = (j + 1).min(bytes.len());
            out.push(' ');
            // Skip raw-content elements wholesale.
            if name.eq_ignore_ascii_case(b"script") || name.eq_ignore_ascii_case(b"style") {
                let close = if name.eq_ignore_ascii_case(b"script") {
                    b"</script".as_slice()
                } else {
                    b"</style".as_slice()
                };
                if let Some(pos) = find_ascii_ci(&bytes[i..], close) {
                    let after = i + pos;
                    // Move past the closing '>'.
                    let mut k = after;
                    while k < bytes.len() && bytes[k] != b'>' {
                        k += 1;
                    }
                    i = (k + 1).min(bytes.len());
                } else {
                    i = bytes.len();
                }
            }
        } else if bytes[i] == b'&' {
            // Decode a small entity set; unknown entities pass through.
            let rest = &input[i..];
            let mut decoded = false;
            for (ent, ch) in [
                ("&amp;", '&'),
                ("&lt;", '<'),
                ("&gt;", '>'),
                ("&quot;", '"'),
                ("&#39;", '\''),
                ("&nbsp;", ' '),
            ] {
                if rest.starts_with(ent) {
                    out.push(ch);
                    i += ent.len();
                    decoded = true;
                    break;
                }
            }
            if !decoded {
                out.push('&');
                i += 1;
            }
        } else {
            // Copy the text up to the next markup byte in one piece (both
            // are ASCII, so the run ends on a char boundary).
            let run = bytes[i..].iter().position(|&b| b == b'<' || b == b'&');
            let end = run.map_or(bytes.len(), |n| i + n);
            out.push_str(&input[i..end]);
            i = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_text_unchanged() {
        assert_eq!(strip_tags("hello world"), "hello world");
    }

    #[test]
    fn tags_removed_words_separated() {
        assert_eq!(strip_tags("<p>one</p><p>two</p>").split_whitespace().collect::<Vec<_>>(),
                   ["one", "two"]);
    }

    #[test]
    fn attributes_do_not_leak() {
        let s = strip_tags("<a href=\"http://evil.example/x?q=1\">link</a>");
        assert!(!s.contains("evil"), "attribute text leaked: {s}");
        assert!(s.contains("link"));
    }

    #[test]
    fn script_and_style_content_dropped() {
        let s = strip_tags("a<script>var x = 1;</script>b<style>.c{color:red}</style>c");
        let words: Vec<_> = s.split_whitespace().collect();
        assert_eq!(words, ["a", "b", "c"]);
        // Case-insensitive closing tag.
        let s = strip_tags("x<SCRIPT>q()</ScRiPt>y");
        assert_eq!(s.split_whitespace().collect::<Vec<_>>(), ["x", "y"]);
    }

    #[test]
    fn entities_decoded() {
        assert_eq!(strip_tags("a&amp;b &lt;c&gt; &quot;d&quot;"), "a&b <c> \"d\"");
        assert_eq!(strip_tags("&unknown; stays"), "&unknown; stays");
    }

    #[test]
    fn unterminated_tag_is_dropped() {
        assert_eq!(strip_tags("text <unclosed everything after").trim(), "text");
    }

    #[test]
    fn unterminated_script_is_dropped() {
        assert_eq!(strip_tags("before<script>never closed").trim(), "before");
    }

    #[test]
    fn full_page() {
        let page = "<html><head><title>T</title></head><body><p>hello</p>\
                    <a href=\"u\">world</a></body></html>";
        let words: Vec<_> = strip_tags(page).split_whitespace().map(String::from).collect();
        assert_eq!(words, ["T", "hello", "world"]);
    }

    #[test]
    fn into_buffer_clears_and_reuses() {
        let mut buf = String::from("stale");
        strip_tags_into("<b>fresh</b>", &mut buf);
        assert_eq!(buf.split_whitespace().collect::<Vec<_>>(), ["fresh"]);
        let cap = buf.capacity();
        strip_tags_into("tiny", &mut buf);
        assert_eq!(buf, "tiny");
        assert!(buf.capacity() >= cap, "capacity must be retained");
    }
}
