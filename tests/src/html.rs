//! The frozen HTML stripper: `ii_text::html::strip_tags_into` as it was
//! before it copied text runs whole — one `char` at a time between markup.
//! The product stripper must give the identical text on every input;
//! `tests/parse_differential.rs` fuzzes that, and the parse oracle
//! ([`crate::parse`]) strips with it.

/// Strip HTML markup from `input` the frozen way (see
/// [`strip_tags_into_reference`]).
pub fn strip_tags_reference(input: &str) -> String {
    let mut out = String::new();
    strip_tags_into_reference(input, &mut out);
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

/// The frozen stripper into a reusable buffer: `out` is cleared, then
/// filled with the visible text.
pub fn strip_tags_into_reference(input: &str, out: &mut String) {
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
            // Copy one UTF-8 scalar.
            let c = input[i..].chars().next().unwrap();
            out.push(c);
            i += c.len_utf8();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ii_core::text::html::strip_tags;

    #[test]
    fn reference_stripper_agrees() {
        for page in [
            "<p>caf\u{e9} &amp; cr\u{e8}me</p><script>x<y</script>z",
            "a&lt;b &unknown; <STYLE>.c{}</style>\u{1f600}<unclosed",
            "",
        ] {
            assert_eq!(strip_tags(page), strip_tags_reference(page), "{page:?}");
        }
    }
}
