//! Differential property tests for the zero-allocation parse hot path.
//!
//! The optimization contract is *byte identity*: the scratch-based parser
//! ([`parse_documents_into`]), the copy-on-write stemmer
//! ([`porter::stem_into`]), and the byte-class tokenizer must produce
//! exactly what the retained naive reference implementations produce, on
//! arbitrary Unicode input, including when one scratch is reused across
//! many batches (the pipeline's steady state). The references are the
//! frozen oracles of this crate's library.

use ii_core::corpus::RawDocument;
use ii_core::text::porter::{self, StemBuf};
use ii_core::text::tokenize::tokens;
use ii_core::text::html::{strip_tags, strip_tags_into};
use ii_core::text::{parse_documents_into, stopwords::STOP_WORDS, ParseScratch};
use ii_integration_tests::html::strip_tags_reference;
use ii_integration_tests::parse::parse_documents_reference;
use ii_integration_tests::porter as reference;
use ii_integration_tests::tokenize::tokens_reference;
use proptest::prelude::*;

/// Document bodies that mix ASCII prose, punctuation, numbers (with the
/// '-' prefix rule), HTML-ish markup, and arbitrary Unicode. The vendored
/// proptest has no alternation, so a selector byte picks the flavour.
fn body_strategy() -> impl Strategy<Value = String> {
    (any::<u8>(), "[a-zA-Z -]{0,60}", "[a-zA-Z0-9<>/&; .,-]{0,60}", ".{0,40}")
        .prop_map(|(sel, prose, markup, unicode)| match sel % 4 {
            // ASCII prose with stop words and stemmable suffixes.
            0 => format!("the running ponies {prose} x86 -42 caresses"),
            // HTML fragments (exercised in html=true mode).
            1 => format!("<p>{prose}</p>{markup}&amp; &lt;"),
            2 => format!("a<script>{prose}</script>b<style>{markup}</style>{prose}"),
            // Arbitrary Unicode.
            _ => unicode,
        })
}

fn docs_strategy() -> impl Strategy<Value = Vec<RawDocument>> {
    proptest::collection::vec(
        ("[a-z0-9]{0,6}", body_strategy())
            .prop_map(|(url, body)| RawDocument { url, body }),
        0..6,
    )
}

/// HTML-like text: words and multi-byte characters between tags, known,
/// unknown and cut entities, `<script>`/`<style>` elements in any case,
/// closed or not, and stray `<`, `>` and `&`.
fn html_strategy() -> impl Strategy<Value = String> {
    let piece = (any::<u8>(), "[a-zA-Z0-9 ]{0,10}", ".{0,4}");
    proptest::collection::vec(piece, 0..16).prop_map(|pieces| {
        let mut out = String::new();
        for (sel, word, unicode) in pieces {
            let entities = ["&amp;", "&lt;", "&gt;", "&quot;", "&#39;", "&nbsp;", "&bogus;", "&amp"];
            match sel % 10 {
                0 => out.push_str(&word),
                1 => out.push_str(&unicode),
                2 => out.push_str(&format!("<p class=\"{word}\">{unicode}</p>")),
                3 => out.push_str(entities[usize::from(sel / 10) % entities.len()]),
                4 => out.push_str(&format!("<script>{word}<b>{unicode}</script>")),
                5 => out.push_str(&format!("<STYLE type=x>{word}&amp;</sTyLe >")),
                6 => out.push_str(&format!("<script>{word}")), // never closed
                7 => out.push_str(&format!("<{word}")), // tag cut short
                8 => out.push_str(&format!("{unicode}&{word}>{unicode}")),
                _ => out.push_str(&format!("< {word} >{unicode}")),
            }
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The product stripper, which copies text runs whole, gives the frozen
    /// `char`-at-a-time stripper's text exactly — through one reused buffer
    /// and through the allocating wrapper.
    #[test]
    fn stripper_matches_reference(pages in proptest::collection::vec(html_strategy(), 1..4)) {
        let mut buf = String::from("stale");
        for page in &pages {
            let expect = strip_tags_reference(page);
            strip_tags_into(page, &mut buf);
            prop_assert_eq!(&buf, &expect);
            prop_assert_eq!(strip_tags(page), expect);
        }
    }

    /// The optimized parser's ParsedBatch — groups, term_bytes, doc spans,
    /// doc table, stats — is byte-identical to the naive reference, with
    /// one scratch reused across every batch of the proptest run (each
    /// case parses twice, so stale-state bugs between batches surface).
    #[test]
    fn parsed_batch_is_byte_identical(
        batches in proptest::collection::vec((docs_strategy(), any::<bool>()), 1..4)
    ) {
        let mut scratch = ParseScratch::new();
        for (file_idx, (docs, html)) in batches.iter().enumerate() {
            let reference = parse_documents_reference(docs, *html, file_idx);
            let optimized = parse_documents_into(&mut scratch, docs, *html, file_idx);
            prop_assert_eq!(&optimized, &reference);
            // Recycle as the pipeline consumer does, then parse again into
            // the recycled buffers.
            scratch.recycle(optimized);
            let again = parse_documents_into(&mut scratch, docs, *html, file_idx);
            prop_assert_eq!(&again, &reference);
            scratch.recycle(again);
        }
    }

    /// stem_into agrees with the naive stemmer on fuzzed ASCII words
    /// (including non-lowercase passthrough cases), and the Cow wrapper
    /// agrees content-wise.
    #[test]
    fn stem_into_matches_reference_on_fuzzed_words(word in "[a-zA-Z0-9-]{0,20}") {
        let mut buf = StemBuf::new();
        let expect = reference::stem(&word);
        let got = porter::stem_into(&word, &mut buf);
        prop_assert_eq!(got, expect.as_ref());
        let cow = porter::stem(&word);
        prop_assert_eq!(cow.as_ref(), expect.as_ref());
    }

    /// Long lowercase words exercise the buffer-growth path.
    #[test]
    fn stem_into_matches_reference_on_long_words(word in "[a-z]{200,300}") {
        let mut buf = StemBuf::new();
        let expect = reference::stem(&word);
        let got = porter::stem_into(&word, &mut buf);
        prop_assert_eq!(got, expect.as_ref());
    }

    /// The byte-class tokenizer yields the identical token sequence to the
    /// char-wise reference scanner on arbitrary Unicode input.
    #[test]
    fn tokenizer_matches_reference(text in ".{0,120}") {
        let fast = tokens(&text).collect_all();
        let naive = tokens_reference(&text).collect_all();
        prop_assert_eq!(fast, naive);
    }
}

/// stem_into agrees with the naive stemmer on every stop-list word,
/// reusing one buffer throughout.
#[test]
fn stem_into_matches_reference_on_stop_list() {
    let mut buf = StemBuf::new();
    for w in STOP_WORDS {
        assert_eq!(
            porter::stem_into(w, &mut buf),
            reference::stem(w).as_ref(),
            "stop word {w:?}"
        );
    }
}
