//! Differential check of the LZSS decoder (`ii_corpus::compress`) against
//! the frozen byte-at-a-time decoder in `tests/src/lzss.rs`.
//!
//! The product copies a flag byte of eight literals and a match that does
//! not overlap its own output in one piece each. Neither may change what
//! `fill_to` yields: on every stream — valid, cut short or hostile — and at
//! every bound, both decoders return the same `Ok` or the same
//! `DecompressError` and hold the same decoded bytes.

use ii_core::corpus::compress::{compress, decompress, Decompressor};
use ii_integration_tests::lzss::{decompress_reference, ReferenceDecompressor};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Walk both decoders through every bound from 0 to one past the declared
/// length, one `fill_to` at a time, then through a few fresh decoders at
/// scattered bounds; every answer and every decoded prefix must agree.
fn agree_at_every_bound(stream: &[u8]) -> Result<(), TestCaseError> {
    let (product, reference) = (Decompressor::new(stream), ReferenceDecompressor::new(stream));
    let (mut product, mut reference) = match (product, reference) {
        (Ok(p), Ok(r)) => (p, r),
        (Err(p), Err(r)) => {
            prop_assert_eq!(p, r);
            return Ok(());
        }
        (p, r) => {
            return Err(TestCaseError::fail(format!(
                "header: product {:?}, reference {:?}",
                p.err(),
                r.err()
            )))
        }
    };
    let declared = u32::from_le_bytes([stream[0], stream[1], stream[2], stream[3]]) as usize;
    for n in 0..=declared + 1 {
        prop_assert_eq!(product.fill_to(n), reference.fill_to(n), "fill_to({})", n);
        prop_assert_eq!(product.decoded(), reference.decoded(), "decoded after fill_to({})", n);
        prop_assert_eq!(product.is_complete(), reference.is_complete());
    }
    for n in [1, 7, 8, 9, 17, 64, declared / 2, declared.saturating_sub(1), usize::MAX] {
        let mut p = Decompressor::new(stream).unwrap();
        let mut r = ReferenceDecompressor::new(stream).unwrap();
        prop_assert_eq!(p.fill_to(n), r.fill_to(n), "fresh fill_to({})", n);
        prop_assert_eq!(p.decoded(), r.decoded(), "fresh decoded after fill_to({})", n);
    }
    prop_assert_eq!(decompress(stream), decompress_reference(stream));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_bytes_decode_identically(data in proptest::collection::vec(any::<u8>(), 0..600)) {
        agree_at_every_bound(&compress(&data))?;
    }

    /// Long literal runs and short repeats: flag bytes of eight literals,
    /// overlapping and non-overlapping matches side by side.
    #[test]
    fn texty_input_decodes_identically(
        words in proptest::collection::vec((any::<bool>(), "[a-e ]{1,12}", "[a-z0-9<>&;]{8,20}"), 0..60)
    ) {
        let text: String = words.into_iter().map(|(short, s, l)| if short { s } else { l }).collect();
        agree_at_every_bound(&compress(text.as_bytes()))?;
    }

    #[test]
    fn truncated_streams_fail_identically(
        words in proptest::collection::vec("[a-f ]{1,16}", 1..40),
        cut in any::<prop::sample::Index>(),
    ) {
        let c = compress(words.concat().as_bytes());
        agree_at_every_bound(&c[..cut.index(c.len() + 1)])?;
    }

    /// Streams with a byte flipped: bad distances, matches past the
    /// declared length, flag bytes that turn literals into matches.
    #[test]
    fn damaged_streams_fail_identically(
        words in proptest::collection::vec("[a-f ]{1,16}", 1..40),
        at in any::<prop::sample::Index>(),
        flip in 1u8..,
    ) {
        let mut c = compress(words.concat().as_bytes());
        let i = at.index(c.len());
        c[i] ^= flip;
        agree_at_every_bound(&c)?;
    }

    /// Arbitrary bytes under a small declared length: nothing here is a
    /// stream `compress` wrote.
    #[test]
    fn hostile_streams_fail_identically(
        declared in 0u32..300,
        body in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut stream = declared.to_le_bytes().to_vec();
        stream.extend_from_slice(&body);
        agree_at_every_bound(&stream)?;
    }
}

#[test]
fn eight_literal_groups_and_long_matches_decode_identically() {
    // Incompressible first half (every flag byte all literals), then
    // repeats at every distance class, then a run (overlapping matches).
    let mut data: Vec<u8> = (0..=255u8).rev().chain(0..=255u8).collect();
    data.extend_from_slice(&b"abcdefghijklmnopqrstuvwxyz".repeat(20));
    data.extend_from_slice(&[b'z'; 300]);
    agree_at_every_bound(&compress(&data)).unwrap();
}
