//! Gap-coded postings compression.
//!
//! Document IDs are stored as gaps from their predecessor (the lists are
//! doc-sorted), then compressed with one of the codecs the length-class
//! policy writes: variable-byte (what the paper itself uses in
//! post-processing), BP128-style bitpacking and PForDelta. Each is a coder
//! of one block body in the fixed 128-document layout of [`crate::block`],
//! which is where the encode and decode loops live; this module names the
//! codecs, holds the policy that picks one and the error a decode returns.
//!
//! [`Codec::Auto`] is the per-length-class default policy measured by the
//! `codec_frontier` bench: short lists → varbyte, medium → PForDelta,
//! long → BP128. The paper's bit-level alternatives (Elias γ, Golomb) live
//! in the `ablate_codecs` harness only; they are no codec of the index.

use crate::block;

/// Which gap compressor to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Codec {
    /// Variable-byte (paper's choice).
    VarByte,
    /// 128-integer block bitpacking: one bit width per block, word-level
    /// pack/unpack.
    Bp128,
    /// PForDelta: packed low bits plus a patched exception list per block.
    PFor,
    /// Per-length-class policy: resolves to [`Codec::VarByte`] /
    /// [`Codec::PFor`] / [`Codec::Bp128`] by document frequency.
    Auto,
}

/// Lists shorter than this stay variable-byte under [`Codec::Auto`] — the
/// skip table dominates and byte-aligned decode is already cheap.
pub const SHORT_LIST_MAX: usize = 128;

/// Lists at least this long get BP128 under [`Codec::Auto`] — decode
/// throughput binds on long lists and per-block bitpacking decodes
/// fastest on the measured frontier (BENCH_codecs.json).
pub const LONG_LIST_MIN: usize = 4096;

/// The measured-frontier default policy for a list of `n` postings.
pub fn codec_for(n: usize) -> Codec {
    if n < SHORT_LIST_MAX {
        Codec::VarByte
    } else if n >= LONG_LIST_MIN {
        Codec::Bp128
    } else {
        Codec::PFor
    }
}

impl Codec {
    /// Resolve [`Codec::Auto`] to a concrete codec for an `n`-posting list;
    /// concrete codecs resolve to themselves.
    pub fn resolve(self, n: usize) -> Codec {
        match self {
            Codec::Auto => codec_for(n),
            c => c,
        }
    }
}

/// Why a postings decode failed. Every variant is a property of the input
/// bytes, not of the caller: a [`CodecError`] from committed data means the
/// artifact is corrupt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before `n` postings were decoded.
    Truncated,
    /// A per-block bit width exceeded 32 (hostile or corrupt header).
    BadBitWidth(u8),
    /// A PForDelta exception slot pointed past the end of its block.
    ExceptionOverflow {
        /// The exception's claimed slot.
        index: u8,
        /// Number of values actually in the block.
        block_len: u8,
    },
    /// Decoded document IDs were not strictly increasing.
    NonMonotone,
    /// A decoded document ID or term frequency overflowed `u32`.
    Overflow,
    /// The claimed posting count is impossibly large for the buffer — the
    /// allocation guard against hostile length headers.
    AllocGuard {
        /// Postings claimed by the header.
        claimed: usize,
        /// Most postings the buffer could possibly hold.
        max: usize,
    },
    /// Structurally invalid input (bad skip offsets, trailing bytes, ...).
    Malformed(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "postings buffer truncated"),
            CodecError::BadBitWidth(w) => write!(f, "bit width {w} exceeds 32"),
            CodecError::ExceptionOverflow { index, block_len } => {
                write!(f, "PFor exception slot {index} outside block of {block_len}")
            }
            CodecError::NonMonotone => write!(f, "document IDs not strictly increasing"),
            CodecError::Overflow => write!(f, "decoded value overflows u32"),
            CodecError::AllocGuard { claimed, max } => {
                write!(f, "claimed {claimed} postings but buffer holds at most {max}")
            }
            CodecError::Malformed(what) => write!(f, "malformed postings: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Most postings `len` bytes could possibly hold, with slack: the densest
/// layout (blocked width-0/width-0 BP128) stores 128 postings in 2 bytes of
/// block body plus a 12-byte skip entry. Used to reject hostile length
/// headers before allocating.
pub fn max_plausible_postings(len: usize) -> usize {
    len * 10 + block::BLOCK_LEN
}

/// Reject a claimed posting count that could not fit in `buf` (allocation
/// guard for hostile length headers).
pub fn check_alloc(buf: &[u8], n: usize) -> Result<(), CodecError> {
    let max = max_plausible_postings(buf.len());
    if n > max {
        return Err(CodecError::AllocGuard { claimed: n, max });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{decode_list, encode_list, SKIP_ENTRY_BYTES};
    use crate::posting::Posting;
    use ii_corpus::DocId;
    use proptest::prelude::*;

    fn mklist(docs: &[(u32, u32)]) -> Vec<Posting> {
        docs.iter().map(|&(d, tf)| Posting { doc: DocId(d), tf }).collect()
    }

    const ALL: [Codec; 4] = [Codec::VarByte, Codec::Bp128, Codec::PFor, Codec::Auto];

    #[test]
    fn roundtrip_all_codecs() {
        let list = mklist(&[(0, 3), (1, 1), (7, 2), (100, 9), (10_000, 1)]);
        for codec in ALL {
            let buf = encode_list(&list, codec).bytes;
            assert_eq!(decode_list(&buf, list.len(), codec).as_deref(), Ok(&list[..]), "{codec:?}");
        }
    }

    #[test]
    fn empty_list() {
        for codec in ALL {
            let buf = encode_list(&[], codec).bytes;
            assert_eq!(decode_list(&buf, 0, codec), Ok(vec![]), "{codec:?}");
        }
    }

    #[test]
    fn doc_zero_survives() {
        // Doc 0 lives in the skip entry; the body holds its tf alone.
        let list = mklist(&[(0, 1)]);
        for codec in ALL {
            let buf = encode_list(&list, codec).bytes;
            assert_eq!(decode_list(&buf, 1, codec).as_deref(), Ok(&list[..]));
        }
    }

    #[test]
    fn dense_lists_compress() {
        // Every doc contains the term: unit gaps and unit tfs are stored as
        // zeros — one byte each in varbyte, nothing at all at width 0.
        let list: Vec<Posting> = (0..1000).map(|d| Posting { doc: DocId(d), tf: 1 }).collect();
        let skips = 8 * SKIP_ENTRY_BYTES;
        let vb = encode_list(&list, Codec::VarByte).bytes;
        assert_eq!(vb.len(), skips + (1000 - 8) + 1000);
        let bp = encode_list(&list, Codec::Bp128).bytes;
        assert!(bp.len() < 200, "bp128 on unit gaps should be tiny, got {}", bp.len());
    }

    #[test]
    fn truncation_detected() {
        let list = mklist(&[(5, 2), (9, 1)]);
        for codec in ALL {
            let buf = encode_list(&list, codec).bytes;
            assert!(decode_list(&buf[..buf.len() - 1], 2, codec).is_err(), "{codec:?}");
        }
    }

    #[test]
    fn alloc_guard_rejects_hostile_count() {
        let buf = [0u8; 8];
        let err = decode_list(&buf, usize::MAX / 2, Codec::VarByte).unwrap_err();
        assert!(matches!(err, CodecError::AllocGuard { .. }), "{err:?}");
        let err = decode_list(&buf, 1 << 30, Codec::Auto).unwrap_err();
        assert!(matches!(err, CodecError::AllocGuard { .. }), "{err:?}");
    }

    #[test]
    fn policy_classes() {
        assert_eq!(codec_for(1), Codec::VarByte);
        assert_eq!(codec_for(SHORT_LIST_MAX - 1), Codec::VarByte);
        assert_eq!(codec_for(SHORT_LIST_MAX), Codec::PFor);
        assert_eq!(codec_for(LONG_LIST_MIN - 1), Codec::PFor);
        assert_eq!(codec_for(LONG_LIST_MIN), Codec::Bp128);
        assert_eq!(Codec::Auto.resolve(10), Codec::VarByte);
        assert_eq!(Codec::Bp128.resolve(10), Codec::Bp128);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(raw in proptest::collection::vec((1u32..5000, 1u32..50), 0..200)) {
            // Build strictly increasing doc ids from gaps.
            let mut doc = 0u32;
            let mut list = Vec::new();
            for (gap, tf) in raw {
                doc += gap;
                list.push(Posting { doc: DocId(doc), tf });
            }
            for codec in ALL {
                let buf = encode_list(&list, codec).bytes;
                let back = decode_list(&buf, list.len(), codec);
                prop_assert_eq!(back.as_deref(), Ok(&list[..]));
            }
        }
    }
}
