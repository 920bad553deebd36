//! The frozen LZSS decoder: `ii_corpus::compress::Decompressor` as it was
//! before literal groups and non-overlapping matches became block copies —
//! one output byte per step. The product decoder must give the identical
//! bytes, or the identical [`DecompressError`], at every `fill_to` bound;
//! `tests/lzss_diff.rs` fuzzes that.

use ii_core::corpus::compress::DecompressError;

const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = MIN_MATCH + 15;

/// The byte-at-a-time decoder, with the product's resumable API.
pub struct ReferenceDecompressor<'a> {
    input: &'a [u8],
    i: usize,
    flags: u8,
    bits_left: u8,
    expect: usize,
    out: Vec<u8>,
}

impl<'a> ReferenceDecompressor<'a> {
    /// Read the header of a compressed buffer.
    pub fn new(input: &'a [u8]) -> Result<Self, DecompressError> {
        if input.len() < 4 {
            return Err(DecompressError::Truncated);
        }
        let expect = u32::from_le_bytes([input[0], input[1], input[2], input[3]]) as usize;
        if expect > input.len().saturating_mul(MAX_MATCH) {
            return Err(DecompressError::LengthMismatch);
        }
        Ok(ReferenceDecompressor { input, i: 4, flags: 0, bits_left: 0, expect, out: Vec::new() })
    }

    /// True once the whole stream is decoded.
    pub fn is_complete(&self) -> bool {
        self.out.len() == self.expect
    }

    /// Everything decoded so far.
    pub fn decoded(&self) -> &[u8] {
        &self.out
    }

    /// Decode until at least `n` output bytes exist, or the whole stream if
    /// it is shorter.
    pub fn fill_to(&mut self, n: usize) -> Result<(), DecompressError> {
        let input = self.input;
        let target = n.min(self.expect);
        let out = &mut self.out;
        let (mut i, mut flags, mut bits_left) = (self.i, self.flags, self.bits_left);
        while out.len() < target {
            if bits_left == 0 {
                if i >= input.len() {
                    return Err(DecompressError::Truncated);
                }
                flags = input[i];
                i += 1;
                bits_left = 8;
            }
            let is_match = flags & 1 == 1;
            flags >>= 1;
            bits_left -= 1;
            if is_match {
                if i + 2 > input.len() {
                    return Err(DecompressError::Truncated);
                }
                let token = u16::from_le_bytes([input[i], input[i + 1]]);
                i += 2;
                let dist = (token >> 4) as usize + 1;
                let len = (token & 0xF) as usize + MIN_MATCH;
                if dist > out.len() {
                    return Err(DecompressError::BadDistance);
                }
                let start = out.len() - dist;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            } else {
                if i >= input.len() {
                    return Err(DecompressError::Truncated);
                }
                out.push(input[i]);
                i += 1;
            }
        }
        (self.i, self.flags, self.bits_left) = (i, flags, bits_left);
        if out.len() > self.expect {
            return Err(DecompressError::LengthMismatch);
        }
        Ok(())
    }
}

/// Decompress a whole buffer the frozen way.
pub fn decompress_reference(input: &[u8]) -> Result<Vec<u8>, DecompressError> {
    let mut d = ReferenceDecompressor::new(input)?;
    d.fill_to(usize::MAX)?;
    Ok(d.out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ii_core::corpus::compress::{compress, decompress};

    #[test]
    fn reference_decoder_agrees() {
        let text = b"the quick brown fox jumps over the lazy dog, the quick fox ".repeat(40);
        for data in [&b""[..], b"a", b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", &text] {
            let c = compress(data);
            assert_eq!(decompress_reference(&c), decompress(&c));
            assert_eq!(decompress_reference(&c[..c.len() / 2]), decompress(&c[..c.len() / 2]));
        }
    }
}
