//! LZSS block compression.
//!
//! The paper's ingest path reads *compressed* collection files from disk and
//! decompresses them in memory before parsing (§IV.A: 1.6 s to read a 160 MB
//! compressed file, 3.2 s to decompress it to ~1 GB). ClueWeb09 ships as
//! gzip'd WARC files; we substitute a self-contained LZSS codec so the same
//! read-then-decompress pipeline stage exists and has a real, measurable
//! cost, without pulling in a compression dependency.
//!
//! Format: `u32` little-endian uncompressed length, then a token stream of
//! flag bytes (LSB first). Flag bit 0 = literal byte, 1 = match encoded in
//! two bytes: 12-bit backward distance (1-based) and 4-bit length-3
//! (matches of 3..=18 bytes within a 4 KiB window).

const WINDOW: usize = 1 << 12;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = MIN_MATCH + 15;
/// Hash-chain search depth; bounds worst-case compression time.
const MAX_CHAIN: usize = 64;

/// Errors returned by [`decompress`].
#[derive(Debug, PartialEq, Eq)]
pub enum DecompressError {
    /// Input shorter than its header or truncated mid-token.
    Truncated,
    /// A match referenced bytes before the start of the output.
    BadDistance,
    /// Output length disagrees with the header.
    LengthMismatch,
}

impl std::fmt::Display for DecompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecompressError::Truncated => write!(f, "compressed stream truncated"),
            DecompressError::BadDistance => write!(f, "match distance out of range"),
            DecompressError::LengthMismatch => write!(f, "decompressed length mismatch"),
        }
    }
}

impl std::error::Error for DecompressError {}

fn hash3(data: &[u8], i: usize) -> usize {
    let h = (data[i] as u32)
        .wrapping_mul(506_832_829)
        .wrapping_add((data[i + 1] as u32).wrapping_mul(2_654_435_761))
        .wrapping_add((data[i + 2] as u32).wrapping_mul(40_503));
    (h >> 17) as usize & (HASH_SIZE - 1)
}

const HASH_SIZE: usize = 1 << 14;

/// Compress `input` into a fresh buffer.
#[allow(clippy::needless_range_loop)] // j indexes two parallel chain arrays
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    out.extend_from_slice(&(input.len() as u32).to_le_bytes());
    if input.is_empty() {
        return out;
    }
    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut prev = vec![usize::MAX; input.len()];

    let mut i = 0usize;
    // Token accumulation: one flag byte governs the next 8 tokens.
    let mut flag_pos = out.len();
    out.push(0);
    let mut flag_bit = 0u8;

    let emit_flag = |out: &mut Vec<u8>, flag_pos: &mut usize, flag_bit: &mut u8, set: bool| {
        if *flag_bit == 8 {
            *flag_pos = out.len();
            out.push(0);
            *flag_bit = 0;
        }
        if set {
            out[*flag_pos] |= 1 << *flag_bit;
        }
        *flag_bit += 1;
    };

    while i < input.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= input.len() {
            let h = hash3(input, i);
            let mut cand = head[h];
            let mut chain = 0;
            let window_start = i.saturating_sub(WINDOW);
            while cand != usize::MAX && cand >= window_start && chain < MAX_CHAIN {
                // Compare forward from cand.
                let max_len = MAX_MATCH.min(input.len() - i);
                let mut l = 0usize;
                while l < max_len && input[cand + l] == input[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = i - cand;
                    if l == max_len {
                        break;
                    }
                }
                cand = prev[cand];
                chain += 1;
            }
        }
        if best_len >= MIN_MATCH {
            emit_flag(&mut out, &mut flag_pos, &mut flag_bit, true);
            debug_assert!((1..=WINDOW).contains(&best_dist));
            let dist = (best_dist - 1) as u16; // 12 bits
            let len = (best_len - MIN_MATCH) as u16; // 4 bits
            let token = (dist << 4) | len;
            out.extend_from_slice(&token.to_le_bytes());
            // Insert all covered positions into the hash chains.
            let end = (i + best_len).min(input.len().saturating_sub(MIN_MATCH - 1));
            for j in i..end {
                let h = hash3(input, j);
                prev[j] = head[h];
                head[h] = j;
            }
            i += best_len;
        } else {
            emit_flag(&mut out, &mut flag_pos, &mut flag_bit, false);
            out.push(input[i]);
            if i + MIN_MATCH <= input.len() {
                let h = hash3(input, i);
                prev[i] = head[h];
                head[h] = i;
            }
            i += 1;
        }
    }
    out
}

/// Decompress a buffer produced by [`compress`].
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, DecompressError> {
    let mut d = Decompressor::new(input)?;
    d.out.reserve_exact(d.expect);
    d.fill_to(usize::MAX)?;
    Ok(d.out)
}

/// A [`decompress`] that can stop early: [`Self::fill_to`] decodes only as
/// far as the caller needs, for readers of a file's first records.
pub struct Decompressor<'a> {
    input: &'a [u8],
    /// Next input byte.
    i: usize,
    flags: u8,
    bits_left: u8,
    /// Uncompressed length the header declares.
    expect: usize,
    out: Vec<u8>,
}

impl<'a> Decompressor<'a> {
    /// Read the header of a buffer produced by [`compress`].
    pub fn new(input: &'a [u8]) -> Result<Self, DecompressError> {
        if input.len() < 4 {
            return Err(DecompressError::Truncated);
        }
        let expect = u32::from_le_bytes([input[0], input[1], input[2], input[3]]) as usize;
        // A valid stream expands at most MAX_MATCH bytes per token pair, so a
        // header claiming more than input.len() * MAX_MATCH is corrupt. Reject
        // it before any allocation sized by it: a bit-flipped length header
        // must surface as a typed error, not a multi-gigabyte allocation.
        if expect > input.len().saturating_mul(MAX_MATCH) {
            return Err(DecompressError::LengthMismatch);
        }
        Ok(Decompressor { input, i: 4, flags: 0, bits_left: 0, expect, out: Vec::new() })
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
                // Eight literals under one flag byte, all of them wanted
                // and present: one copy.
                if flags == 0 && out.len() + 8 <= target && i + 8 <= input.len() {
                    out.extend_from_slice(&input[i..i + 8]);
                    i += 8;
                    bits_left = 0;
                    continue;
                }
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
                if dist >= len {
                    out.extend_from_within(start..start + len);
                } else {
                    // Overlapping (RLE-style): each byte may be one this
                    // match just wrote.
                    for k in 0..len {
                        let b = out[start + k];
                        out.push(b);
                    }
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
        // The last match of a stream may run past the declared length.
        if out.len() > self.expect {
            return Err(DecompressError::LengthMismatch);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn roundtrip_empty() {
        assert_eq!(decompress(&compress(&[])).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn roundtrip_short() {
        for s in [&b"a"[..], b"ab", b"abc", b"hello world"] {
            assert_eq!(decompress(&compress(s)).unwrap(), s);
        }
    }

    #[test]
    fn roundtrip_repetitive_compresses() {
        let data = b"the quick brown fox ".repeat(500);
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
        assert!(
            c.len() < data.len() / 3,
            "repetitive text should compress well: {} vs {}",
            c.len(),
            data.len()
        );
    }

    #[test]
    fn roundtrip_overlapping_match() {
        // "aaaa..." exercises overlapping copies.
        let data = vec![b'a'; 10_000];
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
        assert!(c.len() < 2000);
    }

    #[test]
    fn roundtrip_random_bytes() {
        let mut rng = StdRng::seed_from_u64(1);
        let data: Vec<u8> = (0..64 * 1024).map(|_| rng.gen()).collect();
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn truncated_stream_is_error() {
        let data = b"some compressible data some compressible data".to_vec();
        let c = compress(&data);
        for cut in [0, 1, 3, c.len() / 2, c.len() - 1] {
            let r = decompress(&c[..cut]);
            assert!(r.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn absurd_length_header_rejected() {
        // A bit-flipped header claiming ~4 GB of output must fail fast with
        // a typed error instead of attempting the allocation.
        let buf = [0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x00];
        assert_eq!(decompress(&buf), Err(DecompressError::LengthMismatch));
    }

    #[test]
    fn bounded_decode_stops_early_and_resumes() {
        let data = b"the quick brown fox jumps over the lazy dog ".repeat(200);
        let c = compress(&data);
        let mut d = Decompressor::new(&c).unwrap();
        for n in [0, 1, 100, 101, 4096, data.len() - 1, usize::MAX] {
            d.fill_to(n).unwrap();
            let got = d.decoded();
            // At least what was asked for, and within one match of it.
            let asked = n.min(data.len());
            assert!((asked..asked + MAX_MATCH).contains(&got.len()), "{n}: {}", got.len());
            assert_eq!(got, &data[..got.len()]);
            assert_eq!(d.is_complete(), got.len() == data.len());
        }
        assert!(d.is_complete());
        // A stream cut short decodes up to the cut, then says so.
        let mut d = Decompressor::new(&c[..c.len() / 2]).unwrap();
        d.fill_to(64).unwrap();
        assert_eq!(d.decoded(), &data[..d.decoded().len()]);
        assert_eq!(d.fill_to(usize::MAX), Err(DecompressError::Truncated));
    }

    #[test]
    fn bad_distance_detected() {
        // Header says 4 bytes, first token claims a match at distance > 0 output.
        let mut buf = vec![4, 0, 0, 0];
        buf.push(0b0000_0001); // first token is a match
        buf.extend_from_slice(&0u16.to_le_bytes()); // dist=1 with empty output
        assert_eq!(decompress(&buf), Err(DecompressError::BadDistance));
    }

    proptest! {
        #[test]
        fn prop_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            let c = compress(&data);
            prop_assert_eq!(decompress(&c).unwrap(), data);
        }

        #[test]
        fn prop_roundtrip_texty(words in proptest::collection::vec("[a-e ]{1,12}", 0..200)) {
            let data = words.concat().into_bytes();
            let c = compress(&data);
            prop_assert_eq!(decompress(&c).unwrap(), data);
        }
    }
}
