//! Bit-level I/O plus Elias γ and Golomb codes — the alternative gap
//! compressors the paper's background section names alongside variable-byte
//! encoding. Used by the codec-comparison ablation bench.

/// MSB-first bit writer.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    cur: u8,
    nbits: u8,
}

impl BitWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.cur = (self.cur << 1) | bit as u8;
        self.nbits += 1;
        if self.nbits == 8 {
            self.buf.push(self.cur);
            self.cur = 0;
            self.nbits = 0;
        }
    }

    /// Write the low `n` bits of `v`, most significant first.
    pub fn write_bits(&mut self, v: u64, n: u32) {
        for i in (0..n).rev() {
            self.write_bit((v >> i) & 1 == 1);
        }
    }

    /// Write `n` as unary: n zeros followed by a one.
    pub fn write_unary(&mut self, n: u64) {
        for _ in 0..n {
            self.write_bit(false);
        }
        self.write_bit(true);
    }

    /// Flush (zero-padding the last byte) and return the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.cur <<= 8 - self.nbits;
            self.buf.push(self.cur);
        }
        self.buf
    }
}

/// MSB-first bit reader.
#[derive(Debug)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Read from `buf` starting at the first bit.
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, pos: 0 }
    }

    /// Read one bit; `None` at end of input.
    pub fn read_bit(&mut self) -> Option<bool> {
        let byte = *self.buf.get(self.pos / 8)?;
        let bit = (byte >> (7 - (self.pos % 8))) & 1 == 1;
        self.pos += 1;
        Some(bit)
    }

    /// Read `n` bits into the low bits of a u64 (MSB first).
    pub fn read_bits(&mut self, n: u32) -> Option<u64> {
        let mut v = 0u64;
        for _ in 0..n {
            v = (v << 1) | self.read_bit()? as u64;
        }
        Some(v)
    }

    /// Read a unary count (zeros before the terminating one).
    pub fn read_unary(&mut self) -> Option<u64> {
        let mut n = 0u64;
        while !self.read_bit()? {
            n += 1;
        }
        Some(n)
    }
}

/// Elias γ encode `v` (v >= 1): unary length then binary remainder.
pub fn gamma_encode(v: u64, w: &mut BitWriter) {
    debug_assert!(v >= 1);
    let nbits = 63 - v.leading_zeros();
    w.write_unary(nbits as u64);
    w.write_bits(v & !(1 << nbits), nbits);
}

/// Decode one γ value.
pub fn gamma_decode(r: &mut BitReader<'_>) -> Option<u64> {
    let nbits = r.read_unary()? as u32;
    if nbits > 63 {
        return None;
    }
    let rest = r.read_bits(nbits)?;
    Some((1 << nbits) | rest)
}

/// Golomb encode `v` (v >= 1) with parameter `b` (b >= 1): quotient in
/// unary, remainder in truncated binary.
pub fn golomb_encode(v: u64, b: u64, w: &mut BitWriter) {
    debug_assert!(v >= 1 && b >= 1);
    let x = v - 1;
    let q = x / b;
    let r = x % b;
    w.write_unary(q);
    write_truncated_binary(r, b, w);
}

/// Number of bits in the long form of a truncated-binary code for [0, b).
fn tb_bits(b: u64) -> u32 {
    64 - (b - 1).leading_zeros()
}

fn write_truncated_binary(r: u64, b: u64, w: &mut BitWriter) {
    if b == 1 {
        return;
    }
    let k = tb_bits(b); // bits for full codes
    let cutoff = (1u64 << k) - b; // number of short (k-1 bit) codes
    if r < cutoff {
        w.write_bits(r, k - 1);
    } else {
        w.write_bits(r + cutoff, k);
    }
}

fn read_truncated_binary(b: u64, rd: &mut BitReader<'_>) -> Option<u64> {
    if b == 1 {
        return Some(0);
    }
    let k = tb_bits(b);
    // `b` comes off the wire: past 2^63 the long form is 64 bits wide and
    // `1 << k` no longer fits a u64.
    let cutoff = ((1u128 << k) - u128::from(b)) as u64;
    let short = rd.read_bits(k - 1)?;
    if short < cutoff {
        Some(short)
    } else {
        let bit = rd.read_bit()? as u64;
        ((short << 1) | bit).checked_sub(cutoff)
    }
}

/// Decode one Golomb value with parameter `b`. `None` on truncated input
/// or a value past `u64` (a hostile parameter or quotient).
pub fn golomb_decode(b: u64, rd: &mut BitReader<'_>) -> Option<u64> {
    let q = rd.read_unary()?;
    let r = read_truncated_binary(b, rd)?;
    q.checked_mul(b)?.checked_add(r)?.checked_add(1)
}

/// Number of bits needed to represent `v` (0 for `v == 0`).
#[inline]
pub fn bits_needed(v: u32) -> u32 {
    32 - v.leading_zeros()
}

/// Bytes occupied by `n` values packed at `width` bits each.
#[inline]
pub fn packed_len(n: usize, width: u32) -> usize {
    (n * width as usize).div_ceil(8)
}

/// Append `vals` packed at `width` bits each (LSB-first within bytes) to
/// `out`. Every value must fit in `width` bits; `width == 0` writes
/// nothing. This is the word-level fast path the block codecs build on —
/// one shift/or per value plus one push per output byte, no per-bit
/// branching.
pub fn pack_bits(vals: &[u32], width: u32, out: &mut Vec<u8>) {
    debug_assert!(width <= 32);
    if width == 0 {
        return;
    }
    out.reserve(packed_len(vals.len(), width));
    let mut acc: u64 = 0;
    let mut nbits: u32 = 0;
    for &v in vals {
        debug_assert!(width == 32 || u64::from(v) < (1u64 << width), "{v} overflows {width} bits");
        acc |= u64::from(v) << nbits;
        nbits += width;
        while nbits >= 8 {
            out.push((acc & 0xFF) as u8);
            acc >>= 8;
            nbits -= 8;
        }
    }
    if nbits > 0 {
        out.push((acc & 0xFF) as u8);
    }
}

/// Unpack `n` values of `width` bits each from `buf` (as written by
/// [`pack_bits`]) into `out`. Returns the number of bytes consumed, or
/// `None` when `buf` is too short or `width > 32`.
///
/// The hot path is one unaligned little-endian u64 load per value: value
/// `i` occupies stream bits `[i*width, (i+1)*width)`, and with `width <=
/// 32` plus at most 7 bits of in-byte offset, a full 8-byte load always
/// covers it (`32 + 7 < 64`). Only the last few values of a buffer-final
/// section (where an 8-byte load would run off the slice) fall back to the
/// byte-at-a-time accumulator.
pub fn unpack_bits(buf: &[u8], n: usize, width: u32, out: &mut Vec<u32>) -> Option<usize> {
    let start = out.len();
    out.resize(start + n, 0);
    let consumed = unpack_bits_into(buf, &mut out[start..], width);
    if consumed.is_none() {
        out.truncate(start);
    }
    consumed
}

/// [`unpack_bits`] into a preallocated slice (`out.len()` values). This is
/// the decode hot path: writing through `iter_mut` instead of `Vec::push`
/// keeps the loop free of capacity checks, and each value is one unaligned
/// little-endian u64 load + shift + mask — value `i` starts inside byte
/// `i*width/8`, and with `width <= 32` plus at most 7 bits of in-byte
/// offset, 8 bytes always cover it (`32 + 7 < 64`). Only trailing values
/// whose 8-byte window would run off `buf` fall back to a byte-at-a-time
/// accumulator.
pub fn unpack_bits_into(buf: &[u8], out: &mut [u32], width: u32) -> Option<usize> {
    let n = out.len();
    if width > 32 {
        return None;
    }
    if width == 0 {
        out.fill(0);
        return Some(0);
    }
    let need = packed_len(n, width);
    if buf.len() < need {
        return None;
    }
    let mask: u32 = if width == 32 { u32::MAX } else { (1u32 << width) - 1 };
    let w = width as usize;
    let n_fast =
        if buf.len() >= 8 { n.min(((buf.len() - 8) * 8 + 7) / w + 1) } else { 0 };
    let (fast, slow) = out.split_at_mut(n_fast);
    for (i, slot) in fast.iter_mut().enumerate() {
        let bit = i * w;
        let byte = bit >> 3;
        let word = u64::from_le_bytes(buf[byte..byte + 8].try_into().unwrap());
        *slot = ((word >> (bit & 7)) as u32) & mask;
    }
    if !slow.is_empty() {
        // Byte-accumulator tail, resumed mid-byte where the fast path
        // stopped. Only reads bytes below `need`, which are in bounds.
        let bit = n_fast * w;
        let mut pos = bit >> 3;
        let shift = (bit & 7) as u32;
        let mut acc: u64 = 0;
        let mut nbits: u32 = 0;
        if shift > 0 {
            acc = u64::from(buf[pos]) >> shift;
            nbits = 8 - shift;
            pos += 1;
        }
        for slot in slow.iter_mut() {
            while nbits < width {
                acc |= u64::from(buf[pos]) << nbits;
                pos += 1;
                nbits += 8;
            }
            *slot = (acc as u32) & mask;
            acc >>= width;
            nbits -= width;
        }
    }
    Some(need)
}

/// The Golomb parameter Witten/Moffat/Bell recommend for document gaps:
/// b ≈ 0.69 · (N / df).
pub fn golomb_parameter(total_docs: u64, doc_freq: u64) -> u64 {
    if doc_freq == 0 {
        return 1;
    }
    ((0.69 * total_docs as f64 / doc_freq as f64).ceil() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn golomb_decode_survives_hostile_parameters() {
        // The parameter of a Golomb row comes off the wire. Past 2^63 the
        // truncated-binary long form is 64 bits wide, and a large quotient
        // times a large parameter leaves u64: both must end in `None` or a
        // value, never an arithmetic panic.
        let ones = [0xFFu8; 32];
        let zeros_then_one = [0u8, 0, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF];
        for b in [u64::MAX, (1 << 63) + 1, 1 << 63, (1 << 63) - 1, 1 << 40] {
            for buf in [&ones[..], &zeros_then_one[..], &[][..]] {
                let _ = golomb_decode(b, &mut BitReader::new(buf));
            }
        }
        assert_eq!(golomb_decode(u64::MAX, &mut BitReader::new(&zeros_then_one)), None);
    }

    #[test]
    fn bit_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        w.write_unary(3);
        w.write_bit(true);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(4), Some(0b1011));
        assert_eq!(r.read_unary(), Some(3));
        assert_eq!(r.read_bit(), Some(true));
    }

    #[test]
    fn gamma_known_codes() {
        // γ(1) = "1", γ(2) = "010", γ(3) = "011", γ(4) = "00100".
        let mut w = BitWriter::new();
        for v in [1u64, 2, 3, 4] {
            gamma_encode(v, &mut w);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for v in [1u64, 2, 3, 4] {
            assert_eq!(gamma_decode(&mut r), Some(v));
        }
    }

    #[test]
    fn golomb_small_values() {
        for b in [1u64, 2, 3, 4, 7, 10] {
            let mut w = BitWriter::new();
            for v in 1..=50u64 {
                golomb_encode(v, b, &mut w);
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for v in 1..=50u64 {
                assert_eq!(golomb_decode(b, &mut r), Some(v), "b={b} v={v}");
            }
        }
    }

    #[test]
    fn golomb_parameter_sane() {
        assert_eq!(golomb_parameter(1000, 0), 1);
        assert!(golomb_parameter(1_000_000, 10) > 1000);
        assert_eq!(golomb_parameter(10, 10), 1);
    }

    #[test]
    fn truncated_input_returns_none() {
        let mut r = BitReader::new(&[]);
        assert_eq!(gamma_decode(&mut r), None);
        let mut r = BitReader::new(&[0x00]); // 8 zeros: unary never terminates
        assert_eq!(r.read_unary(), None);
    }

    proptest! {
        #[test]
        fn prop_gamma_roundtrip(vals in proptest::collection::vec(1u64..1_000_000, 0..100)) {
            let mut w = BitWriter::new();
            for &v in &vals { gamma_encode(v, &mut w); }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for &v in &vals {
                prop_assert_eq!(gamma_decode(&mut r), Some(v));
            }
        }

        #[test]
        fn prop_golomb_roundtrip(
            vals in proptest::collection::vec(1u64..100_000, 0..100),
            b in 1u64..500,
        ) {
            let mut w = BitWriter::new();
            for &v in &vals { golomb_encode(v, b, &mut w); }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for &v in &vals {
                prop_assert_eq!(golomb_decode(b, &mut r), Some(v));
            }
        }
    }
}
