//! Elias γ and Golomb codes — the bit-level gap compressors the paper's
//! background section names alongside variable-byte encoding — and the
//! block layout `ablate_codecs` measures them in. Ablation-only: the index
//! writes none of them.
//!
//! A list in either code is laid out as the index lays out a list: one
//! 12-byte skip entry (first document, body offset, largest tf) per
//! 128-posting block, then the block bodies. A body is the block's biased
//! gaps (`gap - 1`, the first document living in the skip entry) then its
//! biased tfs (`tf - 1`), each stored plus one in the code — the tfs always
//! in γ — and zero-padded to a byte.

use ii_core::corpus::DocId;
use ii_core::postings::block::{n_blocks, BLOCK_LEN, SKIP_ENTRY_BYTES};
use ii_core::postings::Posting;

/// MSB-first bit writer.
#[derive(Debug, Default)]
struct BitWriter {
    buf: Vec<u8>,
    cur: u8,
    nbits: u8,
}

impl BitWriter {
    /// New empty writer.
    fn new() -> Self {
        Self::default()
    }

    /// Write a single bit.
    fn write_bit(&mut self, bit: bool) {
        self.cur = (self.cur << 1) | bit as u8;
        self.nbits += 1;
        if self.nbits == 8 {
            self.buf.push(self.cur);
            self.cur = 0;
            self.nbits = 0;
        }
    }

    /// Write the low `n` bits of `v`, most significant first.
    fn write_bits(&mut self, v: u64, n: u32) {
        for i in (0..n).rev() {
            self.write_bit((v >> i) & 1 == 1);
        }
    }

    /// Write `n` as unary: n zeros followed by a one.
    fn write_unary(&mut self, n: u64) {
        for _ in 0..n {
            self.write_bit(false);
        }
        self.write_bit(true);
    }

    /// Flush (zero-padding the last byte) and return the bytes.
    fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.cur <<= 8 - self.nbits;
            self.buf.push(self.cur);
        }
        self.buf
    }
}

/// MSB-first bit reader.
#[derive(Debug)]
struct BitReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Read from `buf` starting at the first bit.
    fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, pos: 0 }
    }

    /// Read one bit; `None` at end of input.
    fn read_bit(&mut self) -> Option<bool> {
        let byte = *self.buf.get(self.pos / 8)?;
        let bit = (byte >> (7 - (self.pos % 8))) & 1 == 1;
        self.pos += 1;
        Some(bit)
    }

    /// Read `n` bits into the low bits of a u64 (MSB first).
    fn read_bits(&mut self, n: u32) -> Option<u64> {
        let mut v = 0u64;
        for _ in 0..n {
            v = (v << 1) | self.read_bit()? as u64;
        }
        Some(v)
    }

    /// Read a unary count (zeros before the terminating one).
    fn read_unary(&mut self) -> Option<u64> {
        let mut n = 0u64;
        while !self.read_bit()? {
            n += 1;
        }
        Some(n)
    }
}

/// Elias γ encode `v` (v >= 1): unary length then binary remainder.
fn gamma_encode(v: u64, w: &mut BitWriter) {
    debug_assert!(v >= 1);
    let nbits = 63 - v.leading_zeros();
    w.write_unary(nbits as u64);
    w.write_bits(v & !(1 << nbits), nbits);
}

/// Decode one γ value.
fn gamma_decode(r: &mut BitReader<'_>) -> Option<u64> {
    let nbits = r.read_unary()? as u32;
    if nbits > 63 {
        return None;
    }
    let rest = r.read_bits(nbits)?;
    Some((1 << nbits) | rest)
}

/// Golomb encode `v` (v >= 1) with parameter `b` (b >= 1): quotient in
/// unary, remainder in truncated binary.
fn golomb_encode(v: u64, b: u64, w: &mut BitWriter) {
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
    // Past 2^63 the long form is 64 bits wide and `1 << k` no longer fits
    // a u64.
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
/// or a value past `u64`.
fn golomb_decode(b: u64, rd: &mut BitReader<'_>) -> Option<u64> {
    let q = rd.read_unary()?;
    let r = read_truncated_binary(b, rd)?;
    q.checked_mul(b)?.checked_add(r)?.checked_add(1)
}

/// The Golomb parameter Witten/Moffat/Bell recommend for document gaps:
/// b ≈ 0.69 · (N / df).
pub fn golomb_parameter(total_docs: u64, doc_freq: u64) -> u64 {
    if doc_freq == 0 {
        return 1;
    }
    ((0.69 * total_docs as f64 / doc_freq as f64).ceil() as u64).max(1)
}

/// Which bit-level code a list's gaps are stored in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BitCode {
    /// Elias γ.
    Gamma,
    /// Golomb with the given parameter (see [`golomb_parameter`]).
    Golomb(u64),
}

impl BitCode {
    fn put(self, v: u64, w: &mut BitWriter) {
        match self {
            BitCode::Gamma => gamma_encode(v, w),
            BitCode::Golomb(b) => golomb_encode(v, b, w),
        }
    }

    fn get(self, r: &mut BitReader<'_>) -> Option<u64> {
        match self {
            BitCode::Gamma => gamma_decode(r),
            BitCode::Golomb(b) => golomb_decode(b, r),
        }
    }
}

/// `ps` (doc-sorted, tf >= 1) in `code`, in the block layout of the module
/// documentation.
pub fn encode_list(ps: &[Posting], code: BitCode) -> Vec<u8> {
    let mut skip = Vec::with_capacity(n_blocks(ps.len()) * SKIP_ENTRY_BYTES);
    let mut data = Vec::new();
    for block in ps.chunks(BLOCK_LEN) {
        let max_tf = block.iter().map(|p| p.tf).max().expect("a block holds a posting");
        skip.extend_from_slice(&block[0].doc.0.to_le_bytes());
        skip.extend_from_slice(&(data.len() as u32).to_le_bytes());
        skip.extend_from_slice(&max_tf.to_le_bytes());
        let mut w = BitWriter::new();
        for pair in block.windows(2) {
            code.put(u64::from(pair[1].doc.0 - pair[0].doc.0), &mut w);
        }
        for p in block {
            gamma_encode(u64::from(p.tf), &mut w);
        }
        data.extend_from_slice(&w.finish());
    }
    skip.extend_from_slice(&data);
    skip
}

/// The `n` postings [`encode_list`] wrote into `buf` in `code`; `None` when
/// the bytes do not hold them.
pub fn decode_list(buf: &[u8], n: usize, code: BitCode) -> Option<Vec<Posting>> {
    let blocks = n_blocks(n);
    let (skip, data) = buf.split_at_checked(blocks * SKIP_ENTRY_BYTES)?;
    let word = |b: usize, at: usize| {
        let at = b * SKIP_ENTRY_BYTES + at;
        u32::from_le_bytes(skip[at..at + 4].try_into().expect("a skip word"))
    };
    let mut out = Vec::with_capacity(n);
    for b in 0..blocks {
        let end = if b + 1 < blocks { word(b + 1, 4) as usize } else { data.len() };
        let mut r = BitReader::new(data.get(word(b, 4) as usize..end)?);
        let m = (n - b * BLOCK_LEN).min(BLOCK_LEN);
        let mut docs = [0u32; BLOCK_LEN];
        docs[0] = word(b, 0);
        for i in 1..m {
            docs[i] = docs[i - 1].checked_add(u32::try_from(code.get(&mut r)?).ok()?)?;
        }
        for &doc in &docs[..m] {
            let tf = u32::try_from(gamma_decode(&mut r)?).ok()?;
            out.push(Posting { doc: DocId(doc), tf });
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn golomb_decode_survives_hostile_parameters() {
        // Past 2^63 the truncated-binary long form is 64 bits wide, and a
        // large quotient times a large parameter leaves u64: both must end
        // in `None` or a value, never an arithmetic panic.
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

    #[test]
    fn lists_roundtrip_across_block_boundaries() {
        let codes =
            [BitCode::Gamma, BitCode::Golomb(1), BitCode::Golomb(8), BitCode::Golomb(1 << 28)];
        for n in [1usize, 2, 127, 128, 129, 300] {
            let list: Vec<Posting> =
                (0..n as u32).map(|i| Posting { doc: DocId(7 + i * 3), tf: 1 + i % 5 }).collect();
            for code in codes {
                let bytes = encode_list(&list, code);
                assert_eq!(decode_list(&bytes, n, code), Some(list.clone()), "{code:?} n={n}");
                assert_eq!(decode_list(&bytes[..bytes.len() - 1], n, code), None, "{code:?} cut");
            }
        }
        let far =
            [Posting { doc: DocId(0), tf: 1 }, Posting { doc: DocId(u32::MAX), tf: u32::MAX }];
        let bytes = encode_list(&far, BitCode::Gamma);
        assert_eq!(decode_list(&bytes, 2, BitCode::Gamma).as_deref(), Some(&far[..]));
    }

    #[test]
    fn unit_gaps_cost_a_bit_each() {
        // 1 000 postings, every doc, tf 1: eight skip entries and two bits a
        // posting (gap and tf), padded per block.
        let list: Vec<Posting> = (0..1000).map(|d| Posting { doc: DocId(d), tf: 1 }).collect();
        let bytes = encode_list(&list, BitCode::Gamma);
        assert_eq!(bytes.len(), 8 * SKIP_ENTRY_BYTES + 7 * 32 + (103 + 104usize).div_ceil(8));
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
