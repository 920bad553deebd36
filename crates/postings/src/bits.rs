//! Word-level bit packing: the shared core of the BP128 and PForDelta
//! block codecs and of the dictionary's packed columns (`ii-dict`).

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
/// one shift/or per value plus one store per output byte, no per-bit
/// branching.
pub fn pack_bits(vals: &[u32], width: u32, out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + packed_len(vals.len(), width), 0);
    let mut packer = BitPacker::new(&mut out[start..], width);
    vals.iter().for_each(|&v| packer.put(v));
    packer.finish();
}

/// Packs values one at a time at a fixed `width` into a byte slice of at
/// least [`packed_len`] bytes for the values put, LSB-first within bytes:
/// the bytes [`pack_bits`] writes, for a writer that reaches its values
/// one by one rather than as a slice.
pub struct BitPacker<'a> {
    out: &'a mut [u8],
    pos: usize,
    acc: u64,
    nbits: u32,
    width: u32,
}

impl<'a> BitPacker<'a> {
    /// A packer writing from the start of `out`.
    pub fn new(out: &'a mut [u8], width: u32) -> Self {
        debug_assert!(width <= 32);
        BitPacker { out, pos: 0, acc: 0, nbits: 0, width }
    }

    /// Append `v`, which must fit in the packer's width.
    #[inline]
    pub fn put(&mut self, v: u32) {
        let width = self.width;
        debug_assert!(width == 32 || u64::from(v) < (1u64 << width), "{v} overflows {width} bits");
        // Fewer than 32 bits wait in `acc`, so it never holds more than 63;
        // they leave 32 at a time, as bytes every value has filled.
        self.acc |= u64::from(v) << self.nbits;
        self.nbits += width;
        if self.nbits >= 32 {
            self.out[self.pos..self.pos + 4].copy_from_slice(&(self.acc as u32).to_le_bytes());
            self.pos += 4;
            self.acc >>= 32;
            self.nbits -= 32;
        }
    }

    /// Write the last partial bytes; returns the bytes written.
    pub fn finish(mut self) -> usize {
        while self.nbits > 0 {
            self.out[self.pos] = self.acc as u8;
            self.pos += 1;
            self.acc >>= 8;
            self.nbits = self.nbits.saturating_sub(8);
        }
        self.pos
    }
}

/// Unpack `out.len()` values of `width` bits each from `buf` (as written
/// by [`pack_bits`]). Returns the number of bytes consumed, or `None` when
/// `buf` is too short or `width > 32`.
///
/// This is the decode hot path: writing through `iter_mut` instead of
/// `Vec::push` keeps the loop free of capacity checks, and each value is
/// one unaligned little-endian u64 load + shift + mask — value `i` starts inside byte
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
