//! Container file format for document collections.
//!
//! ClueWeb09 packs ~1 GB of web pages into each WARC file; the paper's read
//! scheduler hands whole files to parsers. We use an analogous self-contained
//! format: a magic header, a document count, then length-prefixed
//! (url, body) records, ending in a CRC32 checksum footer. Containers are
//! stored LZSS-compressed on disk.
//!
//! The footer (`IICC` tag + CRC32 of everything before it) detects silent
//! corruption — bit flips that survive decompression without tripping a
//! structural error. It is mandatory: a buffer that does not end in the tag
//! and the matching CRC32 does not parse, so neither a cut inside the
//! footer nor a damaged tag can switch the check off.

use crate::doc::{DocRef, RawDocument};

/// Four-byte magic at the start of every (uncompressed) container.
pub const MAGIC: &[u8; 4] = b"IIC1";

/// Four-byte tag introducing the CRC32 checksum footer.
pub const FOOTER_MAGIC: &[u8; 4] = b"IICC";

/// Errors from [`parse_container`].
#[derive(Debug, PartialEq, Eq)]
pub enum ContainerError {
    /// Missing or wrong magic bytes.
    BadMagic,
    /// Buffer ended before the advertised records were read.
    Truncated,
    /// A record's text was not valid UTF-8.
    BadUtf8,
    /// The footer CRC32 does not match the container contents.
    ChecksumMismatch,
}

impl std::fmt::Display for ContainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContainerError::BadMagic => write!(f, "bad container magic"),
            ContainerError::Truncated => write!(f, "container truncated"),
            ContainerError::BadUtf8 => write!(f, "container record not UTF-8"),
            ContainerError::ChecksumMismatch => write!(f, "container checksum mismatch"),
        }
    }
}

impl std::error::Error for ContainerError {}

/// Slice-by-8 lookup tables for [`crc32`]: `CRC_TABLES[0]` is the classic
/// byte-at-a-time table; `CRC_TABLES[k][b]` is the CRC state after byte `b`
/// followed by `k` zero bytes, so eight table reads fold eight input bytes
/// into the state at once.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][n] = c;
        n += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut n = 0;
        while n < 256 {
            let prev = tables[t - 1][n];
            tables[t][n] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            n += 1;
        }
        t += 1;
    }
    tables
}

/// One slice-by-8 step: fold the eight bytes of `w` into the register `c`.
#[inline(always)]
fn crc_step(c: u32, w: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// `a · b mod P` over GF(2), polynomials in the CRC's reflected form (bit
/// 31 is `x^0`).
const fn mul_mod(a: u32, mut b: u32) -> u32 {
    let mut product = 0u32;
    let mut bit = 1u32 << 31;
    while bit != 0 {
        if a & bit != 0 {
            product ^= b;
        }
        bit >>= 1;
        b = if b & 1 == 1 { (b >> 1) ^ 0xEDB8_8320 } else { b >> 1 };
    }
    product
}

/// `X_POW_2[k]` is `x^(2^k) mod P`.
const X_POW_2: [u32; 32] = {
    let mut table = [0u32; 32];
    table[0] = 1 << 30; // x^1
    let mut k = 1;
    while k < 32 {
        table[k] = mul_mod(table[k - 1], table[k - 1]);
        k += 1;
    }
    table
};

/// `x^(8n) mod P`: what appending `n` bytes multiplies a checksum by, so
/// that `crc32(a ‖ b) = mul_mod(x_pow_bytes(b.len()), crc32(a)) ^ crc32(b)`.
fn x_pow_bytes(mut n: usize) -> u32 {
    let mut power = 1u32 << 31; // x^0
    let mut k = 3; // 8n = n · 2^3
    while n != 0 {
        if n & 1 == 1 {
            power = mul_mod(X_POW_2[k % 32], power);
        }
        n >>= 1;
        k += 1;
    }
    power
}

/// Inputs at least this long are checksummed as three interleaved streams.
/// Below it the two multiplications that join the streams cost more than
/// the interleaving saves.
const CRC_INTERLEAVE_MIN: usize = 16 << 10;

/// CRC-32 (ISO-HDLC: the IEEE 802.3 / zlib polynomial, reflected, initial
/// value and final xor `0xFFFF_FFFF`) of `data`.
///
/// The one checksum of the code base: container footers here and, through
/// the `ii_store::crc32` re-export, every manifest record of an index
/// directory. Slice-by-8 — eight input bytes per step through
/// [`CRC_TABLES`] — and, on a long input, three such streams over its
/// thirds side by side (one stream is a chain of dependent table reads; the
/// three checksums are joined by [`x_pow_bytes`]), so a checksum pass costs
/// about what a memory-bound pass should; the values are those of the
/// bit-serial definition, which `tests/tests/crc32_diff.rs` keeps as the
/// oracle.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut rest = data;
    if data.len() >= CRC_INTERLEAVE_MIN {
        let third = data.len() / 3 / 8 * 8;
        let (first, tail) = data.split_at(third);
        let (second, tail) = tail.split_at(third);
        let (third_part, tail) = tail.split_at(third);
        let (mut c1, mut c2, mut c3) = (c, c, c);
        let streams = first.chunks_exact(8).zip(second.chunks_exact(8)).zip(third_part.chunks_exact(8));
        for ((w1, w2), w3) in streams {
            c1 = crc_step(c1, w1);
            c2 = crc_step(c2, w2);
            c3 = crc_step(c3, w3);
        }
        let shift = x_pow_bytes(third);
        let joined = mul_mod(shift, mul_mod(shift, !c1) ^ !c2) ^ !c3;
        c = !joined;
        rest = tail;
    }
    let mut chunks = rest.chunks_exact(8);
    for w in &mut chunks {
        c = crc_step(c, w);
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Serialize documents into an uncompressed container buffer.
pub fn write_container(docs: &[RawDocument]) -> Vec<u8> {
    let payload: usize = docs.iter().map(|d| 8 + d.url.len() + d.body.len()).sum();
    let mut out = Vec::with_capacity(8 + payload);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(docs.len() as u32).to_le_bytes());
    for d in docs {
        out.extend_from_slice(&(d.url.len() as u32).to_le_bytes());
        out.extend_from_slice(&(d.body.len() as u32).to_le_bytes());
        out.extend_from_slice(d.url.as_bytes());
        out.extend_from_slice(d.body.as_bytes());
    }
    let crc = crc32(&out);
    out.extend_from_slice(FOOTER_MAGIC);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Parse an uncompressed container buffer back into owned documents: an
/// owned copy of [`records`].
pub fn parse_container(buf: &[u8]) -> Result<Vec<RawDocument>, ContainerError> {
    Ok(records(buf)?.into_iter().map(DocRef::to_owned_doc).collect())
}

/// The documents of an uncompressed container buffer, borrowed from it.
///
/// The buffer must end in the checksum footer, and the CRC is verified
/// *before* the record walk, so silent corruption — of the records, the tag
/// or the stored CRC alike — surfaces as
/// [`ContainerError::ChecksumMismatch`]. A buffer too short to hold the
/// 8-byte header and the 8-byte footer is [`ContainerError::Truncated`]
/// ([`ContainerError::BadMagic`] if not even the header is a container's).
pub fn records(buf: &[u8]) -> Result<Vec<DocRef<'_>>, ContainerError> {
    if buf.len() < 16 {
        let header = buf.len() >= 8 && &buf[..4] == MAGIC;
        return Err(if header { ContainerError::Truncated } else { ContainerError::BadMagic });
    }
    let (body, footer) = buf.split_at(buf.len() - 8);
    let stored = u32::from_le_bytes([footer[4], footer[5], footer[6], footer[7]]);
    if &footer[..4] != FOOTER_MAGIC || crc32(body) != stored {
        return Err(ContainerError::ChecksumMismatch);
    }
    match records_prefix(body, usize::MAX)? {
        Prefix::Docs(docs) => Ok(docs),
        Prefix::NeedBytes(_) => Err(ContainerError::Truncated),
    }
}

/// What a container walk made of the bytes it was given.
#[derive(Debug, PartialEq, Eq)]
pub enum Prefix<D = RawDocument> {
    /// The requested records (fewer if the container holds fewer).
    Docs(Vec<D>),
    /// The records run past the buffer: at least this many bytes of the
    /// container are needed to get further.
    NeedBytes(usize),
}

/// [`records_prefix`] with the records copied out of the buffer.
pub fn parse_container_prefix(buf: &[u8], limit: usize) -> Result<Prefix, ContainerError> {
    Ok(match records_prefix(buf, limit)? {
        Prefix::Docs(docs) => Prefix::Docs(docs.into_iter().map(DocRef::to_owned_doc).collect()),
        Prefix::NeedBytes(n) => Prefix::NeedBytes(n),
    })
}

/// The container record walk: borrow the first `limit` records from the
/// first bytes of an uncompressed container (magic, count, records) — a
/// reader that wants a file's leading documents need not produce the rest
/// — or say how many bytes the walk needs to continue. Sees only what it
/// walks: the header and those records. The checksum footer covers the
/// whole container and is not checked here; [`records`] on the whole
/// buffer checks it.
pub fn records_prefix(buf: &[u8], limit: usize) -> Result<Prefix<DocRef<'_>>, ContainerError> {
    if buf.len() < 8 {
        return Ok(Prefix::NeedBytes(8));
    }
    if &buf[..4] != MAGIC {
        return Err(ContainerError::BadMagic);
    }
    let n = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]) as usize;
    // The count comes from the file: it sizes nothing beyond what the
    // buffer could hold (a record takes at least its 8-byte header).
    let mut docs = Vec::with_capacity(n.min(limit).min(buf.len() / 8));
    let mut i = 8usize;
    for _ in 0..n.min(limit) {
        if i + 8 > buf.len() {
            return Ok(Prefix::NeedBytes(i + 8));
        }
        let ulen = u32::from_le_bytes([buf[i], buf[i + 1], buf[i + 2], buf[i + 3]]) as usize;
        let blen =
            u32::from_le_bytes([buf[i + 4], buf[i + 5], buf[i + 6], buf[i + 7]]) as usize;
        i += 8;
        if i + ulen + blen > buf.len() {
            return Ok(Prefix::NeedBytes(i + ulen + blen));
        }
        let text = |at: usize, len: usize| {
            std::str::from_utf8(&buf[at..at + len]).map_err(|_| ContainerError::BadUtf8)
        };
        docs.push(DocRef { url: text(i, ulen)?, body: text(i + ulen, blen)? });
        i += ulen + blen;
    }
    Ok(Prefix::Docs(docs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn doc(url: &str, body: &str) -> RawDocument {
        RawDocument { url: url.into(), body: body.into() }
    }

    #[test]
    fn roundtrip_empty() {
        assert_eq!(parse_container(&write_container(&[])).unwrap(), vec![]);
    }

    #[test]
    fn roundtrip_docs() {
        let docs = vec![doc("http://a", "body one"), doc("http://b", ""), doc("", "x")];
        assert_eq!(parse_container(&write_container(&docs)).unwrap(), docs);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(parse_container(b"NOPE\0\0\0\0"), Err(ContainerError::BadMagic));
        assert_eq!(parse_container(b"II"), Err(ContainerError::BadMagic));
    }

    #[test]
    fn truncation_rejected() {
        let buf = write_container(&[doc("http://a", "hello world")]);
        // Every cut is refused — inside the footer too, where the records
        // are all there and only the checksum that vouches for them is not.
        for cut in 0..buf.len() {
            let want = match cut {
                0..8 => ContainerError::BadMagic,
                8..16 => ContainerError::Truncated,
                _ => ContainerError::ChecksumMismatch,
            };
            assert_eq!(parse_container(&buf[..cut]), Err(want), "cut at {cut}");
        }
    }

    #[test]
    fn one_flipped_byte_of_the_footer_tag_is_refused() {
        let buf = write_container(&[doc("http://a", "hello world")]);
        for at in buf.len() - 8..buf.len() - 4 {
            let mut bad = buf.clone();
            bad[at] ^= 0x01;
            assert_eq!(parse_container(&bad), Err(ContainerError::ChecksumMismatch), "byte {at}");
        }
    }

    #[test]
    fn prefix_walk_asks_for_bytes_until_it_has_its_records() {
        let docs = vec![doc("http://a", "body one"), doc("http://b", "second"), doc("c", "x")];
        let buf = write_container(&docs);
        for n_docs in 0..=4 {
            // Feed the walk exactly what it asks for, as the bounded
            // decompressor does, from nothing at all.
            let mut have = 0;
            let got = loop {
                match parse_container_prefix(&buf[..have], n_docs).unwrap() {
                    Prefix::Docs(got) => break got,
                    Prefix::NeedBytes(n) => {
                        assert!(n > have && n <= buf.len() - 8, "asks for more, inside the records");
                        have = n;
                    }
                }
            };
            assert_eq!(got, docs[..n_docs.min(3)]);
        }
        // What the walk sees is typed as the whole parse types it.
        assert_eq!(parse_container_prefix(b"NOPE\0\0\0\0", 1), Err(ContainerError::BadMagic));
        let mut bad = buf.clone();
        bad[16] = 0xFF; // first byte of the first url
        assert_eq!(parse_container_prefix(&bad, 1), Err(ContainerError::BadUtf8));
        // A hostile record count sizes nothing.
        let mut hostile = buf[..8].to_vec();
        hostile[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(parse_container_prefix(&hostile, usize::MAX), Ok(Prefix::NeedBytes(16)));
    }

    #[test]
    fn utf8_enforced() {
        // Re-stamp the CRC over the damaged records so the corruption
        // reaches the UTF-8 check instead of tripping the checksum first.
        let mut buf = write_container(&[doc("u", "abcd")]);
        let records_end = buf.len() - 8;
        buf[records_end - 4] = 0xFF; // first byte of the body
        let crc = crc32(&buf[..records_end]);
        buf[records_end + 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(parse_container(&buf), Err(ContainerError::BadUtf8));
    }

    #[test]
    fn checksum_detects_any_payload_corruption() {
        let buf = write_container(&[doc("http://a", "some body text")]);
        // Every byte before the footer tag is covered by the CRC.
        for i in 0..buf.len() - 8 {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            assert_eq!(
                parse_container(&bad),
                Err(ContainerError::ChecksumMismatch),
                "corruption at byte {i} undetected"
            );
        }
        // Corrupting the stored CRC itself is also a mismatch.
        let mut bad = buf.clone();
        let n = bad.len();
        bad[n - 1] ^= 0x01;
        assert_eq!(parse_container(&bad), Err(ContainerError::ChecksumMismatch));
    }

    #[test]
    fn crc32_known_vector() {
        // The IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(docs in proptest::collection::vec(
            ("[a-z:/._]{0,40}", "(?s).{0,200}").prop_map(|(u, b)| RawDocument { url: u, body: b }),
            0..20,
        )) {
            let buf = write_container(&docs);
            prop_assert_eq!(parse_container(&buf).unwrap(), docs);
        }
    }
}
