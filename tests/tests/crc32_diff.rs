//! Differential check of the product's one `crc32` (slice-by-8, three
//! streams side by side on long inputs; defined in
//! `ii_corpus::container`, re-exported by `ii_store`) against the
//! bit-serial definition of CRC-32/ISO-HDLC.
//!
//! The bit-serial loop below is the routine the store shipped before the
//! table-driven one replaced it, frozen here as the oracle. Every manifest
//! and every container footer ever written carries its values, so the two
//! must agree on every input — and the committed fixtures (the collection
//! of `fixtures/written_by_bd938b8`, footers stamped by the last commit
//! that used the old routine, and the index of `fixtures/golden`) must
//! verify under both.

use ii_core::corpus::container::{crc32, parse_container, FOOTER_MAGIC};
use ii_core::corpus::{compress, StoredCollection};
use ii_core::store::Store;
use ii_core::Index;
use proptest::prelude::*;
use std::path::PathBuf;

/// One byte through the bit-serial CRC register (reflected polynomial
/// `0xEDB88320`).
fn reference_step(mut crc: u32, byte: u8) -> u32 {
    crc ^= u32::from(byte);
    for _ in 0..8 {
        let mask = (crc & 1).wrapping_neg();
        crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
    }
    crc
}

/// The frozen bit-at-a-time CRC-32.
fn reference_crc32(data: &[u8]) -> u32 {
    !data.iter().fold(0xFFFF_FFFF, |crc, &b| reference_step(crc, b))
}

#[test]
fn check_vectors() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
    assert_eq!(reference_crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(reference_crc32(b""), 0);
    // The store's name for it is the same function.
    assert_eq!(ii_core::store::crc32(b"123456789"), 0xCBF4_3926);
}

/// Every length 0..=4096 at every start offset 0..8 of one buffer: all
/// alignments of the 8-byte body against the slice start, and every size of
/// head-less body plus 0..7-byte tail. The reference register is carried
/// along the prefix, so the oracle side is linear.
#[test]
fn every_length_at_every_offset_matches_the_bit_serial_loop() {
    const MAX: usize = 4096;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let buf: Vec<u8> = (0..MAX + 8)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 56) as u8
        })
        .collect();
    for offset in 0..8 {
        let mut register = 0xFFFF_FFFFu32;
        for len in 0..=MAX {
            assert_eq!(
                crc32(&buf[offset..offset + len]),
                !register,
                "offset {offset}, length {len}"
            );
            register = reference_step(register, buf[offset + len]);
        }
    }
}

/// Past `CRC_INTERLEAVE_MIN` (16 KiB) the routine runs three streams over
/// the input's thirds and joins them: every length around the switch, and
/// longer ones whose thirds and tails take every size modulo 24.
#[test]
fn long_inputs_match_the_bit_serial_loop() {
    const MAX: usize = 70_000;
    let mut state = 0xD1B5_4A32_D192_ED03u64;
    let buf: Vec<u8> = (0..MAX)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 56) as u8
        })
        .collect();
    let checked: Vec<usize> = (16_300..16_500).chain(40_000..40_050).chain(MAX - 50..=MAX).collect();
    let mut register = 0xFFFF_FFFFu32;
    let mut len = 0;
    for want in checked {
        register = buf[len..want].iter().fold(register, |crc, &b| reference_step(crc, b));
        len = want;
        assert_eq!(crc32(&buf[..len]), !register, "length {len}");
    }
    // All zeros and all ones: the joins multiply by what they should even
    // when a stream's checksum is the register's fixed pattern.
    for fill in [0u8, 0xFF] {
        let flat = vec![fill; 50_001];
        assert_eq!(crc32(&flat), reference_crc32(&flat), "fill {fill:#x}");
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_match_the_bit_serial_loop(
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        offset in 0usize..8,
    ) {
        let data = &data[offset.min(data.len())..];
        prop_assert_eq!(crc32(data), reference_crc32(data));
    }
}

fn fixture(part: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures")).join(part)
}

/// A committed manifest verifies, opens and answers, and the values it
/// records are the bit-serial loop's as much as the table-driven routine's.
#[test]
fn manifest_written_by_the_parent_commit_still_verifies() {
    let dir = fixture("golden/index");
    let statuses = Index::verify_dir(&dir).expect("manifest readable");
    assert_eq!(statuses.len(), 6, "dictionary, doc map and two runs of two indexers");
    for s in &statuses {
        assert!(s.ok, "{}: {}", s.name, s.detail);
    }
    let store = Store::open(&dir).unwrap();
    for a in &store.manifest().artifacts {
        let bytes = std::fs::read(dir.join(&a.file)).unwrap();
        assert_eq!(reference_crc32(&bytes), a.crc32, "{}: the bit-serial value", a.name);
        assert_eq!(crc32(&bytes), a.crc32, "{}", a.name);
    }
    let index = Index::open(&dir).expect("opens");
    assert!(index.num_terms() > 100, "a real dictionary, not an empty one");
}

/// A container whose footer was stamped by the old byte-table
/// `ii_corpus::container::crc32` still parses (the footer is checked before
/// any record is read).
#[test]
fn container_written_by_the_parent_commit_still_verifies() {
    let coll = StoredCollection::open(&fixture("written_by_bd938b8/collection")).unwrap();
    assert_eq!(coll.num_files(), 2);
    for f in 0..coll.num_files() {
        let raw = compress::decompress(&coll.read_file_raw(f).unwrap()).unwrap();
        let (body, footer) = raw.split_at(raw.len() - 8);
        assert_eq!(&footer[..4], FOOTER_MAGIC, "file {f} carries a checksum footer");
        let stored = u32::from_le_bytes(footer[4..].try_into().unwrap());
        assert_eq!(reference_crc32(body), stored);
        assert_eq!(crc32(body), stored);
        assert_eq!(parse_container(&raw).expect("footer verifies").len(), 12);
    }
}
