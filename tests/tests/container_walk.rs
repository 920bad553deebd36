//! The borrowed container walk (`container::records`, `records_prefix`)
//! against its owned wrappers (`parse_container`, `parse_container_prefix`).
//!
//! The ingest path parses documents borrowed from the decompressed buffer;
//! everything else reads owned copies. Both go through one record walk, so
//! they must agree on every buffer: the same documents, or the same typed
//! error. Checked on the committed collection fixture and on generated
//! containers, at every truncation and under every single-byte flip — with
//! the footer as damaged, and with the checksum re-stamped so the damage
//! reaches the walk itself.

use ii_core::corpus::container::{
    crc32, parse_container, parse_container_prefix, records, records_prefix, write_container,
    ContainerError, Prefix,
};
use ii_core::corpus::{compress, DocRef, RawDocument, StoredCollection};
use std::path::PathBuf;

fn owned(walked: Result<Vec<DocRef<'_>>, ContainerError>) -> Result<Vec<RawDocument>, ContainerError> {
    walked.map(|docs| docs.into_iter().map(DocRef::to_owned_doc).collect())
}

fn owned_prefix(
    walked: Result<Prefix<DocRef<'_>>, ContainerError>,
) -> Result<Prefix, ContainerError> {
    walked.map(|p| match p {
        Prefix::Docs(docs) => Prefix::Docs(docs.into_iter().map(DocRef::to_owned_doc).collect()),
        Prefix::NeedBytes(n) => Prefix::NeedBytes(n),
    })
}

/// Both readers on one buffer, whole and as a prefix of 0, 1, 2 and every
/// record.
fn agree(buf: &[u8], what: &str) {
    assert_eq!(owned(records(buf)), parse_container(buf), "{what}");
    for limit in [0, 1, 2, usize::MAX] {
        assert_eq!(
            owned_prefix(records_prefix(buf, limit)),
            parse_container_prefix(buf, limit),
            "{what}, prefix of {limit}"
        );
    }
}

/// Every container the test reads: the committed fixture's files and a few
/// written here (empty, empty fields, multi-byte text).
fn containers() -> Vec<(String, Vec<u8>)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/written_by_bd938b8/collection");
    let coll = StoredCollection::open(&dir).expect("fixture collection");
    let mut out: Vec<(String, Vec<u8>)> = (0..coll.num_files())
        .map(|f| {
            let raw = coll.read_file_raw(f).unwrap();
            (format!("fixture file {f}"), compress::decompress(&raw).unwrap())
        })
        .collect();
    let doc = |url: &str, body: &str| RawDocument { url: url.into(), body: body.into() };
    for (name, docs) in [
        ("no documents", vec![]),
        ("empty fields", vec![doc("", ""), doc("u", ""), doc("", "b")]),
        ("multi-byte", vec![doc("http://caf\u{e9}", "<p>stra\u{df}e \u{1f600}</p>"), doc("x", "\u{e9}t\u{e9}")]),
    ] {
        out.push((name.to_string(), write_container(&docs)));
    }
    out
}

#[test]
fn walk_and_owned_parse_agree_on_every_container() {
    for (name, buf) in containers() {
        agree(&buf, &name);
        assert!(records(&buf).is_ok(), "{name} is a valid container");
    }
}

#[test]
fn walk_and_owned_parse_agree_on_every_truncation() {
    for (name, buf) in containers() {
        for cut in 0..buf.len() {
            agree(&buf[..cut], &format!("{name} cut at {cut}"));
        }
    }
}

#[test]
fn walk_and_owned_parse_agree_on_every_flipped_byte() {
    for (name, buf) in containers() {
        let records_end = buf.len() - 8;
        for at in 0..buf.len() {
            for flip in [0x01u8, 0x80] {
                let mut bad = buf.clone();
                bad[at] ^= flip;
                agree(&bad, &format!("{name} byte {at} ^ {flip:#x}"));
                if at < records_end {
                    // Re-stamp the checksum: the walk sees the damage.
                    let crc = crc32(&bad[..records_end]);
                    bad[records_end + 4..].copy_from_slice(&crc.to_le_bytes());
                    agree(&bad, &format!("{name} byte {at} ^ {flip:#x}, re-stamped"));
                }
            }
        }
    }
}
