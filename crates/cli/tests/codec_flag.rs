//! `ii build --codec` takes the codecs the index writes — varbyte, bp128,
//! pfor and the length-class policy auto — and nothing else: any other
//! value is a usage error (exit status 2) naming the accepted values,
//! raised before a collection is read or an index directory made.

use std::process::Command;

#[test]
fn build_refuses_a_codec_the_index_does_not_write() {
    let root = std::env::temp_dir().join(format!("ii-cli-codec-{}", std::process::id()));
    let idx = root.join("idx");
    for codec in ["ef", "gamma", "golomb", "EliasFano", ""] {
        let out = Command::new(env!("CARGO_BIN_EXE_ii"))
            .args(["build", root.join("coll").to_str().unwrap(), idx.to_str().unwrap()])
            .args(["--codec", codec])
            .output()
            .expect("ii runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--codec '{codec}': {stderr}");
        assert!(stderr.contains("varbyte|bp128|pfor|auto"), "--codec '{codec}': {stderr}");
        assert!(!idx.exists(), "--codec '{codec}' made an index directory");
    }
}

/// A run whose header or row names γ (1), Golomb (2) or Elias-Fano (5), or
/// whose reserved header bytes are not zero, under a manifest re-vouched
/// for it: `ii verify` reports the run corrupt and exits 1, without a panic.
#[test]
fn verify_reports_a_run_in_a_retired_codec() {
    use ii_core::corpus::DocId;
    use ii_core::postings::{run_artifact_name, Codec, Posting, PostingsList, RunFile};
    use ii_core::store::{crc32, Manifest, MANIFEST_NAME};

    let root = std::env::temp_dir().join(format!("ii-cli-retired-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (coll, idx) = (root.join("coll"), root.join("idx"));
    let (c, i) = (coll.to_str().unwrap(), idx.to_str().unwrap());
    let ii = |args: &[&str]| Command::new(env!("CARGO_BIN_EXE_ii")).args(args).output().unwrap();
    assert!(ii(&["generate", c, "--preset", "tiny"]).status.success());
    assert!(ii(&["build", c, i, "--parsers", "1", "--cpu", "1", "--gpus", "0"]).status.success());
    assert!(ii(&["verify", i]).status.success(), "the honest index verifies");

    // Run 1 of indexer 0 rewritten as one two-posting list under handle 0:
    // its table is one row, which ends in the codec tag.
    let name = run_artifact_name(0, 1);
    let list: PostingsList = [1, 4].map(|d| Posting { doc: DocId(d), tf: 1 }).into_iter().collect();
    let honest = RunFile::build(1, 0, &mut [(0u32, &list)].into_iter(), Codec::VarByte).to_bytes();
    let table_len = u64::from_le_bytes(honest[25..33].try_into().unwrap()) as usize;
    let row_tag_at = 41 + table_len - 1;
    let write = |bytes: &[u8]| {
        let mut manifest = Manifest::load(&idx).unwrap();
        let record = manifest.artifacts.iter_mut().find(|a| a.name == name).unwrap();
        std::fs::write(idx.join(&record.file), bytes).unwrap();
        (record.len, record.crc32) = (bytes.len() as u64, crc32(bytes));
        std::fs::write(idx.join(MANIFEST_NAME), manifest.to_bytes()).unwrap();
    };
    write(&honest);
    assert!(ii(&["verify", i]).status.success(), "the rewritten run verifies");
    let retired_tags = [1, 2, 5].into_iter().flat_map(|tag| [(12, tag), (row_tag_at, tag)]);
    for (at, value) in retired_tags.chain([(13, 1), (20, 0x80)]) {
        let mut bytes = honest.clone();
        bytes[at] = value;
        write(&bytes);
        let out = ii(&["verify", i]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "byte {at} = {value}: {stdout}{stderr}");
        assert!(stdout.contains("FAILED  open") && stdout.contains(&name), "{stdout}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    std::fs::remove_dir_all(&root).unwrap();
}
