//! Property tests for the manifest codec: arbitrary manifests, their
//! artifacts listed as the writer lists them, survive the JSON round-trip
//! exactly, and no byte-truncation of a valid manifest is
//! ever accepted.

use ii_store::{ArtifactMeta, Manifest, ManifestKind, PostingsMeta, StoreError, FORMAT_VERSION};
use proptest::prelude::*;

fn postings_strategy() -> impl Strategy<Value = Option<PostingsMeta>> {
    (any::<bool>(), 1u32..=2, any::<u64>(), any::<u32>()).prop_map(
        |(present, format, counts, max_tf)| {
            present.then_some(PostingsMeta {
                format,
                lists: counts >> 32,
                blocks: counts & 0xFFFF_FFFF,
                max_tf,
            })
        },
    )
}

fn artifact_strategy() -> impl Strategy<Value = ArtifactMeta> {
    (
        ("[a-zA-Z0-9_.-]{1,24}", "[a-zA-Z0-9_.-]{1,24}"),
        proptest::prelude::any::<u64>(),
        proptest::prelude::any::<u32>(),
        postings_strategy(),
    )
        .prop_map(|((name, file), len, crc32, postings)| ArtifactMeta {
            name,
            file,
            len,
            crc32,
            postings,
        })
}

fn manifest_strategy() -> impl Strategy<Value = Manifest> {
    (
        proptest::prelude::any::<bool>(),
        proptest::prelude::any::<u64>(),
        proptest::collection::vec(artifact_strategy(), 0..12),
    )
        .prop_map(|(checkpoint, generation, mut artifacts)| {
            // Listed as `Txn::commit` lists them: each name once, ascending.
            artifacts.sort_by(|a, b| a.name.cmp(&b.name));
            artifacts.dedup_by(|a, b| a.name == b.name);
            Manifest {
                version: FORMAT_VERSION,
                kind: if checkpoint { ManifestKind::Checkpoint } else { ManifestKind::Index },
                generation,
                artifacts,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Serialize → parse is the identity for arbitrary manifests: every
    /// artifact name, 64-bit length, checksum, kind, and generation comes
    /// back exactly.
    #[test]
    fn manifest_roundtrips_exactly(m in manifest_strategy()) {
        let bytes = m.to_bytes();
        let back = Manifest::from_bytes(&bytes).expect("own output parses");
        prop_assert_eq!(back, m);
    }

    /// Truncating a valid manifest at any byte boundary yields the typed
    /// torn-manifest error — never a panic, never a silently-shorter
    /// manifest.
    #[test]
    fn truncations_are_always_torn(m in manifest_strategy(), pick in proptest::prelude::any::<u64>()) {
        let bytes = m.to_bytes();
        let cut = (pick % bytes.len() as u64) as usize;
        match Manifest::from_bytes(&bytes[..cut]) {
            Err(StoreError::TornManifest { .. }) => {}
            other => prop_assert!(false, "cut at {}: got {:?}", cut, other),
        }
    }
}
