//! The versioned `MANIFEST.json` codec.
//!
//! The manifest is the root of trust for an index directory: it lists every
//! artifact by *logical* name (what the loader asks for) together with the
//! *physical* file currently holding it, its byte length, and its CRC32.
//! Logical and physical names differ only when a later generation rewrote
//! an artifact — the new content gets a generation-suffixed file so the
//! previous committed state stays intact until the new manifest lands.

use crate::error::StoreError;
use serde::{Deserialize, Serialize, Value};
use std::path::Path;

/// File name of the manifest inside an index directory.
pub const MANIFEST_NAME: &str = "MANIFEST.json";

/// The manifest format version: what this build writes and the only one
/// it reads. Run artifacts carry a [`PostingsMeta`] block (list/block
/// counts, maximum term frequency).
pub const FORMAT_VERSION: u32 = 2;

/// What a committed manifest describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ManifestKind {
    /// A finished, queryable index.
    Index,
    /// A mid-build checkpoint (docmap high-water mark + sealed runs +
    /// indexer dictionary state) that `build --resume` continues from.
    Checkpoint,
}

impl Serialize for ManifestKind {
    fn to_value(&self) -> Value {
        Value::Str(
            match self {
                ManifestKind::Index => "index",
                ManifestKind::Checkpoint => "checkpoint",
            }
            .to_string(),
        )
    }
}

impl Deserialize for ManifestKind {
    fn from_value(v: &Value) -> Result<Self, serde::DeError> {
        match v {
            Value::Str(s) if s == "index" => Ok(ManifestKind::Index),
            Value::Str(s) if s == "checkpoint" => Ok(ManifestKind::Checkpoint),
            other => Err(serde::DeError(format!("bad manifest kind: {other:?}"))),
        }
    }
}

/// Postings-artifact metadata: enough to know a run file's shape —
/// skip-table block count and block-max term frequency included — without
/// reading the artifact itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PostingsMeta {
    /// Wire format of the run file's bytes on disk: always 3 (`IIR3`, the
    /// block layout behind a delta-varint mapping table).
    pub format: u32,
    /// Postings lists (run entries) in the artifact.
    pub lists: u64,
    /// Total 128-document blocks across all lists.
    pub blocks: u64,
    /// Maximum term frequency across the artifact (the global bound over
    /// every block's block-max metadata).
    pub max_tf: u32,
}

/// One artifact's manifest record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArtifactMeta {
    /// Logical name loaders ask for (e.g. `dictionary.bin`).
    pub name: String,
    /// Physical file currently holding the content (may carry a `.gN`
    /// generation suffix).
    pub file: String,
    /// Byte length of the content.
    pub len: u64,
    /// CRC32 of the content.
    pub crc32: u32,
    /// Postings metadata, present on run artifacts. `None` for
    /// non-postings artifacts.
    pub postings: Option<PostingsMeta>,
}

// Hand-written (rather than derived) because serialization omits the
// `postings` key when `None`, and the derive treats a missing field as an
// error.
impl Serialize for ArtifactMeta {
    fn to_value(&self) -> Value {
        let mut pairs = vec![
            ("name".to_string(), self.name.to_value()),
            ("file".to_string(), self.file.to_value()),
            ("len".to_string(), self.len.to_value()),
            ("crc32".to_string(), self.crc32.to_value()),
        ];
        if let Some(p) = &self.postings {
            pairs.push(("postings".to_string(), p.to_value()));
        }
        Value::Object(pairs)
    }
}

impl Deserialize for ArtifactMeta {
    fn from_value(v: &Value) -> Result<Self, serde::DeError> {
        Ok(ArtifactMeta {
            name: serde::field(v, "name")?,
            file: serde::field(v, "file")?,
            len: serde::field(v, "len")?,
            crc32: serde::field(v, "crc32")?,
            postings: match v.get("postings") {
                None | Some(Value::Null) => None,
                Some(p) => Some(PostingsMeta::from_value(p)
                    .map_err(|e| serde::DeError(format!("field 'postings': {}", e.0)))?),
            },
        })
    }
}

/// The committed state of an index directory.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Format version ([`FORMAT_VERSION`]).
    pub version: u32,
    /// Finished index or mid-build checkpoint.
    pub kind: ManifestKind,
    /// Monotonic commit counter for this directory.
    pub generation: u64,
    /// Every artifact, sorted by logical name.
    pub artifacts: Vec<ArtifactMeta>,
}

impl Manifest {
    /// Serialize to the JSON bytes written to `MANIFEST.json`.
    pub fn to_bytes(&self) -> Vec<u8> {
        serde_json::to_vec_pretty(self).expect("manifest serialization is infallible")
    }

    /// Parse manifest bytes. Version skew and parse failures get their own
    /// typed errors so an `open` can tell "future format" from "torn write".
    /// Artifacts must be listed as the writer lists them, each once and by
    /// ascending name; otherwise the manifest is [`StoreError::Corrupt`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Manifest, StoreError> {
        let m: Manifest = serde_json::from_slice(bytes)
            .map_err(|e| StoreError::TornManifest { detail: e.to_string() })?;
        if m.version != FORMAT_VERSION {
            return Err(StoreError::VersionSkew {
                found: m.version,
                supported: FORMAT_VERSION,
            });
        }
        if let Some(w) = m.artifacts.windows(2).find(|w| w[0].name >= w[1].name) {
            let detail = if w[0].name == w[1].name {
                format!("{} is listed twice", w[1].name)
            } else {
                format!("{} is listed after {}", w[1].name, w[0].name)
            };
            return Err(StoreError::Corrupt { name: MANIFEST_NAME.into(), detail });
        }
        Ok(m)
    }

    /// Read and parse a directory's manifest.
    pub fn load(dir: &Path) -> Result<Manifest, StoreError> {
        let path = dir.join(MANIFEST_NAME);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::MissingManifest { dir: dir.to_path_buf() })
            }
            Err(e) => return Err(StoreError::Io(e)),
        };
        Manifest::from_bytes(&bytes)
    }

    /// Look up an artifact by logical name.
    pub fn artifact(&self, name: &str) -> Option<&ArtifactMeta> {
        self.artifacts.iter().find(|a| a.name == name)
    }

    /// Logical names of all artifacts, in manifest order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.artifacts.iter().map(|a| a.name.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            version: FORMAT_VERSION,
            kind: ManifestKind::Index,
            generation: 3,
            artifacts: vec![
                ArtifactMeta {
                    name: "dictionary.bin".into(),
                    file: "dictionary.bin.g3".into(),
                    len: 1234,
                    crc32: 0xDEADBEEF,
                    postings: None,
                },
                ArtifactMeta {
                    name: "run_000_00000.iirf".into(),
                    file: "run_000_00000.iirf".into(),
                    len: 88,
                    crc32: 7,
                    postings: Some(PostingsMeta { format: 3, lists: 3, blocks: 17, max_tf: 9 }),
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        let bytes = m.to_bytes();
        let back = Manifest::from_bytes(&bytes).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.artifact("dictionary.bin").unwrap().file, "dictionary.bin.g3");
        assert!(back.artifact("nope").is_none());
    }

    #[test]
    fn checkpoint_kind_roundtrips() {
        let mut m = sample();
        m.kind = ManifestKind::Checkpoint;
        assert_eq!(Manifest::from_bytes(&m.to_bytes()).unwrap().kind, ManifestKind::Checkpoint);
    }

    #[test]
    fn version_skew_is_typed() {
        let mut m = sample();
        m.version = FORMAT_VERSION + 1;
        match Manifest::from_bytes(&m.to_bytes()) {
            Err(StoreError::VersionSkew { found, supported }) => {
                assert_eq!(found, FORMAT_VERSION + 1);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected VersionSkew, got {other:?}"),
        }
    }

    #[test]
    fn postings_meta_survives_roundtrip() {
        let m = sample();
        let back = Manifest::from_bytes(&m.to_bytes()).unwrap();
        let p = back.artifact("run_000_00000.iirf").unwrap().postings.unwrap();
        assert_eq!(p, PostingsMeta { format: 3, lists: 3, blocks: 17, max_tf: 9 });
        assert!(back.artifact("dictionary.bin").unwrap().postings.is_none());
        // Non-postings records carry no `postings` key.
        let json = String::from_utf8(m.to_bytes()).unwrap();
        assert_eq!(json.matches("postings").count(), 1);
    }

    #[test]
    fn artifacts_listed_twice_or_out_of_order_are_corrupt() {
        for (names, why) in [
            (["run_000_00000.iirf", "run_000_00000.iirf"], "is listed twice"),
            (["run_000_00000.iirf", "dictionary.bin"], "dictionary.bin is listed after run_"),
        ] {
            let mut m = sample();
            for (a, name) in m.artifacts.iter_mut().zip(names) {
                a.name = name.into();
            }
            match Manifest::from_bytes(&m.to_bytes()) {
                Err(StoreError::Corrupt { name, detail }) => {
                    assert_eq!(name, MANIFEST_NAME);
                    assert!(detail.contains(why), "{detail}");
                }
                other => panic!("{names:?}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn torn_bytes_are_typed() {
        let bytes = sample().to_bytes();
        // Every truncation point must yield TornManifest, never a panic or
        // a silently wrong manifest.
        for cut in 0..bytes.len() {
            match Manifest::from_bytes(&bytes[..cut]) {
                Err(StoreError::TornManifest { .. }) => {}
                other => panic!("cut at {cut}: expected TornManifest, got {other:?}"),
            }
        }
        assert!(matches!(
            Manifest::from_bytes(b"{\"not\": \"a manifest\"}"),
            Err(StoreError::TornManifest { .. })
        ));
    }
}
