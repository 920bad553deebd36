//! The user-facing index: build output plus query and persistence.

use crate::query::query_terms;
use ii_corpus::DocId;
use ii_dict::GlobalDictionary;
use ii_obs::{Counter, Registry, Stage};
use ii_pipeline::{
    read_generation, stage_runs_and_docmap, BuildCheckpoint, DocMap, Generation, IndexOutput,
    PipelineReport, SealedRuns, CHECKPOINT_ARTIFACT, DICTIONARY_ARTIFACT, DOCMAP_ARTIFACT,
};
use ii_postings::{
    parse_run_artifact_name, CodecError, Posting, PostingsList, RunFile, RunSet, SetCursor,
};
use ii_store::{
    ArtifactStatus, ManifestKind, RealVfs, SalvageReport, Store, StoreError, Txn, Vfs,
};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// A built inverted index over a document collection.
pub struct Index {
    /// Combined dictionary (term → postings location).
    pub dictionary: GlobalDictionary,
    /// Run files per indexer id.
    pub run_sets: HashMap<u32, RunSet>,
    /// Auxiliary docID → source-file map (§III.F).
    pub doc_map: DocMap,
    /// Build timing/workload report (empty when loaded from disk).
    pub report: PipelineReport,
    /// Query-time metrics: the `query` stage (wall, items, latency) and a
    /// `query.postings_scanned` counter accumulate over this index's life.
    pub obs: Arc<Registry>,
    /// The metrics of `obs` every query touches, looked up once.
    pub(crate) query_obs: QueryObs,
}

/// The `query` stage and `query.*` counters of an index's registry, resolved
/// by name when the index is put together instead of on every query.
pub(crate) struct QueryObs {
    pub(crate) stage: Arc<Stage>,
    pub(crate) postings_scanned: Arc<Counter>,
    pub(crate) blocks_decoded: Arc<Counter>,
    pub(crate) blocks_skipped: Arc<Counter>,
    pub(crate) decode_errors: Arc<Counter>,
}

impl Index {
    /// Wrap a pipeline output. Every run set is told to remember which runs
    /// hold each handle (handles are dense below the term count).
    pub fn from_output(mut out: IndexOutput) -> Index {
        out.run_sets.values_mut().for_each(|set| set.track_holders(out.dictionary.len()));
        Self::assemble(out.dictionary, out.run_sets, out.doc_map, out.report)
    }

    /// The one constructor: a fresh registry with the query metrics
    /// resolved.
    fn assemble(
        dictionary: GlobalDictionary,
        run_sets: HashMap<u32, RunSet>,
        doc_map: DocMap,
        report: PipelineReport,
    ) -> Index {
        let obs = Arc::new(Registry::new());
        let query_obs = QueryObs {
            stage: obs.stage("query"),
            postings_scanned: obs.counter("query.postings_scanned"),
            blocks_decoded: obs.counter("query.blocks_decoded"),
            blocks_skipped: obs.counter("query.blocks_skipped"),
            decode_errors: obs.counter("query.decode_errors"),
        };
        Index { dictionary, run_sets, doc_map, report, obs, query_obs }
    }

    /// Source container file of a global document ID (§III.F auxiliary
    /// map), if known.
    pub fn source_file(&self, doc: DocId) -> Option<u32> {
        self.doc_map.file_of(doc)
    }

    /// Distinct terms in the index.
    pub fn num_terms(&self) -> usize {
        self.dictionary.len()
    }

    /// Documents indexed (0 when loaded from disk without a report).
    pub fn num_docs(&self) -> u32 {
        self.report.docs
    }

    /// Postings of a *surface* term: of the first index term it normalizes
    /// to as a query would (lowercased, stemmed once, stop words dropped).
    /// Decode errors as in [`Self::postings_stemmed`].
    pub fn postings(&self, term: &str) -> Option<PostingsList> {
        self.postings_stemmed(query_terms(term, false).first()?)
    }

    /// Postings of an *already-stemmed* term (no re-normalization; Porter
    /// stemming is not idempotent, so looking up stemmer output must skip
    /// the query-normalization path). The query rule for corrupt bytes
    /// applies: a run part that does not decode means no list at all, not
    /// one missing that run's postings, and `query.decode_errors` counts it.
    pub fn postings_stemmed(&self, stemmed: &str) -> Option<PostingsList> {
        let e = self.dictionary.lookup(stemmed)?;
        self.decoded(self.run_sets.get(&e.indexer)?.fetch(e.postings))
    }

    /// Postings restricted to `[lo, hi]` global document IDs — exercises
    /// the paper's range-narrowed partial-list retrieval (§III.F). Empty
    /// (and counted) when a part in the range does not decode.
    pub fn postings_in_range(&self, term: &str, lo: DocId, hi: DocId) -> Vec<Posting> {
        let entry = query_terms(term, false).first().and_then(|t| self.dictionary.lookup(t));
        let Some(e) = entry else { return Vec::new() };
        let Some(set) = self.run_sets.get(&e.indexer) else { return Vec::new() };
        self.decoded(set.fetch_range(e.postings, lo, hi)).map_or_else(Vec::new, |(hits, _)| hits)
    }

    /// The one decode-error rule of the read path, queries included: no
    /// answer, and a count.
    pub(crate) fn decoded<T>(&self, fetched: Result<T, CodecError>) -> Option<T> {
        if fetched.is_err() {
            self.query_obs.decode_errors.inc();
        }
        fetched.ok()
    }

    /// Skip cursor over an already-stemmed term's partial lists across runs.
    pub(crate) fn stem_cursor(&self, stemmed: &str) -> Option<SetCursor<'_>> {
        let e = self.dictionary.lookup(stemmed)?;
        self.run_sets.get(&e.indexer)?.cursor(e.postings).ok()?
    }

    /// Persist the index: `dictionary.bin`, `docmap.bin`, plus one `.iirf`
    /// file per run per indexer — exactly the paper's on-disk artifacts
    /// (§III.F) — committed atomically through the ii-store manifest
    /// protocol. A crash mid-save leaves the previously committed index (or
    /// a recognizably uncommitted directory), never a silent mix.
    pub fn save(&self, dir: &Path) -> Result<(), StoreError> {
        self.save_with(dir, &RealVfs)
    }

    /// [`Self::save`] through an explicit [`Vfs`] — crash tests inject
    /// [`CrashVfs`](ii_store::CrashVfs) here.
    pub fn save_with(&self, dir: &Path, vfs: &dyn Vfs) -> Result<(), StoreError> {
        let mut txn = Txn::begin(dir, vfs)?.with_registry(Arc::clone(&self.obs));
        // The build's own staging routine, so a saved index and a durably
        // built one cannot drift apart. A one-shot save has staged nothing
        // before: every run goes by value.
        stage_runs_and_docmap(&mut txn, &self.run_sets, &self.doc_map, &mut SealedRuns::new())?;
        let mut dict_bytes = Vec::new();
        self.dictionary.write_to(&mut dict_bytes).expect("vec write is infallible");
        txn.put(DICTIONARY_ARTIFACT, &dict_bytes)?;
        txn.commit(ManifestKind::Index)?;
        Ok(())
    }

    /// Load an index saved by [`Self::save`] (or committed by a durable
    /// pipeline build). Every artifact is verified against the manifest's
    /// length and CRC32; corruption, truncation, and version skew surface
    /// as typed [`StoreError`]s. Nothing is read that the manifest does not
    /// vouch for: a directory without one is
    /// [`StoreError::MissingManifest`], and [`Self::repair`] is the way
    /// back from it.
    ///
    /// A build's checkpoint holds the same artifacts and is refused all the
    /// same ([`StoreError::IncompleteBuild`]): it indexes a prefix of the
    /// collection. So is a checkpoint [`Self::repair`] re-committed, which
    /// still lists its `checkpoint.json`.
    pub fn open(dir: &Path) -> Result<Index, StoreError> {
        let store = Store::open(dir)?;
        let manifest = store.manifest();
        if manifest.kind != ManifestKind::Index || manifest.artifact(CHECKPOINT_ARTIFACT).is_some() {
            return Err(StoreError::IncompleteBuild { dir: dir.to_path_buf() });
        }
        let Generation { dictionary, run_sets, doc_map, .. } = read_generation(&store)?;
        Ok(Self::assemble(dictionary, run_sets, doc_map, PipelineReport::default()))
    }

    /// Checksum-verify every artifact of a committed index directory
    /// against its manifest. Statuses cover all artifacts, failed or not.
    pub fn verify_dir(dir: &Path) -> Result<Vec<ArtifactStatus>, StoreError> {
        Ok(Store::open(dir)?.verify())
    }

    /// Salvage what survives in a damaged index directory: every artifact
    /// that passes both its checksum and a semantic decode is re-committed
    /// under a fresh manifest; the rest is reported lost.
    pub fn repair(dir: &Path) -> Result<SalvageReport, StoreError> {
        ii_store::salvage(dir, &RealVfs, &validate_artifact)
    }
}

/// Semantic validation used by [`Index::repair`]: an artifact only
/// survives salvage if it actually decodes as what its name claims.
/// Salvaged run files re-derive their postings metadata so the repaired
/// manifest keeps skip-table and block-max information.
fn validate_artifact(name: &str, bytes: &[u8]) -> Result<Option<ii_store::PostingsMeta>, String> {
    if name == DICTIONARY_ARTIFACT {
        GlobalDictionary::from_bytes(bytes).map(|_| None).map_err(|e| e.to_string())
    } else if name == DOCMAP_ARTIFACT {
        DocMap::read_from(&mut &bytes[..]).map(|_| None).map_err(|e| e.to_string())
    } else if name == CHECKPOINT_ARTIFACT {
        serde_json::from_slice::<BuildCheckpoint>(bytes)
            .map(|_| None)
            .map_err(|e| format!("{e:?}"))
    } else if parse_run_artifact_name(name).is_some() {
        RunFile::from_bytes(bytes)
            .map(|run| Some(ii_pipeline::run_postings_meta(&run)))
            .map_err(|e| e.to_string())
    } else {
        Err("unrecognized artifact name".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ii_corpus::{CollectionSpec, RawDocument, StoredCollection};
    use ii_pipeline::{build_index, PipelineConfig};
    use std::sync::Arc;

    fn small_index(tag: &str, docs: Vec<RawDocument>) -> Index {
        // Build via the pipeline over a handcrafted collection: write the
        // docs as one container file.
        let dir = std::env::temp_dir().join(format!("ii-core-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Reuse the corpus container/compress machinery directly.
        let raw = ii_corpus::container::write_container(&docs);
        let packed = ii_corpus::compress::compress(&raw);
        std::fs::write(dir.join("file_00000.iic"), &packed).unwrap();
        let manifest = ii_corpus::Manifest {
            spec: CollectionSpec {
                name: tag.into(),
                num_files: 1,
                docs_per_file: docs.len(),
                mean_doc_tokens: 8,
                vocab_size: 100,
                zipf_s: 1.0,
                html: false,
                seed: 0,
                shift: None,
            },
            stats: ii_corpus::CollectionStats {
                documents: docs.len() as u64,
                uncompressed_bytes: raw.len() as u64,
                compressed_bytes: packed.len() as u64,
                ..Default::default()
            },
            file_compressed_bytes: vec![packed.len() as u64],
            file_uncompressed_bytes: vec![raw.len() as u64],
        };
        std::fs::write(dir.join("manifest.json"), serde_json::to_vec(&manifest).unwrap())
            .unwrap();
        let coll = Arc::new(StoredCollection::open(&dir).unwrap());
        let out = build_index(&coll, &PipelineConfig::small(1, 1, 1)).expect("build");
        std::fs::remove_dir_all(&dir).unwrap();
        Index::from_output(out)
    }

    fn doc(body: &str) -> RawDocument {
        RawDocument { url: String::new(), body: body.into() }
    }

    #[test]
    fn query_normalization_matches_indexing() {
        let idx = small_index(
            "norm",
            vec![doc("Zebras running EVERYWHERE"), doc("a zebra ran")],
        );
        // "Zebras"/"zebra" both hit the stemmed term.
        let l = idx.postings("zebras").unwrap();
        assert_eq!(l.len(), 2);
        let l2 = idx.postings("ZEBRA").unwrap();
        assert_eq!(l, l2);
        assert!(idx.postings("the").is_none(), "stop words have no postings");
    }

    #[test]
    fn search_intersects_and_ranks() {
        let idx = small_index(
            "search",
            vec![
                doc("apple banana apple"),   // doc 0
                doc("apple cherry"),         // doc 1
                doc("banana apple banana apple"), // doc 2
            ],
        );
        let hits = idx.search("apple banana");
        let docs: Vec<u32> = hits.iter().map(|(d, _)| d.0).collect();
        assert_eq!(docs, vec![2, 0], "doc 2 ranks above doc 0");
        assert!(idx.search("apple missingterm").is_empty());
        assert!(idx.search("the of and").is_empty(), "all-stopword query");
    }

    #[test]
    fn range_narrowed_postings() {
        let idx = small_index(
            "range",
            vec![doc("kiwi"), doc("kiwi"), doc("kiwi"), doc("kiwi")],
        );
        let mid = idx.postings_in_range("kiwi", DocId(1), DocId(2));
        let docs: Vec<u32> = mid.iter().map(|p| p.doc.0).collect();
        assert_eq!(docs, vec![1, 2]);
    }

    #[test]
    fn save_and_open_roundtrip() {
        let idx = small_index("persist", vec![doc("walrus penguin"), doc("walrus")]);
        let dir =
            std::env::temp_dir().join(format!("ii-core-persist-out-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        idx.save(&dir).unwrap();
        let loaded = Index::open(&dir).unwrap();
        assert_eq!(loaded.num_terms(), idx.num_terms());
        assert_eq!(loaded.postings("walrus"), idx.postings("walrus"));
        assert_eq!(loaded.postings("penguin"), idx.postings("penguin"));
        // The save is manifested and every artifact checksum-clean.
        let statuses = Index::verify_dir(&dir).unwrap();
        assert!(statuses.len() >= 3, "dictionary + docmap + runs");
        assert!(statuses.iter().all(|s| s.ok));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn saved_manifest_carries_postings_metadata() {
        let idx = small_index("pmeta", vec![doc("walrus penguin"), doc("walrus kiwi")]);
        let dir =
            std::env::temp_dir().join(format!("ii-core-pmeta-out-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        idx.save(&dir).unwrap();
        let store = ii_store::Store::open(&dir).unwrap();
        let mut runs_seen = 0;
        for a in &store.manifest().artifacts {
            if let Some((indexer, run_id)) = parse_run_artifact_name(&a.name) {
                runs_seen += 1;
                let p = a.postings.expect("every run artifact carries postings metadata");
                let run = idx.run_sets[&indexer]
                    .runs()
                    .iter()
                    .find(|r| r.run_id == run_id)
                    .unwrap();
                assert_eq!(p, ii_pipeline::run_postings_meta(run));
                assert_eq!(p.format, 3, "blocked wire format");
                assert_eq!(p.lists, run.entries.len() as u64);
                if !run.entries.is_empty() {
                    assert!(p.blocks >= p.lists, "at least one block per list");
                    assert!(p.max_tf >= 1);
                }
            } else {
                assert!(a.postings.is_none(), "{}: non-postings artifact", a.name);
            }
        }
        assert!(runs_seen >= 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn search_records_skip_metrics() {
        let idx = small_index(
            "skipmetrics",
            vec![doc("apple banana"), doc("apple cherry"), doc("apple banana date")],
        );
        let hits = idx.search("apple banana");
        assert_eq!(hits.len(), 2);
        // Both lists travel the cursor path: every block either decodes or
        // is skipped, and the scanned counter still reflects total df.
        assert!(idx.obs.counter("query.blocks_decoded").get() >= 2);
        assert!(idx.obs.counter("query.postings_scanned").get() >= 5);
    }

    #[test]
    fn corrupt_run_part_means_no_postings_and_is_counted() {
        let mut idx = small_index("badpart", vec![doc("kiwi lime"), doc("kiwi")]);
        let healthy = idx.postings("kiwi").expect("kiwi is indexed");
        let e = idx.dictionary.lookup("kiwi").unwrap();
        // A second run holding two more kiwi postings, the continuation bit
        // of its last payload byte set: the list's final varbyte never ends.
        let mut runs = RunSet::new();
        let first_runs = idx.run_sets[&e.indexer].runs();
        first_runs.iter().for_each(|run| runs.push(run.clone()));
        let more: PostingsList =
            [10, 11].into_iter().map(|d| Posting { doc: DocId(d), tf: 1 }).collect();
        let next_id = first_runs.last().unwrap().run_id + 1;
        let mut bad = RunFile::build(
            next_id,
            e.indexer,
            &mut [(e.postings, &more)].into_iter(),
            ii_postings::Codec::VarByte,
        );
        *bad.payload.last_mut().unwrap() ^= 0x80;
        runs.push(bad);
        idx.run_sets.insert(e.indexer, runs);

        // The parent answered all three from the first run alone.
        let errors = idx.obs.counter("query.decode_errors");
        assert_eq!(idx.postings("kiwi"), None);
        assert_eq!(errors.get(), 1);
        assert_eq!(idx.postings_stemmed("kiwi"), None);
        assert_eq!(errors.get(), 2);
        assert!(idx.postings_in_range("kiwi", DocId(0), DocId(u32::MAX)).is_empty());
        assert_eq!(errors.get(), 3);
        // A range that ends before the bad part never touches its bytes.
        assert_eq!(idx.postings_in_range("kiwi", DocId(0), DocId(9)), healthy.postings());
        assert_eq!(idx.postings("lime").map(|l| l.len()), Some(1), "other lists still answer");
        assert_eq!(errors.get(), 3);
    }

    #[test]
    fn verify_detects_and_repair_salvages_corruption() {
        let idx = small_index("repair", vec![doc("walrus penguin"), doc("walrus")]);
        let dir =
            std::env::temp_dir().join(format!("ii-core-repair-out-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        idx.save(&dir).unwrap();
        let victim = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().starts_with("run_"))
            .unwrap();
        let victim_name = victim.file_name().to_string_lossy().into_owned();
        let mut bytes = std::fs::read(victim.path()).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(victim.path(), &bytes).unwrap();

        let statuses = Index::verify_dir(&dir).unwrap();
        let bad: Vec<&ArtifactStatus> = statuses.iter().filter(|s| !s.ok).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].name, victim_name);
        assert!(matches!(Index::open(&dir), Err(StoreError::ChecksumMismatch { .. })));

        let report = Index::repair(&dir).unwrap();
        assert!(report.kept.iter().any(|n| n == "dictionary.bin"));
        assert_eq!(report.lost.len(), 1);
        assert_eq!(report.lost[0].0, victim_name);
        // The repaired directory opens cleanly, minus the lost run.
        let loaded = Index::open(&dir).unwrap();
        assert_eq!(loaded.num_terms(), idx.num_terms());
        assert!(Index::verify_dir(&dir).unwrap().iter().all(|s| s.ok));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
