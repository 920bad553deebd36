//! `ii query` on an index whose `MANIFEST.json` lists one run twice — the
//! record appended again, or a second name for the same run — fails with an
//! error that names what is wrong (exit status 1), not a panic (101).

use ii_core::store::{ArtifactMeta, Manifest, MANIFEST_NAME};
use std::process::{Command, Output};

fn ii(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ii")).args(args).output().expect("ii runs")
}

#[test]
fn query_refuses_a_run_listed_twice() {
    let root = std::env::temp_dir().join(format!("ii-cli-twice-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (coll, idx) = (root.join("coll"), root.join("idx"));
    let (c, i) = (coll.to_str().unwrap(), idx.to_str().unwrap());
    assert!(ii(&["generate", c, "--preset", "tiny"]).status.success());
    assert!(ii(&["build", c, i, "--parsers", "1", "--cpu", "1", "--gpus", "0"]).status.success());
    let query = || ii(&["query", i, "web"]);
    assert!(query().status.success(), "the honest index answers");

    let honest = Manifest::load(&idx).unwrap();
    let record = honest.artifacts.iter().find(|a| a.name == "run_000_00001.iirf").unwrap().clone();
    let mut appended = honest.clone();
    appended.artifacts.push(record.clone());
    let mut aliased = honest.clone();
    aliased.artifacts.push(ArtifactMeta { name: "run_0_1.iirf".into(), ..record });
    aliased.artifacts.sort_by(|a, b| a.name.cmp(&b.name));
    for (manifest, named) in [(appended, MANIFEST_NAME), (aliased, "run_0_1.iirf")] {
        std::fs::write(idx.join(MANIFEST_NAME), manifest.to_bytes()).unwrap();
        let out = query();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains(named) && !stderr.contains("panicked"), "{stderr}");
    }
    std::fs::remove_dir_all(&root).unwrap();
}
