//! `ii build --chaos-kill CLASS:INDEX:BATCH` kills one of the two worker
//! classes that can die, `parser` or `gpu`. CPU indexer shards run on the
//! driver thread and have no executor to kill, so `cpu` — like any other
//! class — is a usage error (exit status 2) naming the accepted classes,
//! raised before a collection is read or an index directory made.

use std::process::Command;

#[test]
fn build_refuses_a_class_that_cannot_die() {
    let root = std::env::temp_dir().join(format!("ii-cli-chaos-kill-{}", std::process::id()));
    let idx = root.join("idx");
    for class in ["cpu", "driver", ""] {
        let out = Command::new(env!("CARGO_BIN_EXE_ii"))
            .args(["build", root.join("coll").to_str().unwrap(), idx.to_str().unwrap()])
            .args(["--chaos-kill", &format!("{class}:0:1")])
            .output()
            .expect("ii runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--chaos-kill {class}:0:1: {stderr}");
        assert!(stderr.contains("parser|gpu"), "--chaos-kill {class}:0:1: {stderr}");
        assert!(!idx.exists(), "--chaos-kill {class}:0:1 made an index directory");
    }
}
