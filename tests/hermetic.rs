//! Regression guard for the zero-external-dependency policy.
//!
//! The workspace must build and test with the network disabled (see
//! README.md, "Zero-external-dependency policy"): every dependency in
//! every `Cargo.toml` must be a `path` dependency on a sibling crate, or a
//! `.workspace = true` reference to one. This test walks the workspace
//! root and `crates/*/Cargo.toml` manifests and fails if any dependency
//! entry could resolve to a registry, so a future change can't silently
//! reintroduce a crates.io dependency.
//!
//! It also shows three `scripts/verify.sh` gates failing on deliberately
//! broken inputs: the deprecated-shim gate, fed a source file that
//! carries the attribute; the dead-pub gate, fed public items that no
//! other file names; and the results-regenerate comparison, fed a
//! committed CSV with one byte changed.

use std::fs;
use std::path::{Path, PathBuf};

/// Dependency-like sections whose entries must be path-only.
const DEP_SECTIONS: &[&str] = &[
    "dependencies",
    "dev-dependencies",
    "build-dependencies",
    "workspace.dependencies",
];

/// Is this `[section]` header one of the dependency tables (including
/// target-specific forms like `[target.'cfg(unix)'.dependencies]`)?
fn is_dep_section(section: &str) -> bool {
    DEP_SECTIONS
        .iter()
        .any(|s| section == *s || section.ends_with(&format!(".{s}")))
}

/// A dependency entry is hermetic when it names a sibling path or defers
/// to the (path-only) workspace dependency table.
fn entry_is_hermetic(key: &str, value: &str) -> bool {
    if value.contains("path") && value.contains('=') && !value.contains("version") {
        return true;
    }
    // `foo.workspace = true` parses here as key `foo.workspace`, value
    // `true`; inline tables use `{ workspace = true }`.
    key.ends_with(".workspace") && value.trim() == "true" || value.contains("workspace = true")
}

/// Scan one manifest; return violations as `(section, line)` pairs.
fn scan_manifest(path: &Path) -> Vec<(String, String)> {
    let text =
        fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let mut violations = Vec::new();
    let mut section = String::new();
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            section = rest.trim_end_matches(']').trim().to_string();
            continue;
        }
        if !is_dep_section(&section) {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let (key, value) = (key.trim(), value.trim());
        if !entry_is_hermetic(key, value) {
            violations.push((section.clone(), format!("{key} = {value}")));
        }
    }
    violations
}

/// All manifests in the workspace: the root plus every `crates/*` member.
fn workspace_manifests() -> Vec<PathBuf> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("Cargo.toml")];
    let crates_dir = root.join("crates");
    let entries = fs::read_dir(&crates_dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", crates_dir.display()));
    for entry in entries {
        let manifest = entry.expect("readable dir entry").path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    manifests.sort();
    manifests
}

#[test]
fn no_registry_dependencies_anywhere() {
    let manifests = workspace_manifests();
    // The root plus the eight crates; if the workspace grows this floor
    // should grow with it, so a renamed dir can't dodge the scan.
    assert!(
        manifests.len() >= 9,
        "expected at least 9 manifests, found {}: {manifests:?}",
        manifests.len()
    );
    let mut report = String::new();
    for manifest in &manifests {
        for (section, entry) in scan_manifest(manifest) {
            report.push_str(&format!(
                "{}: [{}] {}\n",
                manifest.display(),
                section,
                entry
            ));
        }
    }
    assert!(
        report.is_empty(),
        "registry (non-path) dependencies found — the workspace must stay \
         hermetic (README.md, zero-external-dependency policy):\n{report}"
    );
}

#[test]
fn every_workspace_dependency_is_a_path() {
    // Belt and braces for the shared table specifically: each entry in
    // [workspace.dependencies] must carry an explicit `path`.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
    let text = fs::read_to_string(&root).expect("readable root manifest");
    let mut in_table = false;
    let mut entries = 0;
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_table = line == "[workspace.dependencies]";
            continue;
        }
        if in_table && line.contains('=') {
            entries += 1;
            assert!(
                line.contains("path = "),
                "workspace dependency without a path: {line}"
            );
        }
    }
    assert_eq!(
        entries, 8,
        "expected the eight sibling crates, got {entries}"
    );
}

#[test]
fn scanner_rejects_registry_shapes() {
    // The scanner itself must flag the shapes a registry dep can take.
    let bad = [
        (
            "dependencies",
            "serde",
            r#"{ version = "1", features = ["derive"] }"#,
        ),
        ("dev-dependencies", "proptest", r#""1""#),
        ("workspace.dependencies", "rand", r#""0.9""#),
        ("target.'cfg(unix)'.dependencies", "libc", r#""0.2""#),
    ];
    for (section, key, value) in bad {
        assert!(
            is_dep_section(section),
            "section {section} should be scanned"
        );
        assert!(
            !entry_is_hermetic(key, value),
            "{key} = {value} should be flagged"
        );
    }
    let good = [
        ("dloop-simkit", r#"{ path = "crates/simkit" }"#),
        ("dloop-nand.workspace", "true"),
        ("dloop", r#"{ workspace = true }"#),
    ];
    for (key, value) in good {
        assert!(entry_is_hermetic(key, value), "{key} = {value} is hermetic");
    }
}

/// `scripts/verify.sh --check-deprecated DIR...` — the gate `verify.sh`
/// runs over the workspace sources — must pass on this workspace and fail
/// on either spelling of a parked shim. The offending text is assembled
/// here so that this file does not itself trip the gate.
#[test]
fn deprecated_shim_gate_passes_here_and_fails_on_a_shim() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let gate = |dirs: &[&Path]| {
        std::process::Command::new("bash")
            .arg(root.join("scripts/verify.sh"))
            .arg("--check-deprecated")
            .args(dirs)
            .output()
            .expect("bash runs scripts/verify.sh")
    };
    let sources = ["crates", "src", "tests", "examples"].map(|d| root.join(d));
    let sources: Vec<&Path> = sources.iter().map(PathBuf::as_path).collect();
    let clean = gate(&sources);
    assert!(
        clean.status.success(),
        "the workspace trips its own gate:\n{}",
        String::from_utf8_lossy(&clean.stdout)
    );
    let word = "deprecated";
    for (name, shim) in [
        (
            "item.rs",
            format!("#[{word}(note = \"use new\")]\npub fn old() {{}}\n"),
        ),
        ("caller.rs", format!("#[allow({word})]\nfn caller() {{}}\n")),
    ] {
        let dir = std::env::temp_dir().join(format!("dloop-gate-{}-{name}", std::process::id()));
        fs::create_dir_all(&dir).expect("scratch dir");
        fs::write(dir.join(name), shim).expect("scratch source");
        let broken = gate(&[&dir]);
        fs::remove_dir_all(&dir).expect("scratch dir removed");
        assert!(!broken.status.success(), "{name} passed the gate");
        assert!(
            String::from_utf8_lossy(&broken.stdout).contains(name),
            "the gate must name the offending file"
        );
    }
}

/// Run `scripts/verify.sh --check-dead-pub` over `tree`.
fn dead_pub_gate(tree: &Path) -> std::process::Output {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    std::process::Command::new("bash")
        .arg(root.join("scripts/verify.sh"))
        .arg("--check-dead-pub")
        .arg(tree)
        .output()
        .expect("bash runs scripts/verify.sh")
}

/// Build a scratch tree of `(relative path, contents)` files, run the
/// dead-pub gate over it, and return whether it passed and what it
/// printed.
fn dead_pub_gate_on(case: &str, files: &[(&str, &str)]) -> (bool, String) {
    let tree = std::env::temp_dir().join(format!("dloop-dead-pub-{}-{case}", std::process::id()));
    for (path, contents) in files {
        let path = tree.join(path);
        fs::create_dir_all(path.parent().expect("a file in a directory")).expect("scratch tree");
        fs::write(path, contents).expect("scratch file");
    }
    let out = dead_pub_gate(&tree);
    fs::remove_dir_all(&tree).expect("scratch tree removed");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// `scripts/verify.sh --check-dead-pub ROOT` — the gate `verify.sh` runs
/// over this repository — must pass here and fail on a tree whose crate
/// exports a function that no other file names.
#[test]
fn dead_pub_gate_passes_here_and_fails_on_an_unnamed_pub_fn() {
    let clean = dead_pub_gate(Path::new(env!("CARGO_MANIFEST_DIR")));
    assert!(
        clean.status.success(),
        "the repository trips its own gate:\n{}",
        String::from_utf8_lossy(&clean.stdout)
    );
    let (passed, report) = dead_pub_gate_on(
        "fn",
        &[
            (
                "crates/demo/src/lib.rs",
                "pub fn called() {}\npub fn orphan() {}\n",
            ),
            ("README.md", "Call `called()`.\n"),
        ],
    );
    assert!(!passed, "an unnamed pub fn passed the gate");
    assert!(
        report.contains("orphan") && !report.contains("called"),
        "the gate must name exactly the unnamed function:\n{report}"
    );
}

/// The dead-pub gate also covers constants and statics, and only the docs
/// that describe the program count as callers: a mention in the
/// changelog, the roadmap or any other unlisted doc (`CHANGES.md`,
/// `ROADMAP.md`, `NOTES.md`) is not one; a mention in `DESIGN.md`, or in
/// a `README.md` at any depth, is.
#[test]
fn dead_pub_gate_fails_on_an_unnamed_pub_const_and_a_changelog_only_pub_fn() {
    let (passed, report) = dead_pub_gate_on(
        "const",
        &[
            (
                "crates/demo/src/lib.rs",
                "pub const USED: u32 = 1;\npub const LONELY: u32 = 2;\n\
                 pub static SHARED: u32 = 3;\n",
            ),
            ("src/main.rs", "fn main() { let _ = USED + SHARED; }\n"),
        ],
    );
    assert!(!passed, "an unnamed pub const passed the gate");
    assert!(
        report.contains("pub const LONELY")
            && !report.contains("USED")
            && !report.contains("SHARED"),
        "the gate must name exactly the unnamed constant:\n{report}"
    );

    for doc in ["CHANGES.md", "ROADMAP.md", "NOTES.md"] {
        let (passed, report) = dead_pub_gate_on(
            &format!("skipped-{doc}"),
            &[
                ("crates/demo/src/lib.rs", "pub fn retired() {}\n"),
                (doc, "- `retired()` went public.\n"),
            ],
        );
        assert!(!passed, "a pub fn named only in {doc} passed the gate");
        assert!(
            report.contains("pub fn retired"),
            "the gate must name the {doc}-only function:\n{report}"
        );
    }

    for doc in ["DESIGN.md", "benchmark/README.md"] {
        let (passed, report) = dead_pub_gate_on(
            &format!("caller-{}", doc.replace('/', "-")),
            &[
                ("crates/demo/src/lib.rs", "pub fn noted() {}\n"),
                (doc, "- `noted()` is public.\n"),
            ],
        );
        assert!(passed, "a mention in {doc} must count:\n{report}");
    }
}

/// `scripts/verify.sh --check-results-match RESULTS FRESH` — the comparison
/// behind the gate that committed results regenerate byte-equal — passes
/// on a copy of a committed CSV and fails on a copy with one byte changed.
#[test]
fn results_gate_passes_a_copy_and_fails_a_one_byte_tamper() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let csv = "table1_params_0.csv";
    let committed = fs::read(root.join("results").join(csv)).expect("committed CSV");
    let mut tampered = committed.clone();
    tampered[committed.len() / 2] ^= 1;
    for (case, bytes, passes) in [("copy", committed, true), ("tampered", tampered, false)] {
        let fresh =
            std::env::temp_dir().join(format!("dloop-results-{}-{case}", std::process::id()));
        fs::create_dir_all(&fresh).expect("scratch dir");
        fs::write(fresh.join(csv), bytes).expect("scratch CSV");
        let out = std::process::Command::new("bash")
            .arg(root.join("scripts/verify.sh"))
            .arg("--check-results-match")
            .arg(root.join("results"))
            .arg(&fresh)
            .output()
            .expect("bash runs scripts/verify.sh");
        fs::remove_dir_all(&fresh).expect("scratch dir removed");
        assert_eq!(
            out.status.success(),
            passes,
            "the {case} CSV {} the gate:\n{}",
            if passes { "failed" } else { "passed" },
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
