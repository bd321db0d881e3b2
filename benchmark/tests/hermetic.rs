//! The root `tests/hermetic.rs` walks the root manifest and `crates/*`;
//! this package sits outside both, so it guards itself: every dependency
//! is a path dependency, and what a build or a run leaves behind is
//! ignored.

use std::path::Path;

#[test]
fn manifest_has_path_only_dependencies() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
    let text = std::fs::read_to_string(manifest).expect("manifest is readable");
    let mut section = String::new();
    let mut dependencies = 0;
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if let Some(header) = line.strip_prefix('[') {
            section = header.trim_end_matches(']').trim().to_string();
            continue;
        }
        let is_dep_table = section == "dependencies"
            || section.ends_with("-dependencies")
            || section.ends_with(".dependencies");
        if !is_dep_table || line.is_empty() {
            continue;
        }
        let (name, spec) = line
            .split_once('=')
            .expect("dependency lines are `name = spec`");
        assert!(
            spec.contains("path")
                && !["version", "git", "registry"]
                    .iter()
                    .any(|k| spec.contains(k)),
            "dependency `{}` could resolve outside the repository: {spec}",
            name.trim()
        );
        dependencies += 1;
    }
    assert_eq!(
        dependencies, 1,
        "the harness depends on the repository and nothing else"
    );
    assert!(
        text.contains("\n[workspace]\n"),
        "the package is its own workspace root"
    );
}

#[test]
fn build_and_run_leftovers_are_ignored() {
    let ignore = Path::new(env!("CARGO_MANIFEST_DIR")).join(".gitignore");
    let text = std::fs::read_to_string(ignore).expect("benchmark/.gitignore exists");
    for entry in ["target/", "out/"] {
        assert!(
            text.lines().any(|l| l.trim() == entry),
            "{entry} is not ignored"
        );
    }
}
