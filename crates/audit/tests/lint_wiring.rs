//! The panic-hygiene and determinism lints that clippy ships are enforced
//! by clippy, not by this analyzer. Clippy does not run in `cargo test`,
//! so this suite checks the wiring that makes it bite: every library
//! crate opts into the workspace lint table, the table denies each
//! replacement lint, clippy.toml names every banned path, and no waiver
//! for a retired audit lint survives in the tree.

use std::fs;
use std::path::{Path, PathBuf};

use fairprep_audit::{classify, FileScope};

/// Each retired audit lint and the clippy lint that replaced it.
const RETIRED: &[(&str, &str)] = &[
    ("unwrap", "unwrap_used"),
    ("expect", "expect_used"),
    ("panic", "panic"),
    ("hash-iter", "disallowed_types"),
    ("wall-clock", "disallowed_types"),
    ("thread-spawn", "disallowed_methods"),
];

const BANNED_PATHS: &[&str] = &[
    "std::collections::HashMap",
    "std::collections::HashSet",
    "std::time::Instant",
    "std::time::SystemTime",
    "std::thread::spawn",
    "std::thread::scope",
    "std::thread::Builder::spawn",
    "std::thread::Builder::spawn_scoped",
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// The `key = value` lines of one TOML table, comments and blanks dropped.
fn table<'a>(toml: &'a str, header: &str) -> Vec<&'a str> {
    toml.lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

#[test]
fn every_library_crate_opts_into_the_workspace_lints() {
    let root = repo_root();
    let mut manifests = vec![(String::from("src/lib.rs"), root.join("Cargo.toml"))];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let dir = entry.expect("directory entry").path();
        let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
        manifests.push((format!("crates/{name}/src/lib.rs"), dir.join("Cargo.toml")));
    }
    let mut libraries = 0;
    for (lib, manifest) in manifests {
        if classify(&lib) != FileScope::SeededLibrary {
            continue;
        }
        libraries += 1;
        assert!(
            table(&read(&manifest), "[lints]").contains(&"workspace = true"),
            "{} must set `[lints] workspace = true`",
            manifest.display()
        );
    }
    // data, ml, core, impute, fairness, trace, datasets and the facade.
    assert_eq!(libraries, 8);
}

#[test]
fn workspace_table_denies_every_replacement_lint() {
    let toml = read(&repo_root().join("Cargo.toml"));
    let lints = table(&toml, "[workspace.lints.clippy]");
    let replacements = RETIRED.iter().map(|&(_, clippy)| clippy);
    for lint in replacements.chain(["allow_attributes_without_reason"]) {
        let line = format!("{lint} = \"deny\"");
        assert!(
            lints.contains(&line.as_str()),
            "[workspace.lints.clippy] must set `{line}`; it has {lints:?}"
        );
    }
}

#[test]
fn clippy_toml_names_every_banned_path() {
    let config = read(&repo_root().join("clippy.toml"));
    for path in BANNED_PATHS {
        assert!(
            config.contains(&format!("path = \"{path}\"")),
            "clippy.toml must ban `{path}`"
        );
    }
    for setting in ["unwrap", "expect", "panic"] {
        let line = format!("allow-{setting}-in-tests = true");
        assert!(config.lines().any(|l| l.trim() == line), "missing `{line}`");
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_str().unwrap_or("");
        if path.is_dir() {
            if !name.starts_with('.') && name != "target" && name != "fixtures" {
                collect_rs(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_waiver_names_a_retired_lint() {
    let mut files = Vec::new();
    collect_rs(&repo_root(), &mut files);
    assert!(files.len() > 100, "walked only {} files", files.len());
    let mut stale = Vec::new();
    for file in &files {
        for (n, line) in read(file).lines().enumerate() {
            for kind in ["allow", "allow-file"] {
                let Some((_, rest)) = line.split_once(&format!("audit: {kind}(")) else {
                    continue;
                };
                let lint = rest.split([',', ')']).next().unwrap_or("").trim();
                if let Some((_, clippy)) = RETIRED.iter().find(|(id, _)| *id == lint) {
                    stale.push(format!(
                        "{}:{}: `{lint}` is now clippy::{clippy}; use #[expect(clippy::{clippy}, reason = \"…\")]",
                        file.display(),
                        n + 1
                    ));
                }
            }
        }
    }
    assert!(stale.is_empty(), "{}", stale.join("\n"));
}
