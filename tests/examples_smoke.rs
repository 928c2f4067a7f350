//! Smoke coverage for the `examples/`: each must compile and run to
//! successful completion. (The quickstart in `src/lib.rs` is further
//! covered as a doctest, so its `count_imbalance() < 1.02` claim is
//! asserted on every `cargo test` run.)
//!
//! One test drives all examples sequentially: concurrent `cargo run`
//! invocations would serialize on the build lock anyway.
//!
//! A second test keeps the prose honest: every `--bin`, `--bench` or
//! `--example` the docs tell a reader to run must name a target that
//! exists.

use std::process::Command;

const EXAMPLES: &[&str] = &[
    "adaptive_refinement",
    "moving_window",
    "parallel_speedup",
    "partition_viz",
    "quickstart",
    "service_roundtrip",
    "severe_imbalance",
];

#[test]
fn examples_run_to_completion() {
    let cargo = env!("CARGO");
    // Build them all up front so per-example failures are run failures,
    // not compile failures.
    let build = Command::new(cargo)
        .args(["build", "--examples", "--quiet"])
        .status()
        .expect("failed to spawn cargo");
    assert!(build.success(), "cargo build --examples failed");

    for example in EXAMPLES {
        let out = Command::new(cargo)
            .args(["run", "--quiet", "--example", example])
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn example {example}: {e}"));
        assert!(
            out.status.success(),
            "example `{example}` exited with {}:\n--- stdout ---\n{}\n--- stderr ---\n{}",
            out.status,
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
    }
}

/// The docs whose command lines a reader copies.
const DOCS: &[&str] = &[
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "vendor/README.md",
    ".claude/skills/verify/SKILL.md",
];

/// Names declared as `[[bin]]` / `[[bench]]` (`kind`) by the root
/// manifest and every `crates/*/Cargo.toml`.
fn declared_targets(root: &std::path::Path, kind: &str) -> Vec<String> {
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        manifests.push(entry.expect("crates/ entry").path().join("Cargo.toml"));
    }
    let header = format!("[[{kind}]]");
    let mut names = Vec::new();
    for manifest in manifests {
        let text = std::fs::read_to_string(&manifest)
            .unwrap_or_else(|e| panic!("{}: {e}", manifest.display()));
        let mut lines = text.lines().map(str::trim);
        while let Some(line) = lines.next() {
            if line != header {
                continue;
            }
            let name = lines
                .find_map(|l| l.strip_prefix("name = \""))
                .and_then(|l| l.strip_suffix('"'))
                .unwrap_or_else(|| panic!("{}: {header} without a name", manifest.display()));
            names.push(name.to_string());
        }
    }
    names
}

#[test]
fn docs_name_only_targets_that_exist() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let bins = declared_targets(root, "bin");
    let benches = declared_targets(root, "bench");
    let mut checked = 0;
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        let mut tokens = text.split_whitespace();
        while let Some(flag) = tokens.next() {
            let flag = flag.trim_start_matches('`');
            if !matches!(flag, "--bin" | "--bench" | "--example") {
                continue;
            }
            let next = tokens.next().unwrap_or("");
            let name: String = next
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_'))
                .collect();
            let exists = match flag {
                "--bin" => bins.contains(&name),
                "--bench" => benches.contains(&name),
                _ => root.join("examples").join(format!("{name}.rs")).is_file(),
            };
            assert!(exists, "{doc}: `{flag} {next}` names no such target");
            checked += 1;
        }
    }
    assert!(checked > 0, "the scan found no command lines at all");
}
