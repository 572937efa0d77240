//! Docs-vs-tree check: every repository path the top-level documents
//! cite in back-ticks must exist, so a deleted crate, example or artefact
//! cannot live on in the prose.
//!
//! Checked spans are those that start with `crates/`, `tests/`,
//! `examples/`, `benchmark/` or `.github/`, and bare root-level `*.md` /
//! `*.json` / `*.toml` names. Globs, placeholders and the benchmark's
//! git-ignored output directories are skipped, and so are `results/…`
//! outputs — except inside the EXPERIMENTS.md section that lists the
//! committed reference outputs, where every `results/…` file must be in
//! the tree.

use std::path::{Path, PathBuf};

const DOCS: [&str; 5] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "CONTRIBUTING.md",
    ".claude/skills/verify/SKILL.md",
];

/// Heading of the EXPERIMENTS.md section whose `results/…` citations are
/// promises about the tree rather than names of regenerated outputs.
const COMMITTED_HEADING: &str = "## Committed reference outputs";

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Inline code spans of a markdown document, fenced blocks dropped.
fn code_spans(text: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(|s| s.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect()
}

/// The path a span cites, if it is one this check covers. `results_too`
/// also admits `results/…` paths.
fn cited_path(span: &str, results_too: bool) -> Option<&str> {
    // `tests/x.rs::some_test` and `crates/a/src/b.rs:10` cite the file.
    let path = span.split([':', ' ']).next().unwrap_or(span);
    if path.contains(['*', '<', '{', '…']) {
        return None;
    }
    let generated = ["benchmark/out", "benchmark/target"];
    if generated.iter().any(|g| path.starts_with(g)) {
        return None;
    }
    let prefixes = ["crates/", "tests/", "examples/", "benchmark/", ".github/"];
    let root_file =
        !path.contains('/') && [".md", ".json", ".toml"].iter().any(|e| path.ends_with(e));
    let covered = prefixes.iter().any(|p| path.starts_with(p))
        || root_file
        || (results_too && path.starts_with("results/"));
    covered.then_some(path)
}

/// Every covered citation in `text` that does not exist under `root`.
fn missing_paths(root: &Path, text: &str) -> Vec<String> {
    let (prose, committed) = match text.split_once(COMMITTED_HEADING) {
        Some((before, rest)) => {
            // The section runs to the next heading of the same level.
            let (section, after) = rest.split_once("\n## ").unwrap_or((rest, ""));
            (format!("{before}\n{after}"), section.to_string())
        }
        None => (text.to_string(), String::new()),
    };
    let mut missing = Vec::new();
    for (part, results_too) in [(prose, false), (committed, true)] {
        for span in code_spans(&part) {
            if let Some(path) = cited_path(&span, results_too) {
                if !root.join(path).exists() {
                    missing.push(path.to_string());
                }
            }
        }
    }
    missing
}

#[test]
fn every_cited_path_exists() {
    let root = repo_root();
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc))
            .unwrap_or_else(|e| panic!("reading {doc}: {e}"));
        assert!(
            doc != "EXPERIMENTS.md" || text.contains(COMMITTED_HEADING),
            "EXPERIMENTS.md must say which results/ files are committed"
        );
        missing.extend(
            missing_paths(&root, &text)
                .into_iter()
                .map(|p| format!("{doc}: `{p}`")),
        );
    }
    assert!(
        missing.is_empty(),
        "documents cite paths that are not in the tree:\n{}",
        missing.join("\n")
    );
}

#[test]
fn checker_flags_deleted_paths_and_skips_outputs() {
    let root = repo_root();
    let text = "| `crates/no-such-crate` | gone |\n\
                see `tests/docs.rs::every_cited_path_exists`, `NO_SUCH_FILE.json`,\n\
                `results/regenerated.csv`, `crates/compat-*`, `<cmd>.manifest.json`\n\
                ```sh\ncat examples/not_checked_in_fences.rs\n```\n\
                ## Committed reference outputs\n`results/not-committed.csv`\n\
                ## Next\n`results/also-regenerated.csv`\n";
    assert_eq!(
        missing_paths(&root, text),
        [
            "crates/no-such-crate",
            "NO_SUCH_FILE.json",
            "results/not-committed.csv"
        ]
    );
}
