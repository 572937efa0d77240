//! Docs-vs-tree check: every repository path and every `Type::member`
//! the top-level documents cite in back-ticks must exist, so a deleted
//! crate, example, artefact, function, field or variant cannot live on in
//! the prose.
//!
//! Checked paths are spans that start with `crates/`, `tests/`,
//! `examples/`, `benchmark/` or `.github/`, and bare root-level `*.md` /
//! `*.json` / `*.toml` names. Globs, placeholders and the benchmark's
//! git-ignored output directories are skipped, and so are `results/…`
//! outputs — except inside the EXPERIMENTS.md section that lists the
//! committed reference outputs, where every `results/…` file must be in
//! the tree.
//!
//! Checked names are spans that start with a path whose last two
//! segments are a CamelCase type and an identifier (`Engine::replay`,
//! `pstar_sim::Hop::deliver(cx, …)`, `Admit::Lost`): the member must be
//! declared somewhere under `crates/` — as a `fn`, as a field (or
//! constant) `member:`, or, CamelCase, as a line-leading variant.

use std::collections::HashSet;
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

/// The `(type, member)` a span cites, if it starts with one.
fn cited_member(span: &str) -> Option<(&str, &str)> {
    let path = span
        .split(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
        .next()?;
    let segments: Vec<&str> = path.split("::").collect();
    let [.., ty, member] = segments[..] else {
        return None;
    };
    let ident = |s: &str| {
        s.chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
    };
    let camel = ty.starts_with(|c: char| c.is_ascii_uppercase());
    (camel && ty != "Self" && ident(member)).then_some((ty, member))
}

/// Every name `text` declares: `fn` names, identifiers followed by a
/// single `:` (fields, constants), and CamelCase identifiers that open a
/// line (enum variants).
fn declared_names(text: &str, names: &mut HashSet<String>) {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    for line in text.lines() {
        let mut prev: Option<&str> = None;
        let mut rest = line;
        let mut first = true;
        while let Some(start) = rest.find(|c: char| c.is_alphabetic() || c == '_') {
            let len = rest[start..]
                .find(|c: char| !is_ident(c))
                .unwrap_or(rest.len() - start);
            let id = &rest[start..start + len];
            let after = &rest[start + len..];
            let opens_line = first && rest[..start].trim().is_empty();
            if prev == Some("fn")
                || (after.starts_with(':') && !after.starts_with("::"))
                || (opens_line && id.starts_with(|c: char| c.is_ascii_uppercase()))
            {
                names.insert(id.to_string());
            }
            first = false;
            prev = Some(id);
            rest = after;
        }
    }
}

/// Every name declared in a `.rs` file under `dir`.
fn declared_under(dir: &Path, names: &mut HashSet<String>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            declared_under(&path, names);
        } else if path.extension().is_some_and(|e| e == "rs") {
            declared_names(
                &std::fs::read_to_string(&path).expect("a source file"),
                names,
            );
        }
    }
}

/// Every `Type::member` citation in `text` whose member `names` lacks.
fn missing_members(names: &HashSet<String>, text: &str) -> Vec<String> {
    code_spans(text)
        .iter()
        .filter_map(|span| cited_member(span))
        .filter(|(_, member)| !names.contains(*member))
        .map(|(ty, member)| format!("{ty}::{member}"))
        .collect()
}

#[test]
fn every_cited_name_exists() {
    let root = repo_root();
    let mut names = HashSet::new();
    declared_under(&root.join("crates"), &mut names);
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc))
            .unwrap_or_else(|e| panic!("reading {doc}: {e}"));
        missing.extend(
            missing_members(&names, &text)
                .into_iter()
                .map(|m| format!("{doc}: `{m}`")),
        );
    }
    assert!(
        missing.is_empty(),
        "documents cite names that are not declared under crates/:\n{}",
        missing.join("\n")
    );
}

#[test]
fn name_checker_sees_fns_fields_and_variants() {
    let mut names = HashSet::new();
    declared_names(
        "pub struct Hop<S> {\n    pub kernel: LinkKernel,\n}\n\
         impl Hop {\n    pub fn deliver(&mut self) {}\n}\n\
         enum Admit {\n    Queued,\n    Lost(Packet),\n}\n\
         let x = Admit::Evicted;\n",
        &mut names,
    );
    let text = "`Hop::deliver`, `pstar_sim::Hop::kernel`, `Admit::Lost(pkt, cause)`,\n\
                `Engine::flush_emits(…)`, `Admit::Evicted`, `sim::stop_verdict`,\n\
                `u64::MAX`, `Hop`, `crates/sim/src/hop.rs`\n";
    assert_eq!(
        missing_members(&names, text),
        ["Engine::flush_emits", "Admit::Evicted"]
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
