//! `convoy-lint` — repo-specific static analysis for the convoy suite.
//!
//! Enforces the invariants the suite's hard bugs came from (see each rule in
//! [`rules`]): checked time arithmetic, panic-free decode/parse paths,
//! allocation-free hot regions, no stray unwraps in library code, and
//! audited narrowing casts. Built on a lightweight token-level lexer
//! ([`lexer`]) rather than `syn`, consistent with the workspace's
//! vendored-offline policy.
//!
//! Findings are suppressed only by an inline allow comment — the
//! [`analysis::ALLOW_PREFIX`] marker, the rule name(s), a closing paren and
//! a justification — on (or directly above) the offending line; allows
//! without a justification, naming unknown rules, or no longer matching a
//! live finding are themselves findings, so the allowlist can never go
//! stale.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod lexer;
pub mod rules;

use analysis::FileAnalysis;
use rules::{RawFinding, RULE_NAMES};
use std::fs;
use std::path::{Path, PathBuf};

/// One reported problem: a rule hit that no valid allow suppressed, or a
/// defective allow directive.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule name (one of [`RULE_NAMES`], or the meta-rules `stale-allow` /
    /// `malformed-allow`).
    pub rule: String,
    /// Path relative to the workspace root, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
    /// The trimmed source line, for context.
    pub snippet: String,
}

/// Result of linting a set of files.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, in (file, line) order.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Number of allow directives that matched a live finding.
    pub allows_used: usize,
}

impl Report {
    /// True when nothing was found.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Which rules run on a file, decided from its workspace-relative path.
/// Scoping mirrors ISSUE 7: time arithmetic in the engine/stream/trajectory
/// crates, panic rules on the untrusted-byte paths, cast auditing where
/// `i64`/`usize` working types dominate, and the hot-path + unwrap rules
/// everywhere library code lives.
fn rules_for(rel: &str) -> Vec<fn(&FileAnalysis) -> Vec<RawFinding>> {
    let mut active: Vec<fn(&FileAnalysis) -> Vec<RawFinding>> = Vec::new();
    let in_any = |prefixes: &[&str]| prefixes.iter().any(|p| rel.starts_with(p));

    if in_any(&[
        "crates/core/src/",
        "crates/stream/src/",
        "crates/trajectory/src/",
        "crates/obs/src/",
        "crates/simplify/src/",
    ]) {
        active.push(rules::checked_time_arithmetic);
    }
    if rel == "crates/stream/src/checkpoint.rs"
        || rel == "crates/datasets/src/io.rs"
        || rel == "crates/datasets/src/container.rs"
    {
        active.push(rules::no_panic_decode);
    }
    // Hot-path regions can be marked anywhere; the rule is a no-op without
    // markers, so it runs on every file.
    active.push(rules::no_alloc_hot_path);
    if is_library_source(rel) {
        active.push(rules::no_unwrap_in_lib);
    }
    if in_any(&[
        "crates/core/src/",
        "crates/clustering/src/",
        "crates/stream/src/",
    ]) {
        active.push(rules::cast_audit);
    }
    active
}

/// Library source: under a `src/` tree, excluding binary entry points
/// (`main.rs`, `src/bin/`) and the CLI crate, whose top-level error handling
/// legitimately aborts.
fn is_library_source(rel: &str) -> bool {
    let in_src = rel.starts_with("src/") || rel.contains("/src/");
    in_src
        && !rel.contains("/bin/")
        && !rel.ends_with("/main.rs")
        && rel != "main.rs"
        && !rel.starts_with("crates/cli/")
}

/// Lints one file's source text as if it lived at `rel` (workspace-relative,
/// `/`-separated). This is the core entry point; tests feed it fixture
/// sources under synthetic paths to exercise path-scoped rules.
pub fn lint_source(rel: &str, src: &str) -> Vec<Finding> {
    let a = FileAnalysis::new(src);
    let mut raw: Vec<RawFinding> = Vec::new();
    for rule in rules_for(rel) {
        raw.extend(rule(&a));
    }

    let mut findings: Vec<Finding> = Vec::new();
    let mut allow_used = vec![false; a.allows.len()];

    'raw: for f in &raw {
        for (ai, allow) in a.allows.iter().enumerate() {
            if allow.target_line == f.line
                && allow.has_reason
                && allow.rules.iter().any(|r| r == f.rule)
            {
                allow_used[ai] = true;
                continue 'raw;
            }
        }
        findings.push(Finding {
            rule: f.rule.to_string(),
            file: rel.to_string(),
            line: f.line,
            message: f.message.clone(),
            snippet: a.line_text(f.line).to_string(),
        });
    }

    // Allow hygiene: unknown rule names and missing justifications are
    // malformed; syntactically valid allows that suppressed nothing are
    // stale. Both fail the run so the allowlist tracks live findings only.
    for (ai, allow) in a.allows.iter().enumerate() {
        let unknown: Vec<&String> = allow
            .rules
            .iter()
            .filter(|r| !RULE_NAMES.contains(&r.as_str()))
            .collect();
        if allow.rules.is_empty() || !unknown.is_empty() {
            findings.push(Finding {
                rule: "malformed-allow".to_string(),
                file: rel.to_string(),
                line: allow.line,
                message: if allow.rules.is_empty() {
                    "allow directive names no rule".to_string()
                } else {
                    format!(
                        "allow directive names unknown rule(s): {}",
                        unknown
                            .iter()
                            .map(|s| s.as_str())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                },
                snippet: a.line_text(allow.line).to_string(),
            });
        } else if !allow.has_reason {
            findings.push(Finding {
                rule: "malformed-allow".to_string(),
                file: rel.to_string(),
                line: allow.line,
                message: "allow directive has no justification — write \
                          `// lint: allow(rule) — why this is safe`"
                    .to_string(),
                snippet: a.line_text(allow.line).to_string(),
            });
        } else if !allow_used[ai] {
            findings.push(Finding {
                rule: "stale-allow".to_string(),
                file: rel.to_string(),
                line: allow.line,
                message: format!(
                    "allow({}) no longer matches a live finding on line {} — remove it",
                    allow.rules.join(", "),
                    allow.target_line
                ),
                snippet: a.line_text(allow.line).to_string(),
            });
        }
    }

    findings.sort_by_key(|x| (x.line, x.rule.clone()));
    findings
}

/// Counts how many allows in `src` matched a live finding (for reporting).
pub fn count_used_allows(rel: &str, src: &str) -> usize {
    let a = FileAnalysis::new(src);
    let mut raw: Vec<RawFinding> = Vec::new();
    for rule in rules_for(rel) {
        raw.extend(rule(&a));
    }
    a.allows
        .iter()
        .filter(|allow| {
            allow.has_reason
                && raw
                    .iter()
                    .any(|f| allow.target_line == f.line && allow.rules.iter().any(|r| r == f.rule))
        })
        .count()
}

/// Walks the workspace from `root` and returns the `/`-separated relative
/// paths of all first-party Rust sources: everything under `crates/*/src/`
/// plus the umbrella crate's `src/`. Vendored stand-ins, tests, benches,
/// examples and fixtures are out of scope.
pub fn discover_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                walk_rs(&src, &mut out)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk_rs(&root_src, &mut out)?;
    }
    let mut rels: Vec<String> = out
        .iter()
        .filter_map(|p| {
            p.strip_prefix(root)
                .ok()
                .map(|r| r.to_string_lossy().replace('\\', "/"))
        })
        .collect();
    rels.sort();
    Ok(rels)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every discovered file under `root`.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let files = discover_files(root)?;
    let mut report = Report::default();
    for rel in &files {
        let src = fs::read_to_string(root.join(rel))?;
        report.findings.extend(lint_source(rel, &src));
        report.allows_used += count_used_allows(rel, &src);
        report.files_scanned += 1;
    }
    Ok(report)
}

/// Renders a report for terminals: `file:line: [rule] message` plus the
/// offending line, then a summary.
pub fn render_human(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n    {}\n",
            f.file, f.line, f.rule, f.message, f.snippet
        ));
    }
    out.push_str(&format!(
        "convoy-lint: {} file(s) scanned, {} finding(s), {} justified allow(s)\n",
        report.files_scanned,
        report.findings.len(),
        report.allows_used
    ));
    out
}

/// Renders a report as JSON (hand-rolled: the workspace has no serializer
/// dependency, and the shape here is flat and stable).
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str(&format!("  \"allows_used\": {},\n", report.allows_used));
    out.push_str(&format!(
        "  \"clean\": {},\n",
        if report.is_clean() { "true" } else { "false" }
    ));
    out.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \"snippet\": {}}}",
            json_string(&f.rule),
            json_string(&f.file),
            f.line,
            json_string(&f.message),
            json_string(&f.snippet)
        ));
    }
    if !report.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Escapes `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_source_scoping() {
        assert!(is_library_source("crates/core/src/engine.rs"));
        assert!(is_library_source("src/lib.rs"));
        assert!(!is_library_source("crates/cli/src/main.rs"));
        assert!(!is_library_source("crates/lint/src/main.rs"));
        assert!(!is_library_source("crates/cli/src/bin/tool.rs"));
    }

    #[test]
    fn json_escaping_round_trips_special_chars() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn clean_source_produces_no_findings() {
        let findings = lint_source(
            "crates/core/src/x.rs",
            "pub fn add(a: i64, b: i64) -> Option<i64> { a.checked_add(b) }\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }
}
