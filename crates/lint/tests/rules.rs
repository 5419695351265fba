//! Per-rule fixture tests: each rule gets a positive fixture (the defect is
//! reported), a negative fixture (compliant code passes), and edge fixtures
//! for the lexer-level hazards the token scanner must not trip over —
//! panic-words inside string literals, `#[cfg(test)]` regions, raw strings,
//! and the allow-directive machinery (justified, malformed, stale).
//!
//! Fixtures are fed through [`convoy_lint::lint_source`] under synthetic
//! workspace-relative paths, because rule activation is path-scoped.

use convoy_lint::lint_source;

/// Rule names reported for a fixture, in order.
fn hits(rel: &str, src: &str) -> Vec<String> {
    lint_source(rel, src).into_iter().map(|f| f.rule).collect()
}

/// Lines (1-based) on which `rule` fired.
fn lines_of(rel: &str, src: &str, rule: &str) -> Vec<u32> {
    lint_source(rel, src)
        .into_iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

// ---------------------------------------------------------------- time arith

#[test]
fn time_arith_flags_bare_minus_on_tick_names() {
    let src =
        "pub fn span(start_tick: i64, end_tick: i64) -> i64 {\n    end_tick - start_tick\n}\n";
    assert_eq!(
        lines_of("crates/core/src/window.rs", src, "checked-time-arithmetic"),
        vec![2]
    );
}

#[test]
fn time_arith_accepts_saturating_ops() {
    let src = "pub fn span(start_tick: i64, end_tick: i64) -> i64 {\n    end_tick.saturating_sub(start_tick)\n}\n";
    assert!(hits("crates/core/src/window.rs", src).is_empty());
}

#[test]
fn time_arith_is_scoped_to_engine_crates() {
    // Identical source outside core/stream/trajectory: the rule is inactive.
    let src =
        "pub fn span(start_tick: i64, end_tick: i64) -> i64 {\n    end_tick - start_tick\n}\n";
    assert!(hits("crates/datasets/src/gen.rs", src).is_empty());
}

#[test]
fn time_arith_ignores_non_time_operands_and_unary_minus() {
    let src = "pub fn f(count: i64, t: i64) -> i64 {\n    let a = count - 1;\n    let b = -t;\n    a + b\n}\n";
    assert!(hits("crates/core/src/x.rs", src).is_empty());
}

#[test]
fn time_arith_skips_test_modules_and_strings() {
    let src = concat!(
        "pub const MSG: &str = \"end - start overflowed at tick\";\n",
        "#[cfg(test)]\n",
        "mod tests {\n",
        "    #[test]\n",
        "    fn t() { let start = 1i64; let end = 9i64; assert_eq!(end - start, 8); }\n",
        "}\n",
    );
    assert!(hits("crates/core/src/x.rs", src).is_empty());
}

#[test]
fn time_arith_flags_compound_assignments_on_time_names() {
    // The PR 8 sweep bug: `self.next_t += 1` walked straight past i64::MAX.
    let src = concat!(
        "pub fn advance(&mut self) {\n",
        "    self.next_t += 1;\n",
        "    self.deadline_ts -= 2;\n",
        "    self.tick *= 2;\n",
        "}\n",
    );
    assert_eq!(
        lines_of("crates/trajectory/src/s.rs", src, "checked-time-arithmetic"),
        vec![2, 3, 4]
    );
}

#[test]
fn time_arith_accepts_checked_compound_updates_and_non_time_targets() {
    let src = concat!(
        "pub fn advance(&mut self) {\n",
        "    self.next_t = self.next_t.saturating_add(1);\n",
        "    self.count += 1;\n",
        "    self.weight += 0.5;\n",
        "}\n",
    );
    assert!(hits("crates/trajectory/src/s.rs", src).is_empty());
}

#[test]
fn time_arith_flags_nanosecond_names_and_runs_on_obs_sources() {
    // The observability layer's wall-clock values: `_ns` suffixes and
    // `nanos`/`duration`/`elapsed` substrings are time-valued, and the rule
    // is active under crates/obs/src/.
    let src = concat!(
        "pub fn f(started_ns: u64, now_ns: u64) -> u64 {\n",
        "    let elapsed = now_ns - started_ns;\n",
        "    let total_nanos = elapsed * 2;\n",
        "    let duration_sum = total_nanos + 1;\n",
        "    duration_sum\n",
        "}\n",
    );
    assert_eq!(
        lines_of("crates/obs/src/registry.rs", src, "checked-time-arithmetic"),
        vec![2, 3, 4]
    );
    // Saturating forms of the same names are compliant.
    let ok = concat!(
        "pub fn f(started_ns: u64, now_ns: u64) -> u64 {\n",
        "    now_ns.saturating_sub(started_ns)\n",
        "}\n",
    );
    assert!(hits("crates/obs/src/registry.rs", ok).is_empty());
}

#[test]
fn time_arith_sees_through_field_and_method_chains() {
    let src = "pub fn f(w: W) -> i64 {\n    w.interval.end - w.interval.start\n}\n";
    assert_eq!(
        lines_of("crates/stream/src/w.rs", src, "checked-time-arithmetic"),
        vec![2]
    );
}

#[test]
fn time_arith_covers_the_simplifiers() {
    // A time-ratio position computed from a bare tick difference wraps on
    // chords spanning more than the i64 range.
    let src =
        "pub fn ratio(t: i64, a: P, b: P) -> f64 {\n    (t - a.t) as f64 / (b.t - a.t) as f64\n}\n";
    assert_eq!(
        lines_of("crates/simplify/src/dp.rs", src, "checked-time-arithmetic"),
        vec![2, 2]
    );
}

// -------------------------------------------------------------- panic decode

#[test]
fn panic_decode_flags_unwrap_and_indexing_on_decode_paths() {
    let src = concat!(
        "pub fn decode(bytes: &[u8]) -> u8 {\n",
        "    let first = bytes[0];\n",
        "    let parsed: u8 = std::str::from_utf8(bytes).unwrap().parse().unwrap();\n",
        "    first + parsed\n",
        "}\n",
    );
    let found = lines_of("crates/stream/src/checkpoint.rs", src, "no-panic-decode");
    assert!(found.contains(&2), "slice index not flagged: {found:?}");
    assert!(found.contains(&3), "unwrap not flagged: {found:?}");
}

#[test]
fn panic_decode_flags_panic_macros() {
    let src = "pub fn decode(b: u8) -> u8 {\n    match b { 0 => 1, _ => unreachable!() }\n}\n";
    assert_eq!(
        lines_of("crates/datasets/src/io.rs", src, "no-panic-decode"),
        vec![2]
    );
}

#[test]
fn panic_decode_accepts_fallible_style() {
    let src = concat!(
        "pub fn decode(bytes: &[u8]) -> Option<u8> {\n",
        "    let first = bytes.first()?;\n",
        "    first.checked_add(1)\n",
        "}\n",
    );
    assert!(hits("crates/stream/src/checkpoint.rs", src).is_empty());
}

#[test]
fn panic_decode_only_runs_on_the_decode_files() {
    let src = "pub fn f(b: &[u8]) -> u8 { b[0] }\n";
    assert!(lines_of("crates/stream/src/stream.rs", src, "no-panic-decode").is_empty());
    // The `.convoy` container decoder is an untrusted-byte path too.
    assert_eq!(
        lines_of("crates/datasets/src/container.rs", src, "no-panic-decode"),
        vec![1]
    );
}

#[test]
fn panic_decode_ignores_panic_words_in_strings_and_tests() {
    let src = concat!(
        "pub const HELP: &str = \"never unwrap() or panic!() here; bytes[0] is checked\";\n",
        "#[cfg(test)]\n",
        "mod tests {\n",
        "    #[test]\n",
        "    fn t() { let v = vec![1u8]; assert_eq!(v[0], 1); }\n",
        "}\n",
    );
    assert!(hits("crates/stream/src/checkpoint.rs", src).is_empty());
}

// ------------------------------------------------------------- hot-path alloc

/// Builds a hot-path marker comment without embedding the directive text in
/// this file's comments.
fn hot_marker() -> String {
    format!("// {} — steady state must not allocate\n", "lint: hot-path")
}

#[test]
fn hot_path_flags_alloc_inside_marked_region() {
    let src = format!(
        "{}pub fn step(&mut self) {{\n    let scratch: Vec<u32> = Vec::new();\n    drop(scratch);\n}}\n",
        hot_marker()
    );
    assert_eq!(
        lines_of("crates/clustering/src/x.rs", &src, "no-alloc-hot-path"),
        vec![3]
    );
}

#[test]
fn hot_path_flags_clone_collect_and_macros() {
    let src = format!(
        "{}pub fn step(v: &[u32]) -> Vec<u32> {{\n    let a = v.to_vec();\n    let b: Vec<u32> = v.iter().copied().collect();\n    let c = format!(\"{{}}\", a.len());\n    drop(c);\n    b\n}}\n",
        hot_marker()
    );
    let found = lines_of("crates/core/src/x.rs", &src, "no-alloc-hot-path");
    assert_eq!(found, vec![3, 4, 5]);
}

#[test]
fn hot_path_region_ends_at_matching_brace() {
    let src = format!(
        "{}pub fn hot(&mut self) {{\n    self.counter += 1;\n}}\n\npub fn cold() -> Vec<u32> {{\n    Vec::new()\n}}\n",
        hot_marker()
    );
    assert!(hits("crates/clustering/src/x.rs", &src).is_empty());
}

#[test]
fn no_marker_means_no_hot_rule() {
    let src = "pub fn anywhere() -> Vec<u32> {\n    Vec::new()\n}\n";
    assert!(lines_of("crates/clustering/src/x.rs", src, "no-alloc-hot-path").is_empty());
}

// ------------------------------------------------------------- unwrap in lib

#[test]
fn unwrap_in_lib_flags_unwrap_and_expect() {
    let src = "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\npub fn g(v: Option<u32>) -> u32 {\n    v.expect(\"present\")\n}\n";
    assert_eq!(
        lines_of("crates/simplify/src/x.rs", src, "no-unwrap-in-lib"),
        vec![2, 5]
    );
}

#[test]
fn unwrap_in_lib_skips_binaries_and_cli() {
    let src = "fn main() {\n    std::env::args().next().unwrap();\n}\n";
    assert!(hits("crates/cli/src/main.rs", src).is_empty());
    assert!(hits("crates/bench/src/bin/sweep.rs", src).is_empty());
}

#[test]
fn unwrap_in_lib_skips_cfg_test_and_string_literals() {
    let src = concat!(
        "pub const DOC: &str = \"call unwrap() at your peril\";\n",
        "pub const RAW: &str = r#\"maybe.unwrap() inside a raw string\"#;\n",
        "#[cfg(test)]\n",
        "mod tests {\n",
        "    #[test]\n",
        "    fn t() { Some(1u32).unwrap(); }\n",
        "}\n",
    );
    assert!(hits("crates/core/src/x.rs", src).is_empty());
}

#[test]
fn unwrap_named_field_access_is_not_a_call() {
    // `unwrap` as a plain identifier (not a method call) should not fire.
    let src = "pub struct S { pub unwrap: u32 }\npub fn f(s: S) -> u32 {\n    s.unwrap\n}\n";
    assert!(hits("crates/core/src/x.rs", src).is_empty());
}

// --------------------------------------------------------------- cast audit

#[test]
fn cast_audit_flags_narrowing_casts() {
    let src = "pub fn f(n: usize) -> u32 {\n    n as u32\n}\n";
    assert_eq!(
        lines_of("crates/clustering/src/x.rs", src, "cast-audit"),
        vec![2]
    );
}

#[test]
fn cast_audit_accepts_widening_casts() {
    let src = "pub fn f(n: u32) -> f64 {\n    let a = n as u64;\n    let b = n as usize;\n    (a + b as u64) as f64\n}\n";
    assert!(hits("crates/core/src/x.rs", src).is_empty());
}

#[test]
fn cast_audit_is_scoped() {
    let src = "pub fn f(n: usize) -> u32 {\n    n as u32\n}\n";
    assert!(hits("crates/datasets/src/x.rs", src).is_empty());
}

// ------------------------------------------------------------ allow machinery

/// Builds an allow comment for `rules` with the given trailing text, without
/// embedding the directive prefix in this file's own comments.
fn allow(rules: &str, reason: &str) -> String {
    format!("// {}{rules}) {reason}", "lint: allow(")
}

#[test]
fn justified_allow_suppresses_the_finding() {
    let src = format!(
        "pub fn f(n: usize) -> u32 {{\n    {}\n    n as u32\n}}\n",
        allow("cast-audit", "— n < 256 by construction")
    );
    assert!(hits("crates/core/src/x.rs", &src).is_empty());
}

#[test]
fn trailing_allow_targets_its_own_line() {
    let src = format!(
        "pub fn f(n: usize) -> u32 {{\n    n as u32 {}\n}}\n",
        allow("cast-audit", "— bounded by the grid size")
    );
    assert!(hits("crates/core/src/x.rs", &src).is_empty());
}

#[test]
fn allow_for_the_wrong_rule_does_not_suppress() {
    let src = format!(
        "pub fn f(n: usize) -> u32 {{\n    {}\n    n as u32\n}}\n",
        allow("no-unwrap-in-lib", "— wrong rule, finding must survive")
    );
    let found = hits("crates/core/src/x.rs", &src);
    assert!(found.contains(&"cast-audit".to_string()), "{found:?}");
    // The mismatched allow is itself stale.
    assert!(found.contains(&"stale-allow".to_string()), "{found:?}");
}

#[test]
fn allow_without_a_reason_is_malformed() {
    let src = format!(
        "pub fn f(n: usize) -> u32 {{\n    {}\n    n as u32\n}}\n",
        allow("cast-audit", "")
    );
    let found = hits("crates/core/src/x.rs", &src);
    assert!(found.contains(&"malformed-allow".to_string()), "{found:?}");
}

#[test]
fn allow_with_unknown_rule_is_malformed() {
    let src = format!(
        "pub fn f() -> u32 {{\n    {}\n    7\n}}\n",
        allow("definitely-not-a-rule", "— typo'd rule name")
    );
    let found = hits("crates/core/src/x.rs", &src);
    assert!(found.contains(&"malformed-allow".to_string()), "{found:?}");
}

#[test]
fn stale_allow_with_nothing_to_suppress_is_reported() {
    let src = format!(
        "{}\npub fn f() -> u32 {{\n    7\n}}\n",
        allow("cast-audit", "— left behind after a refactor")
    );
    let found = hits("crates/core/src/x.rs", &src);
    assert_eq!(found, vec!["stale-allow".to_string()]);
}

#[test]
fn one_allow_can_cover_multiple_rules() {
    let src =
        format!(
        "pub fn f(end_tick: i64, n: usize) -> i64 {{\n    {}\n    end_tick + n as i32 as i64\n}}\n",
        allow("checked-time-arithmetic, cast-audit", "— both justified here")
    );
    assert!(hits("crates/core/src/x.rs", &src).is_empty());
}

// ------------------------------------------------------------------- reports

#[test]
fn findings_carry_file_line_and_snippet() {
    let src = "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n";
    let findings = lint_source("crates/core/src/x.rs", src);
    assert_eq!(findings.len(), 1);
    let f = &findings[0];
    assert_eq!(f.file, "crates/core/src/x.rs");
    assert_eq!(f.line, 2);
    assert_eq!(f.snippet, "v.unwrap()");
    assert!(!f.message.is_empty());
}
