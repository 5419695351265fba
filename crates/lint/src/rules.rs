//! The five repo-specific rules.
//!
//! Each rule walks the code view of a [`FileAnalysis`] and emits raw
//! findings; suppression via inline allow directives and stale-allow
//! detection happen one layer up in [`crate::lint_source`].
//!
//! | rule | guards | scope |
//! |---|---|---|
//! | `checked-time-arithmetic` | bare `+`/`-`/`*`/`+=`/`-=`/`*=` on tick- or nanosecond-named values | `core`, `stream`, `trajectory`, `obs`, `simplify` |
//! | `no-panic-decode` | unwrap/expect/panic!/indexing on untrusted bytes | checkpoint decode + CSV parse |
//! | `no-alloc-hot-path` | allocation constructors in marked hot regions | whole workspace |
//! | `no-unwrap-in-lib` | `.unwrap()`/`.expect()` outside tests | library crates |
//! | `cast-audit` | lossy `as` casts to narrow numeric types | `core`, `clustering`, `stream` |

use crate::analysis::FileAnalysis;
use crate::lexer::TokenKind;

/// All rule names, used for allow-directive validation and `--list-rules`.
pub const RULE_NAMES: &[&str] = &[
    "checked-time-arithmetic",
    "no-panic-decode",
    "no-alloc-hot-path",
    "no-unwrap-in-lib",
    "cast-audit",
];

/// A rule hit before allow-suppression: rule name, 1-based line, message.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// Which rule fired.
    pub rule: &'static str,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

/// Keywords that cannot be a binary operator's left operand; an arithmetic
/// token after one of these is unary (`return -t`) or not arithmetic at all
/// (`as f64 * …` handles itself via the non-match of `f64`).
const UNARY_CONTEXT_KEYWORDS: &[&str] = &[
    "return", "break", "continue", "in", "if", "else", "match", "while", "loop", "let", "move",
    "mut", "ref", "use", "where", "yield", "const", "static", "type", "fn", "impl", "dyn", "pub",
    "unsafe", "async", "await",
];

/// Exact identifiers treated as time-valued.
const TIME_EXACT: &[&str] = &["t", "t0", "t1", "dt", "ts", "start", "end"];

/// Substrings that mark an identifier as time-valued. The `nanos`/
/// `duration`/`elapsed` entries cover the observability layer's wall-clock
/// values, which saturate rather than wrap for the same reason ticks do.
const TIME_SUBSTRINGS: &[&str] = &[
    "tick",
    "time",
    "timestamp",
    "watermark",
    "epoch",
    "horizon",
    "deadline",
    "nanos",
    "duration",
    "elapsed",
];

fn is_time_name(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    TIME_EXACT.contains(&lower.as_str())
        || lower.ends_with("_t")
        || lower.ends_with("_ts")
        || lower.ends_with("_ns")
        || TIME_SUBSTRINGS.iter().any(|s| lower.contains(s))
}

/// **checked-time-arithmetic** — flags bare binary `+`/`-`/`*` and the
/// compound assignments `+=`/`-=`/`*=` where either operand chain contains
/// a tick/timestamp-named identifier. This is the PR 6 bug class
/// (`window.end - h` overflowing at `i64::MIN`-adjacent horizons) and the
/// PR 8 one (`next_t += 1` wrapping at a window ending on `i64::MAX`);
/// checked/saturating methods don't trip it.
pub fn checked_time_arithmetic(a: &FileAnalysis) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for ci in 0..a.code.len() {
        if a.code_in_test(ci) {
            continue;
        }
        let op = a.code_text(ci);
        if !(a.code_kind(ci) == TokenKind::Punct
            && matches!(op, "+" | "-" | "*" | "+=" | "-=" | "*="))
        {
            continue;
        }
        if ci == 0 || !is_binary_position(a, ci) {
            continue;
        }
        let mut names = operand_chain_left(a, ci);
        names.extend(operand_chain_right(a, ci));
        if let Some(name) = names.iter().find(|n| is_time_name(n)) {
            out.push(RawFinding {
                rule: "checked-time-arithmetic",
                line: a.code_token(ci).line,
                message: format!(
                    "bare `{op}` on time-named value `{name}` — use checked_/saturating_ \
                     arithmetic (ticks span the full i64 range)"
                ),
            });
        }
    }
    out
}

/// Whether the `+`/`-`/`*` at code position `ci` is in binary position:
/// preceded by a value-producing token rather than an opening delimiter,
/// another operator, or a keyword that starts an expression.
fn is_binary_position(a: &FileAnalysis, ci: usize) -> bool {
    let prev_kind = a.code_kind(ci - 1);
    let prev = a.code_text(ci - 1);
    match prev_kind {
        TokenKind::Ident => !UNARY_CONTEXT_KEYWORDS.contains(&prev),
        TokenKind::Number | TokenKind::Str | TokenKind::CharLit => true,
        TokenKind::Punct => matches!(prev, ")" | "]" | "?"),
        _ => false,
    }
}

/// Collects the identifier chain feeding the left operand of the operator at
/// `ci`: for `self.window.end -` that is `[end, window, self]`; for a call
/// `candidate.lifetime() -` the matching `(` is skipped so the method name
/// participates.
fn operand_chain_left(a: &FileAnalysis, ci: usize) -> Vec<String> {
    let mut names = Vec::new();
    let mut i = ci;
    // Step over a trailing call/index group to the token before its opener.
    loop {
        if i == 0 {
            return names;
        }
        i -= 1;
        match a.code_text(i) {
            ")" => {
                let Some(open) = match_backward(a, i, "(", ")") else {
                    return names;
                };
                if open == 0 {
                    return names;
                }
                i = open;
            }
            "]" => {
                let Some(open) = match_backward(a, i, "[", "]") else {
                    return names;
                };
                if open == 0 {
                    return names;
                }
                i = open;
            }
            "?" => {}
            _ => break,
        }
    }
    // Now expect `ident ((. | ::) ident)*` walking backwards.
    loop {
        if a.code_kind(i) != TokenKind::Ident {
            break;
        }
        names.push(a.code_text(i).to_string());
        if i >= 2
            && matches!(a.code_text(i - 1), "." | "::")
            && a.code_kind(i - 2) == TokenKind::Ident
        {
            i -= 2;
        } else {
            break;
        }
    }
    names
}

/// Collects the identifier chain of the right operand: `- self.window.start`
/// yields `[self, window, start]`. Leading `&`/`*` borrows are skipped;
/// parenthesized sub-expressions yield nothing (their internal operators are
/// checked independently).
fn operand_chain_right(a: &FileAnalysis, ci: usize) -> Vec<String> {
    let mut names = Vec::new();
    let mut i = ci + 1;
    while i < a.code.len() && matches!(a.code_text(i), "&" | "*" | "mut") {
        i += 1;
    }
    while i < a.code.len() && a.code_kind(i) == TokenKind::Ident {
        names.push(a.code_text(i).to_string());
        if i + 2 < a.code.len()
            && matches!(a.code_text(i + 1), "." | "::")
            && a.code_kind(i + 2) == TokenKind::Ident
        {
            i += 2;
        } else {
            break;
        }
    }
    names
}

/// Finds the opener matching the closer at code position `close`.
fn match_backward(
    a: &FileAnalysis,
    close: usize,
    open_tok: &str,
    close_tok: &str,
) -> Option<usize> {
    let mut depth = 0isize;
    let mut i = close;
    loop {
        let t = a.code_text(i);
        if t == close_tok {
            depth += 1;
        } else if t == open_tok {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
        if i == 0 {
            return None;
        }
        i -= 1;
    }
}

/// Macro names that abort: `panic!`, `unreachable!`, `todo!`,
/// `unimplemented!`.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// **no-panic-decode** — in the byte-decode and CSV-parse paths, flags every
/// way the code could abort on untrusted input: `.unwrap()`, `.expect()`,
/// panicking macros, and slice indexing (`buf[i]`, `buf[a..b]`). These files
/// face arbitrary bytes; every failure must surface as a `Result`.
pub fn no_panic_decode(a: &FileAnalysis) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for ci in 0..a.code.len() {
        if a.code_in_test(ci) {
            continue;
        }
        let text = a.code_text(ci);
        let line = a.code_token(ci).line;
        if is_method_call(a, ci, &["unwrap", "expect"]) {
            out.push(RawFinding {
                rule: "no-panic-decode",
                line,
                message: format!("`.{text}()` in a decode/parse path — return an error instead"),
            });
        } else if a.code_kind(ci) == TokenKind::Ident
            && PANIC_MACROS.contains(&text)
            && ci + 1 < a.code.len()
            && a.code_text(ci + 1) == "!"
        {
            out.push(RawFinding {
                rule: "no-panic-decode",
                line,
                message: format!("`{text}!` in a decode/parse path — return an error instead"),
            });
        } else if text == "[" && ci > 0 {
            // Indexing: `[` directly after a value (identifier, call, or
            // another index). `#[attr]`, array types `[u8; 4]` and array
            // literals follow non-value tokens and don't match.
            let prev_is_value = matches!(a.code_kind(ci - 1), TokenKind::Ident)
                && !UNARY_CONTEXT_KEYWORDS.contains(&a.code_text(ci - 1))
                || matches!(a.code_text(ci - 1), ")" | "]" | "?");
            if prev_is_value {
                out.push(RawFinding {
                    rule: "no-panic-decode",
                    line,
                    message: "slice indexing in a decode/parse path — use `.get()` and \
                              surface truncation as an error"
                        .to_string(),
                });
            }
        }
    }
    out
}

/// Whether code position `ci` is a method call `.name(` with `name` in
/// `names`.
fn is_method_call(a: &FileAnalysis, ci: usize, names: &[&str]) -> bool {
    a.code_kind(ci) == TokenKind::Ident
        && names.contains(&a.code_text(ci))
        && ci > 0
        && a.code_text(ci - 1) == "."
        && ci + 1 < a.code.len()
        && a.code_text(ci + 1) == "("
}

/// Allocating method calls banned in hot regions.
const ALLOC_METHODS: &[&str] = &["clone", "collect", "to_vec", "to_string", "to_owned"];

/// Allocating macros banned in hot regions.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Container types whose constructors allocate (or set up a growable
/// working set) and are banned in hot regions.
const ALLOC_TYPES: &[&str] = &[
    "Vec", "Box", "String", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "VecDeque",
];

/// Constructor names checked on [`ALLOC_TYPES`].
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from"];

/// **no-alloc-hot-path** — inside marked hot-path regions (see
/// [`crate::analysis::HOT_PATH_MARKER`]), flags allocation constructors:
/// `Vec::new`/`with_capacity`, `Box::new`, the vec/format macros,
/// `.clone()`, `.collect()`, `.to_vec()`. The static
/// complement to the counting-allocator test in
/// `crates/clustering/tests/zero_alloc.rs` — the runtime test proves a
/// particular run is clean, this proves the code can't regress quietly.
pub fn no_alloc_hot_path(a: &FileAnalysis) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for ci in 0..a.code.len() {
        if a.code_in_test(ci) || !a.code_in_hot(ci) {
            continue;
        }
        let text = a.code_text(ci);
        let line = a.code_token(ci).line;
        if is_method_call(a, ci, ALLOC_METHODS) {
            out.push(RawFinding {
                rule: "no-alloc-hot-path",
                line,
                message: format!("`.{text}()` allocates inside a `lint: hot-path` region"),
            });
        } else if a.code_kind(ci) == TokenKind::Ident
            && ALLOC_MACROS.contains(&text)
            && ci + 1 < a.code.len()
            && a.code_text(ci + 1) == "!"
        {
            out.push(RawFinding {
                rule: "no-alloc-hot-path",
                line,
                message: format!("`{text}!` allocates inside a `lint: hot-path` region"),
            });
        } else if a.code_kind(ci) == TokenKind::Ident
            && ALLOC_TYPES.contains(&text)
            && ci + 2 < a.code.len()
            && a.code_text(ci + 1) == "::"
            && ALLOC_CTORS.contains(&a.code_text(ci + 2))
        {
            out.push(RawFinding {
                rule: "no-alloc-hot-path",
                line,
                message: format!(
                    "`{text}::{}` constructs a heap container inside a `lint: hot-path` region",
                    a.code_text(ci + 2)
                ),
            });
        }
    }
    out
}

/// **no-unwrap-in-lib** — `.unwrap()`/`.expect()` anywhere outside
/// `#[cfg(test)]` in library code. Library callers must get `Result`s, not
/// aborts; the few justified cases (e.g. joining a worker thread whose
/// panic we *want* to propagate) carry inline allows.
pub fn no_unwrap_in_lib(a: &FileAnalysis) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for ci in 0..a.code.len() {
        if a.code_in_test(ci) {
            continue;
        }
        if is_method_call(a, ci, &["unwrap", "expect"]) {
            out.push(RawFinding {
                rule: "no-unwrap-in-lib",
                line: a.code_token(ci).line,
                message: format!(
                    "`.{}()` in library code outside `#[cfg(test)]` — propagate the error \
                     or justify with an allow",
                    a.code_text(ci)
                ),
            });
        }
    }
    out
}

/// Cast targets that can silently lose value range or precision from the
/// suite's working types (`i64` ticks, `u64` ids, `usize` indexes, `f64`
/// coordinates).
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

/// **cast-audit** — flags `as` casts to narrow numeric types in the engine
/// crates. Widening casts (`as i64`, `as f64`, `as u64`, `as usize`) pass;
/// each narrowing cast must either be rewritten with `try_from`/checked
/// conversion or carry an allow explaining why the value fits.
pub fn cast_audit(a: &FileAnalysis) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for ci in 0..a.code.len() {
        if a.code_in_test(ci) {
            continue;
        }
        if a.code_text(ci) != "as" || a.code_kind(ci) != TokenKind::Ident {
            continue;
        }
        if ci + 1 >= a.code.len() {
            continue;
        }
        let target = a.code_text(ci + 1);
        if NARROW_TARGETS.contains(&target) {
            out.push(RawFinding {
                rule: "cast-audit",
                line: a.code_token(ci).line,
                message: format!(
                    "lossy `as {target}` cast — use `try_from` or justify the value range \
                     with an allow"
                ),
            });
        }
    }
    out
}
