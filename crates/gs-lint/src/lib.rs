//! `gs-lint` — a pure-std static-analysis pass over the workspace sources
//! that enforces the project's determinism & robustness contract at the
//! source level, where the dynamic exactness suites cannot see a hazard
//! until a scene happens to trigger it.
//!
//! The analyzer tokenizes every `.rs` file (it never executes or expands
//! anything) and checks six project-specific rules that clippy cannot
//! express:
//!
//! | rule | hazard |
//! |------|--------|
//! | D001 | unordered `HashMap`/`HashSet` iteration in render/streaming/store/mem modules |
//! | D002 | panic-family calls (`unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!`) in non-test library code outside documented panicking wrappers |
//! | D003 | lock-order cycles in the static acquisition graph (`.lock()`/`.read()`/`.write()`/`lock_unpoisoned`) |
//! | D004 | narrowing `as` casts in the serialization/format modules |
//! | D005 | wall clock (`Instant::now`/`SystemTime`) or `thread::spawn` outside `gs-bench` and the `WorkerPool` internals |
//! | D006 | float accumulation in reduction loops outside the blessed blend kernels (docs/DETERMINISM.md) |
//!
//! A violation can be suppressed only by an inline
//! `// gs-lint: allow(D00x) <reason>` comment on the same line or the
//! line directly above. An allow without a reason suppresses the target
//! but is itself reported (rule `A000`), so the zero-violation gate
//! stays red. See `docs/LINT_RULES.md` for the full catalog.
//!
//! The library is deliberately panic-free: it is linted by itself (and by
//! the workspace-wide `clippy::unwrap_used`/`expect_used` deny).

use std::collections::{BTreeMap, BTreeSet};

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

/// Token classes the rules care about. Literal *content* is opaque to every
/// rule (a doc example or fixture string can never trip a lint).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TokKind {
    Ident,
    Punct,
    Num,
    Str,
    Char,
    Life,
}

/// One source token with its starting line (1-based).
#[derive(Clone, Debug)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

/// One comment (line or block). `line..=end_line` is the physical span;
/// allow directives anchor at `end_line` so a directive directly above a
/// statement covers it.
#[derive(Clone, Debug)]
pub struct Comment {
    pub line: u32,
    pub end_line: u32,
    pub text: String,
}

/// Tokenizes Rust source into rule-relevant tokens plus the comment list.
/// Handles nested block comments, (raw/byte) string literals, char
/// literals vs lifetimes, and numeric literals. Never panics; on malformed
/// input it degrades to single-char punct tokens.
pub fn tokenize(src: &str) -> (Vec<Tok>, Vec<Comment>) {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut toks: Vec<Tok> = Vec::new();
    let mut comments: Vec<Comment> = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment (including `///` and `//!`).
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            let start = i;
            while i < n && chars[i] != '\n' {
                i += 1;
            }
            comments.push(Comment {
                line,
                end_line: line,
                text: chars[start..i].iter().collect(),
            });
            continue;
        }
        // Block comment, possibly nested.
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let start = i;
            let start_line = line;
            let mut depth = 1usize;
            i += 2;
            while i < n && depth > 0 {
                if chars[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            comments.push(Comment {
                line: start_line,
                end_line: line,
                text: chars[start..i.min(n)].iter().collect(),
            });
            continue;
        }
        // Raw / byte string forms: r"..", r#".."#, b"..", br#".."#.
        if (c == 'r' || c == 'b') && looks_like_string_prefix(&chars, i) {
            let start_line = line;
            let (end, nl) = lex_prefixed_string(&chars, i, line);
            toks.push(Tok {
                kind: TokKind::Str,
                text: chars[i..end.min(n)].iter().collect(),
                line: start_line,
            });
            line = nl;
            i = end;
            continue;
        }
        if c == '"' {
            let start_line = line;
            let (end, nl) = lex_quoted(&chars, i, line);
            toks.push(Tok {
                kind: TokKind::Str,
                text: chars[i..end.min(n)].iter().collect(),
                line: start_line,
            });
            line = nl;
            i = end;
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            if i + 1 < n && chars[i + 1] == '\\' {
                // Escaped char literal: scan to the closing quote.
                let start = i;
                let mut j = i + 2;
                if j < n {
                    j += 1; // the escaped char itself
                }
                while j < n && chars[j] != '\'' && chars[j] != '\n' {
                    j += 1;
                }
                let end = (j + 1).min(n);
                toks.push(Tok {
                    kind: TokKind::Char,
                    text: chars[start..end].iter().collect(),
                    line,
                });
                i = end;
                continue;
            }
            if i + 2 < n && chars[i + 2] == '\'' && chars[i + 1] != '\'' {
                toks.push(Tok {
                    kind: TokKind::Char,
                    text: chars[i..i + 3].iter().collect(),
                    line,
                });
                i += 3;
                continue;
            }
            if i + 1 < n && (chars[i + 1].is_alphabetic() || chars[i + 1] == '_') {
                let start = i;
                let mut j = i + 1;
                while j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Life,
                    text: chars[start..j].iter().collect(),
                    line,
                });
                i = j;
                continue;
            }
            toks.push(Tok {
                kind: TokKind::Punct,
                text: "'".into(),
                line,
            });
            i += 1;
            continue;
        }
        // Number.
        if c.is_ascii_digit() {
            let start = i;
            let mut j = i + 1;
            while j < n {
                let d = chars[j];
                if d.is_ascii_alphanumeric()
                    || d == '_'
                    || (d == '.' && j + 1 < n && chars[j + 1].is_ascii_digit())
                {
                    j += 1;
                } else {
                    break;
                }
            }
            toks.push(Tok {
                kind: TokKind::Num,
                text: chars[start..j].iter().collect(),
                line,
            });
            i = j;
            continue;
        }
        // Identifier / keyword.
        if c.is_alphabetic() || c == '_' {
            let start = i;
            let mut j = i + 1;
            while j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
                j += 1;
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text: chars[start..j].iter().collect(),
                line,
            });
            i = j;
            continue;
        }
        // `::` is the one multi-char punct the rules pattern-match on.
        if c == ':' && i + 1 < n && chars[i + 1] == ':' {
            toks.push(Tok {
                kind: TokKind::Punct,
                text: "::".into(),
                line,
            });
            i += 2;
            continue;
        }
        toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    (toks, comments)
}

/// True when `chars[i..]` starts a raw/byte string prefix (`r"`, `r#`,
/// `b"`, `br"`, `br#`) rather than a plain identifier.
fn looks_like_string_prefix(chars: &[char], i: usize) -> bool {
    let n = chars.len();
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
        if j < n && chars[j] == '"' {
            return true; // b"…"
        }
    }
    if j < n && chars[j] == 'r' {
        j += 1;
        while j < n && chars[j] == '#' {
            j += 1;
        }
        return j < n && chars[j] == '"';
    }
    false
}

/// Lexes a raw/byte string starting at `i`; returns (end index, new line).
fn lex_prefixed_string(chars: &[char], i: usize, mut line: u32) -> (usize, u32) {
    let n = chars.len();
    let mut j = i;
    if j < n && chars[j] == 'b' {
        j += 1;
    }
    let raw = j < n && chars[j] == 'r';
    if raw {
        j += 1;
    }
    let mut hashes = 0usize;
    while j < n && chars[j] == '#' {
        hashes += 1;
        j += 1;
    }
    if j >= n || chars[j] != '"' {
        return (i + 1, line); // not actually a string; treat as one char
    }
    j += 1;
    if !raw {
        // b"…" — ordinary escapes apply.
        while j < n {
            match chars[j] {
                '\\' => j += 2,
                '"' => return (j + 1, line),
                '\n' => {
                    line += 1;
                    j += 1;
                }
                _ => j += 1,
            }
        }
        return (n, line);
    }
    // Raw string: ends at `"` followed by `hashes` hash marks.
    while j < n {
        if chars[j] == '\n' {
            line += 1;
            j += 1;
            continue;
        }
        if chars[j] == '"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while k < n && seen < hashes && chars[k] == '#' {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return (k, line);
            }
        }
        j += 1;
    }
    (n, line)
}

/// Lexes a plain `"…"` string starting at `i`; returns (end index, line).
fn lex_quoted(chars: &[char], i: usize, mut line: u32) -> (usize, u32) {
    let n = chars.len();
    let mut j = i + 1;
    while j < n {
        match chars[j] {
            '\\' => j += 2,
            '"' => return (j + 1, line),
            '\n' => {
                line += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    (n, line)
}

// ---------------------------------------------------------------------------
// Report types
// ---------------------------------------------------------------------------

/// One rule violation at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Rule id: `D001`..`D006`, or `A000` for a bad allow directive.
    pub rule: &'static str,
    pub path: String,
    pub line: u32,
    pub msg: String,
}

/// Aggregated result of a whole lint run.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    pub files: usize,
    pub violations: Vec<Violation>,
    /// Allow directives that suppressed at least one violation.
    pub allows_used: usize,
    /// Allow directives missing a reason (each also appears as an `A000`
    /// violation).
    pub unjustified_allows: usize,
}

impl LintReport {
    /// The CI gate: zero violations (which implies zero unjustified
    /// allows, since those are violations too).
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Per-rule violation counts, every rule id always present.
    pub fn by_rule(&self) -> BTreeMap<&'static str, usize> {
        let mut m: BTreeMap<&'static str, usize> = [
            ("D001", 0),
            ("D002", 0),
            ("D003", 0),
            ("D004", 0),
            ("D005", 0),
            ("D006", 0),
            ("A000", 0),
        ]
        .into_iter()
        .collect();
        for v in &self.violations {
            *m.entry(v.rule).or_insert(0) += 1;
        }
        m
    }

    /// Human-readable report, one line per violation plus a summary.
    pub fn human(&self) -> String {
        let mut s = String::new();
        for v in &self.violations {
            s.push_str(&format!("{}:{} [{}] {}\n", v.path, v.line, v.rule, v.msg));
        }
        let by = self.by_rule();
        let counts: Vec<String> = by.iter().map(|(r, c)| format!("{r}={c}")).collect();
        s.push_str(&format!(
            "gs-lint: {} file(s), {} violation(s) [{}], {} allow(s) used, {} unjustified allow(s)\n",
            self.files,
            self.violations.len(),
            counts.join(" "),
            self.allows_used,
            self.unjustified_allows,
        ));
        s
    }

    /// Machine-readable single-line summary for CI artifact persistence.
    pub fn json_line(&self) -> String {
        let by = self.by_rule();
        let rules: Vec<String> = by.iter().map(|(r, c)| format!("\"{r}\":{c}")).collect();
        format!(
            "LINT_JSON {{\"files\":{},\"violations\":{},\"by_rule\":{{{}}},\"allows_used\":{},\"unjustified_allows\":{},\"lint_ok\":{}}}",
            self.files,
            self.violations.len(),
            rules.join(","),
            self.allows_used,
            self.unjustified_allows,
            self.ok(),
        )
    }
}

// ---------------------------------------------------------------------------
// Allow directives
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
struct Allow {
    rule: String,
    path: String,
    /// Anchor line: the comment's last physical line, so a directive on
    /// the line above a statement covers it.
    line: u32,
    justified: bool,
}

const RULE_IDS: [&str; 6] = ["D001", "D002", "D003", "D004", "D005", "D006"];

/// Parses `gs-lint: allow(D00x) <reason>` directives out of the comment
/// list. Malformed directives and unknown rule ids become `A000`
/// violations immediately.
fn parse_allows(path: &str, comments: &[Comment], out: &mut Vec<Violation>) -> Vec<Allow> {
    let mut allows = Vec::new();
    for c in comments {
        // Directives live in plain `//` / `/* */` comments only; doc
        // comments merely *describe* the syntax.
        let t = c.text.trim_start();
        if t.starts_with("///")
            || t.starts_with("//!")
            || t.starts_with("/**")
            || t.starts_with("/*!")
        {
            continue;
        }
        let Some(at) = c.text.find("gs-lint:") else {
            continue;
        };
        let rest = c.text[at + "gs-lint:".len()..].trim_start();
        let Some(inner) = rest.strip_prefix("allow(") else {
            out.push(Violation {
                rule: "A000",
                path: path.to_string(),
                line: c.end_line,
                msg: "malformed gs-lint directive (expected `gs-lint: allow(D00x) <reason>`)"
                    .into(),
            });
            continue;
        };
        let Some(close) = inner.find(')') else {
            out.push(Violation {
                rule: "A000",
                path: path.to_string(),
                line: c.end_line,
                msg: "unterminated gs-lint allow directive".into(),
            });
            continue;
        };
        let rule = inner[..close].trim().to_string();
        if !RULE_IDS.contains(&rule.as_str()) {
            out.push(Violation {
                rule: "A000",
                path: path.to_string(),
                line: c.end_line,
                msg: format!("unknown rule `{rule}` in gs-lint allow directive"),
            });
            continue;
        }
        let mut reason = inner[close + 1..].trim();
        if let Some(stripped) = reason.strip_suffix("*/") {
            reason = stripped.trim();
        }
        let justified = !reason.is_empty();
        if !justified {
            out.push(Violation {
                rule: "A000",
                path: path.to_string(),
                line: c.end_line,
                msg: format!("allow({rule}) without a reason — state why the site is safe"),
            });
        }
        allows.push(Allow {
            rule,
            path: path.to_string(),
            line: c.end_line,
            justified,
        });
    }
    allows
}

// ---------------------------------------------------------------------------
// File classification & structural pre-passes
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
struct Scope {
    crate_name: String,
    /// Test-class file: under `tests/`, `benches/`, `examples/`, or a
    /// `tests.rs` / `build.rs` leaf. Exempt from every code rule.
    is_test: bool,
    rel: String,
}

fn classify(path: &str) -> Scope {
    let rel = path.replace('\\', "/");
    let segs: Vec<&str> = rel.split('/').collect();
    let crate_name = segs
        .iter()
        .position(|s| *s == "crates")
        .and_then(|p| segs.get(p + 1))
        .map_or_else(|| "streaminggs".to_string(), |s| (*s).to_string());
    let leaf = segs.last().copied().unwrap_or("");
    let is_test = segs
        .iter()
        .any(|s| *s == "tests" || *s == "benches" || *s == "examples")
        || leaf == "tests.rs"
        || leaf == "build.rs";
    Scope {
        crate_name,
        is_test,
        rel,
    }
}

fn is_punct(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Punct && t.text == s
}

fn is_ident(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Ident && t.text == s
}

/// Returns the token index just past the `}` matching the `{` at `open`.
fn match_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    let mut i = open;
    while i < toks.len() {
        if is_punct(&toks[i], "{") {
            depth += 1;
        } else if is_punct(&toks[i], "}") {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    toks.len()
}

/// Token-index ranges of items gated behind `#[test]`, `#[bench]`, or any
/// `#[cfg(… test …)]` attribute (excluding `cfg(not(test))`).
fn test_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !(is_punct(&toks[i], "#") && i + 1 < toks.len() && is_punct(&toks[i + 1], "[")) {
            i += 1;
            continue;
        }
        // Scan the attribute contents to its matching `]`.
        let mut j = i + 2;
        let mut depth = 1i64;
        let mut has_test = false;
        let mut has_not = false;
        while j < toks.len() && depth > 0 {
            let t = &toks[j];
            if is_punct(t, "[") {
                depth += 1;
            } else if is_punct(t, "]") {
                depth -= 1;
            } else if t.kind == TokKind::Ident {
                match t.text.as_str() {
                    "test" | "bench" => has_test = true,
                    "not" => has_not = true,
                    _ => {}
                }
            }
            j += 1;
        }
        if !has_test || has_not {
            i = j.max(i + 1);
            continue;
        }
        // The attribute gates the next item: everything up to the end of
        // the first braced block, or the first `;` if the item has none.
        let mut k = j;
        let mut end = j;
        while k < toks.len() {
            if is_punct(&toks[k], ";") {
                end = k + 1;
                break;
            }
            if is_punct(&toks[k], "{") {
                end = match_brace(toks, k);
                break;
            }
            k += 1;
        }
        if k >= toks.len() {
            end = toks.len();
        }
        out.push((i, end));
        i = end.max(i + 1);
    }
    out
}

fn in_ranges(i: usize, ranges: &[(usize, usize)]) -> bool {
    ranges.iter().any(|&(a, b)| i >= a && i < b)
}

#[derive(Clone, Debug)]
struct FnSpan {
    name: String,
    /// Line of the `fn` keyword.
    line: u32,
    /// Token range of the body, `{` inclusive .. past-`}` exclusive.
    body: (usize, usize),
    /// The doc comment block above the fn has a `# Panics` section:
    /// this is a *documented panicking wrapper*, exempt from D002.
    doc_panics: bool,
}

/// All function bodies, with `# Panics`-documented wrappers marked.
fn fn_spans(toks: &[Tok], comments: &[Comment]) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !is_ident(&toks[i], "fn") {
            i += 1;
            continue;
        }
        let name = toks
            .get(i + 1)
            .filter(|t| t.kind == TokKind::Ident)
            .map_or_else(String::new, |t| t.text.clone());
        let mut k = i + 1;
        let mut body = None;
        while k < toks.len() {
            if is_punct(&toks[k], ";") {
                break; // bodyless declaration (trait method, extern)
            }
            if is_punct(&toks[k], "{") {
                body = Some((k, match_brace(toks, k)));
                break;
            }
            k += 1;
        }
        if let Some(b) = body {
            spans.push(FnSpan {
                name,
                line: toks[i].line,
                body: b,
                doc_panics: false,
            });
            // Continue scanning *inside* the body too (nested fns), so do
            // not jump past it.
        }
        i += 1;
    }
    // Attach `# Panics` doc sections: a doc comment documents the first
    // fn that starts after it.
    for c in comments {
        let text = c.text.trim_start();
        if !(text.starts_with("///") && c.text.contains("# Panics")) {
            continue;
        }
        if let Some(f) = spans
            .iter_mut()
            .filter(|f| f.line > c.end_line)
            .min_by_key(|f| f.line)
        {
            f.doc_panics = true;
        }
    }
    spans
}

// ---------------------------------------------------------------------------
// Rules D001 / D002 / D004 / D005 / D006 (per-file)
// ---------------------------------------------------------------------------

const D001_CRATES: [&str; 5] = ["gs-render", "gs-voxel", "gs-mem", "gs-serve", "streaminggs"];
const D001_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

fn rule_d001(scope: &Scope, toks: &[Tok], tests: &[(usize, usize)], out: &mut Vec<Violation>) {
    if scope.is_test || !D001_CRATES.contains(&scope.crate_name.as_str()) {
        return;
    }
    // Pass 1: names bound to a HashMap/HashSet, via a `name: HashMap<…>`
    // annotation (field or let) or a `name = HashMap::new()`-style
    // constructor.
    let mut hash_names: BTreeSet<&str> = BTreeSet::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") && i >= 2 {
            let before = &toks[i - 1];
            let named = &toks[i - 2];
            if (is_punct(before, ":") || is_punct(before, "=")) && named.kind == TokKind::Ident {
                hash_names.insert(named.text.as_str());
            }
        }
    }
    if hash_names.is_empty() {
        return;
    }
    // Pass 2: iteration over those names.
    for i in 0..toks.len() {
        if in_ranges(i, tests) {
            continue;
        }
        // `name.iter()` / `.keys()` / `.drain()` / …
        if is_punct(&toks[i], ".")
            && i >= 1
            && i + 2 < toks.len()
            && toks[i + 1].kind == TokKind::Ident
            && D001_METHODS.contains(&toks[i + 1].text.as_str())
            && is_punct(&toks[i + 2], "(")
            && toks[i - 1].kind == TokKind::Ident
            && hash_names.contains(toks[i - 1].text.as_str())
        {
            out.push(Violation {
                rule: "D001",
                path: scope.rel.clone(),
                line: toks[i + 1].line,
                msg: format!(
                    "unordered iteration: `{}.{}()` on a HashMap/HashSet — use a BTreeMap, \
                     a sorted snapshot, or an index-ordered structure",
                    toks[i - 1].text,
                    toks[i + 1].text
                ),
            });
        }
        // `for … in &name {` / `for … in name {`
        if is_ident(&toks[i], "for") {
            let mut j = i + 1;
            while j < toks.len() && !is_ident(&toks[j], "in") && !is_punct(&toks[j], "{") {
                j += 1;
            }
            if j < toks.len() && is_ident(&toks[j], "in") {
                let mut k = j + 1;
                while k < toks.len() && (is_punct(&toks[k], "&") || is_ident(&toks[k], "mut")) {
                    k += 1;
                }
                if k + 1 < toks.len()
                    && toks[k].kind == TokKind::Ident
                    && hash_names.contains(toks[k].text.as_str())
                    && is_punct(&toks[k + 1], "{")
                {
                    out.push(Violation {
                        rule: "D001",
                        path: scope.rel.clone(),
                        line: toks[k].line,
                        msg: format!(
                            "unordered iteration: `for … in {}` over a HashMap/HashSet",
                            toks[k].text
                        ),
                    });
                }
            }
        }
    }
}

fn rule_d002(
    scope: &Scope,
    toks: &[Tok],
    tests: &[(usize, usize)],
    fns: &[FnSpan],
    out: &mut Vec<Violation>,
) {
    if scope.is_test {
        return;
    }
    let panic_bodies: Vec<(usize, usize)> = fns
        .iter()
        .filter(|f| f.doc_panics)
        .map(|f| f.body)
        .collect();
    for i in 0..toks.len() {
        if in_ranges(i, tests) || in_ranges(i, &panic_bodies) {
            continue;
        }
        if is_punct(&toks[i], ".")
            && i + 2 < toks.len()
            && toks[i + 1].kind == TokKind::Ident
            && (toks[i + 1].text == "unwrap" || toks[i + 1].text == "expect")
            && is_punct(&toks[i + 2], "(")
        {
            out.push(Violation {
                rule: "D002",
                path: scope.rel.clone(),
                line: toks[i + 1].line,
                msg: format!(
                    "`.{}()` in library code — propagate the error, or document the wrapper \
                     with a `# Panics` section",
                    toks[i + 1].text
                ),
            });
        }
        if toks[i].kind == TokKind::Ident
            && matches!(toks[i].text.as_str(), "panic" | "todo" | "unimplemented")
            && i + 1 < toks.len()
            && is_punct(&toks[i + 1], "!")
        {
            out.push(Violation {
                rule: "D002",
                path: scope.rel.clone(),
                line: toks[i].line,
                msg: format!(
                    "`{}!` in library code outside a documented panicking wrapper",
                    toks[i].text
                ),
            });
        }
    }
}

const D004_FILES: [&str; 4] = [
    "crates/gs-voxel/src/store.rs",
    "crates/gs-mem/src/crc.rs",
    "crates/gs-vq/src/quantizer.rs",
    "crates/gs-vq/src/codebook.rs",
];
const D004_NARROW: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

fn d004_in_scope(rel: &str) -> bool {
    D004_FILES.iter().any(|f| rel.ends_with(f)) || rel.contains("gs-voxel/src/store/")
}

fn rule_d004(scope: &Scope, toks: &[Tok], tests: &[(usize, usize)], out: &mut Vec<Violation>) {
    if scope.is_test || !d004_in_scope(&scope.rel) {
        return;
    }
    for i in 0..toks.len() {
        if in_ranges(i, tests) {
            continue;
        }
        if is_ident(&toks[i], "as")
            && i + 1 < toks.len()
            && toks[i + 1].kind == TokKind::Ident
            && D004_NARROW.contains(&toks[i + 1].text.as_str())
        {
            out.push(Violation {
                rule: "D004",
                path: scope.rel.clone(),
                line: toks[i].line,
                msg: format!(
                    "`as {}` in a serialization/format module — a silent truncation corrupts \
                     the scene image; use `try_from`/`from` or justify the bound",
                    toks[i + 1].text
                ),
            });
        }
    }
}

fn rule_d005(scope: &Scope, toks: &[Tok], tests: &[(usize, usize)], out: &mut Vec<Violation>) {
    if scope.is_test
        || scope.crate_name == "gs-bench"
        || scope.rel.ends_with("gs-render/src/pool.rs")
    {
        return;
    }
    for i in 0..toks.len() {
        if in_ranges(i, tests) || toks[i].kind != TokKind::Ident {
            continue;
        }
        let double_colon = |at: usize, name: &str| {
            at + 2 < toks.len() && is_punct(&toks[at + 1], "::") && is_ident(&toks[at + 2], name)
        };
        if toks[i].text == "Instant" && double_colon(i, "now") {
            out.push(Violation {
                rule: "D005",
                path: scope.rel.clone(),
                line: toks[i].line,
                msg: "`Instant::now()` outside gs-bench — wall clock makes output \
                      timing-dependent"
                    .into(),
            });
        }
        if toks[i].text == "SystemTime" {
            out.push(Violation {
                rule: "D005",
                path: scope.rel.clone(),
                line: toks[i].line,
                msg: "`SystemTime` outside gs-bench — wall clock makes output nondeterministic"
                    .into(),
            });
        }
        if toks[i].text == "thread" && double_colon(i, "spawn") {
            out.push(Violation {
                rule: "D005",
                path: scope.rel.clone(),
                line: toks[i].line,
                msg: "`thread::spawn` outside the WorkerPool — route parallelism through \
                      the pool so worker count stays a rendering-invariant"
                    .into(),
            });
        }
    }
}

/// Crates whose float-summation order is part of the determinism contract:
/// a reordered reduction changes output bytes, so every float accumulation
/// loop there must be a blessed blend kernel or carry a justified allow.
const D006_CRATES: [&str; 5] = [
    "gs-core",
    "gs-render",
    "gs-voxel",
    "gs-serve",
    "streaminggs",
];

/// The blessed blend kernels — the only functions permitted to `+=`-reduce
/// floats inside a loop without an inline allow. Each entry is
/// (workspace-relative path suffix, fn name); the list is mirrored (with
/// the *why*) in `docs/DETERMINISM.md`, so additions must touch both.
const D006_BLESSED: [(&str, &str); 2] = [
    ("gs-voxel/src/streaming.rs", "blend"),
    ("gs-render/src/rasterize.rs", "rasterize_tile"),
];

/// Float scalar/vector types whose bindings seed the D006 name set.
const D006_FLOAT_TYPES: [&str; 4] = ["f32", "f64", "Vec2", "Vec3"];

/// Token-index ranges of `for`/`while`/`loop` bodies (brace inclusive).
/// Braces nested in the loop *head* (closure bodies in iterator chains)
/// are skipped; `impl Trait for Type` is filtered out by requiring an
/// `in` keyword before a `for` body.
fn loop_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        let is_for = is_ident(t, "for");
        if !(is_for || is_ident(t, "while") || is_ident(t, "loop")) {
            continue;
        }
        let mut depth = 0i64;
        let mut seen_in = false;
        let mut j = i + 1;
        while j < toks.len() {
            let u = &toks[j];
            if is_punct(u, "(") || is_punct(u, "[") {
                depth += 1;
            } else if is_punct(u, ")") || is_punct(u, "]") {
                depth -= 1;
            } else if is_ident(u, "in") && depth == 0 {
                seen_in = true;
            } else if is_punct(u, "{") {
                if depth == 0 {
                    // `for` without `in` is `impl … for …` / an HRTB, not
                    // a loop; its brace is an item body, not a loop body.
                    if !is_for || seen_in {
                        out.push((j, match_brace(toks, j)));
                    }
                    break;
                }
                // Closure body inside the head: step over it whole.
                j = match_brace(toks, j);
                continue;
            } else if is_punct(u, ";") && depth == 0 {
                break;
            }
            j += 1;
        }
    }
    out
}

/// A float literal token: decimal point, `f32`/`f64` suffix, or exponent
/// form (`1e6` — the tokenizer splits `1e-3` into `1e`, `-`, `3`, so the
/// mantissa token still carries the `e`). The exponent test requires the
/// `e`/`E` to directly follow the digits with only digits after it, so
/// integer suffixes (`0usize`) and hex digits (`0xEE`) don't match.
fn is_float_lit(t: &Tok) -> bool {
    if t.kind != TokKind::Num {
        return false;
    }
    let s = t.text.as_str();
    if s.starts_with("0x") || s.starts_with("0X") {
        return false;
    }
    if s.contains('.') || s.contains("f32") || s.contains("f64") {
        return true;
    }
    let mantissa = s.trim_start_matches(|c: char| c.is_ascii_digit() || c == '_');
    let mut exp = mantissa.chars();
    matches!(exp.next(), Some('e' | 'E')) && exp.all(|c| c.is_ascii_digit() || c == '_')
}

/// Pass 1 of D006: names bound to a float scalar/vector, via a type
/// annotation (`acc: f32`, `out: &mut [Vec3]`, `color: Vec<Vec3>` — the
/// walk-back skips reference/container wrappers), a float-literal
/// initialization (`let mut acc = 0.0`, `= -0.5`, `= 1e6`), or a flat
/// tuple binding whose element carries a float literal
/// (`let (mut a, b) = (0.0f32, other)`).
fn d006_float_names(toks: &[Tok]) -> BTreeSet<&str> {
    let mut names: BTreeSet<&str> = BTreeSet::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Ident && D006_FLOAT_TYPES.contains(&t.text.as_str()) {
            let mut j = i;
            while j > 0 {
                let u = &toks[j - 1];
                let wrapper = is_punct(u, "&")
                    || is_punct(u, "<")
                    || is_punct(u, "[")
                    || is_ident(u, "mut")
                    || is_ident(u, "Vec")
                    || is_ident(u, "Box")
                    || is_ident(u, "Arc");
                if !wrapper {
                    break;
                }
                j -= 1;
            }
            if j >= 2 && is_punct(&toks[j - 1], ":") && toks[j - 2].kind == TokKind::Ident {
                names.insert(toks[j - 2].text.as_str());
            }
        }
        // Inferred bindings: `acc = 1.0`, `= 1.0f32`, `= 1e6`, `= -0.5` —
        // the initializer literal types the name. (`+=` spells `+`, `=`
        // in this token stream and `==` spells `=`, `=`, so neither can
        // bind a name here: the token left of the `=` must be an ident.)
        if is_float_lit(t) && i >= 2 {
            let j = if is_punct(&toks[i - 1], "-") {
                i - 1
            } else {
                i
            };
            if j >= 2 && is_punct(&toks[j - 1], "=") && toks[j - 2].kind == TokKind::Ident {
                names.insert(toks[j - 2].text.as_str());
            }
        }
    }
    // Tuple-bound accumulators: `let (mut a, b) = (0.0, next())`. Flat
    // tuple patterns are matched positionally against the initializer
    // elements; a name binds when its element carries a float literal
    // anywhere (a conservative over-approximation — the name only
    // matters if it is later `+=`-reduced inside a loop). Nested
    // patterns are skipped: positional matching would misalign.
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if !is_ident(&toks[i], "let") || !is_punct(&toks[i + 1], "(") {
            i += 1;
            continue;
        }
        let mut pat_names: Vec<&str> = Vec::new();
        let mut j = i + 2;
        let mut flat = true;
        while j < toks.len() && !is_punct(&toks[j], ")") {
            let t = &toks[j];
            if is_punct(t, "(") || is_punct(t, "[") {
                flat = false;
                break;
            }
            if t.kind == TokKind::Ident && !is_ident(t, "mut") && !is_ident(t, "ref") {
                pat_names.push(t.text.as_str());
            }
            j += 1;
        }
        if !flat
            || j + 2 >= toks.len()
            || !is_punct(&toks[j + 1], "=")
            || !is_punct(&toks[j + 2], "(")
        {
            i += 1;
            continue;
        }
        let mut depth = 1i64;
        let mut elem = 0usize;
        let mut k = j + 3;
        while k < toks.len() && depth > 0 {
            let t = &toks[k];
            if is_punct(t, "(") || is_punct(t, "[") || is_punct(t, "{") {
                depth += 1;
            } else if is_punct(t, ")") || is_punct(t, "]") || is_punct(t, "}") {
                depth -= 1;
            } else if is_punct(t, ",") && depth == 1 {
                elem += 1;
            } else if is_float_lit(t) {
                if let Some(name) = pat_names.get(elem) {
                    names.insert(name);
                }
            }
            k += 1;
        }
        i = k;
    }
    names
}

fn rule_d006(
    scope: &Scope,
    toks: &[Tok],
    tests: &[(usize, usize)],
    fns: &[FnSpan],
    out: &mut Vec<Violation>,
) {
    if scope.is_test || !D006_CRATES.contains(&scope.crate_name.as_str()) {
        return;
    }
    let names = d006_float_names(toks);
    if names.is_empty() {
        return;
    }
    let loops = loop_ranges(toks);
    if loops.is_empty() {
        return;
    }
    let blessed: Vec<(usize, usize)> = fns
        .iter()
        .filter(|f| {
            D006_BLESSED
                .iter()
                .any(|(suffix, name)| scope.rel.ends_with(suffix) && f.name == *name)
        })
        .map(|f| f.body)
        .collect();
    for i in 0..toks.len() {
        // `+=` / `-=` arrive as two adjacent punct tokens.
        let op = if is_punct(&toks[i], "+") {
            "+"
        } else if is_punct(&toks[i], "-") {
            "-"
        } else {
            continue;
        };
        if i + 1 >= toks.len() || !is_punct(&toks[i + 1], "=") {
            continue;
        }
        if !in_ranges(i, &loops) || in_ranges(i, tests) || in_ranges(i, &blessed) {
            continue;
        }
        // Receiver base: the identifier left of the operator, stepping
        // back over index groups (`scores[i] +=`, `acc[p][q] +=`).
        let mut j = i;
        while j > 0 && is_punct(&toks[j - 1], "]") {
            let mut depth = 0i64;
            let mut k = j - 1;
            loop {
                if is_punct(&toks[k], "]") {
                    depth += 1;
                } else if is_punct(&toks[k], "[") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if k == 0 {
                    break;
                }
                k -= 1;
            }
            if depth != 0 {
                break;
            }
            j = k;
        }
        if j == 0 {
            continue;
        }
        let recv = &toks[j - 1];
        if recv.kind != TokKind::Ident || !names.contains(recv.text.as_str()) {
            continue;
        }
        out.push(Violation {
            rule: "D006",
            path: scope.rel.clone(),
            line: toks[i].line,
            msg: format!(
                "float accumulation: `{}` is `{}=`-reduced inside a loop — summation order \
                 is part of the determinism contract; keep reductions in the blessed blend \
                 kernels (docs/DETERMINISM.md) or justify the fixed order with an allow",
                recv.text, op
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// Rule D003 (cross-file, per-crate lock-order graph)
// ---------------------------------------------------------------------------

const D003_METHODS: [&str; 3] = ["lock", "read", "write"];

#[derive(Clone, Debug)]
struct LockSeq {
    crate_name: String,
    path: String,
    fn_name: String,
    /// Acquisition order: (lock name, line).
    seq: Vec<(String, u32)>,
}

/// Per-function ordered lock-acquisition sequences. Zero-argument
/// `.lock()`/`.read()`/`.write()` calls (the zero-arg form distinguishes
/// sync primitives from `io::Read`/`io::Write`) plus `lock_unpoisoned(…)`
/// calls; the lock's name is the last path component of the receiver.
fn collect_locks(
    scope: &Scope,
    toks: &[Tok],
    fns: &[FnSpan],
    tests: &[(usize, usize)],
) -> Vec<LockSeq> {
    if scope.is_test {
        return Vec::new();
    }
    let mut out = Vec::new();
    for f in fns {
        let (b0, b1) = f.body;
        let mut seq: Vec<(String, u32)> = Vec::new();
        let mut i = b0;
        while i < b1.min(toks.len()) {
            if in_ranges(i, tests) {
                i += 1;
                continue;
            }
            if is_punct(&toks[i], ".")
                && i >= 1
                && i + 3 < toks.len()
                && toks[i + 1].kind == TokKind::Ident
                && D003_METHODS.contains(&toks[i + 1].text.as_str())
                && is_punct(&toks[i + 2], "(")
                && is_punct(&toks[i + 3], ")")
                && matches!(toks[i - 1].kind, TokKind::Ident | TokKind::Num)
            {
                seq.push((toks[i - 1].text.clone(), toks[i + 1].line));
                i += 4;
                continue;
            }
            if is_ident(&toks[i], "lock_unpoisoned")
                && i + 1 < toks.len()
                && is_punct(&toks[i + 1], "(")
            {
                // Name = last ident/number inside the call's parens.
                let mut depth = 0i64;
                let mut j = i + 1;
                let mut name: Option<(String, u32)> = None;
                while j < toks.len() {
                    if is_punct(&toks[j], "(") {
                        depth += 1;
                    } else if is_punct(&toks[j], ")") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else if matches!(toks[j].kind, TokKind::Ident | TokKind::Num) {
                        name = Some((toks[j].text.clone(), toks[j].line));
                    }
                    j += 1;
                }
                if let Some(n) = name {
                    seq.push(n);
                }
                i = (j + 1).max(i + 1);
                continue;
            }
            i += 1;
        }
        if seq.len() >= 2 {
            out.push(LockSeq {
                crate_name: scope.crate_name.clone(),
                path: scope.rel.clone(),
                fn_name: f.name.clone(),
                seq,
            });
        }
    }
    out
}

/// Edge in the acquisition graph: `from` acquired before `to`.
#[derive(Clone, Debug)]
struct LockEdge {
    from: String,
    to: String,
    path: String,
    line: u32,
    fn_name: String,
}

/// Builds the per-crate acquisition graphs and reports every edge that
/// participates in a cycle (a static deadlock hazard).
fn rule_d003(seqs: &[LockSeq], out: &mut Vec<Violation>) {
    let mut by_crate: BTreeMap<&str, Vec<&LockSeq>> = BTreeMap::new();
    for s in seqs {
        by_crate.entry(s.crate_name.as_str()).or_default().push(s);
    }
    for (_crate_name, seqs) in by_crate {
        // Distinct ordered pairs within each function, first site wins.
        let mut edges: BTreeMap<(String, String), LockEdge> = BTreeMap::new();
        for s in &seqs {
            for p in 0..s.seq.len() {
                for q in (p + 1)..s.seq.len() {
                    let (a, b) = (&s.seq[p].0, &s.seq[q].0);
                    if a == b {
                        continue; // re-lock of the same name: guard handoff, not an order
                    }
                    edges
                        .entry((a.clone(), b.clone()))
                        .or_insert_with(|| LockEdge {
                            from: a.clone(),
                            to: b.clone(),
                            path: s.path.clone(),
                            line: s.seq[q].1,
                            fn_name: s.fn_name.clone(),
                        });
                }
            }
        }
        // adjacency
        let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for k in edges.keys() {
            adj.entry(k.0.as_str()).or_default().push(k.1.as_str());
        }
        let reaches = |from: &str, target: &str| -> bool {
            let mut stack = vec![from];
            let mut seen: BTreeSet<&str> = BTreeSet::new();
            while let Some(n) = stack.pop() {
                if n == target {
                    return true;
                }
                if !seen.insert(n) {
                    continue;
                }
                if let Some(next) = adj.get(n) {
                    stack.extend(next.iter().copied());
                }
            }
            false
        };
        for e in edges.values() {
            // The edge from→to closes a cycle iff `to` can reach `from`.
            if reaches(&e.to, &e.from) {
                out.push(Violation {
                    rule: "D003",
                    path: e.path.clone(),
                    line: e.line,
                    msg: format!(
                        "lock-order cycle: fn `{}` acquires `{}` then `{}`, but another path \
                         acquires them in the reverse order — deadlock hazard",
                        e.fn_name, e.from, e.to
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Analyzer
// ---------------------------------------------------------------------------

/// Accumulates files, then resolves allows and the cross-file lock graph
/// in [`Analyzer::finish`].
#[derive(Default)]
pub struct Analyzer {
    files: usize,
    pending: Vec<Violation>,
    allows: Vec<Allow>,
    locks: Vec<LockSeq>,
}

impl Analyzer {
    pub fn new() -> Analyzer {
        Analyzer::default()
    }

    /// Lints one file. `path` should be workspace-relative with forward
    /// slashes (it drives rule scoping).
    pub fn add_file(&mut self, path: &str, src: &str) {
        self.files += 1;
        let scope = classify(path);
        let (toks, comments) = tokenize(src);
        self.allows
            .extend(parse_allows(&scope.rel, &comments, &mut self.pending));
        let tests = test_ranges(&toks);
        let fns = fn_spans(&toks, &comments);
        rule_d001(&scope, &toks, &tests, &mut self.pending);
        rule_d002(&scope, &toks, &tests, &fns, &mut self.pending);
        rule_d004(&scope, &toks, &tests, &mut self.pending);
        rule_d005(&scope, &toks, &tests, &mut self.pending);
        rule_d006(&scope, &toks, &tests, &fns, &mut self.pending);
        self.locks
            .extend(collect_locks(&scope, &toks, &fns, &tests));
    }

    /// Resolves the lock graph, applies allow directives, and produces
    /// the final report.
    pub fn finish(mut self) -> LintReport {
        rule_d003(&self.locks, &mut self.pending);

        let mut used: Vec<bool> = vec![false; self.allows.len()];
        let mut violations: Vec<Violation> = Vec::new();
        for v in self.pending {
            if v.rule == "A000" {
                violations.push(v);
                continue;
            }
            let suppressed = self.allows.iter().enumerate().find(|(_, a)| {
                a.rule == v.rule && a.path == v.path && (a.line == v.line || a.line + 1 == v.line)
            });
            match suppressed {
                Some((idx, _)) => used[idx] = true,
                None => violations.push(v),
            }
        }
        let allows_used = used.iter().filter(|u| **u).count();
        let unjustified_allows = self.allows.iter().filter(|a| !a.justified).count();
        violations.sort_by(|a, b| {
            (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule))
        });
        LintReport {
            files: self.files,
            violations,
            allows_used,
            unjustified_allows,
        }
    }
}
