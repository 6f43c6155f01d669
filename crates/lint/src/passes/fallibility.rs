//! Pass 2 — device fallibility: no `Device`/WAL/status-block `Result`
//! may be silently discarded or unwrapped outside tests.
//!
//! PR 1 established the bounded-retry discipline: every device touchpoint
//! either retries with backoff or propagates, and commit-path failures
//! poison the instance rather than panic. This pass convicts the three
//! ways that discipline erodes:
//!
//! * `let _ = dev.sync()` — the error is constructed and thrown away;
//! * `dev.sync().ok();` (or a bare `dev.sync();` statement) — same, with
//!   less honesty;
//! * `dev.sync().unwrap()` / `.expect(...)` outside test code — a
//!   transient fault becomes a crash in a library that promises to
//!   tolerate transient faults.
//!
//! Calls are recognized by method/function name (no type information),
//! against the closed list of fallible storage entry points below.

use std::collections::HashSet;

use crate::findings::{Finding, IdSpace, Pass};
use crate::items::FileModel;
use crate::lexer::{Kind, Tok};
use crate::passes::paren_match;

/// Fallible storage entry points: the `Device` trait surface plus the
/// WAL / status-block / checksum-catalog operations layered directly on
/// it. Names are unambiguous in this workspace (no non-`Result` method
/// shares them).
pub const FALLIBLE: &[&str] = &[
    // Device trait.
    "read_at",
    "write_at",
    "sync",
    "set_len",
    "read_verified",
    // WAL.
    "force",
    "flush_barrier",
    "make_log_space",
    // Status block.
    "read_status",
    "write_status",
    // Checksum catalogs.
    "adopt",
    "persist",
    "invalidate",
    // The segment handle: the one sink of truncation, recovery and scrub.
    "read_run_verified",
    "apply_pieces",
    "write_page",
    "finish",
];

/// What happened to the `Result`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sink {
    Handled,
    DiscardLetUnderscore,
    DiscardOk,
    DiscardBareStmt,
    Unwrap,
    Expect,
}

/// Walks the start of the call expression backwards from the call-name
/// ident: over `.`-chains, `::` paths, and call/index suffix groups.
fn expr_start(toks: &[Tok], name_idx: usize) -> usize {
    let mut j = name_idx;
    loop {
        if j < 2 {
            return j.min(name_idx);
        }
        let before = if toks[j - 1].is_punct('.') {
            j - 2
        } else if toks[j - 1].is_punct(':') && toks[j - 2].is_punct(':') {
            if j < 3 {
                return j;
            }
            j - 3
        } else {
            return j;
        };
        let b = &toks[before];
        if b.kind == Kind::Ident {
            j = before;
        } else if b.is_punct(')') || b.is_punct(']') {
            // Back-match the group, then absorb a preceding name.
            let (open_c, close_c) = if b.is_punct(')') {
                ('(', ')')
            } else {
                ('[', ']')
            };
            let mut depth = 0i32;
            let mut k = before;
            loop {
                if toks[k].is_punct(close_c) {
                    depth += 1;
                } else if toks[k].is_punct(open_c) {
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
            if k > 0 && toks[k - 1].kind == Kind::Ident {
                j = k - 1;
            } else {
                return k;
            }
        } else {
            return j;
        }
    }
}

/// Start token index of the statement containing `i` — the token after
/// the previous `;`, `{`, or `}` at the same nesting (approximated by a
/// backwards scan balancing parens).
fn stmt_start(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j > 0 {
        let t = &toks[j - 1];
        if t.is_punct(')') || t.is_punct(']') {
            depth += 1;
        } else if t.is_punct('(') || t.is_punct('[') {
            if depth == 0 {
                return j;
            }
            depth -= 1;
        } else if depth == 0 && (t.is_punct(';') || t.is_punct('{') || t.is_punct('}')) {
            return j;
        }
        j -= 1;
    }
    0
}

/// Classifies what the surrounding code does with the call's `Result`.
/// `cp` is the call's closing-paren token index.
fn classify(toks: &[Tok], name_idx: usize, mut cp: usize) -> Sink {
    // Follow harmless suffix combinators to the real sink.
    loop {
        let next = toks.get(cp + 1);
        let next2 = toks.get(cp + 2);
        match (next, next2) {
            (Some(n), Some(n2)) if n.is_punct('.') && n2.kind == Kind::Ident => {
                match n2.text.as_str() {
                    "unwrap" => return Sink::Unwrap,
                    "expect" => return Sink::Expect,
                    "ok" => {
                        // `.ok()` then `;` discards; `.ok()` feeding
                        // anything else is a conversion.
                        let after = paren_match(toks, cp + 3);
                        if toks.get(after + 1).is_some_and(|t| t.is_punct(';')) {
                            return Sink::DiscardOk;
                        }
                        cp = after;
                    }
                    // Combinators that keep or transform the error:
                    // follow the chain.
                    "map_err" | "map" | "and_then" | "or_else" | "inspect_err" | "err"
                    | "is_ok" | "is_err" | "unwrap_or" | "unwrap_or_else" | "unwrap_or_default"
                    | "ok_or" | "ok_or_else" | "context" | "and" | "or" => match toks.get(cp + 3) {
                        Some(t) if t.is_punct('(') => cp = paren_match(toks, cp + 3),
                        _ => return Sink::Handled,
                    },
                    _ => return Sink::Handled,
                }
            }
            (Some(n), _) if n.is_punct('?') => return Sink::Handled,
            (Some(n), _) if n.is_punct(';') => {
                // Statement-terminal: inspect the statement head.
                let ss = stmt_start(toks, name_idx);
                let st = &toks[ss];
                if st.is_ident("let") {
                    let mut j = ss + 1;
                    if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                        j += 1;
                    }
                    if toks.get(j).is_some_and(|t| t.is_ident("_")) {
                        return Sink::DiscardLetUnderscore;
                    }
                    return Sink::Handled; // bound; #[must_use] travels with it
                }
                // A bare `dev.sync();` statement: the expression must
                // *be* the statement (start where the expr starts).
                if expr_start(toks, name_idx) == ss {
                    return Sink::DiscardBareStmt;
                }
                return Sink::Handled;
            }
            _ => return Sink::Handled,
        }
    }
}

/// Runs the pass over `files`.
pub fn run(files: &[&FileModel]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut ids = IdSpace::default();
    for fm in files {
        let toks = &fm.lexed.toks;
        for f in fm.fns.iter().filter(|f| !f.is_test) {
            let Some((open, close)) = f.body else {
                continue;
            };
            let mut seen: HashSet<usize> = HashSet::new();
            for i in open + 1..close {
                let t = &toks[i];
                if t.kind != Kind::Ident
                    || !FALLIBLE.contains(&t.text.as_str())
                    || !toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                {
                    continue;
                }
                // Skip definitions (`fn read_at(...)`) and struct paths.
                if i > 0 && (toks[i - 1].is_ident("fn") || toks[i - 1].is_punct('#')) {
                    continue;
                }
                if !seen.insert(i) {
                    continue;
                }
                let cp = paren_match(toks, i + 1);
                let sink = classify(toks, i, cp);
                let (detail, msg) = match sink {
                    Sink::Handled => continue,
                    Sink::DiscardLetUnderscore => (
                        format!("{}|let-underscore", t.text),
                        format!(
                            "`let _ =` discards the Result of fallible `{}()` — propagate, retry \
                             via RetryPolicy, or record why the error is unrecoverable",
                            t.text
                        ),
                    ),
                    Sink::DiscardOk => (
                        format!("{}|ok-discard", t.text),
                        format!(
                            "`.ok()` discards the Result of fallible `{}()` with no reader — \
                             propagate or handle the error",
                            t.text
                        ),
                    ),
                    Sink::DiscardBareStmt => (
                        format!("{}|bare-stmt", t.text),
                        format!(
                            "Result of fallible `{}()` dropped at statement position — propagate \
                             or handle the error",
                            t.text
                        ),
                    ),
                    Sink::Unwrap => (
                        format!("{}|unwrap", t.text),
                        format!(
                            "`.unwrap()` on fallible `{}()` outside tests — a transient device \
                             fault becomes a panic; use bounded retry or propagate",
                            t.text
                        ),
                    ),
                    Sink::Expect => (
                        format!("{}|expect", t.text),
                        format!(
                            "`.expect()` on fallible `{}()` outside tests — a transient device \
                             fault becomes a panic; use bounded retry or propagate",
                            t.text
                        ),
                    ),
                };
                if fm.lexed.allowed(Pass::DeviceFallibility.slug(), t.line) {
                    continue;
                }
                findings.push(Finding {
                    id: ids.id(Pass::DeviceFallibility, &fm.path, &f.qual, &detail),
                    pass: Pass::DeviceFallibility,
                    file: fm.path.clone(),
                    line: t.line,
                    function: f.qual.clone(),
                    message: msg,
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::FileModel;

    fn run_on(src: &str) -> Vec<Finding> {
        let m = FileModel::build("t.rs", src, false);
        run(&[&m])
    }

    #[test]
    fn convicts_discards_and_unwraps() {
        let f = run_on(
            "fn a(d: &D) { let _ = d.sync(); }\n\
             fn b(d: &D) { d.sync().ok(); }\n\
             fn c(d: &D) { d.write_at(0, b).unwrap(); }\n\
             fn e(d: &D) { d.force(); }",
        );
        assert_eq!(f.len(), 4, "{f:#?}");
    }

    #[test]
    fn convicts_a_discarded_or_unwrapped_run_read() {
        let f = run_on(
            "fn a(s: &S) { let _ = s.read_run_verified(0, b, |_, _| Ok(())); }\n\
             fn b(s: &S) { s.read_run_verified(0, b, keep).unwrap(); }\n\
             fn c(s: &S) -> R { s.read_run_verified(0, b, |i, r| note(i, r))?; Ok(()) }",
        );
        assert_eq!(f.len(), 2, "{f:#?}");
    }

    #[test]
    fn passes_handled_results_and_tests() {
        let f = run_on(
            "fn a(d: &D) -> R { d.sync()?; Ok(()) }\n\
             fn b(d: &D) -> R { let r = d.sync(); r }\n\
             fn c(d: &D) { if d.sync().is_err() { x(); } }\n\
             fn g(d: &D) { retry(|| d.sync()).map_err(log_it); }\n\
             #[cfg(test)] mod t { fn u(d: &D) { d.sync().unwrap(); } }",
        );
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn inline_allow_suppresses() {
        let f = run_on(
            "fn a(d: &D) {\n    // lint:allow(device-fallibility): crash-sim rollback\n    let _ = d.write_at(0, b);\n}",
        );
        assert!(f.is_empty(), "{f:#?}");
    }
}
