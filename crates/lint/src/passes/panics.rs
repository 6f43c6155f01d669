//! Pass 4 — panic-surface audit: an inventory of `unwrap` / `expect` /
//! `panic!`-family macros / slice-indexing reachable from the public API
//! of `rvm` (core) and `rvm-capi`.
//!
//! This pass is an *inventory*, not a verdict: a library whose C
//! bindings promise error codes must know every site where it can abort
//! the process instead. Each (function, kind) pair is one finding with a
//! site count; the checked-in baseline carries the accepted surface and
//! CI fails when it *grows*. Reachability is a name-resolved call-graph
//! over-approximation rooted at every unrestricted-`pub` function.

use std::collections::{HashMap, HashSet};

use crate::findings::{Finding, IdSpace, Pass};
use crate::items::FileModel;
use crate::lexer::{Kind, Tok};
use crate::passes::{fn_key, CallGraph};

// `assert!` family is deliberately excluded: asserts are declared
// invariants, and folding them in would drown the audit. The issue is
// the *undeclared* aborts.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Kind_ {
    Unwrap,
    Expect,
    PanicMacro,
    Index,
}

impl Kind_ {
    fn name(self) -> &'static str {
        match self {
            Kind_::Unwrap => "unwrap",
            Kind_::Expect => "expect",
            Kind_::PanicMacro => "panic-macro",
            Kind_::Index => "indexing",
        }
    }
}

/// Counts panic sites in a body: kind -> (count, first line).
fn panic_sites(toks: &[Tok], open: usize, close: usize) -> HashMap<Kind_, (u32, u32)> {
    let mut out: HashMap<Kind_, (u32, u32)> = HashMap::new();
    let mut add = |k: Kind_, line: u32| {
        let e = out.entry(k).or_insert((0, line));
        e.0 += 1;
    };
    for i in open + 1..close {
        let t = &toks[i];
        match t.kind {
            Kind::Ident
                if t.text == "unwrap"
                    && i > 0
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('(')) =>
            {
                add(Kind_::Unwrap, t.line);
            }
            Kind::Ident
                if t.text == "expect"
                    && i > 0
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('(')) =>
            {
                add(Kind_::Expect, t.line);
            }
            Kind::Ident
                if PANIC_MACROS.contains(&t.text.as_str())
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('!')) =>
            {
                add(Kind_::PanicMacro, t.line);
            }
            Kind::Punct if t.text == "[" && i > 0 => {
                // Indexing: `expr[...]` — the `[` directly follows an
                // ident or a closing group. Array literals/types follow
                // `=`/`(`/`,`/`:`/`&`; attributes follow `#`; macro
                // brackets follow `!`; a slice pattern follows `let`.
                let p = &toks[i - 1];
                let indexing = (p.kind == Kind::Ident
                    && !matches!(
                        p.text.as_str(),
                        "mut" | "return" | "in" | "as" | "dyn" | "box" | "else" | "let"
                    ))
                    || p.is_punct(')')
                    || p.is_punct(']');
                if indexing {
                    add(Kind_::Index, t.line);
                }
            }
            _ => {}
        }
    }
    out
}

/// Runs the pass: `files` are the core + capi sources.
pub fn run(files: &[&FileModel]) -> Vec<Finding> {
    let (graph, _) = CallGraph::build(files);
    // Roots: unrestricted-pub non-test functions.
    let mut reachable: HashSet<String> = HashSet::new();
    for fm in files {
        for f in fm.fns.iter().filter(|f| f.is_pub && !f.is_test) {
            for k in graph.reachable(&fn_key(&fm.path, &f.qual)) {
                reachable.insert(k);
            }
        }
    }
    let mut findings = Vec::new();
    let mut ids = IdSpace::default();
    for fm in files {
        for f in fm.fns.iter().filter(|f| !f.is_test) {
            if !reachable.contains(&fn_key(&fm.path, &f.qual)) {
                continue;
            }
            let Some((open, close)) = f.body else {
                continue;
            };
            let mut sites: Vec<(Kind_, (u32, u32))> = panic_sites(&fm.lexed.toks, open, close)
                .into_iter()
                .collect();
            sites.sort_by_key(|(k, _)| *k);
            for (kind, (count, first_line)) in sites {
                if fm.lexed.allowed(Pass::PanicSurface.slug(), first_line) {
                    continue;
                }
                findings.push(Finding {
                    id: ids.id(Pass::PanicSurface, &fm.path, &f.qual, kind.name()),
                    pass: Pass::PanicSurface,
                    file: fm.path.clone(),
                    line: first_line,
                    function: f.qual.clone(),
                    message: format!(
                        "{count} {} site(s) in a function reachable from the public API \
                         (first at line {first_line})",
                        kind.name()
                    ),
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
    fn inventories_reachable_panics() {
        let f = run_on(
            "pub fn api() { internal_helper_x(); }\n\
             fn internal_helper_x() { let v: Vec<u8> = Vec::new(); v.first().unwrap(); }\n\
             fn unreached_helper() { panic!(\"never\"); }",
        );
        assert_eq!(f.len(), 1, "{f:#?}");
        assert!(f[0].function.contains("internal_helper_x"));
        assert!(f[0].message.contains("unwrap"));
    }

    #[test]
    fn pub_crate_is_not_a_root_and_tests_dont_count() {
        let f = run_on(
            "pub(crate) fn internal_api() { x.unwrap(); }\n\
             #[cfg(test)] mod t { pub fn t1() { y.unwrap(); } }",
        );
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn indexing_is_counted_but_literals_are_not() {
        let f = run_on(
            "pub fn api(buf: &[u8]) -> u8 { let a = [0u8; 4]; let [b, ..] = a; let v = vec![1]; buf[3] }",
        );
        assert_eq!(f.len(), 1, "{f:#?}");
        assert!(f[0].message.contains("indexing"));
        assert!(f[0].message.contains("1 indexing site"));
    }
}
