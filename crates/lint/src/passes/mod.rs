//! The five analysis passes and their shared token-walking helpers.

pub mod atomics;
pub mod fallibility;
pub mod lockorder;
pub mod panics;
pub mod unlogged;

use std::collections::HashMap;

use crate::items::FileModel;
use crate::lexer::{Kind, Tok};

/// Maps every `{` token index to its matching `}` (and vice versa).
pub fn brace_match(toks: &[Tok]) -> HashMap<usize, usize> {
    let mut map = HashMap::new();
    let mut stack = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct('{') {
            stack.push(i);
        } else if t.is_punct('}') {
            if let Some(open) = stack.pop() {
                map.insert(open, i);
                map.insert(i, open);
            }
        }
    }
    map
}

/// Finds the matching `)` for the `(` at `open`.
pub fn paren_match(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct('(') {
            depth += 1;
        } else if toks[i].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len() - 1
}

/// The index of a method call's opening `(`, given the index of the
/// method-name ident — stepping over an optional turbofish
/// (`parse::<u64>(...)`, `load::<Ordering>(...)`). Returns `None` when
/// no argument list follows (a field access or path segment).
pub fn args_open(toks: &[Tok], name: usize) -> Option<usize> {
    let mut j = name + 1;
    if toks.get(j).is_some_and(|t| t.is_punct(':'))
        && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(j + 2).is_some_and(|t| t.is_punct('<'))
    {
        let mut depth = 0i32;
        j += 2;
        while j < toks.len() {
            if toks[j].is_punct('<') {
                depth += 1;
            } else if toks[j].is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    toks.get(j).filter(|t| t.is_punct('(')).map(|_| j)
}

/// The receiver chain of a method call: for `self.shared.core.lock()`
/// with `dot` at the `.` before `lock`, returns `["self","shared","core"]`.
/// A chain that starts after a `)` / `]` (e.g. `foo().bar.lock()`) is
/// returned as the trailing ident segments only — suffix matching makes
/// this safe.
pub fn receiver_chain(toks: &[Tok], dot: usize) -> Vec<String> {
    let mut chain = Vec::new();
    let mut j = dot;
    loop {
        if j == 0 {
            break;
        }
        let prev = &toks[j - 1];
        if prev.kind == Kind::Ident {
            chain.push(prev.text.clone());
            if j >= 3 && toks[j - 2].is_punct('.') && toks[j - 3].kind == Kind::Ident {
                j -= 2;
                continue;
            }
        }
        break;
    }
    chain.reverse();
    chain
}

/// `true` if `pattern` (the field path of `field.method`, already split)
/// is a suffix of `chain`.
pub fn chain_matches(chain: &[String], pattern_fields: &[&str]) -> bool {
    if pattern_fields.is_empty() || chain.len() < pattern_fields.len() {
        return false;
    }
    chain
        .iter()
        .rev()
        .zip(pattern_fields.iter().rev())
        .all(|(c, p)| c == p)
}

/// Method names too generic to resolve by bare name when building the
/// call graph: resolving `x.len()` to some local `fn len` would wire the
/// graph to the wrong function far more often than the right one.
pub const CALL_DENYLIST: &[&str] = &[
    "new",
    "default",
    "clone",
    "drop",
    "fmt",
    "eq",
    "ne",
    "cmp",
    "hash",
    "from",
    "into",
    "try_from",
    "try_into",
    "as_ref",
    "as_mut",
    "deref",
    "len",
    "is_empty",
    "get",
    "get_mut",
    "set",
    "push",
    "pop",
    "insert",
    "remove",
    "contains",
    "iter",
    "iter_mut",
    "next",
    "map",
    "and_then",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok_or",
    "ok_or_else",
    "min",
    "max",
    "clamp",
    "take",
    "replace",
    "swap",
    "read",
    "write",
    "lock",
    "load",
    "store",
    "open",
    "close",
    "run",
    "start",
    "stop",
    "wait",
    "send",
    "recv",
    "begin",
    "end",
    "init",
    "extend",
    "clear",
    "split",
    "join",
    "name",
    "id",
    "kind",
    "value",
    "index",
    "flush",
    "render",
    "parse",
    "encode",
    "decode",
    "to_string",
    "to_vec",
    "to_owned",
    "as_str",
    "as_bytes",
    "as_slice",
    "abort",
    "commit",
    "apply",
    "update",
    "reset",
    "check",
    "verify",
];

/// A name-indexed call graph over a set of files, with transitive
/// closure support. Calls are resolved by bare name, only when that
/// name maps to exactly one non-test function across the file set and
/// is not on [`CALL_DENYLIST`] — a deliberately conservative
/// over-approximation tuned for precision.
pub struct CallGraph {
    /// Function key `file|qual` -> direct callee keys.
    pub calls: HashMap<String, Vec<String>>,
}

/// Key for a function in the graph.
pub fn fn_key(file: &str, qual: &str) -> String {
    format!("{file}|{qual}")
}

impl CallGraph {
    /// Builds the graph. `name_table` maps bare name -> unique fn key
    /// (names with multiple non-test definitions are dropped).
    pub fn build(files: &[&FileModel]) -> (CallGraph, HashMap<String, String>) {
        let mut name_table: HashMap<String, Option<String>> = HashMap::new();
        for fm in files {
            for f in fm.fns.iter().filter(|f| !f.is_test) {
                let key = fn_key(&fm.path, &f.qual);
                name_table
                    .entry(f.name.clone())
                    .and_modify(|e| *e = None)
                    .or_insert(Some(key));
            }
        }
        let resolved: HashMap<String, String> = name_table
            .into_iter()
            .filter(|(name, v)| v.is_some() && !CALL_DENYLIST.contains(&name.as_str()))
            .map(|(name, v)| (name, v.unwrap()))
            .collect();

        let mut calls: HashMap<String, Vec<String>> = HashMap::new();
        for fm in files {
            for f in fm.fns.iter().filter(|f| !f.is_test) {
                let Some((open, close)) = f.body else {
                    continue;
                };
                let key = fn_key(&fm.path, &f.qual);
                let entry = calls.entry(key).or_default();
                for site in call_sites(&fm.lexed.toks, open, close) {
                    if let Some(callee) = resolved.get(&fm.lexed.toks[site].text) {
                        if !entry.contains(callee) {
                            entry.push(callee.clone());
                        }
                    }
                }
            }
        }
        (CallGraph { calls }, resolved)
    }

    /// Keys reachable from `from` (inclusive).
    pub fn reachable(&self, from: &str) -> Vec<String> {
        let mut seen = vec![from.to_string()];
        let mut work = vec![from.to_string()];
        while let Some(k) = work.pop() {
            for callee in self.calls.get(&k).into_iter().flatten() {
                if !seen.contains(callee) {
                    seen.push(callee.clone());
                    work.push(callee.clone());
                }
            }
        }
        seen
    }
}

/// Argument regions of `spawn(...)` calls within `(open, close)`: code
/// inside them executes on a *different* thread, so nothing there is
/// "done while holding" the spawning function's locks, and its panics
/// kill the new thread rather than unwinding into the caller. Both the
/// lock-order walk and the call graph skip these regions.
pub fn spawn_regions(toks: &[Tok], open: usize, close: usize) -> Vec<(usize, usize)> {
    call_arg_regions(toks, open, close, "spawn")
}

/// Argument regions of `MutexGuard::unlocked(guard, || ...)` calls within
/// `(open, close)`: the closure runs with `guard`'s lock *released*, so
/// what it acquires or calls is not done while holding that lock — in
/// this function or in any caller that passed the guard down — though
/// still under every other lock held. The lock-order pass walks these
/// regions with that one guard set aside; the call graph keeps them
/// whole, since a panic inside still unwinds into the caller.
pub fn unlocked_regions(toks: &[Tok], open: usize, close: usize) -> Vec<(usize, usize)> {
    call_arg_regions(toks, open, close, "unlocked")
}

/// Argument regions (open paren, close paren) of every call to `name`
/// within `(open, close)`; definitions (`fn name(`) are not calls.
fn call_arg_regions(toks: &[Tok], open: usize, close: usize, name: &str) -> Vec<(usize, usize)> {
    (open + 1..close)
        .filter(|&i| {
            toks[i].is_ident(name)
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                && !(i > 0 && toks[i - 1].is_ident("fn"))
        })
        .map(|i| (i + 1, paren_match(toks, i + 1)))
        .collect()
}

/// `true` if `i` falls inside any of `regions`.
pub fn in_regions(regions: &[(usize, usize)], i: usize) -> bool {
    regions.iter().any(|&(a, b)| i > a && i < b)
}

/// Token indices of call-site name idents within `(open, close)`:
/// `name(`, `.name(`, `path::name(` — excluding definitions (`fn name(`),
/// macros (`name!(`), and [`spawn_regions`].
pub fn call_sites(toks: &[Tok], open: usize, close: usize) -> Vec<usize> {
    let spawns = spawn_regions(toks, open, close);
    let mut out = Vec::new();
    for i in open + 1..close {
        let t = &toks[i];
        if t.kind != Kind::Ident {
            continue;
        }
        if in_regions(&spawns, i) {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        if i > 0 && (toks[i - 1].is_ident("fn") || toks[i - 1].is_punct('#')) {
            continue;
        }
        if matches!(
            t.text.as_str(),
            "if" | "while"
                | "match"
                | "for"
                | "return"
                | "loop"
                | "move"
                | "box"
                | "in"
                | "as"
                | "let"
                | "else"
                | "unsafe"
                | "Some"
                | "Ok"
                | "Err"
                | "None"
        ) {
            continue;
        }
        out.push(i);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::FileModel;

    #[test]
    fn receiver_chains() {
        let m = FileModel::build("x.rs", "fn f() { self.shared.core.lock(); }", false);
        let toks = &m.lexed.toks;
        let dot = toks
            .iter()
            .enumerate()
            .find(|(i, t)| t.is_punct('.') && toks[i + 1].is_ident("lock"))
            .unwrap()
            .0;
        assert_eq!(receiver_chain(toks, dot), ["self", "shared", "core"]);
        assert!(chain_matches(&receiver_chain(toks, dot), &["core"]));
        assert!(!chain_matches(&receiver_chain(toks, dot), &["check"]));
    }

    #[test]
    fn call_graph_unique_resolution_and_closure() {
        let a = FileModel::build(
            "a.rs",
            "fn top() { helper_one(); } fn helper_one() { helper_two(); } fn helper_two() {}",
            false,
        );
        let files = vec![&a];
        let (g, resolved) = CallGraph::build(&files);
        assert!(resolved.contains_key("helper_two"));
        let r = g.reachable(&fn_key("a.rs", "top"));
        assert!(r.contains(&fn_key("a.rs", "helper_two")));
    }

    #[test]
    fn args_open_steps_over_turbofish() {
        let m = FileModel::build(
            "x.rs",
            "fn f() { s.parse::<Vec<u64>>(x); t.load(y); u.v; }",
            false,
        );
        let toks = &m.lexed.toks;
        let at = |name: &str| toks.iter().position(|t| t.is_ident(name)).unwrap();
        let open = args_open(toks, at("parse")).expect("turbofish call");
        assert!(toks[open].is_punct('('));
        assert!(toks[open + 1].is_ident("x"));
        let open = args_open(toks, at("load")).expect("plain call");
        assert!(toks[open + 1].is_ident("y"));
        assert!(
            args_open(toks, at("v")).is_none(),
            "field access is not a call"
        );
    }

    #[test]
    fn denylisted_names_do_not_resolve() {
        let a = FileModel::build("a.rs", "fn len() {} fn f() { x.len(); }", false);
        let files = vec![&a];
        let (_, resolved) = CallGraph::build(&files);
        assert!(!resolved.contains_key("len"));
    }
}
