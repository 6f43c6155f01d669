//! Pass 1 — lock-order: every acquisition site vs the canonical order.
//!
//! Within each non-test function the pass tracks which lock guards are
//! live at every token:
//!
//! * `let g = x.lock();` binds a guard until the end of its block (or an
//!   explicit `drop(g)`);
//! * a bare `x.lock().f()` temporary lives to the end of the statement;
//! * temporaries in `if let` / `while let` conditions and `match`
//!   scrutinees live to the end of the construct's block (Rust ≤2021
//!   temporary-scope rules — exactly the footgun that makes this worth
//!   checking); plain `if` / `while` conditions drop at the `{`.
//!
//! Acquiring lock B while holding A demands `rank(A) < rank(B)`. Edges
//! are also derived interprocedurally: a call made while holding A to a
//! function whose transitive acquisition set contains B is an A→B edge
//! (this is the shape of the `query` check→core inversion PR 4 fixed by
//! hand). Undeclared locks, re-acquisition of a held lock, and condvar
//! waits that hold extra locks or park on the wrong lock are findings.
//!
//! `MutexGuard::unlocked(g, || ...)` runs its closure with `g`'s lock
//! released and every other lock still held. Inside the region the walk
//! carries on with `g` taken out of the held set, so what the closure
//! acquires or calls is checked against the guards that stay live; in the
//! function's acquisition summary the region counts in full *except* for
//! `g`'s own lock, and every other lock it takes is remembered as taken
//! with `g` released, so a caller that passes its guard down is told
//! neither that it re-acquires it nor that those locks nest under it,
//! while a caller holding anything else across the call still gets its
//! order check. A guard that arrives as a parameter is matched to its
//! lock by name (`core` ↔ `core.lock`).

use std::collections::{HashMap, HashSet};

use crate::config::LockOrder;
use crate::findings::{Finding, IdSpace, Pass};
use crate::items::FileModel;
use crate::lexer::{Kind, Tok};
use crate::passes::{
    brace_match, call_sites, chain_matches, fn_key, in_regions, paren_match, receiver_chain,
    spawn_regions, unlocked_regions, CallGraph,
};

const GUARD_METHODS: [&str; 3] = ["lock", "read", "write"];
const WAIT_METHODS: [&str; 4] = ["wait", "wait_for", "wait_while", "wait_until"];

/// An acquisition site.
struct Acq {
    /// Token index of the method-name ident.
    at: usize,
    /// Index into `order.locks`, or `None` for an undeclared lock.
    decl: Option<usize>,
    chain: String,
    line: u32,
}

/// A live guard during the walk.
struct Guard {
    decl: usize,
    name: Option<String>,
    /// Token index after which the guard is dead.
    until: usize,
    line: u32,
}

fn match_decl(order: &LockOrder, chain: &[String], method: &str) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None; // (pattern len, decl idx)
    for (i, l) in order.locks.iter().enumerate() {
        for p in &l.patterns {
            let (fields, m) = p.rsplit_once('.').unwrap_or(("", p));
            if m != method {
                continue;
            }
            let fields: Vec<&str> = fields.split('.').collect();
            if chain_matches(chain, &fields) && best.is_none_or(|(n, _)| fields.len() > n) {
                best = Some((fields.len(), i));
            }
        }
    }
    best.map(|(_, i)| i)
}

/// Scans a body for guard-method acquisition sites. Acquisitions inside
/// `spawn(...)` arguments belong to the spawned thread and are skipped —
/// the spawned function's own body is analyzed in its own right.
fn acquisitions(order: &LockOrder, toks: &[Tok], open: usize, close: usize) -> Vec<Acq> {
    let spawns = spawn_regions(toks, open, close);
    let mut out = Vec::new();
    for i in open + 1..close.saturating_sub(0) {
        let t = &toks[i];
        if t.kind != Kind::Ident || !GUARD_METHODS.contains(&t.text.as_str()) {
            continue;
        }
        if in_regions(&spawns, i) {
            continue;
        }
        // `.m()` with *empty* parens: RwLock/Mutex acquisition arity.
        // (`device.read(buf)` and friends take arguments.)
        if i == 0
            || !toks[i - 1].is_punct('.')
            || !toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            || !toks.get(i + 2).is_some_and(|n| n.is_punct(')'))
        {
            continue;
        }
        let chain = receiver_chain(toks, i - 1);
        if chain.is_empty() {
            continue;
        }
        out.push(Acq {
            at: i,
            decl: match_decl(order, &chain, &t.text),
            chain: chain.join("."),
            line: t.line,
        });
    }
    out
}

/// The guard a call names: the first ident inside the parens at
/// `open_paren`, after optional `&` / `mut`.
fn first_arg_ident(toks: &[Tok], open_paren: usize) -> Option<&str> {
    toks.get(open_paren + 1..)?
        .iter()
        .find(|x| !(x.is_punct('&') || x.is_ident("mut")))
        .filter(|x| x.kind == Kind::Ident)
        .map(|x| x.text.as_str())
}

/// The lock a guard ident names when the guard is not tracked locally
/// (it is a parameter): `core` is the guard of `core.lock`.
fn lock_named(order: &LockOrder, guard: &str) -> Option<usize> {
    let chain = [guard.to_owned()];
    GUARD_METHODS
        .iter()
        .find_map(|m| match_decl(order, &chain, m))
}

/// Next `;` at paren depth 0, starting from `from` (exclusive bound
/// `close`).
fn next_semi(toks: &[Tok], from: usize, close: usize) -> usize {
    let mut depth = 0i32;
    let mut i = from;
    while i < close {
        let t = &toks[i];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth <= 0 && (t.is_punct(';') || t.is_punct('{') || t.is_punct('}')) {
            return i;
        }
        i += 1;
    }
    close
}

/// First `{` at paren depth 0 from `from`.
fn next_block_open(toks: &[Tok], from: usize, close: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut i = from;
    while i < close {
        let t = &toks[i];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth <= 0 && t.is_punct('{') {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Per-function lock summary for the interprocedural step.
#[derive(Default, Clone)]
pub struct FnLocks {
    pub direct: HashSet<usize>,
}

pub struct Analysis<'a> {
    pub order: &'a LockOrder,
    /// fn key -> transitively acquired decl indices, each with the lock
    /// an `unlocked` region had released around the acquisition, if any.
    pub closure: HashMap<String, HashSet<(usize, Option<usize>)>>,
    pub resolved: HashMap<String, String>,
}

/// A stretch of a body that runs under one held set: the body proper
/// (`released: None`), or the closure of an `unlocked(g, ..)` call,
/// which runs without `g`'s lock.
struct Part<'a> {
    released: Option<usize>,
    direct: HashSet<usize>,
    calls: HashSet<&'a String>,
}

/// Builds summaries + transitive closure over the file set.
pub fn analyze<'a>(order: &'a LockOrder, files: &[&FileModel]) -> Analysis<'a> {
    let (_, resolved) = CallGraph::build(files);
    let mut parts: HashMap<String, Vec<Part>> = HashMap::new();
    for fm in files {
        for f in fm.fns.iter().filter(|f| !f.is_test) {
            let Some((open, close)) = f.body else {
                continue;
            };
            let toks = &fm.lexed.toks;
            let acqs = acquisitions(order, toks, open, close);
            let calls = call_sites(toks, open, close);
            let unlocked = unlocked_regions(toks, open, close);
            // The body proper is whatever no region claims.
            let stretches = std::iter::once(None).chain(unlocked.iter().copied().map(Some));
            let fn_parts = stretches
                .map(|region| {
                    let within = |i: usize| match region {
                        Some(r) => in_regions(&[r], i),
                        None => !in_regions(&unlocked, i),
                    };
                    Part {
                        released: region
                            .and_then(|(start, _)| first_arg_ident(toks, start))
                            .and_then(|guard| lock_named(order, guard)),
                        direct: acqs
                            .iter()
                            .filter(|a| within(a.at))
                            .filter_map(|a| a.decl)
                            .collect(),
                        calls: calls
                            .iter()
                            .filter(|&&site| within(site))
                            .filter_map(|&site| resolved.get(&toks[site].text))
                            .collect(),
                    }
                })
                .collect();
            parts.insert(fn_key(&fm.path, &f.qual), fn_parts);
        }
    }
    // Fixpoint: propagate callee sets into callers, part by part.
    let mut closure: HashMap<String, HashSet<(usize, Option<usize>)>> =
        parts.keys().map(|k| (k.clone(), HashSet::new())).collect();
    loop {
        let mut changed = false;
        for (k, fn_parts) in &parts {
            let mut add: HashSet<(usize, Option<usize>)> = HashSet::new();
            for part in fn_parts {
                let callees = part.calls.iter().filter_map(|c| closure.get(*c)).flatten();
                add.extend(
                    part.direct
                        .iter()
                        .map(|&d| (d, None))
                        .chain(callees.copied())
                        .filter(|&(d, _)| Some(d) != part.released)
                        .map(|(d, released)| (d, released.or(part.released))),
                );
            }
            let e = closure.entry(k.clone()).or_default();
            let before = e.len();
            e.extend(add);
            changed |= e.len() != before;
        }
        if !changed {
            break;
        }
    }
    Analysis {
        order,
        closure,
        resolved,
    }
}

/// Runs the pass over `files` (typically `crates/core`).
pub fn run(order: &LockOrder, files: &[&FileModel]) -> Vec<Finding> {
    let analysis = analyze(order, files);
    let mut findings = Vec::new();
    let mut ids = IdSpace::default();
    for fm in files {
        check_file(&analysis, fm, &mut ids, &mut findings);
    }
    findings
}

fn push(
    findings: &mut Vec<Finding>,
    ids: &mut IdSpace,
    fm: &FileModel,
    function: &str,
    line: u32,
    detail: &str,
    message: String,
) {
    if fm.lexed.allowed(Pass::LockOrder.slug(), line) {
        return;
    }
    findings.push(Finding {
        id: ids.id(Pass::LockOrder, &fm.path, function, detail),
        pass: Pass::LockOrder,
        file: fm.path.clone(),
        line,
        function: function.to_string(),
        message,
    });
}

fn check_file(a: &Analysis, fm: &FileModel, ids: &mut IdSpace, findings: &mut Vec<Finding>) {
    let toks = &fm.lexed.toks;
    let braces = brace_match(toks);
    let order = a.order;
    // Undeclared locks are reported once per (file, chain, method).
    let mut undeclared_seen: HashSet<String> = HashSet::new();

    for f in fm.fns.iter().filter(|f| !f.is_test) {
        let Some((open, close)) = f.body else {
            continue;
        };
        let acqs = acquisitions(order, toks, open, close);
        let acq_at: HashMap<usize, usize> =
            acqs.iter().enumerate().map(|(n, a)| (a.at, n)).collect();
        let calls: HashSet<usize> = call_sites(toks, open, close).into_iter().collect();
        let spawns = spawn_regions(toks, open, close);
        let unlocked = unlocked_regions(toks, open, close);
        let mut guards: Vec<Guard> = Vec::new();
        // Guards released around an `unlocked` region, with its end.
        let mut suspended: Vec<(usize, Guard)> = Vec::new();
        // Per-function edge dedup.
        let mut seen_edges: HashSet<String> = HashSet::new();
        let mut blocks: Vec<usize> = Vec::new(); // open-brace token indices
        let mut stmt_start = open + 1;

        let mut i = open + 1;
        while i < close {
            // Skip spawned-closure bodies wholesale: they run on another
            // thread (guard extents and brace balance are unaffected —
            // the argument group is balanced).
            if let Some(&(_, end)) = spawns.iter().find(|&&(a, _)| a == i) {
                i = end + 1;
                continue;
            }
            let t = &toks[i];
            // `unlocked(g, ...)`: `g` is not held inside the region (the
            // argument group), everything else still is.
            while let Some(n) = suspended.iter().position(|&(end, _)| end < i) {
                guards.push(suspended.swap_remove(n).1);
            }
            guards.retain(|g| g.until > i);
            if let Some(&(start, end)) = unlocked.iter().find(|&&(a, _)| a == i) {
                let released = first_arg_ident(toks, start);
                while let Some(n) = guards
                    .iter()
                    .position(|g| g.name.is_some() && g.name.as_deref() == released)
                {
                    suspended.push((end, guards.swap_remove(n)));
                }
            }
            if t.is_punct('{') {
                blocks.push(i);
                stmt_start = i + 1;
                i += 1;
                continue;
            }
            if t.is_punct('}') {
                blocks.pop();
                stmt_start = i + 1;
                i += 1;
                continue;
            }
            if t.is_punct(';') {
                stmt_start = i + 1;
                i += 1;
                continue;
            }
            // drop(g) ends a named guard early.
            if t.is_ident("drop")
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                && toks.get(i + 2).is_some_and(|n| n.kind == Kind::Ident)
                && toks.get(i + 3).is_some_and(|n| n.is_punct(')'))
            {
                let name = &toks[i + 2].text;
                guards.retain(|g| g.name.as_deref() != Some(name));
                i += 4;
                continue;
            }
            // Condvar waits.
            if t.kind == Kind::Ident
                && WAIT_METHODS.contains(&t.text.as_str())
                && i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            {
                let chain = receiver_chain(toks, i - 1);
                let cv = order
                    .condvars
                    .iter()
                    .find(|c| chain.last().is_some_and(|l| l == &c.pattern));
                let parked = first_arg_ident(toks, i + 1).map(str::to_owned);
                let parked_guard = guards
                    .iter()
                    .filter(|g| g.name.is_some() && g.name == parked)
                    .map(|g| g.decl)
                    .next();
                if let Some(cv) = cv {
                    if let Some(pd) = parked_guard {
                        if order.locks[pd].name != cv.parks {
                            push(
                                findings,
                                ids,
                                fm,
                                &f.qual,
                                t.line,
                                &format!("cv:{}!={}", cv.name, order.locks[pd].name),
                                format!(
                                    "condvar `{}` parks on `{}` here but is declared to park on `{}`",
                                    cv.name, order.locks[pd].name, cv.parks
                                ),
                            );
                        }
                    }
                    let extra: Vec<&str> = guards
                        .iter()
                        .filter(|g| g.name != parked || g.name.is_none())
                        .map(|g| order.locks[g.decl].name.as_str())
                        .collect();
                    if !extra.is_empty() {
                        push(
                            findings,
                            ids,
                            fm,
                            &f.qual,
                            t.line,
                            &format!("cv-hold:{}:{}", cv.name, extra.join("+")),
                            format!(
                                "condvar `{}` wait while still holding {} — a blocked wait \
                                 keeps those locks held across the park",
                                cv.name,
                                extra.join(", ")
                            ),
                        );
                    }
                }
                i += 1;
                continue;
            }
            // Calls made while holding locks: consult callee closures.
            if calls.contains(&i) && !guards.is_empty() {
                if let Some(callee_key) = a.resolved.get(&t.text) {
                    // A callee that *is* this function doesn't add edges.
                    if callee_key != &fn_key(&fm.path, &f.qual) {
                        if let Some(acquired) = a.closure.get(callee_key) {
                            for g in &guards {
                                for &(b, released) in acquired {
                                    let (ra, rb) = (order.locks[g.decl].rank, order.locks[b].rank);
                                    // Taken with this guard's lock released
                                    // (the callee was handed the guard).
                                    if rb <= ra && released != Some(g.decl) {
                                        let detail = format!(
                                            "{}->{} via {}",
                                            order.locks[g.decl].name, order.locks[b].name, t.text
                                        );
                                        if seen_edges.insert(detail.clone()) {
                                            let msg = if g.decl == b {
                                                format!(
                                                    "holding `{}` (rank {ra}, acquired line {}) across a call \
                                                     to `{}`, which (transitively) re-acquires `{}`",
                                                    order.locks[g.decl].name, g.line, t.text,
                                                    order.locks[b].name
                                                )
                                            } else {
                                                format!(
                                                    "holding `{}` (rank {ra}, acquired line {}) across a call \
                                                     to `{}`, which (transitively) acquires `{}` (rank {rb}) — \
                                                     contradicts the canonical order",
                                                    order.locks[g.decl].name, g.line, t.text,
                                                    order.locks[b].name
                                                )
                                            };
                                            push(findings, ids, fm, &f.qual, t.line, &detail, msg);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
            // Direct acquisitions.
            if let Some(&ai) = acq_at.get(&i) {
                let acq = &acqs[ai];
                match acq.decl {
                    None => {
                        let key = format!("{}|{}.{}", fm.path, acq.chain, t.text);
                        if undeclared_seen.insert(key) {
                            push(
                                findings,
                                ids,
                                fm,
                                &f.qual,
                                acq.line,
                                &format!("undeclared:{}.{}", acq.chain, t.text),
                                format!(
                                    "acquisition `{}.{}()` matches no lock declared in \
                                     lockorder.toml — declare it (with a rank) or rename",
                                    acq.chain, t.text
                                ),
                            );
                        }
                    }
                    Some(d) => {
                        for g in &guards {
                            let (ra, rb) = (order.locks[g.decl].rank, order.locks[d].rank);
                            if g.decl == d {
                                let detail = format!("reacquire:{}", order.locks[d].name);
                                if seen_edges.insert(detail.clone()) {
                                    push(
                                        findings,
                                        ids,
                                        fm,
                                        &f.qual,
                                        acq.line,
                                        &detail,
                                        format!(
                                            "`{}` re-acquired while already held (acquired line {}) — \
                                             parking_lot locks are not reentrant",
                                            order.locks[d].name, g.line
                                        ),
                                    );
                                }
                            } else if ra >= rb {
                                let detail = format!(
                                    "{}->{}",
                                    order.locks[g.decl].name, order.locks[d].name
                                );
                                if seen_edges.insert(detail.clone()) {
                                    push(
                                        findings,
                                        ids,
                                        fm,
                                        &f.qual,
                                        acq.line,
                                        &detail,
                                        format!(
                                            "acquires `{}` (rank {rb}) while holding `{}` (rank {ra}, \
                                             acquired line {}) — contradicts the canonical order",
                                            order.locks[d].name, order.locks[g.decl].name, g.line
                                        ),
                                    );
                                }
                            }
                        }
                        // Model the new guard's extent.
                        let cp = paren_match(toks, acq.at + 1);
                        let (name, until) = guard_extent(
                            toks,
                            braces
                                .get(&blocks.last().copied().unwrap_or(open))
                                .copied()
                                .unwrap_or(close),
                            stmt_start,
                            acq,
                            cp,
                            close,
                        );
                        guards.push(Guard {
                            decl: d,
                            name,
                            until,
                            line: acq.line,
                        });
                    }
                }
            }
            i += 1;
        }
    }
}

/// Decides how long an acquisition's guard lives. Returns the guard's
/// binding name (for `drop()` and condvar matching) and the token index
/// after which it dies.
fn guard_extent(
    toks: &[Tok],
    enclosing_block_close: usize,
    stmt_start: usize,
    acq: &Acq,
    close_paren: usize,
    body_close: usize,
) -> (Option<String>, usize) {
    let st = &toks[stmt_start];
    // `let [mut] name = <chain>.lock();` — a real binding only when the
    // guard itself is stored: the call must end the statement (`;` right
    // after the parens) and must not be deref-copied (`*`).
    if st.is_ident("let") {
        let mut j = stmt_start + 1;
        if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        let name = toks
            .get(j)
            .filter(|t| t.kind == Kind::Ident)
            .map(|t| t.text.clone());
        let eq = toks.get(j + 1).is_some_and(|t| t.is_punct('='));
        let ends_stmt = toks.get(close_paren + 1).is_some_and(|t| t.is_punct(';'));
        let derefed = toks[stmt_start..acq.at].iter().any(|t| t.is_punct('*'));
        if name.is_some() && eq && ends_stmt && !derefed {
            return (name, enclosing_block_close.min(body_close));
        }
        // Bound through a combinator (`.take()`, `*deref`): temporary.
        return (None, next_semi(toks, close_paren, body_close));
    }
    // `if let` / `while let` / `match`: the temporary lives to the end
    // of the construct's block (≤2021 rules). Plain `if`/`while`: drops
    // at the `{`.
    let is_match = st.is_ident("match");
    let is_if_while = st.is_ident("if") || st.is_ident("while");
    let has_let = is_if_while && toks[stmt_start..acq.at].iter().any(|t| t.is_ident("let"));
    if is_match || has_let {
        if let Some(bo) = next_block_open(toks, close_paren, body_close) {
            let bc = {
                // Match the block open.
                let mut depth = 0i32;
                let mut k = bo;
                loop {
                    if k >= body_close {
                        break body_close;
                    }
                    if toks[k].is_punct('{') {
                        depth += 1;
                    } else if toks[k].is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            break k;
                        }
                    }
                    k += 1;
                }
            };
            return (None, bc);
        }
    }
    if is_if_while {
        let bo = next_block_open(toks, close_paren, body_close).unwrap_or(body_close);
        return (None, bo);
    }
    (None, next_semi(toks, close_paren, body_close))
}
