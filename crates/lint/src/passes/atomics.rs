//! Pass 5 — atomics: the memory-ordering protocol vs `atomics.toml`.
//!
//! The concurrency planes left ~140 `Ordering::*` sites in `crates/core`
//! that TSan and loom only audit along the interleavings a scheduler
//! happens to exercise. This pass makes the protocol itself the checked
//! artifact:
//!
//! * **Inventory** — every `AtomicU64/AtomicUsize/AtomicU32/AtomicBool`
//!   field or static in scope must match an `[[atomic]]` declaration
//!   (role + allowed orderings); declarations that match nothing are
//!   orphans. Atomics reached only through bindings (fn parameters,
//!   aliased statics) are declared with `binding = true`.
//! * **Ordering** — every op site (`.load/.store/.swap/.fetch_*`,
//!   `compare_exchange{,_weak}`, `fetch_update`) is recognized by the
//!   `Ordering::X` tokens in its argument list — no type information
//!   needed — and checked against the declaration's allowed set for
//!   that operation class, including the CAS *failure* ordering.
//!
//! Like every pass here this is token-level and deliberately
//! over-approximate in favor of precision: a method call is an atomic op
//! iff its top-level arguments mention `Ordering::{Relaxed,Acquire,
//! Release,AcqRel,SeqCst}`, which cannot collide with `cmp::Ordering`
//! variants.

use std::collections::HashSet;

use crate::config::{AtomicRole, AtomicsSpec, MemOrd, OpClass};
use crate::findings::{Finding, IdSpace, Pass};
use crate::items::FileModel;
use crate::lexer::{Kind, Tok};
use crate::passes::{args_open, chain_matches, paren_match};

const ATOMIC_TYPES: [&str; 4] = ["AtomicU64", "AtomicUsize", "AtomicU32", "AtomicBool"];

/// Operation class from the method name, or `None` for non-atomic
/// methods. (`device.read(buf)` never carries an `Ordering` argument, so
/// the name table can stay broad.)
fn method_class(name: &str) -> Option<OpClass> {
    Some(match name {
        "load" => OpClass::Load,
        "store" => OpClass::Store,
        "swap" => OpClass::Swap,
        "compare_exchange" | "compare_exchange_weak" | "fetch_update" => OpClass::Cas,
        "fetch_add" | "fetch_sub" | "fetch_and" | "fetch_or" | "fetch_xor" | "fetch_max"
        | "fetch_min" | "fetch_nand" => OpClass::Rmw,
        _ => return None,
    })
}

/// One atomic operation site.
struct OpSite {
    /// Token index of the method-name ident.
    at: usize,
    line: u32,
    method: String,
    class: OpClass,
    /// Receiver chain, e.g. `["self", "media", "pages_scrubbed"]`.
    chain: Vec<String>,
    /// Index into `spec.atomics`, or `None` for an undeclared atomic.
    decl: Option<usize>,
    /// `Ordering::X` arguments in source order (success then failure for
    /// CAS shapes).
    ords: Vec<MemOrd>,
}

/// The receiver chain for an atomic op, like
/// [`receiver_chain`](crate::passes::receiver_chain) but stepping back
/// over index groups so `group_commit_batch_sizes[i].load(..)` resolves
/// to its array field.
fn atomic_chain(toks: &[Tok], dot: usize) -> Vec<String> {
    let mut chain = Vec::new();
    let mut j = dot;
    loop {
        if j == 0 {
            break;
        }
        let mut k = j - 1;
        if toks[k].is_punct(']') {
            let mut depth = 0i32;
            loop {
                if toks[k].is_punct(']') {
                    depth += 1;
                } else if toks[k].is_punct('[') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if k == 0 {
                    return {
                        chain.reverse();
                        chain
                    };
                }
                k -= 1;
            }
            if k == 0 {
                break;
            }
            k -= 1;
        }
        if toks[k].kind == Kind::Ident {
            chain.push(toks[k].text.clone());
            if k >= 1 && toks[k - 1].is_punct('.') {
                j = k - 1;
                continue;
            }
        }
        break;
    }
    chain.reverse();
    chain
}

/// `Ordering::X` tokens among the *top-level* arguments of the call
/// whose parens are `(open, close)` — orderings inside nested calls
/// (depth ≥ 2) belong to those calls.
fn extract_ords(toks: &[Tok], open: usize, close: usize) -> Vec<MemOrd> {
    let mut out = Vec::new();
    let mut depth = 1i32;
    let mut i = open + 1;
    while i < close {
        let t = &toks[i];
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
        } else if depth == 1
            && t.is_ident("Ordering")
            && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
        {
            if let Some(ord) = toks
                .get(i + 3)
                .filter(|n| n.kind == Kind::Ident)
                .and_then(|n| MemOrd::parse(&n.text))
            {
                out.push(ord);
                i += 4;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Longest-suffix declaration match for an op-site receiver chain.
fn match_decl(spec: &AtomicsSpec, chain: &[String]) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None; // (pattern len, decl idx)
    for (i, a) in spec.atomics.iter().enumerate() {
        for p in &a.fields {
            let fields: Vec<&str> = p.split('.').collect();
            if chain_matches(chain, &fields) && best.is_none_or(|(n, _)| fields.len() > n) {
                best = Some((fields.len(), i));
            }
        }
    }
    best.map(|(_, i)| i)
}

/// Declaration claiming a *field declaration* (inventory direction):
/// the pattern's last segment must equal the field name, and the
/// declaration's `file` filter (if any) must match.
fn field_decl(spec: &AtomicsSpec, name: &str, file: &str) -> Option<usize> {
    spec.atomics.iter().position(|a| {
        (a.file.is_none() || a.file.as_deref() == Some(file))
            && a.fields.iter().any(|p| p.rsplit('.').next() == Some(name))
    })
}

/// Atomic-typed field/static declarations found outside function ranges.
struct FieldSite {
    name: String,
    line: u32,
    decl: Option<usize>,
}

fn inventory(spec: &AtomicsSpec, fm: &FileModel) -> Vec<FieldSite> {
    let toks = &fm.lexed.toks;
    // Skip everything from the `fn` keyword to the body close (or the
    // terminating `;` for bodiless signatures): parameters, return
    // types, and locals are bindings, not fields.
    let ranges: Vec<(usize, usize)> = fm
        .fns
        .iter()
        .map(|f| {
            let end = match f.body {
                Some((_, c)) => c,
                None => {
                    let mut j = f.fn_idx;
                    while j < toks.len() && !toks[j].is_punct(';') && !toks[j].is_punct('{') {
                        j += 1;
                    }
                    j
                }
            };
            (f.fn_idx, end)
        })
        .collect();
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != Kind::Ident || !ATOMIC_TYPES.contains(&t.text.as_str()) {
            continue;
        }
        if ranges.iter().any(|&(a, b)| i >= a && i <= b) {
            continue;
        }
        // `AtomicU64::new(..)` constructor or a path segment — not a
        // declaration site.
        if toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
        {
            continue;
        }
        // Walk back over type wrappers (`Arc<`, `[`, `&`) to the
        // `name :` head; anything else (use trees, tuple fields) is not
        // an inventoried declaration.
        let mut j = i;
        while j > 0 {
            let p = &toks[j - 1];
            let wrapper_ident =
                p.kind == Kind::Ident && toks.get(j).is_some_and(|n| n.is_punct('<'));
            if p.is_punct('<') || p.is_punct('[') || p.is_punct('&') || wrapper_ident {
                j -= 1;
            } else {
                break;
            }
        }
        if j < 2 || !toks[j - 1].is_punct(':') || toks[j - 2].kind != Kind::Ident {
            continue;
        }
        let name = toks[j - 2].text.clone();
        out.push(FieldSite {
            decl: field_decl(spec, &name, &fm.path),
            name,
            line: t.line,
        });
    }
    out
}

/// Collects the op sites inside one function body.
fn op_sites(spec: &AtomicsSpec, toks: &[Tok], open: usize, close: usize) -> Vec<OpSite> {
    let mut out = Vec::new();
    for i in open + 1..close {
        let t = &toks[i];
        if t.kind != Kind::Ident {
            continue;
        }
        let Some(class) = method_class(&t.text) else {
            continue;
        };
        if i == 0 || !toks[i - 1].is_punct('.') {
            continue;
        }
        let Some(ao) = args_open(toks, i) else {
            continue;
        };
        let cp = paren_match(toks, ao);
        let ords = extract_ords(toks, ao, cp);
        if ords.is_empty() {
            continue; // not an atomic op (`device.read(buf)`, `vec.swap(a, b)`, ...)
        }
        let chain = atomic_chain(toks, i - 1);
        out.push(OpSite {
            at: i,
            line: t.line,
            method: t.text.clone(),
            class,
            decl: match_decl(spec, &chain),
            chain,
            ords,
        });
    }
    out
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
    if fm.lexed.allowed(Pass::Atomics.slug(), line) {
        return;
    }
    findings.push(Finding {
        id: ids.id(Pass::Atomics, &fm.path, function, detail),
        pass: Pass::Atomics,
        file: fm.path.clone(),
        line,
        function: function.to_string(),
        message,
    });
}

/// Checks one ordering against a declaration's allowed set. Returns the
/// finding message, or `None` if permitted.
fn check_ord(
    spec: &AtomicsSpec,
    decl_idx: usize,
    op: OpClass,
    method: &str,
    ord: MemOrd,
) -> Option<String> {
    let decl = &spec.atomics[decl_idx];
    let allowed = decl.allowed(op);
    if allowed.contains(&ord) {
        return None;
    }
    let op_label = if op == OpClass::CasFailure {
        format!("`{method}` failure ordering")
    } else {
        format!("`{method}`")
    };
    if allowed.is_empty() {
        return Some(format!(
            "{op_label} is not a permitted operation on `{}` (role {}) — \
             extend atomics.toml if the protocol really grew this op",
            decl.name,
            decl.role.as_str()
        ));
    }
    let names: Vec<&str> = allowed.iter().map(|o| o.as_str()).collect();
    let min = allowed.iter().map(|o| o.strength()).min().unwrap_or(0);
    if decl.role == AtomicRole::Counter && ord == MemOrd::SeqCst {
        return Some(format!(
            "`SeqCst` {op_label} on declared counter `{}` — counters are Relaxed by \
             contract; SeqCst buys no extra safety here, only a fence on the hot path",
            decl.name
        ));
    }
    if ord.strength() < min {
        Some(format!(
            "{op_label} uses `{}`, weaker than `{}`'s declared set [{}] — \
             a racing reader can observe unsynchronized state",
            ord.as_str(),
            decl.name,
            names.join(", ")
        ))
    } else {
        Some(format!(
            "{op_label} uses `{}`, not in `{}`'s declared set [{}]",
            ord.as_str(),
            decl.name,
            names.join(", ")
        ))
    }
}

/// Runs the pass over `files` (typically `crates/core`, whose `models/` is test code).
pub fn run(spec: &AtomicsSpec, files: &[&FileModel]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut ids = IdSpace::default();
    let mut used: HashSet<usize> = HashSet::new();
    // Undeclared ops are reported once per (file, chain, method).
    let mut undeclared_seen: HashSet<String> = HashSet::new();

    for fm in files {
        // Inventory: every atomic field must be declared (or carry an
        // inline allow).
        for field in inventory(spec, fm) {
            match field.decl {
                Some(d) => {
                    used.insert(d);
                }
                None => push(
                    &mut findings,
                    &mut ids,
                    fm,
                    "<fields>",
                    field.line,
                    &format!("undeclared-atomic:{}", field.name),
                    format!(
                        "atomic field `{}` matches no [[atomic]] declaration in \
                         atomics.toml — declare its role and allowed orderings",
                        field.name
                    ),
                ),
            }
        }
        // Op sites, per non-test function.
        for f in fm.fns.iter().filter(|f| !f.is_test) {
            let Some((open, close)) = f.body else {
                continue;
            };
            let sites = op_sites(spec, &fm.lexed.toks, open, close)
                .into_iter()
                // Nested `fn` items own their sites.
                .filter(|s| fm.enclosing_fn(s.at).is_none_or(|e| e.fn_idx == f.fn_idx));
            for s in sites {
                match s.decl {
                    None => {
                        let chain = if s.chain.is_empty() {
                            "<expr>".to_string()
                        } else {
                            s.chain.join(".")
                        };
                        let key = format!("{}|{}.{}", fm.path, chain, s.method);
                        if undeclared_seen.insert(key) {
                            push(
                                &mut findings,
                                &mut ids,
                                fm,
                                &f.qual,
                                s.line,
                                &format!("undeclared-op:{}.{}", chain, s.method),
                                format!(
                                    "atomic operation `{}.{}()` matches no [[atomic]] \
                                     declaration in atomics.toml",
                                    chain, s.method
                                ),
                            );
                        }
                    }
                    Some(d) => {
                        used.insert(d);
                        if s.class == OpClass::Cas {
                            if let Some(&succ) = s.ords.first() {
                                if let Some(msg) = check_ord(spec, d, OpClass::Cas, &s.method, succ)
                                {
                                    push(
                                        &mut findings,
                                        &mut ids,
                                        fm,
                                        &f.qual,
                                        s.line,
                                        &format!(
                                            "{}:{}:{}",
                                            spec.atomics[d].name,
                                            s.method,
                                            succ.as_str()
                                        ),
                                        msg,
                                    );
                                }
                            }
                            if let Some(&fail) = s.ords.get(1) {
                                if let Some(msg) =
                                    check_ord(spec, d, OpClass::CasFailure, &s.method, fail)
                                {
                                    push(
                                        &mut findings,
                                        &mut ids,
                                        fm,
                                        &f.qual,
                                        s.line,
                                        &format!(
                                            "{}:{}:fail:{}",
                                            spec.atomics[d].name,
                                            s.method,
                                            fail.as_str()
                                        ),
                                        msg,
                                    );
                                }
                            }
                        } else if let Some(&ord) = s.ords.first() {
                            if let Some(msg) = check_ord(spec, d, s.class, &s.method, ord) {
                                push(
                                    &mut findings,
                                    &mut ids,
                                    fm,
                                    &f.qual,
                                    s.line,
                                    &format!(
                                        "{}:{}:{}",
                                        spec.atomics[d].name,
                                        s.method,
                                        ord.as_str()
                                    ),
                                    msg,
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    // Orphans: declarations that matched neither a field nor an op site.
    // Bindings are exempt (the inventory cannot see them by design).
    for (i, a) in spec.atomics.iter().enumerate() {
        if a.binding || used.contains(&i) {
            continue;
        }
        findings.push(Finding {
            id: ids.id(
                Pass::Atomics,
                "atomics.toml",
                &a.name,
                &format!("orphan:{}", a.name),
            ),
            pass: Pass::Atomics,
            file: "atomics.toml".to_string(),
            line: 0,
            function: a.name.clone(),
            message: format!(
                "declaration `{}` matches no atomic field or operation in scope — \
                 remove it or fix its `fields` patterns",
                a.name
            ),
        });
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::FileModel;

    fn spec(src: &str) -> AtomicsSpec {
        AtomicsSpec::parse(src).unwrap()
    }

    const SPEC: &str = r#"
[[atomic]]
name = "hits"
role = "counter"
fields = ["hits"]

[[atomic]]
name = "flag"
role = "publication"
fields = ["flag"]
"#;

    #[test]
    fn ordering_arguments_identify_atomic_ops() {
        let m = FileModel::build(
            "crates/core/src/x.rs",
            "struct S { hits: AtomicU64, flag: AtomicBool }\n\
             impl S {\n\
                 fn ok(&self) { self.hits.fetch_add(1, Ordering::Relaxed); }\n\
                 fn not_atomic(&self, v: &mut Vec<u8>, d: &Dev) { v.swap(0, 1); d.read(buf); }\n\
                 fn cmp_ordering(&self) -> cmp::Ordering { cmp::Ordering::Less }\n\
             }",
            false,
        );
        let f = run(&spec(SPEC), &[&m]);
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn relaxed_publication_and_seqcst_counter_convict() {
        let m = FileModel::build(
            "crates/core/src/x.rs",
            "struct S { hits: AtomicU64, flag: AtomicBool }\n\
             impl S {\n\
                 fn bad(&self) {\n\
                     self.flag.store(true, Ordering::Relaxed);\n\
                     self.hits.fetch_add(1, Ordering::SeqCst);\n\
                 }\n\
             }",
            false,
        );
        let f = run(&spec(SPEC), &[&m]);
        assert_eq!(f.len(), 2, "{f:#?}");
        assert!(f.iter().any(|x| x.message.contains("weaker")), "{f:#?}");
        assert!(
            f.iter()
                .any(|x| x.message.contains("perf") || x.message.contains("SeqCst")),
            "{f:#?}"
        );
    }

    #[test]
    fn array_index_receivers_resolve() {
        let m = FileModel::build(
            "crates/core/src/x.rs",
            "struct S { hits: [AtomicU64; 4] }\n\
             impl S { fn f(&self, i: usize) { self.hits[i].fetch_add(1, Ordering::Relaxed); } }",
            false,
        );
        let f = run(&spec(SPEC), &[&m]);
        // `flag` is now orphaned (nothing matches it) — that is the only
        // expected finding.
        assert_eq!(f.len(), 1, "{f:#?}");
        assert!(f[0].message.contains("matches no atomic field"), "{f:#?}");
        assert_eq!(f[0].file, "atomics.toml");
    }

    #[test]
    fn undeclared_field_and_op_convict_and_inline_allow_suppresses() {
        let m = FileModel::build(
            "crates/core/src/x.rs",
            "struct S {\n\
                 hits: AtomicU64,\n\
                 flag: AtomicBool,\n\
                 rogue: AtomicU64,\n\
                 // lint:allow(atomics): scratch probe, single-threaded test rig\n\
                 probe: AtomicU64,\n\
             }\n\
             impl S { fn f(&self) { self.rogue.store(1, Ordering::Relaxed); } }",
            false,
        );
        let f = run(&spec(SPEC), &[&m]);
        assert!(
            f.iter().any(|x| x.message.contains("atomic field `rogue`")),
            "{f:#?}"
        );
        assert!(
            f.iter().any(|x| x.message.contains("rogue.store")),
            "{f:#?}"
        );
        assert!(
            !f.iter().any(|x| x.message.contains("probe")),
            "inline allow must suppress: {f:#?}"
        );
    }

    #[test]
    fn turbofish_and_string_decoys_do_not_misparse() {
        let m = FileModel::build(
            "crates/core/src/x.rs",
            "struct S { hits: AtomicU64 }\n\
             impl S {\n\
                 fn f(&self, s: &str) -> u64 {\n\
                     let doc = r#\"x.store(1, Ordering::Relaxed)\"#;\n\
                     let n = s.parse::<u64>().unwrap_or(doc.len() as u64);\n\
                     self.hits.fetch_add(n, Ordering::Relaxed)\n\
                 }\n\
             }",
            false,
        );
        let mut sp = spec(SPEC);
        sp.atomics.retain(|a| a.name == "hits");
        let f = run(&sp, &[&m]);
        assert!(f.is_empty(), "{f:#?}");
    }
}
