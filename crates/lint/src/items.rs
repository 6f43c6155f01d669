//! Item structure extraction: functions, impl blocks, test scopes.
//!
//! A single pass over the token stream recovers just enough structure to
//! attribute any token index to its enclosing function, decide whether
//! that function is test-only, and know its `impl` type and visibility.
//! Braces are matched with a scope stack; attributes are skipped as
//! opaque `#[...]` spans (noting `test` markers); everything else is
//! treated as expression soup.

use crate::lexer::{Kind, Lexed, Tok};

/// One `fn` item found in a file.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare name.
    pub name: String,
    /// `Type::name` when inside an `impl` block, else the bare name.
    pub qual: String,
    /// Unrestricted `pub` (not `pub(crate)` / `pub(super)`).
    pub is_pub: bool,
    /// Inside `#[cfg(test)]` / `#[test]` scope (or a test-only file).
    pub is_test: bool,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword.
    pub fn_idx: usize,
    /// Token indices of the body `{` and its matching `}`, if any.
    pub body: Option<(usize, usize)>,
}

/// A lexed file plus its extracted functions.
pub struct FileModel {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    pub lexed: Lexed,
    pub fns: Vec<FnItem>,
}

impl FileModel {
    /// Builds the model. `file_is_test` marks every function as test
    /// scope (integration-test files, fixtures marked clean, ...).
    pub fn build(path: &str, src: &str, file_is_test: bool) -> FileModel {
        let lexed = crate::lexer::lex(src);
        let fns = extract_fns(&lexed.toks, file_is_test);
        FileModel {
            path: path.to_string(),
            lexed,
            fns,
        }
    }

    /// The innermost function whose body contains token index `i`.
    pub fn enclosing_fn(&self, i: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| f.body.is_some_and(|(o, c)| o < i && i < c))
            .min_by_key(|f| {
                let (o, c) = f.body.unwrap();
                c - o
            })
    }
}

#[derive(Debug)]
struct Scope {
    /// Index into the `fns` vec when this brace is a function body.
    fn_slot: Option<usize>,
    /// Everything inside is test code.
    test: bool,
    /// Enclosing `impl` type name, inherited by plain blocks.
    impl_type: Option<String>,
}

/// True if an attribute token span marks test code: contains `test`
/// without `not` (`#[test]`, `#[cfg(test)]`, `#[cfg(any(test, feature =
/// "mutation-hooks"))]`; but not `#[cfg(not(test))]`).
fn attr_is_test(toks: &[Tok]) -> bool {
    let has = |s: &str| toks.iter().any(|t| t.is_ident(s));
    has("test") && !has("not")
}

/// Finds the matching `]` for an attribute starting at the `[` index.
fn skip_attr(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct('[') {
            depth += 1;
        } else if toks[i].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len() - 1
}

/// Extracts the `impl` type name from the tokens of an impl header
/// (everything between `impl` and the body `{`).
fn impl_type_name(header: &[Tok]) -> Option<String> {
    // `impl Trait for Type {` -> path after `for`; `impl Type {` -> the
    // path after the (optional) generic parameter list.
    let start = header
        .iter()
        .position(|t| t.is_ident("for"))
        .map(|i| i + 1)
        .unwrap_or_else(|| {
            // Skip a leading `<...>` generics list.
            if header.first().is_some_and(|t| t.is_punct('<')) {
                let mut depth = 0i32;
                for (i, t) in header.iter().enumerate() {
                    if t.is_punct('<') {
                        depth += 1;
                    } else if t.is_punct('>') {
                        depth -= 1;
                        if depth == 0 {
                            return i + 1;
                        }
                    }
                }
            }
            0
        });
    // Take the last path-segment ident before generics open.
    let mut name = None;
    for t in &header[start.min(header.len())..] {
        if t.kind == Kind::Ident {
            name = Some(t.text.clone());
        } else if t.is_punct('<') || t.is_punct('(') {
            break;
        }
    }
    name
}

/// Visibility scan: walks backwards over the item head (`pub`, `unsafe`,
/// `const`, `async`, `extern "C"`, ...) preceding `fn`.
fn fn_is_pub(toks: &[Tok], fn_idx: usize) -> bool {
    let mut j = fn_idx;
    let mut saw_pub_at = None;
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        let head_word = t.kind == Kind::Ident
            && matches!(
                t.text.as_str(),
                "pub"
                    | "unsafe"
                    | "const"
                    | "async"
                    | "extern"
                    | "crate"
                    | "super"
                    | "in"
                    | "self"
                    | "default"
            );
        let head_punct = t.is_punct('(') || t.is_punct(')') || t.is_punct(':');
        if t.is_ident("pub") {
            saw_pub_at = Some(j);
        } else if !(head_word || head_punct || t.kind == Kind::Literal) {
            break;
        }
    }
    match saw_pub_at {
        Some(i) => !toks.get(i + 1).is_some_and(|t| t.is_punct('(')),
        None => false,
    }
}

fn extract_fns(toks: &[Tok], file_is_test: bool) -> Vec<FnItem> {
    let mut fns: Vec<FnItem> = Vec::new();
    let mut stack: Vec<Scope> = Vec::new();
    // Test marker from attributes, applying to the next item header.
    let mut pending_test = false;
    // Set when an `impl` header is being scanned; the value becomes the
    // scope's impl type at its `{`.
    let mut pending_impl: Option<Option<String>> = None;
    let mut impl_header_start = 0usize;
    // Set when a `mod` keyword was seen; its `{` starts a (maybe test) mod.
    let mut pending_mod_test = false;
    let mut pending_mod = false;
    // Function slot waiting for its body `{`.
    let mut pending_fn: Option<usize> = None;

    let cur_test = |stack: &[Scope]| file_is_test || stack.iter().any(|s| s.test);
    let cur_impl = |stack: &[Scope]| stack.iter().rev().find_map(|s| s.impl_type.clone());

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('#') {
            // `#[attr]` or `#![attr]` — skip; note test markers.
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_punct('!')) {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.is_punct('[')) {
                let end = skip_attr(toks, j);
                if attr_is_test(&toks[j..=end]) {
                    pending_test = true;
                }
                i = end + 1;
                continue;
            }
            i += 1;
            continue;
        }
        match t.kind {
            Kind::Ident if t.text == "impl" && pending_fn.is_none() => {
                pending_impl = Some(None);
                impl_header_start = i + 1;
            }
            Kind::Ident if t.text == "mod" => {
                pending_mod = true;
                pending_mod_test = pending_test;
                pending_test = false;
            }
            Kind::Ident if t.text == "fn" => {
                let name = match toks.get(i + 1) {
                    Some(n) if n.kind == Kind::Ident => n.text.clone(),
                    _ => {
                        i += 1;
                        continue;
                    }
                };
                let is_test = cur_test(&stack) || pending_test;
                pending_test = false;
                let qual = match cur_impl(&stack) {
                    Some(ty) => format!("{ty}::{name}"),
                    None => name.clone(),
                };
                fns.push(FnItem {
                    is_pub: fn_is_pub(toks, i),
                    name,
                    qual,
                    is_test,
                    line: t.line,
                    fn_idx: i,
                    body: None,
                });
                // Scan the signature for the body `{` (or `;` for a
                // bodiless trait method). `->` arrows are consumed as a
                // unit so the `>` cannot unbalance angle tracking.
                let mut depth_paren = 0i32;
                let mut depth_angle = 0i32;
                let mut j = i + 1;
                let mut found = None;
                while j < toks.len() {
                    let tj = &toks[j];
                    if tj.is_punct('-') && toks.get(j + 1).is_some_and(|n| n.is_punct('>')) {
                        j += 2;
                        continue;
                    }
                    if tj.is_punct('(') || tj.is_punct('[') {
                        depth_paren += 1;
                    } else if tj.is_punct(')') || tj.is_punct(']') {
                        depth_paren -= 1;
                    } else if tj.is_punct('<') {
                        depth_angle += 1;
                    } else if tj.is_punct('>') {
                        depth_angle = (depth_angle - 1).max(0);
                    } else if depth_paren == 0 && tj.is_punct(';') {
                        break; // bodiless
                    } else if depth_paren == 0 && depth_angle == 0 && tj.is_punct('{') {
                        found = Some(j);
                        break;
                    }
                    j += 1;
                }
                if let Some(open) = found {
                    pending_fn = Some(fns.len() - 1);
                    // Fast-forward the main cursor to just before `{` so
                    // the generic `{` handling below pushes the scope.
                    i = open;
                    continue;
                }
            }
            Kind::Punct if t.text == "{" => {
                let test = cur_test(&stack) || pending_mod_test && pending_mod;
                let impl_type = if let Some(pi) = pending_impl.take() {
                    pi.or_else(|| impl_type_name(&toks[impl_header_start..i]))
                } else {
                    cur_impl(&stack)
                };
                let fn_slot = pending_fn.take();
                if let Some(slot) = fn_slot {
                    fns[slot].body = Some((i, usize::MAX));
                }
                if pending_mod {
                    pending_mod = false;
                    pending_mod_test = false;
                }
                stack.push(Scope {
                    fn_slot,
                    test,
                    impl_type,
                });
            }
            Kind::Punct if t.text == "}" => {
                if let Some(scope) = stack.pop() {
                    if let Some(slot) = scope.fn_slot {
                        if let Some((o, _)) = fns[slot].body {
                            fns[slot].body = Some((o, i));
                        }
                    }
                }
            }
            Kind::Punct if t.text == ";" => {
                // An item ended without a body; drop stale pendings.
                if stack.iter().all(|s| s.fn_slot.is_none()) {
                    pending_mod = false;
                    pending_mod_test = false;
                }
                pending_test = false;
                pending_impl = None;
            }
            _ => {}
        }
        i += 1;
    }
    fns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        FileModel::build("x.rs", src, false)
    }

    #[test]
    fn finds_fns_with_impl_qualification() {
        let m = model(
            "impl Foo { pub fn a(&self) -> Result<(), E> { self.b() } fn b(&self) {} }\n\
             fn free() {}\n\
             impl<T: Clone> Bar<T> { fn c() {} }\n\
             impl fmt::Display for Baz { fn fmt(&self) {} }",
        );
        let quals: Vec<&str> = m.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, ["Foo::a", "Foo::b", "free", "Bar::c", "Baz::fmt"]);
        assert!(m.fns[0].is_pub);
        assert!(!m.fns[1].is_pub);
    }

    #[test]
    fn cfg_test_scopes_and_test_attr() {
        let m = model(
            "fn live() {}\n\
             #[cfg(test)] mod tests { fn helper() {} #[test] fn t() {} }\n\
             #[cfg(not(test))] fn also_live() {}\n\
             #[test] fn top_level_test() {}",
        );
        let by_name = |n: &str| m.fns.iter().find(|f| f.name == n).unwrap();
        assert!(!by_name("live").is_test);
        assert!(by_name("helper").is_test);
        assert!(by_name("t").is_test);
        assert!(!by_name("also_live").is_test);
        assert!(by_name("top_level_test").is_test);
    }

    #[test]
    fn enclosing_fn_resolves_innermost() {
        let m = model("fn outer() { fn inner() { mark(); } }");
        let mark = m
            .lexed
            .toks
            .iter()
            .position(|t| t.is_ident("mark"))
            .unwrap();
        assert_eq!(m.enclosing_fn(mark).unwrap().name, "inner");
    }

    #[test]
    fn pub_crate_is_not_public() {
        let m = model("pub(crate) fn a() {} pub unsafe extern \"C\" fn b() {} const fn c() {}");
        assert!(!m.fns[0].is_pub);
        assert!(m.fns[1].is_pub);
        assert!(!m.fns[2].is_pub);
    }
}
