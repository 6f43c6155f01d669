//! Fixture conviction tests: each pass must convict its known-bad
//! fixture (with the expected functions named) and come back clean on
//! the matching known-good fixture.
//!
//! The fixture sources live under `tests/fixtures/` — a directory the
//! workspace glob does not build, so the deliberately-broken code never
//! touches `cargo build`. They are linted here as plain source text,
//! exactly how `lint_workspace` consumes real files.

use std::collections::BTreeSet;

use rvm_lint::config::{AtomicsSpec, LockOrder};
use rvm_lint::findings::Finding;
use rvm_lint::items::FileModel;
use rvm_lint::passes;

/// A miniature canonical order covering the locks the fixtures touch.
const FIXTURE_ORDER: &str = r#"
[[lock]]
rank = 5
name = "queue"
patterns = ["queue.lock"]
desc = "a queue never held together with core"

[[lock]]
rank = 10
name = "core"
patterns = ["core.lock"]
desc = "instance core"

[[lock]]
rank = 20
name = "regions"
patterns = ["regions.read", "regions.write"]
desc = "region table"

[[lock]]
rank = 25
name = "check"
patterns = ["check.lock"]
desc = "checker state"

[[lock]]
rank = 30
name = "mem-lock"
patterns = ["mem_lock.read", "mem_lock.write"]
desc = "per-region memory"

[[lock]]
rank = 40
name = "page-vector"
patterns = ["page_vector.lock"]
desc = "per-region page vector"
"#;

/// The protocol matching the known-good atomics fixture.
const FIXTURE_ATOMICS: &str = r#"
[[atomic]]
name = "hits"
role = "counter"
fields = ["hits"]

[[atomic]]
name = "depth"
role = "gauge"
fields = ["depth"]

[[atomic]]
name = "ready"
role = "publication"
fields = ["ready"]
"#;

/// The protocol for the known-bad fixture: the same planes (minus
/// `depth`, which that fixture does not have) plus a seeded orphan.
const FIXTURE_ATOMICS_BAD: &str = r#"
[[atomic]]
name = "hits"
role = "counter"
fields = ["hits"]

[[atomic]]
name = "ready"
role = "publication"
fields = ["ready"]

[[atomic]]
name = "ghost"
role = "counter"
fields = ["ghost"]
"#;

fn model(name: &str, src: &str) -> FileModel {
    FileModel::build(name, src, false)
}

fn functions(findings: &[Finding]) -> BTreeSet<String> {
    findings.iter().map(|f| f.function.clone()).collect()
}

fn assert_clean(pass: &str, findings: &[Finding]) {
    assert!(
        findings.is_empty(),
        "{pass}: clean fixture should produce no findings, got: {:#?}",
        findings
    );
}

#[test]
fn lockorder_fixture_convicts_and_clean_passes() {
    let order = LockOrder::parse(FIXTURE_ORDER).expect("fixture order parses");

    let bad = model(
        "fixtures/lockorder_bad.rs",
        include_str!("fixtures/lockorder_bad.rs"),
    );
    let findings = passes::lockorder::run(&order, &[&bad]);
    let fns = functions(&findings);
    for expected in [
        "check_then_core",
        "core_reentrant",
        "vector_then_helper",
        "if_let_extends_guard",
        "undeclared_lock",
        "unlocked_with_second_guard",
        "vector_across_unlocked_callee",
        "regions_across_lower_release",
    ] {
        assert!(
            fns.contains(expected),
            "lock-order: expected a finding in `{expected}`, got {fns:?}\n{findings:#?}"
        );
    }
    // The helper itself acquires in isolation — legal; only the caller
    // holding `page_vector` across it is a violation.
    assert!(!fns.contains("helper_touches_memory"), "{findings:#?}");
    // Likewise a function that releases its caller's guard around a
    // closure; and the guard it released is not "re-acquired" in there.
    assert!(!fns.contains("releases_core_around"), "{findings:#?}");
    assert!(!fns.contains("takes_queue_around"), "{findings:#?}");
    assert!(
        findings
            .iter()
            .filter(|f| f.function == "unlocked_with_second_guard")
            .all(|f| f.message.contains("`check`") && !f.message.contains("re-acqui")),
        "lock-order: `unlocked` releases its own guard and no other: {findings:#?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("via call") || f.message.contains("helper_touches_memory")),
        "lock-order: the `vector_then_helper` conviction should name the call edge: {findings:#?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.function == "core_reentrant" && f.message.contains("re-acqui")),
        "lock-order: reentrancy should be called out: {findings:#?}"
    );

    let good = model(
        "fixtures/lockorder_good.rs",
        include_str!("fixtures/lockorder_good.rs"),
    );
    assert_clean("lock-order", &passes::lockorder::run(&order, &[&good]));
}

#[test]
fn fallibility_fixture_convicts_and_clean_passes() {
    let bad = model(
        "fixtures/fallibility_bad.rs",
        include_str!("fixtures/fallibility_bad.rs"),
    );
    let findings = passes::fallibility::run(&[&bad]);
    let fns = functions(&findings);
    let expected: BTreeSet<String> = [
        "discard_let_underscore",
        "discard_ok",
        "discard_bare_statement",
        "unwrap_outside_tests",
        "expect_outside_tests",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    assert_eq!(
        fns, expected,
        "device-fallibility: every discard shape convicts exactly once\n{findings:#?}"
    );

    let good = model(
        "fixtures/fallibility_good.rs",
        include_str!("fixtures/fallibility_good.rs"),
    );
    assert_clean("device-fallibility", &passes::fallibility::run(&[&good]));
}

#[test]
fn unlogged_fixture_convicts_and_clean_passes() {
    let bad = model(
        "fixtures/unlogged_bad.rs",
        include_str!("fixtures/unlogged_bad.rs"),
    );
    let findings = passes::unlogged::run(&[&bad]);
    let fns = functions(&findings);
    for expected in [
        "deref_write_without_set_range",
        "bulk_copy_without_set_range",
        "ptr_write_without_set_range",
    ] {
        assert!(
            fns.contains(expected),
            "unlogged-write: expected a finding in `{expected}`, got {fns:?}\n{findings:#?}"
        );
    }

    let good = model(
        "fixtures/unlogged_good.rs",
        include_str!("fixtures/unlogged_good.rs"),
    );
    assert_clean("unlogged-write", &passes::unlogged::run(&[&good]));
}

#[test]
fn panic_surface_fixture_convicts_and_clean_passes() {
    let bad = model(
        "fixtures/panics_bad.rs",
        include_str!("fixtures/panics_bad.rs"),
    );
    let findings = passes::panics::run(&[&bad]);
    // The inventory reports the function *containing* each site, so the
    // private helpers reached from pub roots appear under their own
    // names.
    let fns = functions(&findings);
    for expected in [
        "api_unwraps",
        "private_helper_expects",
        "api_indexes",
        "dispatch_on_kind",
    ] {
        assert!(
            fns.iter().any(|f| f.contains(expected)),
            "panic-surface: expected `{expected}` in the inventory, got {fns:?}\n{findings:#?}"
        );
    }

    let good = model(
        "fixtures/panics_good.rs",
        include_str!("fixtures/panics_good.rs"),
    );
    assert_clean("panic-surface", &passes::panics::run(&[&good]));
}

#[test]
fn atomics_fixture_convicts_and_clean_passes() {
    let spec = AtomicsSpec::parse(FIXTURE_ATOMICS_BAD).expect("fixture spec parses");
    let bad = model(
        "fixtures/atomics_bad.rs",
        include_str!("fixtures/atomics_bad.rs"),
    );
    let findings = passes::atomics::run(&spec, &[&bad]);
    let fns = functions(&findings);
    for expected in [
        "seqcst_counter",
        "relaxed_publication_store",
        "weakened_cas_failure",
        "rogue_op",
    ] {
        assert!(
            fns.iter().any(|f| f.contains(expected)),
            "atomics: expected a finding in `{expected}`, got {fns:?}\n{findings:#?}"
        );
    }
    // Each seeded violation convicts under the right sub-check.
    assert!(
        findings
            .iter()
            .any(|f| f.function.contains("seqcst_counter")
                && f.message.contains("counter")
                && f.message.contains("SeqCst")),
        "{findings:#?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.function.contains("relaxed_publication_store")
                && f.message.contains("weaker")),
        "{findings:#?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.function.contains("weakened_cas_failure")
                && f.message.contains("failure ordering")),
        "{findings:#?}"
    );
    // The undeclared field, its op, and the seeded orphan all surface.
    assert!(
        findings
            .iter()
            .any(|f| f.function == "<fields>" && f.message.contains("`rogue`")),
        "{findings:#?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.file == "atomics.toml" && f.function == "ghost"),
        "orphan declaration should be reported against atomics.toml: {findings:#?}"
    );

    let good_spec = AtomicsSpec::parse(FIXTURE_ATOMICS).expect("fixture spec parses");
    let good = model(
        "fixtures/atomics_good.rs",
        include_str!("fixtures/atomics_good.rs"),
    );
    assert_clean("atomics", &passes::atomics::run(&good_spec, &[&good]));
}

#[test]
fn atomics_ids_are_stable_across_line_shifts() {
    let spec = AtomicsSpec::parse(FIXTURE_ATOMICS_BAD).expect("fixture spec parses");
    let src = include_str!("fixtures/atomics_bad.rs");
    let shifted = format!("// shifted by one line\n{src}");
    let a = passes::atomics::run(&spec, &[&model("fixtures/atomics_bad.rs", src)]);
    let b = passes::atomics::run(&spec, &[&model("fixtures/atomics_bad.rs", &shifted)]);
    let ids_a: Vec<&str> = a.iter().map(|f| f.id.as_str()).collect();
    let ids_b: Vec<&str> = b.iter().map(|f| f.id.as_str()).collect();
    assert_eq!(ids_a, ids_b, "IDs must be line-independent");
    assert!(
        a.iter()
            .zip(&b)
            .filter(|(x, _)| x.file != "atomics.toml")
            .all(|(x, y)| x.line + 1 == y.line),
        "lines themselves should shift"
    );
}

#[test]
fn fixture_ids_are_stable_across_line_shifts() {
    // Prepending a comment line moves every site down one line; finding
    // IDs must not change (the ratchet baseline depends on this).
    let src = include_str!("fixtures/fallibility_bad.rs");
    let shifted = format!("// shifted by one line\n{src}");
    let a = passes::fallibility::run(&[&model("fixtures/fallibility_bad.rs", src)]);
    let b = passes::fallibility::run(&[&model("fixtures/fallibility_bad.rs", &shifted)]);
    let ids_a: Vec<&str> = a.iter().map(|f| f.id.as_str()).collect();
    let ids_b: Vec<&str> = b.iter().map(|f| f.id.as_str()).collect();
    assert_eq!(ids_a, ids_b, "IDs must be line-independent");
    assert!(
        a.iter().zip(&b).all(|(x, y)| x.line + 1 == y.line),
        "lines themselves should shift"
    );
}
