//! The budgets in `budgets.toml`: each counts one thing in one file of
//! the workspace, from its source text, by the rule the file's header
//! states, and no count may exceed its ceiling.

use std::path::Path;

use rvm_lint::toml::{self, Table, Val};

/// The workspace root, which the budgets' paths are relative to.
fn root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// The body of the item whose opening line starts with `opening`: the
/// lines after it, up to the next line that is exactly `}`.
fn body<'a>(src: &'a str, opening: &str) -> Vec<&'a str> {
    let mut lines = src.lines().skip_while(|line| !line.starts_with(opening));
    lines.next();
    lines.take_while(|line| *line != "}").collect()
}

/// The non-test lines of the `.rs` files under `dir`, in every
/// subdirectory but one named `exclude`: in each file, the lines above
/// the first that starts with `#[cfg(test)]`.
fn lines(dir: &Path, exclude: Option<&str>) -> std::io::Result<usize> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            if path.file_name().and_then(|n| n.to_str()) != exclude {
                total += lines(&path, exclude)?;
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let src = std::fs::read_to_string(&path)?;
            let code = src.lines().take_while(|l| !l.starts_with("#[cfg(test)]"));
            total += code.count();
        }
    }
    Ok(total)
}

/// What `budget` counts, now.
fn count(budget: &Table) -> Result<usize, String> {
    let field = |key| {
        budget
            .str_of(key)
            .ok_or(format!("a budget without `{key}`"))
    };
    let (kind, file, item) = (field("kind")?, field("file")?, field("item")?);
    if kind == "lines" {
        let exclude = budget.str_of("exclude");
        return lines(&root().join(file), exclude).map_err(|e| format!("{file}: {e}"));
    }
    let src = std::fs::read_to_string(root().join(file)).map_err(|e| format!("{file}: {e}"))?;
    Ok(match kind {
        "fields" => body(&src, &format!("pub struct {item} "))
            .iter()
            .filter(|line| line.starts_with("    pub ") && line.contains(':'))
            .count(),
        "methods" => body(&src, &format!("pub trait {item}"))
            .iter()
            .filter(|line| line.starts_with("    fn "))
            .count(),
        "tables" => toml::parse(&src)
            .map_err(|e| format!("{file}: {e}"))?
            .all(item)
            .count(),
        "bytes" => src.len(),
        other => return Err(format!("{file}: no counting rule for kind `{other}`")),
    })
}

/// Checks one budget; the error names the file and the count.
fn check(budget: &Table) -> Result<(), String> {
    let number = |key| budget.get(key).and_then(Val::as_int);
    let file = budget.str_of("file").unwrap_or("?");
    let (Some(ceiling), Some(baseline)) = (number("ceiling"), number("baseline")) else {
        return Err(format!(
            "{file}: a budget needs a `ceiling` and a `baseline`"
        ));
    };
    let n = count(budget)? as i64;
    let item = budget.str_of("item").unwrap_or("?");
    if n == 0 {
        return Err(format!("{file}: the rule finds no `{item}` to count"));
    }
    if n > ceiling {
        return Err(format!(
            "{file}: {n} for `{item}`, over its ceiling of {ceiling}"
        ));
    }
    if ceiling > baseline && budget.str_of("reason").is_none_or(str::is_empty) {
        return Err(format!(
            "{file}: ceiling {ceiling} is above baseline {baseline} without a `reason`"
        ));
    }
    Ok(())
}

fn budgets() -> Vec<Table> {
    let text = std::fs::read_to_string(root().join("budgets.toml")).expect("budgets.toml");
    let doc = toml::parse(&text).expect("budgets.toml parses");
    doc.all("budget").cloned().collect()
}

#[test]
fn every_count_is_within_its_ceiling() {
    let budgets = budgets();
    assert_eq!(budgets.len(), 15);
    let failures: Vec<String> = budgets.iter().filter_map(|b| check(b).err()).collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Checks `budget` with the keys of `pairs` replaced.
fn check_with(budget: &Table, pairs: &[(&str, Val)]) -> Result<(), String> {
    let mut budget = budget.clone();
    budget
        .entries
        .retain(|(key, _)| pairs.iter().all(|(k, _)| k != key));
    budget
        .entries
        .extend(pairs.iter().map(|(k, v)| (k.to_string(), v.clone())));
    check(&budget)
}

/// A count over its ceiling, and a raise without a reason, fail by
/// name; a raise with a reason passes.
#[test]
fn a_count_over_its_ceiling_names_the_file_and_the_number() {
    let tuning = budgets().into_iter().next().expect("the Tuning budget");
    assert_eq!(count(&tuning), Ok(8));
    let with = |pairs: &[(&str, Val)]| check_with(&tuning, pairs);
    let over = with(&[("ceiling", Val::Int(7))]);
    assert_eq!(
        over,
        Err("crates/core/src/options.rs: 8 for `Tuning`, over its ceiling of 7".into())
    );
    let raised = with(&[("ceiling", Val::Int(9))]);
    assert!(raised.is_err_and(|e| e.contains("without a `reason`")));
    let reason = Val::Str("a benchmark needs the knob".into());
    assert_eq!(
        with(&[("ceiling", Val::Int(9)), ("reason", reason)]),
        Ok(())
    );

    // A prose budget counts bytes, not characters.
    let prose = budgets()
        .into_iter()
        .find(|b| b.str_of("file") == Some("DESIGN.md"))
        .expect("the DESIGN.md budget");
    let text = std::fs::read_to_string(root().join("DESIGN.md")).expect("DESIGN.md");
    assert!(text.len() > text.chars().count(), "DESIGN.md has `§`");
    let over = check_with(
        &prose,
        &[("ceiling", Val::Int(1000)), ("baseline", Val::Int(1000))],
    );
    let n = text.len();
    assert_eq!(
        over,
        Err(format!(
            "DESIGN.md: {n} for `bytes`, over its ceiling of 1000"
        ))
    );
}
