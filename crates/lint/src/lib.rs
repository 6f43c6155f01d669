//! `rvm-lint` — whole-workspace static analysis for the RVM codebase.
//!
//! Five passes, each encoding a discipline this codebase has had to
//! learn the hard way (see the module docs in `passes/`):
//!
//! 1. **lock-order** — every `.lock()`/`.read()`/`.write()` acquisition
//!    in `crates/core` checked (including interprocedurally) against the
//!    canonical order declared in `lockorder.toml`;
//! 2. **device-fallibility** — no `Device`/WAL/status-block `Result`
//!    silently discarded or unwrapped outside tests;
//! 3. **unlogged-write** — raw writes into mapped region memory in
//!    API-consumer functions that never declare a `set_range`;
//! 4. **panic-surface** — an inventory of unwrap/expect/panic!/indexing
//!    reachable from the public API of `rvm` and `rvm-capi`;
//! 5. **atomics** — every atomic field in `crates/core` declared in
//!    `atomics.toml` with a role and allowed orderings, and every op
//!    site checked against its declaration (CAS failure orderings
//!    included).
//!
//! Findings carry stable IDs (hash of pass, file, function, detail key —
//! *not* line numbers) and are suppressed either inline
//! (`// lint:allow(<pass>): reason`) or via the checked-in
//! `lint-baseline.toml` ratchet: CI fails only on findings not in the
//! baseline, so the lint lands green and the surface can only shrink.
//!
//! The analyzer is deliberately dependency-free: a hand-rolled token
//! lexer plus function extraction (`items`), not full parsing. None of
//! the passes need type information — only token shapes and a call graph
//! resolved by unique bare name.

pub mod config;
pub mod findings;
pub mod items;
pub mod json;
pub mod lexer;
pub mod passes;
pub mod toml;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use config::{AtomicsSpec, Baseline, ConfigError, LockOrder};
use findings::{Finding, Pass};
use items::FileModel;

/// Default location of the canonical lock order, workspace-relative.
pub const LOCKORDER_PATH: &str = "lockorder.toml";
/// Default location of the atomics protocol, workspace-relative.
pub const ATOMICS_PATH: &str = "atomics.toml";
/// Default location of the finding baseline, workspace-relative.
pub const BASELINE_PATH: &str = "lint-baseline.toml";

/// Which files a pass looks at (workspace-relative, `/`-separated).
fn in_scope(pass: Pass, path: &str) -> bool {
    // Never lint the linter, build output, or vendored deps.
    if path.starts_with("crates/lint/")
        || path.starts_with("target/")
        || path.starts_with("vendor/")
    {
        return false;
    }
    let core = path.starts_with("crates/core/src/");
    match pass {
        // The lock-order prose lives in crates/core; other crates have
        // their own, simpler locking.
        Pass::LockOrder => core,
        // Wherever Device/WAL results flow.
        Pass::DeviceFallibility => {
            core || path.starts_with("crates/storage/src/")
                || path.starts_with("crates/logtool/src/")
                || path.starts_with("crates/capi/src/")
        }
        // API consumers that touch mapped memory.
        Pass::UnloggedWrite => [
            "crates/alloc/",
            "crates/ds/",
            "crates/loader/",
            "crates/nest/",
            "crates/dist/",
            "crates/gc/",
            "crates/simpledb/",
            "crates/tpca/",
            "crates/coda/",
            "crates/camelot/",
            "crates/bench/",
            "examples/",
        ]
        .iter()
        .any(|p| path.starts_with(p)),
        Pass::PanicSurface => core || path.starts_with("crates/capi/src/"),
        // The concurrency planes (and their orderings) all live in
        // crates/core.
        Pass::Atomics => core,
    }
}

/// `true` if the file is test-only (integration tests, benches, the
/// shared `tests/` crate, or crates/core's `models/`, built only under
/// `cfg(test)`): unwraps there are fine, and its wrappers
/// behind `crate::sync` are not the locks and atomics they wrap.
fn file_is_test(path: &str) -> bool {
    path.starts_with("tests/")
        || path.contains("/tests/")
        || path.contains("/benches/")
        || path.starts_with("crates/core/src/models/")
}

/// Options for a lint run.
pub struct LintOptions {
    /// Workspace root.
    pub root: PathBuf,
    /// Path to `lockorder.toml` (absolute or root-relative).
    pub lockorder: PathBuf,
    /// Path to `atomics.toml` (absolute or root-relative). A missing
    /// file is an empty protocol — the pass then reports every atomic
    /// as undeclared, which is the correct pressure to write one.
    pub atomics: PathBuf,
    /// Path to `lint-baseline.toml` (absolute or root-relative).
    pub baseline: PathBuf,
}

impl LintOptions {
    pub fn new(root: impl Into<PathBuf>) -> LintOptions {
        let root = root.into();
        LintOptions {
            lockorder: root.join(LOCKORDER_PATH),
            atomics: root.join(ATOMICS_PATH),
            baseline: root.join(BASELINE_PATH),
            root,
        }
    }
}

/// The outcome of a lint run.
pub struct Report {
    /// Every finding, in pass order then file/line order.
    pub findings: Vec<Finding>,
    /// IDs present in the baseline but produced by this run anyway
    /// (suppressed).
    pub baselined: Vec<Finding>,
    /// Findings NOT in the baseline — these fail CI.
    pub fresh: Vec<Finding>,
    /// Baseline entries whose finding no longer exists (fixed code):
    /// reported so the baseline can be re-tightened.
    pub stale_baseline: Vec<String>,
    /// Number of files analyzed per pass slug.
    pub files_scanned: BTreeMap<&'static str, usize>,
}

/// Recursively collects `.rs` files under `dir`, as workspace-relative
/// `/`-separated paths. Deterministic (sorted) so finding order and
/// ordinal IDs are stable across platforms.
fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if p.is_dir() {
            if matches!(name, "target" | "vendor" | ".git" | ".cargo") {
                continue;
            }
            collect_rs(root, &p, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = p.strip_prefix(root) {
                let rel = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push(rel);
            }
        }
    }
    Ok(())
}

/// Runs all five passes over the workspace.
pub fn lint_workspace(opts: &LintOptions) -> Result<Report, ConfigError> {
    let order = LockOrder::load(&opts.lockorder)?;
    let atomics = AtomicsSpec::load(&opts.atomics)?;
    let baseline = Baseline::load(&opts.baseline)?;

    let mut paths = Vec::new();
    for top in ["crates", "examples", "tests"] {
        let dir = opts.root.join(top);
        if dir.is_dir() {
            collect_rs(&opts.root, &dir, &mut paths)
                .map_err(|e| ConfigError(format!("walking {top}/: {e}")))?;
        }
    }

    // Load each file once; passes share the models.
    let mut models: Vec<FileModel> = Vec::new();
    for rel in &paths {
        if !Pass::ALL.iter().any(|&p| in_scope(p, rel)) {
            continue;
        }
        let src = std::fs::read_to_string(opts.root.join(rel))
            .map_err(|e| ConfigError(format!("reading {rel}: {e}")))?;
        models.push(FileModel::build(rel, &src, file_is_test(rel)));
    }

    let mut findings = Vec::new();
    let mut files_scanned = BTreeMap::new();
    for &pass in &Pass::ALL {
        let scoped: Vec<&FileModel> = models.iter().filter(|m| in_scope(pass, &m.path)).collect();
        files_scanned.insert(pass.slug(), scoped.len());
        let mut fs = match pass {
            Pass::LockOrder => passes::lockorder::run(&order, &scoped),
            Pass::DeviceFallibility => passes::fallibility::run(&scoped),
            Pass::UnloggedWrite => passes::unlogged::run(&scoped),
            Pass::PanicSurface => passes::panics::run(&scoped),
            Pass::Atomics => passes::atomics::run(&atomics, &scoped),
        };
        fs.sort_by(|a, b| (&a.file, a.line, &a.id).cmp(&(&b.file, b.line, &b.id)));
        findings.extend(fs);
    }

    let (baselined, fresh): (Vec<Finding>, Vec<Finding>) = findings
        .iter()
        .cloned()
        .partition(|f| baseline.contains(&f.id));
    let stale_baseline: Vec<String> = baseline
        .entries
        .iter()
        .filter(|e| !findings.iter().any(|f| f.id == e.id))
        .map(|e| e.id.clone())
        .collect();

    Ok(Report {
        findings,
        baselined,
        fresh,
        stale_baseline,
        files_scanned,
    })
}

impl Report {
    /// Machine-readable report. Schema:
    ///
    /// ```json
    /// {"schema": 1,
    ///  "findings": [{"id": "...", "pass": "...", "file": "...",
    ///                "line": 1, "function": "...", "message": "...",
    ///                "baselined": false}, ...],
    ///  "counts": {"total": n, "fresh": n, "baselined": n,
    ///             "stale_baseline": n}}
    /// ```
    pub fn to_json(&self) -> String {
        let mut j = json::JsonBuf::default();
        j.obj_open();
        j.num_field("schema", 1);
        j.arr_open("findings");
        for f in &self.findings {
            let baselined = self.baselined.iter().any(|b| b.id == f.id);
            j.obj_open();
            j.str_field("id", &f.id);
            j.str_field("pass", f.pass.slug());
            j.str_field("file", &f.file);
            j.num_field("line", f.line as u64);
            j.str_field("function", &f.function);
            j.str_field("message", &f.message);
            j.bool_field("baselined", baselined);
            j.obj_close();
        }
        j.arr_close();
        j.key("counts");
        j.obj_open();
        j.num_field("total", self.findings.len() as u64);
        j.num_field("fresh", self.fresh.len() as u64);
        j.num_field("baselined", self.baselined.len() as u64);
        j.num_field("stale_baseline", self.stale_baseline.len() as u64);
        j.obj_close();
        j.obj_close();
        j.finish()
    }

    /// Human-readable report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in &self.fresh {
            out.push_str("NEW  ");
            out.push_str(&f.render());
            out.push('\n');
        }
        for f in &self.baselined {
            out.push_str("base ");
            out.push_str(&f.render());
            out.push('\n');
        }
        for id in &self.stale_baseline {
            out.push_str(&format!(
                "stale baseline entry {id} — the finding is gone; \
                 re-run with --write-baseline to tighten the ratchet\n"
            ));
        }
        let scanned: Vec<String> = self
            .files_scanned
            .iter()
            .map(|(k, v)| format!("{k}: {v} files"))
            .collect();
        out.push_str(&format!(
            "rvm-lint: {} finding(s): {} new, {} baselined, {} stale baseline entr{} ({})\n",
            self.findings.len(),
            self.fresh.len(),
            self.baselined.len(),
            self.stale_baseline.len(),
            if self.stale_baseline.len() == 1 {
                "y"
            } else {
                "ies"
            },
            scanned.join(", "),
        ));
        out
    }
}

const USAGE: &str = "\
rvm-lint — static analysis for the RVM workspace

USAGE:
    rvm-lint [OPTIONS]            (also: rvmlog lint [OPTIONS])

OPTIONS:
    --root <dir>          workspace root (default: auto-detect from cwd)
    --lockorder <file>    lock-order declaration (default: <root>/lockorder.toml)
    --atomics <file>      atomics protocol declaration (default: <root>/atomics.toml)
    --baseline <file>     finding baseline (default: <root>/lint-baseline.toml)
    --json                emit the machine-readable report on stdout
    --write-baseline      rewrite the baseline to the current findings
                          (preserving notes, sorted) and exit 0
    -h, --help            this help

EXIT STATUS:
    0  no findings outside the baseline
    1  new findings (listed with the NEW prefix)
    2  usage or configuration error
";

/// Walks up from `start` to the first directory containing both
/// `Cargo.toml` and `crates/`.
fn find_root(start: PathBuf) -> Option<PathBuf> {
    let mut d = start;
    loop {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d);
        }
        if !d.pop() {
            return None;
        }
    }
}

/// The shared CLI driver behind both `rvm-lint` and `rvmlog lint`.
/// Returns the process exit code (0 clean, 1 new findings, 2 usage or
/// configuration error).
pub fn cli_main(argv: &[String]) -> i32 {
    fn fail(msg: &str) -> i32 {
        eprintln!("rvm-lint: {msg}");
        2
    }
    let mut args = argv.iter();
    let mut root: Option<PathBuf> = None;
    let mut lockorder: Option<PathBuf> = None;
    let mut atomics: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut json = false;
    let mut write_baseline = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" | "--lockorder" | "--atomics" | "--baseline" => {
                let Some(v) = args.next() else {
                    return fail(&format!("{a} needs a value"));
                };
                let v = PathBuf::from(v);
                match a.as_str() {
                    "--root" => root = Some(v),
                    "--lockorder" => lockorder = Some(v),
                    "--atomics" => atomics = Some(v),
                    _ => baseline = Some(v),
                }
            }
            "--json" => json = true,
            "--write-baseline" => write_baseline = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                return 0;
            }
            other => return fail(&format!("unknown option `{other}`\n\n{USAGE}")),
        }
    }

    let found = root.or_else(|| find_root(std::env::current_dir().ok()?));
    let Some(root) = found else {
        return fail("cannot find workspace root (try --root)");
    };
    let mut opts = LintOptions::new(&root);
    if let Some(p) = lockorder {
        opts.lockorder = p;
    }
    if let Some(p) = atomics {
        opts.atomics = p;
    }
    if let Some(p) = baseline {
        opts.baseline = p;
    }

    let report = match lint_workspace(&opts) {
        Ok(r) => r,
        Err(e) => return fail(&e.to_string()),
    };

    if write_baseline {
        let prev = Baseline::load(&opts.baseline).unwrap_or_default();
        let rendered = Baseline::render(&report.findings, &prev);
        if let Err(e) = std::fs::write(&opts.baseline, rendered) {
            return fail(&format!("writing {}: {e}", opts.baseline.display()));
        }
        eprintln!(
            "rvm-lint: baseline rewritten with {} finding(s)",
            report.findings.len()
        );
        return 0;
    }

    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.to_text());
    }
    if report.fresh.is_empty() {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_rules() {
        assert!(in_scope(Pass::LockOrder, "crates/core/src/rvm.rs"));
        assert!(!in_scope(Pass::LockOrder, "crates/storage/src/device.rs"));
        assert!(in_scope(
            Pass::DeviceFallibility,
            "crates/logtool/src/lib.rs"
        ));
        assert!(in_scope(Pass::UnloggedWrite, "examples/src/lib.rs"));
        assert!(!in_scope(Pass::UnloggedWrite, "crates/core/src/rvm.rs"));
        assert!(in_scope(Pass::PanicSurface, "crates/capi/src/lib.rs"));
        assert!(in_scope(Pass::Atomics, "crates/core/src/cursor.rs"));
        assert!(file_is_test("crates/core/src/models/sync.rs"));
        assert!(!in_scope(Pass::Atomics, "crates/storage/src/device.rs"));
        for p in Pass::ALL {
            assert!(!in_scope(p, "crates/lint/src/lib.rs"));
            assert!(!in_scope(p, "vendor/rand/src/lib.rs"));
        }
    }
}
