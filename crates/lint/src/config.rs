//! Configuration: the canonical lock order (`lockorder.toml`), the
//! atomics memory-ordering protocol (`atomics.toml`), and the finding
//! baseline (`lint-baseline.toml`).

use std::fmt;
use std::path::Path;

use crate::toml::{self, Val};

/// One declared lock (or lock family) in the canonical order.
#[derive(Debug, Clone)]
pub struct LockDecl {
    /// Unique rank; acquisitions must be strictly rank-increasing while
    /// other locks are held.
    pub rank: i64,
    /// Short name used in findings.
    pub name: String,
    /// Acquisition patterns, `field.method` (e.g. `core.lock`,
    /// `regions.read`). Matched as a suffix of the receiver chain, the
    /// longest pattern winning.
    pub patterns: Vec<String>,
    /// What the lock guards, for a reader of `lockorder.toml`.
    pub desc: String,
}

/// A declared condvar and the lock it parks on.
#[derive(Debug, Clone)]
pub struct CondvarDecl {
    pub name: String,
    /// Receiver-chain suffix of the condvar field (e.g. `epoch_done`).
    pub pattern: String,
    /// Name of the [`LockDecl`] whose guard it releases while parked.
    pub parks: String,
    pub desc: String,
}

/// The parsed canonical lock order.
#[derive(Debug, Clone, Default)]
pub struct LockOrder {
    pub locks: Vec<LockDecl>,
    pub condvars: Vec<CondvarDecl>,
    /// Free-text protocol notes beside the declarations.
    pub notes: Vec<String>,
}

/// Errors loading configuration.
#[derive(Debug)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ConfigError {}

fn cfg_err(msg: impl Into<String>) -> ConfigError {
    ConfigError(msg.into())
}

impl LockOrder {
    /// Parses and validates `lockorder.toml` content.
    pub fn parse(src: &str) -> Result<LockOrder, ConfigError> {
        let doc = toml::parse(src).map_err(|e| cfg_err(format!("lockorder.toml: {e}")))?;
        let mut order = LockOrder::default();
        if let Some(Val::List(notes)) = doc.root.get("notes") {
            for n in notes {
                if let Some(s) = n.as_str() {
                    order.notes.push(s.to_string());
                }
            }
        }
        for t in doc.all("lock") {
            let name = t
                .str_of("name")
                .ok_or_else(|| cfg_err("[[lock]] missing `name`"))?
                .to_string();
            let rank = t
                .get("rank")
                .and_then(Val::as_int)
                .ok_or_else(|| cfg_err(format!("lock `{name}` missing integer `rank`")))?;
            let patterns: Vec<String> = t
                .get("patterns")
                .and_then(Val::as_list)
                .map(|l| {
                    l.iter()
                        .filter_map(|v| v.as_str().map(String::from))
                        .collect()
                })
                .unwrap_or_default();
            if patterns.is_empty() {
                return Err(cfg_err(format!("lock `{name}` has no patterns")));
            }
            for p in &patterns {
                let ok = p
                    .rsplit_once('.')
                    .is_some_and(|(_, m)| matches!(m, "lock" | "read" | "write"));
                if !ok {
                    return Err(cfg_err(format!(
                        "lock `{name}` pattern `{p}` must end in .lock/.read/.write"
                    )));
                }
            }
            order.locks.push(LockDecl {
                rank,
                name,
                patterns,
                desc: t.str_of("desc").unwrap_or_default().to_string(),
            });
        }
        for t in doc.all("condvar") {
            let name = t
                .str_of("name")
                .ok_or_else(|| cfg_err("[[condvar]] missing `name`"))?
                .to_string();
            order.condvars.push(CondvarDecl {
                pattern: t.str_of("pattern").unwrap_or(&name).to_string(),
                parks: t
                    .str_of("parks")
                    .ok_or_else(|| cfg_err(format!("condvar `{name}` missing `parks`")))?
                    .to_string(),
                desc: t.str_of("desc").unwrap_or_default().to_string(),
                name,
            });
        }
        if order.locks.is_empty() {
            return Err(cfg_err("lockorder.toml declares no [[lock]] entries"));
        }
        let mut ranks: Vec<i64> = order.locks.iter().map(|l| l.rank).collect();
        ranks.sort_unstable();
        ranks.dedup();
        if ranks.len() != order.locks.len() {
            return Err(cfg_err("lock ranks must be unique (a total order)"));
        }
        let mut names: Vec<&str> = order.locks.iter().map(|l| l.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != order.locks.len() {
            return Err(cfg_err("lock names must be unique"));
        }
        for c in &order.condvars {
            if !order.locks.iter().any(|l| l.name == c.parks) {
                return Err(cfg_err(format!(
                    "condvar `{}` parks on undeclared lock `{}`",
                    c.name, c.parks
                )));
            }
        }
        order.locks.sort_by_key(|l| l.rank);
        Ok(order)
    }

    /// Loads from a file.
    pub fn load(path: &Path) -> Result<LockOrder, ConfigError> {
        let src = std::fs::read_to_string(path)
            .map_err(|e| cfg_err(format!("cannot read {}: {e}", path.display())))?;
        Self::parse(&src)
    }

    /// Lock declaration by name.
    pub fn by_name(&self, name: &str) -> Option<&LockDecl> {
        self.locks.iter().find(|l| l.name == name)
    }
}

/// A memory ordering, ranked by synchronization strength so findings can
/// say "weaker than declared" vs "not in the allowed set".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOrd {
    Relaxed,
    Acquire,
    Release,
    AcqRel,
    SeqCst,
}

impl MemOrd {
    pub fn parse(s: &str) -> Option<MemOrd> {
        Some(match s {
            "Relaxed" => MemOrd::Relaxed,
            "Acquire" => MemOrd::Acquire,
            "Release" => MemOrd::Release,
            "AcqRel" => MemOrd::AcqRel,
            "SeqCst" => MemOrd::SeqCst,
            _ => return None,
        })
    }

    pub fn as_str(self) -> &'static str {
        match self {
            MemOrd::Relaxed => "Relaxed",
            MemOrd::Acquire => "Acquire",
            MemOrd::Release => "Release",
            MemOrd::AcqRel => "AcqRel",
            MemOrd::SeqCst => "SeqCst",
        }
    }

    /// Synchronization strength: Acquire and Release are incomparable in
    /// the C++11 lattice but equally "one-sided"; the linter only needs
    /// weaker/stronger for its messages, never for admission.
    pub fn strength(self) -> u8 {
        match self {
            MemOrd::Relaxed => 0,
            MemOrd::Acquire | MemOrd::Release => 1,
            MemOrd::AcqRel => 2,
            MemOrd::SeqCst => 3,
        }
    }
}

/// Operation classes an atomic declaration constrains. `CasFailure` is
/// the failure ordering of `compare_exchange{,_weak}` / `fetch_update`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    Load,
    Store,
    Swap,
    Rmw,
    Cas,
    CasFailure,
}

impl OpClass {
    pub fn key(self) -> &'static str {
        match self {
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::Swap => "swap",
            OpClass::Rmw => "rmw",
            OpClass::Cas => "cas",
            OpClass::CasFailure => "cas_failure",
        }
    }

    pub const ALL: [OpClass; 6] = [
        OpClass::Load,
        OpClass::Store,
        OpClass::Swap,
        OpClass::Rmw,
        OpClass::Cas,
        OpClass::CasFailure,
    ];
}

/// The role an atomic plays in the concurrency protocol. Each role
/// carries a default allowed-ordering set per operation; a declaration
/// may override individual operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicRole {
    /// Monotonic statistics: Relaxed everywhere, SeqCst is a perf smell.
    Counter,
    /// Up/down quantity read for hints only: Relaxed everywhere.
    Gauge,
    /// A flag/pointer that publishes state across threads: Release
    /// stores, Acquire loads, AcqRel RMW.
    Publication,
    /// Unique-ID dispenser: Relaxed fetch_add; ordering carries nothing.
    Ticket,
}

impl AtomicRole {
    pub fn parse(s: &str) -> Option<AtomicRole> {
        Some(match s {
            "counter" => AtomicRole::Counter,
            "gauge" => AtomicRole::Gauge,
            "publication" => AtomicRole::Publication,
            "ticket" => AtomicRole::Ticket,
            _ => return None,
        })
    }

    pub fn as_str(self) -> &'static str {
        match self {
            AtomicRole::Counter => "counter",
            AtomicRole::Gauge => "gauge",
            AtomicRole::Publication => "publication",
            AtomicRole::Ticket => "ticket",
        }
    }

    /// The role's default allowed orderings for `op`. Empty = the
    /// operation itself is not permitted on this role.
    pub fn default_allowed(self, op: OpClass) -> &'static [MemOrd] {
        use MemOrd::*;
        match (self, op) {
            (AtomicRole::Counter, OpClass::Load | OpClass::Store | OpClass::Rmw) => &[Relaxed],
            (AtomicRole::Counter, _) => &[],
            (AtomicRole::Gauge, OpClass::Load | OpClass::Store | OpClass::Rmw | OpClass::Swap) => {
                &[Relaxed]
            }
            (AtomicRole::Gauge, _) => &[],
            (AtomicRole::Publication, OpClass::Load) => &[Acquire, SeqCst],
            (AtomicRole::Publication, OpClass::Store) => &[Release, SeqCst],
            (AtomicRole::Publication, OpClass::Swap | OpClass::Rmw | OpClass::Cas) => {
                &[AcqRel, SeqCst]
            }
            (AtomicRole::Publication, OpClass::CasFailure) => &[Acquire, SeqCst],
            (AtomicRole::Ticket, OpClass::Load | OpClass::Rmw) => &[Relaxed],
            (AtomicRole::Ticket, _) => &[],
        }
    }
}

/// One declared atomic (or family of same-protocol atomics).
#[derive(Debug, Clone)]
pub struct AtomicDecl {
    /// Unique name used in findings and orphan reports.
    pub name: String,
    pub role: AtomicRole,
    /// Field patterns, matched as receiver-chain suffixes like lock
    /// patterns (`pages_scrubbed` matches `self.media.pages_scrubbed`);
    /// dotted patterns disambiguate, the longest match winning.
    pub fields: Vec<String>,
    /// Restricts which *field declarations* this entry claims during the
    /// inventory walk (op sites match regardless of file — counters
    /// declared in stats.rs are bumped from rvm.rs and retry.rs).
    pub file: Option<String>,
    /// `true` for atomics reached through a binding (fn parameter,
    /// local alias, static declared via a type alias) that the field
    /// inventory cannot see; exempt from the orphan check.
    pub binding: bool,
    pub desc: String,
    /// Per-operation overrides of the role defaults.
    overrides: Vec<(OpClass, Vec<MemOrd>)>,
}

impl AtomicDecl {
    /// The effective allowed-ordering set for `op`.
    pub fn allowed(&self, op: OpClass) -> &[MemOrd] {
        self.overrides
            .iter()
            .find(|(o, _)| *o == op)
            .map(|(_, v)| v.as_slice())
            .unwrap_or_else(|| self.role.default_allowed(op))
    }
}

/// The parsed atomics protocol (`atomics.toml`).
#[derive(Debug, Clone, Default)]
pub struct AtomicsSpec {
    pub atomics: Vec<AtomicDecl>,
    /// Free-text protocol notes beside the declarations.
    pub notes: Vec<String>,
}

impl AtomicsSpec {
    /// Parses and validates `atomics.toml` content.
    pub fn parse(src: &str) -> Result<AtomicsSpec, ConfigError> {
        let doc = toml::parse(src).map_err(|e| cfg_err(format!("atomics.toml: {e}")))?;
        let mut spec = AtomicsSpec::default();
        if let Some(Val::List(notes)) = doc.root.get("notes") {
            for n in notes {
                if let Some(s) = n.as_str() {
                    spec.notes.push(s.to_string());
                }
            }
        }
        for t in doc.all("atomic") {
            let name = t
                .str_of("name")
                .ok_or_else(|| cfg_err("[[atomic]] missing `name`"))?
                .to_string();
            let role_s = t
                .str_of("role")
                .ok_or_else(|| cfg_err(format!("atomic `{name}` missing `role`")))?;
            let role = AtomicRole::parse(role_s).ok_or_else(|| {
                cfg_err(format!(
                    "atomic `{name}` has unknown role `{role_s}` (expected \
                     counter/gauge/publication/ticket)"
                ))
            })?;
            let fields: Vec<String> = t
                .get("fields")
                .and_then(Val::as_list)
                .map(|l| {
                    l.iter()
                        .filter_map(|v| v.as_str().map(String::from))
                        .collect()
                })
                .unwrap_or_default();
            if fields.is_empty() {
                return Err(cfg_err(format!("atomic `{name}` has no `fields`")));
            }
            let mut overrides = Vec::new();
            for op in OpClass::ALL {
                if let Some(v) = t.get(op.key()) {
                    let Some(list) = v.as_list() else {
                        return Err(cfg_err(format!(
                            "atomic `{name}`: `{}` must be a list of orderings",
                            op.key()
                        )));
                    };
                    let mut ords = Vec::new();
                    for item in list {
                        let s = item.as_str().unwrap_or("");
                        let ord = MemOrd::parse(s).ok_or_else(|| {
                            cfg_err(format!(
                                "atomic `{name}`: `{}` has unknown ordering `{s}`",
                                op.key()
                            ))
                        })?;
                        ords.push(ord);
                    }
                    overrides.push((op, ords));
                }
            }
            spec.atomics.push(AtomicDecl {
                name,
                role,
                fields,
                file: t.str_of("file").map(String::from),
                binding: t.get("binding").and_then(Val::as_bool).unwrap_or(false),
                desc: t.str_of("desc").unwrap_or_default().to_string(),
                overrides,
            });
        }
        let mut names: Vec<&str> = spec.atomics.iter().map(|a| a.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != spec.atomics.len() {
            return Err(cfg_err("atomic names must be unique"));
        }
        let mut pats: Vec<&str> = spec
            .atomics
            .iter()
            .flat_map(|a| a.fields.iter().map(String::as_str))
            .collect();
        pats.sort_unstable();
        let dup = pats.windows(2).find(|w| w[0] == w[1]);
        if let Some(w) = dup {
            return Err(cfg_err(format!(
                "field pattern `{}` appears in two [[atomic]] declarations — \
                 disambiguate with a dotted pattern",
                w[0]
            )));
        }
        Ok(spec)
    }

    /// Loads from a file. A missing file parses as the *empty* spec:
    /// harmless on workspaces without atomics declarations, fail-safe on
    /// this one (every atomic in scope becomes an undeclared finding).
    pub fn load(path: &Path) -> Result<AtomicsSpec, ConfigError> {
        if !path.exists() {
            return Ok(AtomicsSpec::default());
        }
        let src = std::fs::read_to_string(path)
            .map_err(|e| cfg_err(format!("cannot read {}: {e}", path.display())))?;
        Self::parse(&src)
    }

    /// Declaration by name.
    pub fn by_name(&self, name: &str) -> Option<&AtomicDecl> {
        self.atomics.iter().find(|a| a.name == name)
    }
}

/// One suppressed finding in `lint-baseline.toml`.
#[derive(Debug, Clone)]
pub struct BaselineEntry {
    pub id: String,
    pub file: String,
    pub function: String,
    pub note: String,
}

/// The checked-in baseline: findings that existed when the ratchet was
/// introduced (or were judged intentional). CI fails only on findings
/// *not* in this set.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    pub entries: Vec<BaselineEntry>,
}

impl Baseline {
    pub fn parse(src: &str) -> Result<Baseline, ConfigError> {
        let doc = toml::parse(src).map_err(|e| cfg_err(format!("lint-baseline.toml: {e}")))?;
        let mut out = Baseline::default();
        for t in doc.all("suppress") {
            out.entries.push(BaselineEntry {
                id: t
                    .str_of("id")
                    .ok_or_else(|| cfg_err("[[suppress]] missing `id`"))?
                    .to_string(),
                file: t.str_of("file").unwrap_or_default().to_string(),
                function: t.str_of("function").unwrap_or_default().to_string(),
                note: t.str_of("note").unwrap_or_default().to_string(),
            });
        }
        Ok(out)
    }

    pub fn load(path: &Path) -> Result<Baseline, ConfigError> {
        if !path.exists() {
            return Ok(Baseline::default());
        }
        let src = std::fs::read_to_string(path)
            .map_err(|e| cfg_err(format!("cannot read {}: {e}", path.display())))?;
        Self::parse(&src)
    }

    pub fn contains(&self, id: &str) -> bool {
        self.entries.iter().any(|e| e.id == id)
    }

    /// Serializes a baseline for the given findings (used by
    /// `--write-baseline`). Notes on entries that survive from `prev`
    /// are preserved. Entries are emitted sorted by (file, function, id)
    /// — independent of pass execution order and line numbers — so
    /// regenerating after unrelated edits produces reviewable diffs.
    pub fn render(findings: &[crate::findings::Finding], prev: &Baseline) -> String {
        let mut out = String::from(
            "# rvm-lint finding baseline.\n\
             #\n\
             # Findings listed here are known and suppressed; CI fails only on\n\
             # findings NOT in this file (the ratchet). Regenerate after fixing\n\
             # code with:  cargo run -p rvm-lint -- --write-baseline\n\
             # Never regenerate to absorb a *new* finding without review.\n\n\
             schema = 1\n",
        );
        let mut findings: Vec<&crate::findings::Finding> = findings.iter().collect();
        findings.sort_by(|a, b| (&a.file, &a.function, &a.id).cmp(&(&b.file, &b.function, &b.id)));
        for f in findings {
            let note = prev
                .entries
                .iter()
                .find(|e| e.id == f.id)
                .map(|e| e.note.clone())
                .filter(|n| !n.is_empty())
                .unwrap_or_else(|| f.message.clone());
            out.push_str("\n[[suppress]]\n");
            out.push_str(&format!("id = {}\n", crate::toml::escape(&f.id)));
            out.push_str(&format!("file = {}\n", crate::toml::escape(&f.file)));
            out.push_str(&format!(
                "function = {}\n",
                crate::toml::escape(&f.function)
            ));
            out.push_str(&format!("note = {}\n", crate::toml::escape(&note)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
notes = ["note one"]
[[lock]]
rank = 10
name = "core"
patterns = ["core.lock"]
desc = "the core"
[[lock]]
rank = 20
name = "regions"
patterns = ["regions.read", "regions.write"]
desc = "region map"
[[condvar]]
name = "epoch_done"
pattern = "epoch_done"
parks = "core"
desc = "epoch completion"
"#;

    #[test]
    fn parses_and_validates() {
        let o = LockOrder::parse(MINIMAL).unwrap();
        assert_eq!(o.locks.len(), 2);
        assert_eq!(o.condvars[0].parks, "core");
    }

    #[test]
    fn rejects_duplicate_ranks_and_bad_parks() {
        let dup = MINIMAL.replace("rank = 20", "rank = 10");
        assert!(LockOrder::parse(&dup).is_err());
        let bad = MINIMAL.replace("parks = \"core\"", "parks = \"nope\"");
        assert!(LockOrder::parse(&bad).is_err());
    }

    const ATOMICS_MINIMAL: &str = r#"
notes = ["protocol note"]

[[atomic]]
name = "hits"
role = "counter"
fields = ["hits", "misses"]
desc = "cache statistics"

[[atomic]]
name = "tail"
role = "publication"
fields = ["tail"]
load = ["Acquire", "Relaxed"]
"#;

    #[test]
    fn atomics_parse_roles_and_overrides() {
        let spec = AtomicsSpec::parse(ATOMICS_MINIMAL).unwrap();
        assert_eq!(spec.atomics.len(), 2);
        let hits = spec.by_name("hits").unwrap();
        assert_eq!(hits.role, AtomicRole::Counter);
        assert_eq!(hits.allowed(OpClass::Load), &[MemOrd::Relaxed]);
        assert!(hits.allowed(OpClass::Cas).is_empty());
        let tail = spec.by_name("tail").unwrap();
        // Override replaces the role default for that op only.
        assert_eq!(
            tail.allowed(OpClass::Load),
            &[MemOrd::Acquire, MemOrd::Relaxed]
        );
        assert_eq!(
            tail.allowed(OpClass::Store),
            &[MemOrd::Release, MemOrd::SeqCst]
        );
    }

    #[test]
    fn atomics_rejects_bad_specs() {
        // Unknown role.
        let bad = ATOMICS_MINIMAL.replace("\"counter\"", "\"tally\"");
        assert!(AtomicsSpec::parse(&bad).is_err());
        // Duplicate field pattern across declarations.
        let bad = ATOMICS_MINIMAL.replace("\"hits\", \"misses\"", "\"hits\", \"tail\"");
        assert!(AtomicsSpec::parse(&bad).is_err());
        // Unknown ordering in an override.
        let bad = ATOMICS_MINIMAL.replace("\"Acquire\", \"Relaxed\"", "\"Acquired\"");
        assert!(AtomicsSpec::parse(&bad).is_err());
    }

    #[test]
    fn baseline_render_is_sorted_and_preserves_notes() {
        use crate::findings::{finding_id, Finding, Pass};
        let mk = |file: &str, function: &str, detail: &str| Finding {
            id: finding_id(Pass::Atomics, file, function, detail),
            pass: Pass::Atomics,
            file: file.to_string(),
            line: 1,
            function: function.to_string(),
            message: format!("msg {detail}"),
        };
        // Deliberately unsorted input.
        let findings = vec![
            mk("z.rs", "f", "d1"),
            mk("a.rs", "g", "d2"),
            mk("a.rs", "b", "d3"),
        ];
        let prev = Baseline::parse(&format!(
            "[[suppress]]\nid = \"{}\"\nnote = \"kept note\"\n",
            findings[1].id
        ))
        .unwrap();
        let out = Baseline::render(&findings, &prev);
        let pos = |s: &str| out.find(s).unwrap_or_else(|| panic!("{s} not in {out}"));
        assert!(pos("\"a.rs\"") < pos("\"z.rs\""));
        let b_at = pos("function = \"b\"");
        let g_at = pos("function = \"g\"");
        assert!(b_at < g_at, "entries within a file sort by function");
        assert!(out.contains("kept note"), "{out}");
        // Deterministic: same input, same output.
        assert_eq!(out, Baseline::render(&findings, &prev));
    }
}
