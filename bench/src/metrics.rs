//! The names, units and bounds of everything the benchmark prints.
//! `BENCHMARK.json` at the repository root says the same; a test holds
//! the two together.

/// One metric of the benchmark.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may get worse before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

/// Measured with tracing off and reported by every workload.
pub const END_TO_END: [Metric; 7] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("commit_tps", "txn/s", "higher", 0.25),
    e2e("commit_p50_us", "us", "lower", 0.25),
    e2e("log_bytes_per_user_byte", "ratio", "lower", 0.02),
    e2e("forces_per_commit", "ratio", "lower", 0.10),
    e2e("recovery_ms", "ms", "lower", 0.25),
    e2e("recovery_us_per_record", "us", "lower", 0.25),
];

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "higher",
        bound: None,
    }
}

/// From the traced run, with no bound: the layers are this repository's
/// modules.
pub const PER_LAYER: [Metric; 60] = [
    lower("client.commit_p99_us", "us"),
    lower("client.commit_p999_us", "us"),
    lower("client.commit_max_ms", "ms"),
    lower("client.gen_ns", "ns"),
    lower("txn.begin_ns", "ns"),
    lower("txn.commit_self_ns", "ns"),
    lower("region.write_ns", "ns"),
    lower("region.set_range_calls_per_txn", "count"),
    lower("ranges.insert_ns", "ns"),
    higher("ranges.intra_saved_ratio", "ratio"),
    lower("record.encode_ns", "ns"),
    lower("record.parse_ns", "ns"),
    lower("crc.ns_per_kib", "ns"),
    lower("wal.bytes_per_txn", "B"),
    lower("wal.forces", "count"),
    lower("wal.scan_ms", "ms"),
    higher("group.batch_mean", "count"),
    lower("group.forces_per_commit", "ratio"),
    higher("pipeline.submits", "count"),
    lower("pipeline.stall_ns", "ns"),
    lower("spool.commit_ns", "ns"),
    lower("spool.flush_ms", "ms"),
    lower("spool.len_at_flush", "count"),
    higher("spool.inter_saved_ratio", "ratio"),
    lower("truncation.epochs", "count"),
    lower("truncation.pause_ms", "ms"),
    lower("truncation.wall_share", "ratio"),
    lower("truncation.stall_ns", "ns"),
    lower("truncation.bytes_scanned_per_epoch", "B"),
    lower("truncation.bytes_applied_per_epoch", "B"),
    lower("scrub.sums_writes_per_epoch", "count"),
    lower("scrub.sums_bytes_per_epoch", "B"),
    lower("scrub.sums_write_ns", "ns"),
    lower("storage.log.write_ns", "ns"),
    lower("storage.log.sync_ns", "ns"),
    lower("storage.log.read_ns", "ns"),
    lower("storage.log.writes_per_txn", "count"),
    lower("storage.log.syncs_per_txn", "count"),
    lower("storage.log.bytes_per_txn", "B"),
    lower("storage.seg.write_ns", "ns"),
    lower("storage.seg.sync_ns", "ns"),
    lower("storage.seg.read_ns", "ns"),
    lower("storage.seg.writes_per_txn", "count"),
    lower("storage.seg.syncs_per_txn", "count"),
    lower("storage.seg.bytes_per_txn", "B"),
    lower("storage.sums.write_ns", "ns"),
    lower("storage.sums.sync_ns", "ns"),
    lower("storage.sums.read_ns", "ns"),
    lower("storage.sums.writes_per_txn", "count"),
    lower("storage.sums.syncs_per_txn", "count"),
    lower("storage.sums.bytes_per_txn", "B"),
    lower("storage.total_bytes_per_user_byte", "ratio"),
    lower("storage.errors", "count"),
    lower("recovery.self_ms", "ms"),
    lower("recovery.scan_ms", "ms"),
    lower("recovery.apply_ms", "ms"),
    lower("recovery.records", "count"),
    lower("recovery.bytes_applied", "B"),
    lower("trace.overhead_pct", "%"),
    higher("trace.coverage", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    /// `BENCHMARK.json` lists one entry a line, in the order and with the
    /// values of the tables here.
    #[test]
    fn benchmark_json_says_what_the_tables_say() {
        let file = include_str!("../../BENCHMARK.json");
        let mut expected = Vec::new();
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('"'), "{}", w.name);
            expected.push(format!(r#"{{"name": "{}", "why": "{}"}}"#, w.name, w.why));
        }
        for m in &END_TO_END {
            expected.push(format!(
                r#"{{"name": "{}", "unit": "{}", "better": "{}", "bound": {}}}"#,
                m.name,
                m.unit,
                m.better,
                m.bound.expect("end-to-end metrics have bounds")
            ));
        }
        for m in &PER_LAYER {
            expected.push(format!(
                r#"{{"name": "{}", "unit": "{}", "better": "{}"}}"#,
                m.name, m.unit, m.better
            ));
        }
        let listed: Vec<&str> = file
            .lines()
            .map(|l| l.trim().trim_end_matches(','))
            .filter(|l| l.starts_with(r#"{"name""#))
            .collect();
        assert_eq!(listed, expected);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(ok(name, "_.-", 64), "{name}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(ok(unit, "_/%.-", 16), "{unit}");
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }
}
