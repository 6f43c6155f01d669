//! `rvmlog` — post-mortem RVM log inspector (paper §6).
//!
//! ```text
//! rvmlog <log-file> summary
//! rvmlog <log-file> records [--backward]
//! rvmlog <log-file> history <segment> <offset> <len>
//! rvmlog <log-file> doctor
//! rvmlog <log-file> verify
//! ```
//!
//! `doctor` is a read-only damage scan: it reports torn/short records,
//! sequence gaps, and corrupt status copies — plus how much of each data
//! segment the checksum catalogs cover — and exits non-zero if the log
//! is damaged. It never mutates the image.
//!
//! `scrub` verifies every data segment page against its sidecar checksum
//! catalog, read-only, exiting non-zero on any mismatch. `salvage` is the
//! offline repair ladder: corrupt pages whose latest committed content
//! the live log span fully covers are rebuilt from the log; the rest are
//! reported unrecoverable (quarantined when next mapped).
//!
//! `verify` goes further: it proves the structural invariants of the log
//! format — reverse-displacement canonicality, forward/backward scan
//! symmetry, dual-copy status agreement, recovery-tree idempotence — and
//! exits non-zero on any violation, including ones `doctor` cannot see.
//!
//! `crashck` takes a crash-consistency *trace* (not a log) captured by
//! `rvm_crashmc`, enumerates every crash image the disk model permits,
//! and recovers each one, asserting the committed-prefix invariant;
//! with `--rot` it also flips committed segment bytes in every image and
//! demands that recovery heal them (the `bitrot` workload's check).
//! `crashck-gen` produces such a trace from a canned workload.

use std::process::exit;
use std::sync::Arc;

use rvm_crashmc::workload::{run_workload, Workload};
use rvm_crashmc::{check_trace, check_trace_with_rot, Trace};
use rvm_images::EnumConfig;
use rvm_logtool::{format_entry, LogInspector};
use rvm_storage::FileDevice;

/// Resolves segment names (paths) to existing files only — unlike the
/// library's default resolver it never creates or grows a file, so scrub
/// and doctor stay side-effect-free on the filesystem.
fn strict_file_resolver() -> rvm_logtool::Resolver {
    Arc::new(|name: &str, _min_len: u64| {
        Ok(Arc::new(FileDevice::open(name)?) as Arc<dyn rvm_storage::Device>)
    })
}

fn usage() -> ! {
    eprintln!("usage: rvmlog <log-file> summary");
    eprintln!("       rvmlog <log-file> records [--backward]");
    eprintln!("       rvmlog <log-file> history <segment> <offset> <len>");
    eprintln!("       rvmlog <log-file> doctor");
    eprintln!("       rvmlog <log-file> verify");
    eprintln!("       rvmlog <log-file> scrub");
    eprintln!("       rvmlog <log-file> salvage");
    eprintln!("       rvmlog crashck <trace-file> [--seed <n>] [--rot]");
    eprintln!(
        "       rvmlog crashck-gen <trace-file> <group|consecutive|truncate|incremental|spool|subsumption|abort|bitrot|unmap|seeded:N>"
    );
    eprintln!("       rvmlog lint [rvm-lint options]");
    exit(2);
}

/// `rvmlog lint` — the workspace static analyzer. Takes no log file;
/// all arguments pass straight through to `rvm-lint` (`--json`,
/// `--root`, `--write-baseline`, ...).
fn lint(args: &[String]) -> ! {
    exit(rvm_lint::cli_main(args));
}

fn crashck(args: &[String]) -> ! {
    let trace = match Trace::load(&args[0]) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("rvmlog: cannot load trace '{}': {e}", args[0]);
            exit(1);
        }
    };
    let mut cfg = EnumConfig::default();
    if let Some(i) = args.iter().position(|a| a == "--seed") {
        let seed = args
            .get(i + 1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| usage());
        cfg.seed = seed;
    }
    let report = if args.iter().any(|a| a == "--rot") {
        check_trace_with_rot(&trace, &cfg)
    } else {
        check_trace(&trace, &cfg)
    };
    print!("{}", report.render());
    if !report.is_clean() {
        eprintln!(
            "rvmlog: crash-consistency violation (re-run with --seed {} on this trace to reproduce)",
            cfg.seed
        );
        exit(1);
    }
    exit(0);
}

fn crashck_gen(args: &[String]) -> ! {
    let workload = match args[1].as_str() {
        "group" => Workload::GroupCommit,
        "consecutive" => Workload::ConsecutiveBatches,
        "truncate" => Workload::Truncation,
        "incremental" => Workload::Incremental,
        "spool" => Workload::NoFlushSpool,
        "subsumption" => Workload::Subsumption,
        "abort" => Workload::AbortMix,
        "bitrot" => Workload::BitRot,
        "unmap" => Workload::Unmap,
        w => match w.strip_prefix("seeded:").and_then(|n| n.parse().ok()) {
            Some(seed) => Workload::Seeded(seed),
            None => usage(),
        },
    };
    let trace = run_workload(workload, Default::default());
    if let Err(e) = trace.save(&args[0]) {
        eprintln!("rvmlog: cannot write trace '{}': {e}", args[0]);
        exit(1);
    }
    println!(
        "wrote {} ({} ops, {} transactions)",
        args[0],
        trace.ops.len(),
        trace.txns.len()
    );
    exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("crashck") if args.len() >= 2 => crashck(&args[1..]),
        Some("crashck-gen") if args.len() == 3 => crashck_gen(&args[1..]),
        Some("lint") => lint(&args[1..]),
        _ => {}
    }
    if args.len() < 2 {
        usage();
    }
    let dev = match FileDevice::open(&args[0]) {
        Ok(dev) => Arc::new(dev),
        Err(e) => {
            eprintln!("rvmlog: cannot open '{}': {e}", args[0]);
            exit(1);
        }
    };
    let inspector = match LogInspector::open(dev) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("rvmlog: not a valid RVM log: {e}");
            exit(1);
        }
    };
    let result = match args[1].as_str() {
        "summary" => inspector.summary().map(|s| print!("{s}")),
        "records" => {
            let backward = args.get(2).is_some_and(|a| a == "--backward");
            let records = if backward {
                inspector.records_backward()
            } else {
                inspector.records()
            };
            records.map(|records| {
                for (off, rec) in records {
                    println!(
                        "@{off}: seq {} tid {} ranges {}",
                        rec.seq,
                        rec.tid,
                        rec.ranges.len()
                    );
                    for r in &rec.ranges {
                        println!(
                            "    {}[{}..{})",
                            r.seg,
                            r.offset,
                            r.offset + r.data.len() as u64
                        );
                    }
                }
            })
        }
        "history" if args.len() == 5 => {
            let offset: u64 = args[3].parse().unwrap_or_else(|_| usage());
            let len: u64 = args[4].parse().unwrap_or_else(|_| usage());
            inspector.history(&args[2], offset, len).map(|entries| {
                for e in entries {
                    println!("{}", format_entry(&e));
                }
            })
        }
        "doctor" => inspector.doctor().map(|report| {
            print!("{}", report.render());
            for coverage in inspector.checksum_coverage(&strict_file_resolver()) {
                println!("{}", coverage.render());
            }
            if report.is_damaged() {
                exit(1);
            }
        }),
        "scrub" => {
            let report = inspector.scrub_segments(&strict_file_resolver());
            print!("{}", report.render());
            if !report.is_clean() {
                exit(1);
            }
            Ok(())
        }
        "salvage" => inspector
            .salvage_segments(&strict_file_resolver())
            .map(|report| {
                print!("{}", report.render());
                if !report.is_clean() {
                    exit(1);
                }
            }),
        "verify" => inspector.verify().map(|report| {
            print!("{}", report.render());
            if !report.is_clean() {
                exit(1);
            }
        }),
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!("rvmlog: {e}");
        exit(1);
    }
}
