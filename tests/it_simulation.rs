//! Sanity checks of the simulation substrate and quick shape checks of
//! the benchmark harness: the paper's qualitative claims must hold even
//! on reduced sweeps (full sweeps live in the `table1`/`figure8`/
//! `figure9` binaries).

use rvm_bench::tpca_run::{run_cell, SweepConfig, SystemKind};
use tpca::AccessPattern;

fn quick_cfg() -> SweepConfig {
    SweepConfig {
        txns_per_trial: 4_000,
        trials: 1,
        ..SweepConfig::default()
    }
}

#[test]
fn log_force_bound_holds() {
    // §7.1.2: observed best case within 15% of the 57.4 txn/s bound.
    let cfg = quick_cfg();
    let cell = run_cell(SystemKind::Rvm, 32 * 1024, AccessPattern::Sequential, &cfg);
    let tps = cell.mean_tps();
    assert!(tps < 57.5, "cannot beat the log-force bound: {tps}");
    assert!(
        tps > 57.5 * 0.80,
        "best case within ~15-20% of bound: {tps}"
    );
}

#[test]
fn rvm_beats_camelot_across_the_board() {
    let cfg = quick_cfg();
    for pattern in AccessPattern::ALL {
        for accounts in [32 * 1024u64, 262_144] {
            let rvm = run_cell(SystemKind::Rvm, accounts, pattern, &cfg).mean_tps();
            let cam = run_cell(SystemKind::Camelot, accounts, pattern, &cfg).mean_tps();
            assert!(
                rvm > cam,
                "RVM must outperform Camelot ({pattern:?}, {accounts} accounts): {rvm} vs {cam}"
            );
        }
    }
}

#[test]
fn camelot_is_locality_sensitive_at_small_sizes_and_rvm_is_not() {
    // §7.1.2: at Rmem/Pmem = 12.5%, Camelot's throughput drops from
    // sequential to localized to random; RVM's barely moves.
    let cfg = quick_cfg();
    let accounts = 32 * 1024;
    let cam_seq = run_cell(
        SystemKind::Camelot,
        accounts,
        AccessPattern::Sequential,
        &cfg,
    )
    .mean_tps();
    let cam_loc = run_cell(
        SystemKind::Camelot,
        accounts,
        AccessPattern::Localized,
        &cfg,
    )
    .mean_tps();
    let cam_rnd = run_cell(SystemKind::Camelot, accounts, AccessPattern::Random, &cfg).mean_tps();
    assert!(
        cam_seq > cam_loc && cam_loc > cam_rnd,
        "{cam_seq} > {cam_loc} > {cam_rnd}"
    );
    assert!(cam_rnd < cam_seq * 0.95, "sensitivity is material");

    let rvm_seq = run_cell(SystemKind::Rvm, accounts, AccessPattern::Sequential, &cfg).mean_tps();
    let rvm_rnd = run_cell(SystemKind::Rvm, accounts, AccessPattern::Random, &cfg).mean_tps();
    assert!(
        (rvm_seq - rvm_rnd).abs() / rvm_seq < 0.06,
        "RVM is pattern-insensitive at 12.5%: {rvm_seq} vs {rvm_rnd}"
    );
}

#[test]
fn rvm_random_throughput_knees_when_rmem_exceeds_memory() {
    let cfg = quick_cfg();
    let small = run_cell(SystemKind::Rvm, 32 * 1024, AccessPattern::Random, &cfg).mean_tps();
    let large = run_cell(SystemKind::Rvm, 425_984, AccessPattern::Random, &cfg).mean_tps();
    assert!(
        large < small * 0.85,
        "paging must bite at 162.5%: {small} -> {large}"
    );
}

#[test]
fn cpu_per_transaction_ratio_matches_figure_9() {
    // "RVM requires about half the CPU usage of Camelot" (sequential).
    let cfg = quick_cfg();
    let rvm = run_cell(SystemKind::Rvm, 32 * 1024, AccessPattern::Sequential, &cfg).mean_cpu();
    let cam = run_cell(
        SystemKind::Camelot,
        32 * 1024,
        AccessPattern::Sequential,
        &cfg,
    )
    .mean_cpu();
    let ratio = cam / rvm;
    assert!(
        (1.5..3.0).contains(&ratio),
        "Camelot/RVM CPU ratio ~2, got {ratio:.2} ({cam:.2}/{rvm:.2})"
    );
}

#[test]
fn sweeps_are_deterministic() {
    let cfg = quick_cfg();
    let a = run_cell(SystemKind::Rvm, 65_536, AccessPattern::Localized, &cfg).mean_tps();
    let b = run_cell(SystemKind::Rvm, 65_536, AccessPattern::Localized, &cfg).mean_tps();
    assert_eq!(a, b, "virtual-clock runs must be bit-for-bit repeatable");
}

#[test]
fn coda_workload_reproduces_table_2_bands() {
    // Scaled-down check: servers get intra-only savings around 20%;
    // the burstiest client (berlioz) gets majority inter savings.
    let profiles = coda_wl::profiles();
    let grieg = profiles.iter().find(|p| p.name == "grieg").unwrap();
    let mut p = grieg.clone();
    p.txns = 2_000;
    let row = coda_wl::run_machine(&p, 42);
    assert!(
        (15.0..30.0).contains(&row.intra_pct),
        "grieg intra {}",
        row.intra_pct
    );
    assert_eq!(row.inter_pct, 0.0);

    let berlioz = profiles.iter().find(|p| p.name == "berlioz").unwrap();
    let mut p = berlioz.clone();
    p.txns = 3_000;
    let row = coda_wl::run_machine(&p, 42);
    assert!(row.inter_pct > 45.0, "berlioz inter {}", row.inter_pct);
    assert!(row.inter_pct > row.intra_pct);
}
