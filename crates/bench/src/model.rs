//! The simulated machine and cost model.
//!
//! Constants are calibrated against the anchors the paper states
//! explicitly (derivations in EXPERIMENTS.md):
//!
//! * a log force averages **17.4 ms** (§7.1.2) — produced by
//!   [`DiskParams::circa_1990`];
//! * a Mach RPC costs **430 µs** against 0.7 µs for a local call (§3.3);
//! * RVM needs **about half** the CPU per transaction of Camelot
//!   (Figure 9);
//! * best-case observed throughput is within 15 % of the 57.4 txn/s bound
//!   (§7.1.2), i.e. ≈ 48.5 txn/s, fixing total per-transaction CPU+I/O
//!   overhead beyond the force at ≈ 3 ms.

use simclock::SimTime;
use simdisk::DiskParams;

/// The benchmark machine (a DECstation 5000/200-class host, §7.1).
#[derive(Debug, Clone)]
pub struct Machine {
    /// Physical memory: 64 MB.
    pub pmem_bytes: u64,
    /// Frames available to RVM's recoverable data after the OS, the
    /// server binary, and RVM's own buffers take their share.
    pub rvm_avail_bytes: u64,
    /// Frames available under Camelot: its six system tasks squeeze the
    /// pool further (§2.3 "considerable paging and context switching
    /// overheads").
    pub camelot_avail_bytes: u64,
    /// Parameters of the three dedicated disks (log, data, paging).
    pub disk: DiskParams,
}

impl Default for Machine {
    fn default() -> Self {
        Self {
            pmem_bytes: 64 << 20,
            rvm_avail_bytes: 48 << 20,
            camelot_avail_bytes: 36 << 20,
            disk: DiskParams::circa_1990(),
        }
    }
}

/// CPU path-length model for the RVM library.
#[derive(Debug, Clone)]
pub struct RvmCostModel {
    /// `begin_transaction`.
    pub cpu_begin: SimTime,
    /// One `set_range` (range bookkeeping + old-value copy).
    pub cpu_set_range: SimTime,
    /// `end_transaction` fixed path (record build, force issue).
    pub cpu_commit: SimTime,
    /// Per byte copied into the log record.
    pub cpu_per_logged_byte_ns: u64,
    /// VM fault service (trap + pagein bookkeeping).
    pub cpu_fault: SimTime,
    /// Truncation: per log byte scanned.
    pub cpu_trunc_per_scanned_byte_ns: u64,
    /// Truncation: per disjoint range applied to a segment.
    pub cpu_trunc_per_range: SimTime,
}

impl Default for RvmCostModel {
    fn default() -> Self {
        Self {
            cpu_begin: SimTime::from_micros(60),
            cpu_set_range: SimTime::from_micros(90),
            cpu_commit: SimTime::from_micros(1500),
            cpu_per_logged_byte_ns: 150,
            cpu_fault: SimTime::from_micros(500),
            cpu_trunc_per_scanned_byte_ns: 20,
            cpu_trunc_per_range: SimTime::from_micros(40),
        }
    }
}

impl RvmCostModel {
    /// Base CPU of one 4-range TPC-A transaction, excluding faults and
    /// truncation (should come out near 1.6–1.7 ms — half of Camelot's).
    pub fn base_txn_cpu(&self, logged_bytes: u64) -> SimTime {
        self.cpu_begin
            + self.cpu_set_range * 4
            + self.cpu_commit
            + SimTime::from_nanos(self.cpu_per_logged_byte_ns * logged_bytes)
    }
}

/// Log device sizing for the TPC-A runs: large enough that epoch
/// truncation is amortized over tens of thousands of transactions, as a
/// dedicated log disk or raw partition would be (§3.3). The threshold
/// falls about 34 400 TPC-A records (640 bytes each) in, so a trial of
/// 40 000 transactions holds one epoch.
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Log device size.
    pub device_bytes: u64,
    /// Truncation threshold (fraction of the record area).
    pub threshold: f64,
}

impl Default for LogConfig {
    fn default() -> Self {
        Self {
            device_bytes: 60 << 20,
            threshold: 0.35,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rvm_base_cpu_is_about_half_of_camelots() {
        let rvm = RvmCostModel::default().base_txn_cpu(600);
        // Camelot: 5 IPCs + context switches + base (see CamelotParams).
        let camelot_approx = SimTime::from_micros(5 * 550 + 900 + 120);
        let ratio = camelot_approx.as_secs_f64() / rvm.as_secs_f64();
        assert!(
            (1.6..2.6).contains(&ratio),
            "CPU ratio should be ~2 (Figure 9), got {ratio}"
        );
    }

    #[test]
    fn machine_defaults_are_consistent() {
        let m = Machine::default();
        assert!(m.rvm_avail_bytes < m.pmem_bytes);
        assert!(m.camelot_avail_bytes < m.rvm_avail_bytes);
    }
}
