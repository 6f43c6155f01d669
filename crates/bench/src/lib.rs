//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§7).
//!
//! * [`model`] — the simulated machine and per-operation CPU costs, with
//!   their derivations.
//! * [`rvm_driver`] — runs the *real* RVM library over latency-modelled
//!   devices, with paging modelled by `simvm` around the account touches.
//! * [`camelot_driver`] — runs the `camelot-sim` baseline.
//! * [`tpca_run`] — the benchmark loop shared by both systems.
//! * [`report`] — table and ASCII-plot formatting.
//!
//! Binaries: `table1`, `figure8`, `figure9`, `table2`, `ablation`.

pub mod camelot_driver;
pub mod model;
pub mod report;
pub mod rvm_driver;
pub mod tpca_run;

use std::sync::Arc;

use rvm::segment::DeviceResolver;
use rvm_storage::{Device, MemDevice};

/// A resolver that answers every segment name with `data` (grown to the
/// length asked for): one modelled disk behind the whole benchmark. The
/// drivers using it run with `segment_checksums` off, so nothing is ever
/// written to a `.sums` sidecar; the library still looks at one when it
/// opens a segment, and that look must not land on — or be charged to —
/// the data disk, so sidecar names get an empty device of their own.
pub fn one_disk_resolver(data: Arc<dyn Device>) -> DeviceResolver {
    Arc::new(move |name, min_len| {
        if rvm::scrub::is_sidecar(name) {
            return Ok(Arc::new(MemDevice::with_len(0)) as Arc<dyn Device>);
        }
        if data.len()? < min_len {
            data.set_len(min_len)?;
        }
        Ok(data.clone())
    })
}
