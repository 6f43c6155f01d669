//! Spans recorded from outside the library.
//!
//! The benchmark opens a span around each public call it makes, and
//! [`SpanDevice`](crate::devices::SpanDevice) opens child spans around
//! every device call the library makes underneath. Each thread keeps its
//! own stack, totals and a pre-sized span buffer; nothing is written out
//! until the run has ended. A span's self time is its duration minus the
//! part its child spans on the same thread cover.

use std::cell::RefCell;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::stats::{ratio, Json};

/// Device roles the benchmark's resolver tells apart.
pub const ROLES: [&str; 3] = ["log", "seg", "sums"];
/// Device operations timed per role.
pub const DEV_OPS: [&str; 4] = ["write", "sync", "read", "other"];

/// What a span covers. Device spans are `Dev(role, op)` indices into
/// [`ROLES`] and [`DEV_OPS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The generator producing the next transaction (`client` layer).
    Gen,
    Begin,
    /// One declaration: `Region::write` or `Transaction::set_range`.
    Write,
    /// `Transaction::commit` that touched no segment device.
    Commit,
    /// `Rvm::flush` that touched no segment device.
    Flush,
    /// A commit or flush under which the library wrote a segment or its
    /// checksum sidecar: an inline epoch truncation ran inside it.
    Truncating,
    Initialize,
    Map,
    Dev(u8, u8),
}

const FIXED_KINDS: usize = 8;
pub const NUM_KINDS: usize = FIXED_KINDS + ROLES.len() * DEV_OPS.len();

impl Kind {
    fn index(self) -> usize {
        match self {
            Kind::Gen => 0,
            Kind::Begin => 1,
            Kind::Write => 2,
            Kind::Commit => 3,
            Kind::Flush => 4,
            Kind::Truncating => 5,
            Kind::Initialize => 6,
            Kind::Map => 7,
            Kind::Dev(role, op) => FIXED_KINDS + role as usize * DEV_OPS.len() + op as usize,
        }
    }

    fn name(index: usize) -> String {
        const FIXED: [&str; FIXED_KINDS] = [
            "client.gen",
            "txn.begin",
            "region.write",
            "txn.commit",
            "rvm.flush",
            "truncating",
            "rvm.initialize",
            "rvm.map",
        ];
        match index.checked_sub(FIXED_KINDS) {
            None => FIXED[index].to_owned(),
            Some(d) => format!(
                "storage.{}.{}",
                ROLES[d / DEV_OPS.len()],
                DEV_OPS[d % DEV_OPS.len()]
            ),
        }
    }
}

/// Totals of one span kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    pub calls: u64,
    pub ns: u64,
    pub self_ns: u64,
    /// Bytes moved (device spans only).
    pub bytes: u64,
    /// Calls that returned an error (device spans only).
    pub errors: u64,
}

impl Total {
    /// Mean duration per call, 0 with no calls.
    pub fn mean_ns(&self) -> f64 {
        ratio(self.ns, self.calls)
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    kind: u8,
    /// Index of the enclosing span in the same thread's buffer.
    parent: Option<u32>,
    /// Transaction the thread was running, 0 outside one.
    txn: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Everything gathered since the previous [`take`].
#[derive(Debug, Default)]
pub struct Gathered {
    totals: [Total; NUM_KINDS],
    /// Durations of the truncating commits and flushes.
    pub pauses_ns: Vec<u64>,
    /// Sum of spans that had no parent.
    pub top_level_ns: u64,
    spans: Vec<(usize, Vec<Span>)>,
}

impl Gathered {
    pub fn total(&self, kind: Kind) -> Total {
        self.totals[kind.index()]
    }

    pub fn dev(&self, role: usize, op: &str) -> Total {
        let op = DEV_OPS.iter().position(|o| *o == op).expect("known op");
        self.total(Kind::Dev(role as u8, op as u8))
    }

    /// All time spent in the devices of one role.
    pub fn role_ns(&self, role: usize) -> u64 {
        DEV_OPS.iter().map(|op| self.dev(role, op).ns).sum()
    }

    /// Adds what `other` gathered; spans are kept while there is room
    /// for them among [`SPANS_KEPT`].
    pub fn merge(&mut self, other: Gathered) {
        for (mine, theirs) in self.totals.iter_mut().zip(&other.totals) {
            mine.calls += theirs.calls;
            mine.ns += theirs.ns;
            mine.self_ns += theirs.self_ns;
            mine.bytes += theirs.bytes;
            mine.errors += theirs.errors;
        }
        self.pauses_ns.extend(other.pauses_ns);
        self.top_level_ns += other.top_level_ns;
        for spans in other.spans {
            let kept: usize = self.spans.iter().map(|(_, s)| s.len()).sum();
            if kept + spans.1.len() <= SPANS_KEPT {
                self.spans.push(spans);
            }
        }
    }

    /// The recorded spans as a JSON document (written only after a run).
    pub fn spans_json(&self) -> Json {
        // A buffer is one thread's spans of one phase of one cycle; ids
        // are positions in it, and a stream's stamps restart every cycle.
        let mut out = Vec::new();
        for (buffer, (thread, spans)) in self.spans.iter().enumerate() {
            for (i, s) in spans.iter().enumerate() {
                let parent = s.parent.map_or(String::new(), |p| format!("{buffer}.{p}"));
                out.push(Json::obj([
                    ("id", Json::str(format!("{buffer}.{i}"))),
                    ("name", Json::Str(Kind::name(s.kind as usize))),
                    ("start_ns", Json::Int(s.start_ns)),
                    ("end_ns", Json::Int(s.end_ns)),
                    ("parent", Json::Str(parent)),
                    ("txn_id", Json::str(format!("{buffer}.{}", s.txn))),
                    ("thread", Json::Int(*thread as u64)),
                ]));
            }
        }
        Json::Arr(out)
    }
}

struct Frame {
    kind: Kind,
    start_ns: u64,
    child_ns: u64,
    /// A segment or sidecar device was called under this span.
    touched_segment: bool,
    /// Position in the span buffer, if the buffer had room.
    slot: Option<u32>,
}

#[derive(Default)]
struct Local {
    thread: Option<usize>,
    stack: Vec<Frame>,
    totals: [Total; NUM_KINDS],
    pauses_ns: Vec<u64>,
    top_level_ns: u64,
    spans: Vec<Span>,
    txn: u64,
}

/// Spans kept per thread between two [`take`]s; later ones still count
/// in the totals.
const SPAN_BUFFER: usize = 20_000;
/// Spans one run keeps for its trace file, over all threads and phases.
const SPANS_KEPT: usize = 100_000;

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

static SINK: Mutex<Option<Gathered>> = Mutex::new(None);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_THREAD: Mutex<usize> = Mutex::new(0);

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Marks the transaction the calling thread's next spans belong to.
pub fn set_txn(txn: u64) {
    LOCAL.with_borrow_mut(|l| l.txn = txn);
}

/// Opens a span on the calling thread.
pub fn enter(kind: Kind) {
    LOCAL.with_borrow_mut(|l| {
        if l.spans.capacity() == 0 {
            l.spans.reserve_exact(SPAN_BUFFER);
        }
        let start_ns = now_ns();
        let slot = (l.spans.len() < SPAN_BUFFER).then(|| {
            let parent = l.stack.last().and_then(|f| f.slot);
            l.spans.push(Span {
                kind: kind.index() as u8,
                parent,
                txn: l.txn,
                start_ns,
                end_ns: start_ns,
            });
            l.spans.len() as u32 - 1
        });
        l.stack.push(Frame {
            kind,
            start_ns,
            child_ns: 0,
            touched_segment: false,
            slot,
        });
    });
}

/// Closes the calling thread's innermost span.
pub fn exit() {
    exit_io(0, false, 0);
}

/// Closes a device span, counting `bytes` moved and whether it failed.
/// `callback_ns` of the span were spent in a callback of the library's
/// (the checksum predicate of a verified read): they are the caller's
/// work, not the device's, and stay in the enclosing span's self time.
pub fn exit_io(bytes: u64, failed: bool, callback_ns: u64) {
    LOCAL.with_borrow_mut(|l| {
        let end_ns = now_ns().saturating_sub(callback_ns);
        let frame = l.stack.pop().expect("exit without enter");
        let ns = end_ns.saturating_sub(frame.start_ns);
        let segment_io = matches!(frame.kind, Kind::Dev(role, _) if role > 0);
        let kind = match frame.kind {
            Kind::Commit | Kind::Flush if frame.touched_segment => {
                l.pauses_ns.push(ns);
                Kind::Truncating
            }
            kind => kind,
        };
        let total = &mut l.totals[kind.index()];
        total.calls += 1;
        total.ns += ns;
        total.self_ns += ns - frame.child_ns.min(ns);
        total.bytes += bytes;
        total.errors += u64::from(failed);
        if let Some(slot) = frame.slot {
            let span = &mut l.spans[slot as usize];
            span.end_ns = end_ns;
            span.kind = kind.index() as u8;
        }
        match l.stack.last_mut() {
            Some(parent) => {
                parent.child_ns += ns;
                parent.touched_segment |= segment_io || frame.touched_segment;
            }
            None => l.top_level_ns += ns,
        }
    });
}

/// Hands the calling thread's totals and spans to the shared sink. Client
/// threads call it before they end; [`take`] does it for its caller.
pub fn flush_thread() {
    LOCAL.with_borrow_mut(|l| {
        let thread = *l.thread.get_or_insert_with(|| {
            let mut next = NEXT_THREAD.lock().expect("thread counter");
            *next += 1;
            *next - 1
        });
        let spans = std::mem::take(&mut l.spans);
        let recorded = Gathered {
            totals: std::mem::take(&mut l.totals),
            pauses_ns: std::mem::take(&mut l.pauses_ns),
            top_level_ns: std::mem::take(&mut l.top_level_ns),
            spans: if spans.is_empty() {
                Vec::new()
            } else {
                vec![(thread, spans)]
            },
        };
        SINK.lock()
            .expect("trace sink")
            .get_or_insert_with(Gathered::default)
            .merge(recorded);
    });
}

/// Everything recorded since the previous call, by this thread and by
/// every thread that has flushed.
pub fn take() -> Gathered {
    flush_thread();
    SINK.lock().expect("trace sink").take().unwrap_or_default()
}

/// Tests that read the sink hold this, since they share it.
#[cfg(test)]
pub static TEST_SINK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_time_excludes_children_and_truncating_commits_are_relabelled() {
        let _sink = TEST_SINK.lock().unwrap_or_else(|e| e.into_inner());
        take();
        std::thread::spawn(|| {
            set_txn(1);
            enter(Kind::Commit);
            spin(200_000);
            enter(Kind::Dev(0, 0));
            spin(300_000);
            exit_io(512, false, 0);
            exit();

            set_txn(2);
            enter(Kind::Commit);
            enter(Kind::Dev(1, 0));
            spin(100_000);
            exit_io(4096, true, 0);
            exit();
            flush_thread();
        })
        .join()
        .unwrap();
        let g = take();

        let commit = g.total(Kind::Commit);
        assert_eq!(commit.calls, 1);
        assert!(commit.ns >= 500_000);
        let log_write = g.dev(0, "write");
        assert_eq!(
            (log_write.calls, log_write.bytes, log_write.errors),
            (1, 512, 0)
        );
        assert_eq!(commit.self_ns, commit.ns - log_write.ns);

        let truncating = g.total(Kind::Truncating);
        assert_eq!(truncating.calls, 1);
        assert_eq!(g.pauses_ns, vec![truncating.ns]);
        let seg_write = g.dev(1, "write");
        assert_eq!((seg_write.bytes, seg_write.errors), (4096, 1));
        assert_eq!(g.role_ns(1), seg_write.ns);
        assert_eq!(g.top_level_ns, commit.ns + truncating.ns);

        let Json::Arr(spans) = g.spans_json() else {
            panic!("array")
        };
        assert_eq!(spans.len(), 4);
        let child = spans[1].encode();
        assert!(child.contains(r#""name": "storage.log.write""#), "{child}");
        assert!(child.contains(r#""parent": "0.0""#), "{child}");
        assert!(child.contains(r#""txn_id": "0.1""#), "{child}");
        assert!(spans[2].encode().contains(r#""name": "truncating""#));
        assert_eq!(take().total(Kind::Commit).calls, 0);
    }
}
