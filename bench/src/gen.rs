//! Seeded operation streams and the model that says what they should
//! leave behind.
//!
//! The library under test receives only what a stream generates. A stream
//! is a pure function of its seed, so any run can be replayed onto a plain
//! byte vector afterwards — that replay is the reference every durability
//! and atomicity check compares against.

use tpca::{AccessPattern, TpcaLayout, TpcaWorkload};

/// Most ranges one transaction declares.
pub const MAX_RANGES: usize = 4;
/// Largest single write any stream issues (one Coda object).
pub const MAX_WRITE: usize = CODA_OBJECT as usize;

/// One `set_range` declaration of a transaction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Range {
    pub offset: u64,
    pub len: u32,
    /// `true`: `Region::write` of the stamp pattern; `false`: a defensive
    /// `Transaction::set_range` re-declaration that changes no byte.
    pub write: bool,
}

/// One generated transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// 1-based position in the stream; every written range starts with
    /// it, so a recovered image tells which transaction wrote it.
    pub stamp: u64,
    pub ranges: [Range; MAX_RANGES],
    /// Distinct bytes this transaction intends to modify.
    pub user_bytes: u32,
}

impl Op {
    /// Fills `payload` with this transaction's byte pattern: the stamp,
    /// then its low byte repeated. Every written range takes a prefix.
    pub fn fill(&self, payload: &mut [u8; MAX_WRITE]) {
        payload.fill(self.stamp as u8);
        payload[..8].copy_from_slice(&self.stamp.to_le_bytes());
    }

    /// Applies the transaction to a model image.
    pub fn apply(&self, image: &mut [u8], payload: &mut [u8; MAX_WRITE]) {
        self.fill(payload);
        for r in self.ranges.iter().filter(|r| r.write) {
            let start = r.offset as usize;
            image[start..start + r.len as usize].copy_from_slice(&payload[..r.len as usize]);
        }
    }
}

/// SplitMix64: the benchmark's own generator, so stream contents depend
/// on nothing the library or its shims could change.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the bias of the modulo is below 2^-40 for the
    /// sizes used here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Accounts across all clients of a TPC-A workload (§7.1.1's smallest
/// configuration: 12.5 % of the paper's physical memory).
pub const TPCA_ACCOUNTS: u64 = 32 * 1024;

pub const CODA_OBJECT: u64 = 2048;
pub const CODA_OBJECTS: u64 = 4096;

/// Which generator a workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// The paper's TPC-A variant, uniformly random accounts: four writes
    /// (account, teller, branch: 128 bytes each; audit record: 64).
    Tpca,
    /// The paper's Coda-client pattern: one whole 2 KiB object written,
    /// then three defensive re-declarations inside it, consecutive
    /// transactions hitting the same object in bursts.
    Coda,
}

impl StreamKind {
    /// Bytes of region one client's stream addresses when `clients`
    /// share the workload.
    pub fn slice_len(self, clients: u64) -> u64 {
        match self {
            StreamKind::Tpca => TpcaLayout::new(TPCA_ACCOUNTS / clients).total_len(),
            StreamKind::Coda => CODA_OBJECT * (CODA_OBJECTS / clients),
        }
    }

    /// The stream of client `client` of `clients`: its own seed, and its
    /// own slice of the shared region — RVM leaves serializability to the
    /// application (§3.1), so concurrent clients own disjoint data.
    pub fn stream(self, seed: u64, client: u64, clients: u64) -> Stream {
        let origin = (self, seed, client, clients);
        let seed = SplitMix64::new(seed ^ client.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64();
        let base = client * self.slice_len(clients);
        let gen = match self {
            StreamKind::Tpca => Gen::Tpca(TpcaWorkload::new(
                TpcaLayout::new(TPCA_ACCOUNTS / clients),
                AccessPattern::Random,
                seed,
            )),
            StreamKind::Coda => Gen::Coda {
                rng: SplitMix64::new(seed),
                objects: CODA_OBJECTS / clients,
                object: 0,
            },
        };
        Stream {
            gen,
            base,
            issued: 0,
            origin,
        }
    }
}

enum Gen {
    Tpca(TpcaWorkload),
    Coda {
        rng: SplitMix64,
        objects: u64,
        object: u64,
    },
}

/// A client's seeded transaction stream.
pub struct Stream {
    gen: Gen,
    /// Offset of this client's slice in the shared region.
    base: u64,
    issued: u64,
    /// What [`StreamKind::stream`] was called with.
    origin: (StreamKind, u64, u64, u64),
}

impl Stream {
    /// Transactions generated so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// The same stream from its first transaction, for replay.
    pub fn restarted(&self) -> Stream {
        let (kind, seed, client, clients) = self.origin;
        kind.stream(seed, client, clients)
    }

    pub fn next_op(&mut self) -> Op {
        self.issued += 1;
        let stamp = self.issued;
        let base = self.base;
        match &mut self.gen {
            Gen::Tpca(workload) => {
                let t = workload.next_txn();
                let l = workload.layout();
                let w = |offset: u64, len: u32| Range {
                    offset: base + offset,
                    len,
                    write: true,
                };
                Op {
                    stamp,
                    ranges: [
                        w(l.account_offset(t.account), tpca::ACCOUNT_SIZE as u32),
                        w(l.teller_offset(t.teller), tpca::TELLER_SIZE as u32),
                        w(l.branch_offset(), tpca::BRANCH_SIZE as u32),
                        w(l.audit_slot_offset(t.audit_slot), tpca::AUDIT_SIZE as u32),
                    ],
                    user_bytes: (tpca::ACCOUNT_SIZE
                        + tpca::TELLER_SIZE
                        + tpca::BRANCH_SIZE
                        + tpca::AUDIT_SIZE) as u32,
                }
            }
            Gen::Coda {
                rng,
                objects,
                object,
            } => {
                // Bursts on one object, geometric with mean 8.
                if stamp == 1 || rng.below(8) == 0 {
                    *object = rng.below(*objects);
                }
                let obj = base + *object * CODA_OBJECT;
                let mut ranges = [Range::default(); MAX_RANGES];
                ranges[0] = Range {
                    offset: obj,
                    len: CODA_OBJECT as u32,
                    write: true,
                };
                // Where the previous declaration ended, inside the object.
                let mut prev_end = 0u64;
                for r in &mut ranges[1..] {
                    let (start, len) = match rng.below(3) {
                        // Duplicate: the whole object again.
                        0 => (0, CODA_OBJECT),
                        // Overlapping: an arbitrary 64-byte-grained part.
                        1 => {
                            let start = 64 * rng.below(16);
                            (start, 64 * (1 + rng.below(16)))
                        }
                        // Adjacent: starts where the previous one ended.
                        _ => {
                            let start = prev_end % CODA_OBJECT;
                            (start, (64 * (1 + rng.below(16))).min(CODA_OBJECT - start))
                        }
                    };
                    prev_end = start + len;
                    *r = Range {
                        offset: obj + start,
                        len: len as u32,
                        write: false,
                    };
                }
                Op {
                    stamp,
                    ranges,
                    user_bytes: CODA_OBJECT as u32,
                }
            }
        }
    }

    /// How many transactions of this stream `slice` (this client's part
    /// of a recovered region) reflects, given that it is a prefix: TPC-A
    /// stamps the one branch record every time; Coda stamps the head of
    /// whichever object it wrote, so the largest stamp is the latest.
    fn durable_count(&self, slice: &[u8]) -> u64 {
        let stamp_at = |offset: usize| {
            u64::from_le_bytes(slice[offset..offset + 8].try_into().expect("8 bytes"))
        };
        match &self.gen {
            Gen::Tpca(workload) => stamp_at(workload.layout().branch_offset() as usize),
            Gen::Coda { objects, .. } => (0..*objects as usize)
                .map(|i| stamp_at(i * CODA_OBJECT as usize))
                .max()
                .unwrap_or(0),
        }
    }
}

/// Checks a recovered region slice against a fresh copy of the stream
/// that produced it.
///
/// * Durability: at least `acked` transactions (those whose commit — or,
///   for lazy commits, whose covering `flush()` — returned `Ok`) and at
///   most `attempted` are reflected.
/// * Atomicity: the slice equals the replay of exactly that many
///   transactions, so no transaction is present in part.
///
/// Returns how many transactions survived.
pub fn verify_prefix(
    slice: &[u8],
    mut stream: Stream,
    acked: u64,
    attempted: u64,
) -> Result<u64, String> {
    let survived = stream.durable_count(slice);
    if survived < acked {
        return Err(format!(
            "durability: {acked} commits acknowledged, only {survived} recovered"
        ));
    }
    if survived > attempted {
        return Err(format!(
            "atomicity: stamp {survived} recovered, only {attempted} transactions attempted"
        ));
    }
    let base = stream.base;
    let mut model = vec![0u8; slice.len()];
    let mut payload = [0u8; MAX_WRITE];
    for _ in 0..survived {
        let mut op = stream.next_op();
        for r in &mut op.ranges {
            r.offset -= base;
        }
        op.apply(&mut model, &mut payload);
    }
    match model.iter().zip(slice).position(|(m, s)| m != s) {
        None => Ok(survived),
        Some(at) => Err(format!(
            "atomicity: byte {at} of the slice differs from the replay of {survived} transactions"
        )),
    }
}

/// FNV-1a over the first `n` operations of a stream: two streams with the
/// same hash issue the same transactions.
#[cfg(test)]
pub fn stream_hash(mut stream: Stream, n: u64) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for _ in 0..n {
        let op = stream.next_op();
        eat(op.stamp);
        eat(u64::from(op.user_bytes));
        for r in op.ranges {
            eat(r.offset);
            eat(u64::from(r.len));
            eat(u64::from(r.write));
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [StreamKind; 2] = [StreamKind::Tpca, StreamKind::Coda];

    #[test]
    fn one_seed_gives_one_stream() {
        for kind in KINDS {
            let a = stream_hash(kind.stream(7, 0, 1), 5000);
            assert_eq!(a, stream_hash(kind.stream(7, 0, 1), 5000));
            assert_ne!(a, stream_hash(kind.stream(8, 0, 1), 5000));
            assert_ne!(a, stream_hash(kind.stream(7, 1, 2), 5000));
        }
    }

    #[test]
    fn ranges_stay_inside_the_clients_slice() {
        for kind in KINDS {
            for clients in [1, 2, 4] {
                let len = kind.slice_len(clients);
                for client in 0..clients {
                    let mut s = kind.stream(3, client, clients);
                    for _ in 0..2000 {
                        let op = s.next_op();
                        for r in op.ranges {
                            assert!(r.len > 0 && r.len as usize <= MAX_WRITE);
                            assert!(r.offset >= client * len);
                            assert!(r.offset + u64::from(r.len) <= (client + 1) * len);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn coda_redeclarations_stay_inside_the_written_object() {
        let mut s = StreamKind::Coda.stream(11, 0, 1);
        let mut same_as_previous = 0;
        let mut previous = u64::MAX;
        for _ in 0..8000 {
            let op = s.next_op();
            let obj = op.ranges[0];
            assert!(obj.write && u64::from(obj.len) == CODA_OBJECT);
            for r in &op.ranges[1..] {
                assert!(!r.write);
                assert!(r.offset >= obj.offset);
                assert!(r.offset + u64::from(r.len) <= obj.offset + CODA_OBJECT);
            }
            same_as_previous += u64::from(obj.offset == previous);
            previous = obj.offset;
        }
        // Mean burst length 8 means 7 of 8 transactions repeat the object.
        assert!(
            (6600..7400).contains(&same_as_previous),
            "{same_as_previous}"
        );
    }

    fn image_after(kind: StreamKind, n: u64) -> Vec<u8> {
        let mut image = vec![0u8; kind.slice_len(1) as usize];
        let mut payload = [0u8; MAX_WRITE];
        let mut s = kind.stream(5, 0, 1);
        for _ in 0..n {
            s.next_op().apply(&mut image, &mut payload);
        }
        image
    }

    #[test]
    fn verify_accepts_exactly_the_prefixes_in_range() {
        for kind in KINDS {
            let image = image_after(kind, 300);
            let fresh = || kind.stream(5, 0, 1);
            assert_eq!(verify_prefix(&image, fresh(), 300, 300), Ok(300));
            assert_eq!(verify_prefix(&image, fresh(), 250, 301), Ok(300));
            // A commit acknowledged but not recovered is a durability failure.
            let lost = verify_prefix(&image, fresh(), 301, 302).unwrap_err();
            assert!(lost.starts_with("durability"), "{lost}");
            let extra = verify_prefix(&image, fresh(), 0, 299).unwrap_err();
            assert!(extra.starts_with("atomicity"), "{extra}");
            assert_eq!(verify_prefix(&image_after(kind, 0), fresh(), 0, 10), Ok(0));
        }
    }

    #[test]
    fn verify_rejects_a_partially_applied_transaction() {
        for kind in KINDS {
            let mut image = image_after(kind, 300);
            // Undo the tail of the last transaction's first write.
            let last = {
                let mut s = kind.stream(5, 0, 1);
                (0..300).map(|_| s.next_op()).last().unwrap()
            };
            let r = last.ranges[0];
            image[(r.offset + u64::from(r.len)) as usize - 1] ^= 0xFF;
            let torn = verify_prefix(&image, kind.stream(5, 0, 1), 300, 300).unwrap_err();
            assert!(torn.starts_with("atomicity"), "{torn}");
        }
    }
}
