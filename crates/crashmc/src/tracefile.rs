//! Trace (de)serialization: a small self-describing little-endian binary
//! format, so failing crash traces can be saved and re-checked post
//! mortem (`rvmlog <trace> crashck`) without any external dependency.

use std::io::{self, Read, Write};
use std::path::Path;

use rvm_storage::{TraceOp, TraceOpKind};

use crate::{DeviceBase, SegWrite, Trace, TxnSpec};

const MAGIC: &[u8; 8] = b"RVMCMC03";

impl Trace {
    /// Serializes the trace.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, self.devices.len() as u32);
        for d in &self.devices {
            put_u32(&mut out, d.id);
            put_str(&mut out, &d.name);
            out.push(d.is_log as u8);
            put_bytes(&mut out, &d.image);
        }
        put_u64(&mut out, self.ops.len() as u64);
        for op in &self.ops {
            put_u32(&mut out, op.device);
            match &op.kind {
                TraceOpKind::Write { offset, data } => {
                    out.push(0);
                    put_u64(&mut out, *offset);
                    put_bytes(&mut out, data);
                }
                TraceOpKind::Sync => out.push(1),
                TraceOpKind::SetLen { len } => {
                    out.push(2);
                    put_u64(&mut out, *len);
                }
            }
        }
        put_u32(&mut out, self.txns.len() as u32);
        for t in &self.txns {
            put_u32(&mut out, t.thread);
            out.push(t.committed as u8);
            match t.ack {
                Some(a) => {
                    out.push(1);
                    put_u64(&mut out, a as u64);
                }
                None => out.push(0),
            }
            put_u32(&mut out, t.writes.len() as u32);
            for w in &t.writes {
                put_str(&mut out, &w.segment);
                put_u64(&mut out, w.offset);
                put_bytes(&mut out, &w.data);
            }
        }
        let missed = self.shape_missed.as_deref().unwrap_or_default();
        out.push(self.shape_missed.is_some() as u8);
        put_str(&mut out, missed);
        out
    }

    /// Parses a trace serialized by [`Trace::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> io::Result<Trace> {
        let mut r = bytes;
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(bad("not an rvm-crashmc trace (bad magic)"));
        }
        let ndev = get_u32(&mut r)?;
        let mut devices = Vec::with_capacity(ndev as usize);
        for _ in 0..ndev {
            devices.push(DeviceBase {
                id: get_u32(&mut r)?,
                name: get_str(&mut r)?,
                is_log: get_u8(&mut r)? != 0,
                image: get_bytes(&mut r)?,
            });
        }
        let nops = get_u64(&mut r)?;
        let mut ops = Vec::with_capacity(nops as usize);
        for _ in 0..nops {
            let device = get_u32(&mut r)?;
            let kind = match get_u8(&mut r)? {
                0 => TraceOpKind::Write {
                    offset: get_u64(&mut r)?,
                    data: get_bytes(&mut r)?,
                },
                1 => TraceOpKind::Sync,
                2 => TraceOpKind::SetLen {
                    len: get_u64(&mut r)?,
                },
                t => return Err(bad(&format!("unknown op tag {t}"))),
            };
            ops.push(TraceOp { device, kind });
        }
        let ntxn = get_u32(&mut r)?;
        let mut txns = Vec::with_capacity(ntxn as usize);
        for _ in 0..ntxn {
            let thread = get_u32(&mut r)?;
            let committed = get_u8(&mut r)? != 0;
            let ack = if get_u8(&mut r)? != 0 {
                Some(get_u64(&mut r)? as usize)
            } else {
                None
            };
            let nw = get_u32(&mut r)?;
            let mut writes = Vec::with_capacity(nw as usize);
            for _ in 0..nw {
                writes.push(SegWrite {
                    segment: get_str(&mut r)?,
                    offset: get_u64(&mut r)?,
                    data: get_bytes(&mut r)?,
                });
            }
            txns.push(TxnSpec {
                thread,
                committed,
                ack,
                writes,
            });
        }
        let missed = get_u8(&mut r)? != 0;
        let shape_missed = Some(get_str(&mut r)?).filter(|_| missed);
        if !r.is_empty() {
            return Err(bad("trailing bytes after trace"));
        }
        Ok(Trace {
            devices,
            ops,
            txns,
            shape_missed,
        })
    }

    /// Writes the trace to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(&self.to_bytes())?;
        f.sync_all()
    }

    /// Reads a trace written by [`Trace::save`].
    pub fn load(path: impl AsRef<Path>) -> io::Result<Trace> {
        Trace::from_bytes(&std::fs::read(path)?)
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u64(out, b.len() as u64);
    out.extend_from_slice(b);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

fn get_u8(r: &mut &[u8]) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn get_u32(r: &mut &[u8]) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn get_u64(r: &mut &[u8]) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn get_bytes(r: &mut &[u8]) -> io::Result<Vec<u8>> {
    let len = get_u64(r)? as usize;
    if len > r.len() {
        return Err(bad("length prefix past end of input"));
    }
    let (head, tail) = r.split_at(len);
    let out = head.to_vec();
    *r = tail;
    Ok(out)
}

fn get_str(r: &mut &[u8]) -> io::Result<String> {
    String::from_utf8(get_bytes(r)?).map_err(|_| bad("non-UTF-8 string"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            devices: vec![
                DeviceBase {
                    id: 0,
                    name: "log".into(),
                    is_log: true,
                    image: vec![1, 2, 3],
                },
                DeviceBase {
                    id: 1,
                    name: "cells".into(),
                    is_log: false,
                    image: vec![],
                },
            ],
            ops: vec![
                TraceOp {
                    device: 0,
                    kind: TraceOpKind::Write {
                        offset: 7,
                        data: vec![9; 5],
                    },
                },
                TraceOp {
                    device: 0,
                    kind: TraceOpKind::Sync,
                },
                TraceOp {
                    device: 1,
                    kind: TraceOpKind::SetLen { len: 4096 },
                },
            ],
            txns: vec![TxnSpec {
                thread: 2,
                committed: true,
                ack: Some(2),
                writes: vec![SegWrite {
                    segment: "cells".into(),
                    offset: 64,
                    data: vec![0xAB; 8],
                }],
            }],
            shape_missed: None,
        }
    }

    #[test]
    fn round_trips() {
        let mut t = sample();
        for missed in [None, Some("no commit subsumed".to_owned())] {
            t.shape_missed = missed;
            let bytes = t.to_bytes();
            assert_eq!(Trace::from_bytes(&bytes).unwrap(), t);
        }
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(Trace::from_bytes(b"not a trace").is_err());
        let bytes = sample().to_bytes();
        assert!(Trace::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(Trace::from_bytes(&extra).is_err());
    }

    #[test]
    fn save_and_load() {
        let dir = std::env::temp_dir().join(format!("crashmc-tf-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.rvmtrace");
        let t = sample();
        t.save(&path).unwrap();
        assert_eq!(Trace::load(&path).unwrap(), t);
        std::fs::remove_dir_all(&dir).ok();
    }
}
