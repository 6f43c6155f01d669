//! End-to-end test of the `rvmlog` binary against a real log file.

use std::process::Command;
use std::sync::Arc;

use rvm::{CommitMode, Options, RegionDescriptor, Rvm, TxnMode, PAGE_SIZE};
use rvm_storage::FileDevice;

fn rvmlog() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rvmlog"))
}

fn build_log(dir: &std::path::Path) -> std::path::PathBuf {
    let log_path = dir.join("app.rvmlog");
    let seg_path = dir.join("objects.seg");
    let log = Arc::new(FileDevice::open_or_create(&log_path, 1 << 20).unwrap());
    let rvm = Rvm::initialize(Options::new(log).create_if_empty()).unwrap();
    let region = rvm
        .map(&RegionDescriptor::new(
            seg_path.to_str().unwrap(),
            0,
            PAGE_SIZE,
        ))
        .unwrap();
    for i in 0..3u64 {
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        region.put_u64(&mut txn, 128, i + 1).unwrap();
        txn.commit(CommitMode::Flush).unwrap();
    }
    std::mem::forget(rvm); // keep the log un-truncated
    log_path
}

#[test]
fn summary_records_and_history_subcommands() {
    let dir = std::env::temp_dir().join(format!("rvmlog-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = build_log(&dir);
    let seg_name = dir.join("objects.seg");

    let out = rvmlog().arg(&log_path).arg("summary").output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("3 live record(s)"), "{text}");
    assert!(text.contains("objects.seg"), "{text}");

    let out = rvmlog().arg(&log_path).arg("records").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.matches("seq ").count(), 3, "{text}");

    let out = rvmlog()
        .arg(&log_path)
        .arg("records")
        .arg("--backward")
        .output()
        .unwrap();
    assert!(out.status.success());

    let out = rvmlog()
        .arg(&log_path)
        .arg("history")
        .arg(seg_name.to_str().unwrap())
        .arg("128")
        .arg("8")
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.lines().count(), 3, "{text}");
    assert!(text.contains("[128..136)"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn doctor_subcommand_reports_damage() {
    let dir = std::env::temp_dir().join(format!("rvmlog-doctor-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = build_log(&dir);

    // A healthy log: exit 0, no damage reported.
    let out = rvmlog().arg(&log_path).arg("doctor").output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("no damage found"), "{text}");
    assert!(text.contains("3 live record(s)"), "{text}");

    // Corrupt the second record's payload, 48 bytes in: the record area
    // starts at 16384, and record 0 (one 8-byte range) comes first.
    use rvm::log::record::{HEADER_SIZE, LOG_BLOCK, RANGE_ENTRY_SIZE, TRAILER_SIZE};
    let record = (HEADER_SIZE + RANGE_ENTRY_SIZE + 8 + TRAILER_SIZE).next_multiple_of(LOG_BLOCK);
    let at = 16384 + record as usize + 48;
    let before = std::fs::read(&log_path).unwrap();
    {
        use std::io::{Seek, SeekFrom, Write};
        let mut f = std::fs::OpenOptions::new()
            .write(true)
            .open(&log_path)
            .unwrap();
        f.seek(SeekFrom::Start(at as u64)).unwrap();
        f.write_all(&[0xEE; 8]).unwrap();
    }
    let out = rvmlog().arg(&log_path).arg("doctor").output().unwrap();
    assert!(!out.status.success(), "damage must exit non-zero: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("DAMAGE"), "{text}");
    assert!(text.contains("torn record"), "{text}");

    // Doctor never mutates the image.
    let after = std::fs::read(&log_path).unwrap();
    let mut expected = before;
    expected[at..at + 8].copy_from_slice(&[0xEE; 8]);
    assert_eq!(after, expected, "doctor is read-only");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verify_subcommand_convicts_what_doctor_acquits() {
    let dir = std::env::temp_dir().join(format!("rvmlog-verify-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = build_log(&dir);

    // A healthy log: exit 0, every invariant holds.
    let out = rvmlog().arg(&log_path).arg("verify").output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("all invariants hold"), "{text}");

    // Poke the unchecksummed padding of the first record: its body is
    // 40 (header) + 24 (range entry) + 8 (data) = 72 bytes, its padded
    // extent one block, so byte 100 sits in the zero gap before the
    // trailer. Both CRCs still verify.
    {
        use std::io::{Seek, SeekFrom, Write};
        let mut f = std::fs::OpenOptions::new()
            .write(true)
            .open(&log_path)
            .unwrap();
        f.seek(SeekFrom::Start(16384 + 100)).unwrap();
        f.write_all(&[0xBA]).unwrap();
    }
    let out = rvmlog().arg(&log_path).arg("doctor").output().unwrap();
    assert!(out.status.success(), "doctor is blind to this: {out:?}");
    let out = rvmlog().arg(&log_path).arg("verify").output().unwrap();
    assert!(!out.status.success(), "verify must exit non-zero: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("VIOLATION"), "{text}");
    assert!(text.contains("reverse-displacement block"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crashck_gen_then_crashck_round_trip() {
    let dir = std::env::temp_dir().join(format!("rvmlog-crashck-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("spool.cmctrace");

    let out = rvmlog()
        .arg("crashck-gen")
        .arg(&trace_path)
        .arg("spool")
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("transactions"), "{text}");

    let out = rvmlog().arg("crashck").arg(&trace_path).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("violations:        0"), "{text}");
    assert!(text.contains("crash states:"), "{text}");
    assert!(!text.contains("bit rot:"), "{text}");

    // `--rot` flips committed segment bytes in every crash image of a
    // `bitrot` trace, and recovery heals them.
    let rot_path = dir.join("bitrot.cmctrace");
    let mut gen = rvmlog();
    gen.arg("crashck-gen").arg(&rot_path).arg("bitrot");
    assert!(gen.output().unwrap().status.success());
    let out = rvmlog()
        .arg("crashck")
        .arg(&rot_path)
        .arg("--rot")
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("bit rot:           injected"), "{text}");
    assert!(text.contains("violations:        0"), "{text}");

    // A corrupt trace file is rejected cleanly.
    std::fs::write(&trace_path, b"not a trace").unwrap();
    let out = rvmlog().arg("crashck").arg(&trace_path).output().unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("cannot load trace"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

/// Like [`build_log`] but the single commit covers segment page 0 end to
/// end, so the live log span can rebuild the whole page offline.
fn build_media_log(dir: &std::path::Path) -> (std::path::PathBuf, std::path::PathBuf) {
    let log_path = dir.join("app.rvmlog");
    let seg_path = dir.join("objects.seg");
    let log = Arc::new(FileDevice::open_or_create(&log_path, 1 << 20).unwrap());
    let rvm = Rvm::initialize(Options::new(log).create_if_empty()).unwrap();
    let region = rvm
        .map(&RegionDescriptor::new(
            seg_path.to_str().unwrap(),
            0,
            2 * PAGE_SIZE,
        ))
        .unwrap();
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    region
        .write(&mut txn, 0, &vec![0x5A; PAGE_SIZE as usize])
        .unwrap();
    txn.commit(CommitMode::Flush).unwrap();
    std::mem::forget(rvm); // keep the log un-truncated
    (log_path, seg_path)
}

#[test]
fn scrub_and_salvage_round_trip() {
    let dir = std::env::temp_dir().join(format!("rvmlog-scrub-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (log_path, seg_path) = build_media_log(&dir);

    // Healthy image: scrub verifies every covered page, exit 0.
    let out = rvmlog().arg(&log_path).arg("scrub").output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("all match"), "{text}");
    assert!(text.contains("0 mismatch(es)"), "{text}");

    // Doctor mentions how much of the segment checksums protect.
    let out = rvmlog().arg(&log_path).arg("doctor").output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("checksum coverage:"), "{text}");
    assert!(text.contains("2/2 page(s)"), "{text}");

    // Rot a byte inside page 0, which the live log fully covers.
    {
        use std::io::{Seek, SeekFrom, Write};
        let mut f = std::fs::OpenOptions::new()
            .write(true)
            .open(&seg_path)
            .unwrap();
        f.seek(SeekFrom::Start(123)).unwrap();
        f.write_all(&[0xEE; 4]).unwrap();
    }
    let out = rvmlog().arg(&log_path).arg("scrub").output().unwrap();
    assert!(!out.status.success(), "rot must exit non-zero: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("MISMATCH"), "{text}");

    // Salvage rebuilds the page from the log and exits 0...
    let out = rvmlog().arg(&log_path).arg("salvage").output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("rebuilt from the live log span"), "{text}");

    // ...after which scrub is clean again and the bytes are committed
    // data, not the rot.
    let out = rvmlog().arg(&log_path).arg("scrub").output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let bytes = std::fs::read(&seg_path).unwrap();
    assert_eq!(&bytes[123..127], &[0x5A; 4]);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_arguments_fail_cleanly() {
    let out = rvmlog().output().unwrap();
    assert!(!out.status.success());
    let out = rvmlog()
        .arg("/nonexistent")
        .arg("summary")
        .output()
        .unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("cannot open"), "{text}");
}
