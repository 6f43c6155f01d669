//! The unit tests of [`FaultClock`](crate::FaultClock) schedules — the
//! flaky-hardware half of [`FaultDevice`](crate::FaultDevice), which lives
//! in `fault.rs` with the crash half.

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crate::{
        Device, DeviceError, FaultClock, FaultDevice, FaultOp, FlakyFault, MemDevice, TraceOpKind,
    };

    fn dev(faults: Vec<FlakyFault>) -> FaultDevice {
        FaultDevice::with_clock(Arc::new(MemDevice::with_len(4096)), FaultClock::new(faults))
    }

    #[test]
    fn nth_write_fails_then_heals() {
        let d = dev(vec![FlakyFault::transient(FaultOp::Write, 2)]);
        d.write_at(0, b"one").unwrap();
        let err = d.write_at(0, b"two").unwrap_err();
        assert!(matches!(
            err,
            DeviceError::Injected {
                op: FaultOp::Write,
                transient: true
            }
        ));
        // Failed write wrote nothing.
        let mut buf = [0u8; 3];
        d.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"one");
        // Healed: the next write succeeds.
        d.write_at(0, b"two").unwrap();
        assert_eq!(d.clock().injected(), 1);
    }

    #[test]
    fn transient_run_heals_after_count() {
        let d = dev(vec![FlakyFault::transient_run(FaultOp::Sync, 1, 3)]);
        for _ in 0..3 {
            assert!(d.sync().unwrap_err().is_transient());
        }
        d.sync().unwrap();
        assert_eq!(d.clock().injected(), 3);
    }

    #[test]
    fn permanent_fault_never_heals() {
        let d = dev(vec![FlakyFault::permanent(FaultOp::Read, 1)]);
        let mut buf = [0u8; 1];
        for _ in 0..5 {
            let err = d.read_at(0, &mut buf).unwrap_err();
            assert!(!err.is_transient());
        }
        // Other ops unaffected.
        d.write_at(0, b"x").unwrap();
    }

    #[test]
    fn crash_after_total_ops_sticks() {
        let d = dev(vec![FlakyFault::crash_after_ops(3)]);
        let mut buf = [0u8; 1];
        d.write_at(0, b"a").unwrap();
        d.read_at(0, &mut buf).unwrap();
        assert!(matches!(d.sync().unwrap_err(), DeviceError::Crashed));
        assert!(d.clock().has_crashed());
        assert!(matches!(
            d.write_at(0, b"b").unwrap_err(),
            DeviceError::Crashed
        ));
        assert!(matches!(d.set_len(8192).unwrap_err(), DeviceError::Crashed));
    }

    #[test]
    fn shared_clock_counts_across_devices() {
        let clock = FaultClock::new(vec![FlakyFault::crash_after_ops(2)]);
        let a = FaultDevice::with_clock(Arc::new(MemDevice::with_len(4096)), Arc::clone(&clock));
        let b = FaultDevice::with_clock(Arc::new(MemDevice::with_len(4096)), Arc::clone(&clock));
        a.write_at(0, b"x").unwrap();
        assert!(matches!(
            b.write_at(0, b"y").unwrap_err(),
            DeviceError::Crashed
        ));
        assert_eq!(clock.total_ops(), 2);
    }

    #[test]
    fn seeded_schedule_is_deterministic() {
        let run = |seed| {
            let d = FaultDevice::with_clock(
                Arc::new(MemDevice::with_len(4096)),
                FaultClock::seeded(seed, 300),
            );
            let mut outcomes = Vec::new();
            for i in 0..64 {
                outcomes.push(d.write_at(i % 8, b"z").is_ok());
            }
            outcomes
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
        let d = FaultDevice::with_clock(
            Arc::new(MemDevice::with_len(4096)),
            FaultClock::seeded(7, 1000),
        );
        assert!(d.sync().unwrap_err().is_transient());
    }

    #[test]
    fn failed_sync_is_not_a_durability_barrier() {
        // Schedule: the first sync fails transiently, then a crash on the
        // 5th total op. *Every* write since the last SUCCESSFUL sync must
        // roll back — including writes issued
        // before the failed sync.
        let inner = Arc::new(MemDevice::with_len(8));
        let d = FaultDevice::with_clock(
            inner.clone(),
            FaultClock::new(vec![
                FlakyFault::transient(FaultOp::Sync, 1),
                FlakyFault::crash_after_ops(5),
            ]),
        );

        d.write_at(0, &[1, 1]).unwrap(); // op 1
        assert!(d.sync().unwrap_err().is_transient()); // op 2: failed sync
        d.write_at(2, &[2, 2]).unwrap(); // op 3
        d.write_at(4, &[3, 3]).unwrap(); // op 4
        assert!(matches!(
            d.write_at(6, &[4, 4]).unwrap_err(), // op 5: crash
            DeviceError::Crashed
        ));
        // All three completed writes vanish: the failed sync protected
        // nothing.
        assert_eq!(inner.snapshot(), vec![0; 8]);
    }

    #[test]
    fn successful_sync_protects_earlier_writes() {
        let inner = Arc::new(MemDevice::with_len(8));
        let d = FaultDevice::with_clock(
            inner.clone(),
            FaultClock::new(vec![FlakyFault::crash_after_ops(4)]),
        );

        d.write_at(0, &[1, 1]).unwrap(); // op 1
        d.sync().unwrap(); // op 2: real barrier
        d.write_at(2, &[2, 2]).unwrap(); // op 3
        assert!(matches!(
            d.sync().unwrap_err(), // op 4: crash
            DeviceError::Crashed
        ));
        assert_eq!(inner.snapshot(), vec![1, 1, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn crash_now_settles_the_clock_between_operations() {
        let inner = Arc::new(MemDevice::with_len(4));
        let clock = FaultClock::new(Vec::new());
        let d = FaultDevice::with_clock(inner.clone(), Arc::clone(&clock));
        d.write_at(0, &[1, 1]).unwrap();
        d.sync().unwrap();
        d.write_at(2, &[2, 2]).unwrap();
        clock.crash_now();
        assert!(matches!(d.read_at(0, &mut [0]), Err(DeviceError::Crashed)));
        assert_eq!(inner.snapshot(), vec![1, 1, 0, 0]);
    }

    #[test]
    fn a_scheduled_crash_hands_out_what_it_rolled_back() {
        let inner = Arc::new(MemDevice::with_len(4));
        let clock = FaultClock::new(vec![FlakyFault::crash_after_ops(2)]);
        let d = FaultDevice::with_clock(inner.clone(), Arc::clone(&clock));
        d.write_at(0, &[9, 9]).unwrap();
        assert!(d.write_at(2, &[8, 8]).is_err());
        assert_eq!(inner.snapshot(), vec![0; 4]);
        let ops = clock.rolled_back(&[inner as Arc<dyn Device>]);
        let data = vec![9, 9];
        assert_eq!(ops.len(), 1, "the crashing write never ran");
        assert_eq!(ops[0].kind, TraceOpKind::Write { offset: 0, data });
    }

    #[test]
    fn crash_on_shared_clock_rolls_back_every_device_as_it_fires() {
        // The crash fires on device A; device B's unsynced write is rolled
        // back at that moment too, though B runs no operation after it.
        let clock = FaultClock::new(vec![FlakyFault::crash_after_ops(3)]);
        let inner_a = Arc::new(MemDevice::with_len(4));
        let inner_b = Arc::new(MemDevice::with_len(4));
        let a = FaultDevice::with_clock(inner_a.clone(), Arc::clone(&clock));
        let b = FaultDevice::with_clock(inner_b.clone(), Arc::clone(&clock));
        b.write_at(0, &[5, 5]).unwrap(); // op 1
        a.write_at(0, &[6, 6]).unwrap(); // op 2
        assert!(a.write_at(2, &[7, 7]).is_err()); // op 3: crash, A settles
        assert_eq!(inner_a.snapshot(), vec![0; 4]);
        assert_eq!(inner_b.snapshot(), vec![0; 4]);
    }

    #[test]
    fn sync_on_a_shared_clock_protects_only_its_own_device() {
        let clock = FaultClock::new(vec![FlakyFault::crash_after_ops(4)]);
        let inner_a = Arc::new(MemDevice::with_len(4));
        let inner_b = Arc::new(MemDevice::with_len(4));
        let a = FaultDevice::with_clock(inner_a.clone(), Arc::clone(&clock));
        let b = FaultDevice::with_clock(inner_b.clone(), Arc::clone(&clock));
        a.write_at(0, &[1, 1]).unwrap(); // op 1
        b.write_at(0, &[2, 2]).unwrap(); // op 2
        a.sync().unwrap(); // op 3: a barrier for A alone
        assert!(matches!(b.sync().unwrap_err(), DeviceError::Crashed)); // op 4
        assert_eq!(inner_a.snapshot(), vec![1, 1, 0, 0]);
        assert_eq!(inner_b.snapshot(), vec![0; 4]);
    }

    #[test]
    fn bit_rot_corrupts_a_read_silently() {
        let d = dev(vec![FlakyFault::bit_rot(FaultOp::Read, 2)]);
        d.write_at(0, &[7u8; 16]).unwrap();
        let mut clean = [0u8; 16];
        d.read_at(0, &mut clean).unwrap(); // read 1: clean
        assert_eq!(clean, [7u8; 16]);
        let mut rotted = [0u8; 16];
        d.read_at(0, &mut rotted).unwrap(); // read 2: rotted, but Ok
        assert_ne!(rotted, [7u8; 16]);
        assert_eq!(rotted.iter().filter(|&&b| b != 7).count(), 1);
        assert_eq!(d.clock().rotted(), 1);
        assert_eq!(d.clock().injected(), 1);
        // Healed afterwards, and the media itself was never touched.
        d.read_at(0, &mut clean).unwrap();
        assert_eq!(clean, [7u8; 16]);
    }

    #[test]
    fn bit_rot_on_write_persists_corruption() {
        let inner = Arc::new(MemDevice::with_len(4096));
        let d = FaultDevice::with_clock(
            inner.clone(),
            FaultClock::new(vec![FlakyFault::bit_rot(FaultOp::Write, 1)]),
        );
        d.write_at(0, &[3u8; 8]).unwrap(); // succeeds, but rots the media
        let mut buf = [0u8; 8];
        inner.read_at(0, &mut buf).unwrap();
        assert_ne!(buf, [3u8; 8]);
        assert_eq!(buf.iter().filter(|&&b| b != 3).count(), 1);
        assert_eq!(d.clock().rotted(), 1);
    }

    #[test]
    fn bit_rot_on_sync_is_harmless() {
        let d = dev(vec![FlakyFault::bit_rot(FaultOp::Sync, 1)]);
        d.write_at(0, b"ok").unwrap();
        d.sync().unwrap();
        let mut buf = [0u8; 2];
        d.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"ok");
        assert_eq!(d.clock().rotted(), 1);
    }

    #[test]
    fn seeded_rot_storm_is_deterministic() {
        let run = |seed| {
            let clock = FaultClock::seeded_with_rot(seed, 50, 200);
            let d = FaultDevice::with_clock(Arc::new(MemDevice::with_len(4096)), clock);
            let mut outcomes = Vec::new();
            for i in 0..128u64 {
                let mut buf = [0u8; 4];
                d.write_at(i % 64, &[i as u8; 4]).ok();
                outcomes.push(d.read_at(i % 64, &mut buf).map(|()| buf).ok());
            }
            (outcomes, d.clock().rotted(), d.clock().injected())
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
        let (_, rotted, injected) = run(9);
        assert!(rotted > 0, "a 20% rot storm over 256 ops must rot");
        assert!(injected > rotted, "transient channel fires too");
    }

    #[test]
    fn rot_free_seeded_clock_keeps_its_stream() {
        // seeded() must behave identically to historical behavior: the
        // rot roll is skipped entirely when rot_per_mille == 0.
        let a = FaultDevice::with_clock(
            Arc::new(MemDevice::with_len(4096)),
            FaultClock::seeded(42, 300),
        );
        let b = {
            let clock = FaultClock::seeded_with_rot(42, 300, 0);
            FaultDevice::with_clock(Arc::new(MemDevice::with_len(4096)), clock)
        };
        for i in 0..64 {
            assert_eq!(
                a.write_at(i % 8, b"z").is_ok(),
                b.write_at(i % 8, b"z").is_ok()
            );
        }
    }

    #[test]
    fn ops_seen_counts_per_kind() {
        let d = dev(vec![]);
        let mut buf = [0u8; 1];
        d.write_at(0, b"a").unwrap();
        d.write_at(1, b"b").unwrap();
        d.read_at(0, &mut buf).unwrap();
        d.sync().unwrap();
        assert_eq!(d.clock().ops_seen(), (1, 2, 1));
        assert_eq!(d.clock().total_ops(), 4);
    }
}
