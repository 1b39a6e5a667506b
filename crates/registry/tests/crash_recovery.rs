//! Crash-recovery scenarios for the journaled registry: torn journal
//! tails, interrupted compactions, and snapshot/journal precedence. These
//! also run in release mode in CI, where the engine's `debug_assert`
//! equivalence checks are compiled out — recovery must not depend on them.

use std::fs;
use std::path::PathBuf;

use ringrt_model::SyncStream;
use ringrt_registry::{
    FailpointFs, FaultPlan, ProtocolKind, RegistryError, RingRegistry, RingSpec, RingState,
    StoreOptions,
};
use ringrt_units::{Bits, Seconds};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ringrt-crash-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn stream(period_ms: f64, bits: u64) -> SyncStream {
    SyncStream::new(Seconds::from_millis(period_ms), Bits::new(bits))
}

fn spec() -> RingSpec {
    RingSpec {
        protocol: ProtocolKind::Fddi,
        mbps: 100.0,
        stations: Some(64),
    }
}

fn populate(reg: &RingRegistry, ring: &str, n: usize) {
    reg.register(ring, spec()).unwrap();
    for i in 0..n {
        let out = reg
            .admit(
                ring,
                &format!("s{i:03}"),
                stream(20.0 + i as f64, 1_000 + 10 * i as u64),
            )
            .unwrap();
        assert!(out.applied, "stream {i} should be admissible");
    }
}

#[test]
fn truncated_last_record_drops_only_the_torn_write() {
    let dir = temp_dir("torn-tail");
    {
        let reg = RingRegistry::open(&dir).unwrap();
        populate(&reg, "lab", 5);
    }
    // Simulate a crash mid-append: chop bytes off the journal's last record.
    let journal = dir.join("journal.000001.log");
    let bytes = fs::read(&journal).unwrap();
    fs::write(&journal, &bytes[..bytes.len() - 7]).unwrap();

    let reg = RingRegistry::open(&dir).unwrap();
    let stats = reg.replay_stats().unwrap().clone();
    assert!(stats.truncated_tail, "torn tail must be detected");
    // Exactly one record (the torn one) is lost.
    assert_eq!(stats.streams_restored, 4);
    let state = reg.ring_state("lab").unwrap();
    assert_eq!(state.len(), 4);
    assert!(state.stream_index("s004").is_none());

    // The registry keeps working after truncation: the same stream can be
    // re-admitted and survives another reopen.
    assert!(
        reg.admit("lab", "s004", stream(24.0, 1_040))
            .unwrap()
            .applied
    );
    drop(reg);
    let reg = RingRegistry::open(&dir).unwrap();
    assert_eq!(reg.ring_state("lab").unwrap().len(), 5);
    assert!(!reg.replay_stats().unwrap().truncated_tail);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_interior_record_truncates_the_rest() {
    let dir = temp_dir("interior");
    {
        let reg = RingRegistry::open(&dir).unwrap();
        populate(&reg, "lab", 5);
    }
    // Flip a byte inside the 4th record (register + 5 admits = 6 records).
    let journal = dir.join("journal.000001.log");
    let text = fs::read_to_string(&journal).unwrap();
    let corrupted: Vec<String> = text
        .lines()
        .enumerate()
        .map(|(i, l)| {
            if i == 3 {
                l.replace("s002", "sXXX")
            } else {
                l.to_owned()
            }
        })
        .collect();
    fs::write(&journal, corrupted.join("\n") + "\n").unwrap();

    let reg = RingRegistry::open(&dir).unwrap();
    let stats = reg.replay_stats().unwrap();
    assert!(stats.truncated_tail);
    // Records after the corruption are gone too — a WAL never replays
    // past a hole.
    assert_eq!(reg.ring_state("lab").unwrap().len(), 2);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn crash_mid_compaction_leaves_tmp_snapshot_ignored() {
    let dir = temp_dir("mid-compaction");
    {
        let reg = RingRegistry::open(&dir).unwrap();
        populate(&reg, "lab", 8);
    }
    // Simulate dying after writing snapshot.tmp but before the rename:
    // plant a bogus tmp file; recovery must ignore it entirely.
    fs::write(
        dir.join("snapshot.tmp"),
        "ringrt-registry-snapshot v1 seq=999\ngarbage\n",
    )
    .unwrap();
    let reg = RingRegistry::open(&dir).unwrap();
    assert_eq!(reg.ring_state("lab").unwrap().len(), 8);
    assert_eq!(reg.replay_stats().unwrap().snapshot_seq, None);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshot_falls_back_to_journal_replay() {
    let dir = temp_dir("bad-snapshot");
    {
        let reg = RingRegistry::open(&dir).unwrap();
        populate(&reg, "lab", 6);
        // Compact, then keep mutating so both snapshot and journal matter.
        reg.compact().unwrap();
    }
    // Corrupt the published snapshot. The journal was truncated by the
    // compaction, so state is lost — but recovery must come up EMPTY and
    // consistent rather than crash or half-load.
    let snap = dir.join("snapshot.dat");
    let text = fs::read_to_string(&snap).unwrap();
    fs::write(&snap, text.replace("s003", "sBAD")).unwrap();
    let reg = RingRegistry::open(&dir).unwrap();
    assert_eq!(reg.replay_stats().unwrap().snapshot_seq, None);
    assert!(reg.ring_names().is_empty());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_plus_journal_precedence() {
    let dir = temp_dir("precedence");
    {
        let reg = RingRegistry::open(&dir).unwrap();
        populate(&reg, "lab", 4);
        reg.compact().unwrap();
        // Post-snapshot mutations land in the journal only.
        assert!(
            reg.admit("lab", "late-a", stream(30.0, 2_000))
                .unwrap()
                .applied
        );
        assert!(
            reg.admit("lab", "late-b", stream(35.0, 2_000))
                .unwrap()
                .applied
        );
        reg.remove("lab", "s001").unwrap();
    }
    let reg = RingRegistry::open(&dir).unwrap();
    let stats = reg.replay_stats().unwrap();
    assert!(stats.snapshot_seq.is_some());
    assert_eq!(
        stats.records_applied, 3,
        "only post-snapshot records replay"
    );
    let state = reg.ring_state("lab").unwrap();
    assert_eq!(state.len(), 5);
    assert!(state.stream_index("late-b").is_some());
    assert!(state.stream_index("s001").is_none());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fifty_streams_survive_restart_byte_identically() {
    let dir = temp_dir("fifty");
    let before;
    {
        let reg = RingRegistry::open(&dir).unwrap();
        populate(&reg, "big", 50);
        before = reg.ring_state("big").unwrap();
        assert_eq!(before.len(), 50);
    }
    let reg = RingRegistry::open(&dir).unwrap();
    let after = reg.ring_state("big").unwrap();
    assert_eq!(reg.replay_stats().unwrap().streams_restored, 50);
    // Bit-exact equality of every persisted float, not approximate.
    assert_eq!(before.len(), after.len());
    for ((b_name, b), (a_name, a)) in before.iter().zip(after.iter()) {
        assert_eq!(b_name, a_name);
        assert_eq!(
            b.period().as_secs_f64().to_bits(),
            a.period().as_secs_f64().to_bits()
        );
        assert_eq!(
            b.relative_deadline().as_secs_f64().to_bits(),
            a.relative_deadline().as_secs_f64().to_bits()
        );
        assert_eq!(b.length_bits(), a.length_bits());
    }
    assert_eq!(before, after);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn kill_between_every_pair_of_compaction_steps_recovers() {
    // Walk the compaction protocol manually and verify recovery at each
    // intermediate disk state: (1) tmp written, (2) tmp renamed over
    // snapshot, (3) journal truncated. Steps are emulated by copying the
    // directory before compaction and replaying the file operations.
    let dir = temp_dir("steps");
    {
        let reg = RingRegistry::open(&dir).unwrap();
        populate(&reg, "lab", 4);
    }
    let journal_before = fs::read(dir.join("journal.000001.log")).unwrap();

    // Full compaction for reference snapshot bytes.
    {
        let reg = RingRegistry::open(&dir).unwrap();
        reg.compact().unwrap();
    }
    let snapshot = fs::read(dir.join("snapshot.dat")).unwrap();

    // State A: snapshot.tmp exists, journal intact, no snapshot.dat.
    let a = temp_dir("steps-a");
    fs::create_dir_all(&a).unwrap();
    fs::write(a.join("journal.000001.log"), &journal_before).unwrap();
    fs::write(a.join("snapshot.tmp"), &snapshot).unwrap();
    let reg = RingRegistry::open(&a).unwrap();
    assert_eq!(reg.ring_state("lab").unwrap().len(), 4);
    drop(reg);

    // State B: snapshot.dat published, journal NOT yet truncated — replay
    // must skip the journal records the snapshot already covers.
    let b = temp_dir("steps-b");
    fs::create_dir_all(&b).unwrap();
    fs::write(b.join("journal.000001.log"), &journal_before).unwrap();
    fs::write(b.join("snapshot.dat"), &snapshot).unwrap();
    let reg = RingRegistry::open(&b).unwrap();
    assert_eq!(reg.ring_state("lab").unwrap().len(), 4);
    assert_eq!(reg.replay_stats().unwrap().records_applied, 0);
    drop(reg);

    // State C: the completed compaction (snapshot + empty journal).
    let reg = RingRegistry::open(&dir).unwrap();
    assert_eq!(reg.ring_state("lab").unwrap().len(), 4);

    for d in [a, b, dir] {
        let _ = fs::remove_dir_all(&d);
    }
}

// ---------------------------------------------------------------------------
// Segmented kill matrix: enumerate EVERY durable filesystem operation a
// churn workload performs — appends, fsyncs, segment seals/rotations,
// snapshot writes/publishes, sealed-segment GC — and crash at each one
// (clean and torn variants), asserting recovery lands on the pre-crash
// state or, for a record that became durable before its ack was lost, the
// state one committed operation later. Tiny segments force rotations
// between nearly every pair of records so the matrix covers the rotation
// and compaction machinery densely.
// ---------------------------------------------------------------------------

const TINY_SEGMENT: u64 = 128;

type LogicalState = Vec<(String, RingState)>;

fn logical_state(reg: &RingRegistry) -> LogicalState {
    reg.ring_names()
        .into_iter()
        .map(|n| {
            let state = reg.ring_state(&n).unwrap();
            (n, state)
        })
        .collect()
}

type ChurnOp = Box<dyn Fn(&RingRegistry) -> Result<(), RegistryError>>;

fn churn_ops() -> Vec<ChurnOp> {
    let mut ops: Vec<ChurnOp> = Vec::new();
    ops.push(Box::new(|r| r.register("a", spec())));
    ops.push(Box::new(|r| r.register("b", spec())));
    for i in 0..4u64 {
        ops.push(Box::new(move |r| {
            r.admit("a", &format!("a{i}"), stream(20.0 + i as f64, 1_000))
                .map(|out| assert!(out.applied))
        }));
        ops.push(Box::new(move |r| {
            r.admit("b", &format!("b{i}"), stream(25.0 + i as f64, 2_000))
                .map(|out| assert!(out.applied))
        }));
    }
    ops.push(Box::new(|r| r.compact()));
    for i in 4..7u64 {
        ops.push(Box::new(move |r| {
            r.admit("a", &format!("a{i}"), stream(20.0 + i as f64, 1_000))
                .map(|out| assert!(out.applied))
        }));
    }
    ops.push(Box::new(|r| r.remove("a", "a1").map(|_| ())));
    ops.push(Box::new(|r| r.remove("b", "b0").map(|_| ())));
    ops.push(Box::new(|r| r.compact()));
    ops.push(Box::new(|r| r.unregister("b")));
    ops.push(Box::new(|r| {
        r.admit("a", "tail", stream(40.0, 3_000))
            .map(|out| assert!(out.applied))
    }));
    ops
}

/// Runs the churn until the first error; returns how many logical ops
/// committed and the error, if any.
fn run_churn(reg: &RingRegistry) -> (usize, Option<RegistryError>) {
    let mut done = 0;
    for op in churn_ops() {
        match op(reg) {
            Ok(()) => done += 1,
            Err(e) => return (done, Some(e)),
        }
    }
    (done, None)
}

#[test]
fn kill_at_every_durable_op_during_segmented_churn_recovers() {
    // Dry run: learn the total durable-op count and the logical state
    // after each committed operation.
    let dry = temp_dir("matrix-dry");
    let probe = FailpointFs::new();
    let reg = RingRegistry::open_with(
        &dry,
        StoreOptions {
            segment_bytes: TINY_SEGMENT,
            fs: probe.clone(),
        },
    )
    .unwrap();
    probe.reset_ops();
    let mut states: Vec<LogicalState> = vec![logical_state(&reg)];
    for op in churn_ops() {
        op(&reg).unwrap();
        states.push(logical_state(&reg));
    }
    let total_ops = probe.ops();
    assert!(
        reg.metrics().journal_bytes > 0 && total_ops > 30,
        "workload too small to exercise the matrix: {total_ops} durable ops"
    );
    drop(reg);
    let _ = fs::remove_dir_all(&dry);

    for torn in [None, Some(0), Some(7)] {
        for k in 1..=total_ops {
            let dir = temp_dir(&format!("matrix-{k}-{}", torn.map_or(0, |t| t + 1)));
            let fp = FailpointFs::new();
            let reg = RingRegistry::open_with(
                &dir,
                StoreOptions {
                    segment_bytes: TINY_SEGMENT,
                    fs: fp.clone(),
                },
            )
            .unwrap();
            fp.reset_ops();
            fp.arm(FaultPlan {
                fail_at_op: k,
                torn_bytes: torn,
            });
            let (done, err) = run_churn(&reg);
            fp.disarm();
            if let Some(err) = &err {
                assert!(
                    FailpointFs::is_injected(err),
                    "op {k} torn {torn:?}: unexpected real error: {err}"
                );
            }
            drop(reg);
            let reopened = RingRegistry::open(&dir)
                .unwrap_or_else(|e| panic!("op {k} torn {torn:?}: recovery failed: {e}"));
            let recovered = logical_state(&reopened);
            // Every acked op must survive. The op in flight at the crash
            // may or may not have become durable before its ack was lost —
            // both outcomes are consistent.
            let acked = &states[done];
            let in_flight = states.get(done + 1);
            assert!(
                recovered == *acked || Some(&recovered) == in_flight,
                "op {k} torn {torn:?}: recovered state matches neither the \
                 {done} acked ops nor the in-flight op"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
