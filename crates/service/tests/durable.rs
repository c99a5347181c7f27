//! Durable-mode round trips: crash recovery, clean shutdown, and the
//! shard-count binding of a store directory.

use terp_core::config::Scheme;
use terp_pmo::{AccessKind, OpenMode, Permission};
use terp_service::{PmoServer, PmoService, ServiceConfig, ServiceError, Visibility};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("terp-svc-durable-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn crash_recovery_reseals_windows_and_keeps_data() {
    let dir = tmp_dir("crash");
    let cfg = || {
        ServiceConfig::for_tests(Scheme::terp_full())
            .with_durable(&dir)
            .with_visibility(Visibility::Durable)
    };
    let oid;
    {
        let svc = PmoService::try_new(cfg()).unwrap();
        let p = svc
            .create_pool("ledger", 1 << 16, OpenMode::ReadWrite)
            .unwrap();
        svc.attach(0, p, Permission::ReadWrite).unwrap();
        oid = svc.alloc(0, p, 64).unwrap();
        svc.write(0, oid, b"survives the crash").unwrap();
        assert!(svc.process_can(p, AccessKind::Read));
        // Dropped here with the window open and no drain: a crash.
    }

    let svc = PmoService::try_new(cfg()).unwrap();
    let rec = svc.recovery_stats().unwrap();
    assert_eq!(rec.pools_recovered, 1);
    assert_eq!(rec.windows_resealed, 1, "crash-open EW is force-closed");
    assert_eq!(rec.sessions_discarded, 1, "sessions are never resurrected");
    assert!(
        rec.records_replayed >= 4,
        "create/attach/alloc/write logged"
    );

    let p = oid.pmo();
    assert!(
        !svc.process_can(p, AccessKind::Read),
        "no exposure window survives recovery"
    );
    assert!(
        !svc.client_can(0, p, AccessKind::Read),
        "the crashed client's grant is gone"
    );
    // The data is intact once a client legitimately reattaches.
    svc.attach(7, p, Permission::Read).unwrap();
    assert_eq!(svc.read(7, oid, 18).unwrap(), b"survives the crash");
    // The registry stayed the name authority across the crash.
    assert!(matches!(
        svc.create_pool("ledger", 1 << 16, OpenMode::ReadWrite),
        Err(ServiceError::Substrate(_))
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn clean_shutdown_checkpoints_and_recovers_from_snapshots() {
    let dir = tmp_dir("clean");
    let cfg = || ServiceConfig::for_tests(Scheme::terp_full()).with_durable(&dir);
    let oid;
    {
        let server = PmoServer::try_start(cfg()).unwrap();
        let svc = server.service();
        let p = svc
            .create_pool("books", 1 << 16, OpenMode::ReadWrite)
            .unwrap();
        svc.attach(1, p, Permission::ReadWrite).unwrap();
        oid = svc.alloc(1, p, 32).unwrap();
        svc.write(1, oid, b"checkpointed").unwrap();
        svc.detach(1, p).unwrap();
        let report = server.shutdown();
        assert_eq!(report.recovery, svc.recovery_stats());
    }

    let svc = PmoService::try_new(cfg()).unwrap();
    let rec = svc.recovery_stats().unwrap();
    assert!(rec.checkpoint_records >= 1, "shutdown checkpointed");
    assert_eq!(rec.records_replayed, 0, "log was truncated at checkpoint");
    assert_eq!(rec.windows_resealed, 0, "clean shutdown left nothing open");
    svc.attach(2, oid.pmo(), Permission::Read).unwrap();
    assert_eq!(svc.read(2, oid, 12).unwrap(), b"checkpointed");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn directory_is_bound_to_its_shard_count() {
    let dir = tmp_dir("mismatch");
    {
        let svc = PmoService::try_new(
            ServiceConfig::for_tests(Scheme::terp_full())
                .with_shards(4)
                .with_durable(&dir),
        )
        .unwrap();
        for i in 0..4 {
            svc.create_pool(&format!("p{i}"), 1 << 12, OpenMode::ReadWrite)
                .unwrap();
        }
    }
    // Fewer shards: the extra shard-* stores would be silently ignored.
    let err = PmoService::try_new(
        ServiceConfig::for_tests(Scheme::terp_full())
            .with_shards(2)
            .with_durable(&dir),
    )
    .unwrap_err();
    assert!(matches!(err, ServiceError::Persist(_)), "{err}");
    // More shards: recovered pools would route to shards that never logged
    // them.
    let err = PmoService::try_new(
        ServiceConfig::for_tests(Scheme::terp_full())
            .with_shards(8)
            .with_durable(&dir),
    )
    .unwrap_err();
    assert!(matches!(err, ServiceError::Persist(_)), "{err}");
    // The original shard count still opens fine.
    let svc = PmoService::try_new(
        ServiceConfig::for_tests(Scheme::terp_full())
            .with_shards(4)
            .with_durable(&dir),
    )
    .unwrap();
    assert_eq!(svc.recovery_stats().unwrap().pools_recovered, 4);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn in_memory_service_reports_no_recovery() {
    let svc = PmoService::try_new(ServiceConfig::for_tests(Scheme::terp_full())).unwrap();
    assert!(svc.recovery_stats().is_none());
    assert!(svc.report().recovery.is_none());
}

/// The watermark invariant under the pipelined async writer (ISSUE 10,
/// satellite 3): with `visibility = durable`, no externally visible effect
/// may precede the fsync of its WAL record. Verified two ways:
///
/// 1. **Live**: after every acked operation, the on-disk log already decodes
///    to a prefix containing that operation's record.
/// 2. **Post-mortem**: for every crash point the harness enumerates over the
///    final log image, recovery over the surviving prefix reproduces every
///    effect that was acked while that prefix was durable, and reseals
///    exactly the windows open in the prefix — acks never outrun the medium.
#[test]
fn async_watermark_acked_effects_survive_every_crash_point() {
    use terp_persist::{enumerate_crash_points, inject, read_log, WalRecord, WAL_FILE};
    use terp_service::Visibility;

    let dir = tmp_dir("wm-crash");
    let wal = dir.join("shard-0").join(WAL_FILE);
    let cfg = ServiceConfig::for_tests(Scheme::terp_full())
        .with_shards(1)
        .with_visibility(Visibility::Durable)
        .with_durable(&dir);

    // Durable record count observed at each ack, plus (for writes) the
    // payload the cell must hold whenever that prefix survives a crash.
    let durable_count = |wal: &std::path::Path| -> usize {
        read_log(&std::fs::read(wal).unwrap_or_default())
            .records
            .len()
    };
    let mut acks: Vec<(usize, Option<Vec<u8>>)> = Vec::new();

    let oid;
    {
        let svc = PmoService::try_new(cfg).unwrap();
        let p = svc.create_pool("wm", 1 << 16, OpenMode::ReadWrite).unwrap();
        acks.push((durable_count(&wal), None));
        svc.attach(0, p, Permission::ReadWrite).unwrap();
        acks.push((durable_count(&wal), None));
        oid = svc.alloc(0, p, 32).unwrap();
        acks.push((durable_count(&wal), None));
        for round in 0u8..6 {
            let payload = vec![0xA0 | round; 32];
            svc.write(0, oid, &payload).unwrap();
            // The ack waited on the watermark: the record is on media *now*,
            // before this test thread does anything else.
            let on_disk = read_log(&std::fs::read(&wal).unwrap());
            assert!(
                on_disk.records.iter().any(|(_, r)| matches!(
                    r, WalRecord::DataWrite { data, .. } if data == &payload
                )),
                "acked write {round} missing from the durable prefix"
            );
            acks.push((on_disk.records.len(), Some(payload)));
        }
        // Dropped with the exposure window open and no drain: a crash.
    }

    let image = std::fs::read(&wal).unwrap();
    let full = read_log(&image);
    assert_eq!(full.dropped, 0, "shutdown flush leaves a clean image");
    let records: Vec<WalRecord> = full.records.into_iter().map(|(_, r)| r).collect();

    let rdir = tmp_dir("wm-crash-replay");
    for point in enumerate_crash_points(&image) {
        let damaged = inject(&image, point);
        let k = read_log(&damaged).records.len();

        let _ = std::fs::remove_dir_all(&rdir);
        std::fs::create_dir_all(rdir.join("shard-0")).unwrap();
        std::fs::write(rdir.join("shard-0").join(WAL_FILE), &damaged).unwrap();
        let svc = PmoService::try_new(
            ServiceConfig::for_tests(Scheme::terp_full())
                .with_shards(1)
                .with_durable(&rdir),
        )
        .unwrap_or_else(|e| panic!("{}: recovery failed: {e}", point.describe()));
        let rec = svc.recovery_stats().unwrap();

        // Resealed set == exactly the windows open in the surviving prefix.
        let mut open = 0u64;
        for r in &records[..k] {
            match r {
                WalRecord::WindowOpen { .. } => open += 1,
                WalRecord::WindowClose { .. } => open -= 1,
                _ => {}
            }
        }
        assert_eq!(rec.windows_resealed, open, "{}", point.describe());

        // The newest write acked while this prefix was durable is intact.
        let expect = acks
            .iter()
            .filter(|(n, _)| *n <= k)
            .filter_map(|(_, p)| p.as_ref())
            .next_back();
        if let Some(payload) = expect {
            svc.attach(9, oid.pmo(), Permission::Read)
                .unwrap_or_else(|e| panic!("{}: reattach: {e}", point.describe()));
            assert_eq!(
                svc.read(9, oid, 32).unwrap(),
                payload.clone(),
                "{}: acked write lost",
                point.describe()
            );
        }
    }
    std::fs::remove_dir_all(&rdir).ok();
    std::fs::remove_dir_all(&dir).ok();
}
