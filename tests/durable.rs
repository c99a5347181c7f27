//! The durable serving path end to end: a durable `PmoServer` crosses an
//! automatic checkpoint with exposure windows open, dies without a drain,
//! and restarts. Recovery must replay `ckpt.log`, `prot.log` and the WAL,
//! reseal exactly the windows open at the crash, and give every object
//! back its last write.

use std::collections::BTreeSet;

use terp_service::{PmoServer, PmoService, ServiceConfig};
use terp_suite::prelude::*;

#[test]
fn crash_after_an_automatic_checkpoint_reseals_open_windows_and_keeps_writes() {
    let dir = std::env::temp_dir().join(format!("terp-suite-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || {
        ServiceConfig::for_tests(Scheme::terp_full())
            .with_shards(2)
            .with_durable(&dir)
    };

    let server = PmoServer::try_start(cfg()).unwrap();
    let svc = server.service();
    // Three pools with one object each; client i owns pool i.
    let objs: Vec<ObjectId> = (0..3)
        .map(|i| {
            let p = svc
                .create_pool(&format!("pool-{i}"), 1 << 16, OpenMode::ReadWrite)
                .unwrap();
            svc.attach(i, p, Permission::ReadWrite).unwrap();
            svc.alloc(i, p, 32).unwrap()
        })
        .collect();
    let payload = |n: u64| -> Vec<u8> { n.to_le_bytes().repeat(4) };
    let mut last = [0u64; 3];
    let mut n = 0u64;
    let mut write = |n: &mut u64| {
        let i = (*n % 3) as usize;
        svc.write(i, objs[i], &payload(*n)).unwrap();
        last[i] = *n;
        *n += 1;
    };

    // Write until a shard checkpoints on its own, then keep going so the
    // WAL also holds post-checkpoint records.
    while svc.report().checkpoints == 0 {
        assert!(n < 1_000_000, "no automatic checkpoint");
        for _ in 0..1024 {
            write(&mut n);
        }
    }
    for _ in 0..500 {
        write(&mut n);
    }
    // Close the window on pool 1 only: detach and let it expire.
    let released = objs[1].pmo();
    svc.detach(1, released).unwrap();
    svc.sweep_all();
    let open: BTreeSet<PmoId> = objs
        .iter()
        .map(|o| o.pmo())
        .filter(|&p| svc.process_can(p, AccessKind::Read))
        .collect();
    assert!(!open.is_empty() && !open.contains(&released));

    // Crash: no drain, no final checkpoint.
    drop(svc);
    drop(server);

    let svc = PmoService::try_new(cfg()).unwrap();
    let rec = svc.recovery_stats().unwrap();
    assert!(
        rec.checkpoint_records > 0,
        "the checkpoint log was replayed"
    );
    assert!(rec.records_replayed > 0, "so was the post-checkpoint WAL");
    let resealed: BTreeSet<PmoId> = svc.resealed().iter().copied().collect();
    assert_eq!(resealed, open, "resealed set == windows open at the crash");
    for (i, oid) in objs.iter().enumerate() {
        assert!(!svc.process_can(oid.pmo(), AccessKind::Read));
        svc.attach(10 + i, oid.pmo(), Permission::Read).unwrap();
        assert_eq!(svc.read(10 + i, *oid, 32).unwrap(), payload(last[i]));
    }
    drop(svc);
    std::fs::remove_dir_all(&dir).ok();
}
