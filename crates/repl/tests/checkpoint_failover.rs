//! Failover across automatic checkpoints under load. A leader writes
//! without pause through several checkpoints per shard while a follower
//! streams. The follower must follow every checkpoint in-stream — never
//! re-bootstrapping, so its mirror stays complete throughout — and a
//! promotion cut at an arbitrary moment mid-load must recover exactly the
//! state the standby had applied, resealing every window open at the kill.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use terp_core::config::Scheme;
use terp_pmo::{ObjectId, OpenMode, Permission};
use terp_repl::{ReplFollower, ReplFollowerConfig, ReplLeader, ReplLeaderConfig};
use terp_service::{PmoServer, ServiceConfig};

const SHARDS: usize = 2;
const POOLS: usize = 4;
const CLIENT: usize = 0;
/// Leader checkpoints each shard must follow in-stream before the kill.
const CHECKPOINTS: u64 = 3;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("terp-ckpt-failover-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(dir: &Path) -> ServiceConfig {
    ServiceConfig::for_tests(Scheme::terp_full())
        .with_shards(SHARDS)
        .with_durable(dir)
}

/// The object's value in the standby's warm registry (pools route to
/// shard `id & (SHARDS - 1)`).
fn warm_value(follower: &ReplFollower, oid: ObjectId) -> Vec<u8> {
    let shard = oid.pmo().raw() as u32 & (SHARDS as u32 - 1);
    follower
        .inspect(shard, |reg| {
            let mut buf = vec![0u8; 8];
            reg.pool(oid.pmo())
                .unwrap()
                .read_bytes(oid.offset(), &mut buf)
                .unwrap();
            buf
        })
        .unwrap()
}

/// Stops the writer when dropped — also when an assertion unwinds, which
/// would otherwise wait forever for the writer to finish.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

#[test]
fn promotion_mid_load_across_checkpoints_recovers_the_applied_state() {
    let leader_dir = temp_dir("leader");
    let mirror_dir = temp_dir("mirror");
    let server = PmoServer::try_start(config(&leader_dir)).unwrap();
    let svc = server.service();
    // Windows stay open on every pool throughout.
    let objs: Vec<ObjectId> = (0..POOLS)
        .map(|i| {
            let p = svc
                .create_pool(&format!("load-{i}"), 1 << 18, OpenMode::ReadWrite)
                .unwrap();
            svc.attach(CLIENT, p, Permission::ReadWrite).unwrap();
            svc.alloc(CLIENT, p, 8).unwrap()
        })
        .collect();
    let leader =
        ReplLeader::start(ReplLeaderConfig::new(&leader_dir, SHARDS), "127.0.0.1:0").unwrap();
    let follower =
        ReplFollower::start(ReplFollowerConfig::new(leader.local_addr(), &mirror_dir, 7));

    let stop = AtomicBool::new(false);
    let (warm, open_at_kill) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut n = 1u64;
            while !stop.load(Ordering::Relaxed) {
                let oid = objs[n as usize % POOLS];
                svc.write(CLIENT, oid, &n.to_le_bytes()).unwrap();
                n += 1;
            }
        });
        let stop_writer = StopOnDrop(&stop);
        // Sample the standby while the leader checkpoints under it: once
        // bootstrapped, no shard may drop back to a bootstrap (which resets
        // its followed-checkpoint count).
        let mut seen = [0u64; SHARDS];
        let mut bootstrapped = false;
        let start = Instant::now();
        loop {
            let lag = follower.lag();
            if lag.len() == SHARDS && lag.iter().all(|l| l.bootstrapped) {
                bootstrapped = true;
            }
            if bootstrapped {
                for (l, seen) in lag.iter().zip(&mut seen) {
                    assert!(
                        l.bootstrapped && l.checkpoints >= *seen,
                        "shard {} re-bootstrapped under load: {lag:?}",
                        l.shard
                    );
                    *seen = l.checkpoints;
                }
                if seen.iter().all(|&c| c >= CHECKPOINTS) {
                    break;
                }
            }
            assert!(
                start.elapsed() < Duration::from_secs(120),
                "the follower did not follow {CHECKPOINTS} checkpoints per shard: {lag:?}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // Kill mid-load: the stream ends wherever it is — mid-checkpoint,
        // mid-batch — while the leader keeps writing.
        leader.shutdown();
        while follower.is_connected() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let warm: Vec<Vec<u8>> = objs.iter().map(|&o| warm_value(&follower, o)).collect();
        let open = follower.open_windows();
        drop(stop_writer);
        writer.join().unwrap();
        (warm, open)
    });
    assert!(
        svc.report().checkpoints >= CHECKPOINTS * SHARDS as u64,
        "the leader checkpointed on its own"
    );
    drop(svc);
    drop(server);
    assert_eq!(open_at_kill, POOLS, "every window was open at the kill");

    let promoted = follower.promote(config(&mirror_dir)).unwrap();
    let svc = promoted.service();
    let rec = svc.recovery_stats().unwrap();
    assert!(
        rec.checkpoint_records > 0,
        "the mirror's checkpoint log replayed"
    );
    assert_eq!(svc.resealed().len(), POOLS, "every open window resealed");
    for (i, (oid, warm)) in objs.iter().zip(&warm).enumerate() {
        assert_ne!(warm, &[0u8; 8], "object {i} was written before the kill");
        svc.attach(10 + i, oid.pmo(), Permission::Read).unwrap();
        assert_eq!(
            &svc.read(10 + i, *oid, 8).unwrap(),
            warm,
            "object {i}: the promoted mirror holds what the standby applied"
        );
    }
    drop(svc);
    promoted.shutdown();
    fs::remove_dir_all(&leader_dir).ok();
    fs::remove_dir_all(&mirror_dir).ok();
}
