//! Checkpoint bootstrap: a follower joining mid-stream — after the leader
//! has checkpointed, so part of history exists only in `ckpt.log` — must
//! converge to byte-identical state via checkpoint + log-suffix replay,
//! and must keep converging across the leader's automatic checkpoints.
//!
//! Property-style: random op mixes under a seeded LCG, several seeds. The
//! reference state for each shard is an offline `recover_segments(ckpt,
//! prot, wal)` over the leader's durable directory; the follower's warm
//! registry must fingerprint identically.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use terp_core::config::Scheme;
use terp_persist::{read_log, recover_segments, CHECKPOINT_EVERY, CKPT_FILE, PROT_FILE, WAL_FILE};
use terp_pmo::{ObjectId, OpenMode, Permission, PmoId, PmoRegistry};
use terp_repl::{ReplFollower, ReplFollowerConfig, ReplLeader, ReplLeaderConfig};
use terp_service::{PmoServer, PmoService, ServiceConfig, Visibility};

const SHARDS: usize = 2;
const CLIENT: usize = 0;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("terp-snapboot-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Runs `n` random ops against the service, tracking live allocations so
/// frees and writes stay valid.
fn random_ops(
    svc: &PmoService,
    rng: &mut Lcg,
    live: &mut Vec<(PmoId, ObjectId, u64)>,
    pools: &mut Vec<PmoId>,
    n: usize,
) {
    for _ in 0..n {
        match rng.below(10) {
            0 if pools.len() < 6 => {
                let name = format!("pool-{}", rng.next());
                let p = svc
                    .create_pool(&name, 1 << 18, OpenMode::ReadWrite)
                    .unwrap();
                svc.attach(CLIENT, p, Permission::ReadWrite).unwrap();
                pools.push(p);
            }
            1..=3 if !pools.is_empty() => {
                let p = pools[rng.below(pools.len() as u64) as usize];
                let size = 16 + rng.below(240);
                if let Ok(oid) = svc.alloc(CLIENT, p, size) {
                    live.push((p, oid, size));
                }
            }
            4..=7 if !live.is_empty() => {
                let (_, oid, size) = live[rng.below(live.len() as u64) as usize];
                let len = 1 + rng.below(size) as usize;
                let byte = (rng.next() & 0xff) as u8;
                svc.write(CLIENT, oid, &vec![byte; len]).unwrap();
            }
            8 if live.len() > 2 => {
                let (_, oid, _) = live.swap_remove(rng.below(live.len() as u64) as usize);
                svc.free(CLIENT, oid).unwrap();
            }
            _ => {}
        }
    }
}

/// One pool's identity: id, name, size, live blocks, page bytes.
type PoolPrint = (u16, String, u64, Vec<(u64, u64)>, Vec<(u64, Vec<u8>)>);

/// Byte-level pool fingerprint, sorted by id.
fn fingerprint(reg: &PmoRegistry) -> Vec<PoolPrint> {
    let mut pools: Vec<_> = reg
        .iter()
        .map(|p| {
            (
                p.id().raw(),
                p.name().to_string(),
                p.size(),
                p.allocator().live_blocks().collect::<Vec<_>>(),
                p.export_pages()
                    .map(|(i, b)| (i, b.to_vec()))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    pools.sort_by_key(|p| p.0);
    pools
}

/// Offline recovery of one shard of a leader directory:
/// `recover_segments(ckpt, prot, wal)`, fingerprinted.
fn reference(dir: &Path, shard: usize) -> Vec<PoolPrint> {
    let sdir = dir.join(format!("shard-{shard}"));
    let read = |name| fs::read(sdir.join(name)).unwrap_or_default();
    let (state, _) = recover_segments(&read(CKPT_FILE), &read(PROT_FILE), &read(WAL_FILE)).unwrap();
    fingerprint(&state.registry)
}

fn durable_seqs(dir: &Path) -> Vec<Option<u64>> {
    (0..SHARDS)
        .map(|i| {
            let bytes = fs::read(dir.join(format!("shard-{i}")).join(WAL_FILE)).unwrap_or_default();
            read_log(&bytes).last_seq()
        })
        .collect()
}

fn wait_applied(follower: &ReplFollower, want: &[Option<u64>]) {
    let start = Instant::now();
    loop {
        let lag = follower.lag();
        let ok = lag.len() == want.len()
            && lag
                .iter()
                .zip(want)
                .all(|(l, w)| l.bootstrapped && w.is_none_or(|seq| l.applied_seq >= seq));
        if ok {
            return;
        }
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "follower did not converge: lag={lag:?} want={want:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn run_seed(seed: u64) {
    let leader_dir = temp_dir(&format!("leader-{seed}"));
    let mirror_dir = temp_dir(&format!("mirror-{seed}"));
    let mut rng = Lcg(seed);
    let mut live = Vec::new();
    let mut pools = Vec::new();

    let config = || {
        ServiceConfig::for_tests(Scheme::terp_full())
            .with_shards(SHARDS)
            .with_durable(&leader_dir)
            .with_visibility(Visibility::Durable)
    };

    // Phase 1: random history, then a clean shutdown — which checkpoints,
    // leaving checkpoint logs plus truncated WALs. A follower joining later
    // can only learn this part of history from the checkpoint files.
    let server = PmoServer::try_start(config()).unwrap();
    random_ops(&server.service(), &mut rng, &mut live, &mut pools, 120);
    server.shutdown();

    // Phase 2: the leader reopens and keeps mutating — this part is the
    // log suffix the follower replays past its checkpoint watermarks.
    let server = PmoServer::try_start(config()).unwrap();
    let svc = server.service();
    for &p in &pools {
        svc.attach(CLIENT, p, Permission::ReadWrite).unwrap();
    }
    random_ops(&svc, &mut rng, &mut live, &mut pools, 120);

    // The follower joins mid-stream.
    let leader =
        ReplLeader::start(ReplLeaderConfig::new(&leader_dir, SHARDS), "127.0.0.1:0").unwrap();
    let follower = ReplFollower::start(ReplFollowerConfig::new(
        leader.local_addr(),
        &mirror_dir,
        seed,
    ));

    // A little more traffic while it catches up.
    random_ops(&svc, &mut rng, &mut live, &mut pools, 60);

    wait_applied(&follower, &durable_seqs(&leader_dir));
    drop(server); // freeze the leader's files (no drain: seqs stay as read)
    leader.shutdown();

    // Reference per shard: offline recovery of the checkpoint files + full
    // WAL.
    for shard in 0..SHARDS {
        let got = follower
            .inspect(shard as u32, fingerprint)
            .expect("shard mirror exists");
        assert_eq!(
            got,
            reference(&leader_dir, shard),
            "seed {seed} shard {shard}: follower diverged from checkpoint+suffix reference"
        );
    }

    follower.shutdown();
    fs::remove_dir_all(&leader_dir).ok();
    fs::remove_dir_all(&mirror_dir).ok();
}

#[test]
fn mid_stream_join_converges_byte_identical_across_seeds() {
    for seed in [0x5eed_0001u64, 0x5eed_0002, 0x5eed_0003, 0x5eed_0004] {
        run_seed(seed);
    }
}

/// Regression: a follower must keep applying every shard across the
/// leader's automatic checkpoints. Each checkpoint truncates the WAL under
/// the tail; the leader ships the checkpoint's growth of `ckpt.log` and the
/// new `prot.log` in-stream, and the follower must follow every one without
/// a re-bootstrap and end byte-identical to offline recovery of the
/// leader's directory.
#[test]
fn follower_keeps_applying_across_automatic_checkpoints() {
    let leader_dir = temp_dir("auto-ckpt-leader");
    let mirror_dir = temp_dir("auto-ckpt-mirror");
    let server = PmoServer::try_start(
        ServiceConfig::for_tests(Scheme::terp_full())
            .with_shards(SHARDS)
            .with_durable(&leader_dir),
    )
    .unwrap();
    let svc = server.service();
    // Two pools per shard (ids route by `id & (shards - 1)`), one object
    // each, windows left open throughout.
    let mut objs = Vec::new();
    for i in 0..2 * SHARDS {
        let p = svc
            .create_pool(&format!("ckpt-{i}"), 1 << 18, OpenMode::ReadWrite)
            .unwrap();
        svc.attach(CLIENT, p, Permission::ReadWrite).unwrap();
        objs.push(svc.alloc(CLIENT, p, 64).unwrap());
    }
    let leader =
        ReplLeader::start(ReplLeaderConfig::new(&leader_dir, SHARDS), "127.0.0.1:0").unwrap();
    let follower =
        ReplFollower::start(ReplFollowerConfig::new(leader.local_addr(), &mirror_dir, 9));
    // Streaming before the first write, so every checkpoint truncates the
    // WAL under a live tail.
    let start = Instant::now();
    while !follower.lag().iter().all(|l| l.bootstrapped) {
        assert!(start.elapsed() < Duration::from_secs(30), "no bootstrap");
        std::thread::sleep(Duration::from_millis(2));
    }

    // More than two checkpoints' worth of records on every shard.
    let writes = 2 * CHECKPOINT_EVERY as usize * SHARDS + 8_000;
    for n in 0..writes {
        let oid = objs[n % objs.len()];
        svc.write(CLIENT, oid, &(n as u64).to_le_bytes()).unwrap();
    }
    assert!(
        svc.report().checkpoints >= 2 * SHARDS as u64,
        "the leader checkpointed automatically"
    );
    drop(svc);
    drop(server); // no drain: the files stay as the last checkpoint left them

    for shard in 0..SHARDS {
        let prot = fs::read(leader_dir.join(format!("shard-{shard}")).join(PROT_FILE)).unwrap();
        let watermark = read_log(&prot).records.first().map(|(seq, _)| *seq);
        assert!(
            watermark.is_some_and(|w| w >= 2 * CHECKPOINT_EVERY),
            "shard {shard} crossed two checkpoints: watermark {watermark:?}"
        );
    }
    let want: Vec<Vec<PoolPrint>> = (0..SHARDS).map(|s| reference(&leader_dir, s)).collect();
    let start = Instant::now();
    loop {
        let lag = follower.lag();
        let got: Vec<Option<Vec<PoolPrint>>> = (0..SHARDS)
            .map(|s| follower.inspect(s as u32, fingerprint))
            .collect();
        if lag.iter().all(|l| l.bootstrapped)
            && got.iter().zip(&want).all(|(g, w)| g.as_ref() == Some(w))
        {
            break;
        }
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "follower stopped applying: lag={lag:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(follower.open_windows(), 2 * SHARDS, "prot.log carried them");
    // A re-bootstrap would reset the count. (Checkpoints that land between
    // two polls of a lagging leader ship as one, so it may be below the
    // number taken.)
    for l in follower.lag() {
        assert!(
            l.checkpoints >= 1,
            "shard {} followed its checkpoints in-stream: {l:?}",
            l.shard
        );
    }

    leader.shutdown();
    follower.shutdown();
    fs::remove_dir_all(&leader_dir).ok();
    fs::remove_dir_all(&mirror_dir).ok();
}
