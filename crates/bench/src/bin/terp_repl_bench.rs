//! `terp-repl-bench` — replication lag and failover time for the terp-repl
//! warm-standby pair (DESIGN.md §14).
//!
//! Three measurements, one run:
//!
//! * **Steady-state replication lag** — a closed-loop writer drives a
//!   durable leader (`visibility = durable`: each write returns once its
//!   record is fsynced) while a follower mirrors it over loopback TCP. Every
//!   `--probe-every` ops the driver timestamps a write, reads the shard's
//!   new durable WAL seq off the leader's own log tail, and spins until the
//!   follower reports that seq applied: the elapsed time is the end-to-end
//!   write→standby-applied latency. Between probes, a sampler records the
//!   raw seq gap (leader shipped − follower acked) per shard.
//! * **Failover time** — the leader process "dies" (dropped without drain,
//!   exposure windows still open on disk), and the follower promotes: full
//!   durable recovery over its mirror, force-resealing every crash-open
//!   window, then standby→leader gate flip and a first accepted write. The
//!   wall-clock from kill to that first write is the failover time;
//!   recovery's own nanoseconds come from the promoted service's
//!   [`RecoveryStats`].
//! * **Checkpoint churn** — a second pair whose leader acknowledges writes
//!   at submit, so a burst of writes crosses several automatic checkpoints
//!   per shard while the follower streams. Reported: the checkpoints the
//!   follower followed in-stream, how often it fell back to a bootstrap
//!   (must be never), the seq gap during the burst, how long the follower
//!   takes to catch up after it, and a promotion whose every object must
//!   read back its last write.
//!
//! Results land in `results/BENCH_repl.json`.
//!
//! ```text
//! terp-repl-bench --ops 4000 --shards 2
//! ```

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use terp_analysis::Json;
use terp_bench::cli::Cli;
use terp_core::config::Scheme;
use terp_persist::{TailReader, TailStatus, CHECKPOINT_EVERY, WAL_FILE};
use terp_pmo::{ObjectId, OpenMode, Permission, PmoId};
use terp_repl::{ReplFollower, ReplFollowerConfig, ReplLeader, ReplLeaderConfig};
use terp_service::{LatencyHistogram, PmoServer, ServiceConfig, Visibility};

const CLIENT: usize = 1;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("terp-repl-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench dir");
    dir
}

/// Tracks each shard's durable WAL tail so a probe can learn the exact seq
/// its write landed at without re-reading whole log files.
struct SeqTracker {
    tails: Vec<TailReader>,
    last: Vec<Option<u64>>,
}

impl SeqTracker {
    fn new(dir: &Path, shards: usize) -> Self {
        let tails = (0..shards)
            .map(|i| TailReader::new(&dir.join(format!("shard-{i}")).join(WAL_FILE)))
            .collect();
        SeqTracker {
            tails,
            last: vec![None; shards],
        }
    }

    /// Drains every tail; returns the current per-shard durable last seq.
    fn poll(&mut self) -> &[Option<u64>] {
        for (i, tail) in self.tails.iter_mut().enumerate() {
            loop {
                let chunk = tail.poll().expect("leader WAL readable");
                if let Some((seq, _)) = chunk.records.last() {
                    self.last[i] = Some(*seq);
                }
                if !matches!(chunk.status, TailStatus::NeedMore) || chunk.records.is_empty() {
                    break;
                }
            }
        }
        &self.last
    }
}

/// Spins until the follower has applied at least `want` on every shard;
/// returns the elapsed time.
fn wait_follower_at(follower: &ReplFollower, want: &[Option<u64>], t0: Instant) -> Duration {
    loop {
        let lag = follower.lag();
        let ok = lag.len() == want.len()
            && lag
                .iter()
                .zip(want)
                .all(|(l, w)| l.bootstrapped && w.is_none_or(|seq| l.applied_seq >= seq));
        if ok {
            return t0.elapsed();
        }
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "follower stalled: lag={lag:?} want={want:?}"
        );
        std::hint::spin_loop();
    }
}

/// Checkpoints every shard crosses in the churn phase.
const CHURN_CHECKPOINTS: u64 = 3;

/// The checkpoint-churn phase (see the module docs).
fn checkpoint_churn(shards: usize, payload: usize) -> Json {
    let leader_dir = temp_dir("churn-leader");
    let mirror_dir = temp_dir("churn-mirror");
    // `visibility = submit`: writes outrun the log, so the burst is short.
    let config = ServiceConfig::for_tests(Scheme::terp_full())
        .with_shards(shards)
        .with_durable(&leader_dir);
    let server = PmoServer::try_start(config.clone()).expect("start churn leader");
    let svc = server.service();
    let leader = ReplLeader::start(ReplLeaderConfig::new(&leader_dir, shards), "127.0.0.1:0")
        .expect("start repl leader");
    let follower =
        ReplFollower::start(ReplFollowerConfig::new(leader.local_addr(), &mirror_dir, 2));
    let objects: Vec<ObjectId> = (0..shards.max(2))
        .map(|i| {
            let p = svc
                .create_pool(&format!("churn-{i}"), 1 << 20, OpenMode::ReadWrite)
                .expect("create pool");
            svc.attach(CLIENT, p, Permission::ReadWrite)
                .expect("attach");
            svc.alloc(CLIENT, p, payload.max(8) as u64).expect("alloc")
        })
        .collect();
    wait_follower_at(&follower, &vec![None; shards], Instant::now());

    let ops = CHURN_CHECKPOINTS * CHECKPOINT_EVERY * shards as u64 + CHECKPOINT_EVERY / 2;
    let stop = AtomicBool::new(false);
    let (gaps, rebootstraps, burst, catch_up) = std::thread::scope(|scope| {
        // Samples the leader's seq gap, and catches any shard that drops
        // back to a bootstrap (its followed-checkpoint count resets).
        let sampler = scope.spawn(|| {
            let mut gaps = LatencyHistogram::default();
            let mut seen = vec![0u64; shards];
            let mut rebootstraps = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for l in leader.lag() {
                    gaps.record(l.shipped_seq.saturating_sub(l.acked_seq));
                }
                for (l, seen) in follower.lag().iter().zip(&mut seen) {
                    if !l.bootstrapped || l.checkpoints < *seen {
                        rebootstraps += 1;
                    }
                    *seen = l.checkpoints;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            (gaps, rebootstraps)
        });
        let t0 = Instant::now();
        for n in 0..ops {
            let oid = objects[(n % objects.len() as u64) as usize];
            let mut data = vec![0u8; payload.max(8)];
            data[..8].copy_from_slice(&n.to_le_bytes());
            svc.write(CLIENT, oid, &data).expect("write");
        }
        let burst = t0.elapsed();
        // The follower drains what the burst left behind.
        let want = SeqTracker::new(&leader_dir, shards).poll().to_vec();
        let catch_up = wait_follower_at(&follower, &want, t0) - burst;
        stop.store(true, Ordering::Relaxed);
        let (gaps, rebootstraps) = sampler.join().expect("sampler");
        (gaps, rebootstraps, burst, catch_up)
    });
    let taken = svc.report().checkpoints;

    // Kill the leader (its log writers flush their last batches on drop),
    // let the follower apply the rest, then promote.
    drop(svc);
    drop(server);
    let want = SeqTracker::new(&leader_dir, shards).poll().to_vec();
    wait_follower_at(&follower, &want, Instant::now());
    let followed = follower.lag().iter().map(|l| l.checkpoints).min();
    leader.shutdown();
    let t_promote = Instant::now();
    let promoted = follower
        .promote(config)
        .expect("promote follower over its mirror");
    let promote = t_promote.elapsed();
    let svc = promoted.service();
    let rec = svc.recovery_stats().expect("promotion ran recovery");
    for (i, &oid) in objects.iter().enumerate() {
        let last = (0..ops)
            .rev()
            .find(|n| n % objects.len() as u64 == i as u64);
        let client = 100 + i;
        svc.attach(client, oid.pmo(), Permission::Read)
            .expect("attach after failover");
        let got = svc.read(client, oid, 8).expect("read after failover");
        assert_eq!(
            last.map(u64::to_le_bytes).as_ref().map(|b| &b[..]),
            Some(&got[..]),
            "object {i} lost its last write across checkpoints and failover"
        );
    }
    drop(svc);
    promoted.shutdown();
    let followed = followed.unwrap_or(0);
    println!(
        "  checkpoint churn: {ops} writes in {:.0} ms, {taken} checkpoints taken, \
         >= {followed} followed per shard, {rebootstraps} re-bootstraps, \
         seq gap p99 {} max {}, caught up {:.1} ms after the burst, \
         promotion {:.1} ms ({} records replayed)",
        burst.as_secs_f64() * 1e3,
        gaps.quantile(0.99),
        gaps.max(),
        catch_up.as_secs_f64() * 1e3,
        promote.as_secs_f64() * 1e3,
        rec.records_replayed,
    );
    assert_eq!(
        rebootstraps, 0,
        "the follower re-bootstrapped under checkpoints"
    );
    std::fs::remove_dir_all(&leader_dir).ok();
    std::fs::remove_dir_all(&mirror_dir).ok();
    Json::obj([
        ("visibility", Json::Str("submit".to_string())),
        ("ops", Json::Num(ops as f64)),
        (
            "writes_per_sec",
            Json::Num(ops as f64 / burst.as_secs_f64().max(f64::MIN_POSITIVE)),
        ),
        ("checkpoints_taken", Json::Num(taken as f64)),
        ("checkpoints_followed_min", Json::Num(followed as f64)),
        ("rebootstraps", Json::Num(rebootstraps as f64)),
        (
            "seq_gap_records",
            Json::obj([
                ("p50", Json::Num(gaps.quantile(0.50) as f64)),
                ("p99", Json::Num(gaps.quantile(0.99) as f64)),
                ("max", Json::Num(gaps.max() as f64)),
            ]),
        ),
        ("catch_up_ms", Json::Num(catch_up.as_secs_f64() * 1e3)),
        ("promote_ms", Json::Num(promote.as_secs_f64() * 1e3)),
        ("records_replayed", Json::Num(rec.records_replayed as f64)),
        (
            "checkpoint_records",
            Json::Num(rec.checkpoint_records as f64),
        ),
        ("last_writes_intact", Json::Bool(true)),
    ])
}

fn hist_json(hist: &LatencyHistogram) -> Json {
    Json::obj([
        ("p50_ns", Json::Num(hist.quantile(0.50) as f64)),
        ("p95_ns", Json::Num(hist.quantile(0.95) as f64)),
        ("p99_ns", Json::Num(hist.quantile(0.99) as f64)),
        ("mean_ns", Json::Num(hist.mean())),
        ("max_ns", Json::Num(hist.max() as f64)),
    ])
}

fn main() {
    let cli = Cli::new(
        "terp-repl-bench",
        "replication lag and failover time for the WAL-shipping warm-standby pair",
    )
    .opt_uint(
        "--ops",
        "N",
        "closed-loop write ops to drive (default: 4000)",
    )
    .opt_uint("--shards", "N", "service shards (default: 2)")
    .opt_uint("--payload", "BYTES", "write payload size (default: 64)")
    .opt_uint(
        "--probe-every",
        "N",
        "ops between write→applied latency probes (default: 16)",
    )
    .opt_str(
        "--out",
        "PATH",
        "output path (default: results/BENCH_repl.json)",
    )
    .parse_env();

    let ops = cli.uint("--ops").unwrap_or(4000).max(1);
    let shards = cli.uint("--shards").unwrap_or(2).max(1) as usize;
    let payload = cli.uint("--payload").unwrap_or(64).max(1) as usize;
    let probe_every = cli.uint("--probe-every").unwrap_or(16).max(1);
    let out_path = cli.choice("--out", "results/BENCH_repl.json");

    let leader_dir = temp_dir("leader");
    let mirror_dir = temp_dir("mirror");
    let config = ServiceConfig::for_tests(Scheme::terp_full())
        .with_shards(shards)
        .with_durable(&leader_dir)
        .with_visibility(Visibility::Durable);

    println!(
        "terp-repl-bench: {shards} shard(s), durable visibility, {ops} ops, \
         {payload}-byte writes, probe every {probe_every}"
    );

    // Leader service + replication pair over loopback.
    let server = PmoServer::try_start(config.clone()).expect("start leader");
    let svc = server.service();
    let leader = ReplLeader::start(ReplLeaderConfig::new(&leader_dir, shards), "127.0.0.1:0")
        .expect("start repl leader");
    let follower =
        ReplFollower::start(ReplFollowerConfig::new(leader.local_addr(), &mirror_dir, 1));

    // One pool per shard's worth of traffic; objects cycled round-robin.
    let pools: Vec<PmoId> = (0..shards.max(2))
        .map(|i| {
            let p = svc
                .create_pool(&format!("repl-bench-{i}"), 1 << 20, OpenMode::ReadWrite)
                .expect("create pool");
            svc.attach(CLIENT, p, Permission::ReadWrite)
                .expect("attach");
            p
        })
        .collect();
    let objects: Vec<ObjectId> = pools
        .iter()
        .map(|&p| svc.alloc(CLIENT, p, payload as u64).expect("alloc"))
        .collect();
    let data = vec![0xA5u8; payload];

    // Background sampler: raw per-shard seq gap (shipped − acked), sampled
    // every millisecond while the writer runs.
    let stop = AtomicBool::new(false);
    let (lag_hist, probe_hist, steady_secs) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut gaps = LatencyHistogram::default();
            let mut max_gap = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for l in leader.lag() {
                    let gap = l.shipped_seq.saturating_sub(l.acked_seq);
                    gaps.record(gap);
                    max_gap = max_gap.max(gap);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            (gaps, max_gap)
        });

        // Closed-loop writer with periodic write→applied probes.
        let mut tracker = SeqTracker::new(&leader_dir, shards);
        let mut probe_hist = LatencyHistogram::default();
        let t_start = Instant::now();
        for i in 0..ops {
            let oid = objects[(i % objects.len() as u64) as usize];
            let probing = i.is_multiple_of(probe_every);
            let t0 = Instant::now();
            svc.write(CLIENT, oid, &data).expect("write");
            if probing {
                let want = tracker.poll().to_vec();
                let applied = wait_follower_at(&follower, &want, t0);
                probe_hist.record(applied.as_nanos() as u64);
            }
        }
        let steady_secs = t_start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        let (gaps, max_gap) = sampler.join().expect("sampler");
        let _ = max_gap;
        (gaps, probe_hist, steady_secs)
    });

    println!(
        "  steady state: {:.0} writes/s, write→applied p50 {} ns, p99 {} ns, \
         seq gap p99 {} records",
        ops as f64 / steady_secs.max(f64::MIN_POSITIVE),
        probe_hist.quantile(0.50),
        probe_hist.quantile(0.99),
        lag_hist.quantile(0.99),
    );

    // Make sure the standby is fully caught up, then kill the leader: drop
    // without drain (windows stay open on disk), exactly a process death.
    let mut tracker = SeqTracker::new(&leader_dir, shards);
    let want = tracker.poll().to_vec();
    wait_follower_at(&follower, &want, Instant::now());
    let open_before = follower.open_windows();

    let t_kill = Instant::now();
    drop(server);
    leader.shutdown();
    let promoted = follower
        .promote(config)
        .expect("promote follower over its mirror");
    let svc2 = promoted.service();
    // First accepted write on the promoted leader ends the outage.
    let p = svc2
        .create_pool("post-failover", 1 << 16, OpenMode::ReadWrite)
        .expect("create pool after failover");
    svc2.attach(CLIENT, p, Permission::ReadWrite)
        .expect("attach");
    let oid = svc2.alloc(CLIENT, p, 64).expect("alloc");
    svc2.write(CLIENT, oid, b"serving-again")
        .expect("first write");
    let failover = t_kill.elapsed();

    let rec = svc2.recovery_stats().expect("promotion ran recovery");
    println!(
        "  failover: kill→first-write {:.3} ms (recovery {:.3} ms, {} windows resealed, \
         {} records replayed, {} open at kill)",
        failover.as_secs_f64() * 1e3,
        rec.recovery_ns as f64 / 1e6,
        rec.windows_resealed,
        rec.records_replayed,
        open_before,
    );
    promoted.shutdown();

    let churn = checkpoint_churn(shards, payload);

    let doc = Json::obj([
        // Matches terp-analyze's JSON schema version (the result documents
        // evolve together; see that binary's docs).
        ("schema_version", Json::Num(3.0)),
        ("benchmark", Json::Str("terp-repl-bench".to_string())),
        // Closed loop: the writer issues the next op after the previous one
        // completes; probe latencies are per-op write→standby-applied.
        ("loop_mode", Json::Str("closed".to_string())),
        ("shards", Json::Num(shards as f64)),
        ("visibility", Json::Str("durable".to_string())),
        ("ops", Json::Num(ops as f64)),
        ("payload_bytes", Json::Num(payload as f64)),
        (
            "steady_state",
            Json::obj([
                (
                    "writes_per_sec",
                    Json::Num(ops as f64 / steady_secs.max(f64::MIN_POSITIVE)),
                ),
                ("write_to_applied", hist_json(&probe_hist)),
                (
                    "seq_gap_records",
                    Json::obj([
                        ("p50", Json::Num(lag_hist.quantile(0.50) as f64)),
                        ("p99", Json::Num(lag_hist.quantile(0.99) as f64)),
                        ("max", Json::Num(lag_hist.max() as f64)),
                    ]),
                ),
            ]),
        ),
        (
            "failover",
            Json::obj([
                (
                    "kill_to_first_write_ms",
                    Json::Num(failover.as_secs_f64() * 1e3),
                ),
                ("recovery_ms", Json::Num(rec.recovery_ns as f64 / 1e6)),
                ("windows_resealed", Json::Num(rec.windows_resealed as f64)),
                ("records_replayed", Json::Num(rec.records_replayed as f64)),
                ("open_windows_at_kill", Json::Num(open_before as f64)),
            ]),
        ),
        ("checkpoint_churn", churn),
    ]);
    if let Some(dir) = Path::new(out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create results dir");
        }
    }
    std::fs::write(out_path, format!("{}\n", doc.render())).expect("write results");
    println!("wrote {out_path}");

    std::fs::remove_dir_all(&leader_dir).ok();
    std::fs::remove_dir_all(&mirror_dir).ok();
}
