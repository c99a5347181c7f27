//! `terp-persist` — durability benchmark for the file-backed PMO store
//! (DESIGN.md §10).
//!
//! Three experiments, all landing in `results/BENCH_persist.json`:
//!
//! 1. **Durable vs in-memory service throughput** — the same closed-loop
//!    attach/data/detach workload as `terp-serve`, run against a purely
//!    in-memory TERP-full service and against a durable one (pipelined log
//!    writer, automatic checkpoints every `CHECKPOINT_EVERY` records per
//!    shard), so the journaling overhead is directly comparable. The
//!    durable row also reports how many checkpoints the run took.
//! 2. **Commit latency** — per-write submit→durable latency percentiles
//!    (p50/p95/p99) under `visibility = durable`: what a caller actually
//!    waits when it demands durability before the ack.
//! 3. **Recovery time vs log length** — un-checkpointed WALs of increasing
//!    record counts are re-opened through full recovery (replay, rollback,
//!    window resealing), reporting wall-clock recovery latency per length.
//! 4. **Checkpoint hold time** — how long `DurableStore::start_checkpoint`
//!    (which the service calls under the shard lock) holds its caller for
//!    one fully resident pool of the bench's largest size: a one-page
//!    incremental checkpoint, and a compacting one that copies every page.
//!
//! ```text
//! terp-persist --threads 4 --duration-ms 400 --recovery-scale 2
//! ```

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use terp_analysis::Json;
use terp_bench::cli::Cli;
use terp_core::config::Scheme;
use terp_persist::{DurableStore, WalRecord, WalWriter, CHECKPOINT_EVERY, CKPT_FILE, WAL_FILE};
use terp_pmo::{OpenMode, Permission, PmoId, PmoRegistry, PAGE_SIZE};
use terp_service::{CostModel, LatencyHistogram, PmoServer, PmoService, ServiceConfig, Visibility};

struct RunSettings {
    threads: usize,
    duration: Duration,
    pools: usize,
    shards: usize,
    seed: u64,
    rounds: usize,
}

/// Closed loop: attach → `rounds` × (alloc/write/read/free) → detach.
fn worker(svc: &PmoService, tid: usize, pools: &[PmoId], deadline: Instant, rounds: usize) -> u64 {
    let mut ops = 0u64;
    let mut i = 0usize;
    while Instant::now() < deadline {
        let pmo = pools[(tid * 31 + i * 7) % pools.len()];
        i += 1;
        if svc.attach(tid, pmo, Permission::ReadWrite).is_err() {
            break; // shutting down
        }
        ops += 1;
        for _ in 0..rounds {
            let Ok(oid) = svc.alloc(tid, pmo, 64) else {
                break;
            };
            let payload = [tid as u8; 48];
            let ok = svc.write(tid, oid, &payload).is_ok() && svc.read(tid, oid, 48).is_ok();
            let _ = svc.free(tid, oid);
            ops += 4;
            if !ok {
                break;
            }
        }
        if svc.detach(tid, pmo).is_err() {
            break;
        }
        ops += 1;
    }
    ops
}

/// Runs the closed-loop workload against one service configuration
/// (in-memory, or durable rooted at the given directory) and returns
/// `(total ops, elapsed seconds, checkpoints taken)`.
fn run_mode(durable: Option<&Path>, s: &RunSettings) -> (u64, f64, u64) {
    if let Some(d) = durable {
        let _ = std::fs::remove_dir_all(d);
    }
    let mut config = ServiceConfig::new(Scheme::terp_full())
        .with_shards(s.shards)
        .with_sweep_period_us(0)
        .with_seed(s.seed)
        .with_cost(CostModel::zero());
    if let Some(d) = durable {
        config = config.with_durable(d);
    }
    let server = PmoServer::try_start(config).expect("service start");
    let svc = server.service();
    let pools: Vec<PmoId> = (0..s.pools)
        .map(|i| {
            svc.create_pool(&format!("persist-{i}"), 1 << 20, OpenMode::ReadWrite)
                .expect("pool creation")
        })
        .collect();

    let started = Instant::now();
    let deadline = started + s.duration;
    let mut total = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..s.threads)
            .map(|tid| {
                let svc = Arc::clone(&svc);
                let pools = &pools;
                scope.spawn(move || worker(&svc, tid, pools, deadline, s.rounds))
            })
            .collect();
        for h in handles {
            total += h.join().expect("worker panicked");
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    // Automatic checkpoints only: the drain below takes one more.
    let checkpoints = svc.report().checkpoints;
    server.shutdown();
    if let Some(d) = durable {
        let _ = std::fs::remove_dir_all(d);
    }
    (total, elapsed, checkpoints)
}

fn throughput_json(mode: &str, ops: u64, secs: f64) -> Json {
    Json::obj([
        ("mode", Json::Str(mode.to_string())),
        ("ops", Json::Num(ops as f64)),
        ("elapsed_s", Json::Num(secs)),
        (
            "throughput_ops_per_s",
            Json::Num(ops as f64 / secs.max(f64::MIN_POSITIVE)),
        ),
    ])
}

/// Experiment 2: per-write commit latency (submit → durable ack) under
/// `visibility = durable`. Each thread hammers its own pre-allocated object
/// with timed `write()` calls; the service only acks once the record is
/// past the durability watermark, so the timed call *is* the commit.
fn run_commit_latency(s: &RunSettings, scratch: &Path) -> Json {
    let dir = scratch.join("lat");
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServiceConfig::new(Scheme::terp_full())
        .with_shards(s.shards)
        .with_sweep_period_us(0)
        .with_seed(s.seed)
        .with_cost(CostModel::zero())
        .with_visibility(Visibility::Durable)
        .with_durable(&dir);
    let server = PmoServer::try_start(config).expect("service start");
    let svc = server.service();
    let pools: Vec<PmoId> = (0..s.threads)
        .map(|i| {
            svc.create_pool(&format!("lat-{i}"), 1 << 20, OpenMode::ReadWrite)
                .expect("pool creation")
        })
        .collect();
    let deadline = Instant::now() + s.duration;
    let mut hist = LatencyHistogram::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..s.threads)
            .map(|tid| {
                let svc = Arc::clone(&svc);
                let pmo = pools[tid];
                scope.spawn(move || {
                    let mut h = LatencyHistogram::new();
                    svc.attach(tid, pmo, Permission::ReadWrite).expect("attach");
                    let oid = svc.alloc(tid, pmo, 64).expect("alloc");
                    let payload = [tid as u8; 48];
                    while Instant::now() < deadline {
                        let t0 = Instant::now();
                        if svc.write(tid, oid, &payload).is_err() {
                            break;
                        }
                        h.record(t0.elapsed().as_nanos() as u64);
                    }
                    let _ = svc.detach(tid, pmo);
                    h
                })
            })
            .collect();
        for h in handles {
            hist.merge(&h.join().expect("worker panicked"));
        }
    });
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let us = |ns: u64| ns as f64 / 1e3;
    println!(
        "  commit   p50 {:>8.1} us   p95 {:>8.1} us   p99 {:>8.1} us   ({} commits)",
        us(hist.quantile(0.50)),
        us(hist.quantile(0.95)),
        us(hist.quantile(0.99)),
        hist.count(),
    );
    Json::obj([
        ("commits", Json::Num(hist.count() as f64)),
        ("p50_us", Json::Num(us(hist.quantile(0.50)))),
        ("p95_us", Json::Num(us(hist.quantile(0.95)))),
        ("p99_us", Json::Num(us(hist.quantile(0.99)))),
        ("mean_us", Json::Num(hist.mean() / 1e3)),
        ("max_us", Json::Num(us(hist.max()))),
    ])
}

/// Writes an un-checkpointed WAL of `records` total records into `dir`:
/// a pool creation, an open exposure window, periodic in-place
/// randomizations, and data writes cycling through the pool. One write and
/// one fsync, so no writeback from building the log runs into the timed
/// replay.
fn build_recovery_log(dir: &Path, records: usize) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create store dir");
    let pmo = PmoId::new(1).expect("pmo id");
    let payload = vec![0xA5u8; 64];
    let mut frames = Vec::new();
    for i in 0..records {
        let record = match i {
            0 => WalRecord::PoolCreate {
                id: pmo,
                name: "recovery".into(),
                size: 1 << 21,
                mode: OpenMode::ReadWrite,
            },
            1 => WalRecord::SessionOpen {
                client: 1,
                pmo,
                perm: Permission::ReadWrite,
            },
            2 => WalRecord::WindowOpen { pmo },
            i if i % 64 == 0 => WalRecord::Randomize { pmo },
            i => WalRecord::DataWrite {
                pmo,
                offset: ((i * 64) % ((1 << 21) - 64)) as u64,
                data: payload.clone(),
            },
        };
        record.encode_into(i as u64, &mut frames);
    }
    let (mut wal, _) = WalWriter::open(&dir.join(WAL_FILE)).expect("wal open");
    wal.append_frames(&frames, records as u64)
        .expect("write log");
}

fn recovery_json(dir: &Path, records: usize) -> Json {
    build_recovery_log(dir, records);
    let wal_bytes = std::fs::metadata(dir.join(WAL_FILE))
        .map(|m| m.len())
        .unwrap_or(0);
    let (_, recovered, report) = DurableStore::open(dir).expect("recovery");
    assert_eq!(recovered.resealed.len(), 1, "crash-open window resealed");
    let ms = report.recovery_ns as f64 / 1e6;
    println!(
        "  recovery  {:>8} records  {:>10} B wal   {:>9.3} ms   ({} resealed)",
        records, wal_bytes, ms, report.windows_resealed
    );
    let _ = std::fs::remove_dir_all(dir);
    Json::obj([
        ("records", Json::Num(records as f64)),
        ("wal_bytes", Json::Num(wal_bytes as f64)),
        (
            "records_replayed",
            Json::Num(report.records_replayed as f64),
        ),
        (
            "windows_resealed",
            Json::Num(report.windows_resealed as f64),
        ),
        ("recovery_ms", Json::Num(ms)),
    ])
}

/// Experiment 4: median time `start_checkpoint` holds its caller for one
/// fully resident `HOLD_POOL`-byte pool — with one dirty page, and when the
/// checkpoint compacts (every page rewritten each round until `ckpt.log`
/// passes twice the resident bytes).
fn checkpoint_hold_json(dir: &Path) -> Json {
    const HOLD_POOL: u64 = 1 << 21;
    const ROUNDS: usize = 7;
    let _ = std::fs::remove_dir_all(dir);
    let (mut store, recovered, _) = DurableStore::open(dir).expect("store open");
    let mut reg = recovered.registry;
    let pmo = reg
        .create("hold", HOLD_POOL, OpenMode::ReadWrite)
        .expect("pool creation");
    store
        .log(&WalRecord::PoolCreate {
            id: pmo,
            name: "hold".into(),
            size: HOLD_POOL,
            mode: OpenMode::ReadWrite,
        })
        .expect("log");
    let page = vec![0x5au8; PAGE_SIZE as usize];
    let pages = HOLD_POOL / PAGE_SIZE;
    let ckpt_len = || {
        std::fs::metadata(dir.join(CKPT_FILE))
            .map(|m| m.len())
            .unwrap_or(0)
    };
    // Returns (hold time, whether the checkpoint compacted).
    let checkpoint = |store: &mut DurableStore, reg: &mut PmoRegistry, dirty: u64| {
        for p in 0..dirty {
            let pool = reg.pool_mut(pmo).expect("pool");
            pool.write_bytes(p * PAGE_SIZE, &page).expect("write");
        }
        let before = ckpt_len();
        let t0 = Instant::now();
        let (_, done) = store
            .start_checkpoint(reg.iter_mut(), &[])
            .expect("checkpoint");
        let held = t0.elapsed();
        done.wait().expect("checkpoint I/O");
        (held, ckpt_len() < before + (dirty * PAGE_SIZE))
    };
    checkpoint(&mut store, &mut reg, pages); // every page resident
    let mut incremental = LatencyHistogram::default();
    let mut compacting = LatencyHistogram::default();
    for _ in 0..ROUNDS {
        incremental.record(checkpoint(&mut store, &mut reg, 1).0.as_nanos() as u64);
        loop {
            let (held, compacted) = checkpoint(&mut store, &mut reg, pages);
            if compacted {
                compacting.record(held.as_nanos() as u64);
                break;
            }
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    let us = |ns: u64| ns as f64 / 1e3;
    println!(
        "  checkpoint hold ({} KiB pool, {pages} pages resident): one page {:.1} us, \
         compacting {:.1} us (p50 of {ROUNDS})",
        HOLD_POOL >> 10,
        us(incremental.quantile(0.50)),
        us(compacting.quantile(0.50)),
    );
    Json::obj([
        ("pool_bytes", Json::Num(HOLD_POOL as f64)),
        ("resident_pages", Json::Num(pages as f64)),
        ("rounds", Json::Num(ROUNDS as f64)),
        ("one_page_p50_us", Json::Num(us(incremental.quantile(0.50)))),
        (
            "compacting_p50_us",
            Json::Num(us(compacting.quantile(0.50))),
        ),
        ("compacting_max_us", Json::Num(us(compacting.max()))),
    ])
}

fn main() {
    let cli = Cli::new(
        "terp-persist",
        "durability benchmark: durable vs in-memory throughput, commit latency, recovery latency",
    )
    .opt_uint("--threads", "N", "worker threads (default: 4)")
    .opt_uint("--duration-ms", "MS", "run length per mode (default: 400)")
    .opt_uint("--pools", "N", "distinct PMO pools (default: 32)")
    .opt_uint("--shards", "N", "service shards (default: 8)")
    .opt_uint("--rounds", "N", "data rounds per attach (default: 4)")
    .opt_uint("--seed", "SEED", "placement RNG seed (default: 0x7e2f)")
    .opt_uint(
        "--recovery-scale",
        "K",
        "multiplier on the recovery log lengths (default: 1)",
    )
    .opt_str(
        "--out",
        "PATH",
        "output path (default: results/BENCH_persist.json)",
    )
    .parse_env();

    let settings = RunSettings {
        threads: cli.uint("--threads").unwrap_or(4) as usize,
        duration: Duration::from_millis(cli.uint("--duration-ms").unwrap_or(400)),
        pools: cli.uint("--pools").unwrap_or(32) as usize,
        shards: cli.uint("--shards").unwrap_or(8) as usize,
        seed: cli.uint("--seed").unwrap_or(0x7e2f),
        rounds: cli.uint("--rounds").unwrap_or(4) as usize,
    };
    let scale = cli.uint("--recovery-scale").unwrap_or(1).max(1) as usize;
    let out_path = cli.choice("--out", "results/BENCH_persist.json");
    let scratch: PathBuf =
        std::env::temp_dir().join(format!("terp-persist-bench-{}", std::process::id()));

    println!(
        "terp-persist: {} thread(s), {} pool(s), {} ms per mode",
        settings.threads,
        settings.pools,
        settings.duration.as_millis(),
    );

    // Experiment 1: in-memory baseline vs the durable service.
    let (ops, secs, _) = run_mode(None, &settings);
    let memory_tput = ops as f64 / secs.max(f64::MIN_POSITIVE);
    println!("  memory   {:>12.0} ops/s", memory_tput);
    let memory = throughput_json("memory", ops, secs);
    let (ops, secs, checkpoints) = run_mode(Some(&scratch.join("durable")), &settings);
    let tput = ops as f64 / secs.max(f64::MIN_POSITIVE);
    println!(
        "  durable  {:>12.0} ops/s   ({:.1}% of memory, {} checkpoints)",
        tput,
        100.0 * tput / memory_tput.max(f64::MIN_POSITIVE),
        checkpoints,
    );
    let mut durable = throughput_json("durable", ops, secs);
    if let Json::Obj(fields) = &mut durable {
        fields.insert("checkpoints".to_string(), Json::Num(checkpoints as f64));
    }

    // Experiment 2: commit latency (submit → durable) under
    // `visibility = durable`.
    let commit_latency = run_commit_latency(&settings, &scratch);

    // Experiment 3: recovery latency vs log length.
    let recovery: Vec<Json> = [1_000usize, 8_000, 32_000]
        .iter()
        .map(|n| recovery_json(&scratch.join(format!("rec-{n}")), n * scale))
        .collect();

    // Experiment 4: how long a checkpoint holds the shard lock.
    let checkpoint_hold = checkpoint_hold_json(&scratch.join("hold"));

    let doc = Json::obj([
        // Matches terp-analyze's JSON schema version (the result documents
        // evolve together; see that binary's docs).
        ("schema_version", Json::Num(4.0)),
        ("benchmark", Json::Str("terp-persist".to_string())),
        ("threads", Json::Num(settings.threads as f64)),
        ("pools", Json::Num(settings.pools as f64)),
        ("shards", Json::Num(settings.shards as f64)),
        (
            "duration_ms",
            Json::Num(settings.duration.as_millis() as f64),
        ),
        ("data_rounds", Json::Num(settings.rounds as f64)),
        ("checkpoint_every", Json::Num(CHECKPOINT_EVERY as f64)),
        ("modes", Json::Arr(vec![memory, durable])),
        ("commit_latency", commit_latency),
        ("recovery", Json::Arr(recovery)),
        ("checkpoint_hold", checkpoint_hold),
    ]);
    if let Some(dir) = Path::new(out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create results dir");
        }
    }
    std::fs::write(out_path, format!("{}\n", doc.render())).expect("write results");
    let _ = std::fs::remove_dir_all(&scratch);
    println!("wrote {out_path}");
}
