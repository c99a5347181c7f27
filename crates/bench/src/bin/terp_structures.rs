//! `terp-structures-bench` — persistent data-structure benchmark
//! (DESIGN.md §15).
//!
//! Three experiments, all landing in `results/BENCH_structures.json`:
//!
//! 1. **In-memory vs durable throughput** — each structure (Treiber
//!    stack, Michael-Scott queue, fixed-bucket hash map) runs a mixed
//!    closed-loop workload through real TT service sessions, against a
//!    purely in-memory service and against a durable (journaling) one,
//!    so the WAL cost of every commit CAS is directly comparable.
//! 2. **Contention sweep** — per-structure ops/s at 1, 2, 4 and 8
//!    worker threads hammering the *same* structure (in-memory service),
//!    showing how the single-CAS commit points scale under CAS retry
//!    pressure.
//! 3. **Recovery latency** — seeded workloads of increasing size are
//!    built on the crash-harness memory, then timed through full
//!    recovery: WAL replay + root-directory attach + the structure's own
//!    descriptor-deciding recovery pass.
//!
//! ```text
//! terp-structures-bench --duration-ms 150 --seed 7
//! ```

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use terp_analysis::Json;
use terp_bench::cli::Cli;
use terp_core::config::Scheme;
use terp_pmo::{OpenMode, Permission, PmoId};
use terp_service::{CostModel, PmoServer, PmoService, ServiceConfig};
use terp_structures::{DsMem, HashMap, LocalMem, Queue, ServiceMem, Stack};

const ROOT_KEY: u32 = 1;
const MAP_BUCKETS: u32 = 64;
const MAP_KEYS: u64 = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ds {
    Stack,
    Queue,
    Map,
}

impl Ds {
    const ALL: [Ds; 3] = [Ds::Stack, Ds::Queue, Ds::Map];

    fn key(self) -> &'static str {
        match self {
            Ds::Stack => "stack",
            Ds::Queue => "queue",
            Ds::Map => "map",
        }
    }
}

#[derive(Clone, Copy)]
enum Handle {
    Stack(Stack),
    Queue(Queue),
    Map(HashMap),
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One mixed operation; returns how many structure ops it performed.
fn one_op(handle: Handle, mem: &impl DsMem, c: u32, rng: &mut u64) -> u64 {
    let r = splitmix(rng);
    match handle {
        Handle::Stack(s) => {
            if r.is_multiple_of(2) {
                s.push(mem, c, r).expect("push");
            } else {
                s.pop(mem, c).expect("pop");
            }
        }
        Handle::Queue(q) => {
            if r.is_multiple_of(2) {
                q.enqueue(mem, c, r).expect("enqueue");
            } else {
                q.dequeue(mem, c).expect("dequeue");
            }
        }
        Handle::Map(m) => {
            let key = (r >> 8) % MAP_KEYS;
            match r % 3 {
                0 => {
                    m.insert(mem, c, key, r).expect("insert");
                }
                1 => {
                    m.remove(mem, c, key).expect("remove");
                }
                _ => {
                    m.get(mem, key).expect("get");
                }
            }
        }
    }
    1
}

fn create_handle(ds: Ds, mem: &impl DsMem, pmo: PmoId, clients: u32) -> Handle {
    match ds {
        Ds::Stack => Handle::Stack(Stack::create(mem, pmo, clients, ROOT_KEY).expect("stack")),
        Ds::Queue => Handle::Queue(Queue::create(mem, pmo, clients, ROOT_KEY).expect("queue")),
        Ds::Map => {
            Handle::Map(HashMap::create(mem, pmo, clients, MAP_BUCKETS, ROOT_KEY).expect("map"))
        }
    }
}

/// Closed loop: each worker holds one long TT window and hammers the
/// shared structure until the deadline. Returns total ops and elapsed
/// seconds.
fn run_service_mode(
    ds: Ds,
    threads: u32,
    duration: Duration,
    seed: u64,
    durable: Option<PathBuf>,
) -> (u64, f64) {
    if let Some(d) = &durable {
        let _ = std::fs::remove_dir_all(d);
    }
    let mut config = ServiceConfig::new(Scheme::terp_full())
        .with_shards(4)
        .with_sweep_period_us(0)
        .with_seed(seed)
        .with_cost(CostModel::zero());
    if let Some(d) = durable.clone() {
        config = config.with_durable(d);
    }
    let server = PmoServer::try_start(config).expect("service start");
    let svc: Arc<PmoService> = server.service();
    let pmo = svc
        .create_pool("structures", 1 << 24, OpenMode::ReadWrite)
        .expect("pool");

    let boot = threads as usize;
    svc.attach(boot, pmo, Permission::ReadWrite)
        .expect("attach");
    let handle = create_handle(ds, &ServiceMem::new(&svc, boot), pmo, threads + 1);
    svc.detach(boot, pmo).expect("detach");

    let started = Instant::now();
    let deadline = started + duration;
    let mut total = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let svc = Arc::clone(&svc);
                scope.spawn(move || {
                    let mut rng = seed ^ (u64::from(t) << 21);
                    let mut ops = 0u64;
                    svc.attach(t as usize, pmo, Permission::ReadWrite)
                        .expect("attach");
                    let mem = ServiceMem::new(&svc, t as usize);
                    while Instant::now() < deadline {
                        for _ in 0..32 {
                            ops += one_op(handle, &mem, t, &mut rng);
                        }
                    }
                    svc.detach(t as usize, pmo).expect("detach");
                    ops
                })
            })
            .collect();
        for h in handles {
            total += h.join().expect("worker panicked");
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    server.shutdown();
    if let Some(d) = &durable {
        let _ = std::fs::remove_dir_all(d);
    }
    (total, elapsed)
}

fn cell_json(ds: Ds, mode: &str, threads: u32, ops: u64, secs: f64) -> Json {
    Json::obj([
        ("structure", Json::Str(ds.key().to_string())),
        ("mode", Json::Str(mode.to_string())),
        ("threads", Json::Num(f64::from(threads))),
        ("ops", Json::Num(ops as f64)),
        ("elapsed_s", Json::Num(secs)),
        (
            "throughput_ops_per_s",
            Json::Num(ops as f64 / secs.max(f64::MIN_POSITIVE)),
        ),
    ])
}

/// Builds a seeded single-threaded workload on the crash-harness memory
/// and times full recovery: WAL replay, root-directory attach, and the
/// structure's descriptor-deciding pass.
fn recovery_json(ds: Ds, ops: u64, seed: u64) -> Json {
    let mem = LocalMem::new();
    let pmo = mem.create_pool("recovery", 1 << 24).expect("pool");
    let handle = create_handle(ds, &mem, pmo, 2);
    let mut rng = seed;
    for i in 0..ops {
        one_op(handle, &mem, (i % 2) as u32, &mut rng);
    }
    let wal = mem.durable_bytes();

    let started = Instant::now();
    let (state, report) = terp_persist::recover(&wal).expect("recovery");
    let post = LocalMem::from_recovered(state);
    match ds {
        Ds::Stack => {
            let s = Stack::attach(&post, pmo, ROOT_KEY).expect("attach");
            s.recover(&post).expect("recover");
        }
        Ds::Queue => {
            let q = Queue::attach(&post, pmo, ROOT_KEY).expect("attach");
            q.recover(&post).expect("recover");
        }
        Ds::Map => {
            let m = HashMap::attach(&post, pmo, ROOT_KEY).expect("attach");
            m.recover(&post).expect("recover");
        }
    }
    let ms = started.elapsed().as_secs_f64() * 1e3;
    println!(
        "  recovery  {:<5} {:>7} ops  {:>9} B wal  {:>8.3} ms",
        ds.key(),
        ops,
        wal.len(),
        ms
    );
    Json::obj([
        ("structure", Json::Str(ds.key().to_string())),
        ("workload_ops", Json::Num(ops as f64)),
        ("wal_bytes", Json::Num(wal.len() as f64)),
        (
            "records_replayed",
            Json::Num(report.records_replayed as f64),
        ),
        ("recovery_ms", Json::Num(ms)),
    ])
}

fn main() {
    let cli = Cli::new(
        "terp-structures-bench",
        "persistent data structures: in-memory vs durable throughput, contention sweep, recovery latency",
    )
    .opt_uint("--duration-ms", "MS", "run length per cell (default: 150)")
    .opt_uint("--seed", "SEED", "workload RNG seed (default: 0x0d5)")
    .opt_uint(
        "--recovery-scale",
        "K",
        "multiplier on the recovery workload sizes (default: 1)",
    )
    .opt_str(
        "--out",
        "PATH",
        "output path (default: results/BENCH_structures.json)",
    )
    .parse_env();

    let duration = Duration::from_millis(cli.uint("--duration-ms").unwrap_or(150));
    let seed = cli.uint("--seed").unwrap_or(0x0d5);
    let scale = cli.uint("--recovery-scale").unwrap_or(1).max(1);
    let out_path = cli.choice("--out", "results/BENCH_structures.json");
    let scratch: PathBuf =
        std::env::temp_dir().join(format!("terp-structures-bench-{}", std::process::id()));

    println!(
        "terp-structures-bench: {} ms per cell, seed {seed:#x}",
        duration.as_millis()
    );

    // Experiment 1: in-memory vs durable, fixed 4 workers.
    let mut modes = Vec::new();
    for ds in Ds::ALL {
        let (ops, secs) = run_service_mode(ds, 4, duration, seed, None);
        let mem_tput = ops as f64 / secs.max(f64::MIN_POSITIVE);
        println!("  {:<5} memory   {:>12.0} ops/s", ds.key(), mem_tput);
        modes.push(cell_json(ds, "memory", 4, ops, secs));

        let durable = scratch.join(format!("durable-{}", ds.key()));
        let (ops, secs) = run_service_mode(ds, 4, duration, seed, Some(durable));
        let tput = ops as f64 / secs.max(f64::MIN_POSITIVE);
        println!(
            "  {:<5} durable  {:>12.0} ops/s   ({:.1}% of memory)",
            ds.key(),
            tput,
            100.0 * tput / mem_tput.max(f64::MIN_POSITIVE)
        );
        modes.push(cell_json(ds, "durable", 4, ops, secs));
    }

    // Experiment 2: contention sweep, in-memory service.
    let mut sweep = Vec::new();
    for ds in Ds::ALL {
        for threads in [1u32, 2, 4, 8] {
            let (ops, secs) = run_service_mode(ds, threads, duration, seed, None);
            let tput = ops as f64 / secs.max(f64::MIN_POSITIVE);
            println!(
                "  {:<5} {:>2} thread(s)  {:>12.0} ops/s",
                ds.key(),
                threads,
                tput
            );
            sweep.push(cell_json(ds, "contention", threads, ops, secs));
        }
    }

    // Experiment 3: recovery latency vs workload size.
    let mut recovery = Vec::new();
    for ds in Ds::ALL {
        for ops in [1_000u64, 4_000, 16_000] {
            recovery.push(recovery_json(ds, ops * scale, seed));
        }
    }

    let doc = Json::obj([
        // Matches terp-analyze's JSON schema version (the result documents
        // evolve together; see that binary's docs).
        ("schema_version", Json::Num(2.0)),
        ("benchmark", Json::Str("terp-structures".to_string())),
        ("duration_ms", Json::Num(duration.as_millis() as f64)),
        ("seed", Json::Num(seed as f64)),
        ("modes", Json::Arr(modes)),
        ("contention", Json::Arr(sweep)),
        ("recovery", Json::Arr(recovery)),
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
