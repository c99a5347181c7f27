//! `terp-net-bench` — **open-loop** load generator for the terp-net TCP
//! front-end (DESIGN.md §13).
//!
//! Closed-loop generators (terp-serve) only issue the next request after the
//! previous one completes, so a server stall silently *suppresses* load and
//! the recorded latencies omit exactly the requests that would have hurt —
//! coordinated omission. This driver instead fixes an arrival timeline up
//! front (`op i` is due at `start + i/rate`), pipelines submissions so a
//! slow response never delays a later arrival, and measures every latency
//! from the op's **intended** send time. A rate sweep yields the
//! throughput-vs-p50/p95/p99 curves; an in-process cell runs the same
//! timeline directly against the service to isolate wire cost from service
//! cost. Results land in `results/BENCH_net.json`.
//!
//! ```text
//! terp-net-bench --rates 5000,10000,20000,40000 --duration-ms 1000
//! ```

use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use terp_analysis::Json;
use terp_bench::cli::Cli;
use terp_core::config::Scheme;
use terp_net::{Client, NetServer};
use terp_pmo::{ObjectId, OpenMode, Permission};
use terp_service::{LatencyHistogram, PmoServer, PmoService, ServiceConfig};

/// Objects preallocated per connection's private pool.
const OBJECTS_PER_CONN: usize = 16;

#[derive(Debug, Default)]
struct PointStats {
    hist: LatencyHistogram,
    completed: u64,
    errors: u64,
}

impl PointStats {
    fn merge(&mut self, other: &PointStats) {
        self.hist.merge(&other.hist);
        self.completed += other.completed;
        self.errors += other.errors;
    }
}

/// Sleeps until `deadline`, coarsely first and spinning the last stretch so
/// intended send times hold to microseconds without burning a core all run.
fn wait_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > Duration::from_micros(200) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::hint::spin_loop();
        }
    }
}

struct Timeline {
    rate: u64,
    total_ops: u64,
    conns: usize,
    payload: usize,
}

impl Timeline {
    /// The intended send instant of global op `i`.
    fn due(&self, start: Instant, i: u64) -> Instant {
        start + Duration::from_nanos(i.saturating_mul(1_000_000_000) / self.rate)
    }
}

/// One open-loop point over the wire: `conns` submitter threads share one
/// global arrival timeline (thread `j` owns ops `j, j+conns, …`); a
/// collector thread per connection redeems pipelined tickets and records
/// latency from the intended send time.
fn run_wire_point(addr: std::net::SocketAddr, tl: &Timeline) -> PointStats {
    std::thread::scope(|scope| {
        let start = Instant::now() + Duration::from_millis(10);
        let mut handles = Vec::new();
        for j in 0..tl.conns {
            handles.push(scope.spawn(move || {
                let client = Client::connect(addr, j as u64 + 1).expect("connect");
                let pmo = client
                    .create_pool(&format!("net-bench-{j}"), 1 << 20, OpenMode::ReadWrite)
                    .expect("create pool");
                client.attach(pmo, Permission::ReadWrite).expect("attach");
                let objects: Vec<ObjectId> = (0..OBJECTS_PER_CONN)
                    .map(|_| client.alloc(pmo, tl.payload as u64).expect("alloc"))
                    .collect();
                let data = vec![0x5Au8; tl.payload];

                // Collector: redeems tickets as they land; the submitter
                // never waits on a response, so a stall cannot suppress
                // later arrivals.
                let (tx, rx) = channel::<(Instant, terp_net::Pending)>();
                let collector = std::thread::spawn(move || {
                    let mut stats = PointStats::default();
                    while let Ok((intended, pending)) = rx.recv() {
                        match pending.wait() {
                            Ok(_) => {
                                stats.completed += 1;
                                stats.hist.record(intended.elapsed().as_nanos() as u64);
                            }
                            Err(_) => stats.errors += 1,
                        }
                    }
                    stats
                });

                let mut errors = 0u64;
                let mut i = j as u64;
                while i < tl.total_ops {
                    wait_until(tl.due(start, i));
                    let intended = tl.due(start, i);
                    let oid = objects[(i as usize / tl.conns) % OBJECTS_PER_CONN];
                    let submitted = if i.is_multiple_of(2) {
                        client.write_pipelined(oid, &data)
                    } else {
                        client.read_pipelined(oid, tl.payload as u32)
                    };
                    match submitted {
                        Ok(p) => drop(tx.send((intended, p))),
                        Err(_) => errors += 1,
                    }
                    i += tl.conns as u64;
                }
                drop(tx);
                let mut stats = collector.join().expect("collector");
                stats.errors += errors;
                let _ = client.detach(pmo);
                stats
            }));
        }
        let mut total = PointStats::default();
        for h in handles {
            total.merge(&h.join().expect("submitter"));
        }
        total
    })
}

/// The same timeline executed directly against the in-process service: no
/// sockets, no frames, no thread handoffs. The latency delta against the
/// loopback cell at the same rate is the wire cost.
fn run_inprocess_point(service: &Arc<PmoService>, tl: &Timeline) -> PointStats {
    std::thread::scope(|scope| {
        let start = Instant::now() + Duration::from_millis(10);
        let mut handles = Vec::new();
        for j in 0..tl.conns {
            let service = Arc::clone(service);
            handles.push(scope.spawn(move || {
                let client = 1000 + j;
                let pmo = service
                    .create_pool(&format!("inproc-bench-{j}"), 1 << 20, OpenMode::ReadWrite)
                    .expect("create pool");
                service
                    .attach(client, pmo, Permission::ReadWrite)
                    .expect("attach");
                let objects: Vec<ObjectId> = (0..OBJECTS_PER_CONN)
                    .map(|_| {
                        service
                            .alloc(client, pmo, tl.payload as u64)
                            .expect("alloc")
                    })
                    .collect();
                let data = vec![0x5Au8; tl.payload];
                let mut buf = vec![0u8; tl.payload];

                let mut stats = PointStats::default();
                let mut i = j as u64;
                while i < tl.total_ops {
                    wait_until(tl.due(start, i));
                    let intended = tl.due(start, i);
                    let oid = objects[(i as usize / tl.conns) % OBJECTS_PER_CONN];
                    let r = if i.is_multiple_of(2) {
                        service.write(client, oid, &data)
                    } else {
                        service.read_into(client, oid, &mut buf).map(|_| ())
                    };
                    match r {
                        Ok(()) => {
                            stats.completed += 1;
                            stats.hist.record(intended.elapsed().as_nanos() as u64);
                        }
                        Err(_) => stats.errors += 1,
                    }
                    i += tl.conns as u64;
                }
                let _ = service.detach(client, pmo);
                stats
            }));
        }
        let mut total = PointStats::default();
        for h in handles {
            total.merge(&h.join().expect("worker"));
        }
        total
    })
}

fn cell_json(offered_rate: u64, secs: f64, stats: &PointStats) -> Json {
    Json::obj([
        ("offered_rate", Json::Num(offered_rate as f64)),
        ("completed", Json::Num(stats.completed as f64)),
        ("errors", Json::Num(stats.errors as f64)),
        (
            "achieved_rate",
            Json::Num(stats.completed as f64 / secs.max(f64::MIN_POSITIVE)),
        ),
        ("p50_ns", Json::Num(stats.hist.quantile(0.50) as f64)),
        ("p95_ns", Json::Num(stats.hist.quantile(0.95) as f64)),
        ("p99_ns", Json::Num(stats.hist.quantile(0.99) as f64)),
        ("mean_ns", Json::Num(stats.hist.mean())),
        ("max_ns", Json::Num(stats.hist.max() as f64)),
    ])
}

fn parse_scheme(key: &str) -> Scheme {
    match key {
        "unprotected" => Scheme::Unprotected,
        "mm" => Scheme::Merr,
        "tm" => Scheme::TerpSoftware,
        "basic" => Scheme::BasicSemantics,
        _ => Scheme::terp_full(),
    }
}

fn main() {
    let cli = Cli::new(
        "terp-net-bench",
        "open-loop (coordinated-omission-safe) load generator for the TCP front-end",
    )
    .opt_str(
        "--rates",
        "R1,R2,..",
        "offered request rates per second to sweep (default: 5000,10000,20000,40000)",
    )
    .opt_uint(
        "--duration-ms",
        "MS",
        "run length per rate point (default: 1000)",
    )
    .opt_uint("--conns", "N", "client connections (default: 4)")
    .opt_uint(
        "--payload",
        "BYTES",
        "read/write payload size (default: 64)",
    )
    .opt_choice(
        "--scheme",
        &["unprotected", "mm", "tm", "tt", "basic"],
        "protection scheme the server runs (default: tt)",
    )
    .opt_uint(
        "--baseline-rate",
        "R",
        "rate for the loopback-vs-in-process cell (default: first sweep rate)",
    )
    .opt_str(
        "--out",
        "PATH",
        "output path (default: results/BENCH_net.json)",
    )
    .parse_env();

    let rates: Vec<u64> = cli
        .choice("--rates", "5000,10000,20000,40000")
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&r| r > 0)
        .collect();
    assert!(
        rates.len() >= 4,
        "the sweep needs at least 4 rate points (got {rates:?})"
    );
    let duration = Duration::from_millis(cli.uint("--duration-ms").unwrap_or(1000));
    let conns = cli.uint("--conns").unwrap_or(4).max(1) as usize;
    let payload = cli.uint("--payload").unwrap_or(64).max(1) as usize;
    let scheme_key = cli.choice("--scheme", "tt").to_string();
    let scheme = parse_scheme(&scheme_key);
    let baseline_rate = cli.uint("--baseline-rate").unwrap_or(rates[0]);
    let out_path = cli.choice("--out", "results/BENCH_net.json");
    let secs = duration.as_secs_f64();

    println!(
        "terp-net-bench: scheme {scheme_key}, {conns} conn(s), {payload}-byte ops, \
         {} ms per point, rates {rates:?}",
        duration.as_millis()
    );

    // One server instance per point keeps points independent (no carryover
    // of queues or pools between rates).
    let mut sweep = Vec::new();
    for &rate in &rates {
        let tl = Timeline {
            rate,
            total_ops: rate.saturating_mul(duration.as_millis() as u64) / 1000,
            conns,
            payload,
        };
        let net = NetServer::start(
            PmoServer::start(ServiceConfig::for_tests(scheme)),
            "127.0.0.1:0",
        )
        .expect("bind loopback");
        let stats = run_wire_point(net.local_addr(), &tl);
        net.shutdown();
        println!(
            "  open-loop {:>8} req/s offered: {:>8.0} achieved, p50 {:>9} ns, p95 {:>9} ns, p99 {:>9} ns, {} errors",
            rate,
            stats.completed as f64 / secs,
            stats.hist.quantile(0.50),
            stats.hist.quantile(0.95),
            stats.hist.quantile(0.99),
            stats.errors,
        );
        sweep.push(cell_json(rate, secs, &stats));
    }

    // Baseline cell: identical timeline at one rate, loopback TCP vs a
    // direct in-process call into the same service build.
    let tl = Timeline {
        rate: baseline_rate,
        total_ops: baseline_rate.saturating_mul(duration.as_millis() as u64) / 1000,
        conns,
        payload,
    };
    let net = NetServer::start(
        PmoServer::start(ServiceConfig::for_tests(scheme)),
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let loopback = run_wire_point(net.local_addr(), &tl);
    net.shutdown();

    let server = PmoServer::start(ServiceConfig::for_tests(scheme));
    let service = server.service();
    let inproc = run_inprocess_point(&service, &tl);
    server.shutdown();

    let wire_overhead_p50 = loopback.hist.quantile(0.50) as i64 - inproc.hist.quantile(0.50) as i64;
    println!(
        "  baseline @ {baseline_rate} req/s: loopback p50 {} ns vs in-process p50 {} ns (wire cost {} ns)",
        loopback.hist.quantile(0.50),
        inproc.hist.quantile(0.50),
        wire_overhead_p50,
    );

    let doc = Json::obj([
        // Matches terp-analyze's JSON schema version (the result documents
        // evolve together; see that binary's docs).
        ("schema_version", Json::Num(2.0)),
        ("benchmark", Json::Str("terp-net-bench".to_string())),
        // Open loop: latencies are measured from *intended* send times on a
        // fixed arrival timeline — safe against coordinated omission.
        ("loop_mode", Json::Str("open".to_string())),
        ("scheme", Json::Str(scheme_key)),
        ("conns", Json::Num(conns as f64)),
        ("payload_bytes", Json::Num(payload as f64)),
        ("duration_ms", Json::Num(duration.as_millis() as f64)),
        ("sweep", Json::Arr(sweep)),
        (
            "baseline",
            Json::obj([
                ("offered_rate", Json::Num(baseline_rate as f64)),
                ("loopback", cell_json(baseline_rate, secs, &loopback)),
                ("in_process", cell_json(baseline_rate, secs, &inproc)),
                ("wire_overhead_p50_ns", Json::Num(wire_overhead_p50 as f64)),
            ]),
        ),
    ]);
    if let Some(dir) = std::path::Path::new(out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create results dir");
        }
    }
    std::fs::write(out_path, format!("{}\n", doc.render())).expect("write results");
    println!("wrote {out_path}");
}
