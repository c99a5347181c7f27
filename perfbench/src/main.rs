//! `terp-perfbench` — the serving stack's benchmark: end-to-end metrics of
//! two workloads (`wire-kv`, `inproc-sessions`) and, in a separate traced
//! run, the per-layer metrics that explain them.
//!
//! ```text
//! terp-perfbench --workload wire-kv --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every layer is timed from outside, through calls into its crate's public
//! API. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A failed output check
//! prints `"correct": false` and exits with 1; bad usage exits with 2.
//! See `perfbench/README.md` for the workloads and the metric map.

mod gen;
mod inproc;
mod measure;
mod payload;
mod probe;
mod procstat;
mod wire;

use std::path::{Path, PathBuf};

use terp_service::ServiceReport;

use measure::{median, num, Metrics, Samples, SpanLog};
use payload::Fault;
use probe::{Journal, Layout};
use wire::WireRun;

/// Rounds of an untraced run, each on a freshly set-up stack. The traced
/// run uses `TRACED_ROUNDS`.
const ROUNDS: usize = 32;
/// The traced run makes an untraced and a traced pass plus replays; each
/// pass gets half the run length so the whole stays near 1.5× an untraced
/// run.
fn pass_seconds(args: &Args) -> f64 {
    if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    }
}
const TRACED_ROUNDS: usize = 2;
const WORKLOADS: [&str; 2] = ["wire-kv", "inproc-sessions"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// A fault to inject into the n-th read, to prove the checks fail.
    fault: Option<(Fault, u64)>,
}

fn usage(msg: &str) -> ! {
    eprintln!("terp-perfbench: {msg}");
    eprintln!(
        "usage: terp-perfbench --workload {{{}}} --seed N --seconds S --trace 0|1 \
         [--corrupt-read N | --fail-read N]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn bad<T>(flag: &str, value: &str) -> T {
    usage(&format!("bad value for {flag}: {value}"))
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        fault: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| bad(&flag, &value)),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| bad(&flag, &value)),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(&flag, &value),
                }
            }
            "--corrupt-read" | "--fail-read" => {
                let n = value.parse().unwrap_or_else(|_| bad(&flag, &value));
                let fault = if flag == "--fail-read" {
                    Fault::Fail
                } else {
                    Fault::Corrupt
                };
                args.fault = Some((fault, n));
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload '{}'", args.workload));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        usage("--seconds must be in (0, 600]");
    }
    args
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The stamp printed ahead of every result.
fn stamp(args: &Args) -> String {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"commit\": \"{}\", \"nproc\": {}, \"kernel\": \"{}\"}}",
        args.workload,
        args.seed,
        num(args.seconds),
        u8::from(args.trace),
        commit(),
        nproc(),
        kernel.trim()
    )
}

/// The outcome of one invocation.
#[derive(Default)]
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Metrics,
    /// Metrics printed in the human table only: those that exist on some
    /// workloads but not all.
    extra: Metrics,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.problems.push(what());
        }
    }
}

const MB: f64 = (1u64 << 20) as f64;

/// The end-to-end figures that are medians over the quiet rounds (see
/// [`measure::quiet`]), with each round's value printed. `ew_avg_us` and
/// `rss_mb` go to the table only: they follow the hypervisor's steal in
/// whole runs too closely to gate (see `layer_round_metrics`).
fn round_metrics(o: &mut Outcome, r: &measure::Rounds) {
    let all = r.all_setups_wall();
    let at = |q: f64| all.get((q * all.len() as f64) as usize).copied();
    println!(
        "# set-up: {} set-ups, wall time quartiles {:.5?} {:.5?} {:.5?} s",
        all.len(),
        at(0.25).unwrap_or(0.0),
        at(0.5).unwrap_or(0.0),
        at(0.75).unwrap_or(0.0),
    );
    o.metrics.put("setup_s", r.quiet_setup_cpu_s(), "s");
    o.extra.put("setup_s.wall", median(all), "s");
    for (name, values, unit) in [
        ("read_p50_us", &r.read_p50_us, "us"),
        ("write_p50_us", &r.write_p50_us, "us"),
    ] {
        println!("# {name} per round: {values:.3?}");
        o.metrics.put(name, r.quiet_median(values), unit);
    }
    layer_round_metrics(&mut o.extra, r);
    println!("# steal share per round: {:.3?}", r.steal);
}

/// `ew_avg_us` and `rss_mb`, medians over the quiet rounds. In runs that
/// the hypervisor disturbed throughout, `inproc-sessions`' mean exposure
/// window rose from 56 to 87 µs and its resident set fell from 15 to
/// 10 MB (fewer sessions, fewer closed windows kept), spreading both
/// about 0.3 over 10 seeds.
fn layer_round_metrics(m: &mut Metrics, r: &measure::Rounds) {
    for (name, values, unit) in [
        ("ew_avg_us", &r.ew_avg_us, "us"),
        ("rss_mb", &r.rss_mb, "MB"),
    ] {
        println!("# {name} per round: {values:.3?}");
        m.put(name, r.quiet_median(values), unit);
    }
}

fn rss_peak_mb() -> f64 {
    procstat::sample().hwm_bytes as f64 / MB
}

/// The `service.*` figures the service's own reports carry.
fn report_metrics(m: &mut Metrics, reports: &[ServiceReport], wall_s: f64) {
    let mut silent = 0u64;
    let mut cond = 0u64;
    let (mut syscalls, mut attaches, mut rands) = (0u64, 0u64, 0u64);
    let mut ew_max = 0u64;
    let (mut tew_n, mut tew_sum) = (0u64, 0.0);
    for r in reports {
        silent += r.cond.silent();
        cond += r.cond.total_cond();
        syscalls += r.attach_syscalls;
        attaches += r.ops.attaches;
        rands += r.randomizations;
        ew_max = ew_max.max(r.ew.max_cycles);
        tew_n += r.tew.count;
        tew_sum += r.tew.avg_cycles * r.tew.count as f64;
    }
    m.put(
        "service.silent_frac",
        silent as f64 / cond.max(1) as f64,
        "frac",
    );
    m.put(
        "service.attach_syscalls_per_attach",
        syscalls as f64 / attaches.max(1) as f64,
        "count",
    );
    m.put(
        "service.randomizations_per_s",
        rands as f64 / wall_s.max(1e-9),
        "1/s",
    );
    m.put("service.ew_max_us", ew_max as f64 / 1e3, "us");
    m.put(
        "service.tew_avg_us",
        tew_sum / tew_n.max(1) as f64 / 1e3,
        "us",
    );
}

/// `<name>.p50` and `<name>.p99` in microseconds.
fn percentiles(m: &mut Metrics, name: &str, s: &Samples) {
    m.put(&format!("{name}.p50"), s.us(0.50), "us");
    m.put(&format!("{name}.p99"), s.us(0.99), "us");
}

fn probe_metrics(o: &mut Outcome, p: &probe::Probe, journal: &Journal) {
    for problem in &p.problems {
        o.require(false, || problem.clone());
    }
    let m = &mut o.metrics;
    percentiles(m, "persist.log_us", &p.log_ns);
    percentiles(m, "persist.durable_wait_us", &p.durable_wait);
    m.put(
        "persist.records_per_fsync",
        p.records as f64 / p.syncs.max(1) as f64,
        "count",
    );
    m.put(
        "persist.disk_bytes_per_user_byte",
        p.disk_bytes as f64 / p.user_bytes.max(1) as f64,
        "ratio",
    );
    m.put("persist.dir_bytes", p.dir_bytes as f64, "bytes");
    m.put(
        "persist.records_replayed",
        p.records_replayed as f64,
        "count",
    );
    m.put("recovery_ms", p.recovery_ms, "ms");
    m.put(
        "repl.ship_gap_records.p50",
        p.ship_gap.quantile_ns(0.5),
        "count",
    );
    m.put(
        "repl.ship_gap_records.p99",
        p.ship_gap.quantile_ns(0.99),
        "count",
    );
    m.put(
        "repl.apply_gap_records.p99",
        p.apply_gap.quantile_ns(0.99),
        "count",
    );
    m.put("repl_lag_p50_us", p.repl_lag.us(0.5), "us");
    m.put("repl_lag_p99_us", p.repl_lag.us(0.99), "us");
    let x = &mut o.extra;
    x.put("probe.journal_records_per_s", journal.rate(), "1/s");
    x.put("probe.records_per_s", p.rate, "1/s");
}

/// The output checks every pass shares: no op may fail, whether the stack
/// refused it or its read failed the payload check.
fn require_no_failures(o: &mut Outcome, pass: &str, failed: u64, errors: &[String]) {
    o.require(failed == 0, || {
        format!("{pass}: {failed} ops failed: {errors:?}")
    });
}

/// End-to-end metrics of an untraced wire run.
fn wire_e2e(o: &mut Outcome, r: &WireRun) {
    o.metrics
        .put("capacity_ops_s", r.phase_b.capacity(), "ops/s");
    round_metrics(o, &r.rounds);
}

fn wire_extra(x: &mut Metrics, r: &WireRun) {
    x.put("rss_peak_mb", rss_peak_mb(), "MB");
    x.put("bench.gen_late_us.p50", r.phase_a.gen_late.us(0.50), "us");
    x.put("bench.gen_late_us.p99", r.phase_a.gen_late.us(0.99), "us");
    x.put("phase_a.achieved_ops_s", r.phase_a.rate(), "ops/s");
    x.put(
        "capacity_ops_s.wall",
        measure::capacity(&r.phase_b.windows).1,
        "ops/s",
    );
    x.put(
        "net.ctx_switches_per_op.open",
        r.proc_a.ctx_switches as f64 / r.phase_a.completed.max(1) as f64,
        "count",
    );
}

fn run_wire(args: &Args, work: &Path) -> Result<Outcome, String> {
    let mut o = Outcome::new();
    let secs = pass_seconds(args);
    let off = SpanLog::new(false);
    let rounds = if args.trace { TRACED_ROUNDS } else { ROUNDS };
    let plain = wire::run(args.seed, secs, rounds, false, &off)?;
    o.attempted += plain.attempted();
    o.failed += plain.failed();
    require_no_failures(&mut o, "untraced", plain.failed(), &plain.errors());
    wire_extra(&mut o.extra, &plain);
    if !args.trace {
        wire_e2e(&mut o, &plain);
        println!(
            "# phase A: read p50 {:.1} us p99 {:.1} us, write p50 {:.1} us p99 {:.1} us, \
             sender late p50 {:.1} us p99 {:.1} us, {} reads {} writes",
            plain.phase_a.read.us(0.5),
            plain.phase_a.read.us(0.99),
            plain.phase_a.write.us(0.5),
            plain.phase_a.write.us(0.99),
            plain.phase_a.gen_late.us(0.5),
            plain.phase_a.gen_late.us(0.99),
            plain.phase_a.read.len(),
            plain.phase_a.write.len(),
        );
        return Ok(o);
    }

    let spans = SpanLog::new(true);
    let traced = wire::run(args.seed, secs, TRACED_ROUNDS, true, &spans)?;
    o.attempted += traced.attempted();
    o.failed += traced.failed();
    require_no_failures(&mut o, "traced", traced.failed(), &traced.errors());
    let pass = wire::inproc_pass(args.seed, secs * 0.6, &spans)?;
    o.attempted += pass.all.len() as u64;
    o.failed += pass.failed;
    require_no_failures(&mut o, "in-process pass", pass.failed, &[]);
    let wall = plain.proc_a.wall_s + plain.proc_b.wall_s;
    let journal = Journal::measured(&plain.reports, wall);
    let layout = Layout {
        pools: wire::CONNS,
        objects: wire::SLOTS,
        pool_bytes: wire::POOL_BYTES,
    };
    let storage = probe::run(&journal, layout, args.seed, secs * 0.3, work)?;
    probe_metrics(&mut o, &storage, &journal);

    let m = &mut o.metrics;
    layer_round_metrics(m, &plain.rounds);
    m.put("read_p99_us", plain.phase_a.read.us(0.99), "us");
    m.put("write_p99_us", plain.phase_a.write.us(0.99), "us");
    percentiles(m, "net.submit_us", &traced.phase_a.submit);
    percentiles(m, "net.rtt_us", &traced.phase_a.rtt);
    percentiles(m, "net.server_queue_us", &traced.server.queue);
    m.put(
        "net.self_us.p50",
        traced.phase_a.all.us(0.5) - pass.all.us(0.5),
        "us",
    );
    m.put(
        "net.ctx_switches_per_op",
        plain.proc_b.ctx_switches as f64 / plain.phase_b.completed.max(1) as f64,
        "count",
    );
    m.put("net.threads", plain.threads as f64, "count");
    percentiles(m, "service.attach_us", &pass.attach_ns);
    percentiles(m, "service.detach_us", &pass.detach_ns);
    m.put("service.read_ns.p50", pass.read_ns.quantile_ns(0.5), "ns");
    m.put("service.write_ns.p50", pass.write_ns.quantile_ns(0.5), "ns");
    m.put("service.alloc_us.p50", pass.alloc_ns.us(0.5), "us");
    report_metrics(m, &plain.reports, wall);
    let cap = plain.phase_b.capacity();
    m.put(
        "trace.overhead_pct",
        (cap - traced.phase_b.capacity()) / cap.max(1e-9) * 100.0,
        "%",
    );
    m.put(
        "trace.dropped_events",
        traced.server.dropped as f64,
        "count",
    );
    m.put(
        "bench.steal_frac",
        measure::steal_frac(&plain.phase_b.windows),
        "frac",
    );
    let cpu = plain.proc_a.cpu_s + plain.proc_b.cpu_s;
    m.put(
        "bench.cpu_util",
        cpu / (wall * nproc() as f64).max(1e-9),
        "frac",
    );
    m.put(
        "error_frac",
        o.failed as f64 / o.attempted.max(1) as f64,
        "frac",
    );
    let x = &mut o.extra;
    x.put("traced.capacity_ops_s", traced.phase_b.capacity(), "ops/s");
    x.put("inproc_pass.p50_us", pass.all.us(0.5), "us");
    x.put("traced.phase_a.p50_us", traced.phase_a.all.us(0.5), "us");
    write_spans(args, &spans);
    Ok(o)
}

fn run_sessions(args: &Args, work: &Path) -> Result<Outcome, String> {
    let mut o = Outcome::new();
    let secs = pass_seconds(args);
    let off = SpanLog::new(false);
    let rounds = if args.trace { TRACED_ROUNDS } else { ROUNDS };
    let plain = inproc::run(args.seed, secs, rounds, false, &off)?;
    let checks = |o: &mut Outcome, r: &inproc::InprocRun, pass: &str| {
        o.attempted += r.stats.attempted;
        o.failed += r.stats.failed;
        require_no_failures(o, pass, r.stats.failed, &r.stats.errors);
        let denials: u64 = r.reports.iter().map(|rep| rep.ops.denials).sum();
        o.require(denials == 0, || format!("{pass}: {denials} denials"));
    };
    checks(&mut o, &plain, "untraced");
    let reports = &plain.reports;
    o.extra
        .put("session_p50_us", plain.stats.session.us(0.5), "us");
    o.extra
        .put("session_p99_us", plain.stats.session.us(0.99), "us");
    o.extra
        .put("sessions", plain.stats.session.len() as f64, "count");
    o.extra.put("rss_peak_mb", rss_peak_mb(), "MB");
    if !args.trace {
        o.metrics
            .put("capacity_ops_s", plain.stats.capacity(), "ops/s");
        round_metrics(&mut o, &plain.rounds);
        println!(
            "# sessions: p50 {:.2} us p99 {:.2} us over {} sessions (closed loop, {} threads)",
            plain.stats.session.us(0.5),
            plain.stats.session.us(0.99),
            plain.stats.session.len(),
            inproc::THREADS,
        );
        return Ok(o);
    }

    let spans = SpanLog::new(true);
    let traced = inproc::run(args.seed, secs, TRACED_ROUNDS, true, &spans)?;
    checks(&mut o, &traced, "traced");
    let (wire, server) = inproc::wire_pass(args.seed, secs * 0.6, &spans)?;
    o.attempted += wire.attempted;
    o.failed += wire.failed;
    require_no_failures(&mut o, "wire pass", wire.failed, &wire.errors);
    let journal = Journal::measured(reports, plain.proc.wall_s);
    let layout = Layout {
        pools: inproc::POOLS,
        objects: inproc::OBJECTS,
        pool_bytes: inproc::POOL_BYTES,
    };
    let storage = probe::run(&journal, layout, args.seed, secs * 0.3, work)?;
    probe_metrics(&mut o, &storage, &journal);

    let m = &mut o.metrics;
    layer_round_metrics(m, &plain.rounds);
    m.put("read_p99_us", plain.stats.read.us(0.99), "us");
    m.put("write_p99_us", plain.stats.write.us(0.99), "us");
    percentiles(m, "net.submit_us", &wire.submit);
    percentiles(m, "net.rtt_us", &wire.rtt);
    percentiles(m, "net.server_queue_us", &server.queue);
    m.put(
        "net.self_us.p50",
        wire.session.us(0.5) - traced.stats.session.us(0.5),
        "us",
    );
    m.put(
        "net.ctx_switches_per_op",
        plain.proc.ctx_switches as f64 / plain.stats.completed.max(1) as f64,
        "count",
    );
    m.put("net.threads", plain.threads as f64, "count");
    percentiles(m, "service.attach_us", &traced.stats.attach);
    percentiles(m, "service.detach_us", &traced.stats.detach);
    m.put(
        "service.read_ns.p50",
        traced.stats.read.quantile_ns(0.5),
        "ns",
    );
    m.put(
        "service.write_ns.p50",
        traced.stats.write.quantile_ns(0.5),
        "ns",
    );
    m.put("service.alloc_us.p50", traced.alloc_ns.us(0.5), "us");
    report_metrics(m, reports, plain.proc.wall_s);
    let cap = plain.stats.capacity();
    m.put(
        "trace.overhead_pct",
        (cap - traced.stats.capacity()) / cap.max(1e-9) * 100.0,
        "%",
    );
    m.put(
        "trace.dropped_events",
        traced.server.dropped as f64,
        "count",
    );
    m.put(
        "bench.steal_frac",
        measure::steal_frac(&plain.stats.windows),
        "frac",
    );
    m.put("bench.cpu_util", plain.proc.cpu_util(nproc()), "frac");
    m.put(
        "error_frac",
        o.failed as f64 / o.attempted.max(1) as f64,
        "frac",
    );
    let x = &mut o.extra;
    x.put("traced.capacity_ops_s", traced.stats.capacity(), "ops/s");
    x.put("wire_pass.session_p50_us", wire.session.us(0.5), "us");
    write_spans(args, &spans);
    Ok(o)
}

/// Writes the traced run's spans next to the other run outputs.
fn write_spans(args: &Args, spans: &SpanLog) {
    let path =
        PathBuf::from(".bench_out").join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
    match spans.write_tsv(&path) {
        Ok(()) => println!("# {} spans written to {}", spans.count(), path.display()),
        Err(e) => println!("# spans not written: {e}"),
    }
}

/// Scratch stores of running benchmarks, one directory per process.
const WORK_DIR: &str = ".bench_work";

/// Removes the scratch directories of benchmark processes that died
/// without cleaning up.
fn clear_stale_work() {
    let Ok(entries) = std::fs::read_dir(WORK_DIR) else {
        return;
    };
    for e in entries.flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        let pid = name.rsplit('-').next().unwrap_or_default();
        if !Path::new("/proc").join(pid).exists() {
            let _ = std::fs::remove_dir_all(e.path());
        }
    }
}

fn main() {
    let args = parse_args();
    if let Some((fault, n)) = args.fault {
        payload::arm(fault, n);
    }
    println!("# stamp {}", stamp(&args));
    clear_stale_work();
    let work = PathBuf::from(WORK_DIR).join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("terp-perfbench: cannot create {}: {e}", work.display());
        std::process::exit(2);
    }
    let result = match args.workload.as_str() {
        "wire-kv" => run_wire(&args, &work),
        _ => run_sessions(&args, &work),
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_DIR);
    let o = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("terp-perfbench: run failed: {e}");
            std::process::exit(1);
        }
    };
    for (name, value, unit) in o.metrics.0.iter().chain(o.extra.0.iter()) {
        println!("# {name:<36} {value:>14.3} {unit}");
    }
    for p in &o.problems {
        println!("# problem: {p}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.correct,
        o.attempted.max(1),
        o.failed,
        o.metrics.json()
    );
    if !o.correct {
        std::process::exit(1);
    }
}
