//! The `wire-kv` workload: two loopback connections, each with a private
//! pool of 256 × 64-byte objects, driven first open loop at a fixed rate
//! (phase A) and then closed loop with 16 requests in flight per
//! connection (phase B), on an in-memory TT server with the paper's
//! defaults.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use terp_core::config::Scheme;
use terp_net::{Client, NetServer, Pending, Request, Response};
use terp_pmo::{ObjectId, OpenMode, Permission};
use terp_service::{
    PmoServer, PmoService, ServiceConfig, ServiceReport, TraceConfig, TraceRecorder,
};
use terp_trace::EventKind;

use crate::gen::{Op, OpMix, Rng};
use crate::measure::{
    wait_until, LocalSpans, Rounds, Samples, SpanLog, Throughput, SETUPS_PER_ROUND,
};
use crate::payload::{self, Fault, PAYLOAD};
use crate::procstat::{self, ProcDelta};

/// Client connections (and load-generating threads).
pub const CONNS: usize = 2;
/// Objects in each connection's private pool.
pub const SLOTS: usize = 256;
pub const POOL_BYTES: u64 = 1 << 18;
/// Requests in flight per connection in the closed-loop phase.
const DEPTH: usize = 16;
/// Phase A offered rate over both connections, requests per second.
const RATE: f64 = 10000.0;
const READ_PCT: u64 = 90;

/// The service configuration of every workload: the paper's defaults.
pub fn service_config(trace: bool) -> ServiceConfig {
    let c = ServiceConfig::new(Scheme::terp_full());
    if trace {
        c.with_trace(TraceConfig::full())
    } else {
        c
    }
}

fn err(what: &str, e: impl std::fmt::Debug) -> String {
    format!("{what}: {e:?}")
}

/// The op stream of connection `conn` — identical in every pass that
/// replays the workload.
pub fn op_mix(seed: u64, conn: usize) -> OpMix {
    OpMix::new(Rng::new(seed, conn as u64 + 1), SLOTS, READ_PCT)
}

/// Counts and latencies of one phase (or one thread of it).
#[derive(Debug, Default)]
pub struct PhaseStats {
    /// Latency from the intended send time, per op type.
    pub read: Samples,
    pub write: Samples,
    /// Every scheduled op.
    pub all: Samples,
    /// How late the open-loop sender ran.
    pub gen_late: Samples,
    /// Time inside the pipelined submit call, and submit return → response.
    pub submit: Samples,
    pub rtt: Samples,
    pub attempted: u64,
    pub completed: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub wall_s: f64,
    /// Completed ops per second in each closed-loop window.
    pub windows: Vec<crate::measure::Window>,
}

impl PhaseStats {
    fn absorb(&mut self, o: PhaseStats) {
        self.read.extend(&o.read);
        self.write.extend(&o.write);
        self.all.extend(&o.all);
        self.gen_late.extend(&o.gen_late);
        self.submit.extend(&o.submit);
        self.rtt.extend(&o.rtt);
        self.attempted += o.attempted;
        self.completed += o.completed;
        self.failed += o.failed;
        self.wall_s = self.wall_s.max(o.wall_s);
        self.windows.extend(o.windows);
        for e in o.errors {
            self.note(e);
        }
    }

    /// Adds a later round of the same phase: its time adds up.
    fn absorb_round(&mut self, o: PhaseStats) {
        let wall = self.wall_s + o.wall_s;
        self.absorb(o);
        self.wall_s = wall;
    }

    /// Median completed ops per guest-CPU second over the closed-loop
    /// windows.
    pub fn capacity(&self) -> f64 {
        crate::measure::capacity(&self.windows).0
    }

    fn note(&mut self, e: String) {
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }

    fn fail(&mut self, e: String) {
        self.failed += 1;
        self.note(e);
    }

    /// Completed ops per second of the phase.
    pub fn rate(&self) -> f64 {
        self.completed as f64 / self.wall_s.max(f64::MIN_POSITIVE)
    }
}

/// One connection and the benchmark's record of its objects.
struct Conn {
    idx: usize,
    client: Client,
    oids: Vec<ObjectId>,
    next_ver: Vec<u64>,
    /// Highest acknowledged version per slot.
    acked: Arc<Vec<AtomicU64>>,
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Read { oid: u64, floor: u64 },
    Write { slot: usize, version: u64 },
}

/// A submitted request awaiting its response.
struct InFlight {
    kind: Kind,
    /// When the op was due.
    intended: Instant,
    sub0: Instant,
    sub1: Instant,
    pending: Pending,
}

impl Conn {
    /// Connects, creates and attaches the private pool, preallocates every
    /// object and writes its version-1 payload (all pipelined).
    fn open(addr: std::net::SocketAddr, idx: usize) -> Result<Conn, String> {
        let client = Client::connect(addr, idx as u64 + 1).map_err(|e| err("connect", e))?;
        let pmo = client
            .create_pool(&format!("perfbench-{idx}"), POOL_BYTES, OpenMode::ReadWrite)
            .map_err(|e| err("create pool", e))?;
        client
            .attach(pmo, Permission::ReadWrite)
            .map_err(|e| err("attach", e))?;
        let allocs = (0..SLOTS)
            .map(|_| {
                client.submit(Request::Alloc {
                    pmo,
                    size: PAYLOAD as u64,
                })
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| err("alloc", e))?;
        let oids = allocs
            .into_iter()
            .map(Pending::wait_oid)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| err("alloc", e))?;
        let writes = oids
            .iter()
            .map(|oid| client.write_pipelined(*oid, &payload::encode(oid.to_packed(), 1)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| err("initial write", e))?;
        for w in writes {
            w.wait_unit().map_err(|e| err("initial write", e))?;
        }
        Ok(Conn {
            idx,
            client,
            oids,
            next_ver: vec![1; SLOTS],
            acked: Arc::new((0..SLOTS).map(|_| AtomicU64::new(1)).collect()),
        })
    }

    /// Submits one op that was due at `due`.
    fn submit_op(&mut self, op: Op, due: Instant, st: &mut PhaseStats) -> Option<InFlight> {
        st.attempted += 1;
        let sub0 = Instant::now();
        let (kind, req) = match op {
            Op::Read(slot) => {
                let oid = self.oids[slot];
                let floor = self.acked[slot].load(Ordering::Acquire);
                let kind = Kind::Read {
                    oid: oid.to_packed(),
                    floor,
                };
                (kind, self.client.read_pipelined(oid, PAYLOAD as u32))
            }
            Op::Write(slot) => {
                self.next_ver[slot] += 1;
                let version = self.next_ver[slot];
                let oid = self.oids[slot];
                let data = payload::encode(oid.to_packed(), version);
                let req = self.client.write_pipelined(oid, &data);
                (Kind::Write { slot, version }, req)
            }
        };
        match req {
            Ok(pending) => Some(InFlight {
                kind,
                intended: due,
                sub0,
                sub1: Instant::now(),
                pending,
            }),
            Err(e) => {
                st.fail(err("submit", e));
                None
            }
        }
    }
}

/// Records a response: checks reads and advances acked versions. Every
/// failed request, a read that fails its payload check included, counts in
/// `failed`, and any failure fails the run.
fn complete(
    conn: usize,
    f: InFlight,
    acked: &[AtomicU64],
    st: &mut PhaseStats,
    spans: &mut LocalSpans,
) {
    let req = ((conn as u64 + 1) << 40) | f.pending.id();
    let res = f.pending.wait();
    let done = Instant::now();
    st.submit.push_since(f.sub0, f.sub1);
    st.rtt.push_since(f.sub1, done);
    spans.record(req, "net.submit", "request", f.sub0, f.sub1);
    spans.record(req, "net.rtt", "request", f.sub1, done);
    spans.record(req, "request", "", f.intended, done);
    let lat = done.saturating_duration_since(f.intended).as_nanos() as u64;
    st.all.push(lat);
    match (f.kind, res) {
        (Kind::Read { oid, floor }, Ok(Response::Data(mut data))) => {
            let fault = payload::next_read_fault();
            if fault == Some(Fault::Corrupt) {
                payload::corrupt(&mut data);
            }
            let checked = match fault {
                Some(Fault::Fail) => Err(format!("read of {oid:#x}: injected read error")),
                _ => payload::check(&data, oid, floor),
            };
            match checked {
                Ok(_) => {
                    st.completed += 1;
                    st.read.push(lat);
                }
                Err(e) => st.fail(e),
            }
        }
        (Kind::Write { slot, version }, Ok(Response::Unit)) => {
            acked[slot].fetch_max(version, Ordering::AcqRel);
            st.completed += 1;
            st.write.push(lat);
        }
        (kind, other) => st.fail(format!("{kind:?}: {other:?}")),
    }
}

/// Phase A: each connection's sender follows a fixed arrival timeline and
/// never waits for a response; a collector per connection redeems tickets
/// in order and times each op from when it was due.
fn open_loop(
    conns: &mut [Conn],
    mixes: &mut [OpMix],
    dur: Duration,
    spans: &SpanLog,
) -> PhaseStats {
    let start = Instant::now() + Duration::from_millis(10);
    let end = start + dur;
    let period = Duration::from_secs_f64(CONNS as f64 / RATE);
    let mut total = PhaseStats::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(mixes.iter_mut())
            .map(|(conn, mix)| {
                scope.spawn(move || {
                    let (tx, rx) = channel::<InFlight>();
                    let acked = Arc::clone(&conn.acked);
                    let idx = conn.idx;
                    let collector = scope.spawn(move || {
                        let mut st = PhaseStats::default();
                        let mut sp = spans.local();
                        while let Ok(f) = rx.recv() {
                            complete(idx, f, &acked, &mut st, &mut sp);
                        }
                        st
                    });

                    let mut st = PhaseStats::default();
                    let offset = period.mul_f64(idx as f64 / CONNS as f64);
                    let mut i = 0u32;
                    loop {
                        let due = start + offset + period * i;
                        if due >= end {
                            break;
                        }
                        wait_until(due);
                        st.gen_late.push_since(due, Instant::now());
                        if let Some(f) = conn.submit_op(mix.next_op(), due, &mut st) {
                            let _ = tx.send(f);
                        }
                        i += 1;
                    }
                    drop(tx);
                    st.absorb(collector.join().expect("collector"));
                    st.wall_s = dur.as_secs_f64();
                    st
                })
            })
            .collect();
        for h in handles {
            total.absorb(h.join().expect("sender"));
        }
    });
    total
}

/// Phase B: each connection keeps `DEPTH` requests in flight.
fn closed_loop(
    conns: &mut [Conn],
    mixes: &mut [OpMix],
    dur: Duration,
    spans: &SpanLog,
) -> PhaseStats {
    let mut total = PhaseStats::default();
    let tp = Throughput::default();
    let phase_start = Instant::now();
    std::thread::scope(|scope| {
        let tp = &tp;
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(mixes.iter_mut())
            .map(|(conn, mix)| {
                scope.spawn(move || {
                    let mut st = PhaseStats::default();
                    let mut sp = spans.local();
                    let mut q: VecDeque<InFlight> = VecDeque::with_capacity(DEPTH);
                    let start = Instant::now();
                    let end = start + dur;
                    let acked = Arc::clone(&conn.acked);
                    loop {
                        while q.len() < DEPTH && Instant::now() < end {
                            q.extend(conn.submit_op(mix.next_op(), Instant::now(), &mut st));
                        }
                        let Some(f) = q.pop_front() else { break };
                        let before = st.completed;
                        complete(conn.idx, f, &acked, &mut st, &mut sp);
                        tp.add(st.completed - before);
                    }
                    st.wall_s = start.elapsed().as_secs_f64();
                    st
                })
            })
            .collect();
        total.windows = tp.windows(phase_start, phase_start + dur);
        for h in handles {
            total.absorb(h.join().expect("closed-loop sender"));
        }
    });
    total
}

/// A running serving stack with its connections.
struct Stack {
    net: NetServer,
    conns: Vec<Conn>,
}

impl Stack {
    fn start(trace: bool) -> Result<Stack, String> {
        let server =
            PmoServer::try_start(service_config(trace)).map_err(|e| err("service start", e))?;
        let net = NetServer::start(server, "127.0.0.1:0").map_err(|e| err("bind", e))?;
        let conns = (0..CONNS)
            .map(|j| Conn::open(net.local_addr(), j))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Stack { net, conns })
    }

    fn tracer(&self) -> Option<Arc<TraceRecorder>> {
        self.net.service().tracer().cloned()
    }

    fn shutdown(self) -> ServiceReport {
        drop(self.conns);
        self.net.shutdown()
    }
}

/// What the flight recorder saw: `NetRecv`→`NetExec` per request, joined
/// on (connection, request id), and how many events the rings dropped.
#[derive(Debug, Default)]
pub struct ServerTrace {
    pub queue: Samples,
    pub dropped: u64,
}

impl ServerTrace {
    pub fn absorb(&mut self, tracer: Option<Arc<TraceRecorder>>) {
        let Some(t) = tracer else { return };
        let set = t.snapshot();
        self.dropped += set.total_dropped();
        let mut recv = HashMap::new();
        for ev in set.threads.iter().flat_map(|th| th.events.iter()) {
            if let EventKind::NetRecv { conn, req } = ev.kind {
                recv.insert((conn, req), ev.ts_ns);
            }
        }
        for ev in set.threads.iter().flat_map(|th| th.events.iter()) {
            if let EventKind::NetExec { conn, req } = ev.kind {
                if let Some(r) = recv.get(&(conn, req)) {
                    self.queue.push(ev.ts_ns.saturating_sub(*r));
                }
            }
        }
    }
}

/// Everything one pass of the workload measured.
#[derive(Debug, Default)]
pub struct WireRun {
    pub phase_a: PhaseStats,
    pub phase_b: PhaseStats,
    pub reports: Vec<ServiceReport>,
    pub proc_a: ProcDelta,
    pub proc_b: ProcDelta,
    pub threads: u64,
    pub rounds: Rounds,
    pub server: ServerTrace,
}

impl WireRun {
    pub fn attempted(&self) -> u64 {
        self.phase_a.attempted + self.phase_b.attempted
    }

    pub fn failed(&self) -> u64 {
        self.phase_a.failed + self.phase_b.failed
    }

    pub fn errors(&self) -> Vec<String> {
        [&self.phase_a, &self.phase_b]
            .iter()
            .flat_map(|p| p.errors.iter().cloned())
            .collect()
    }
}

/// Runs the workload in `rounds` rounds. Each round sets up a fresh stack
/// (timed, after timing `SETUPS_PER_ROUND - 1` set-ups of stacks it shuts
/// down at once), runs its share of phase A (60 % of `secs` in all) and of
/// phase B, and shuts the stack down. Fresh stacks each round let one run sample
/// several thread placements, which the figures of a 2-vCPU guest depend
/// on more than on anything else.
pub fn run(
    seed: u64,
    secs: f64,
    rounds: usize,
    trace: bool,
    spans: &SpanLog,
) -> Result<WireRun, String> {
    let rounds = rounds.max(1);
    let dur_a = Duration::from_secs_f64(secs * 0.6 / rounds as f64);
    let dur_b = Duration::from_secs_f64(secs * 0.4 / rounds as f64);
    let mut out = WireRun::default();
    let mut mixes: Vec<OpMix> = (0..CONNS).map(|j| op_mix(seed, j)).collect();
    for _ in 0..rounds {
        let ticks = procstat::cpu_ticks();
        let mut setup_s = Vec::with_capacity(SETUPS_PER_ROUND);
        let mut timed_start = || {
            let (t0, cpu0) = (Instant::now(), procstat::process_cpu_s());
            let stack = Stack::start(trace)?;
            setup_s.push((t0.elapsed().as_secs_f64(), procstat::process_cpu_s() - cpu0));
            Ok::<_, String>(stack)
        };
        for _ in 1..SETUPS_PER_ROUND {
            timed_start()?.shutdown();
        }
        let mut stack = timed_start()?;

        let before = procstat::sample();
        let a = open_loop(&mut stack.conns, &mut mixes, dur_a, spans);
        out.proc_a.add(&before.delta(&procstat::sample()));

        let before = procstat::sample();
        let b = closed_loop(&mut stack.conns, &mut mixes, dur_b, spans);
        let after = procstat::sample();
        out.proc_b.add(&before.delta(&after));
        out.threads = out.threads.max(after.threads);
        out.server.absorb(stack.tracer());
        let report = stack.shutdown();
        out.rounds
            .push(setup_s, &a.read, &a.write, &report, &after, ticks);
        out.phase_a.absorb_round(a);
        out.phase_b.absorb_round(b);
        out.reports.push(report);
        procstat::release_freed_memory();
    }
    Ok(out)
}

/// The in-process pass of the traced run: the same seeded op mix, at the
/// same rate and on the same service configuration, called directly on
/// [`PmoService`] — no sockets, frames or executor hops.
#[derive(Debug, Default)]
pub struct InprocPass {
    /// Latency of every scheduled op from its intended time.
    pub all: Samples,
    pub read_ns: Samples,
    pub write_ns: Samples,
    pub alloc_ns: Samples,
    pub attach_ns: Samples,
    pub detach_ns: Samples,
    pub failed: u64,
}

impl InprocPass {
    fn absorb(&mut self, o: InprocPass) {
        self.all.extend(&o.all);
        self.read_ns.extend(&o.read_ns);
        self.write_ns.extend(&o.write_ns);
        self.alloc_ns.extend(&o.alloc_ns);
        self.attach_ns.extend(&o.attach_ns);
        self.detach_ns.extend(&o.detach_ns);
        self.failed += o.failed;
    }
}

/// Times one service call into `samples` and a span named `name`.
pub fn timed<T>(
    samples: &mut Samples,
    spans: &mut LocalSpans,
    req: u64,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let t0 = Instant::now();
    let r = f();
    let t1 = Instant::now();
    samples.push_since(t0, t1);
    spans.record(req, name, "request", t0, t1);
    r
}

pub fn inproc_pass(seed: u64, secs: f64, spans: &SpanLog) -> Result<InprocPass, String> {
    let server = PmoServer::try_start(service_config(true)).map_err(|e| err("service start", e))?;
    let svc = server.service();
    let dur = Duration::from_secs_f64(secs);
    let period = Duration::from_secs_f64(CONNS as f64 / RATE);
    let start = Instant::now() + Duration::from_millis(50);
    let mut total = InprocPass::default();
    let results: Vec<Result<InprocPass, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|j| {
                let svc = Arc::clone(&svc);
                scope.spawn(move || inproc_lane(&svc, seed, j, start, period, dur, spans))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lane"))
            .collect()
    });
    server.shutdown();
    for r in results {
        total.absorb(r?);
    }
    Ok(total)
}

fn inproc_lane(
    svc: &PmoService,
    seed: u64,
    j: usize,
    start: Instant,
    period: Duration,
    dur: Duration,
    spans: &SpanLog,
) -> Result<InprocPass, String> {
    let mut st = InprocPass::default();
    let mut sp = spans.local();
    let client = j + 1;
    let tag = (client as u64) << 40;
    // The thread's first traced call allocates its event ring; make that
    // an untimed one.
    let warm = svc
        .create_pool(&format!("inproc-warm-{j}"), POOL_BYTES, OpenMode::ReadWrite)
        .map_err(|e| err("create pool", e))?;
    svc.attach(client, warm, Permission::ReadWrite)
        .and_then(|_| svc.detach(client, warm))
        .map_err(|e| err("warm-up attach", e))?;
    let pmo = svc
        .create_pool(&format!("inproc-{j}"), POOL_BYTES, OpenMode::ReadWrite)
        .map_err(|e| err("create pool", e))?;
    timed(&mut st.attach_ns, &mut sp, tag, "service.attach", || {
        svc.attach(client, pmo, Permission::ReadWrite)
    })
    .map_err(|e| err("attach", e))?;
    let mut oids = Vec::with_capacity(SLOTS);
    for _ in 0..SLOTS {
        let oid = timed(&mut st.alloc_ns, &mut sp, tag, "service.alloc", || {
            svc.alloc(client, pmo, PAYLOAD as u64)
        })
        .map_err(|e| err("alloc", e))?;
        svc.write(client, oid, &payload::encode(oid.to_packed(), 1))
            .map_err(|e| err("initial write", e))?;
        oids.push(oid);
    }
    let mut ver = vec![1u64; SLOTS];
    let mut mix = op_mix(seed, j);
    let mut buf = [0u8; PAYLOAD];
    let offset = period.mul_f64(j as f64 / CONNS as f64);
    let end = start + dur;
    let mut i = 0u32;
    loop {
        let due = start + offset + period * i;
        if due >= end {
            break;
        }
        wait_until(due);
        let req = tag | u64::from(i);
        let ok = match mix.next_op() {
            Op::Read(s) => {
                let r = timed(&mut st.read_ns, &mut sp, req, "service.read", || {
                    svc.read_into(client, oids[s], &mut buf)
                });
                r.is_ok() && payload::check(&buf, oids[s].to_packed(), ver[s]).is_ok()
            }
            Op::Write(s) => {
                ver[s] += 1;
                let data = payload::encode(oids[s].to_packed(), ver[s]);
                timed(&mut st.write_ns, &mut sp, req, "service.write", || {
                    svc.write(client, oids[s], &data)
                })
                .is_ok()
            }
        };
        let done = Instant::now();
        st.all.push_since(due, done);
        sp.record(req, "request", "", due, done);
        if !ok {
            st.failed += 1;
        }
        i += 1;
    }
    timed(&mut st.detach_ns, &mut sp, tag, "service.detach", || {
        svc.detach(client, pmo)
    })
    .map_err(|e| err("detach", e))?;
    Ok(st)
}
