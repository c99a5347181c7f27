//! The `inproc-sessions` workload: two client threads call [`PmoService`]
//! directly — no sockets, no disk — in sessions of attach → 3 reads +
//! 1 write → detach on a seeded random pool out of 8 shared pools.
//!
//! The same session loop runs over a [`Client`] in the traced run's wire
//! replay pass, which is what gives this workload its `net.*` figures.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use terp_net::{Client, NetServer, Pending};
use terp_pmo::{ObjectId, OpenMode, Permission, PmoId};
use terp_service::{PmoServer, PmoService, ServiceReport};

use crate::gen::Rng;
use crate::measure::{LocalSpans, Rounds, Samples, SpanLog, Throughput, SETUPS_PER_ROUND};
use crate::payload::{self, Fault, PAYLOAD};
use crate::procstat::{self, ProcDelta};
use crate::wire::{service_config, timed, ServerTrace};

pub const POOLS: usize = 8;
pub const OBJECTS: usize = 64;
pub const THREADS: usize = 2;
pub const POOL_BYTES: u64 = 1 << 16;
/// The client id that builds the pools.
const SETUP_CLIENT: usize = 100;

fn err(what: &str, e: impl std::fmt::Debug) -> String {
    format!("{what}: {e:?}")
}

/// The shared pools and what the benchmark knows about their objects.
struct Fixture {
    pools: Vec<PmoId>,
    oids: Vec<Vec<ObjectId>>,
    /// Highest acknowledged version per object. Thread `t` is the only
    /// writer of objects `t, t + THREADS, …`, so versions only grow.
    acked: Vec<Vec<AtomicU64>>,
}

impl Fixture {
    fn new(pools: Vec<PmoId>, oids: Vec<Vec<ObjectId>>) -> Self {
        let acked = oids
            .iter()
            .map(|p| p.iter().map(|_| AtomicU64::new(1)).collect())
            .collect();
        Fixture { pools, oids, acked }
    }
}

/// The four calls a session makes, in process or over the wire.
trait Backend {
    fn attach(&mut self, pmo: PmoId) -> Result<(), String>;
    fn detach(&mut self, pmo: PmoId) -> Result<(), String>;
    fn read(&mut self, oid: ObjectId, buf: &mut [u8; PAYLOAD]) -> Result<(), String>;
    fn write(&mut self, oid: ObjectId, data: &[u8; PAYLOAD]) -> Result<(), String>;
}

struct Local<'a> {
    svc: &'a PmoService,
    client: usize,
}

impl Backend for Local<'_> {
    fn attach(&mut self, pmo: PmoId) -> Result<(), String> {
        self.svc
            .attach(self.client, pmo, Permission::ReadWrite)
            .map(|_| ())
            .map_err(|e| err("attach", e))
    }
    fn detach(&mut self, pmo: PmoId) -> Result<(), String> {
        self.svc
            .detach(self.client, pmo)
            .map_err(|e| err("detach", e))
    }
    fn read(&mut self, oid: ObjectId, buf: &mut [u8; PAYLOAD]) -> Result<(), String> {
        self.svc
            .read_into(self.client, oid, buf)
            .map_err(|e| err("read", e))
    }
    fn write(&mut self, oid: ObjectId, data: &[u8; PAYLOAD]) -> Result<(), String> {
        self.svc
            .write(self.client, oid, data)
            .map_err(|e| err("write", e))
    }
}

/// A session client over the wire; each call is a pipelined submit
/// followed by the wait for its response, timed apart.
struct Remote {
    client: Client,
    submit: Samples,
    rtt: Samples,
}

impl Remote {
    fn call(
        &mut self,
        submit: impl FnOnce(&Client) -> Result<Pending, terp_net::ServiceError>,
    ) -> Result<terp_net::Response, String> {
        let t0 = Instant::now();
        let p = submit(&self.client).map_err(|e| err("submit", e))?;
        let t1 = Instant::now();
        let r = p.wait().map_err(|e| err("response", e));
        self.submit.push_since(t0, t1);
        self.rtt.push_since(t1, Instant::now());
        r
    }
}

impl Backend for Remote {
    fn attach(&mut self, pmo: PmoId) -> Result<(), String> {
        self.call(|c| c.attach_pipelined(pmo, Permission::ReadWrite))
            .map(|_| ())
    }
    fn detach(&mut self, pmo: PmoId) -> Result<(), String> {
        self.call(|c| c.submit(terp_net::Request::Detach { pmo }))
            .map(|_| ())
    }
    fn read(&mut self, oid: ObjectId, buf: &mut [u8; PAYLOAD]) -> Result<(), String> {
        match self.call(|c| c.read_pipelined(oid, PAYLOAD as u32))? {
            terp_net::Response::Data(d) if d.len() == PAYLOAD => {
                buf.copy_from_slice(&d);
                Ok(())
            }
            other => Err(format!("read: {other:?}")),
        }
    }
    fn write(&mut self, oid: ObjectId, data: &[u8; PAYLOAD]) -> Result<(), String> {
        self.call(|c| c.write_pipelined(oid, data)).map(|_| ())
    }
}

/// Session latencies, per-call latencies and counts.
#[derive(Debug, Default)]
pub struct SessionStats {
    pub session: Samples,
    pub attach: Samples,
    pub detach: Samples,
    pub read: Samples,
    pub write: Samples,
    pub submit: Samples,
    pub rtt: Samples,
    pub attempted: u64,
    pub completed: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Completed calls per second in each fixed window.
    pub windows: Vec<crate::measure::Window>,
}

impl SessionStats {
    fn absorb(&mut self, o: SessionStats) {
        self.session.extend(&o.session);
        self.attach.extend(&o.attach);
        self.detach.extend(&o.detach);
        self.read.extend(&o.read);
        self.write.extend(&o.write);
        self.submit.extend(&o.submit);
        self.rtt.extend(&o.rtt);
        self.attempted += o.attempted;
        self.completed += o.completed;
        self.failed += o.failed;
        self.windows.extend(o.windows);
        for e in o.errors {
            self.fail_note(e);
        }
    }

    /// Median completed calls per guest-CPU second over the windows.
    pub fn capacity(&self) -> f64 {
        crate::measure::capacity(&self.windows).0
    }

    fn fail_note(&mut self, e: String) {
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }

    fn op(&mut self, r: Result<(), String>) -> bool {
        self.attempted += 1;
        match r {
            Ok(()) => {
                self.completed += 1;
                true
            }
            Err(e) => {
                self.failed += 1;
                self.fail_note(e);
                false
            }
        }
    }
}

/// Runs sessions back to back until `end`. The low byte of `stream` is
/// the thread, which owns the objects it writes; the sessions come from the
/// seeded stream `(seed, stream)` in every pass.
fn session_loop(
    b: &mut impl Backend,
    fx: &Fixture,
    stream: u64,
    seed: u64,
    end: Instant,
    spans: &mut LocalSpans,
    tp: &Throughput,
) -> SessionStats {
    let t = (stream & 0xff) as usize;
    let mut st = SessionStats::default();
    let mut rng = Rng::new(seed, 100 + stream);
    let mut next_ver = vec![vec![1u64; OBJECTS]; POOLS];
    let mut buf = [0u8; PAYLOAD];
    let mut n = 0u64;
    while Instant::now() < end {
        let p = rng.below(POOLS as u64) as usize;
        let write_at = rng.below(4);
        let pmo = fx.pools[p];
        let req = ((t as u64 + 1) << 40) | n;
        n += 1;
        let done_before = st.completed;
        let s0 = Instant::now();
        let r = timed(&mut st.attach, spans, req, "service.attach", || {
            b.attach(pmo)
        });
        if !st.op(r) {
            continue;
        }
        for k in 0..4 {
            if k == write_at {
                let o = t + THREADS * rng.below((OBJECTS / THREADS) as u64) as usize;
                next_ver[p][o] += 1;
                let v = next_ver[p][o];
                let oid = fx.oids[p][o];
                let data = payload::encode(oid.to_packed(), v);
                let r = timed(&mut st.write, spans, req, "service.write", || {
                    b.write(oid, &data)
                });
                if st.op(r) {
                    fx.acked[p][o].fetch_max(v, Ordering::AcqRel);
                }
            } else {
                let o = rng.below(OBJECTS as u64) as usize;
                let oid = fx.oids[p][o];
                let floor = fx.acked[p][o].load(Ordering::Acquire);
                let r = timed(&mut st.read, spans, req, "service.read", || {
                    b.read(oid, &mut buf)
                })
                .and_then(|()| {
                    let fault = payload::next_read_fault();
                    if fault == Some(Fault::Corrupt) {
                        payload::corrupt(&mut buf);
                    }
                    match fault {
                        Some(Fault::Fail) => Err(format!("read of {oid:?}: injected read error")),
                        _ => payload::check(&buf, oid.to_packed(), floor).map(|_| ()),
                    }
                });
                st.op(r);
            }
        }
        let r = timed(&mut st.detach, spans, req, "service.detach", || {
            b.detach(pmo)
        });
        st.op(r);
        tp.add(st.completed - done_before);
        let s1 = Instant::now();
        st.session.push_since(s0, s1);
        spans.record(req, "session", "", s0, s1);
    }
    st
}

/// Builds the 8 pools of 64 objects through `b`, writing version 1 of
/// every object. Returns the pool and object ids.
fn build_pools(
    b: &mut impl Backend,
    mut create: impl FnMut(usize) -> Result<PmoId, String>,
    mut alloc: impl FnMut(PmoId) -> Result<ObjectId, String>,
) -> Result<Fixture, String> {
    let mut pools = Vec::with_capacity(POOLS);
    let mut oids = Vec::with_capacity(POOLS);
    for p in 0..POOLS {
        let pmo = create(p)?;
        b.attach(pmo)?;
        let objs = (0..OBJECTS)
            .map(|_| alloc(pmo))
            .collect::<Result<Vec<_>, _>>()?;
        for oid in &objs {
            b.write(*oid, &payload::encode(oid.to_packed(), 1))?;
        }
        b.detach(pmo)?;
        pools.push(pmo);
        oids.push(objs);
    }
    Ok(Fixture::new(pools, oids))
}

/// One in-process pass.
#[derive(Debug, Default)]
pub struct InprocRun {
    pub stats: SessionStats,
    pub alloc_ns: Samples,
    pub reports: Vec<ServiceReport>,
    pub proc: ProcDelta,
    pub threads: u64,
    pub rounds: Rounds,
    pub server: ServerTrace,
}

fn start_local(trace: bool, alloc_ns: &mut Samples) -> Result<(PmoServer, Fixture), String> {
    let server =
        PmoServer::try_start(service_config(trace)).map_err(|e| err("service start", e))?;
    let svc = server.service();
    let mut setup = Local {
        svc: &svc,
        client: SETUP_CLIENT,
    };
    let fx = build_pools(
        &mut setup,
        |p| {
            svc.create_pool(&format!("sessions-{p}"), POOL_BYTES, OpenMode::ReadWrite)
                .map_err(|e| err("create pool", e))
        },
        |pmo| {
            let t0 = Instant::now();
            let r = svc.alloc(SETUP_CLIENT, pmo, PAYLOAD as u64);
            alloc_ns.push_since(t0, Instant::now());
            r.map_err(|e| err("alloc", e))
        },
    )?;
    Ok((server, fx))
}

/// Runs the workload in process in `rounds` rounds, each a fresh service
/// (timed, after timing `SETUPS_PER_ROUND - 1` set-ups of services it
/// shuts down at once) and its share of `secs` of sessions.
pub fn run(
    seed: u64,
    secs: f64,
    rounds: usize,
    trace: bool,
    spans: &SpanLog,
) -> Result<InprocRun, String> {
    let mut out = InprocRun::default();
    let rounds = rounds.max(1);
    for round in 0..rounds {
        let ticks = procstat::cpu_ticks();
        let mut setup_s = Vec::with_capacity(SETUPS_PER_ROUND);
        let mut timed_start = || {
            let (t0, cpu0) = (Instant::now(), procstat::process_cpu_s());
            let started = start_local(trace, &mut out.alloc_ns)?;
            setup_s.push((t0.elapsed().as_secs_f64(), procstat::process_cpu_s() - cpu0));
            Ok::<_, String>(started)
        };
        for _ in 1..SETUPS_PER_ROUND {
            timed_start()?.0.shutdown();
        }
        let (server, fx) = timed_start()?;
        let svc = server.service();
        let before = procstat::sample();
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(secs / rounds as f64);
        let tp = Throughput::default();
        let mut this = SessionStats::default();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let svc = Arc::clone(&svc);
                    let (fx, tp) = (&fx, &tp);
                    scope.spawn(move || {
                        let mut b = Local {
                            svc: &svc,
                            client: t + 1,
                        };
                        let stream = ((round as u64) << 8) | t as u64;
                        session_loop(&mut b, fx, stream, seed, end, &mut spans.local(), tp)
                    })
                })
                .collect();
            this.windows = tp.windows(start, end);
            for h in handles {
                this.absorb(h.join().expect("session thread"));
            }
        });
        let after = procstat::sample();
        out.proc.add(&before.delta(&after));
        out.threads = out.threads.max(after.threads);
        out.server.absorb(svc.tracer().cloned());
        let report = server.shutdown();
        out.rounds
            .push(setup_s, &this.read, &this.write, &report, &after, ticks);
        out.stats.absorb(this);
        out.reports.push(report);
        procstat::release_freed_memory();
    }
    Ok(out)
}

/// The traced run's wire replay pass: the same sessions over two loopback
/// connections, for `net.*` figures on this workload's op mix.
pub fn wire_pass(
    seed: u64,
    secs: f64,
    spans: &SpanLog,
) -> Result<(SessionStats, ServerTrace), String> {
    let server = PmoServer::try_start(service_config(true)).map_err(|e| err("service start", e))?;
    let net = NetServer::start(server, "127.0.0.1:0").map_err(|e| err("bind", e))?;
    let addr = net.local_addr();
    let connect =
        |client: usize| Client::connect(addr, client as u64).map_err(|e| err("connect", e));
    let setup_client = connect(SETUP_CLIENT)?;
    let mut setup = Remote {
        client: setup_client.clone(),
        submit: Samples::default(),
        rtt: Samples::default(),
    };
    let fx = build_pools(
        &mut setup,
        |p| {
            setup_client
                .create_pool(&format!("sessions-{p}"), POOL_BYTES, OpenMode::ReadWrite)
                .map_err(|e| err("create pool", e))
        },
        |pmo| {
            setup_client
                .alloc(pmo, PAYLOAD as u64)
                .map_err(|e| err("alloc", e))
        },
    )?;
    drop(setup);
    drop(setup_client);
    let end = Instant::now() + Duration::from_secs_f64(secs);
    let tp = Throughput::default();
    let mut total = SessionStats::default();
    let results: Vec<Result<SessionStats, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (fx, tp) = (&fx, &tp);
                scope.spawn(move || {
                    let mut b = Remote {
                        client: connect(t + 1)?,
                        submit: Samples::default(),
                        rtt: Samples::default(),
                    };
                    let mut st =
                        session_loop(&mut b, fx, t as u64, seed, end, &mut spans.local(), tp);
                    st.submit = std::mem::take(&mut b.submit);
                    st.rtt = std::mem::take(&mut b.rtt);
                    Ok(st)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("wire session thread"))
            .collect()
    });
    for r in results {
        total.absorb(r?);
    }
    let mut trace = ServerTrace::default();
    trace.absorb(net.service().tracer().cloned());
    net.shutdown();
    Ok((total, trace))
}
