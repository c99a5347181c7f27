//! The traced run's storage pass: a standalone async [`DurableStore`] fed
//! the journal the workload's service would write if it ran durable,
//! shipped to a replication follower, then reopened and recovered. It gives
//! the `persist.*`, `repl.*` and recovery figures of every workload.
//!
//! The journal is derived from what the workload's untraced pass measured:
//! its record mix and its record rate come from the counts in the service
//! reports (one `SessionOpen` per attach, `SessionClose` per detach,
//! `WindowOpen` per attach syscall, `WindowClose` per detach syscall,
//! `Randomize` per sweeper randomization, `DataWrite` per write). The
//! set-up records — pool creation, the allocator's `Alloc` decisions and the
//! version-1 writes — come first, as on the service; neither workload
//! allocates or frees after set-up.
//!
//! Reopening the store checks the journal: every record replays, the
//! windows the stream left open are the ones recovery reseals, and every
//! object reads back at its last logged version.

use std::collections::{BTreeSet, VecDeque};
use std::path::Path;
use std::sync::mpsc::{sync_channel, Receiver};
use std::time::{Duration, Instant};

use terp_persist::{DurableStore, FsyncPolicy, WalMode, WalRecord};
use terp_pmo::{OpenMode, Permission, Pmo, PmoId};
use terp_repl::{ReplFollower, ReplFollowerConfig, ReplLeader, ReplLeaderConfig};
use terp_service::ServiceReport;

use crate::gen::Rng;
use crate::measure::{wait_until, Samples};
use crate::payload::{self, PAYLOAD};
use crate::procstat;

/// Longest the store is fed, so a workload with a high journal rate
/// (`inproc-sessions` journals about a million records a second) leaves a
/// store that recovers in a few seconds.
const MAX_SECS: f64 = 2.0;
/// Tickets buffered between the logging thread and the durability waiter.
const IN_FLIGHT: usize = 4096;
/// One durable record in `PROBE_EVERY` is also timed to the follower.
const PROBE_EVERY: u64 = 64;
/// Clients whose sessions the stream opens and closes.
const CLIENTS: u64 = 2;
const WAIT_LIMIT: Duration = Duration::from_secs(10);

/// The shape of a workload's pools, for the set-up records.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    pub pools: usize,
    pub objects: usize,
    pub pool_bytes: u64,
}

/// Journaled records of each kind, in [`KINDS`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    SessionOpen,
    SessionClose,
    WindowOpen,
    WindowClose,
    Randomize,
    DataWrite,
}

const KINDS: [Kind; 6] = [
    Kind::SessionOpen,
    Kind::SessionClose,
    Kind::WindowOpen,
    Kind::WindowClose,
    Kind::Randomize,
    Kind::DataWrite,
];

/// The record mix and rate of a workload, as its service counted them.
#[derive(Debug, Clone, Copy)]
pub struct Journal {
    counts: [u64; 6],
    secs: f64,
}

impl Journal {
    /// The journal of `reports`, collected over `secs` of traffic.
    pub fn measured(reports: &[ServiceReport], secs: f64) -> Self {
        let mut counts = [0u64; 6];
        for r in reports {
            counts[0] += r.ops.attaches;
            counts[1] += r.ops.detaches;
            counts[2] += r.attach_syscalls;
            counts[3] += r.detach_syscalls;
            counts[4] += r.randomizations;
            counts[5] += r.ops.writes;
        }
        Journal { counts, secs }
    }

    /// Records per second the workload's service would have journaled.
    pub fn rate(&self) -> f64 {
        self.counts.iter().sum::<u64>() as f64 / self.secs.max(1e-9)
    }
}

#[derive(Debug, Default)]
pub struct Probe {
    /// Time inside `DurableStore::log`.
    pub log_ns: Samples,
    /// `log` return → durable ticket.
    pub durable_wait: Samples,
    /// Durable → follower applied the seq.
    pub repl_lag: Samples,
    pub ship_gap: Samples,
    pub apply_gap: Samples,
    /// Records per second the store took while fed.
    pub rate: f64,
    pub records: u64,
    pub syncs: u64,
    pub user_bytes: u64,
    pub disk_bytes: u64,
    pub dir_bytes: u64,
    pub records_replayed: u64,
    pub recovery_ms: f64,
    /// Failed checks of the journal's replay.
    pub problems: Vec<String>,
}

fn pmo(raw: usize) -> PmoId {
    PmoId::new(raw as u16 + 1).expect("nonzero pool id")
}

fn err(what: &str, e: impl std::fmt::Debug) -> String {
    format!("{what}: {e:?}")
}

/// The seeded record stream: the set-up records, then records drawn with
/// the journal's mix, each kept consistent with the protection state (a
/// window closes or randomizes only while open, a session closes only while
/// open). It remembers the state recovery must reproduce.
struct Records {
    rng: Rng,
    /// Cumulative weights of [`KINDS`].
    cumulative: [u64; 6],
    layout: Layout,
    offsets: Vec<Vec<u64>>,
    versions: Vec<Vec<u64>>,
    open_windows: BTreeSet<usize>,
    sessions: BTreeSet<(u64, usize)>,
    setup: VecDeque<WalRecord>,
}

impl Records {
    fn new(journal: &Journal, layout: Layout, seed: u64) -> Result<Self, String> {
        let mut cumulative = [0u64; 6];
        let mut sum = 0;
        for (c, n) in cumulative.iter_mut().zip(journal.counts) {
            sum += n;
            *c = sum;
        }
        let mut setup = VecDeque::new();
        let mut offsets = Vec::with_capacity(layout.pools);
        for p in 0..layout.pools {
            let name = format!("probe-{p}");
            let mut pool = Pmo::new(pmo(p), name.clone(), layout.pool_bytes, OpenMode::ReadWrite)
                .map_err(|e| err("probe pool", e))?;
            setup.push_back(WalRecord::PoolCreate {
                id: pmo(p),
                name,
                size: layout.pool_bytes,
                mode: OpenMode::ReadWrite,
            });
            let mut objs = Vec::with_capacity(layout.objects);
            for _ in 0..layout.objects {
                let offset = pool
                    .pmalloc(PAYLOAD as u64)
                    .map_err(|e| err("probe alloc", e))?
                    .offset();
                setup.push_back(WalRecord::Alloc {
                    pmo: pmo(p),
                    size: PAYLOAD as u64,
                    offset,
                });
                objs.push(offset);
            }
            offsets.push(objs);
        }
        let versions = vec![vec![0u64; layout.objects]; layout.pools];
        let mut records = Records {
            rng: Rng::new(seed, 0x5052_4f42),
            cumulative,
            layout,
            offsets,
            versions,
            open_windows: BTreeSet::new(),
            sessions: BTreeSet::new(),
            setup,
        };
        for p in 0..layout.pools {
            for o in 0..layout.objects {
                let w = records.write(p, o);
                records.setup.push_back(w);
            }
        }
        Ok(records)
    }

    fn write(&mut self, p: usize, o: usize) -> WalRecord {
        self.versions[p][o] += 1;
        let offset = self.offsets[p][o];
        WalRecord::DataWrite {
            pmo: pmo(p),
            offset,
            data: payload::encode(offset, self.versions[p][o]).to_vec(),
        }
    }

    /// A uniformly chosen member of `set`, if any.
    fn pick<T: Copy>(rng: &mut Rng, set: &BTreeSet<T>) -> Option<T> {
        let n = set.len() as u64;
        (n > 0).then(|| *set.iter().nth(rng.below(n) as usize).expect("in range"))
    }

    fn next(&mut self) -> WalRecord {
        if let Some(r) = self.setup.pop_front() {
            return r;
        }
        let total = self.cumulative[5];
        let draw = if total == 0 {
            total
        } else {
            self.rng.below(total)
        };
        let kind = KINDS[self.cumulative.iter().position(|&c| draw < c).unwrap_or(5)];
        let p = self.rng.below(self.layout.pools as u64) as usize;
        let client = 1 + self.rng.below(CLIENTS);
        // A record the state does not allow becomes its opposite (an open
        // of an open session closes it, a close with none open opens one),
        // which keeps opens and closes balanced as the service's are.
        match kind {
            Kind::SessionOpen | Kind::SessionClose => {
                let s = match kind {
                    Kind::SessionClose => Self::pick(&mut self.rng, &self.sessions),
                    _ => None,
                }
                .unwrap_or((client, p));
                if self.sessions.remove(&s) {
                    WalRecord::SessionClose {
                        client: s.0,
                        pmo: pmo(s.1),
                    }
                } else {
                    self.sessions.insert(s);
                    WalRecord::SessionOpen {
                        client: s.0,
                        pmo: pmo(s.1),
                        perm: Permission::ReadWrite,
                    }
                }
            }
            Kind::Randomize if !self.open_windows.is_empty() => WalRecord::Randomize {
                pmo: pmo(Self::pick(&mut self.rng, &self.open_windows).expect("open")),
            },
            Kind::WindowOpen | Kind::WindowClose | Kind::Randomize => {
                let q = match kind {
                    Kind::WindowClose => Self::pick(&mut self.rng, &self.open_windows),
                    _ => None,
                }
                .unwrap_or(p);
                if self.open_windows.remove(&q) {
                    WalRecord::WindowClose { pmo: pmo(q) }
                } else {
                    self.open_windows.insert(q);
                    WalRecord::WindowOpen { pmo: pmo(q) }
                }
            }
            Kind::DataWrite => {
                let o = self.rng.below(self.layout.objects as u64) as usize;
                self.write(p, o)
            }
        }
    }
}

/// A replication pair: leader shipping the probe's store, follower
/// mirroring it.
struct Repl {
    leader: ReplLeader,
    follower: ReplFollower,
}

impl Repl {
    fn start(dir: &Path, mirror: &Path) -> Result<Repl, String> {
        let leader = ReplLeader::start(ReplLeaderConfig::new(dir, 1), "127.0.0.1:0")
            .map_err(|e| err("repl leader", e))?;
        let follower = ReplFollower::start(ReplFollowerConfig::new(leader.local_addr(), mirror, 1));
        let repl = Repl { leader, follower };
        if !repl.applied(None) {
            repl.shutdown();
            return Err("follower never bootstrapped".into());
        }
        Ok(repl)
    }

    /// Waits until the follower has bootstrapped and applied `seq`.
    fn applied(&self, seq: Option<u64>) -> bool {
        let t0 = Instant::now();
        loop {
            let lag = self.follower.lag();
            if lag
                .first()
                .is_some_and(|l| l.bootstrapped && seq.is_none_or(|s| l.applied_seq >= s))
            {
                return true;
            }
            if t0.elapsed() > WAIT_LIMIT {
                return false;
            }
            std::thread::sleep(Duration::from_micros(20));
        }
    }

    fn shutdown(self) {
        self.follower.shutdown();
        self.leader.shutdown();
    }
}

/// Replication figures taken while the store is fed.
#[derive(Default)]
struct ReplStats {
    lag: Samples,
    ship_gap: Samples,
    apply_gap: Samples,
    stalled: Option<u64>,
}

/// Times every probed record from durable to applied on the follower.
fn repl_prober(repl: &Repl, rx: Receiver<(u64, Instant)>) -> ReplStats {
    let mut st = ReplStats::default();
    for (seq, durable) in rx {
        st.ship_gap
            .push(repl.leader.lag().iter().map(|l| l.records()).sum());
        st.apply_gap
            .push(repl.follower.lag().iter().map(|l| l.records()).sum());
        if st.stalled.is_none() {
            if repl.applied(Some(seq)) {
                st.lag.push_since(durable, Instant::now());
            } else {
                st.stalled = Some(seq);
            }
        }
    }
    st
}

/// Feeds the store open loop at the journal's rate for `secs` (at most
/// `MAX_SECS`), then reopens it and checks what recovery rebuilt. When the
/// store cannot take that rate, the feeder falls behind its timeline and
/// logs as fast as the store takes records.
pub fn run(
    journal: &Journal,
    layout: Layout,
    seed: u64,
    secs: f64,
    work: &Path,
) -> Result<Probe, String> {
    let dir = work.join("probe");
    let shard = dir.join("shard-0");
    let (mut store, _, _) =
        DurableStore::open_with_mode(&shard, FsyncPolicy::Always, 32, WalMode::Async)
            .map_err(|e| err("probe store", e))?;
    let repl = Repl::start(&dir, &work.join("probe-mirror"))?;
    let mut out = Probe::default();
    let mut records = Records::new(journal, layout, seed)?;
    let before = procstat::sample();
    let mut last_seq = None;
    for _ in 0..records.setup.len() {
        let rec = records.next();
        if let WalRecord::DataWrite { data, .. } = &rec {
            out.user_bytes += data.len() as u64;
        }
        last_seq = Some(store.log(&rec).map_err(|e| err("log", e))?);
        out.records += 1;
    }

    let (tx, rx) = sync_channel::<(u64, Instant, terp_persist::DurableTicket)>(IN_FLIGHT);
    let (probe_tx, probe_rx) = sync_channel::<(u64, Instant)>(1);
    let end = Instant::now() + Duration::from_secs_f64(secs.min(MAX_SECS));
    let fed_before = out.records;
    let (durable_wait, repl_stats) = std::thread::scope(|scope| {
        let repl = &repl;
        let prober = scope.spawn(move || repl_prober(repl, probe_rx));
        let waiter = scope.spawn(move || {
            let mut durable_wait = Samples::default();
            let mut n = 0u64;
            for (seq, logged, ticket) in rx {
                if ticket.wait().is_err() {
                    return Err(format!("record {seq} never became durable"));
                }
                let durable = Instant::now();
                durable_wait.push_since(logged, durable);
                n += 1;
                if n.is_multiple_of(PROBE_EVERY) {
                    // The prober takes the next record once it is free.
                    let _ = probe_tx.try_send((seq, durable));
                }
            }
            Ok(durable_wait)
        });
        let period = Duration::from_secs_f64(1.0 / journal.rate().max(1.0));
        let start = Instant::now();
        for i in 0u32.. {
            let due = start + period * i;
            if due >= end {
                break;
            }
            wait_until(due);
            let rec = records.next();
            if let WalRecord::DataWrite { data, .. } = &rec {
                out.user_bytes += data.len() as u64;
            }
            let t0 = Instant::now();
            let seq = store.log(&rec).map_err(|e| err("log", e))?;
            let t1 = Instant::now();
            out.log_ns.push_since(t0, t1);
            out.records += 1;
            last_seq = Some(seq);
            if tx.send((seq, t1, store.ticket(seq))).is_err() {
                break;
            }
        }
        drop(tx);
        out.rate = (out.records - fed_before) as f64 / start.elapsed().as_secs_f64();
        let waited = waiter.join().expect("durability waiter");
        Ok::<_, String>((waited, prober.join().expect("repl prober")))
    })?;
    out.durable_wait = durable_wait?;
    out.repl_lag = repl_stats.lag;
    out.ship_gap = repl_stats.ship_gap;
    out.apply_gap = repl_stats.apply_gap;
    if let Some(seq) = repl_stats.stalled {
        out.problems
            .push(format!("probe: the follower never applied seq {seq}"));
    }
    let stats = store.stats();
    out.syncs = stats.syncs;
    drop(store);
    if !repl.applied(last_seq) {
        out.problems
            .push("probe: the follower never caught up with the store".into());
    }
    out.disk_bytes = before.delta(&procstat::sample()).write_bytes;
    repl.shutdown();
    out.dir_bytes = dir_bytes(&dir);

    let t0 = Instant::now();
    let (_, state, report) =
        DurableStore::open_with_mode(&shard, FsyncPolicy::Always, 32, WalMode::Sync)
            .map_err(|e| err("probe recovery", e))?;
    out.recovery_ms = t0.elapsed().as_secs_f64() * 1e3;
    out.records_replayed = report.records_replayed as u64;
    check_recovery(&mut out, &records, &state);
    Ok(out)
}

/// Compares what recovery rebuilt with what the stream logged.
fn check_recovery(out: &mut Probe, records: &Records, state: &terp_persist::RecoveredState) {
    if out.records_replayed != out.records {
        out.problems.push(format!(
            "probe: {} records logged, {} replayed",
            out.records, out.records_replayed
        ));
    }
    let resealed: BTreeSet<PmoId> = state.resealed.iter().copied().collect();
    let open: BTreeSet<PmoId> = records.open_windows.iter().map(|&q| pmo(q)).collect();
    if resealed != open {
        out.problems.push(format!(
            "probe: recovery resealed {resealed:?}, the stream left {open:?} open"
        ));
    }
    let mut buf = [0u8; PAYLOAD];
    for (p, objs) in records.offsets.iter().enumerate() {
        for (o, &offset) in objs.iter().enumerate() {
            let read = state
                .registry
                .pool(pmo(p))
                .and_then(|pool| pool.read_bytes(offset, &mut buf))
                .map_err(|e| err("read back", e))
                .and_then(|()| payload::check(&buf, offset, records.versions[p][o]));
            if let Err(e) = read {
                out.problems.push(format!("probe: after recovery, {e}"));
                return;
            }
        }
    }
}

pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
