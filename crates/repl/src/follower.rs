//! The warm standby: verbatim WAL mirroring plus continuous replay.
//!
//! A follower keeps two representations of the leader's state and the
//! failover guarantees come from which one promotion uses:
//!
//! * **The mirror** — per shard, the leader's checkpoint files (`ckpt.log`,
//!   `prot.log`) written verbatim at bootstrap, plus a WAL whose bytes are
//!   appended *verbatim* as shipped. Each leader checkpoint is followed in
//!   the store's own order: `ckpt.log` extended by the bytes it grew (or
//!   replaced after a compaction), `prot.log` replaced, the WAL restarted.
//!   The mirror's durable prefix is byte-identical to the leader's by
//!   construction: there is no re-encoding step to disagree with it. A
//!   re-bootstrap (after a reconnect) builds its image in
//!   `shard-<i>.staging/` and moves it over the mirror only once it has
//!   caught up with it, so promotion never finds a half-built mirror.
//! * **The warm registry** — an in-memory [`PmoRegistry`] per shard,
//!   advanced by replaying the checkpoint files (and each checkpoint's
//!   growth) and then each WAL record as it arrives (the same replay rules
//!   as
//!   [`terp_persist::recover_segments`], including checkpoint watermark
//!   skipping and `Alloc` divergence checking). This is what makes the
//!   standby *warm*: the applied watermark and lag are always current, and
//!   reads can be served without touching disk.
//!
//! [`ReplFollower::promote`] deliberately ignores the warm registry and
//! reopens the *mirror* through the ordinary durable recovery path — so a
//! promoted follower inherits exactly the guarantees of a local restart:
//! uncommitted transactions roll back, and every exposure window open at
//! the leader's death is force-closed and resealed before the first client
//! attaches. The server comes up in standby (read-only) mode and is
//! flipped writable only after recovery has finished.

use std::collections::{BTreeSet, HashMap};
use std::fs;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use terp_net::repl::ReplMsg;
use terp_net::{Backoff, ServiceError, VERSION};
use terp_persist::{read_log, WalRecord, CKPT_FILE, PROT_FILE, WAL_FILE};
use terp_pmo::{ObjectId, PmoId, PmoRegistry};
use terp_service::{PmoServer, ServiceConfig};
use terp_trace::{EventKind, TraceRecorder};

use crate::conn::{disconnected, Conn};
use crate::leader::CHECKPOINT_FILES;

/// Configuration for a [`ReplFollower`].
#[derive(Debug, Clone)]
pub struct ReplFollowerConfig {
    /// The leader's replication address ([`crate::ReplLeader::local_addr`]).
    pub leader: SocketAddr,
    /// Mirror root: the follower writes `shard-<i>/` stores here, laid out
    /// exactly like the leader's durable directory.
    pub dir: PathBuf,
    /// Follower identity tag (diagnostics only).
    pub follower: u64,
    /// Optional flight recorder for `ReplApply` events.
    pub tracer: Option<Arc<TraceRecorder>>,
}

impl ReplFollowerConfig {
    /// Defaults: no tracer.
    pub fn new(leader: SocketAddr, dir: impl Into<PathBuf>, follower: u64) -> Self {
        ReplFollowerConfig {
            leader,
            dir: dir.into(),
            follower,
            tracer: None,
        }
    }

    /// Attaches a flight recorder.
    pub fn with_tracer(mut self, tracer: Arc<TraceRecorder>) -> Self {
        self.tracer = Some(tracer);
        self
    }
}

/// One shard's replication progress as the follower sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplLag {
    /// Shard index.
    pub shard: u32,
    /// Leader's highest durable sequence number (from heartbeats).
    pub leader_seq: u64,
    /// Highest sequence number replayed into the warm registry.
    pub applied_seq: u64,
    /// Whether the shard's checkpoint bootstrap has completed.
    pub bootstrapped: bool,
    /// Leader checkpoints the shard has followed since its bootstrap.
    pub checkpoints: u64,
}

impl ReplLag {
    /// Records the leader has made durable that this follower has not yet
    /// applied.
    pub fn records(&self) -> u64 {
        self.leader_seq.saturating_sub(self.applied_seq)
    }
}

/// Per-shard standby state: warm registry + mirror bookkeeping.
#[derive(Debug)]
struct ShardMirror {
    registry: PmoRegistry,
    /// Per-pool checkpoint watermark (raised by `AllocTable`): records at
    /// or below it are already reflected and must not re-apply.
    watermark: Vec<Option<u64>>,
    /// The checkpoint being received; installed at `SnapshotDone`.
    incoming: Incoming,
    /// Length of the shard's `ckpt.log`: where appended bytes go.
    ckpt_len: u64,
    /// Shipped bytes not yet forming a complete frame (batches may split
    /// mid-record).
    pending: Vec<u8>,
    applied_seq: u64,
    leader_seq: u64,
    open_windows: BTreeSet<PmoId>,
    bootstrapped: bool,
    checkpoints: u64,
    /// Whether the shard's files go to its staging directory: a bootstrap
    /// builds there and replaces the mirror once it has caught up.
    staging: bool,
    /// The seq a complete mirror in the shard's directory has applied up
    /// to (`None`: no complete mirror yet).
    mirrored: Option<u64>,
}

/// A checkpoint under assembly: a whole `ckpt.log` (bootstrap or
/// compaction) or the bytes it grew by, and the new `prot.log`.
#[derive(Debug, Default)]
struct Incoming {
    ckpt: Option<Vec<u8>>,
    appended: Vec<u8>,
    prot: Option<Vec<u8>>,
}

impl ShardMirror {
    fn new() -> Self {
        ShardMirror {
            registry: PmoRegistry::new(),
            watermark: Vec::new(),
            incoming: Incoming::default(),
            ckpt_len: 0,
            pending: Vec::new(),
            applied_seq: 0,
            leader_seq: 0,
            open_windows: BTreeSet::new(),
            bootstrapped: false,
            checkpoints: 0,
            staging: true,
            mirrored: None,
        }
    }

    /// Resets for a re-bootstrap (reconnect). The leader's heartbeat marks
    /// survive so lag stays truthful while the checkpoint streams, and so
    /// does the mirror: the new image builds in staging until it has
    /// caught up with it.
    fn reset(&mut self) {
        let mirrored = if self.staging {
            self.mirrored
        } else {
            Some(self.applied_seq)
        };
        let leader_seq = self.leader_seq;
        *self = ShardMirror::new();
        self.leader_seq = leader_seq;
        self.mirrored = mirrored;
    }

    /// Replays checkpoint-file bytes into the warm registry.
    fn replay(&mut self, image: &[u8]) -> Result<(), ServiceError> {
        for (seq, record) in &read_log(image).records {
            apply_record(self, *seq, record)?;
            self.applied_seq = self.applied_seq.max(*seq);
        }
        Ok(())
    }
}

#[derive(Debug)]
struct FollowerState {
    mirrors: Mutex<Vec<ShardMirror>>,
    connected: AtomicBool,
    shutdown: AtomicBool,
}

/// A running warm standby.
#[derive(Debug)]
pub struct ReplFollower {
    config: ReplFollowerConfig,
    state: Arc<FollowerState>,
    thread: Option<JoinHandle<()>>,
}

impl ReplFollower {
    /// Starts the standby: a background thread connects to the leader
    /// (retrying with exponential backoff, forever — a standby never gives
    /// up on its leader), bootstraps, and mirrors continuously. Connection
    /// death triggers reconnect and a fresh bootstrap.
    pub fn start(config: ReplFollowerConfig) -> Self {
        let state = Arc::new(FollowerState {
            mirrors: Mutex::new(Vec::new()),
            connected: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });
        let thread_state = Arc::clone(&state);
        let thread_config = config.clone();
        let thread = std::thread::Builder::new()
            .name("repl-follow".into())
            .spawn(move || follower_loop(&thread_config, &thread_state))
            .expect("spawn repl follower");
        ReplFollower {
            config,
            state,
            thread: Some(thread),
        }
    }

    /// Whether a leader connection is currently up.
    pub fn is_connected(&self) -> bool {
        self.state.connected.load(Ordering::Acquire)
    }

    /// Per-shard replication lag. Empty until the first Welcome arrives.
    pub fn lag(&self) -> Vec<ReplLag> {
        self.state
            .mirrors
            .lock()
            .expect("mirrors lock")
            .iter()
            .enumerate()
            .map(|(i, m)| ReplLag {
                shard: i as u32,
                leader_seq: m.leader_seq,
                applied_seq: m.applied_seq,
                bootstrapped: m.bootstrapped,
                checkpoints: m.checkpoints,
            })
            .collect()
    }

    /// Whether every shard has bootstrapped and applied everything the
    /// leader has advertised as durable.
    pub fn is_caught_up(&self) -> bool {
        let mirrors = self.state.mirrors.lock().expect("mirrors lock");
        !mirrors.is_empty()
            && mirrors
                .iter()
                .all(|m| m.bootstrapped && m.applied_seq >= m.leader_seq)
    }

    /// Exposure windows the leader currently holds open, as witnessed by
    /// replay. These are precisely the windows promotion will reseal.
    pub fn open_windows(&self) -> usize {
        self.state
            .mirrors
            .lock()
            .expect("mirrors lock")
            .iter()
            .map(|m| m.open_windows.len())
            .sum()
    }

    /// Read access to one shard's warm registry.
    pub fn inspect<R>(&self, shard: u32, f: impl FnOnce(&PmoRegistry) -> R) -> Option<R> {
        let mirrors = self.state.mirrors.lock().expect("mirrors lock");
        mirrors.get(shard as usize).map(|m| f(&m.registry))
    }

    /// The mirror root directory.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }

    /// Stops mirroring and discards the standby without promoting.
    pub fn shutdown(mut self) {
        self.halt();
    }

    /// Promotes the standby to a serving leader.
    ///
    /// The replication stream is stopped, then the *mirror* (not the warm
    /// registry) is opened through the ordinary durable recovery path: the
    /// checkpoint files and the log replay, in-flight transactions roll
    /// back, and — the TERP invariant — every exposure window the dead
    /// leader had open is force-closed and its pool resealed
    /// ([`terp_pmo::Pmo::reseal`]) so the next attach re-randomizes. The
    /// server starts in standby (read-only) mode and is flipped writable
    /// only after recovery completes, so no client mutation can slip in
    /// mid-promotion.
    ///
    /// `base` supplies the serving configuration (scheme, shards, sweeper,
    /// visibility…); its durable directory is overridden with the mirror.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Persist`] if a shard has no complete mirror yet (its
    /// first bootstrap never finished) or mirror recovery fails.
    pub fn promote(mut self, base: ServiceConfig) -> Result<PmoServer, ServiceError> {
        self.halt();
        promotable(&self.state.mirrors.lock().expect("mirrors lock"))?;
        for shard in 0..self.lag().len() as u32 {
            // A bootstrap cut short leaves its staging directory behind.
            let _ = fs::remove_dir_all(staging_dir(&self.config, shard));
        }
        let server = PmoServer::try_start(
            base.with_durable(self.config.dir.clone())
                .with_standby(true),
        )?;
        server.promote();
        Ok(server)
    }

    fn halt(&mut self) {
        self.state.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ReplFollower {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Whether every shard has a complete mirror: its live image, or the one
/// a re-bootstrap in progress will replace.
fn promotable(mirrors: &[ShardMirror]) -> Result<(), ServiceError> {
    if mirrors.is_empty() {
        return Err(ServiceError::Persist(
            "no leader was ever reached: nothing to promote".into(),
        ));
    }
    match mirrors
        .iter()
        .position(|m| m.staging && m.mirrored.is_none())
    {
        Some(shard) => Err(ServiceError::Persist(format!(
            "shard {shard} has no complete mirror to promote"
        ))),
        None => Ok(()),
    }
}

/// Outer loop: connect (with backoff), stream until the connection dies,
/// reconnect. Every reconnect re-bootstraps — the leader may have
/// checkpointed away log records we never saw.
fn follower_loop(config: &ReplFollowerConfig, state: &FollowerState) {
    let mut backoff = Backoff::default_reconnect().with_budget(Duration::MAX);
    while !state.shutdown.load(Ordering::Acquire) {
        let stream = match TcpStream::connect_timeout(&config.leader, Duration::from_secs(1)) {
            Ok(s) => s,
            Err(_) => {
                match backoff.next_delay() {
                    Some(delay) => std::thread::sleep(delay),
                    None => return, // unreachable with an unbounded budget
                }
                continue;
            }
        };
        backoff = Backoff::default_reconnect().with_budget(Duration::MAX);
        state.connected.store(true, Ordering::Release);
        let _ = run_stream(stream, config, state);
        state.connected.store(false, Ordering::Release);
    }
}

/// One connection's lifetime: handshake, subscribe, apply until it dies.
fn run_stream(
    stream: TcpStream,
    config: &ReplFollowerConfig,
    state: &FollowerState,
) -> Result<(), ServiceError> {
    let mut conn = Conn::new(stream)?;
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    conn.send(&ReplMsg::hello(config.follower))?;
    let shards = match conn.recv_deadline(deadline)? {
        ReplMsg::Welcome { version, shards } if version == VERSION => shards as usize,
        ReplMsg::Welcome { version, .. } => {
            return Err(ServiceError::Protocol(format!(
                "leader speaks version {version}, expected {VERSION}"
            )))
        }
        other => {
            return Err(ServiceError::Protocol(format!(
                "expected Welcome, got {other:?}"
            )))
        }
    };

    // Fresh bootstrap: reset warm state and build each shard's new image
    // in a clean staging directory (stale files from a previous leader
    // epoch must not survive into it). A complete mirror stays in place
    // until the new image has caught up with it, so promotion never sees a
    // half-built one.
    {
        let mut mirrors = state.mirrors.lock().expect("mirrors lock");
        if mirrors.len() != shards {
            *mirrors = (0..shards).map(|_| ShardMirror::new()).collect();
        } else {
            for m in mirrors.iter_mut() {
                m.reset();
            }
        }
    }
    for shard in 0..shards as u32 {
        let staging = staging_dir(config, shard);
        let _ = fs::remove_dir_all(&staging);
        fs::create_dir_all(&staging).map_err(disconnected)?;
    }
    conn.send(&ReplMsg::Subscribe)?;

    // Checkpoint files under assembly: (shard, name) → (next index, total,
    // bytes so far).
    let mut partial: HashMap<(u32, String), (u32, u32, Vec<u8>)> = HashMap::new();

    loop {
        if state.shutdown.load(Ordering::Acquire) {
            return Ok(());
        }
        let msg = match conn.recv()? {
            Some(m) => m,
            None => continue, // read timeout; re-check shutdown
        };
        match msg {
            ReplMsg::SnapshotChunk {
                shard,
                file,
                index,
                total,
                bytes,
            } => {
                check_shard(shard, shards)?;
                let Some(slot) = CHECKPOINT_FILES.iter().position(|f| *f == file) else {
                    return Err(ServiceError::Protocol(format!(
                        "bootstrap file {file:?} is not a checkpoint file"
                    )));
                };
                let entry = partial
                    .entry((shard, file.clone()))
                    .or_insert((0, total, Vec::new()));
                if index != entry.0 || total != entry.1 {
                    return Err(ServiceError::Protocol(format!(
                        "checkpoint chunk {index}/{total} out of order (expected {}/{})",
                        entry.0, entry.1
                    )));
                }
                entry.0 += 1;
                entry.2.extend_from_slice(&bytes);
                if entry.0 == entry.1 {
                    let (_, _, image) = partial.remove(&(shard, file)).expect("entry");
                    let incoming =
                        &mut state.mirrors.lock().expect("mirrors lock")[shard as usize].incoming;
                    if slot == 0 {
                        incoming.ckpt = Some(image);
                    } else {
                        incoming.prot = Some(image);
                    }
                }
            }
            ReplMsg::CheckpointAppend {
                shard,
                offset,
                bytes,
            } => {
                check_shard(shard, shards)?;
                let mut mirrors = state.mirrors.lock().expect("mirrors lock");
                let m = &mut mirrors[shard as usize];
                let at = m.ckpt_len + m.incoming.appended.len() as u64;
                if !m.bootstrapped || m.incoming.ckpt.is_some() || offset != at {
                    return Err(ServiceError::Protocol(format!(
                        "checkpoint append at {offset} does not follow this mirror's \
                         ckpt.log ({at} bytes)"
                    )));
                }
                m.incoming.appended.extend_from_slice(&bytes);
            }
            ReplMsg::SnapshotDone { shard } => {
                check_shard(shard, shards)?;
                let mut mirrors = state.mirrors.lock().expect("mirrors lock");
                install_checkpoint(config, shard, &mut mirrors[shard as usize])?;
            }
            ReplMsg::LogBatch { shard, bytes } => {
                check_shard(shard, shards)?;
                let applied = {
                    let mut mirrors = state.mirrors.lock().expect("mirrors lock");
                    let m = &mut mirrors[shard as usize];
                    apply_batch(config, shard, m, &bytes)?;
                    if m.mirrored.is_none_or(|seq| m.applied_seq >= seq) {
                        swap_in(config, shard, m)?;
                    }
                    m.applied_seq
                };
                conn.send(&ReplMsg::Ack {
                    shard,
                    applied_seq: applied,
                })?;
            }
            ReplMsg::Heartbeat { shard, durable_seq } => {
                check_shard(shard, shards)?;
                let applied = {
                    let mut mirrors = state.mirrors.lock().expect("mirrors lock");
                    let m = &mut mirrors[shard as usize];
                    m.leader_seq = m.leader_seq.max(durable_seq);
                    // Everything this leader has is applied: the staged
                    // image is as complete as it will get.
                    if m.applied_seq >= durable_seq {
                        swap_in(config, shard, m)?;
                    }
                    m.applied_seq
                };
                conn.send(&ReplMsg::Ack {
                    shard,
                    applied_seq: applied,
                })?;
            }
            other => {
                return Err(ServiceError::Protocol(format!(
                    "unexpected message from leader: {other:?}"
                )))
            }
        }
    }
}

/// Installs the checkpoint `m` has received for `shard`, on disk in the
/// store's own checkpoint order — `ckpt.log` (replaced or extended), then
/// `prot.log`, then the WAL emptied, as the leader resends its WAL from
/// byte 0 — and in the warm registry: a whole `ckpt.log` rebuilds it, a
/// grown one applies on top (its page images reflect every record the
/// truncated WAL held), and `prot.log` restates the open windows.
fn install_checkpoint(
    config: &ReplFollowerConfig,
    shard: u32,
    m: &mut ShardMirror,
) -> Result<(), ServiceError> {
    let Incoming {
        ckpt,
        appended,
        prot,
    } = std::mem::take(&mut m.incoming);
    let Some(prot) = prot else {
        return Err(ServiceError::Protocol(format!(
            "shard {shard}: checkpoint without {PROT_FILE}"
        )));
    };
    let dir = write_dir(config, shard, m);
    match &ckpt {
        Some(whole) => replace_file(&dir.join(CKPT_FILE), whole)?,
        None if !appended.is_empty() => {
            let mut f = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.join(CKPT_FILE))
                .map_err(disconnected)?;
            f.write_all(&appended).map_err(disconnected)?;
        }
        None => {}
    }
    replace_file(&dir.join(PROT_FILE), &prot)?;
    fs::write(dir.join(WAL_FILE), []).map_err(disconnected)?;

    match ckpt {
        Some(whole) => {
            m.registry = PmoRegistry::new();
            m.watermark.clear();
            m.replay(&whole)?;
            m.ckpt_len = whole.len() as u64;
        }
        None => {
            m.replay(&appended)?;
            m.ckpt_len += appended.len() as u64;
        }
    }
    m.open_windows.clear();
    m.replay(&prot)?;
    m.pending.clear();
    if m.bootstrapped {
        m.checkpoints += 1;
    }
    m.bootstrapped = true;
    if m.mirrored.is_none_or(|seq| m.applied_seq >= seq) {
        swap_in(config, shard, m)?;
    }
    Ok(())
}

/// Writes `bytes` to `path` through a temporary file and a rename, so a
/// failure midway leaves the old file whole.
fn replace_file(path: &Path, bytes: &[u8]) -> Result<(), ServiceError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    fs::write(&tmp, bytes).map_err(disconnected)?;
    fs::rename(&tmp, path).map_err(disconnected)
}

/// Once a staged image is bootstrapped and caught up, moves it over the
/// shard's mirror directory; the shard's files go there from then on.
fn swap_in(
    config: &ReplFollowerConfig,
    shard: u32,
    m: &mut ShardMirror,
) -> Result<(), ServiceError> {
    if !m.staging || !m.bootstrapped {
        return Ok(());
    }
    let mirror = config.dir.join(format!("shard-{shard}"));
    let retired = config.dir.join(format!("shard-{shard}.old"));
    let _ = fs::remove_dir_all(&retired);
    if mirror.exists() {
        fs::rename(&mirror, &retired).map_err(disconnected)?;
    }
    fs::rename(staging_dir(config, shard), &mirror).map_err(disconnected)?;
    let _ = fs::remove_dir_all(&retired);
    m.staging = false;
    m.mirrored = None;
    Ok(())
}

fn staging_dir(config: &ReplFollowerConfig, shard: u32) -> PathBuf {
    config.dir.join(format!("shard-{shard}.staging"))
}

/// Where the shard's files are written now: staging or the mirror.
fn write_dir(config: &ReplFollowerConfig, shard: u32, m: &ShardMirror) -> PathBuf {
    if m.staging {
        staging_dir(config, shard)
    } else {
        config.dir.join(format!("shard-{shard}"))
    }
}

fn check_shard(shard: u32, shards: usize) -> Result<(), ServiceError> {
    if (shard as usize) < shards {
        Ok(())
    } else {
        Err(ServiceError::Protocol(format!(
            "shard {shard} out of range ({shards} shards)"
        )))
    }
}

/// Appends shipped bytes verbatim to the shard's WAL, then replays every
/// complete frame into the warm registry. Bytes past the last complete
/// frame stay pending until the next batch completes them.
fn apply_batch(
    config: &ReplFollowerConfig,
    shard: u32,
    m: &mut ShardMirror,
    bytes: &[u8],
) -> Result<(), ServiceError> {
    let mut wal = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(write_dir(config, shard, m).join(WAL_FILE))
        .map_err(disconnected)?;
    wal.write_all(bytes).map_err(disconnected)?;
    drop(wal);

    m.pending.extend_from_slice(bytes);
    let decoded = read_log(&m.pending);
    for (seq, record) in &decoded.records {
        apply_record(m, *seq, record)?;
        if let Some(tracer) = &config.tracer {
            tracer.record(EventKind::ReplApply { shard, seq: *seq });
        }
        m.applied_seq = m.applied_seq.max(*seq);
    }
    m.pending.drain(..decoded.consumed);
    Ok(())
}

/// Replays one record into the warm registry — the same rules as
/// [`terp_persist::recover_segments`]: checkpoint watermarks suppress
/// double-apply of data records, `Alloc` replay verifies the allocator
/// reproduces the logged offset, protection records maintain the
/// open-window set.
fn apply_record(m: &mut ShardMirror, seq: u64, record: &WalRecord) -> Result<(), ServiceError> {
    let below_watermark = record
        .pmo()
        .and_then(|id| m.watermark.get(id.index()).copied().flatten())
        .is_some_and(|mark| seq <= mark);
    match record {
        WalRecord::PoolCreate {
            id,
            name,
            size,
            mode,
        } => {
            if !below_watermark {
                m.registry.restore_pool(*id, name, *size, *mode)?;
            }
        }
        WalRecord::Alloc { pmo, size, offset } => {
            if !below_watermark {
                let got = m.registry.pool_mut(*pmo)?.pmalloc(*size)?;
                if got.offset() != *offset {
                    return Err(ServiceError::Persist(format!(
                        "replicated alloc diverged on {pmo}: got {:#x}, log says {offset:#x}",
                        got.offset()
                    )));
                }
            }
        }
        WalRecord::Free { pmo, offset } => {
            if !below_watermark {
                m.registry
                    .pool_mut(*pmo)?
                    .pfree(ObjectId::new(*pmo, *offset))?;
            }
        }
        WalRecord::DataWrite { pmo, offset, data } => {
            if !below_watermark {
                m.registry.pool_mut(*pmo)?.write_bytes(*offset, data)?;
            }
        }
        WalRecord::WindowOpen { pmo } => {
            m.open_windows.insert(*pmo);
        }
        WalRecord::WindowClose { pmo } => {
            m.open_windows.remove(pmo);
        }
        WalRecord::PageDelta { pmo, page, data } => {
            if !below_watermark {
                m.registry
                    .pool_mut(*pmo)?
                    .write_bytes(*page * terp_pmo::PAGE_SIZE, data)?;
            }
        }
        WalRecord::AllocTable { pmo, live } => {
            if !below_watermark {
                m.registry.pool_mut(*pmo)?.restore_allocator(live)?;
                let idx = pmo.index();
                if m.watermark.len() <= idx {
                    m.watermark.resize(idx + 1, None);
                }
                m.watermark[idx] = Some(m.watermark[idx].map_or(seq, |old| old.max(seq)));
            }
        }
        // Sessions and randomizations carry no standby-visible state beyond
        // what the open-window set already tracks; checkpoints are
        // watermarks, not mutations. Root-directory entries live in the
        // shipped prot.log and WAL, and promotion re-runs full durable
        // recovery, which rebuilds the root map from those records — the
        // warm mirror has no reader for them in the meantime.
        WalRecord::SessionOpen { .. }
        | WalRecord::SessionClose { .. }
        | WalRecord::Randomize { .. }
        | WalRecord::Checkpoint
        | WalRecord::RootSet { .. } => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;
    use terp_pmo::OpenMode;

    /// A bootstrap may ship only the checkpoint files; any other name is a
    /// protocol error and nothing is written.
    #[test]
    fn bootstrap_rejects_files_other_than_the_checkpoint_files() {
        let dir = std::env::temp_dir().join(format!("terp-follow-name-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let leader = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = Conn::new(stream).unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            assert!(matches!(
                conn.recv_deadline(deadline).unwrap(),
                ReplMsg::Hello { .. }
            ));
            conn.send(&ReplMsg::Welcome {
                version: VERSION,
                shards: 1,
            })
            .unwrap();
            assert!(matches!(
                conn.recv_deadline(deadline).unwrap(),
                ReplMsg::Subscribe
            ));
            conn.send(&ReplMsg::SnapshotChunk {
                shard: 0,
                file: "pool-1.snap".into(),
                index: 0,
                total: 1,
                bytes: b"image".to_vec(),
            })
            .unwrap();
            conn
        });
        let state = FollowerState {
            mirrors: Mutex::new(Vec::new()),
            connected: AtomicBool::new(true),
            shutdown: AtomicBool::new(false),
        };
        let stream = TcpStream::connect(addr).unwrap();
        let err = run_stream(stream, &ReplFollowerConfig::new(addr, &dir, 1), &state).unwrap_err();
        assert!(matches!(err, ServiceError::Protocol(_)), "{err}");
        assert!(!dir.join("shard-0").join("pool-1.snap").exists());
        drop(leader.join().unwrap());
        fs::remove_dir_all(&dir).ok();
    }

    /// One scripted leader connection: handshake (one shard), then
    /// `script`. Ends after an `Ack` of `ack` arrives, or at once if none.
    fn fake_leader(listener: &TcpListener, script: Vec<ReplMsg>, ack: Option<u64>) {
        let (stream, _) = listener.accept().unwrap();
        let mut conn = Conn::new(stream).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        conn.recv_deadline(deadline).unwrap(); // Hello
        conn.send(&ReplMsg::Welcome {
            version: VERSION,
            shards: 1,
        })
        .unwrap();
        conn.recv_deadline(deadline).unwrap(); // Subscribe
        for msg in &script {
            conn.send(msg).unwrap();
        }
        while let Some(want) = ack {
            match conn.recv_deadline(deadline).unwrap() {
                ReplMsg::Ack { applied_seq, .. } if applied_seq >= want => break,
                _ => {}
            }
        }
    }

    fn chunk(file: &str, bytes: &[u8]) -> ReplMsg {
        ReplMsg::SnapshotChunk {
            shard: 0,
            file: file.into(),
            index: 0,
            total: 1,
            bytes: bytes.to_vec(),
        }
    }

    /// A checkpoint of pool 1 at `watermark` (ckpt.log, prot.log) and WAL
    /// writes of `tag` after it, up to seq `last`.
    fn image(watermark: u64, last: u64, tag: u8) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
        let pmo = PmoId::new(1).unwrap();
        let mut ckpt = WalRecord::PoolCreate {
            id: pmo,
            name: "p".into(),
            size: 1 << 16,
            mode: OpenMode::ReadWrite,
        }
        .encode(watermark);
        WalRecord::AllocTable { pmo, live: vec![] }.encode_into(watermark, &mut ckpt);
        let prot = WalRecord::Checkpoint.encode(watermark);
        let mut wal = Vec::new();
        for seq in watermark + 1..=last {
            WalRecord::DataWrite {
                pmo,
                offset: seq,
                data: vec![tag],
            }
            .encode_into(seq, &mut wal);
        }
        (ckpt, prot, wal)
    }

    fn full_bootstrap(image: &(Vec<u8>, Vec<u8>, Vec<u8>), last: u64) -> Vec<ReplMsg> {
        vec![
            chunk(CKPT_FILE, &image.0),
            chunk(PROT_FILE, &image.1),
            ReplMsg::SnapshotDone { shard: 0 },
            ReplMsg::LogBatch {
                shard: 0,
                bytes: image.2.clone(),
            },
            ReplMsg::Heartbeat {
                shard: 0,
                durable_seq: last,
            },
        ]
    }

    fn files(dir: &Path) -> Vec<Vec<u8>> {
        [CKPT_FILE, PROT_FILE, WAL_FILE]
            .iter()
            .map(|f| fs::read(dir.join("shard-0").join(f)).unwrap_or_default())
            .collect()
    }

    /// A re-bootstrap builds beside the mirror: one cut short leaves the
    /// previous complete mirror untouched (and promotable), and a finished
    /// one replaces it. A first bootstrap cut short leaves nothing to
    /// promote.
    #[test]
    fn rebootstrap_replaces_the_mirror_only_once_caught_up() {
        let dir = std::env::temp_dir().join(format!("terp-follow-stage-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let config = ReplFollowerConfig::new(addr, &dir, 1);
        let state = FollowerState {
            mirrors: Mutex::new(Vec::new()),
            connected: AtomicBool::new(true),
            shutdown: AtomicBool::new(false),
        };
        let connect = |script: Vec<ReplMsg>, ack: Option<u64>| {
            std::thread::scope(|scope| {
                scope.spawn(|| fake_leader(&listener, script, ack));
                let stream = TcpStream::connect(addr).unwrap();
                assert!(
                    run_stream(stream, &config, &state).is_err(),
                    "the leader left"
                );
            });
        };
        let old = image(10, 15, b'o');
        let new = image(20, 24, b'n');

        connect(vec![chunk(CKPT_FILE, &old.0)], None);
        assert!(promotable(&state.mirrors.lock().unwrap()).is_err());

        connect(full_bootstrap(&old, 15), Some(15));
        assert_eq!(
            files(&dir),
            vec![old.0.clone(), old.1.clone(), old.2.clone()]
        );

        connect(
            vec![chunk(CKPT_FILE, &new.0), chunk(PROT_FILE, &new.1)],
            None,
        );
        assert_eq!(
            files(&dir),
            vec![old.0.clone(), old.1.clone(), old.2.clone()],
            "the cut-short bootstrap left the mirror alone"
        );
        assert!(promotable(&state.mirrors.lock().unwrap()).is_ok());

        connect(full_bootstrap(&new, 24), Some(24));
        assert_eq!(files(&dir), vec![new.0, new.1, new.2]);
        assert!(!staging_dir(&config, 0).exists());
        fs::remove_dir_all(&dir).ok();
    }

    /// A leader checkpoint reaches a streaming follower as the bytes
    /// `ckpt.log` grew by plus the new `prot.log`; the mirror's files
    /// follow it and the warm registry keeps applying, with no
    /// re-bootstrap. An append that does not follow the mirror's
    /// `ckpt.log` is a protocol error.
    #[test]
    fn checkpoint_growth_extends_the_mirror_in_stream() {
        let dir = std::env::temp_dir().join(format!("terp-follow-grow-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let config = ReplFollowerConfig::new(addr, &dir, 1);
        let state = FollowerState {
            mirrors: Mutex::new(Vec::new()),
            connected: AtomicBool::new(true),
            shutdown: AtomicBool::new(false),
        };
        let (ckpt, prot, wal) = image(10, 15, b'a');
        // The checkpoint at 16 re-images the page the WAL wrote.
        let pmo = PmoId::new(1).unwrap();
        let mut grown = WalRecord::PoolCreate {
            id: pmo,
            name: "p".into(),
            size: 1 << 16,
            mode: OpenMode::ReadWrite,
        }
        .encode(16);
        let mut page = vec![0u8; terp_pmo::PAGE_SIZE as usize];
        page[11..=15].fill(b'a');
        WalRecord::PageDelta {
            pmo,
            page: 0,
            data: page,
        }
        .encode_into(16, &mut grown);
        WalRecord::AllocTable { pmo, live: vec![] }.encode_into(16, &mut grown);
        let prot2 = WalRecord::WindowOpen { pmo }.encode(16);
        let prot2 = [WalRecord::Checkpoint.encode(16), prot2].concat();
        let after = WalRecord::DataWrite {
            pmo,
            offset: 100,
            data: b"z".to_vec(),
        }
        .encode(17);
        let mut script = full_bootstrap(&(ckpt.clone(), prot, wal), 15);
        script.extend([
            ReplMsg::CheckpointAppend {
                shard: 0,
                offset: ckpt.len() as u64,
                bytes: grown.clone(),
            },
            chunk(PROT_FILE, &prot2),
            ReplMsg::SnapshotDone { shard: 0 },
            ReplMsg::LogBatch {
                shard: 0,
                bytes: after.clone(),
            },
            ReplMsg::Heartbeat {
                shard: 0,
                durable_seq: 17,
            },
        ]);
        std::thread::scope(|scope| {
            scope.spawn(|| fake_leader(&listener, script, Some(17)));
            let stream = TcpStream::connect(addr).unwrap();
            assert!(run_stream(stream, &config, &state).is_err());
        });
        assert_eq!(
            files(&dir),
            vec![[ckpt.clone(), grown].concat(), prot2, after]
        );
        {
            let mirrors = state.mirrors.lock().unwrap();
            let m = &mirrors[0];
            assert_eq!((m.checkpoints, m.applied_seq), (1, 17));
            assert_eq!(m.open_windows.len(), 1, "prot.log restated the windows");
            let mut buf = [0u8; 2];
            m.registry
                .pool(pmo)
                .unwrap()
                .read_bytes(14, &mut buf)
                .unwrap();
            assert_eq!(&buf, b"aa");
        }

        // An append at the wrong offset.
        let script = vec![
            chunk(CKPT_FILE, &ckpt),
            chunk(PROT_FILE, &WalRecord::Checkpoint.encode(10)),
            ReplMsg::SnapshotDone { shard: 0 },
            ReplMsg::CheckpointAppend {
                shard: 0,
                offset: 1,
                bytes: vec![0],
            },
        ];
        std::thread::scope(|scope| {
            scope.spawn(|| fake_leader(&listener, script, None));
            let stream = TcpStream::connect(addr).unwrap();
            let err = run_stream(stream, &config, &state).unwrap_err();
            assert!(matches!(err, ServiceError::Protocol(_)), "{err}");
        });
        fs::remove_dir_all(&dir).ok();
    }
}
