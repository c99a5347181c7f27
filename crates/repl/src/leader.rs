//! The replication leader: checkpoint bootstrap plus continuous WAL
//! tailing.
//!
//! The leader is deliberately *outside* the service process's lock domain:
//! it watches the durable directory the service writes (per-shard
//! `shard-<i>/` stores) through [`TailReader`], so shipping adds zero work
//! to the service hot path — the WAL bytes the log writer already produces
//! *are* the replication stream.
//!
//! A follower bootstraps each shard from the store's checkpoint files,
//! `ckpt.log` and `prot.log`, shipped verbatim, then receives the WAL from
//! byte 0. A torn tail under a racing append reads as `NeedMore` and is
//! retried. A checkpoint truncates the WAL under the tail, which the tail
//! reports as `Truncated`; the leader then ships the checkpoint itself —
//! the bytes `ckpt.log` grew by since the follower's copy (or the whole
//! file after a compaction) and the new `prot.log` — and resends the WAL
//! from byte 0. Every record the truncation took is reflected in those
//! files, so the stream goes on without a re-bootstrap.
//!
//! A checkpoint can also land while a shard's files are being read. The
//! checkpoint's identity — `ckpt.log`'s length and first frame and
//! `prot.log`'s first frame, read from the file heads — is taken before
//! the files and again after the WAL tail is open; if it changed, the read
//! restarts, so the files and the WAL always come from one checkpoint.
//!
//! Each follower connection gets its own feeder thread and its own tail
//! offsets, so a slow follower never stalls a fast one. Acks flow back on
//! the same socket and update the per-shard `acked` marks;
//! [`ReplLeader::lag`] reports `shipped - acked` per shard.

use std::fs::File;
use std::io::{ErrorKind, Read, Seek, SeekFrom};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use terp_net::repl::{ReplMsg, SNAP_CHUNK};
use terp_net::{ServiceError, MAGIC, VERSION};
use terp_persist::store::read_or_empty;
use terp_persist::{
    read_log, PersistError, TailChunk, TailReader, TailStatus, CKPT_FILE, PROT_FILE, WAL_FILE,
};
use terp_trace::{EventKind, TraceRecorder};

use crate::conn::{disconnected, Conn};

/// Configuration for a [`ReplLeader`].
#[derive(Debug, Clone)]
pub struct ReplLeaderConfig {
    /// Durable root the service writes: one `shard-<i>/` store per shard.
    pub dir: PathBuf,
    /// Shard count (must match the service's `effective_shards()`).
    pub shards: usize,
    /// Feeder pacing when a pass over every shard ships nothing.
    pub idle_poll: Duration,
    /// Optional flight recorder for `ReplShip` events.
    pub tracer: Option<Arc<TraceRecorder>>,
}

impl ReplLeaderConfig {
    /// Defaults: 500 µs idle poll, no tracer.
    pub fn new(dir: impl Into<PathBuf>, shards: usize) -> Self {
        ReplLeaderConfig {
            dir: dir.into(),
            shards: shards.max(1),
            idle_poll: Duration::from_micros(500),
            tracer: None,
        }
    }

    /// Sets the idle poll interval.
    pub fn with_idle_poll(mut self, idle_poll: Duration) -> Self {
        self.idle_poll = idle_poll;
        self
    }

    /// Attaches a flight recorder.
    pub fn with_tracer(mut self, tracer: Arc<TraceRecorder>) -> Self {
        self.tracer = Some(tracer);
        self
    }
}

/// One shard's replication progress as the leader sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLag {
    /// Shard index.
    pub shard: u32,
    /// Highest WAL sequence number shipped to any follower.
    pub shipped_seq: u64,
    /// Highest sequence number acknowledged as applied by a follower.
    pub acked_seq: u64,
}

impl ShardLag {
    /// Records shipped but not yet acknowledged.
    pub fn records(&self) -> u64 {
        self.shipped_seq.saturating_sub(self.acked_seq)
    }
}

#[derive(Debug)]
struct LeaderShared {
    config: ReplLeaderConfig,
    shutdown: AtomicBool,
    shipped: Vec<AtomicU64>,
    acked: Vec<AtomicU64>,
    followers: AtomicUsize,
}

/// A running replication leader: accept loop plus one feeder per follower.
#[derive(Debug)]
pub struct ReplLeader {
    addr: SocketAddr,
    shared: Arc<LeaderShared>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ReplLeader {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// followers over the durable directory in `config`.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Disconnected`] if the listener cannot bind.
    pub fn start(config: ReplLeaderConfig, addr: impl ToSocketAddrs) -> Result<Self, ServiceError> {
        let listener = TcpListener::bind(addr).map_err(disconnected)?;
        listener.set_nonblocking(true).map_err(disconnected)?;
        let addr = listener.local_addr().map_err(disconnected)?;
        let shards = config.shards;
        let shared = Arc::new(LeaderShared {
            config,
            shutdown: AtomicBool::new(false),
            shipped: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            acked: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            followers: AtomicUsize::new(0),
        });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_shared = Arc::clone(&shared);
        let accept_conns = Arc::clone(&conns);
        let accept = std::thread::Builder::new()
            .name("repl-accept".into())
            .spawn(move || {
                while !accept_shared.shutdown.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let conn_shared = Arc::clone(&accept_shared);
                            let handle = std::thread::Builder::new()
                                .name("repl-feed".into())
                                .spawn(move || {
                                    conn_shared.followers.fetch_add(1, Ordering::AcqRel);
                                    // A dying follower is not a leader
                                    // error: drop the connection and let
                                    // it reconnect.
                                    let _ = serve_follower(stream, &conn_shared);
                                    conn_shared.followers.fetch_sub(1, Ordering::AcqRel);
                                })
                                .expect("spawn repl feeder");
                            accept_conns.lock().expect("conns lock").push(handle);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => break,
                    }
                }
            })
            .expect("spawn repl accept loop");

        Ok(ReplLeader {
            addr,
            shared,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address followers connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Followers currently connected.
    pub fn followers(&self) -> usize {
        self.shared.followers.load(Ordering::Acquire)
    }

    /// Per-shard shipped/acked progress.
    pub fn lag(&self) -> Vec<ShardLag> {
        (0..self.shared.config.shards)
            .map(|i| ShardLag {
                shard: i as u32,
                shipped_seq: self.shared.shipped[i].load(Ordering::Acquire),
                acked_seq: self.shared.acked[i].load(Ordering::Acquire),
            })
            .collect()
    }

    /// Stops the accept loop and every feeder, then joins them.
    pub fn shutdown(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.conns.lock().expect("conns lock").drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ReplLeader {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Serves one follower: handshake, checkpoint bootstrap, continuous
/// tailing.
fn serve_follower(stream: TcpStream, shared: &LeaderShared) -> Result<(), ServiceError> {
    let mut conn = Conn::new(stream)?;
    let handshake_deadline = Instant::now() + Duration::from_secs(10);

    match conn.recv_deadline(handshake_deadline)? {
        ReplMsg::Hello {
            magic,
            version,
            follower: _,
        } if magic == MAGIC && version == VERSION => {}
        ReplMsg::Hello { magic, version, .. } => {
            return Err(ServiceError::Protocol(format!(
                "follower handshake mismatch: magic {magic:#x} version {version}"
            )))
        }
        other => {
            return Err(ServiceError::Protocol(format!(
                "expected Hello, got {other:?}"
            )))
        }
    }
    conn.send(&ReplMsg::Welcome {
        version: VERSION,
        shards: shared.config.shards as u32,
    })?;
    match conn.recv_deadline(handshake_deadline)? {
        ReplMsg::Subscribe => {}
        other => {
            return Err(ServiceError::Protocol(format!(
                "expected Subscribe, got {other:?}"
            )))
        }
    }

    // Ack reader on a second handle; it only touches the acked marks.
    let mut ack_conn = conn.split()?;
    let ack_shared_shutdown = &shared.shutdown;
    let ack_acked = &shared.acked;
    std::thread::scope(|scope| {
        scope.spawn(move || {
            while !ack_shared_shutdown.load(Ordering::Acquire) {
                match ack_conn.recv() {
                    Ok(Some(ReplMsg::Ack { shard, applied_seq })) => {
                        if let Some(mark) = ack_acked.get(shard as usize) {
                            mark.fetch_max(applied_seq, Ordering::AcqRel);
                        }
                    }
                    Ok(Some(_)) | Ok(None) => {}
                    Err(_) => break,
                }
            }
        });
        let result = feed(&mut conn, shared);
        // Scope exit joins the ack thread. `feed` also returns with the
        // socket still up (shutdown, or a WAL that broke the stream's
        // rules), so close it: the ack loop and the follower both see the
        // connection end.
        conn.close();
        result
    })
}

/// The checkpoint files a bootstrap ships, in replay order.
pub(crate) const CHECKPOINT_FILES: [&str; 2] = [CKPT_FILE, PROT_FILE];

/// Bytes of a file's first frame that name it: length, CRC and seq.
const HEAD: usize = 16;

/// Which checkpoint a shard's files hold, read without reading the files:
/// `ckpt.log`'s length and first frame (a compaction rewrites the file at
/// a new seq) and `prot.log`'s first frame (every checkpoint rewrites it,
/// opening with its `Checkpoint` frame at the watermark).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CheckpointId {
    ckpt_len: u64,
    ckpt_head: [u8; HEAD],
    prot_head: [u8; HEAD],
}

/// A file's length and first [`HEAD`] bytes (zero-padded); a missing file
/// reads as empty.
fn head(path: &Path) -> Result<(u64, [u8; HEAD]), ServiceError> {
    let mut head = [0u8; HEAD];
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok((0, head)),
        Err(e) => return Err(PersistError::from(e).into()),
    };
    let len = file.metadata().map_err(PersistError::from)?.len();
    let mut first = Vec::with_capacity(HEAD);
    file.take(HEAD as u64)
        .read_to_end(&mut first)
        .map_err(PersistError::from)?;
    head[..first.len()].copy_from_slice(&first);
    Ok((len, head))
}

impl CheckpointId {
    fn read(sdir: &Path) -> Result<Self, ServiceError> {
        let (ckpt_len, ckpt_head) = head(&sdir.join(CKPT_FILE))?;
        let (_, prot_head) = head(&sdir.join(PROT_FILE))?;
        Ok(CheckpointId {
            ckpt_len,
            ckpt_head,
            prot_head,
        })
    }
}

/// What a follower needs to reach a shard's current checkpoint.
#[derive(Debug)]
struct CheckpointImage {
    id: CheckpointId,
    /// Whole frames of `ckpt.log`: the file from its start, or — when
    /// `append_at` is set — only what follows the follower's copy of it.
    ckpt: Vec<u8>,
    append_at: Option<u64>,
    prot: Vec<u8>,
    /// Seq of `prot.log`'s `Checkpoint` frame (`None` before the first
    /// checkpoint).
    watermark: Option<u64>,
}

/// Reads `sdir`'s checkpoint files. `held` is the follower's copy of
/// `ckpt.log` (identity, bytes shipped): while no compaction rewrote the
/// file, only its growth since then is read.
fn read_image(
    sdir: &Path,
    held: Option<(CheckpointId, u64)>,
) -> Result<CheckpointImage, ServiceError> {
    let id = CheckpointId::read(sdir)?;
    let append_at = held
        .filter(|(had, shipped)| had.ckpt_head == id.ckpt_head && *shipped <= id.ckpt_len)
        .map(|(_, shipped)| shipped);
    let mut ckpt = Vec::new();
    match File::open(sdir.join(CKPT_FILE)) {
        Ok(mut f) => {
            f.seek(SeekFrom::Start(append_at.unwrap_or(0)))
                .and_then(|_| f.read_to_end(&mut ckpt))
                .map_err(PersistError::from)?;
        }
        Err(e) if e.kind() == ErrorKind::NotFound => {}
        Err(e) => return Err(PersistError::from(e).into()),
    }
    // Whole frames only: a checkpoint may be appending right now.
    ckpt.truncate(read_log(&ckpt).consumed);
    let prot = read_or_empty(&sdir.join(PROT_FILE))?;
    let watermark = read_log(&prot).records.first().map(|(seq, _)| *seq);
    Ok(CheckpointImage {
        id,
        ckpt,
        append_at,
        prot,
        watermark,
    })
}

/// Opens `sdir`'s WAL tail for `image` (first chunk read), then checks the
/// checkpoint's identity again: `None` if a checkpoint landed since the
/// image was read, whose WAL truncation the old files do not cover.
fn open_tail(
    sdir: &Path,
    image: &CheckpointImage,
) -> Result<Option<(TailReader, TailChunk)>, ServiceError> {
    let mut tail = TailReader::new(&sdir.join(WAL_FILE));
    let first = tail.poll()?;
    Ok((CheckpointId::read(sdir)? == image.id).then_some((tail, first)))
}

/// A consistent image of one shard: its checkpoint files and its WAL tail
/// from byte 0, retried until no checkpoint landed between the two.
fn open_shard(
    sdir: &Path,
    held: Option<(CheckpointId, u64)>,
) -> Result<(CheckpointImage, TailReader, TailChunk), ServiceError> {
    loop {
        let image = read_image(sdir, held)?;
        if let Some((tail, first)) = open_tail(sdir, &image)? {
            return Ok((image, tail, first));
        }
    }
}

/// Sends `image` for `shard`: `ckpt.log` (whole, or as its appended
/// bytes), `prot.log`, then `SnapshotDone`.
fn send_image(conn: &mut Conn, shard: u32, image: &CheckpointImage) -> Result<(), ServiceError> {
    match image.append_at {
        Some(offset) => {
            for (i, piece) in image.ckpt.chunks(SNAP_CHUNK).enumerate() {
                conn.send(&ReplMsg::CheckpointAppend {
                    shard,
                    offset: offset + (i * SNAP_CHUNK) as u64,
                    bytes: piece.to_vec(),
                })?;
            }
        }
        None => send_file(conn, shard, CKPT_FILE, &image.ckpt)?,
    }
    send_file(conn, shard, PROT_FILE, &image.prot)?;
    conn.send(&ReplMsg::SnapshotDone { shard })
}

fn send_file(conn: &mut Conn, shard: u32, name: &str, bytes: &[u8]) -> Result<(), ServiceError> {
    let pieces: Vec<&[u8]> = if bytes.is_empty() {
        vec![&[]]
    } else {
        bytes.chunks(SNAP_CHUNK).collect()
    };
    let total = pieces.len() as u32;
    for (index, piece) in pieces.into_iter().enumerate() {
        conn.send(&ReplMsg::SnapshotChunk {
            shard,
            file: name.to_string(),
            index: index as u32,
            total,
            bytes: piece.to_vec(),
        })?;
    }
    Ok(())
}

/// Per-shard shipping state.
#[derive(Debug)]
struct ShardFeed {
    sdir: PathBuf,
    /// The checkpoint the follower holds, and how much of `ckpt.log`.
    id: CheckpointId,
    ckpt_shipped: u64,
    tail: TailReader,
    /// Highest seq the next shipped record may carry: the WAL is
    /// contiguous from the checkpoint's watermark.
    expected: u64,
    /// Last seq shipped (or the checkpoint watermark), for heartbeats.
    last_seq: u64,
}

impl ShardFeed {
    fn new(sdir: PathBuf, image: &CheckpointImage, tail: TailReader) -> Self {
        let mut feed = ShardFeed {
            sdir,
            id: image.id,
            ckpt_shipped: 0,
            tail,
            expected: 0,
            last_seq: 0,
        };
        feed.shipped(image, None);
        feed
    }

    /// Records that the follower now holds `image`; `tail` (if any)
    /// replaces the truncated WAL's.
    fn shipped(&mut self, image: &CheckpointImage, tail: Option<TailReader>) {
        self.id = image.id;
        self.ckpt_shipped = image.append_at.unwrap_or(0) + image.ckpt.len() as u64;
        if let Some(tail) = tail {
            self.tail = tail;
        }
        if let Some(w) = image.watermark {
            self.expected = w + 1;
            self.last_seq = self.last_seq.max(w);
        }
    }
}

/// Bootstrap + tail loop. Any send error means the follower is gone.
fn feed(conn: &mut Conn, shared: &LeaderShared) -> Result<(), ServiceError> {
    let shards = shared.config.shards;
    let mut feeds: Vec<ShardFeed> = Vec::with_capacity(shards);

    // Checkpoint bootstrap, shard by shard: ckpt.log and prot.log
    // verbatim, then the WAL from byte 0. Records the checkpoint already
    // reflects are skipped by the follower via the AllocTable watermarks,
    // exactly as local recovery does.
    for shard in 0..shards {
        let sdir = shared.config.dir.join(format!("shard-{shard}"));
        let (image, tail, first) = open_shard(&sdir, None)?;
        send_image(conn, shard as u32, &image)?;
        let mut feed = ShardFeed::new(sdir, &image, tail);
        ship(conn, shared, shard, &mut feed, first)?;
        feeds.push(feed);
    }

    let mut idle_passes = 0u32;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return Ok(());
        }
        let mut shipped_any = false;
        for (shard, feed) in feeds.iter_mut().enumerate() {
            let chunk = feed.tail.poll()?;
            shipped_any |= ship(conn, shared, shard, feed, chunk)?;
        }
        if !shipped_any {
            // Periodic heartbeats keep follower lag measurable at idle and
            // double as a liveness probe of the socket.
            if idle_passes.is_multiple_of(16) {
                for (shard, feed) in feeds.iter().enumerate() {
                    conn.send(&ReplMsg::Heartbeat {
                        shard: shard as u32,
                        durable_seq: feed.last_seq,
                    })?;
                }
            }
            idle_passes = idle_passes.wrapping_add(1);
            std::thread::sleep(shared.config.idle_poll);
        } else {
            idle_passes = 0;
        }
    }
}

/// Ships one tailed chunk of `shard`'s WAL. Returns whether anything was
/// sent. When a checkpoint truncated the WAL, the records since the last
/// poll are only in the checkpoint files: their growth ships first, then
/// the new WAL from byte 0.
fn ship(
    conn: &mut Conn,
    shared: &LeaderShared,
    shard: usize,
    feed: &mut ShardFeed,
    mut chunk: TailChunk,
) -> Result<bool, ServiceError> {
    let mut sent = false;
    if chunk.status == TailStatus::Truncated {
        let (image, tail, first) = open_shard(&feed.sdir, Some((feed.id, feed.ckpt_shipped)))?;
        send_image(conn, shard as u32, &image)?;
        feed.shipped(&image, Some(tail));
        chunk = first;
        sent = true;
    }
    for (seq, _) in &chunk.records {
        if *seq > feed.expected {
            // The tail reports every truncation, so this is a bug, not a
            // race: never ship a log with a hole in it.
            return Err(ServiceError::Protocol(format!(
                "shard {shard}: WAL jumped from seq {} to {seq}",
                feed.expected
            )));
        }
        feed.expected = seq + 1;
    }
    if chunk.bytes.is_empty() {
        return Ok(sent);
    }
    for piece in chunk.bytes.chunks(SNAP_CHUNK) {
        conn.send(&ReplMsg::LogBatch {
            shard: shard as u32,
            bytes: piece.to_vec(),
        })?;
    }
    if let Some(tracer) = &shared.config.tracer {
        for (seq, _) in &chunk.records {
            tracer.record(EventKind::ReplShip {
                shard: shard as u32,
                seq: *seq,
            });
        }
    }
    if let Some((seq, _)) = chunk.records.last() {
        feed.last_seq = *seq;
        shared.shipped[shard].fetch_max(*seq, Ordering::AcqRel);
        conn.send(&ReplMsg::Heartbeat {
            shard: shard as u32,
            durable_seq: *seq,
        })?;
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use terp_persist::{recover_segments, DurableStore, WalRecord};
    use terp_pmo::{OpenMode, PmoId, PmoRegistry};

    /// Writes `data` at offset 0 of pool 1 in both the registry and the log.
    fn write(store: &mut DurableStore, reg: &mut PmoRegistry, data: &[u8]) {
        write_at(store, reg, 0, data);
    }

    fn write_at(store: &mut DurableStore, reg: &mut PmoRegistry, offset: u64, data: &[u8]) {
        let pmo = PmoId::new(1).unwrap();
        reg.pool_mut(pmo)
            .unwrap()
            .write_bytes(offset, data)
            .unwrap();
        store
            .log(&WalRecord::DataWrite {
                pmo,
                offset,
                data: data.to_vec(),
            })
            .unwrap();
        store.sync().unwrap();
    }

    fn read(image: &CheckpointImage, wal: &[u8]) -> Vec<u8> {
        let (state, _) = recover_segments(&image.ckpt, &image.prot, wal).unwrap();
        let mut buf = [0u8; 2];
        state
            .registry
            .pool(PmoId::new(1).unwrap())
            .unwrap()
            .read_bytes(0, &mut buf)
            .unwrap();
        buf.to_vec()
    }

    /// A store with pool 1, checkpointed once at "v1", then "v2" logged.
    fn store_at_v2(tag: &str) -> (PathBuf, DurableStore, PmoRegistry) {
        let dir = std::env::temp_dir().join(format!("terp-leader-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let (mut store, _, _) = DurableStore::open(&dir).unwrap();
        let mut reg = PmoRegistry::new();
        let id = reg.create("race", 1 << 16, OpenMode::ReadWrite).unwrap();
        store
            .log(&WalRecord::PoolCreate {
                id,
                name: "race".into(),
                size: 1 << 16,
                mode: OpenMode::ReadWrite,
            })
            .unwrap();
        write(&mut store, &mut reg, b"v1");
        store.checkpoint_incremental(reg.iter_mut(), &[]).unwrap();
        write(&mut store, &mut reg, b"v2"); // only in the WAL
        (dir, store, reg)
    }

    /// A checkpoint landing between reading the checkpoint files and
    /// opening the WAL tail must restart the read: the old files plus a
    /// WAL truncated past them would silently lose records.
    #[test]
    fn checkpoint_between_files_and_tail_restarts_the_read() {
        let (dir, mut store, mut reg) = store_at_v2("race");
        // The race: the files are read, then a checkpoint lands.
        let stale = read_image(&dir, None).unwrap();
        write(&mut store, &mut reg, b"v3");
        store.checkpoint_incremental(reg.iter_mut(), &[]).unwrap();
        assert!(
            open_tail(&dir, &stale).unwrap().is_none(),
            "the changed checkpoint is caught"
        );
        // Without the re-check, the stale files and the truncated WAL
        // would have recovered the first checkpoint's value.
        let truncated = fs::read(dir.join(WAL_FILE)).unwrap();
        assert_eq!(read(&stale, &truncated), b"v1");
        let (image, _, first) = open_shard(&dir, None).unwrap();
        assert_eq!(read(&image, &first.bytes), b"v3");
        drop(store);
        fs::remove_dir_all(&dir).ok();
    }

    /// After a checkpoint, a follower holding `ckpt.log` gets only the
    /// bytes it grew by; after a compaction rewrote it, the whole file.
    #[test]
    fn checkpoint_growth_ships_as_an_append_and_a_compaction_whole() {
        let (dir, mut store, mut reg) = store_at_v2("growth");
        // Eight resident pages, so rewriting one page per checkpoint
        // appends a few times before the log passes twice their size.
        for page in 1..8 {
            write_at(&mut store, &mut reg, page * terp_pmo::PAGE_SIZE, b"p");
        }
        store.checkpoint_incremental(reg.iter_mut(), &[]).unwrap();
        let (first, _, _) = open_shard(&dir, None).unwrap();
        let mut held = (first.id, first.ckpt.len() as u64);
        let mut mirror = first.ckpt;
        let (mut appends, mut wholes) = (0, 0);
        for round in 0..12u8 {
            write(&mut store, &mut reg, &[b'r', round]);
            store.checkpoint_incremental(reg.iter_mut(), &[]).unwrap();
            let image = read_image(&dir, Some(held)).unwrap();
            match image.append_at {
                Some(at) => {
                    assert_eq!(at, mirror.len() as u64);
                    mirror.extend_from_slice(&image.ckpt);
                    appends += 1;
                }
                None => {
                    mirror = image.ckpt.clone();
                    wholes += 1;
                }
            }
            assert_eq!(
                mirror,
                fs::read(dir.join(CKPT_FILE)).unwrap(),
                "round {round}"
            );
            assert_eq!(
                image.watermark,
                read_log(&image.prot).records.first().map(|r| r.0)
            );
            held = (image.id, mirror.len() as u64);
        }
        assert!(
            appends > 0 && wholes > 0,
            "{appends} appends, {wholes} compactions"
        );
        drop(store);
        fs::remove_dir_all(&dir).ok();
    }
}
