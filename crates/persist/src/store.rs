//! The durable store: one directory holding a WAL and the checkpoint log
//! (`ckpt.log` + `prot.log`).
//!
//! [`DurableStore::open`] is the single entry point: it loads whatever the
//! directory contains (possibly nothing, possibly the debris of a crash),
//! runs full [`crate::recovery::recover_segments`], and hands back both the
//! recovered state and a live writer positioned after the last durable
//! record. From then on the owner logs every mutation through
//! [`DurableStore::log`] and checkpoints whenever
//! [`DurableStore::checkpoint_due`] says so, which bounds log length (and
//! therefore recovery time).
//!
//! **Write path.** Appends go through the pipelined writer
//! ([`crate::writer::AsyncWalWriter`]): they return at *submit*, and a
//! per-store background thread batches, writes and fsyncs, publishing a
//! [`DurabilityGate`] watermark. [`DurableStore::sync_to`] blocks until a
//! given record is durable and [`DurableStore::ticket`] hands out a
//! waitable [`DurableTicket`] — the submit/durable split callers build
//! visibility gating on.
//!
//! **Checkpoint** ([`DurableStore::start_checkpoint`]), crash-safe at
//! every step. The caller only logs a `Checkpoint` record — its seq is the
//! *watermark* — and copies out the state dirtied since the last
//! checkpoint; the log writer thread does the I/O as a barrier job
//! ([`AsyncWalWriter::barrier`]), once every record up to the watermark is
//! durable and before it writes any later one:
//!
//! 1. for each dirty pool, append `PoolCreate` + one [`WalRecord::PageDelta`]
//!    per dirty page + a final [`WalRecord::AllocTable`] (all at the
//!    watermark seq) to `ckpt.log`, one fsync for the batch;
//! 2. atomically rewrite `prot.log` (temp + rename): a `Checkpoint` frame
//!    at the watermark, the caller's current protection records and the
//!    live root directory;
//! 3. truncate the WAL.
//!
//! **Compaction.** `ckpt.log` only grows by appends, so one size rule keeps
//! it bounded: when its length plus the dirty pages' bytes would exceed
//! twice the resident bytes of the pools passed in, the checkpoint instead
//! writes *every* pool's resident pages + `AllocTable` to `ckpt.log.tmp`,
//! fsyncs it and renames it over `ckpt.log`. The choice is made from page
//! counts before anything is encoded. Under the caller's lock a checkpoint
//! only copies page images into their frames; the log writer thread
//! computes their checksums. A crash before the rename leaves the old file and
//! the untruncated WAL, which together still recover everything.
//!
//! Recovery replays `ckpt.log`, then `prot.log`, then `wal.log` — each
//! decoded independently, so a torn tail in one never discards another.
//! `AllocTable` replay raises the pool's watermark, which is what keeps a
//! crash between steps 1 and 3 safe: the WAL's surviving records at or
//! below the watermark are recognized as already-checkpointed and skipped.

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use terp_pmo::{Pmo, PmoId, PAGE_SIZE};

use crate::error::PersistError;
use crate::record::{read_log, seal_frames, WalRecord};
use crate::recovery::{recover_segments, RecoveredState, RecoveryReport};
use crate::wal::{WalStats, WalWriter};
use crate::writer::{AsyncWalWriter, BarrierTicket, DurabilityGate, DurableTicket};

/// File name of the write-ahead log inside a store directory.
pub const WAL_FILE: &str = "wal.log";
/// File name of the checkpoint log: a WAL-framed stream of
/// `PoolCreate`/`PageDelta`/`AllocTable` batches, appended by each
/// checkpoint and rewritten whole when it compacts.
pub const CKPT_FILE: &str = "ckpt.log";
/// File name of the protection/roots image atomically rewritten by each
/// checkpoint: a `Checkpoint` frame at the watermark, then the current
/// `WindowOpen`/`SessionOpen`/`RootSet` records — the state the truncated
/// WAL would otherwise forget.
pub const PROT_FILE: &str = "prot.log";

/// Records a store takes between checkpoints: once this many have been
/// logged since the last one, [`DurableStore::checkpoint_due`] turns true.
/// At this length a WAL recovers in about 12 ms (`results/BENCH_persist.json`).
pub const CHECKPOINT_EVERY: u64 = 32_768;

/// A directory-backed durable store for a set of pools.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    writer: AsyncWalWriter,
    /// Live image of the root directory (`RootSet` records seen so far).
    /// Checkpoint truncation discards the log, so each checkpoint carries
    /// this map into `prot.log`, keeping data-structure roots findable
    /// across any number of checkpoints.
    roots: BTreeMap<(PmoId, u32), u64>,
    /// Records appended since the last checkpoint — the trigger signal.
    records_since_ckpt: u64,
    /// Length of the valid prefix of `ckpt.log`: what the compaction rule
    /// compares against the pools' resident bytes.
    ckpt_len: u64,
    /// Checkpoints taken since open.
    checkpoints: u64,
}

/// Reads one of a store's files; a missing file reads as empty.
pub fn read_or_empty(path: &Path) -> Result<Vec<u8>, PersistError> {
    match fs::read(path) {
        Ok(bytes) => Ok(bytes),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e.into()),
    }
}

/// Writes `bytes` to `path` atomically: temp file, fsync, rename over,
/// then fsync the directory so the rename is durable before the WAL
/// truncation that relies on it.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Encodes one pool's checkpoint batch at seq `watermark` onto `out`:
/// `PoolCreate`, one `PageDelta` per page in `pages`, then the pool's
/// `AllocTable`. Returns the number of pages written. The page frames are
/// unsealed: [`seal_frames`] must run over `out` before it is written.
pub(crate) fn encode_pool<'p>(
    out: &mut Vec<u8>,
    pool: &Pmo,
    pages: impl Iterator<Item = (u64, &'p [u8])>,
    watermark: u64,
) -> usize {
    WalRecord::PoolCreate {
        id: pool.id(),
        name: pool.name().to_string(),
        size: pool.size(),
        mode: pool.mode(),
    }
    .encode_into(watermark, out);
    let mut written = 0;
    for (page, bytes) in pages {
        WalRecord::encode_page_delta_unsealed(watermark, pool.id(), page, bytes, out);
        written += 1;
    }
    // AllocTable LAST within the pool's batch: its replay raises the pool's
    // watermark to this seq, which would self-skip the PageDeltas above if
    // it came first.
    WalRecord::AllocTable {
        pmo: pool.id(),
        live: pool.allocator().live_blocks().collect(),
    }
    .encode_into(watermark, out);
    written
}

/// Signature kept only for the frozen storage probe in `perfbench/`, which
/// opens stores as `open_with_mode(dir, FsyncPolicy::Always, 32, mode)`.
/// The store has one write path; the arguments are ignored.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Every batch is fsynced (what the pipelined writer always does).
    Always,
}

/// See [`FsyncPolicy`]: kept only for the frozen storage probe.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalMode {
    /// Ignored.
    Sync,
    /// Ignored.
    Async,
}

impl DurableStore {
    /// Opens (creating if needed) the store at `dir`, recovering whatever
    /// state its checkpoint log and WAL describe, and starts its log
    /// writer. The returned [`RecoveredState`] holds the rebuilt registry —
    /// with every crash-open exposure window force-closed and resealed —
    /// and the [`RecoveryReport`] the metrics of the run.
    ///
    /// # Errors
    ///
    /// I/O failures or checkpoint/log inconsistency (see
    /// [`crate::recovery::recover`]), and [`PersistError::RetiredFormat`]
    /// for a directory holding full `pool-*.snap` snapshots. A torn log
    /// tail is *not* an error: it is truncated away and reported.
    pub fn open(dir: &Path) -> Result<(Self, RecoveredState, RecoveryReport), PersistError> {
        fs::create_dir_all(dir)?;
        for entry in fs::read_dir(dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("pool-") && name.ends_with(".snap") {
                // Recovering without it would silently lose its pool.
                return Err(PersistError::RetiredFormat {
                    path: dir.join(&*name),
                });
            }
        }
        let ckpt_path = dir.join(CKPT_FILE);
        let ckpt_bytes = read_or_empty(&ckpt_path)?;
        let prot_bytes = read_or_empty(&dir.join(PROT_FILE))?;
        let wal_path = dir.join(WAL_FILE);
        let log_bytes = read_or_empty(&wal_path)?;
        let (state, report) = recover_segments(&ckpt_bytes, &prot_bytes, &log_bytes)?;
        let ckpt = read_log(&ckpt_bytes);
        if ckpt.dropped > 0 {
            // A crash mid-append tore the checkpoint log: cut the tear away
            // so the next checkpoint's frames follow the last valid one
            // instead of hiding behind garbage.
            let f = OpenOptions::new().write(true).open(&ckpt_path)?;
            f.set_len(ckpt.consumed as u64)?;
            f.sync_data()?;
        }
        // Reopening truncates the torn tail physically and positions the
        // writer after the last valid record.
        let (mut wal, _contents) = WalWriter::open(&wal_path)?;
        // Checkpoint watermarks may exceed every surviving record's seq
        // (the WAL is truncated at checkpoints); keep seq strictly
        // increasing past all durable sources.
        let floor = [ckpt.last_seq(), read_log(&prot_bytes).last_seq()]
            .into_iter()
            .flatten()
            .map(|s| s + 1)
            .max()
            .unwrap_or(0);
        if floor > wal.next_seq() {
            wal.set_next_seq(floor);
        }
        Ok((
            DurableStore {
                dir: dir.to_path_buf(),
                writer: AsyncWalWriter::spawn(wal),
                roots: state.roots.clone(),
                records_since_ckpt: 0,
                ckpt_len: ckpt.consumed as u64,
                checkpoints: 0,
            },
            state,
            report,
        ))
    }

    #[doc(hidden)]
    /// Forwards to [`DurableStore::open`]; kept only for the frozen storage
    /// probe (see [`FsyncPolicy`]).
    pub fn open_with_mode(
        dir: &Path,
        _fsync: FsyncPolicy,
        _group: usize,
        _mode: WalMode,
    ) -> Result<(Self, RecoveredState, RecoveryReport), PersistError> {
        Self::open(dir)
    }

    /// Submits one record and returns its sequence number. The record is
    /// durable once [`DurableStore::watermark`] passes its seq (wait with
    /// [`DurableStore::sync_to`] or a [`DurableStore::ticket`]).
    pub fn log(&mut self, record: &WalRecord) -> Result<u64, PersistError> {
        if let WalRecord::RootSet { pmo, key, oid } = record {
            if *oid == 0 {
                self.roots.remove(&(*pmo, *key));
            } else {
                self.roots.insert((*pmo, *key), *oid);
            }
        }
        let seq = self.writer.append(record)?;
        self.records_since_ckpt += 1;
        Ok(seq)
    }

    /// Blocks until everything submitted so far is durable.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.writer.sync()
    }

    /// Blocks until the record with sequence number `seq` is durable.
    /// Returns immediately if the watermark already passed it.
    pub fn sync_to(&mut self, seq: u64) -> Result<(), PersistError> {
        self.writer.gate().wait_for(seq)
    }

    /// A waitable completion handle for the record with sequence number
    /// `seq` — wait on it *after* releasing whatever lock guarded the
    /// submission.
    pub fn ticket(&self, seq: u64) -> DurableTicket {
        self.writer.gate().ticket(seq)
    }

    /// The shared durability gate (watermark + completion notification).
    pub fn gate(&self) -> Arc<DurabilityGate> {
        self.writer.gate()
    }

    /// The durability watermark: every record with `seq < watermark()` is
    /// durable.
    pub fn watermark(&self) -> u64 {
        self.writer.gate().watermark()
    }

    /// Whether [`CHECKPOINT_EVERY`] records have been logged since the last
    /// checkpoint: the owner should call [`DurableStore::start_checkpoint`]
    /// at its next consistent point.
    pub fn checkpoint_due(&self) -> bool {
        self.records_since_ckpt >= CHECKPOINT_EVERY
    }

    /// Checkpoints taken since the store was opened.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// [`DurableStore::start_checkpoint`], then waits for the checkpoint's
    /// files to be written and the WAL truncated. Returns the number of
    /// page images written.
    ///
    /// # Errors
    ///
    /// See [`DurableStore::start_checkpoint`].
    pub fn checkpoint_incremental<'a>(
        &mut self,
        pools: impl IntoIterator<Item = &'a mut Pmo>,
        protection: &[WalRecord],
    ) -> Result<usize, PersistError> {
        let (pages, done) = self.start_checkpoint(pools, protection)?;
        done.wait()?;
        Ok(pages)
    }

    /// Starts a checkpoint: logs its `Checkpoint` record, copies out the
    /// pages dirtied since the last checkpoint (or, when the compaction
    /// rule fires, every resident page), and hands the file writes and the
    /// WAL truncation to the log writer thread, ordered after that record.
    /// Returns without waiting for any I/O: the number of page images the
    /// checkpoint writes, and a ticket that completes when it is done.
    ///
    /// No protection-quiescent point is needed: pass the current protection
    /// state (`WindowOpen`/`SessionOpen` records for every open
    /// window/session) in `protection` — it is preserved in `prot.log` so a
    /// later crash still knows exactly what to reseal. The live root
    /// directory is carried automatically.
    ///
    /// Every pool whose mutations were logged through this store must be
    /// passed; clean pools cost nothing unless the checkpoint compacts.
    ///
    /// # Errors
    ///
    /// The log writer's stored I/O error. A checkpoint whose writes fail
    /// poisons the writer like a failed log write: the WAL is left
    /// untruncated (it still recovers everything) and no later record
    /// becomes durable.
    pub fn start_checkpoint<'a>(
        &mut self,
        pools: impl IntoIterator<Item = &'a mut Pmo>,
        protection: &[WalRecord],
    ) -> Result<(usize, BarrierTicket), PersistError> {
        let watermark = self.log(&WalRecord::Checkpoint)?;
        let mut pools: Vec<&'a mut Pmo> = pools.into_iter().collect();

        // Dirty state for the checkpoint log — or, past the size bound,
        // every pool's full image in its place. The bound is checked from
        // page counts, before anything is encoded.
        let bytes = |pages: usize| pages as u64 * PAGE_SIZE;
        let resident: u64 = pools.iter().map(|p| bytes(p.resident_pages())).sum();
        let dirty: u64 = pools.iter().map(|p| bytes(p.dirty_page_count())).sum();
        let compact = self.ckpt_len + dirty > 2 * resident;
        let mut ckpt: Vec<u8> = Vec::new();
        let mut pages = 0usize;
        if compact {
            for pool in &pools {
                pages += encode_pool(&mut ckpt, pool, pool.export_pages(), watermark);
            }
            self.ckpt_len = ckpt.len() as u64;
        } else {
            for pool in pools.iter().filter(|p| p.is_checkpoint_dirty()) {
                pages += encode_pool(&mut ckpt, pool, pool.export_dirty_pages(), watermark);
            }
            self.ckpt_len += ckpt.len() as u64;
        }

        // The protection + roots image. Always rewritten — even when no
        // window is open — so windows closed since the last checkpoint stop
        // being re-resealed. (A stale prot.log after a crash mid-checkpoint
        // only over-reseals, which is safe.) Its first frame is the
        // `Checkpoint` at the watermark, so the file names the checkpoint it
        // belongs to: log shipping uses that to notice a checkpoint landing
        // mid-bootstrap.
        let mut prot: Vec<u8> = Vec::new();
        WalRecord::Checkpoint.encode_into(watermark, &mut prot);
        for rec in protection {
            rec.encode_into(watermark, &mut prot);
        }
        for (&(pmo, key), &oid) in &self.roots {
            WalRecord::RootSet { pmo, key, oid }.encode_into(watermark, &mut prot);
        }

        let dir = self.dir.clone();
        let done = self.writer.barrier(Box::new(move |wal: &mut WalWriter| {
            // Checksums are computed here, off the caller's lock.
            seal_frames(&mut ckpt);
            let ckpt_path = dir.join(CKPT_FILE);
            if compact {
                write_atomic(&ckpt_path, &ckpt)?;
            } else if !ckpt.is_empty() {
                let mut f = OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&ckpt_path)?;
                f.write_all(&ckpt)?;
                f.sync_data()?;
            }
            write_atomic(&dir.join(PROT_FILE), &prot)?;
            // The WAL's records are superseded: data by the checkpoint log
            // and its AllocTable watermarks, protection by prot.log.
            wal.truncate()
        }))?;
        for pool in &mut pools {
            pool.clear_dirty();
        }
        self.records_since_ckpt = 0;
        self.checkpoints += 1;
        Ok((pages, done))
    }

    /// The live root directory (every `RootSet` logged or recovered,
    /// last-writer-wins, cleared slots removed).
    pub fn roots(&self) -> &BTreeMap<(PmoId, u32), u64> {
        &self.roots
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the write-ahead log file.
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join(WAL_FILE)
    }

    /// Writer activity counters.
    pub fn stats(&self) -> WalStats {
        self.writer.stats()
    }

    /// Sequence number the next logged record will receive.
    pub fn next_seq(&self) -> u64 {
        self.writer.next_seq()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use terp_pmo::{OpenMode, PmoId, PmoRegistry};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("terp-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn id(raw: u16) -> PmoId {
        PmoId::new(raw).unwrap()
    }

    /// Drives a live registry + store pair through a small workload.
    fn workload(store: &mut DurableStore, reg: &mut PmoRegistry) {
        let pid = reg.create("wk", 1 << 18, OpenMode::ReadWrite).unwrap();
        store
            .log(&WalRecord::PoolCreate {
                id: pid,
                name: "wk".into(),
                size: 1 << 18,
                mode: OpenMode::ReadWrite,
            })
            .unwrap();
        let oid = reg.pool_mut(pid).unwrap().pmalloc(128).unwrap();
        store
            .log(&WalRecord::Alloc {
                pmo: pid,
                size: 128,
                offset: oid.offset(),
            })
            .unwrap();
        reg.pool_mut(pid)
            .unwrap()
            .write_bytes(oid.offset(), b"durable bytes")
            .unwrap();
        store
            .log(&WalRecord::DataWrite {
                pmo: pid,
                offset: oid.offset(),
                data: b"durable bytes".to_vec(),
            })
            .unwrap();
        store.log(&WalRecord::WindowOpen { pmo: pid }).unwrap();
        store.sync().unwrap();
    }

    fn assert_recovered(state: &RecoveredState) {
        let pool = state.registry.pool(id(1)).unwrap();
        let (off, _) = pool.allocator().live_blocks().next().unwrap();
        let mut buf = [0u8; 13];
        pool.read_bytes(off, &mut buf).unwrap();
        assert_eq!(&buf, b"durable bytes");
        assert_eq!(state.resealed, vec![id(1)], "crash-open window resealed");
    }

    #[test]
    fn reopen_after_crash_recovers_logged_state() {
        let dir = tmp_dir("reopen");
        {
            let (mut store, _, _) = DurableStore::open(&dir).unwrap();
            let mut reg = PmoRegistry::new();
            workload(&mut store, &mut reg);
            // Store dropped without checkpoint = crash.
        }
        let (store, state, report) = DurableStore::open(&dir).unwrap();
        assert_recovered(&state);
        assert_eq!(report.pools_recovered, 1);
        assert_eq!(report.windows_resealed, 1);
        assert!(report.recovery_ns > 0);
        assert!(store.next_seq() >= 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn roots_survive_checkpoint_truncation_and_reopen() {
        let dir = tmp_dir("roots");
        let packed = 0x0040_0000_0000_0080u64;
        {
            let (mut store, _, _) = DurableStore::open(&dir).unwrap();
            let mut reg = PmoRegistry::new();
            workload(&mut store, &mut reg);
            store.log(&WalRecord::WindowClose { pmo: id(1) }).unwrap();
            for (key, oid) in [(7, packed), (8, 0x0040_0000_0000_00C0), (8, 0)] {
                store
                    .log(&WalRecord::RootSet {
                        pmo: id(1),
                        key,
                        oid,
                    })
                    .unwrap();
            }
            // The checkpoint truncates the WAL; only the live root must be
            // carried into prot.log.
            store.checkpoint_incremental(reg.iter_mut(), &[]).unwrap();
            assert_eq!(fs::metadata(store.wal_path()).unwrap().len(), 0);
            assert!(fs::metadata(dir.join(PROT_FILE)).unwrap().len() > 0);
            assert_eq!(store.roots().len(), 1);
        }
        let (store, state, report) = DurableStore::open(&dir).unwrap();
        assert_eq!(report.roots_recovered, 1);
        assert_eq!(state.roots.get(&(id(1), 7)), Some(&packed));
        assert!(!state.roots.contains_key(&(id(1), 8)), "cleared slot gone");
        assert_eq!(store.roots().get(&(id(1), 7)), Some(&packed));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_reported_and_physically_truncated() {
        let dir = tmp_dir("torn");
        {
            let (mut store, _, _) = DurableStore::open(&dir).unwrap();
            let mut reg = PmoRegistry::new();
            workload(&mut store, &mut reg);
        }
        let wal_path = dir.join(WAL_FILE);
        let len = fs::metadata(&wal_path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&wal_path).unwrap();
        f.set_len(len - 2).unwrap();
        drop(f);

        let (store, state, report) = DurableStore::open(&dir).unwrap();
        assert!(report.torn_tail);
        assert!(report.bytes_dropped > 0);
        // The torn record was the WindowOpen → nothing to reseal, data intact.
        assert!(state.resealed.is_empty());
        assert_eq!(
            fs::metadata(store.wal_path()).unwrap().len(),
            (len - 2) - report.bytes_dropped as u64
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incremental_checkpoint_truncates_wal_and_preserves_protection() {
        let dir = tmp_dir("inc-ckpt");
        {
            let (mut store, _, _) = DurableStore::open(&dir).unwrap();
            let mut reg = PmoRegistry::new();
            workload(&mut store, &mut reg);
            // The window from the workload is still open — carry it.
            let pages = store
                .checkpoint_incremental(reg.iter_mut(), &[WalRecord::WindowOpen { pmo: id(1) }])
                .unwrap();
            assert!(pages >= 1, "the dirtied data page must be delta-logged");
            assert_eq!(fs::metadata(store.wal_path()).unwrap().len(), 0);
            assert!(fs::metadata(dir.join(CKPT_FILE)).unwrap().len() > 0);
            assert!(fs::metadata(dir.join(PROT_FILE)).unwrap().len() > 0);
            assert_eq!(store.checkpoints(), 1);
            // Crash here (drop without further checkpoint).
        }
        let (_, state, report) = DurableStore::open(&dir).unwrap();
        // Data comes back from the checkpoint log, the open window from
        // prot.log — and is resealed, the TERP invariant.
        assert_recovered(&state);
        assert_eq!(report.windows_resealed, 1);
        assert_eq!(report.records_replayed, 0, "WAL was truncated");
        assert!(report.checkpoint_records > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incremental_checkpoint_only_writes_dirty_pages() {
        let dir = tmp_dir("inc-dirty");
        let (mut store, _, _) = DurableStore::open(&dir).unwrap();
        let mut reg = PmoRegistry::new();
        workload(&mut store, &mut reg);
        store.log(&WalRecord::WindowClose { pmo: id(1) }).unwrap();
        // A big resident image keeps the compaction rule out of the way.
        let pool = reg.pool_mut(id(1)).unwrap();
        pool.write_bytes(PAGE_SIZE, &vec![7u8; 16 * PAGE_SIZE as usize])
            .unwrap();
        assert!(store.checkpoint_incremental(reg.iter_mut(), &[]).unwrap() >= 1);
        let first_len = fs::metadata(dir.join(CKPT_FILE)).unwrap().len();

        // Nothing dirtied since: the next checkpoint appends no page
        // deltas at all.
        assert_eq!(
            store.checkpoint_incremental(reg.iter_mut(), &[]).unwrap(),
            0
        );
        assert_eq!(fs::metadata(dir.join(CKPT_FILE)).unwrap().len(), first_len);

        // One small write dirties exactly one page.
        reg.pool_mut(id(1)).unwrap().write_bytes(64, b"x").unwrap();
        store
            .log(&WalRecord::DataWrite {
                pmo: id(1),
                offset: 64,
                data: b"x".to_vec(),
            })
            .unwrap();
        assert_eq!(
            store.checkpoint_incremental(reg.iter_mut(), &[]).unwrap(),
            1
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn records_after_incremental_checkpoint_replay_on_top_of_deltas() {
        let dir = tmp_dir("inc-post");
        {
            let (mut store, _, _) = DurableStore::open(&dir).unwrap();
            let mut reg = PmoRegistry::new();
            workload(&mut store, &mut reg);
            store
                .checkpoint_incremental(reg.iter_mut(), &[WalRecord::WindowOpen { pmo: id(1) }])
                .unwrap();
            // More work after the checkpoint: must replay on top of the
            // delta-restored allocator without divergence.
            let oid2 = reg.pool_mut(id(1)).unwrap().pmalloc(32).unwrap();
            store
                .log(&WalRecord::Alloc {
                    pmo: id(1),
                    size: 32,
                    offset: oid2.offset(),
                })
                .unwrap();
            store.sync().unwrap();
        }
        let (_, state, report) = DurableStore::open(&dir).unwrap();
        assert_eq!(report.records_replayed, 1);
        assert_eq!(
            state.registry.pool(id(1)).unwrap().allocator().live_count(),
            2
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn directory_with_a_retired_pool_snapshot_is_refused() {
        let dir = tmp_dir("retired");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("pool-1.snap"), b"full image").unwrap();
        let err = DurableStore::open(&dir).unwrap_err();
        assert!(
            matches!(&err, PersistError::RetiredFormat { path } if path.ends_with("pool-1.snap")),
            "{err}"
        );
        assert!(err.to_string().contains("pool-*.snap"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_log_compacts_past_twice_the_resident_bytes() {
        let dir = tmp_dir("compact");
        let (mut store, _, _) = DurableStore::open(&dir).unwrap();
        let mut reg = PmoRegistry::new();
        workload(&mut store, &mut reg);
        store.log(&WalRecord::WindowClose { pmo: id(1) }).unwrap();
        // Rewrite the same page over and over: appends alone would grow
        // ckpt.log by a page image per checkpoint, forever.
        let mut bound = 0;
        for round in 0..12u8 {
            let pool = reg.pool_mut(id(1)).unwrap();
            pool.write_bytes(0, &[round; 64]).unwrap();
            store
                .log(&WalRecord::DataWrite {
                    pmo: id(1),
                    offset: 0,
                    data: vec![round; 64],
                })
                .unwrap();
            store.checkpoint_incremental(reg.iter_mut(), &[]).unwrap();
            bound = 2 * reg_resident(&reg);
            let len = fs::metadata(dir.join(CKPT_FILE)).unwrap().len();
            assert!(len <= bound, "round {round}: ckpt.log {len} B > {bound} B");
        }
        assert!(bound > 0);
        drop(store);
        let (_, state, _) = DurableStore::open(&dir).unwrap();
        let mut buf = [0u8; 64];
        state
            .registry
            .pool(id(1))
            .unwrap()
            .read_bytes(0, &mut buf)
            .unwrap();
        assert_eq!(buf, [11u8; 64], "the compacted image holds the last write");
        fs::remove_dir_all(&dir).unwrap();

        fn reg_resident(reg: &PmoRegistry) -> u64 {
            reg.iter()
                .map(|p| p.resident_pages() as u64 * PAGE_SIZE)
                .sum()
        }
    }

    #[test]
    fn torn_checkpoint_log_is_cut_before_the_next_append() {
        let dir = tmp_dir("ckpt-torn");
        let mut reg = PmoRegistry::new();
        {
            let (mut store, _, _) = DurableStore::open(&dir).unwrap();
            workload(&mut store, &mut reg);
            store.checkpoint_incremental(reg.iter_mut(), &[]).unwrap();
        }
        // A crash mid-append leaves half a frame at the end of ckpt.log.
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(CKPT_FILE))
            .unwrap();
        f.write_all(&WalRecord::Checkpoint.encode(99)[..5]).unwrap();
        drop(f);
        {
            let (mut store, recovered, report) = DurableStore::open(&dir).unwrap();
            assert!(report.torn_tail);
            let mut reg = recovered.registry;
            reg.pool_mut(id(1))
                .unwrap()
                .write_bytes(0, b"after")
                .unwrap();
            store
                .log(&WalRecord::DataWrite {
                    pmo: id(1),
                    offset: 0,
                    data: b"after".to_vec(),
                })
                .unwrap();
            store.checkpoint_incremental(reg.iter_mut(), &[]).unwrap();
        }
        let (_, state, report) = DurableStore::open(&dir).unwrap();
        assert!(!report.torn_tail, "the tear was cut away");
        let mut buf = [0u8; 5];
        state
            .registry
            .pool(id(1))
            .unwrap()
            .read_bytes(0, &mut buf)
            .unwrap();
        assert_eq!(&buf, b"after", "the post-tear checkpoint is replayed");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_falls_due_after_checkpoint_every_records() {
        let dir = tmp_dir("due");
        let (mut store, _, _) = DurableStore::open(&dir).unwrap();
        for _ in 1..CHECKPOINT_EVERY {
            store.log(&WalRecord::Checkpoint).unwrap();
        }
        assert!(!store.checkpoint_due());
        store.log(&WalRecord::Checkpoint).unwrap();
        assert!(store.checkpoint_due());
        store
            .checkpoint_incremental(std::iter::empty(), &[])
            .unwrap();
        assert!(!store.checkpoint_due());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_gates_visibility_on_the_watermark() {
        let dir = tmp_dir("watermark");
        {
            let (mut store, _, _) = DurableStore::open(&dir).unwrap();
            let mut reg = PmoRegistry::new();
            workload(&mut store, &mut reg);
            // workload ends with sync(): everything submitted is durable.
            assert_eq!(store.watermark(), store.next_seq());
            let seq = store.log(&WalRecord::WindowClose { pmo: id(1) }).unwrap();
            let ticket = store.ticket(seq);
            ticket.wait().unwrap();
            assert!(store.watermark() > seq);
        }
        let (_, state, report) = DurableStore::open(&dir).unwrap();
        assert_eq!(report.windows_resealed, 0, "window closed before crash");
        let pool = state.registry.pool(id(1)).unwrap();
        let (off, _) = pool.allocator().live_blocks().next().unwrap();
        let mut buf = [0u8; 13];
        pool.read_bytes(off, &mut buf).unwrap();
        assert_eq!(&buf, b"durable bytes");
        fs::remove_dir_all(&dir).unwrap();
    }
}
