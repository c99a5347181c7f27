//! Pipelined asynchronous log writer: submit/durable split with a
//! durability watermark.
//!
//! An inline writer serializes every caller behind the current fsync:
//! under contention, threads queue up on the store mutex while one of them
//! waits out an fsync. This module decouples *submission* from
//! *durability*, and is the only way a [`crate::DurableStore`] reaches its
//! log:
//!
//! * [`AsyncWalWriter::append`] assigns the record's sequence number and
//!   encodes its frame *directly into a shared batch buffer* (no per-record
//!   allocation, no queue node) — the caller returns immediately at
//!   **submit**.
//! * The writer thread owns the file. It double-buffers: swap the
//!   accumulated batch out under a brief lock, then write it with one
//!   `write(2)` + one fsync while the next batch accumulates in the other
//!   buffer, and publish the new [`DurabilityGate`] watermark. Batches are
//!   naturally **adaptive**: a batch is exactly what arrived while the
//!   previous one was on media, so it grows under load and shrinks to
//!   single records when idle.
//! * Callers that need durability — not just submission — wait on the
//!   watermark: [`DurabilityGate::wait_for`] blocks until every record up
//!   to a sequence number is fsynced, and a [`DurableTicket`] packages that
//!   wait for one specific append.
//! * Work that must sit at a fixed point of the log — a checkpoint writing
//!   its files and truncating the WAL — is posted as a
//!   [`AsyncWalWriter::barrier`] job: the writer thread runs it once every
//!   record submitted before it is durable and before it writes any record
//!   submitted after it, so the submitter never waits for its I/O.
//!
//! The effect is classic pipelining: while batch *n* is inside fsync,
//! batch *n + 1* accumulates in the submit buffer, so the fsync cost is
//! amortized over however many records arrived meanwhile — without any
//! caller holding a lock across the fsync. The TERP resealing argument is
//! unchanged because durability still advances in strict log order: the
//! watermark is monotonic, so "seq `s` durable" implies every earlier
//! record is durable, which is exactly the prefix property crash recovery
//! replays.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::error::PersistError;
use crate::record::WalRecord;
use crate::wal::{WalStats, WalWriter};

/// The shared durability watermark: the synchronization point between log
/// submitters, the background writer, and anyone who must not act before a
/// record is on media.
///
/// `watermark()` is the count of durable records: every record with
/// `seq < watermark()` is fsynced. It only ever grows, and it grows in log
/// order — durability of a record implies durability of its whole prefix.
#[derive(Debug)]
pub struct DurabilityGate {
    /// First sequence number that is *not* yet durable.
    durable: AtomicU64,
    /// Fast-path mirror of "an error is stored": submitters poll this on
    /// every append, so the check must not take the mutex.
    poisoned: AtomicBool,
    /// Error slot (the writer thread's first I/O failure) doubling as the
    /// condvar's mutex. Once set, the gate is poisoned: every wait returns
    /// the error instead of blocking on durability that will never come.
    err: Mutex<Option<String>>,
    cvar: Condvar,
}

impl DurabilityGate {
    pub(crate) fn at(watermark: u64) -> Arc<Self> {
        Arc::new(DurabilityGate {
            durable: AtomicU64::new(watermark),
            poisoned: AtomicBool::new(false),
            err: Mutex::new(None),
            cvar: Condvar::new(),
        })
    }

    /// The current watermark: every record with `seq < watermark()` is
    /// durable. Monotonic; readable without any lock.
    pub fn watermark(&self) -> u64 {
        self.durable.load(Ordering::Acquire)
    }

    /// Whether the record with sequence number `seq` is durable.
    pub fn is_durable(&self, seq: u64) -> bool {
        self.watermark() > seq
    }

    /// Blocks until the record with sequence number `seq` is durable (or
    /// returns immediately if it already is).
    ///
    /// # Errors
    ///
    /// The background writer's stored I/O error, if it failed: the record
    /// will never become durable.
    pub fn wait_for(&self, seq: u64) -> Result<(), PersistError> {
        if self.is_durable(seq) {
            return Ok(());
        }
        let mut slot = self.err.lock().expect("gate mutex");
        loop {
            if let Some(msg) = slot.as_ref() {
                return Err(PersistError::Io(std::io::Error::other(msg.clone())));
            }
            if self.is_durable(seq) {
                return Ok(());
            }
            slot = self.cvar.wait(slot).expect("gate mutex");
        }
    }

    /// A ticket for waiting on `seq` later, without holding the store.
    pub fn ticket(self: &Arc<Self>, seq: u64) -> DurableTicket {
        DurableTicket {
            gate: Arc::clone(self),
            seq,
        }
    }

    /// Returns the stored writer error, if the pipeline failed. Lock-free
    /// in the healthy case — this runs on every submit.
    pub(crate) fn check(&self) -> Result<(), PersistError> {
        if !self.poisoned.load(Ordering::Acquire) {
            return Ok(());
        }
        let slot = self.err.lock().expect("gate mutex");
        match slot.as_ref() {
            Some(msg) => Err(PersistError::Io(std::io::Error::other(msg.clone()))),
            None => Ok(()),
        }
    }

    /// Raises the watermark to `durable_through` (monotonic max) and wakes
    /// every waiter.
    pub(crate) fn advance(&self, durable_through: u64) {
        let mut cur = self.durable.load(Ordering::Relaxed);
        while cur < durable_through {
            match self.durable.compare_exchange_weak(
                cur,
                durable_through,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        // Take the mutex so a waiter between its watermark check and its
        // cvar.wait cannot miss this notification.
        let _slot = self.err.lock().expect("gate mutex");
        self.cvar.notify_all();
    }

    /// Poisons the gate with the writer's I/O error and wakes every waiter.
    pub(crate) fn fail(&self, msg: String) {
        let mut slot = self.err.lock().expect("gate mutex");
        slot.get_or_insert(msg);
        self.poisoned.store(true, Ordering::Release);
        self.cvar.notify_all();
    }
}

/// A per-append completion handle: the pair of one submitted record's
/// sequence number and the gate that will announce its durability. Cheap to
/// clone out of the store and wait on *after* releasing whatever lock the
/// submission held — the core of the submit/durable split.
#[derive(Debug, Clone)]
pub struct DurableTicket {
    gate: Arc<DurabilityGate>,
    seq: u64,
}

impl DurableTicket {
    /// The submitted record's sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Whether the record is already durable (non-blocking).
    pub fn is_durable(&self) -> bool {
        self.gate.is_durable(self.seq)
    }

    /// Blocks until the record is durable.
    ///
    /// # Errors
    ///
    /// The background writer's I/O error, if the pipeline failed.
    pub fn wait(&self) -> Result<(), PersistError> {
        self.gate.wait_for(self.seq)
    }
}

/// Submit-side backpressure: `append` blocks while the accumulating batch
/// buffer holds this many bytes (the writer thread has fallen a full
/// buffer behind), bounding memory instead of queue depth.
const HIGH_WATER: usize = 4 << 20;

/// Adaptive coalescing bounds: when the writer comes back from a flush and
/// finds the next batch already started (sustained load), it dwells this
/// long before swapping so the batch keeps filling — each doubling halves
/// the fsync rate. An idle cycle (the writer actually waited for work)
/// resets the dwell to zero, so request/response traffic pays exactly one
/// fsync of latency and no dwell.
const COALESCE_MIN: std::time::Duration = std::time::Duration::from_micros(100);
const COALESCE_MAX: std::time::Duration = std::time::Duration::from_micros(3_000);

/// Work the writer thread runs between two records of the log (see
/// [`AsyncWalWriter::barrier`]).
pub type BarrierJob = Box<dyn FnOnce(&mut WalWriter) -> Result<(), PersistError> + Send>;

/// Completion handle of a [`AsyncWalWriter::barrier`] job.
#[derive(Debug)]
pub struct BarrierTicket {
    done: mpsc::Receiver<()>,
    gate: Arc<DurabilityGate>,
}

impl BarrierTicket {
    /// Blocks until the job has run.
    ///
    /// # Errors
    ///
    /// The writer's I/O error if the job, or a write before it, failed.
    pub fn wait(self) -> Result<(), PersistError> {
        self.done.recv().or_else(|_| {
            self.gate.check()?;
            Err(writer_gone())
        })
    }
}

fn writer_gone() -> PersistError {
    PersistError::Io(std::io::Error::other("wal writer thread gone"))
}

/// A posted barrier job and the point of the batch buffer it belongs at.
struct Barrier {
    /// `buf` length, record count and last seq when the job was posted:
    /// the records it runs after.
    at: usize,
    count: u64,
    last_seq: u64,
    job: BarrierJob,
    done: mpsc::SyncSender<()>,
}

impl fmt::Debug for Barrier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Barrier")
            .field("at", &self.at)
            .field("count", &self.count)
            .finish_non_exhaustive()
    }
}

/// The submit/writer rendezvous: a double-buffered batch. Submitters
/// encode frames onto `buf` under the mutex; the writer thread swaps the
/// whole buffer out (O(1)) and flushes it while the next batch accumulates.
#[derive(Debug, Default)]
struct PipeState {
    /// Encoded frames accumulated since the last swap.
    buf: Vec<u8>,
    /// Records in `buf`.
    count: u64,
    /// Highest sequence number in `buf` (meaningful when `count > 0`).
    last_seq: u64,
    /// Submission handle dropped: flush what remains, then exit.
    closed: bool,
    /// A barrier job posted into `buf` (at most one at a time).
    barrier: Option<Barrier>,
    /// The writer thread died (I/O failure): stop blocking on it.
    dead: bool,
}

#[derive(Debug, Default)]
struct Pipe {
    state: Mutex<PipeState>,
    /// Writer thread waits here for work.
    work: Condvar,
    /// Submitters wait here for backpressure / a free barrier slot.
    space: Condvar,
}

#[derive(Debug, Default)]
struct SharedStats {
    appended: AtomicU64,
    syncs: AtomicU64,
    bytes: AtomicU64,
    /// Largest single batch the writer drained (observability for the
    /// adaptive batching).
    max_batch: AtomicU64,
}

/// The submission handle of a pipelined log: owns the sequence counter and
/// the channel to the background writer thread that owns the file.
///
/// Appends are serialized by `&mut self` (in practice: the shard lock),
/// which is what makes submit-side sequence assignment race-free; the
/// *fsync* is what moves off the caller's thread.
#[derive(Debug)]
pub struct AsyncWalWriter {
    pipe: Arc<Pipe>,
    gate: Arc<DurabilityGate>,
    stats: Arc<SharedStats>,
    next_seq: u64,
    handle: Option<JoinHandle<()>>,
}

impl AsyncWalWriter {
    /// Wraps an opened [`WalWriter`] (positioned after the last valid
    /// record) in a background writer thread. Everything already in the
    /// file counts as durable: the initial watermark is `wal.next_seq()`.
    pub fn spawn(wal: WalWriter) -> Self {
        let next_seq = wal.next_seq();
        let gate = DurabilityGate::at(next_seq);
        let stats = Arc::new(SharedStats::default());
        let pipe = Arc::new(Pipe::default());
        let thread_pipe = Arc::clone(&pipe);
        let thread_gate = Arc::clone(&gate);
        let thread_stats = Arc::clone(&stats);
        let handle = std::thread::Builder::new()
            .name("terp-wal-writer".into())
            .spawn(move || writer_loop(wal, thread_pipe, thread_gate, thread_stats))
            .expect("spawn wal writer thread");
        AsyncWalWriter {
            pipe,
            gate,
            stats,
            next_seq,
            handle: Some(handle),
        }
    }

    /// Submits one record and returns its sequence number immediately; the
    /// record is durable once [`DurabilityGate::watermark`] passes it.
    /// The frame is encoded straight into the shared batch buffer — no
    /// per-record allocation or queue node. Blocks only when the batch
    /// buffer is a full flush behind (backpressure) — never on fsync.
    ///
    /// # Errors
    ///
    /// The writer thread's stored I/O error: once the pipeline failed, no
    /// further submission can become durable, so accepting it would lie.
    pub fn append(&mut self, record: &WalRecord) -> Result<u64, PersistError> {
        self.gate.check()?;
        let seq = self.next_seq;
        let mut st = self.pipe.state.lock().expect("pipe mutex");
        while st.buf.len() >= HIGH_WATER && !st.dead {
            st = self.pipe.space.wait(st).expect("pipe mutex");
        }
        if st.dead {
            drop(st);
            self.gate.check()?;
            return Err(writer_gone());
        }
        record.encode_into(seq, &mut st.buf);
        st.count += 1;
        st.last_seq = seq;
        if st.count == 1 {
            self.pipe.work.notify_one();
        }
        drop(st);
        self.next_seq += 1;
        Ok(seq)
    }

    /// Blocks until everything submitted so far is durable.
    pub fn sync(&self) -> Result<(), PersistError> {
        match self.next_seq.checked_sub(1) {
            Some(last) => self.gate.wait_for(last),
            None => Ok(()),
        }
    }

    /// Posts `job` to run on the writer thread at this point of the log:
    /// after every record submitted so far is durable, and before any record
    /// submitted later is written. Returns at once; wait on the ticket for
    /// the job to finish. A failing job poisons the writer like a failed
    /// write: no later record becomes durable.
    ///
    /// # Errors
    ///
    /// The writer thread's stored I/O error.
    pub fn barrier(&mut self, job: BarrierJob) -> Result<BarrierTicket, PersistError> {
        let (done, rx) = mpsc::sync_channel(1);
        let mut st = self.pipe.state.lock().expect("pipe mutex");
        while st.barrier.is_some() && !st.dead {
            st = self.pipe.space.wait(st).expect("pipe mutex");
        }
        if st.dead {
            drop(st);
            self.gate.check()?;
            return Err(writer_gone());
        }
        st.barrier = Some(Barrier {
            at: st.buf.len(),
            count: st.count,
            last_seq: st.last_seq,
            job,
            done,
        });
        self.pipe.work.notify_one();
        Ok(BarrierTicket {
            done: rx,
            gate: Arc::clone(&self.gate),
        })
    }

    /// The shared durability gate (watermark + completion notification).
    pub fn gate(&self) -> Arc<DurabilityGate> {
        Arc::clone(&self.gate)
    }

    /// Sequence number the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Restarts sequence numbering at `seq` (recovery continuation); also
    /// treats everything below it as durable.
    pub fn set_next_seq(&mut self, seq: u64) {
        self.next_seq = seq;
        self.gate.advance(seq);
    }

    /// Activity counters, mirrored from the writer thread.
    pub fn stats(&self) -> WalStats {
        WalStats {
            appended: self.stats.appended.load(Ordering::Relaxed),
            syncs: self.stats.syncs.load(Ordering::Relaxed),
            bytes: self.stats.bytes.load(Ordering::Relaxed),
        }
    }

    /// Largest batch the writer thread has coalesced so far.
    pub fn max_batch(&self) -> u64 {
        self.stats.max_batch.load(Ordering::Relaxed)
    }
}

impl Drop for AsyncWalWriter {
    /// Clean shutdown: mark the pipe closed, then join the writer thread,
    /// which flushes and fsyncs everything still in flight before exiting.
    /// Nothing submitted is lost on an orderly drop.
    fn drop(&mut self) {
        {
            let mut st = self.pipe.state.lock().expect("pipe mutex");
            st.closed = true;
            self.pipe.work.notify_one();
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Writes and fsyncs one run of frames, then publishes the watermark —
/// never before the fsync.
fn flush(
    wal: &mut WalWriter,
    frames: &[u8],
    count: u64,
    last_seq: u64,
    gate: &DurabilityGate,
    stats: &SharedStats,
) -> Result<(), PersistError> {
    if count == 0 {
        return Ok(());
    }
    wal.append_frames(frames, count)?;
    gate.advance(last_seq + 1);
    stats.appended.fetch_add(count, Ordering::Relaxed);
    stats.syncs.fetch_add(1, Ordering::Relaxed);
    stats
        .bytes
        .fetch_add(frames.len() as u64, Ordering::Relaxed);
    stats.max_batch.fetch_max(count, Ordering::Relaxed);
    Ok(())
}

/// The background writer: swap the accumulated batch out under the lock,
/// then one write + one fsync per swap — split in two around a barrier job,
/// which runs between the records submitted before and after it.
fn writer_loop(
    mut wal: WalWriter,
    pipe: Arc<Pipe>,
    gate: Arc<DurabilityGate>,
    stats: Arc<SharedStats>,
) {
    // The writer's side of the double buffer: swapped with the submit
    // buffer each cycle, so neither side ever reallocates in steady state.
    let mut batch: Vec<u8> = Vec::with_capacity(64 << 10);
    let mut dwell = std::time::Duration::ZERO;
    loop {
        let (count, last_seq, barrier) = {
            let mut st = pipe.state.lock().expect("pipe mutex");
            let mut idled = false;
            while st.count == 0 && st.barrier.is_none() && !st.closed {
                st = pipe.work.wait(st).expect("pipe mutex");
                idled = true;
            }
            if st.count == 0 && st.barrier.is_none() && st.closed {
                return;
            }
            // Adapt the coalescing dwell to the arrival pattern: work
            // already waiting after a flush means we are the bottleneck —
            // dwell (and keep doubling) so batches amortize more per fsync.
            // Having slept on the condvar means the pipe is keeping pace —
            // flush eagerly for latency.
            dwell = if idled {
                std::time::Duration::ZERO
            } else if dwell.is_zero() {
                COALESCE_MIN
            } else {
                (dwell * 2).min(COALESCE_MAX)
            };
            if !dwell.is_zero()
                && st.barrier.is_none()
                && !st.closed
                && st.buf.len() < HIGH_WATER / 2
            {
                drop(st);
                std::thread::sleep(dwell);
                st = pipe.state.lock().expect("pipe mutex");
            }
            batch.clear();
            std::mem::swap(&mut st.buf, &mut batch);
            let count = std::mem::take(&mut st.count);
            // Taken with the buffer it points into.
            let barrier = st.barrier.take();
            // Backpressured submitters can refill the (now empty) buffer.
            pipe.space.notify_all();
            (count, st.last_seq, barrier)
        };

        let (at, head, head_last) = barrier
            .as_ref()
            .map_or((batch.len(), count, last_seq), |b| {
                (b.at, b.count, b.last_seq)
            });
        // The job's ticket is answered last: a waiter woken by a failure
        // must already find the gate poisoned.
        let mut done = None;
        let result = flush(&mut wal, &batch[..at], head, head_last, &gate, &stats)
            .and_then(|()| match barrier {
                Some(b) => {
                    done = Some(b.done);
                    (b.job)(&mut wal)
                }
                None => Ok(()),
            })
            .and_then(|()| {
                flush(
                    &mut wal,
                    &batch[at..],
                    count - head,
                    last_seq,
                    &gate,
                    &stats,
                )
            });
        if let Err(e) = result {
            gate.fail(e.to_string());
            let mut st = pipe.state.lock().expect("pipe mutex");
            st.dead = true;
            // A job posted after this batch will never run: drop it, so
            // its ticket reports the error instead of waiting forever.
            st.barrier = None;
            pipe.space.notify_all();
            return;
        }
        if let Some(done) = done {
            let _ = done.send(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::read_log;
    use std::path::PathBuf;
    use terp_pmo::PmoId;

    fn rec(n: u64) -> WalRecord {
        WalRecord::DataWrite {
            pmo: PmoId::new(1).unwrap(),
            offset: n,
            data: vec![n as u8; 24],
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("terp-awal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn appends_return_at_submit_and_sync_waits_for_all() {
        let dir = temp_dir("submit");
        let path = dir.join("wal.log");
        let (wal, _) = WalWriter::open(&path).unwrap();
        let mut w = AsyncWalWriter::spawn(wal);
        for n in 0..100 {
            assert_eq!(w.append(&rec(n)).unwrap(), n);
        }
        w.sync().unwrap();
        assert!(w.gate().is_durable(99));
        assert_eq!(w.gate().watermark(), 100);
        let decoded = read_log(&std::fs::read(&path).unwrap());
        assert_eq!(decoded.records.len(), 100);
        assert!(decoded.is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn watermark_is_monotonic_and_tickets_complete() {
        let dir = temp_dir("ticket");
        let (wal, _) = WalWriter::open(&dir.join("wal.log")).unwrap();
        let mut w = AsyncWalWriter::spawn(wal);
        let gate = w.gate();
        let mut last = gate.watermark();
        let mut tickets = Vec::new();
        for n in 0..256 {
            let seq = w.append(&rec(n)).unwrap();
            tickets.push(gate.ticket(seq));
            let now = gate.watermark();
            assert!(now >= last, "watermark must never retreat");
            last = now;
        }
        for t in &tickets {
            t.wait().unwrap();
            assert!(t.is_durable());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_drains_the_pipeline() {
        let dir = temp_dir("drain");
        let path = dir.join("wal.log");
        {
            let (wal, _) = WalWriter::open(&path).unwrap();
            let mut w = AsyncWalWriter::spawn(wal);
            for n in 0..50 {
                w.append(&rec(n)).unwrap();
            }
            // No sync: Drop must close the queue and join the writer, which
            // flushes everything still in flight.
        }
        let decoded = read_log(&std::fs::read(&path).unwrap());
        assert_eq!(decoded.records.len(), 50);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn barrier_runs_between_earlier_and_later_records() {
        let dir = temp_dir("barrier");
        let path = dir.join("wal.log");
        let (wal, _) = WalWriter::open(&path).unwrap();
        let mut w = AsyncWalWriter::spawn(wal);
        for n in 0..10 {
            w.append(&rec(n)).unwrap();
        }
        let seen = std::sync::Arc::new(std::sync::Mutex::new(None));
        let job_seen = std::sync::Arc::clone(&seen);
        let job_path = path.clone();
        let done = w
            .barrier(Box::new(move |wal: &mut WalWriter| {
                // Everything before the barrier is on disk, nothing after.
                *job_seen.lock().unwrap() =
                    Some(read_log(&std::fs::read(&job_path).unwrap()).records.len());
                wal.truncate()
            }))
            .unwrap();
        let seq = w.append(&rec(99)).unwrap();
        assert_eq!(seq, 10, "sequence numbers survive truncation");
        done.wait().unwrap();
        w.sync().unwrap();
        assert_eq!(*seen.lock().unwrap(), Some(10));
        let after = read_log(&std::fs::read(&path).unwrap());
        assert_eq!(after.records.len(), 1, "only the later record survives");
        assert_eq!(after.records[0].0, 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_barrier_poisons_the_writer() {
        let dir = temp_dir("barrier-fail");
        let (wal, _) = WalWriter::open(&dir.join("wal.log")).unwrap();
        let mut w = AsyncWalWriter::spawn(wal);
        w.append(&rec(0)).unwrap();
        let done = w
            .barrier(Box::new(|_: &mut WalWriter| {
                Err(PersistError::Io(std::io::Error::other("disk full")))
            }))
            .unwrap();
        assert!(done.wait().is_err());
        assert!(w.append(&rec(1)).is_err(), "no append after a failed job");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_resumes_after_async_writes() {
        let dir = temp_dir("reopen");
        let path = dir.join("wal.log");
        {
            let (wal, _) = WalWriter::open(&path).unwrap();
            let mut w = AsyncWalWriter::spawn(wal);
            for n in 0..20 {
                w.append(&rec(n)).unwrap();
            }
        }
        let (wal, contents) = WalWriter::open(&path).unwrap();
        assert_eq!(contents.records.len(), 20);
        let w = AsyncWalWriter::spawn(wal);
        assert_eq!(w.next_seq(), 20);
        assert_eq!(w.gate().watermark(), 20, "on-disk prefix counts durable");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_waiters_all_release() {
        let dir = temp_dir("waiters");
        let (wal, _) = WalWriter::open(&dir.join("wal.log")).unwrap();
        let mut w = AsyncWalWriter::spawn(wal);
        let gate = w.gate();
        let mut seqs = Vec::new();
        std::thread::scope(|scope| {
            let mut joins = Vec::new();
            for n in 0..64 {
                let seq = w.append(&rec(n)).unwrap();
                seqs.push(seq);
                let g = Arc::clone(&gate);
                joins.push(scope.spawn(move || g.wait_for(seq).is_ok()));
            }
            for j in joins {
                assert!(j.join().unwrap());
            }
        });
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
