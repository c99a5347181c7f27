//! Stable WAL tail reads for log shipping.
//!
//! A replication leader tails each shard's live WAL file while the service
//! keeps appending to it in coalesced batches. That concurrency is exactly
//! what makes a naive "read the file, decode, error on bad CRC" reader
//! wrong: the reader can observe a *torn tail* — the prefix of a frame the
//! writer is mid-`write(2)` on — which is indistinguishable, byte for byte,
//! from the torn tail a crash leaves. Both must mean "not yet", never
//! "corrupt": [`TailReader::poll`] returns the valid frame prefix it could
//! decode plus [`TailStatus::NeedMore`], and the next poll re-examines the
//! same offset once the writer has finished the frame.
//!
//! The other thing a live file can do that a crashed one cannot is *shrink*:
//! a checkpoint truncates the WAL once the checkpoint log holds its effects.
//! A reader whose offset is past end-of-file is not torn, it is obsolete.
//! So is one whose file was truncated and has already regrown past its
//! offset: the writer never rewrites a frame, so the reader remembers the
//! file's first frame header and a changed one means a new log. Either way
//! [`TailStatus::Truncated`] tells the shipper to pick that shard up from
//! the fresh checkpoint files and read the new log from its start.
//!
//! Chunks carry both decoded records (for watermark accounting) and the raw
//! validated frame bytes (so a follower can append them verbatim and end up
//! with a byte-identical log prefix).

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use crate::error::PersistError;
use crate::record::{read_log, WalRecord, FRAME_HEADER};

/// Bytes of the first frame a reader remembers: its length, CRC and seq.
/// A truncated log regrows with larger seqs, so these never repeat.
const HEAD: usize = FRAME_HEADER + 8;

/// What [`TailReader::poll`] observed past the returned records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailStatus {
    /// Every byte up to end-of-file decoded into valid frames; the reader
    /// is caught up with the writer's durable prefix.
    CaughtUp,
    /// Trailing bytes did not (yet) form a complete valid frame — a torn
    /// tail, which under a live batching writer simply means the frame
    /// is still being written. Poll again; never treat as corruption.
    NeedMore,
    /// The file was truncated under the reader (a checkpoint): it shrank
    /// below the reader's offset, or its first frame changed. No records
    /// are returned and the offset is reset to zero; the records between
    /// the last poll and the truncation are only in the checkpoint files.
    Truncated,
}

/// One batch of tailed records: the decoded prefix of the bytes between the
/// reader's previous offset and end-of-file.
#[derive(Debug)]
pub struct TailChunk {
    /// Newly decoded records in log order, with sequence numbers.
    pub records: Vec<(u64, WalRecord)>,
    /// The raw bytes of exactly those frames, verbatim from the file —
    /// appending them to another log reproduces the prefix byte for byte.
    pub bytes: Vec<u8>,
    /// What the reader saw past the last valid frame.
    pub status: TailStatus,
}

/// Incremental reader over a live WAL file.
///
/// ```
/// use terp_persist::{TailReader, TailStatus, WalRecord, WalWriter};
/// # fn main() -> Result<(), terp_persist::PersistError> {
/// let dir = std::env::temp_dir().join(format!("terp-tail-doc-{}", std::process::id()));
/// std::fs::create_dir_all(&dir)?;
/// let path = dir.join("wal.log");
/// let (mut w, _) = WalWriter::open(&path)?;
/// w.append(&WalRecord::Checkpoint)?;
///
/// let mut tail = TailReader::new(&path);
/// let chunk = tail.poll()?;
/// assert_eq!(chunk.records.len(), 1);
/// assert_eq!(chunk.status, TailStatus::CaughtUp);
/// assert!(tail.poll()?.records.is_empty()); // nothing new
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TailReader {
    path: PathBuf,
    offset: u64,
    /// The file's first frame header, once a poll decoded it.
    head: Option<[u8; HEAD]>,
}

impl TailReader {
    /// A reader positioned at the start of `path` (which may not exist yet —
    /// a missing file reads as empty).
    pub fn new(path: &Path) -> Self {
        TailReader {
            path: path.to_path_buf(),
            offset: 0,
            head: None,
        }
    }

    /// Byte offset of the next unread frame.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Reads and validates everything appended since the last poll.
    ///
    /// Returns the decoded records and their raw frame bytes; the offset
    /// advances past exactly the valid frames, so a frame that is torn in
    /// this poll is retried whole in the next. Only real I/O failures are
    /// errors — an undecodable tail is [`TailStatus::NeedMore`] by design.
    pub fn poll(&mut self) -> Result<TailChunk, PersistError> {
        let mut file = match File::open(&self.path) {
            Ok(f) => f,
            // A shard that has never logged has no file yet: empty, not an
            // error — the writer creates it on first append.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(TailChunk {
                    records: Vec::new(),
                    bytes: Vec::new(),
                    status: TailStatus::CaughtUp,
                })
            }
            Err(e) => return Err(e.into()),
        };
        let len = file.metadata()?.len();
        if len < self.offset {
            // Checkpoint truncated the log out from under us.
            return Ok(self.truncated());
        }
        file.seek(SeekFrom::Start(self.offset))?;
        let mut raw = Vec::with_capacity((len - self.offset) as usize);
        file.read_to_end(&mut raw)?;
        if let Some(head) = self.head {
            // Checked after the read: if the first frame is unchanged now,
            // no truncation preceded the read and `raw` is this log's.
            let mut now = [0u8; HEAD];
            file.seek(SeekFrom::Start(0))?;
            let same = match file.read_exact(&mut now) {
                Ok(()) => now == head,
                Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => false,
                Err(e) => return Err(e.into()),
            };
            if !same {
                return Ok(self.truncated());
            }
        }

        let decoded = read_log(&raw);
        let bytes = raw[..decoded.consumed].to_vec();
        if self.offset == 0 && decoded.consumed >= HEAD {
            self.head = Some(raw[..HEAD].try_into().expect("HEAD bytes"));
        }
        self.offset += decoded.consumed as u64;
        Ok(TailChunk {
            records: decoded.records,
            bytes,
            status: if decoded.dropped == 0 {
                TailStatus::CaughtUp
            } else {
                TailStatus::NeedMore
            },
        })
    }

    fn truncated(&mut self) -> TailChunk {
        self.offset = 0;
        self.head = None;
        TailChunk {
            records: Vec::new(),
            bytes: Vec::new(),
            status: TailStatus::Truncated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::WalWriter;
    use terp_pmo::PmoId;

    fn rec(n: u64) -> WalRecord {
        WalRecord::DataWrite {
            pmo: PmoId::new(1).unwrap(),
            offset: n,
            data: vec![n as u8; 16],
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("terp-tail-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn missing_file_reads_as_empty() {
        let dir = temp_dir("missing");
        let mut tail = TailReader::new(&dir.join("nope.log"));
        let chunk = tail.poll().unwrap();
        assert!(chunk.records.is_empty());
        assert_eq!(chunk.status, TailStatus::CaughtUp);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incremental_polls_return_only_new_frames() {
        let dir = temp_dir("incr");
        let path = dir.join("wal.log");
        let (mut w, _) = WalWriter::open(&path).unwrap();
        w.append(&rec(0)).unwrap();
        w.append(&rec(1)).unwrap();

        let mut tail = TailReader::new(&path);
        let c1 = tail.poll().unwrap();
        assert_eq!(c1.records.len(), 2);
        assert_eq!(c1.status, TailStatus::CaughtUp);

        w.append(&rec(2)).unwrap();
        let c2 = tail.poll().unwrap();
        assert_eq!(c2.records.len(), 1);
        assert_eq!(c2.records[0].0, 2);
        // Raw bytes match the file slice exactly.
        let all = std::fs::read(&path).unwrap();
        assert_eq!(c2.bytes, all[c1.bytes.len()..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_need_more_then_completes() {
        let dir = temp_dir("torn");
        let path = dir.join("wal.log");
        let frame = rec(0).encode(0);
        // Simulate the writer mid-append: only half the frame is visible.
        std::fs::write(&path, &frame[..frame.len() / 2]).unwrap();

        let mut tail = TailReader::new(&path);
        let c1 = tail.poll().unwrap();
        assert!(c1.records.is_empty());
        assert_eq!(c1.status, TailStatus::NeedMore, "torn tail is not an error");
        assert_eq!(tail.offset(), 0, "offset holds at the torn frame");

        // Writer finishes the frame; the retry decodes it whole.
        std::fs::write(&path, &frame).unwrap();
        let c2 = tail.poll().unwrap();
        assert_eq!(c2.records.len(), 1);
        assert_eq!(c2.status, TailStatus::CaughtUp);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_truncation_is_reported_and_resets() {
        let dir = temp_dir("trunc");
        let path = dir.join("wal.log");
        let (mut w, _) = WalWriter::open(&path).unwrap();
        for n in 0..4 {
            w.append(&rec(n)).unwrap();
        }
        let mut tail = TailReader::new(&path);
        assert_eq!(tail.poll().unwrap().records.len(), 4);

        w.truncate().unwrap();
        let chunk = tail.poll().unwrap();
        assert_eq!(chunk.status, TailStatus::Truncated);
        assert!(chunk.records.is_empty());
        assert_eq!(tail.offset(), 0);

        // Post-checkpoint appends read from the top.
        w.append(&rec(9)).unwrap();
        let chunk = tail.poll().unwrap();
        assert_eq!(chunk.records.len(), 1);
        assert_eq!(chunk.status, TailStatus::CaughtUp);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A log truncated and regrown past the reader's offset between two
    /// polls must not read as torn forever (or decode the new log from the
    /// middle): the changed first frame reports the truncation.
    #[test]
    fn truncation_regrown_past_the_offset_is_reported() {
        let dir = temp_dir("regrow");
        let path = dir.join("wal.log");
        let (mut w, _) = WalWriter::open(&path).unwrap();
        for n in 0..4 {
            w.append(&rec(n)).unwrap();
        }
        let mut tail = TailReader::new(&path);
        assert_eq!(tail.poll().unwrap().records.len(), 4);

        w.truncate().unwrap();
        // Larger records, so the old offset lands mid-frame.
        for n in 4..12 {
            w.append(&WalRecord::DataWrite {
                pmo: PmoId::new(1).unwrap(),
                offset: n,
                data: vec![n as u8; 40],
            })
            .unwrap();
        }
        let chunk = tail.poll().unwrap();
        assert_eq!(chunk.status, TailStatus::Truncated);
        assert!(chunk.records.is_empty());
        let chunk = tail.poll().unwrap();
        let seqs: Vec<u64> = chunk.records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, (4..12).collect::<Vec<_>>(), "the new log, whole");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The satellite regression: a reader polling a WAL under concurrent
    /// batched appends must never see an error — torn observations are
    /// `NeedMore` — and must eventually observe every record, in order,
    /// exactly once.
    #[test]
    fn concurrent_appender_never_yields_an_error() {
        let dir = temp_dir("race");
        let path = dir.join("wal.log");
        let total: u64 = 600;

        std::thread::scope(|scope| {
            let writer_path = path.clone();
            scope.spawn(move || {
                // Multi-frame batches hit the file in single writes the
                // reader can race against.
                let (mut w, _) = WalWriter::open(&writer_path).unwrap();
                for first in (0..total).step_by(7) {
                    let mut batch = Vec::new();
                    let last = (first + 7).min(total);
                    for n in first..last {
                        rec(n).encode_into(n, &mut batch);
                    }
                    w.append_frames(&batch, last - first).unwrap();
                    std::thread::yield_now();
                }
            });

            let mut tail = TailReader::new(&path);
            let mut seen: Vec<u64> = Vec::new();
            while seen.len() < total as usize {
                let chunk = tail.poll().expect("tail poll must never error");
                assert_ne!(chunk.status, TailStatus::Truncated);
                for (seq, _) in &chunk.records {
                    seen.push(*seq);
                }
                if chunk.records.is_empty() {
                    std::thread::yield_now();
                }
            }
            let expected: Vec<u64> = (0..total).collect();
            assert_eq!(seen, expected, "in order, exactly once");
        });
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
