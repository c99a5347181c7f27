//! The write-ahead log sink.
//!
//! A [`WalWriter`] appends [`WalRecord`]s to a sink — a file on disk or an
//! in-memory buffer (used by tests and the crash-injection harness). Every
//! append is written and synced before it returns, so the sink only ever
//! holds whole, durable frames. Batching belongs to the pipelined writer
//! ([`crate::AsyncWalWriter`]), whose background thread owns the file
//! sink and hands it one pre-encoded batch per fsync
//! ([`WalWriter::append_frames`]).
//!
//! Sequence numbers are assigned at append time and keep increasing across
//! checkpoint truncation, so checkpoint watermarks stay comparable to every
//! later record.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::error::PersistError;
use crate::record::{read_log, LogContents, WalRecord};

/// Counters describing writer activity since creation.
#[derive(Debug, Default, Clone, Copy)]
pub struct WalStats {
    /// Records appended.
    pub appended: u64,
    /// fsync calls issued: one per written batch, plus one per truncation.
    pub syncs: u64,
    /// Bytes written to the sink.
    pub bytes: u64,
}

#[derive(Debug)]
enum Sink {
    File(File),
    Mem(Vec<u8>),
}

/// Append-only writer over one log sink.
#[derive(Debug)]
pub struct WalWriter {
    sink: Sink,
    next_seq: u64,
    stats: WalStats,
}

impl WalWriter {
    /// Opens (creating if absent) a file-backed log at `path`, reads and
    /// validates its existing contents, and positions the writer after the
    /// last valid record. Returns the writer and the decoded contents;
    /// a torn tail is physically truncated away so the file ends on a
    /// record boundary.
    pub fn open(path: &Path) -> Result<(Self, LogContents), PersistError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let contents = read_log(&bytes);
        if contents.dropped > 0 {
            file.set_len(contents.consumed as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(contents.consumed as u64))?;
        let next_seq = contents.last_seq().map_or(0, |s| s + 1);
        Ok((Self::with_sink(Sink::File(file), next_seq), contents))
    }

    /// Creates an in-memory log (tests and the crash-injection harness).
    pub fn in_memory() -> Self {
        Self::with_sink(Sink::Mem(Vec::new()), 0)
    }

    fn with_sink(sink: Sink, next_seq: u64) -> Self {
        WalWriter {
            sink,
            next_seq,
            stats: WalStats::default(),
        }
    }

    /// Appends one record, writes and syncs it, and returns its sequence
    /// number: the record is durable when this returns.
    pub fn append(&mut self, record: &WalRecord) -> Result<u64, PersistError> {
        let seq = self.next_seq;
        self.append_frames(&record.encode(seq), 1)?;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Writes `count` pre-encoded frames (already CRC-framed, sequence
    /// numbers assigned by the caller) and syncs them in one go. This is the
    /// background writer's entry point: the pipeline encodes and sequences
    /// records on the submission side and hands the writer thread opaque
    /// batches.
    pub fn append_frames(&mut self, frames: &[u8], count: u64) -> Result<(), PersistError> {
        match &mut self.sink {
            Sink::File(f) => {
                f.write_all(frames)?;
                f.sync_data()?;
            }
            Sink::Mem(v) => v.extend_from_slice(frames),
        }
        self.stats.appended += count;
        self.stats.syncs += 1;
        self.stats.bytes += frames.len() as u64;
        Ok(())
    }

    /// Truncates the log after a checkpoint: the sink is emptied but
    /// sequence numbers keep increasing, so checkpoint watermarks remain
    /// comparable to post-checkpoint records.
    pub fn truncate(&mut self) -> Result<(), PersistError> {
        match &mut self.sink {
            Sink::File(f) => {
                f.set_len(0)?;
                f.seek(SeekFrom::Start(0))?;
                f.sync_data()?;
            }
            Sink::Mem(v) => v.clear(),
        }
        self.stats.syncs += 1;
        Ok(())
    }

    /// Sequence number the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Restarts sequence numbering at `seq` (recovery continuation: the new
    /// writer picks up after the highest replayed record).
    pub fn set_next_seq(&mut self, seq: u64) {
        self.next_seq = seq;
    }

    /// Activity counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// The byte image of an in-memory log: what a crash right now would
    /// leave on "disk". Returns `None` for file-backed sinks — read the
    /// file instead.
    pub fn durable_bytes(&self) -> Option<&[u8]> {
        match &self.sink {
            Sink::Mem(v) => Some(v),
            Sink::File(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use terp_pmo::PmoId;

    fn rec(n: u64) -> WalRecord {
        WalRecord::DataWrite {
            pmo: PmoId::new(1).unwrap(),
            offset: n,
            data: vec![n as u8; 8],
        }
    }

    #[test]
    fn every_append_is_durable() {
        let mut w = WalWriter::in_memory();
        for n in 0..5 {
            w.append(&rec(n)).unwrap();
            let decoded = read_log(w.durable_bytes().unwrap());
            assert_eq!(decoded.last_seq(), Some(n));
        }
        assert_eq!(w.stats().syncs, 5);
    }

    #[test]
    fn sequence_numbers_survive_truncation() {
        let mut w = WalWriter::in_memory();
        w.append(&rec(0)).unwrap();
        w.append(&rec(1)).unwrap();
        w.truncate().unwrap();
        assert_eq!(w.durable_bytes().unwrap().len(), 0);
        let seq = w.append(&rec(2)).unwrap();
        assert_eq!(seq, 2, "seq continues across checkpoint truncation");
    }

    #[test]
    fn append_frames_writes_and_syncs_preencoded_batches() {
        let mut w = WalWriter::in_memory();
        let mut batch = Vec::new();
        for n in 0..4u64 {
            batch.extend_from_slice(&rec(n).encode(n));
        }
        w.append_frames(&batch, 4).unwrap();
        let decoded = read_log(w.durable_bytes().unwrap());
        assert_eq!(decoded.records.len(), 4);
        assert_eq!(w.stats().appended, 4);
        assert_eq!(w.stats().syncs, 1);
    }

    #[test]
    fn file_log_round_trips_and_truncates_torn_tail() {
        let dir = std::env::temp_dir().join(format!("terp-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.wal");
        let _ = std::fs::remove_file(&path);

        let (mut w, initial) = WalWriter::open(&path).unwrap();
        assert!(initial.records.is_empty());
        for n in 0..4 {
            w.append(&rec(n)).unwrap();
        }
        drop(w);

        // Tear the tail mid-record.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let (w2, contents) = WalWriter::open(&path).unwrap();
        assert_eq!(contents.records.len(), 3, "torn final record dropped");
        assert!(contents.dropped > 0);
        assert_eq!(w2.next_seq(), 3);
        // The tear was physically truncated away.
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            contents.consumed as u64
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
