//! Deterministic crash injection.
//!
//! The harness enumerates *crash points* over a durable log image: every
//! record boundary, mid-header and mid-payload truncations (a write torn by
//! power loss), and single-byte corruptions (media damage). Each point is a
//! pure function of the log bytes, so a failing point replays exactly.
//!
//! The enumeration is memento-style: run a workload once against an
//! in-memory WAL, take [`crate::WalWriter::durable_bytes`], enumerate, and
//! for each point [`inject`] the damage and drive recovery on the result.
//! The property tests assert the TERP recovery invariants at every point.

use crate::record::FRAME_HEADER;

/// How the crash mangles the log image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// The log ends abruptly at this byte offset (torn write / power loss).
    Truncate(usize),
    /// The byte at this offset is bit-flipped (media corruption); everything
    /// from the damaged frame onward must be discarded by recovery.
    FlipByte(usize),
}

/// One enumerated crash point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// The damage applied.
    pub mode: CrashMode,
    /// Index of the record the damage lands in (records before it survive).
    pub record: usize,
}

impl CrashPoint {
    /// Human-readable label for failure messages.
    pub fn describe(&self) -> String {
        match self.mode {
            CrashMode::Truncate(at) => format!("truncate@{at} (record {})", self.record),
            CrashMode::FlipByte(at) => format!("flip@{at} (record {})", self.record),
        }
    }
}

/// Enumerates crash points over a durable log image: for every record, a
/// truncation at its start, mid-header, and mid-payload, plus byte flips in
/// its header and payload; and finally a clean cut at end-of-log.
///
/// The log must be a valid frame stream (take it from
/// [`crate::WalWriter::durable_bytes`] — the durable image is always valid;
/// it is the *crash* that damages it).
pub fn enumerate_crash_points(log: &[u8]) -> Vec<CrashPoint> {
    let mut points = Vec::new();
    let mut pos = 0usize;
    let mut record = 0usize;
    while log.len() - pos >= FRAME_HEADER {
        let len = u32::from_le_bytes(log[pos..pos + 4].try_into().expect("4")) as usize;
        let end = pos + FRAME_HEADER + len;
        debug_assert!(end <= log.len(), "enumerating a non-durable (torn) log");
        // Crash exactly before this record was written.
        points.push(CrashPoint {
            mode: CrashMode::Truncate(pos),
            record,
        });
        // Torn mid-header and mid-payload.
        points.push(CrashPoint {
            mode: CrashMode::Truncate(pos + FRAME_HEADER / 2),
            record,
        });
        points.push(CrashPoint {
            mode: CrashMode::Truncate(pos + FRAME_HEADER + len / 2),
            record,
        });
        // Corruption in the checksum field and in the payload.
        points.push(CrashPoint {
            mode: CrashMode::FlipByte(pos + 4),
            record,
        });
        points.push(CrashPoint {
            mode: CrashMode::FlipByte(pos + FRAME_HEADER + len / 2),
            record,
        });
        pos = end;
        record += 1;
    }
    // The no-damage point: the log survived intact.
    points.push(CrashPoint {
        mode: CrashMode::Truncate(pos),
        record,
    });
    points
}

/// Applies a crash point's damage to a copy of the log image.
pub fn inject(log: &[u8], point: CrashPoint) -> Vec<u8> {
    match point.mode {
        CrashMode::Truncate(at) => log[..at.min(log.len())].to_vec(),
        CrashMode::FlipByte(at) => {
            let mut out = log.to_vec();
            if let Some(b) = out.get_mut(at) {
                *b ^= 0x20;
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{read_log, WalRecord};
    use crate::wal::WalWriter;
    use terp_pmo::PmoId;

    fn sample_log(n: u64) -> Vec<u8> {
        let mut w = WalWriter::in_memory();
        for i in 0..n {
            w.append(&WalRecord::DataWrite {
                pmo: PmoId::new(1).unwrap(),
                offset: i * 64,
                data: vec![i as u8; 16],
            })
            .unwrap();
        }
        w.durable_bytes().unwrap().to_vec()
    }

    #[test]
    fn enumeration_scales_with_record_count() {
        let log = sample_log(40);
        let points = enumerate_crash_points(&log);
        assert_eq!(points.len(), 40 * 5 + 1);
    }

    #[test]
    fn every_injected_log_decodes_to_a_prefix_ending_before_the_damage() {
        let log = sample_log(12);
        let intact = read_log(&log).records;
        for point in enumerate_crash_points(&log) {
            let damaged = inject(&log, point);
            let decoded = read_log(&damaged);
            assert!(
                decoded.records.len() <= point.record,
                "{}: {} records survived damage in record {}",
                point.describe(),
                decoded.records.len(),
                point.record
            );
            for (i, (_, rec)) in decoded.records.iter().enumerate() {
                assert_eq!(rec, &intact[i].1, "{}: prefix differs", point.describe());
            }
        }
    }

    #[test]
    fn the_clean_point_loses_nothing() {
        let log = sample_log(5);
        let points = enumerate_crash_points(&log);
        let clean = points.last().unwrap();
        assert_eq!(read_log(&inject(&log, *clean)).records.len(), 5);
    }
}
