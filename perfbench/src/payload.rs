//! Self-checking 64-byte object payloads.
//!
//! Every payload names the object it was written to and a per-object
//! version; the remaining 48 bytes are a fill derived from both, so a torn,
//! misdirected or corrupted read is caught as well as a stale one.
//!
//! ```text
//! [0..8)  object id (packed, little endian)
//! [8..16) version   (little endian, 1 = the preallocation write)
//! [16..64) splitmix64 stream seeded by (object id, version)
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::gen::splitmix64;

/// Bytes per object, read or written as a whole.
pub const PAYLOAD: usize = 64;

/// Builds the payload for version `version` of object `oid`.
pub fn encode(oid: u64, version: u64) -> [u8; PAYLOAD] {
    let mut out = [0u8; PAYLOAD];
    out[0..8].copy_from_slice(&oid.to_le_bytes());
    out[8..16].copy_from_slice(&version.to_le_bytes());
    let mut state = oid ^ version.rotate_left(32);
    for chunk in out[16..].chunks_mut(8) {
        chunk.copy_from_slice(&splitmix64(&mut state).to_le_bytes());
    }
    out
}

/// Checks a read of object `oid` that was sent after version `floor` had
/// been acknowledged. Returns the version read.
///
/// # Errors
///
/// A description of the first thing wrong: length, object id, fill bytes,
/// or a version older than `floor`.
pub fn check(bytes: &[u8], oid: u64, floor: u64) -> Result<u64, String> {
    if bytes.len() != PAYLOAD {
        return Err(format!("read of {oid:#x} returned {} bytes", bytes.len()));
    }
    let got_oid = u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes"));
    let version = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    if got_oid != oid {
        return Err(format!("read of {oid:#x} returned object {got_oid:#x}"));
    }
    if bytes != encode(oid, version) {
        return Err(format!("read of {oid:#x} v{version}: fill bytes corrupted"));
    }
    if version < floor {
        return Err(format!(
            "read of {oid:#x} returned v{version}, older than acked v{floor}"
        ));
    }
    Ok(version)
}

/// A fault injected into one read, to prove the output checks fail a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// One byte of the payload is flipped before it is checked.
    Corrupt,
    /// The read is reported as an error.
    Fail,
}

/// Reads left before the armed fault hits one (0: never), and its kind
/// (`Fault::Fail` when `FAULT_FAILS`). Set once, from the command line.
static FAULT_AFTER: AtomicU64 = AtomicU64::new(0);
static FAULT_FAILS: AtomicBool = AtomicBool::new(false);

/// Arms fault injection: the `n`-th read (1-based) gets `fault`.
pub fn arm(fault: Fault, n: u64) {
    FAULT_FAILS.store(fault == Fault::Fail, Ordering::Relaxed);
    FAULT_AFTER.store(n, Ordering::Relaxed);
}

/// Counts one read and returns the fault it gets, if any; `None` unless
/// armed.
pub fn next_read_fault() -> Option<Fault> {
    if FAULT_AFTER.load(Ordering::Relaxed) == 0
        || FAULT_AFTER.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            != Ok(1)
    {
        return None;
    }
    Some(if FAULT_FAILS.load(Ordering::Relaxed) {
        Fault::Fail
    } else {
        Fault::Corrupt
    })
}

/// Applies `Fault::Corrupt` to a read's bytes.
pub fn corrupt(bytes: &mut [u8]) {
    if let Some(b) = bytes.get_mut(PAYLOAD / 2) {
        *b ^= 0x40;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_accepts_current_and_newer_versions() {
        let p = encode(0xabc, 7);
        assert_eq!(check(&p, 0xabc, 7), Ok(7));
        assert_eq!(check(&p, 0xabc, 3), Ok(7));
    }

    #[test]
    fn stale_version_is_rejected() {
        let p = encode(0xabc, 4);
        assert!(check(&p, 0xabc, 5).unwrap_err().contains("older"));
    }

    #[test]
    fn wrong_object_is_rejected() {
        let p = encode(0xabc, 4);
        assert!(check(&p, 0xabd, 0).unwrap_err().contains("returned object"));
    }

    #[test]
    fn every_corrupted_byte_is_caught() {
        let p = encode(0x1234_5678, 9);
        for i in 0..PAYLOAD {
            let mut bad = p;
            bad[i] ^= 0x01;
            assert!(check(&bad, 0x1234_5678, 0).is_err(), "flip at byte {i}");
        }
        assert!(check(&p[..63], 0x1234_5678, 0).is_err());
    }
}
