//! The replication message layer (terp-repl, DESIGN.md §14).
//!
//! Log shipping is a *stream*, not a request/response exchange, so it does
//! not ride the [`crate::proto`] pipelining protocol (whose server releases
//! one gate slot per response — a subscription answering forever would
//! starve the connection). Instead the replication leader runs its own
//! listener speaking this message set over the same CRC frame codec
//! ([`crate::frame`]): one frame, one [`ReplMsg`].
//!
//! Stream shape, follower's view:
//!
//! ```text
//! --> Hello{magic, version, follower}
//! <-- Welcome{version, shards}
//! --> Subscribe
//! <-- SnapshotChunk* SnapshotDone   (per shard: ckpt.log + prot.log image)
//! <-- LogBatch | Heartbeat ...      (continuous tail shipping)
//! <-- CheckpointAppend* SnapshotChunk* SnapshotDone
//!                                   (per leader checkpoint: ckpt.log growth
//!                                    or whole compacted file, new prot.log)
//! --> Ack{shard, applied_seq}       (follower progress, drives lag metrics)
//! ```
//!
//! A leader checkpoint truncates the WAL the stream is reading, so the
//! leader follows it with the checkpoint itself — the bytes `ckpt.log`
//! grew by ([`ReplMsg::CheckpointAppend`]) or, after a compaction, the
//! whole file as at bootstrap — and the new `prot.log`, then resends the
//! WAL from byte 0. The stream never restarts for a checkpoint.
//!
//! [`ReplMsg::LogBatch`] bodies are raw WAL bytes copied verbatim from the
//! leader's log files and appended verbatim to the follower's mirror — the
//! mirror is byte-identical to the leader's durable prefix *by
//! construction*. Batches may split at **arbitrary byte positions** (a WAL
//! record larger than one frame still ships); the follower re-frames with
//! the WAL's own torn-tail-tolerant decoder. The bootstrap's checkpoint
//! files chunk under [`SNAP_CHUNK`] so every message fits
//! [`crate::frame::MAX_FRAME`].

use terp_service::ServiceError;

use crate::proto::{MAGIC, VERSION};

/// Chunk size for bootstrap files and log batches (512 KiB): comfortably
/// under [`crate::frame::MAX_FRAME`] with header room to spare.
pub const SNAP_CHUNK: usize = 512 << 10;

// Follower → leader kinds.
const K_HELLO: u8 = 0x40;
const K_SUBSCRIBE: u8 = 0x41;
const K_ACK: u8 = 0x42;
// Leader → follower kinds.
const K_WELCOME: u8 = 0xC0;
const K_SNAP_CHUNK: u8 = 0xC1;
const K_SNAP_DONE: u8 = 0xC2;
const K_LOG_BATCH: u8 = 0xC3;
const K_HEARTBEAT: u8 = 0xC4;
const K_CKPT_APPEND: u8 = 0xC5;

/// One replication stream message (either direction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplMsg {
    /// Follower handshake: protocol magic/version plus the follower's
    /// self-assigned identity (diagnostics only).
    Hello {
        /// Must equal [`MAGIC`].
        magic: u32,
        /// Must equal [`VERSION`].
        version: u16,
        /// Follower identity tag.
        follower: u64,
    },
    /// Leader accepts the handshake.
    Welcome {
        /// Leader's protocol version.
        version: u16,
        /// Leader shard count — the follower mirrors one WAL per shard.
        shards: u32,
    },
    /// Follower requests the checkpoint bootstrap + continuous log stream.
    Subscribe,
    /// One chunk of a checkpoint file (bootstrap). `index`/`total` let the
    /// follower reassemble and know when the file is whole.
    SnapshotChunk {
        /// Shard the file belongs to.
        shard: u32,
        /// Checkpoint file name: `ckpt.log` or `prot.log`.
        file: String,
        /// Chunk index, `0..total`.
        index: u32,
        /// Total chunks of this file.
        total: u32,
        /// Raw file bytes of this chunk (≤ [`SNAP_CHUNK`]).
        bytes: Vec<u8>,
    },
    /// A shard's checkpoint files are complete (bootstrap, or a checkpoint
    /// taken since); LogBatches follow from byte 0 of the leader's WAL.
    SnapshotDone {
        /// Shard whose checkpoint finished.
        shard: u32,
    },
    /// Bytes a leader checkpoint appended to a shard's `ckpt.log`, to be
    /// written at `offset` of the follower's copy (which must be exactly
    /// that long). Completed, with the new `prot.log`, by `SnapshotDone`.
    CheckpointAppend {
        /// Shard whose `ckpt.log` grew.
        shard: u32,
        /// Length of `ckpt.log` these bytes follow.
        offset: u64,
        /// Appended bytes (≤ [`SNAP_CHUNK`]).
        bytes: Vec<u8>,
    },
    /// Raw WAL bytes to append verbatim to the shard's mirror log. May
    /// split mid-record; the mirror's decoder tolerates the seam.
    LogBatch {
        /// Shard whose WAL these bytes extend.
        shard: u32,
        /// Verbatim log bytes.
        bytes: Vec<u8>,
    },
    /// Leader progress mark: the highest durable WAL seq of `shard`.
    /// Shipped even when no new bytes exist so lag is measurable at idle.
    Heartbeat {
        /// Shard the mark describes.
        shard: u32,
        /// Highest durable sequence number on the leader.
        durable_seq: u64,
    },
    /// Follower progress mark: every record of `shard` up to `applied_seq`
    /// has been applied to the warm standby.
    Ack {
        /// Shard the mark describes.
        shard: u32,
        /// Highest applied sequence number on the follower.
        applied_seq: u64,
    },
}

fn perr(msg: impl Into<String>) -> ServiceError {
    ServiceError::Protocol(msg.into())
}

/// Bounds-checked little-endian cursor (same shape as the proto layer's,
/// private to each message set).
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ServiceError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| perr("truncated replication message"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ServiceError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ServiceError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, ServiceError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, ServiceError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn string(&mut self) -> Result<String, ServiceError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| perr("non-UTF-8 string in replication message"))
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    fn finish(self) -> Result<(), ServiceError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(perr(format!(
                "{} trailing bytes after replication message",
                self.buf.len() - self.pos
            )))
        }
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    out.extend_from_slice(&(len as u16).to_le_bytes());
    out.extend_from_slice(&bytes[..len]);
}

impl ReplMsg {
    /// Serializes the message as one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            ReplMsg::Hello {
                magic,
                version,
                follower,
            } => {
                out.push(K_HELLO);
                out.extend_from_slice(&magic.to_le_bytes());
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&follower.to_le_bytes());
            }
            ReplMsg::Welcome { version, shards } => {
                out.push(K_WELCOME);
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&shards.to_le_bytes());
            }
            ReplMsg::Subscribe => out.push(K_SUBSCRIBE),
            ReplMsg::SnapshotChunk {
                shard,
                file,
                index,
                total,
                bytes,
            } => {
                out.push(K_SNAP_CHUNK);
                out.extend_from_slice(&shard.to_le_bytes());
                put_string(&mut out, file);
                out.extend_from_slice(&index.to_le_bytes());
                out.extend_from_slice(&total.to_le_bytes());
                out.extend_from_slice(bytes);
            }
            ReplMsg::SnapshotDone { shard } => {
                out.push(K_SNAP_DONE);
                out.extend_from_slice(&shard.to_le_bytes());
            }
            ReplMsg::CheckpointAppend {
                shard,
                offset,
                bytes,
            } => {
                out.push(K_CKPT_APPEND);
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(bytes);
            }
            ReplMsg::LogBatch { shard, bytes } => {
                out.push(K_LOG_BATCH);
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(bytes);
            }
            ReplMsg::Heartbeat { shard, durable_seq } => {
                out.push(K_HEARTBEAT);
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&durable_seq.to_le_bytes());
            }
            ReplMsg::Ack { shard, applied_seq } => {
                out.push(K_ACK);
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&applied_seq.to_le_bytes());
            }
        }
        out
    }

    /// Deserializes one frame payload.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Protocol`] on truncation, unknown kinds, or trailing
    /// bytes — always connection-fatal, as for the proto layer.
    pub fn decode(payload: &[u8]) -> Result<ReplMsg, ServiceError> {
        let mut c = Cursor::new(payload);
        let msg = match c.u8()? {
            K_HELLO => ReplMsg::Hello {
                magic: c.u32()?,
                version: c.u16()?,
                follower: c.u64()?,
            },
            K_WELCOME => ReplMsg::Welcome {
                version: c.u16()?,
                shards: c.u32()?,
            },
            K_SUBSCRIBE => ReplMsg::Subscribe,
            K_SNAP_CHUNK => ReplMsg::SnapshotChunk {
                shard: c.u32()?,
                file: c.string()?,
                index: c.u32()?,
                total: c.u32()?,
                bytes: c.rest().to_vec(),
            },
            K_SNAP_DONE => ReplMsg::SnapshotDone { shard: c.u32()? },
            K_CKPT_APPEND => ReplMsg::CheckpointAppend {
                shard: c.u32()?,
                offset: c.u64()?,
                bytes: c.rest().to_vec(),
            },
            K_LOG_BATCH => ReplMsg::LogBatch {
                shard: c.u32()?,
                bytes: c.rest().to_vec(),
            },
            K_HEARTBEAT => ReplMsg::Heartbeat {
                shard: c.u32()?,
                durable_seq: c.u64()?,
            },
            K_ACK => ReplMsg::Ack {
                shard: c.u32()?,
                applied_seq: c.u64()?,
            },
            other => return Err(perr(format!("unknown replication kind {other:#04x}"))),
        };
        c.finish()?;
        Ok(msg)
    }

    /// The well-formed handshake a follower opens with.
    pub fn hello(follower: u64) -> ReplMsg {
        ReplMsg::Hello {
            magic: MAGIC,
            version: VERSION,
            follower,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_msgs() -> Vec<ReplMsg> {
        vec![
            ReplMsg::hello(42),
            ReplMsg::Welcome {
                version: VERSION,
                shards: 16,
            },
            ReplMsg::Subscribe,
            ReplMsg::SnapshotChunk {
                shard: 3,
                file: "ckpt.log".to_string(),
                index: 2,
                total: 9,
                bytes: vec![0xAB; 100],
            },
            ReplMsg::SnapshotChunk {
                shard: 0,
                file: String::new(),
                index: 0,
                total: 1,
                bytes: Vec::new(),
            },
            ReplMsg::SnapshotDone { shard: u32::MAX },
            ReplMsg::CheckpointAppend {
                shard: 2,
                offset: 1 << 40,
                bytes: vec![0x3C; 77],
            },
            ReplMsg::LogBatch {
                shard: 1,
                bytes: vec![0x5A; 333],
            },
            ReplMsg::Heartbeat {
                shard: 7,
                durable_seq: u64::MAX,
            },
            ReplMsg::Ack {
                shard: 0,
                applied_seq: 1 << 50,
            },
        ]
    }

    #[test]
    fn roundtrip_all_kinds() {
        for msg in all_msgs() {
            let wire = msg.encode();
            assert_eq!(ReplMsg::decode(&wire).unwrap(), msg, "{msg:?}");
        }
    }

    #[test]
    fn truncation_at_every_cut_is_a_protocol_error() {
        for msg in all_msgs() {
            let wire = msg.encode();
            for cut in 0..wire.len() {
                let r = ReplMsg::decode(&wire[..cut]);
                // Shorter prefixes of byte-greedy messages (LogBatch /
                // SnapshotChunk tails) may still parse — but only into the
                // same kind with a shorter body; anything else must be a
                // clean Protocol error.
                if let Err(e) = r {
                    assert!(
                        matches!(e, ServiceError::Protocol(_)),
                        "{msg:?} cut {cut}: {e:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn unknown_kind_and_trailing_bytes_are_refused() {
        assert!(matches!(
            ReplMsg::decode(&[0x7F]),
            Err(ServiceError::Protocol(_))
        ));
        let mut wire = ReplMsg::Subscribe.encode();
        wire.push(0);
        assert!(matches!(
            ReplMsg::decode(&wire),
            Err(ServiceError::Protocol(_))
        ));
        assert!(matches!(
            ReplMsg::decode(&[]),
            Err(ServiceError::Protocol(_))
        ));
    }

    #[test]
    fn bad_handshake_fields_still_decode_for_the_leader_to_refuse() {
        // Version negotiation happens above the codec: a wrong magic still
        // *decodes*; the leader inspects and refuses it.
        let msg = ReplMsg::Hello {
            magic: 0xDEAD_BEEF,
            version: 99,
            follower: 1,
        };
        assert_eq!(ReplMsg::decode(&msg.encode()).unwrap(), msg);
    }
}
