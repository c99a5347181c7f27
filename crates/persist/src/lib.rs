//! `terp-persist` — durable file-backed storage for TERP PMO pools.
//!
//! The in-process [`terp_pmo`] substrate models persistent memory, but its
//! pools live in the process heap: a real crash loses everything, which
//! makes the crash-consistency story of the paper untestable end to end.
//! This crate closes that gap with a classic log + checkpoint design,
//! extended with the piece specific to TERP: the log records
//! *protection-state* mutations alongside data, so recovery can enforce the
//! temporal-exposure invariant across crashes.
//!
//! # Pieces
//!
//! * [`record`] — the WAL record set and its CRC-framed binary encoding;
//!   decoding truncates at the first invalid frame (torn-tail semantics).
//! * [`wal`] — [`WalWriter`]: the log sink, file-backed or in-memory; every
//!   append is written and synced before it returns.
//! * [`writer`] — the pipelined log path: [`AsyncWalWriter`] accepts
//!   appends at *submit*, batches adaptively on a background thread that
//!   owns the file sink, and publishes a monotonic durability watermark
//!   ([`DurabilityGate`]) that callers (or per-append [`DurableTicket`]s)
//!   wait on only when they need durability.
//! * [`crash`] — deterministic crash injection: [`enumerate_crash_points`]
//!   walks a durable log image and yields every truncation and corruption
//!   point; [`inject`] applies one.
//! * [`recovery`] — [`recover_segments`]: replay the checkpoint log, the
//!   protection image and the WAL (with `Alloc` divergence checking), roll
//!   back in-flight transactions via [`terp_pmo::txn::recover`], then
//!   **reseal**: every exposure window open at crash time is force-closed
//!   and its pool's MERR placement re-randomized
//!   ([`terp_pmo::Pmo::reseal`]) before any session can reattach. Windows
//!   are re-sealed, never resumed.
//! * [`store`] — [`DurableStore`]: one directory (WAL + checkpoint log +
//!   protection image) with open-time recovery, the pipelined write path,
//!   and the crash-safe checkpoint protocol with its compaction rule.
//! * [`tail`] — [`TailReader`]: stable tail reads over a *live* WAL for log
//!   shipping; a torn tail under a racing batch append reads as
//!   [`TailStatus::NeedMore`], never as corruption.
//!
//! # Quick start
//!
//! ```
//! use terp_persist::{DurableStore, WalRecord};
//! use terp_pmo::{OpenMode, PmoRegistry};
//! # fn main() -> Result<(), terp_persist::PersistError> {
//! let dir = std::env::temp_dir().join(format!("terp-doc-{}", std::process::id()));
//! let (mut store, recovered, report) = DurableStore::open(&dir)?;
//! assert_eq!(report.pools_recovered, 0); // fresh directory
//!
//! // Mirror every mutation into the log…
//! let mut reg = recovered.registry;
//! let id = reg.create("ledger", 1 << 20, OpenMode::ReadWrite)?;
//! store.log(&WalRecord::PoolCreate {
//!     id,
//!     name: "ledger".into(),
//!     size: 1 << 20,
//!     mode: OpenMode::ReadWrite,
//! })?;
//! store.sync()?;
//! drop(store);
//!
//! // …and the next open replays it.
//! let (_, recovered, _) = DurableStore::open(&dir)?;
//! assert!(recovered.registry.lookup("ledger").is_some());
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod crash;
pub mod crc;
pub mod error;
pub mod record;
pub mod recovery;
pub mod store;
pub mod tail;
pub mod wal;
pub mod writer;

pub use crash::{enumerate_crash_points, inject, CrashMode, CrashPoint};
pub use error::PersistError;
pub use record::{read_log, LogContents, WalRecord};
pub use recovery::{recover, recover_segments, RecoveredState, RecoveryReport};
pub use store::{DurableStore, CHECKPOINT_EVERY, CKPT_FILE, PROT_FILE, WAL_FILE};
#[doc(hidden)]
pub use store::{FsyncPolicy, WalMode};
pub use tail::{TailChunk, TailReader, TailStatus};
pub use wal::{WalStats, WalWriter};
pub use writer::{AsyncWalWriter, BarrierJob, BarrierTicket, DurabilityGate, DurableTicket};
