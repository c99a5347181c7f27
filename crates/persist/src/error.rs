//! Error type for the persist layer.

use std::fmt;
use std::io;
use std::path::PathBuf;

use terp_pmo::{PmoError, PmoId};

/// Errors produced by WAL, checkpoint, and recovery operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum PersistError {
    /// The underlying file system failed.
    Io(io::Error),
    /// Replaying the log diverged from the logged outcome (e.g. an `Alloc`
    /// record whose replayed offset differs) — the log and the pool state it
    /// describes are inconsistent.
    ReplayDivergence {
        /// Pool being replayed.
        pmo: PmoId,
        /// What diverged.
        detail: String,
    },
    /// The PMO substrate rejected a replayed operation.
    Substrate(PmoError),
    /// The store directory holds a file of a retired on-disk format that
    /// is no longer read: a full `pool-*.snap` pool snapshot. Opening the
    /// store without it would silently lose that pool.
    RetiredFormat {
        /// The offending file.
        path: PathBuf,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persist: io error: {e}"),
            PersistError::ReplayDivergence { pmo, detail } => {
                write!(f, "persist: replay diverged on pool {pmo}: {detail}")
            }
            PersistError::Substrate(e) => write!(f, "persist: {e}"),
            PersistError::RetiredFormat { path } => write!(
                f,
                "persist: {} is a full pool snapshot (pool-*.snap), a retired \
                 checkpoint format this version does not read",
                path.display()
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Substrate(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<PmoError> for PersistError {
    fn from(e: PmoError) -> Self {
        PersistError::Substrate(e)
    }
}
