//! # terp-service — a concurrent PMO service layer
//!
//! The second execution substrate of the TERP reproduction, next to the
//! discrete-event simulator in `terp-core::runtime`: an in-process,
//! multi-threaded service where *real OS threads* issue
//! attach/detach/read/write/alloc requests against `terp-pmo` pools under
//! the paper's protection semantics (HPCA 2022, Section VII-C's concurrency
//! regime).
//!
//! Architecture (DESIGN.md §9):
//!
//! * **Shards** — pool ids map to shards by mask; each shard owns its pools,
//!   address-space slice, permission matrix, MERR state, conditional engine,
//!   and window tracker behind one mutex, so operations on PMOs in distinct
//!   shards never contend.
//! * **Sweeper** — a background thread running the circular-buffer expiry
//!   walk (close idle expired windows, randomize live ones) with clean
//!   flag/wake/join shutdown.
//! * **Contention semantics** — Basic semantics blocks conflicting attaches
//!   on a per-shard condvar (MM and the basic-semantics ablation); TERP
//!   schemes lower inner attaches/detaches to silent thread-permission
//!   updates through the `CondEngine`.
//! * **Time** — nanoseconds since service start stand in for simulator
//!   cycles (1 ns ≡ 1 cycle); the [`CostModel`] busy-waits convert the
//!   paper's syscall/conditional cycle charges into real latency.
//!
//! ```
//! use terp_core::config::Scheme;
//! use terp_pmo::{OpenMode, Permission};
//! use terp_service::{PmoServer, ServiceConfig};
//!
//! let server = PmoServer::start(ServiceConfig::for_tests(Scheme::terp_full()));
//! let svc = server.service();
//! let pool = svc.create_pool("ledger", 1 << 16, OpenMode::ReadWrite).unwrap();
//! svc.attach(0, pool, Permission::ReadWrite).unwrap();
//! let oid = svc.alloc(0, pool, 64).unwrap();
//! svc.write(0, oid, b"persistent").unwrap();
//! assert_eq!(svc.read(0, oid, 10).unwrap(), b"persistent");
//! svc.detach(0, pool).unwrap();
//! let report = server.shutdown();
//! assert_eq!(report.ops.writes, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod clock;
pub mod config;
pub mod error;
mod fastpath;
pub mod metrics;
pub mod server;
pub mod service;
mod shard;
pub mod sweeper;

/// Identifies one client (worker thread / logical session owner) of the
/// service. Client ids are caller-assigned; the service only requires them
/// to be stable per logical client.
pub type ClientId = usize;

pub use clock::ServiceClock;
pub use config::{CostModel, ServiceConfig, Visibility};
pub use error::ServiceError;
pub use metrics::{LatencyHistogram, OpCounters, RecoveryStats, ServiceReport};
pub use server::PmoServer;
pub use service::PmoService;
pub use sweeper::Sweeper;
pub use terp_trace::{TraceConfig, TraceRecorder};
