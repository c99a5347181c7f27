//! Service configuration and the nanosecond cost model.
//!
//! The simulator half of the workspace measures everything in *cycles* under
//! [`SimParams`]; the service half runs on real OS threads and therefore
//! measures in *nanoseconds* since the service epoch ([`crate::ServiceClock`]).
//! [`CostModel::from_sim`] is the bridge: it converts the paper's syscall /
//! conditional / randomization cycle charges into busy-wait durations so a
//! load generator observes latency distributions with the same shape the
//! simulator charges.

use std::path::PathBuf;

use terp_core::config::Scheme;
use terp_sim::SimParams;
use terp_trace::TraceConfig;

/// When a durable-mode operation's effects become externally visible —
/// i.e. when the mutating call returns to its caller (and therefore when a
/// net response or repl ack may be sent). This is the only durability
/// setting: every shard logs through the pipelined writer, which fsyncs
/// each batch, and checkpoints every
/// [`terp_persist::CHECKPOINT_EVERY`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Visibility {
    /// Return at *submit*: the mutation is journaled (and becomes durable
    /// with the writer's next batch) but the call does not wait for the
    /// fsync. Highest throughput; a crash can lose the tail of
    /// acknowledged-but-unfsynced operations. Recovery still reseals every
    /// crash-open window — the TERP invariant never depends on this knob.
    #[default]
    Submit,
    /// Return only once the operation's log record is *durable* (its seq is
    /// below the durability watermark): grant acks, detach/expiry resealing
    /// acks, and writes all wait on the watermark, giving
    /// read-your-durable-writes and no acknowledged effect ever preceding
    /// its record's fsync.
    Durable,
}

impl Visibility {
    /// Parses a visibility name (`submit` / `durable`), as used by CLI
    /// flags.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "submit" => Some(Visibility::Submit),
            "durable" => Some(Visibility::Durable),
            _ => None,
        }
    }
}

/// Busy-wait charges (in nanoseconds) applied by the service to model the
/// relative costs of full system calls, lowered conditional operations, and
/// in-place randomizations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Cost of a full `attach()` system call.
    pub attach_ns: u64,
    /// Cost of a full `detach()` system call.
    pub detach_ns: u64,
    /// Cost of a lowered (silent) conditional op — a thread-permission
    /// update.
    pub cond_ns: u64,
    /// Cost of an in-place randomization (all threads of the pool suspend).
    pub randomize_ns: u64,
}

impl CostModel {
    /// No artificial delays: every operation costs only its real lock/work
    /// time. Used by the soak tests so they stay fast and deterministic.
    pub fn zero() -> Self {
        CostModel {
            attach_ns: 0,
            detach_ns: 0,
            cond_ns: 0,
            randomize_ns: 0,
        }
    }

    /// Derives nanosecond charges from the simulator's cycle costs at the
    /// simulated clock rate (`SimParams::clock_ghz`).
    pub fn from_sim(params: &SimParams) -> Self {
        let ns = |cycles: u64| (cycles as f64 / params.clock_ghz).round() as u64;
        CostModel {
            attach_ns: ns(params.attach_syscall_cycles),
            detach_ns: ns(params.detach_syscall_cycles),
            cond_ns: ns(params.silent_cond_cycles),
            randomize_ns: ns(params.randomization_cycles),
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::from_sim(&SimParams::default())
    }
}

/// Configuration for a [`crate::PmoService`] / [`crate::PmoServer`] instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Protection scheme enforced at the service boundary.
    pub scheme: Scheme,
    /// Number of session shards. Rounded up to a power of two so the
    /// pool-id → shard map is a mask. Concurrent operations on PMOs in
    /// distinct shards never contend.
    pub shards: usize,
    /// Maximum (process) exposure-window target in microseconds; expired
    /// windows are closed or re-randomized by the sweeper.
    pub ew_target_us: u64,
    /// Sweeper wake-up period in microseconds (0 disables the thread; tests
    /// then drive [`crate::PmoService::sweep_all`] manually).
    pub sweep_period_us: u64,
    /// Circular-buffer capacity per shard (paper default 32).
    pub cb_capacity: usize,
    /// Base seed for per-shard address-space randomization.
    pub seed: u64,
    /// Busy-wait cost charges.
    pub cost: CostModel,
    /// Whether data ops and permission probes may take the lock-free
    /// seqlock fast path (DESIGN.md §11). `false` forces every operation
    /// through the shard mutex — the PR-2 locked baseline, kept for
    /// apples-to-apples benchmarking (`terp-hotpath`).
    pub fastpath: bool,
    /// Durable mode: when set, the root directory of the per-shard stores.
    /// Each shard journals its mutations to a file-backed
    /// [`terp_persist::DurableStore`] in `dir/shard-<i>`, recovers from it
    /// at startup, and checkpoints every
    /// [`terp_persist::CHECKPOINT_EVERY`] records and at drain. The
    /// directory is bound to the shard count it was first written with —
    /// reopening it under a different `effective_shards()` is refused at
    /// startup. `None` keeps the service purely in-memory.
    pub durable: Option<PathBuf>,
    /// Flight recorder: when set, every service operation appends trace
    /// events to per-thread lock-free rings (DESIGN.md §12) which can be
    /// dumped and replayed by the offline happens-before checker. `None`
    /// (the default) records nothing and adds no per-op cost.
    pub trace: Option<TraceConfig>,
    /// Warm-standby mode (terp-repl, DESIGN.md §14): the service starts
    /// read-only — every client mutation is refused with
    /// [`crate::ServiceError::ReadOnly`] — until
    /// [`crate::PmoService::promote`] flips it to leader.
    pub standby: bool,
    /// Durable-mode visibility rule: whether mutating calls return at
    /// submit or only once their log record is durable (DESIGN.md §16).
    /// Ignored when `durable` is `None`.
    pub visibility: Visibility,
}

impl ServiceConfig {
    /// A configuration with the paper's defaults under the given scheme:
    /// 16 shards, 40 µs EW target, 10 µs sweep period, 32-entry buffers,
    /// simulator-derived costs.
    pub fn new(scheme: Scheme) -> Self {
        ServiceConfig {
            scheme,
            shards: 16,
            ew_target_us: 40,
            sweep_period_us: 10,
            cb_capacity: 32,
            seed: 0x7e2f,
            cost: CostModel::default(),
            fastpath: true,
            durable: None,
            trace: None,
            standby: false,
            visibility: Visibility::Submit,
        }
    }

    /// Test-friendly variant: zero costs, few shards, tiny windows so expiry
    /// paths trigger quickly.
    pub fn for_tests(scheme: Scheme) -> Self {
        ServiceConfig {
            shards: 4,
            ew_target_us: 1,
            sweep_period_us: 0,
            cost: CostModel::zero(),
            ..Self::new(scheme)
        }
    }

    /// Sets the shard count (rounded up to a power of two at service start).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the exposure-window target.
    pub fn with_ew_target_us(mut self, us: u64) -> Self {
        self.ew_target_us = us;
        self
    }

    /// Sets the sweeper period (0 disables the background thread).
    pub fn with_sweep_period_us(mut self, us: u64) -> Self {
        self.sweep_period_us = us;
        self
    }

    /// Sets the randomization seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Enables or disables the lock-free fast path (enabled by default).
    pub fn with_fastpath(mut self, fastpath: bool) -> Self {
        self.fastpath = fastpath;
        self
    }

    /// Enables durable mode rooted at `dir` (see [`ServiceConfig::durable`]).
    pub fn with_durable(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durable = Some(dir.into());
        self
    }

    /// Starts the service as a read-only warm standby (see
    /// [`ServiceConfig::standby`]).
    pub fn with_standby(mut self, standby: bool) -> Self {
        self.standby = standby;
        self
    }

    /// Sets the durable-mode visibility rule (see [`Visibility`]).
    pub fn with_visibility(mut self, visibility: Visibility) -> Self {
        self.visibility = visibility;
        self
    }

    /// Enables the flight recorder with the given ring sizing
    /// ([`TraceConfig::flight`] for bounded always-on recording,
    /// [`TraceConfig::full`] for exact short-run capture).
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = Some(trace);
        self
    }

    /// The EW target in nanoseconds (service cycles).
    pub fn ew_target_ns(&self) -> u64 {
        self.ew_target_us * 1_000
    }

    /// Shard count rounded up to a power of two, minimum 1.
    pub fn effective_shards(&self) -> usize {
        self.shards.max(1).next_power_of_two()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_matches_sim_params() {
        let p = SimParams::default();
        let c = CostModel::from_sim(&p);
        // 4422 cycles at 2.2 GHz ≈ 2010 ns.
        assert_eq!(c.attach_ns, 2010);
        assert_eq!(c.detach_ns, 1390);
        assert_eq!(c.cond_ns, 12);
        assert_eq!(c.randomize_ns, 1690);
        assert_eq!(CostModel::zero().attach_ns, 0);
    }

    #[test]
    fn shards_round_to_power_of_two() {
        let c = ServiceConfig::new(Scheme::terp_full()).with_shards(5);
        assert_eq!(c.effective_shards(), 8);
        assert_eq!(c.with_shards(0).effective_shards(), 1);
    }

    #[test]
    fn ew_target_converts_to_ns() {
        let c = ServiceConfig::new(Scheme::terp_full()).with_ew_target_us(40);
        assert_eq!(c.ew_target_ns(), 40_000);
    }
}
