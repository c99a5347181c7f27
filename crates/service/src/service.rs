//! The service proper: scheme semantics enforced at the shard boundary.
//!
//! * **Basic semantics** (MM / basic-semantics ablation): a pool has at most
//!   one owning client; a conflicting attach *blocks* on the shard condvar
//!   until the owner detaches or the service shuts down.
//! * **EW-conscious semantics** (TM / TT): attach/detach run through the
//!   shard's [`CondEngine`]; lowered operations update only the client's
//!   thread-permission set (a *silent* conditional op), and only
//!   first-attach / full-detach outcomes touch the address space.
//! * **Unprotected**: constructs are bookkeeping only — pools stay mapped
//!   once touched, nothing is checked.
//!
//! Hot-path layering (DESIGN.md §11): data ops and permission probes first
//! try the lock-free fast path — a [`crate::fastpath::PoolIndex`] lookup
//! plus a seqlock snapshot of the pool's published window state — and fall
//! back to the locked slow path on any miss, mid-publish collision,
//! crowded-pool overflow, or would-be failure, so every error and denial is
//! produced by exactly the same code as before. Pool creation is sharded
//! too: a global atomic id allocator plus hash-sharded name maps replace
//! the old global registry mutex. Metrics go to per-thread slabs
//! ([`crate::metrics::MetricsHub`]) merged at report time.
//!
//! Every operation computes its cost charge (see [`crate::CostModel`])
//! under the shard lock but *spins it off after the lock is released*, so
//! modeled syscall latency does not serialize unrelated clients of the same
//! shard.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use terp_arch::{AttachOutcome, CondStats, DetachOutcome, MerrStats, SweepAction};
use terp_core::config::Scheme;
use terp_core::permission::Right;
use terp_persist::{DurableStore, WalRecord};
use terp_pmo::id::MAX_POOL_ID;
use terp_pmo::{AccessKind, ObjectId, OpenMode, Permission, Pmo, PmoError, PmoId};
use terp_trace::{EventKind, TraceRecorder};

use crate::clock::ServiceClock;
use crate::config::ServiceConfig;
use crate::error::ServiceError;
use crate::fastpath::{PoolIndex, PoolSlot, WindowSnapshot};
use crate::metrics::{
    merge_cond_stats, merge_window_stats, MetricsHub, RecoveryStats, ServiceReport, ThreadSlab,
};
use crate::shard::{Shard, ShardState};
use crate::ClientId;

fn right_for(kind: AccessKind) -> Right {
    match kind {
        AccessKind::Read => Right::Read,
        AccessKind::Write => Right::Write,
    }
}

/// A shard-state guard that records `LockAcquire`/`LockRelease` trace
/// events around the mutex critical section. When tracing is off it is a
/// transparent wrapper adding one branch per lock transition.
///
/// The acquisition index (`ShardState::lock_seq`) is incremented *under*
/// the mutex, so index order is acquisition order: the offline checker
/// derives `release(k) happens-before acquire(k')` for every `k < k'` on
/// the same shard.
///
/// Lock pairs are emitted *lazily*: the `LockAcquire` is written to the
/// ring only when the critical section records its first event (see
/// `ShardState::trace`), and the matching `LockRelease` only if that
/// happened. A section that recorded nothing contributes no lock events —
/// which is happens-before-equivalent (edges are `release(k) → acquire(k')`
/// for every `k < k'`, so empty sections never carry an edge between
/// recorded events) and keeps quiet sections (alloc/free, sampled-out data
/// ops) free of ring traffic.
struct StateGuard<'a> {
    /// `Some` between acquisition and drop; taken by [`Self::wait_on`].
    guard: Option<MutexGuard<'a, ShardState>>,
}

impl<'a> StateGuard<'a> {
    fn acquire(mut guard: MutexGuard<'a, ShardState>) -> Self {
        if guard.tracer.is_some() {
            guard.lock_seq += 1;
            guard.lock_pending.set(true);
        }
        StateGuard { guard: Some(guard) }
    }

    fn record_release(state: &ShardState) {
        // Only close sections that actually opened (recorded an event).
        if !state.lock_pending.replace(false) && state.tracer.is_some() {
            state.trace_raw(EventKind::LockRelease {
                obj: state.idx,
                seq: state.lock_seq,
            });
        }
    }

    /// Sleeps on `cvar` (bounded), releasing and re-acquiring the mutex —
    /// with the release/acquire trace events a plain
    /// [`Condvar::wait_timeout`] would silently skip.
    fn wait_on(mut self, cvar: &Condvar, timeout: Duration) -> Self {
        let guard = self.guard.take().expect("guard present until drop");
        Self::record_release(&guard);
        let (guard, _) = cvar
            .wait_timeout(guard, timeout)
            .unwrap_or_else(|e| e.into_inner());
        Self::acquire(guard)
    }
}

impl Deref for StateGuard<'_> {
    type Target = ShardState;
    fn deref(&self) -> &ShardState {
        self.guard.as_ref().expect("guard present until drop")
    }
}

impl DerefMut for StateGuard<'_> {
    fn deref_mut(&mut self) -> &mut ShardState {
        self.guard.as_mut().expect("guard present until drop")
    }
}

impl Drop for StateGuard<'_> {
    fn drop(&mut self) {
        if let Some(guard) = self.guard.take() {
            Self::record_release(&guard);
        }
    }
}

/// The in-process PMO service. Shareable across worker threads via `Arc`;
/// every method takes `&self`.
#[derive(Debug)]
pub struct PmoService {
    config: ServiceConfig,
    clock: ServiceClock,
    /// Hash-sharded name → id maps: pool creation in different name shards
    /// never contends (the old global registry mutex is gone).
    names: Vec<Mutex<HashMap<String, PmoId>>>,
    /// Global id allocator; ids are unique and never reused, which is what
    /// lets the [`PoolIndex`] publish each slot exactly once.
    next_id: AtomicU64,
    /// Lock-free cross-shard pool index for the fast path.
    index: PoolIndex,
    shards: Vec<Shard>,
    shard_mask: usize,
    shutting_down: AtomicBool,
    /// Warm-standby gate (terp-repl): while set, every client mutation is
    /// refused with [`ServiceError::ReadOnly`]; [`Self::promote`] clears it.
    read_only: AtomicBool,
    sweep_passes: AtomicU64,
    /// The adaptive sweeper's thread handle, registered by the sweeper
    /// itself so first-attaches can wake it from an indefinite park.
    sweeper_thread: Mutex<Option<std::thread::Thread>>,
    metrics: MetricsHub,
    recovery: Option<RecoveryStats>,
    /// Pools startup recovery resealed (sorted; see [`Self::resealed`]).
    resealed: Vec<PmoId>,
    /// Flight recorder shared with every shard (`None` = tracing off).
    tracer: Option<Arc<TraceRecorder>>,
    /// Monotonic sweeper wake tickets: each [`Self::wake_sweeper`] issues
    /// the next ticket (`Unpark` event) and each sweep pass stamps the
    /// highest ticket it observed (`Wakeup` event), giving the checker the
    /// unpark → wakeup happens-before edge.
    unpark_tokens: AtomicU64,
}

impl PmoService {
    /// Builds a service with `config.effective_shards()` shards. Each shard
    /// gets its own randomization seed (`config.seed + shard index`).
    ///
    /// # Panics
    ///
    /// In durable mode, panics if a shard store fails to open or recover;
    /// use [`Self::try_new`] to handle those errors.
    pub fn new(config: ServiceConfig) -> Self {
        Self::try_new(config).expect("durable store open/recovery failed")
    }

    /// Fallible constructor. In durable mode each shard opens (creating if
    /// needed) its store at `<durable>/shard-<i>`, recovers whatever the
    /// directory holds — force-closing and resealing every exposure window
    /// that was open at crash time — and adopts the recovered pools. The
    /// aggregated recovery metrics are available via
    /// [`Self::recovery_stats`].
    ///
    /// # Errors
    ///
    /// [`ServiceError::Persist`] for I/O or corruption in a shard store, or
    /// when the directory was written under a different shard count (pool
    /// ids would route to different shards than the ones that logged them).
    pub fn try_new(config: ServiceConfig) -> Result<Self, ServiceError> {
        let n = config.effective_shards();
        let mask = n - 1;
        let clock = ServiceClock::start();
        let tracer = config.trace.map(|tc| Arc::new(TraceRecorder::new(tc)));
        let shards: Vec<Shard> = (0..n)
            .map(|i| {
                Shard::new(
                    config.seed.wrapping_add(i as u64),
                    config.ew_target_ns(),
                    config.cb_capacity,
                    i as u32,
                    tracer.clone(),
                )
            })
            .collect();
        let names: Vec<Mutex<HashMap<String, PmoId>>> =
            (0..n).map(|_| Mutex::new(HashMap::new())).collect();
        let index = PoolIndex::new();
        let mut max_raw: u16 = 0;
        let mut recovery = None;
        let mut resealed = Vec::new();
        if let Some(root) = &config.durable {
            let mut stats = RecoveryStats::default();
            for (i, shard) in shards.iter().enumerate() {
                let dir = root.join(format!("shard-{i}"));
                let (store, recovered, report) = DurableStore::open(&dir)?;
                stats.absorb(&report);
                resealed.extend_from_slice(&recovered.resealed);
                let mut state = shard.state.lock().unwrap_or_else(|e| e.into_inner());
                let mut rec_reg = recovered.registry;
                let ids: Vec<PmoId> = rec_reg.iter().map(|p| p.id()).collect();
                for id in ids {
                    if (id.raw() as usize) & mask != i {
                        return Err(ServiceError::Persist(format!(
                            "{}: recovered pool {id} does not route to shard {i} of {n}; \
                             the directory was written under a different shard count",
                            dir.display()
                        )));
                    }
                    let pool = rec_reg.take(id)?;
                    let name = pool.name().to_string();
                    let slot = Arc::new(PoolSlot::new(pool));
                    Self::name_shard_of(&names, &name)
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .insert(name, id);
                    state.pools.insert(id, Arc::clone(&slot));
                    index.insert(id, slot);
                    max_raw = max_raw.max(id.raw());
                }
                state.store = Some(store);
                state.visibility = config.visibility;
                // Adopt the recovered root directory: structures re-find
                // their roots through `Self::root` after a crash.
                state.roots.extend(recovered.roots);
            }
            // Refuse directories written under a *larger* shard count: their
            // extra shard-* stores would otherwise be silently ignored (the
            // routing check above only catches the shrinking direction).
            let io = |e: std::io::Error| ServiceError::Persist(e.to_string());
            for entry in std::fs::read_dir(root).map_err(io)? {
                let name = entry.map_err(io)?.file_name();
                let name = name.to_string_lossy();
                if let Some(k) = name
                    .strip_prefix("shard-")
                    .and_then(|s| s.parse::<usize>().ok())
                {
                    if k >= n {
                        return Err(ServiceError::Persist(format!(
                            "{}: found {name} but this service runs {n} shards; \
                             the directory was written under a different shard count",
                            root.display()
                        )));
                    }
                }
            }
            recovery = Some(stats);
            resealed.sort_unstable();
        }
        Ok(PmoService {
            clock,
            names,
            next_id: AtomicU64::new(u64::from(max_raw) + 1),
            index,
            shards,
            shard_mask: mask,
            shutting_down: AtomicBool::new(false),
            read_only: AtomicBool::new(config.standby),
            sweep_passes: AtomicU64::new(0),
            sweeper_thread: Mutex::new(None),
            metrics: MetricsHub::new(),
            recovery,
            resealed,
            tracer,
            unpark_tokens: AtomicU64::new(0),
            config,
        })
    }

    /// Durable-mode startup recovery statistics (`None` when in-memory).
    pub fn recovery_stats(&self) -> Option<RecoveryStats> {
        self.recovery
    }

    /// Pools whose exposure window was open when the durable directory
    /// last went down, force-closed and resealed by startup recovery
    /// (sorted). Empty for a fresh or drained directory and in memory.
    pub fn resealed(&self) -> &[PmoId] {
        &self.resealed
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The scheme in force.
    pub fn scheme(&self) -> Scheme {
        self.config.scheme
    }

    /// The service clock (nanoseconds since start).
    pub fn clock(&self) -> &ServiceClock {
        &self.clock
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, pmo: PmoId) -> &Shard {
        &self.shards[(pmo.raw() as usize) & self.shard_mask]
    }

    fn name_shard_of<'a>(
        names: &'a [Mutex<HashMap<String, PmoId>>],
        name: &str,
    ) -> &'a Mutex<HashMap<String, PmoId>> {
        let mut h = DefaultHasher::new();
        name.hash(&mut h);
        &names[(h.finish() as usize) % names.len()]
    }

    fn lock<'a>(&self, shard: &'a Shard) -> StateGuard<'a> {
        StateGuard::acquire(shard.state.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Ends a mutating critical section under the durable-visibility rule:
    /// runs the shard's end-of-op hook (incremental-checkpoint trigger +
    /// durability obligation), *releases the shard lock*, and only then
    /// waits for the operation's journal records to reach the durability
    /// watermark. With `visibility = submit` (or in-memory mode) this is
    /// just a lock drop — the fsync pipeline runs entirely behind the
    /// caller's back.
    fn finish_visible(&self, mut state: StateGuard<'_>) -> Result<(), ServiceError> {
        let ticket = state.finish_op()?;
        drop(state);
        if let Some(t) = ticket {
            t.wait()?;
        }
        Ok(())
    }

    /// The flight recorder, when tracing is enabled — callers hold on to it
    /// (clone the `Arc`) to snapshot or dump rings after shutdown.
    pub fn tracer(&self) -> Option<&Arc<TraceRecorder>> {
        self.tracer.as_ref()
    }

    /// Records one trace event on the calling thread's ring (no-op when
    /// tracing is off). Lock-path events go through
    /// [`ShardState::trace`] instead so they order inside the critical
    /// section. The recorder stamps the timestamp itself.
    #[inline]
    fn trace(&self, kind: EventKind) {
        if let Some(t) = &self.tracer {
            t.record(kind);
        }
    }

    /// Records a (sampled) fast-path data event (no-op when tracing is
    /// off). Flight mode keeps 1-in-16 of these; window/sync events always
    /// go through [`Self::trace`].
    #[inline]
    fn trace_data(&self, kind: EventKind) {
        if let Some(t) = &self.tracer {
            t.record_data(kind);
        }
    }

    fn is_down(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
    }

    /// Whether the service is a warm standby still refusing mutations.
    pub fn is_read_only(&self) -> bool {
        self.read_only.load(Ordering::Acquire)
    }

    /// Rejects mutations while the service is a standby.
    fn check_writable(&self) -> Result<(), ServiceError> {
        if self.is_read_only() {
            Err(ServiceError::ReadOnly)
        } else {
            Ok(())
        }
    }

    /// Promotes a standby to leader: the read-only gate opens and every
    /// mutating entry point starts accepting traffic. Idempotent; a no-op
    /// on a service that never was a standby. The durable-mode open-time
    /// recovery (which force-reseals crash-open exposure windows) has
    /// already run by construction — promotion only flips the gate.
    pub fn promote(&self) {
        self.read_only.store(false, Ordering::Release);
    }

    fn slab(&self) -> Arc<ThreadSlab> {
        self.metrics.slab()
    }

    /// Creates a pool and hands it to its shard. Uniqueness lives in the
    /// hash-sharded name maps; ids come from the global atomic allocator
    /// (unique, never reused), so two creates only contend when their names
    /// hash to the same shard.
    ///
    /// # Errors
    ///
    /// [`ServiceError::ShuttingDown`] after shutdown began, or a substrate
    /// error for duplicate names / invalid sizes / id exhaustion.
    pub fn create_pool(
        &self,
        name: &str,
        size: u64,
        mode: OpenMode,
    ) -> Result<PmoId, ServiceError> {
        if self.is_down() {
            return Err(ServiceError::ShuttingDown);
        }
        self.check_writable()?;
        let name_shard = Self::name_shard_of(&self.names, name);
        let mut names = name_shard.lock().unwrap_or_else(|e| e.into_inner());
        if names.contains_key(name) {
            return Err(PmoError::NameExists(name.to_string()).into());
        }
        let raw = self.next_id.fetch_add(1, Ordering::Relaxed);
        if raw >= u64::from(MAX_POOL_ID) {
            return Err(PmoError::PoolIdsExhausted.into());
        }
        let id = PmoId::new(raw as u16).expect("allocator stays in 1..MAX_POOL_ID");
        let pool = Pmo::new(id, name.to_string(), size, mode)?;
        names.insert(name.to_string(), id);
        drop(names);
        let slot = Arc::new(PoolSlot::new(pool));
        let mut state = self.lock(self.shard(id));
        state.pools.insert(id, Arc::clone(&slot));
        state.log(&WalRecord::PoolCreate {
            id,
            name: name.to_string(),
            size,
            mode,
        })?;
        self.finish_visible(state)?;
        self.index.insert(id, slot);
        Ok(id)
    }

    /// Opens a session: the client attaches to the pool with the requested
    /// permission, under the scheme's contention semantics. Under Basic
    /// semantics this call *blocks* while another client owns the pool.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownPmo`], [`ServiceError::AlreadyAttached`],
    /// [`ServiceError::ShuttingDown`], or a substrate error (e.g. mode
    /// mismatch).
    pub fn attach(
        &self,
        client: ClientId,
        pmo: PmoId,
        perm: Permission,
    ) -> Result<(), ServiceError> {
        self.attach_with_wait(client, pmo, perm).map(|_| ())
    }

    /// [`Self::attach`], additionally returning the nanoseconds the client
    /// spent *queued* on Basic-semantics serialization (always 0 for
    /// non-blocking schemes). Load generators use this to attribute condvar
    /// wait and service time to separate latency series.
    pub fn attach_with_wait(
        &self,
        client: ClientId,
        pmo: PmoId,
        perm: Permission,
    ) -> Result<u64, ServiceError> {
        self.check_writable()?;
        let (cost, waited) = match self.config.scheme {
            Scheme::Unprotected => (self.attach_unprotected(client, pmo, perm)?, 0),
            Scheme::Merr | Scheme::BasicSemantics => self.attach_basic(client, pmo, perm)?,
            Scheme::TerpSoftware | Scheme::TerpFull { .. } => {
                (self.attach_terp(client, pmo, perm)?, 0)
            }
        };
        self.clock.charge(cost);
        Ok(waited)
    }

    fn attach_unprotected(
        &self,
        client: ClientId,
        pmo: PmoId,
        perm: Permission,
    ) -> Result<u64, ServiceError> {
        let mut state = self.lock(self.shard(pmo));
        if self.is_down() {
            return Err(ServiceError::ShuttingDown);
        }
        if !state.pools.contains_key(&pmo) {
            return Err(ServiceError::UnknownPmo(pmo));
        }
        if state.is_holder(client, pmo) {
            return Err(ServiceError::AlreadyAttached { client, pmo });
        }
        let mut cost = 0;
        if !state.space.is_attached(pmo) {
            state.map_pool(pmo, perm, self.clock.now_ns())?;
            cost = self.config.cost.attach_ns;
        }
        state.add_holder(client, pmo);
        state.trace(EventKind::Attach {
            pmo: pmo.raw(),
            client: client as u64,
            writable: perm == Permission::ReadWrite,
        });
        self.finish_visible(state)?;
        ThreadSlab::bump(&self.slab().attaches);
        Ok(cost)
    }

    fn attach_basic(
        &self,
        client: ClientId,
        pmo: PmoId,
        perm: Permission,
    ) -> Result<(u64, u64), ServiceError> {
        let slab = self.slab();
        let shard = self.shard(pmo);
        let mut state = self.lock(shard);
        if !state.pools.contains_key(&pmo) {
            return Err(ServiceError::UnknownPmo(pmo));
        }
        let mut waited_from = None;
        loop {
            if self.is_down() {
                return Err(ServiceError::ShuttingDown);
            }
            if state.owner.get(&pmo) == Some(&client) {
                return Err(ServiceError::AlreadyAttached { client, pmo });
            }
            if !state.merr.is_attached(pmo) {
                break;
            }
            // Basic semantics: serialize on the owner's window. Sleep on the
            // shard condvar; the timeout bounds shutdown latency.
            if waited_from.is_none() {
                waited_from = Some(self.clock.now_ns());
                ThreadSlab::bump(&slab.attach_conflicts);
            }
            state = state.wait_on(&shard.cvar, Duration::from_millis(1));
        }
        let mut waited = 0;
        if let Some(from) = waited_from {
            waited = self.clock.now_ns().saturating_sub(from);
            slab.blocked_ns.fetch_add(waited, Ordering::Relaxed);
            slab.queue_wait
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .record(waited);
        }
        state
            .merr
            .attach(pmo)
            .expect("pool with no owner must be MERR-attachable");
        if let Err(e) = state.map_pool(pmo, perm, self.clock.now_ns()) {
            let _ = state.merr.detach(pmo);
            return Err(e);
        }
        state.owner.insert(pmo, client);
        state.publish_owner(pmo, Some(client));
        state.add_holder(client, pmo);
        state.trace(EventKind::Attach {
            pmo: pmo.raw(),
            client: client as u64,
            writable: perm == Permission::ReadWrite,
        });
        self.finish_visible(state)?;
        ThreadSlab::bump(&slab.attaches);
        Ok((self.config.cost.attach_ns, waited))
    }

    fn attach_terp(
        &self,
        client: ClientId,
        pmo: PmoId,
        perm: Permission,
    ) -> Result<u64, ServiceError> {
        let mut state = self.lock(self.shard(pmo));
        if self.is_down() {
            return Err(ServiceError::ShuttingDown);
        }
        if !state.pools.contains_key(&pmo) {
            return Err(ServiceError::UnknownPmo(pmo));
        }
        if state.is_holder(client, pmo) {
            return Err(ServiceError::AlreadyAttached { client, pmo });
        }
        let now = self.clock.now_ns();
        let outcome = state.engine.condat(pmo, now);
        if outcome.needs_syscall() && !state.space.is_attached(pmo) {
            if let Err(e) = state.map_pool(pmo, perm, now) {
                // Undo the speculative buffer entry: the attach never
                // happened.
                state.engine.evict(pmo);
                return Err(e);
            }
        }
        state.grant_client(client, pmo, perm, now)?;
        state.add_holder(client, pmo);
        state.trace(EventKind::Attach {
            pmo: pmo.raw(),
            client: client as u64,
            writable: perm == Permission::ReadWrite,
        });
        self.finish_visible(state)?;
        ThreadSlab::bump(&self.slab().attaches);
        if outcome == AttachOutcome::FirstAttach {
            // A fresh circular-buffer entry means a new earliest expiry:
            // the adaptive sweeper may be parked indefinitely, so wake it.
            self.wake_sweeper();
        }
        let syscall = outcome.needs_syscall() || self.config.scheme.cond_is_syscall();
        Ok(if syscall {
            self.config.cost.attach_ns
        } else {
            self.config.cost.cond_ns
        })
    }

    /// Closes a session. Under EW-conscious semantics the detach may be
    /// *delayed* (the pool stays mapped for window combining; the sweeper
    /// finishes the job), but the client's own permission is always revoked
    /// before this call returns.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownPmo`] or [`ServiceError::NotAttached`].
    pub fn detach(&self, client: ClientId, pmo: PmoId) -> Result<(), ServiceError> {
        let cost = match self.config.scheme {
            Scheme::Unprotected => self.detach_unprotected(client, pmo)?,
            Scheme::Merr | Scheme::BasicSemantics => self.detach_basic(client, pmo)?,
            Scheme::TerpSoftware | Scheme::TerpFull { .. } => self.detach_terp(client, pmo)?,
        };
        self.clock.charge(cost);
        Ok(())
    }

    fn detach_unprotected(&self, client: ClientId, pmo: PmoId) -> Result<u64, ServiceError> {
        let mut state = self.lock(self.shard(pmo));
        if !state.pools.contains_key(&pmo) {
            return Err(ServiceError::UnknownPmo(pmo));
        }
        if !state.is_holder(client, pmo) {
            return Err(ServiceError::NotAttached { client, pmo });
        }
        // Unprotected never unmaps: the pool stays exposed (that is the
        // point of the baseline).
        state.remove_holder(client, pmo);
        state.trace(EventKind::Detach {
            pmo: pmo.raw(),
            client: client as u64,
        });
        drop(state);
        ThreadSlab::bump(&self.slab().detaches);
        Ok(0)
    }

    fn detach_basic(&self, client: ClientId, pmo: PmoId) -> Result<u64, ServiceError> {
        let shard = self.shard(pmo);
        let mut state = self.lock(shard);
        if !state.pools.contains_key(&pmo) {
            return Err(ServiceError::UnknownPmo(pmo));
        }
        if state.owner.get(&pmo) != Some(&client) {
            return Err(ServiceError::NotAttached { client, pmo });
        }
        state
            .merr
            .detach(pmo)
            .expect("owned pool must be MERR-attached");
        state.unmap_pool(pmo, self.clock.now_ns())?;
        state.owner.remove(&pmo);
        state.publish_owner(pmo, None);
        state.remove_holder(client, pmo);
        state.trace(EventKind::Detach {
            pmo: pmo.raw(),
            client: client as u64,
        });
        self.finish_visible(state)?;
        ThreadSlab::bump(&self.slab().detaches);
        shard.cvar.notify_all();
        Ok(self.config.cost.detach_ns)
    }

    fn detach_terp(&self, client: ClientId, pmo: PmoId) -> Result<u64, ServiceError> {
        let mut state = self.lock(self.shard(pmo));
        if !state.pools.contains_key(&pmo) {
            return Err(ServiceError::UnknownPmo(pmo));
        }
        if !state.is_holder(client, pmo) {
            return Err(ServiceError::NotAttached { client, pmo });
        }
        let now = self.clock.now_ns();
        let mut outcome = state.engine.conddt(pmo, now);
        if matches!(
            self.config.scheme,
            Scheme::TerpFull {
                window_combining: false
            }
        ) && outcome == DetachOutcome::DelayedDetach
        {
            // The +Cond ablation has no delayed-detach hardware: retire the
            // entry and detach for real.
            state.engine.evict(pmo);
            outcome = DetachOutcome::FullDetach;
        }
        state.revoke_client(client, pmo, now)?;
        state.remove_holder(client, pmo);
        state.trace(EventKind::Detach {
            pmo: pmo.raw(),
            client: client as u64,
        });
        if outcome.needs_syscall() && state.space.is_attached(pmo) {
            state.unmap_pool(pmo, now)?;
        }
        self.finish_visible(state)?;
        ThreadSlab::bump(&self.slab().detaches);
        let syscall = outcome.needs_syscall() || self.config.scheme.cond_is_syscall();
        Ok(if syscall {
            self.config.cost.detach_ns
        } else {
            self.config.cost.cond_ns
        })
    }

    fn check_access(
        state: &mut ShardState,
        scheme: Scheme,
        client: ClientId,
        oid: ObjectId,
        kind: AccessKind,
    ) -> Result<(), ServiceError> {
        let pmo = oid.pmo();
        let va = state.space.oid_direct(oid)?;
        let allowed = match scheme {
            Scheme::Unprotected => true,
            Scheme::Merr | Scheme::BasicSemantics => {
                state.owner.get(&pmo) == Some(&client) && state.matrix.check(va, kind)
            }
            Scheme::TerpSoftware | Scheme::TerpFull { .. } => {
                state
                    .perms
                    .get(&client)
                    .is_some_and(|p| p.has(pmo, right_for(kind)))
                    && state.matrix.check(va, kind)
            }
        };
        if allowed {
            Ok(())
        } else {
            Err(ServiceError::PermissionDenied { client, pmo, kind })
        }
    }

    fn tally_denial(slab: &ThreadSlab, e: &ServiceError) {
        if matches!(e, ServiceError::PermissionDenied { .. }) {
            ThreadSlab::bump(&slab.denials);
        }
    }

    /// The fast-path permission decision against a published snapshot.
    /// Returns `true` only when the op may proceed lock-free; every other
    /// case (unmapped, denied, crowded mirror) falls back to the locked
    /// slow path, which recomputes the decision authoritatively and emits
    /// the exact legacy error.
    fn snapshot_allows(&self, snap: &WindowSnapshot, client: ClientId, kind: AccessKind) -> bool {
        if !snap.mapped() {
            return false;
        }
        match self.config.scheme {
            Scheme::Unprotected => true,
            Scheme::Merr | Scheme::BasicSemantics => {
                snap.proc_allows(kind) && snap.owner_is(client)
            }
            Scheme::TerpSoftware | Scheme::TerpFull { .. } => {
                snap.proc_allows(kind) && !snap.crowded() && snap.client_allows(client, kind)
            }
        }
    }

    /// Lock-free read attempt. `None` means "take the locked slow path" —
    /// on index miss, seqlock collision, permission failure (the slow path
    /// owns denial accounting and error shapes), or a raced epoch.
    fn fast_read(&self, client: ClientId, oid: ObjectId, buf: &mut [u8]) -> Option<()> {
        if !self.config.fastpath {
            return None;
        }
        let slot = self.index.get(oid.pmo())?;
        let snap = slot.snapshot()?;
        if !self.snapshot_allows(&snap, client, AccessKind::Read) {
            return None;
        }
        let pool = slot.pool();
        // Re-validate under the data lock: if a writer published between
        // the snapshot and the lock, the decision may be stale — retry
        // through the slow path.
        if !slot.still_valid(&snap) {
            return None;
        }
        match pool.read_bytes(oid.offset(), buf) {
            Ok(()) => {
                self.metrics.with_slab(|s| ThreadSlab::bump(&s.reads));
                self.trace_data(EventKind::Read {
                    pmo: oid.pmo().raw(),
                    client: client as u64,
                    offset: oid.offset(),
                    len: buf.len() as u32,
                    epoch: snap.epoch(),
                });
                Some(())
            }
            // Bounds errors: defer to the slow path for the exact error.
            Err(_) => None,
        }
    }

    /// Lock-free write attempt; additionally refuses durable mode, where
    /// every write must be journaled under the shard store.
    fn fast_write(&self, client: ClientId, oid: ObjectId, data: &[u8]) -> Option<()> {
        if !self.config.fastpath || self.config.durable.is_some() {
            return None;
        }
        let slot = self.index.get(oid.pmo())?;
        let snap = slot.snapshot()?;
        if !self.snapshot_allows(&snap, client, AccessKind::Write) {
            return None;
        }
        let mut pool = slot.pool_mut();
        if !slot.still_valid(&snap) {
            return None;
        }
        match pool.write_bytes(oid.offset(), data) {
            Ok(()) => {
                self.metrics.with_slab(|s| ThreadSlab::bump(&s.writes));
                self.trace_data(EventKind::Write {
                    pmo: oid.pmo().raw(),
                    client: client as u64,
                    offset: oid.offset(),
                    len: data.len() as u32,
                    epoch: snap.epoch(),
                });
                Some(())
            }
            Err(_) => None,
        }
    }

    /// Reads `buf.len()` bytes at `oid` into a caller-provided buffer,
    /// subject to the scheme's permission checks — the allocation-free
    /// data-plane primitive ([`Self::read`] wraps it).
    ///
    /// # Errors
    ///
    /// [`ServiceError::PermissionDenied`], [`ServiceError::UnknownPmo`], or
    /// a substrate error (unmapped pool, out-of-bounds offset).
    pub fn read_into(
        &self,
        client: ClientId,
        oid: ObjectId,
        buf: &mut [u8],
    ) -> Result<(), ServiceError> {
        if self.fast_read(client, oid, buf).is_some() {
            return Ok(());
        }
        let pmo = oid.pmo();
        let mut state = self.lock(self.shard(pmo));
        if !state.pools.contains_key(&pmo) {
            return Err(ServiceError::UnknownPmo(pmo));
        }
        if let Err(e) = Self::check_access(
            &mut state,
            self.config.scheme,
            client,
            oid,
            AccessKind::Read,
        ) {
            self.metrics.with_slab(|s| Self::tally_denial(s, &e));
            return Err(e);
        }
        state.pools[&pmo].pool().read_bytes(oid.offset(), buf)?;
        self.metrics.with_slab(|s| ThreadSlab::bump(&s.reads));
        // Slow-path epoch 0: the lock events already order this access.
        state.trace_data(EventKind::Read {
            pmo: pmo.raw(),
            client: client as u64,
            offset: oid.offset(),
            len: buf.len() as u32,
            epoch: 0,
        });
        Ok(())
    }

    /// Reads `len` bytes at `oid` on behalf of `client`, subject to the
    /// scheme's permission checks.
    ///
    /// # Errors
    ///
    /// Same as [`Self::read_into`].
    pub fn read(
        &self,
        client: ClientId,
        oid: ObjectId,
        len: usize,
    ) -> Result<Vec<u8>, ServiceError> {
        let mut buf = vec![0u8; len];
        self.read_into(client, oid, &mut buf)?;
        Ok(buf)
    }

    /// Writes `data` at `oid` on behalf of `client`, subject to the
    /// scheme's permission checks.
    ///
    /// # Errors
    ///
    /// Same as [`Self::read`], with [`AccessKind::Write`] required.
    pub fn write(&self, client: ClientId, oid: ObjectId, data: &[u8]) -> Result<(), ServiceError> {
        self.check_writable()?;
        if self.fast_write(client, oid, data).is_some() {
            return Ok(());
        }
        let pmo = oid.pmo();
        let mut state = self.lock(self.shard(pmo));
        if !state.pools.contains_key(&pmo) {
            return Err(ServiceError::UnknownPmo(pmo));
        }
        if let Err(e) = Self::check_access(
            &mut state,
            self.config.scheme,
            client,
            oid,
            AccessKind::Write,
        ) {
            self.metrics.with_slab(|s| Self::tally_denial(s, &e));
            return Err(e);
        }
        state.pools[&pmo]
            .pool_mut()
            .write_bytes(oid.offset(), data)?;
        self.metrics.with_slab(|s| ThreadSlab::bump(&s.writes));
        state.trace_data(EventKind::Write {
            pmo: pmo.raw(),
            client: client as u64,
            offset: oid.offset(),
            len: data.len() as u32,
            epoch: 0,
        });
        if state.store.is_some() {
            state.log(&WalRecord::DataWrite {
                pmo,
                offset: oid.offset(),
                data: data.to_vec(),
            })?;
        }
        self.finish_visible(state)?;
        Ok(())
    }

    /// Atomically compares-and-swaps the little-endian `u64` at `oid`:
    /// when the stored value equals `expected`, `new` is written (and
    /// journaled in durable mode); either way the *observed* prior value is
    /// returned, so `Ok(v) where v == expected` means the swap happened.
    /// Requires the rights a write would. Always takes the locked path —
    /// the shard mutex is what makes the read-compare-write sequence
    /// atomic against every other mutator; the seqlock fast path cannot
    /// provide that.
    ///
    /// This is the linchpin primitive for the persistent lock-free
    /// structures (`terp-structures`): every commit point is a single CAS
    /// on a root, link, or owner word inside an exposure window.
    ///
    /// # Errors
    ///
    /// Same as [`Self::write`].
    pub fn cas_u64(
        &self,
        client: ClientId,
        oid: ObjectId,
        expected: u64,
        new: u64,
    ) -> Result<u64, ServiceError> {
        self.check_writable()?;
        let pmo = oid.pmo();
        let mut state = self.lock(self.shard(pmo));
        if !state.pools.contains_key(&pmo) {
            return Err(ServiceError::UnknownPmo(pmo));
        }
        if let Err(e) = Self::check_access(
            &mut state,
            self.config.scheme,
            client,
            oid,
            AccessKind::Write,
        ) {
            self.metrics.with_slab(|s| Self::tally_denial(s, &e));
            return Err(e);
        }
        let mut buf = [0u8; 8];
        state.pools[&pmo]
            .pool()
            .read_bytes(oid.offset(), &mut buf)?;
        let observed = u64::from_le_bytes(buf);
        if observed != expected {
            return Ok(observed);
        }
        state.pools[&pmo]
            .pool_mut()
            .write_bytes(oid.offset(), &new.to_le_bytes())?;
        self.metrics.with_slab(|s| ThreadSlab::bump(&s.writes));
        state.trace_data(EventKind::Write {
            pmo: pmo.raw(),
            client: client as u64,
            offset: oid.offset(),
            len: 8,
            epoch: 0,
        });
        if state.store.is_some() {
            state.log(&WalRecord::DataWrite {
                pmo,
                offset: oid.offset(),
                data: new.to_le_bytes().to_vec(),
            })?;
        }
        self.finish_visible(state)?;
        Ok(observed)
    }

    /// Registers (or clears, with `None`) root slot `key` of `pmo` in the
    /// service's root directory. In durable mode the entry is journaled as
    /// a [`WalRecord::RootSet`] and survives crashes and checkpoints, so a
    /// persistent structure's root ObjectID can be re-found after
    /// recovery. Requires the rights a write would.
    ///
    /// # Errors
    ///
    /// Same as [`Self::alloc`].
    pub fn set_root(
        &self,
        client: ClientId,
        pmo: PmoId,
        key: u32,
        oid: Option<ObjectId>,
    ) -> Result<(), ServiceError> {
        self.check_writable()?;
        let mut state = self.lock(self.shard(pmo));
        if !state.pools.contains_key(&pmo) {
            return Err(ServiceError::UnknownPmo(pmo));
        }
        let slab = self.slab();
        Self::check_alloc_rights(&state, self.config.scheme, client, pmo)
            .inspect_err(|e| Self::tally_denial(&slab, e))?;
        let packed = oid.map_or(0, |o| o.to_packed());
        state.log(&WalRecord::RootSet {
            pmo,
            key,
            oid: packed,
        })?;
        if packed == 0 {
            state.roots.remove(&(pmo, key));
        } else {
            state.roots.insert((pmo, key), packed);
        }
        self.finish_visible(state)?;
        Ok(())
    }

    /// Looks up root slot `key` of `pmo` in the root directory. `None` for
    /// an unset (or cleared) slot. Any client may read the directory — the
    /// ObjectID it returns is still subject to the scheme's checks on
    /// every dereference.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownPmo`] when the pool is not served here.
    pub fn root(&self, pmo: PmoId, key: u32) -> Result<Option<ObjectId>, ServiceError> {
        let state = self.lock(self.shard(pmo));
        if !state.pools.contains_key(&pmo) {
            return Err(ServiceError::UnknownPmo(pmo));
        }
        Ok(state
            .roots
            .get(&(pmo, key))
            .copied()
            .and_then(ObjectId::from_packed))
    }

    /// Allocates `size` bytes in the pool (`pmalloc`). Requires the rights
    /// a write would.
    ///
    /// # Errors
    ///
    /// [`ServiceError::PermissionDenied`] without write rights, or a
    /// substrate error (pool full).
    pub fn alloc(&self, client: ClientId, pmo: PmoId, size: u64) -> Result<ObjectId, ServiceError> {
        self.check_writable()?;
        let mut state = self.lock(self.shard(pmo));
        if !state.pools.contains_key(&pmo) {
            return Err(ServiceError::UnknownPmo(pmo));
        }
        let slab = self.slab();
        Self::check_alloc_rights(&state, self.config.scheme, client, pmo)
            .inspect_err(|e| Self::tally_denial(&slab, e))?;
        let oid = state.pools[&pmo].pool_mut().pmalloc(size)?;
        ThreadSlab::bump(&slab.allocs);
        state.log(&WalRecord::Alloc {
            pmo,
            size,
            offset: oid.offset(),
        })?;
        self.finish_visible(state)?;
        Ok(oid)
    }

    /// Frees an object (`pfree`). Requires the rights a write would.
    ///
    /// # Errors
    ///
    /// Same as [`Self::alloc`].
    pub fn free(&self, client: ClientId, oid: ObjectId) -> Result<(), ServiceError> {
        self.check_writable()?;
        let pmo = oid.pmo();
        let mut state = self.lock(self.shard(pmo));
        if !state.pools.contains_key(&pmo) {
            return Err(ServiceError::UnknownPmo(pmo));
        }
        let slab = self.slab();
        Self::check_alloc_rights(&state, self.config.scheme, client, pmo)
            .inspect_err(|e| Self::tally_denial(&slab, e))?;
        state.pools[&pmo].pool_mut().pfree(oid)?;
        state.log(&WalRecord::Free {
            pmo,
            offset: oid.offset(),
        })?;
        self.finish_visible(state)?;
        Ok(())
    }

    fn check_alloc_rights(
        state: &ShardState,
        scheme: Scheme,
        client: ClientId,
        pmo: PmoId,
    ) -> Result<(), ServiceError> {
        let allowed = match scheme {
            Scheme::Unprotected => true,
            Scheme::Merr | Scheme::BasicSemantics => state.owner.get(&pmo) == Some(&client),
            Scheme::TerpSoftware | Scheme::TerpFull { .. } => state
                .perms
                .get(&client)
                .is_some_and(|p| p.has(pmo, Right::Write)),
        };
        if allowed {
            Ok(())
        } else {
            Err(ServiceError::PermissionDenied {
                client,
                pmo,
                kind: AccessKind::Write,
            })
        }
    }

    /// Whether the *process* currently holds `kind` access to the pool —
    /// i.e. the permission matrix has a live entry allowing it. This is the
    /// probe the soak test uses: after a full detach or sweep expiry it must
    /// be `false`. Lock-free when the fast path is on.
    pub fn process_can(&self, pmo: PmoId, kind: AccessKind) -> bool {
        if self.config.fastpath {
            match self.index.get(pmo) {
                None => return false, // never created: no matrix entry
                Some(slot) => {
                    if let Some(snap) = slot.snapshot() {
                        return snap.mapped() && snap.proc_allows(kind);
                    }
                    // Persistent seqlock collision: fall through to the lock.
                }
            }
        }
        let state = self.lock(self.shard(pmo));
        state
            .matrix
            .entry(pmo)
            .is_some_and(|e| e.permission.allows(kind))
    }

    /// Whether `client` can currently perform `kind` on the pool: the
    /// permission-matrix entry must allow it *and* the scheme's
    /// client-level state (ownership / thread permission) must agree.
    /// Lock-free when the fast path is on and the pool's grant mirror has
    /// not overflowed.
    pub fn client_can(&self, client: ClientId, pmo: PmoId, kind: AccessKind) -> bool {
        if self.config.fastpath {
            if let Some(slot) = self.index.get(pmo) {
                if let Some(snap) = slot.snapshot() {
                    match self.config.scheme {
                        Scheme::Unprotected => return snap.mapped(),
                        Scheme::Merr | Scheme::BasicSemantics => {
                            return snap.mapped() && snap.proc_allows(kind) && snap.owner_is(client)
                        }
                        Scheme::TerpSoftware | Scheme::TerpFull { .. } => {
                            if !snap.crowded() {
                                return snap.mapped()
                                    && snap.proc_allows(kind)
                                    && snap.client_allows(client, kind);
                            }
                            // Crowded mirror: only the slow path knows.
                        }
                    }
                }
            } else {
                return false; // never created
            }
        }
        let state = self.lock(self.shard(pmo));
        let process = state
            .matrix
            .entry(pmo)
            .is_some_and(|e| e.permission.allows(kind));
        match self.config.scheme {
            Scheme::Unprotected => state.space.is_attached(pmo),
            Scheme::Merr | Scheme::BasicSemantics => {
                process && state.owner.get(&pmo) == Some(&client)
            }
            Scheme::TerpSoftware | Scheme::TerpFull { .. } => {
                process
                    && state
                        .perms
                        .get(&client)
                        .is_some_and(|p| p.has(pmo, right_for(kind)))
            }
        }
    }

    /// Total pools currently mapped across all shards.
    pub fn attached_total(&self) -> usize {
        self.shards
            .iter()
            .map(|s| self.lock(s).space.attached_count())
            .sum()
    }

    /// Total live permission-matrix entries across all shards.
    pub fn matrix_total(&self) -> usize {
        self.shards.iter().map(|s| self.lock(s).matrix.len()).sum()
    }

    /// Runs one circular-buffer expiry walk over every shard (the sweeper
    /// thread calls this periodically; tests with `sweep_period_us == 0`
    /// call it directly). Returns the number of actions performed.
    pub fn sweep_all(&self) -> usize {
        // Stamp the wake tickets observed at pass start: every Unpark with
        // a ticket <= this one really happens-before this pass (the
        // AcqRel fetch_add / Acquire load pair on `unpark_tokens`).
        if self.tracer.is_some() {
            let token = self.unpark_tokens.load(Ordering::Acquire);
            self.trace(EventKind::Wakeup { token });
        }
        let mut total = 0;
        if self.config.scheme.has_thread_permissions() {
            for shard in &self.shards {
                let mut state = self.lock(shard);
                let now = self.clock.now_ns();
                let actions = state.engine.sweep(now);
                total += actions.len();
                for action in actions {
                    match action {
                        SweepAction::Detach(pmo) => {
                            let _ = state.unmap_pool(pmo, now);
                            state.trace(EventKind::Expire { pmo: pmo.raw() });
                            self.clock.charge(self.config.cost.detach_ns);
                        }
                        SweepAction::Randomize(pmo) => {
                            let _ = state.randomize_pool(pmo, now);
                            // The charge runs under the shard lock: every
                            // client of the pool stalls during a relocation,
                            // as in the paper's multithreaded model.
                            self.clock.charge(self.config.cost.randomize_ns);
                        }
                    }
                }
                // Expiry closes and relocations are externally visible
                // protection transitions: under `visibility = durable` the
                // sweep waits for their records too (off the shard lock).
                let ticket = state.finish_op();
                drop(state);
                if let Ok(Some(t)) = ticket {
                    let _ = t.wait();
                }
            }
        }
        self.sweep_passes.fetch_add(1, Ordering::Relaxed);
        total
    }

    /// The earliest moment (service ns) at which any tracked circular-
    /// buffer entry can expire, or `None` when nothing is tracked. The
    /// adaptive sweeper parks until this instant instead of polling: entry
    /// starts only move via first-attach (which wakes the sweeper) or a
    /// sweep itself, so the hint never becomes stale-late.
    pub fn next_expiry_ns(&self) -> Option<u64> {
        if !self.config.scheme.has_thread_permissions() {
            return None;
        }
        let mut earliest: Option<u64> = None;
        for shard in &self.shards {
            let state = self.lock(shard);
            let max_ew = state.engine.max_ew();
            for entry in state.engine.buffer().iter() {
                let expiry = entry.ts.saturating_add(max_ew);
                earliest = Some(earliest.map_or(expiry, |e| e.min(expiry)));
            }
        }
        earliest
    }

    /// Registers the sweeper's thread handle so attach paths can wake it
    /// (called by the sweeper itself before its first pass).
    pub(crate) fn register_sweeper(&self, thread: std::thread::Thread) {
        *self
            .sweeper_thread
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(thread);
    }

    fn wake_sweeper(&self) {
        if self.tracer.is_some() {
            // Issue the wake ticket before the unpark so the edge exists
            // by the time the sweeper stamps its Wakeup.
            let token = self.unpark_tokens.fetch_add(1, Ordering::AcqRel) + 1;
            self.trace(EventKind::Unpark { token });
        }
        if let Some(t) = self
            .sweeper_thread
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
        {
            t.unpark();
        }
    }

    /// Flags the service as shutting down: new sessions are refused and
    /// Basic-semantics waiters wake with [`ServiceError::ShuttingDown`].
    pub fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::Release);
        for shard in &self.shards {
            shard.cvar.notify_all();
        }
    }

    /// Whether shutdown has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.is_down()
    }

    /// Force-closes every window: drains the circular buffers, detaches
    /// every mapped pool, revokes every client grant, and finalizes window
    /// statistics. Call after [`Self::begin_shutdown`] and after the
    /// sweeper has stopped.
    pub fn drain(&self) {
        for shard in &self.shards {
            let mut state = self.lock(shard);
            let now = self.clock.now_ns();
            // TERP: retire every tracked entry, live holders included.
            for pmo in state.engine.drain() {
                let _ = state.unmap_pool(pmo, now);
            }
            // Basic semantics: force-detach owned pools.
            let owned: Vec<PmoId> = state.owner.keys().copied().collect();
            for pmo in owned {
                let _ = state.merr.detach(pmo);
                let _ = state.unmap_pool(pmo, now);
                state.publish_owner(pmo, None);
            }
            state.owner.clear();
            // Anything still mapped (unprotected pools, untracked attaches).
            let mapped: Vec<PmoId> = state
                .pools
                .keys()
                .copied()
                .filter(|&p| state.space.is_attached(p))
                .collect();
            for pmo in mapped {
                let _ = state.unmap_pool(pmo, now);
            }
            // Close every remaining client session.
            let sessions: Vec<(PmoId, Vec<ClientId>)> = state
                .holders
                .iter()
                .map(|(&pmo, clients)| (pmo, clients.iter().copied().collect()))
                .collect();
            for (pmo, clients) in sessions {
                for client in clients {
                    let _ = state.revoke_client(client, pmo, now);
                }
            }
            state.holders.clear();
            // Scrub the published mirrors: no grant survives the drain.
            for slot in state.pools.values() {
                slot.publish(|w| {
                    w.clear_grants();
                    w.set_owner(None);
                });
            }
            state.windows.finalize(now);
            // Durable mode: checkpoint at the drain (every window just
            // closed, so prot.log ends empty) and wait for it — the next
            // startup replays the checkpoint log and an empty WAL.
            // Best-effort: on failure the WAL alone still recovers
            // everything.
            if let Ok(Some(done)) = state.checkpoint() {
                let _ = done.wait();
            }
            shard.cvar.notify_all();
        }
    }

    /// Merges every shard's statistics — and every thread's metric slab —
    /// into one report.
    pub fn report(&self) -> ServiceReport {
        let (ops, blocked_ns, queue_wait, threads_observed) = self.metrics.merged();
        let mut cond = CondStats::default();
        let mut merr = MerrStats::default();
        let mut attach_syscalls = 0;
        let mut detach_syscalls = 0;
        let mut randomizations = 0;
        let mut ew = Default::default();
        let mut tew = Default::default();
        let mut checkpoints = 0;
        for shard in &self.shards {
            let state = self.lock(shard);
            checkpoints += state.store.as_ref().map_or(0, |s| s.checkpoints());
            merge_cond_stats(&mut cond, state.engine.stats());
            let m = state.merr.stats();
            merr.attaches += m.attaches;
            merr.detaches += m.detaches;
            merr.attach_conflicts += m.attach_conflicts;
            attach_syscalls += state.attach_syscalls;
            detach_syscalls += state.detach_syscalls;
            randomizations += state.randomizations;
            ew = merge_window_stats(ew, state.windows.ew_stats());
            tew = merge_window_stats(tew, state.windows.tew_stats());
        }
        ServiceReport {
            scheme: self.config.scheme,
            ops,
            cond,
            merr,
            attach_syscalls,
            detach_syscalls,
            randomizations,
            blocked_ns,
            queue_wait,
            sweep_passes: self.sweep_passes.load(Ordering::Relaxed),
            threads_observed,
            ew,
            tew,
            recovery: self.recovery,
            checkpoints,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn service(scheme: Scheme) -> PmoService {
        PmoService::new(ServiceConfig::for_tests(scheme))
    }

    /// A service whose EW target is far in the future, so conditional
    /// detaches are reliably *delayed* regardless of scheduler noise.
    fn service_long_ew(scheme: Scheme) -> PmoService {
        PmoService::new(ServiceConfig::for_tests(scheme).with_ew_target_us(10_000_000))
    }

    /// A service with a 2 ms EW: long against back-to-back calls, short
    /// against an explicit 5 ms sleep — the expiry-path configuration.
    fn service_expiring(scheme: Scheme) -> PmoService {
        PmoService::new(ServiceConfig::for_tests(scheme).with_ew_target_us(2_000))
    }

    #[test]
    fn tt_attach_lowering_and_delayed_detach() {
        let svc = service_long_ew(Scheme::terp_full());
        let p = svc.create_pool("a", 1 << 16, OpenMode::ReadWrite).unwrap();

        svc.attach(0, p, Permission::ReadWrite).unwrap();
        svc.attach(1, p, Permission::ReadWrite).unwrap();
        let oid = svc.alloc(0, p, 64).unwrap();
        svc.write(0, oid, b"hello").unwrap();
        assert_eq!(svc.read(1, oid, 5).unwrap(), b"hello");

        // Client 1 detaches: partial — pool stays mapped, client 1 loses
        // access immediately.
        svc.detach(1, p).unwrap();
        assert!(svc.process_can(p, AccessKind::Read));
        assert!(!svc.client_can(1, p, AccessKind::Read));
        assert!(svc.client_can(0, p, AccessKind::Read));
        assert!(
            svc.read(1, oid, 5).is_err(),
            "revoked client must be denied"
        );

        // Client 0 detaches early: delayed — mapped, but nobody can access.
        svc.detach(0, p).unwrap();
        assert!(svc.process_can(p, AccessKind::Read));
        assert!(!svc.client_can(0, p, AccessKind::Read));

        let r = svc.report();
        assert_eq!(r.attach_syscalls, 1, "one real map for two attaches");
        assert_eq!(r.cond.subsequent_attach, 1);
        assert_eq!(r.cond.delayed_detach, 1);
    }

    #[test]
    fn tt_sweep_closes_expired_windows() {
        let svc = service_expiring(Scheme::terp_full());
        let p = svc.create_pool("a", 1 << 16, OpenMode::ReadWrite).unwrap();
        svc.attach(0, p, Permission::ReadWrite).unwrap();
        svc.detach(0, p).unwrap(); // delayed
        assert!(svc.process_can(p, AccessKind::Read));
        std::thread::sleep(Duration::from_millis(5));
        assert!(svc.sweep_all() >= 1);
        assert!(!svc.process_can(p, AccessKind::Read), "expired idle window");
        assert_eq!(svc.attached_total(), 0);
        assert_eq!(svc.report().cond.sweep_detach, 1);
    }

    #[test]
    fn tt_sweep_randomizes_live_windows() {
        let svc = service_expiring(Scheme::terp_full());
        let p = svc.create_pool("a", 1 << 16, OpenMode::ReadWrite).unwrap();
        svc.attach(0, p, Permission::ReadWrite).unwrap();
        let oid = svc.alloc(0, p, 32).unwrap();
        svc.write(0, oid, b"sticky").unwrap();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(svc.sweep_all(), 1);
        let r = svc.report();
        assert_eq!(r.randomizations, 1, "live holder → randomize, not detach");
        // The holder can still read through the relocated mapping.
        assert_eq!(svc.read(0, oid, 6).unwrap(), b"sticky");
        assert!(r.ew.count >= 1, "randomization split the window");
    }

    #[test]
    fn no_combining_ablation_detaches_eagerly() {
        let svc = service_long_ew(Scheme::TerpFull {
            window_combining: false,
        });
        let p = svc.create_pool("a", 1 << 16, OpenMode::ReadWrite).unwrap();
        svc.attach(0, p, Permission::ReadWrite).unwrap();
        svc.detach(0, p).unwrap();
        assert!(!svc.process_can(p, AccessKind::Read), "no delayed detach");
        assert_eq!(svc.attached_total(), 0);
    }

    #[test]
    fn mm_blocks_conflicting_attach_until_owner_detaches() {
        let svc = Arc::new(service(Scheme::Merr));
        let p = svc.create_pool("a", 1 << 16, OpenMode::ReadWrite).unwrap();
        svc.attach(0, p, Permission::ReadWrite).unwrap();
        assert!(svc.client_can(0, p, AccessKind::Write));

        let svc2 = Arc::clone(&svc);
        let waiter = std::thread::spawn(move || {
            let waited = svc2.attach_with_wait(1, p, Permission::ReadWrite).unwrap();
            svc2.detach(1, p).unwrap();
            waited
        });
        std::thread::sleep(Duration::from_millis(5));
        svc.detach(0, p).unwrap();
        let waited = waiter.join().unwrap();
        assert!(waited > 0, "the conflicting attach reports its queue wait");

        let r = svc.report();
        assert_eq!(r.ops.attaches, 2);
        assert_eq!(r.ops.attach_conflicts, 1);
        assert!(r.blocked_ns > 0, "the waiter's block time is accounted");
        assert_eq!(
            r.queue_wait.count(),
            1,
            "one queue-wait sample for one conflict"
        );
        assert!(r.queue_wait.max() >= waited.min(r.queue_wait.max()));
        assert!(!svc.process_can(p, AccessKind::Read));
    }

    #[test]
    fn mm_second_client_is_denied_access_while_owner_holds() {
        let svc = service(Scheme::Merr);
        let p = svc.create_pool("a", 1 << 16, OpenMode::ReadWrite).unwrap();
        svc.attach(0, p, Permission::ReadWrite).unwrap();
        let oid = svc.alloc(0, p, 16).unwrap();
        assert!(matches!(
            svc.read(9, oid, 8).unwrap_err(),
            ServiceError::PermissionDenied { client: 9, .. }
        ));
        assert_eq!(svc.report().ops.denials, 1);
    }

    #[test]
    fn unprotected_keeps_pools_mapped() {
        let svc = service(Scheme::Unprotected);
        let p = svc.create_pool("a", 1 << 16, OpenMode::ReadWrite).unwrap();
        svc.attach(0, p, Permission::ReadWrite).unwrap();
        svc.detach(0, p).unwrap();
        assert_eq!(svc.attached_total(), 1, "unprotected never unmaps");
        svc.begin_shutdown();
        svc.drain();
        assert_eq!(svc.attached_total(), 0, "drain unmaps even unprotected");
    }

    #[test]
    fn drain_closes_everything_and_refuses_new_work() {
        let svc = service(Scheme::terp_full());
        let a = svc.create_pool("a", 1 << 16, OpenMode::ReadWrite).unwrap();
        let b = svc.create_pool("b", 1 << 16, OpenMode::ReadWrite).unwrap();
        svc.attach(0, a, Permission::ReadWrite).unwrap();
        svc.attach(1, b, Permission::Read).unwrap();
        svc.begin_shutdown();
        assert_eq!(
            svc.attach(2, a, Permission::Read).unwrap_err(),
            ServiceError::ShuttingDown
        );
        svc.drain();
        assert_eq!(svc.attached_total(), 0);
        assert_eq!(svc.matrix_total(), 0);
        assert!(!svc.client_can(0, a, AccessKind::Read));
        assert!(!svc.client_can(1, b, AccessKind::Read));
        let r = svc.report();
        assert_eq!(r.ew.count, 2, "both windows closed and accounted");
    }

    #[test]
    fn errors_are_specific() {
        let svc = service(Scheme::terp_full());
        let p = svc.create_pool("a", 1 << 16, OpenMode::ReadWrite).unwrap();
        let ghost = PmoId::new(999).unwrap();
        assert_eq!(
            svc.attach(0, ghost, Permission::Read).unwrap_err(),
            ServiceError::UnknownPmo(ghost)
        );
        assert_eq!(
            svc.detach(0, p).unwrap_err(),
            ServiceError::NotAttached { client: 0, pmo: p }
        );
        svc.attach(0, p, Permission::Read).unwrap();
        assert_eq!(
            svc.attach(0, p, Permission::Read).unwrap_err(),
            ServiceError::AlreadyAttached { client: 0, pmo: p }
        );
        // Read-only session: writes are denied at the thread-permission
        // layer.
        let oid = ObjectId::new(p, 0);
        assert!(matches!(
            svc.write(0, oid, b"x").unwrap_err(),
            ServiceError::PermissionDenied { .. }
        ));
    }

    #[test]
    fn duplicate_names_and_id_allocation_stay_sharded() {
        let svc = service(Scheme::terp_full());
        let a = svc
            .create_pool("dup", 1 << 12, OpenMode::ReadWrite)
            .unwrap();
        assert!(matches!(
            svc.create_pool("dup", 1 << 12, OpenMode::ReadWrite),
            Err(ServiceError::Substrate(PmoError::NameExists(_)))
        ));
        let b = svc
            .create_pool("other", 1 << 12, OpenMode::ReadWrite)
            .unwrap();
        assert!(b.raw() > a.raw(), "ids are monotone and never reused");
    }

    #[test]
    fn fastpath_and_locked_paths_agree() {
        for fastpath in [true, false] {
            let svc = PmoService::new(
                ServiceConfig::for_tests(Scheme::terp_full())
                    .with_ew_target_us(10_000_000)
                    .with_fastpath(fastpath),
            );
            let p = svc.create_pool("a", 1 << 16, OpenMode::ReadWrite).unwrap();
            svc.attach(3, p, Permission::ReadWrite).unwrap();
            let oid = svc.alloc(3, p, 64).unwrap();
            svc.write(3, oid, b"same answer").unwrap();
            assert_eq!(svc.read(3, oid, 11).unwrap(), b"same answer");
            assert!(svc.client_can(3, p, AccessKind::Write));
            assert!(!svc.client_can(4, p, AccessKind::Read));
            assert!(matches!(
                svc.read(4, oid, 1).unwrap_err(),
                ServiceError::PermissionDenied { client: 4, .. }
            ));
            svc.detach(3, p).unwrap();
            assert!(!svc.client_can(3, p, AccessKind::Read));
            assert!(svc.read(3, oid, 1).is_err());
            let r = svc.report();
            assert_eq!(r.ops.reads, 1, "fastpath={fastpath}");
            assert_eq!(r.ops.writes, 1);
            assert_eq!(r.ops.denials, 2, "client 4, then client 3 post-detach");
        }
    }

    #[test]
    fn crowded_pool_falls_back_to_the_locked_path() {
        // More concurrent holders than published grant slots: the mirror
        // overflows and client checks must stay correct via the slow path.
        let svc = service_long_ew(Scheme::terp_full());
        let p = svc.create_pool("a", 1 << 16, OpenMode::ReadWrite).unwrap();
        let clients: Vec<ClientId> = (0..12).collect();
        for &c in &clients {
            svc.attach(c, p, Permission::ReadWrite).unwrap();
        }
        let oid = svc.alloc(0, p, 32).unwrap();
        svc.write(11, oid, b"crowded").unwrap();
        for &c in &clients {
            assert!(svc.client_can(c, p, AccessKind::Write), "client {c}");
            assert_eq!(svc.read(c, oid, 7).unwrap(), b"crowded");
        }
        assert!(!svc.client_can(99, p, AccessKind::Read));
        // Detaching everyone clears the crowd; the pool stays usable.
        for &c in &clients {
            svc.detach(c, p).unwrap();
            assert!(!svc.client_can(c, p, AccessKind::Read), "client {c}");
        }
        svc.attach(42, p, Permission::Read).unwrap();
        assert_eq!(svc.read(42, oid, 7).unwrap(), b"crowded");
    }

    #[test]
    fn distinct_pools_land_in_distinct_shards() {
        let svc = service(Scheme::terp_full()); // 4 shards
        let ids: Vec<PmoId> = (0..8)
            .map(|i| {
                svc.create_pool(&format!("p{i}"), 1 << 12, OpenMode::ReadWrite)
                    .unwrap()
            })
            .collect();
        // Sequential ids round-robin across the shard mask.
        let shards: std::collections::BTreeSet<usize> = ids
            .iter()
            .map(|id| (id.raw() as usize) & (svc.shard_count() - 1))
            .collect();
        assert_eq!(shards.len(), svc.shard_count());
    }
}
