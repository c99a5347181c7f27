//! One session shard: the pools it owns plus every piece of per-shard
//! protection state, all behind a single mutex.
//!
//! The service routes each pool id to exactly one shard
//! (`raw_id & (shards - 1)`), so operations on PMOs in different shards
//! take different locks and never contend — the sharding requirement of the
//! service design (DESIGN.md §9). Everything keyed by pool therefore lives
//! *inside* the shard: the address-space slice, the permission matrix, the
//! MERR attach state, the conditional engine with its circular buffer, and
//! the window tracker.
//!
//! Pools themselves are held as [`PoolSlot`]s shared with the lock-free
//! [`crate::fastpath`] index: the shard mutex still serializes every
//! *mutation*, but each mutator additionally publishes the new window state
//! through the pool's seqlock (epoch bump before and after, DESIGN.md §11)
//! so data-path readers can decide permissions without the mutex.
//! Revocations (unmap, revoke) publish *before* the substrate teardown;
//! grants (map, grant) publish *after* the substrate is ready — errors on
//! either side can only leave the mirror more restrictive than the truth,
//! never less.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Condvar, Mutex};

use terp_arch::{CondEngine, MerrArch};
use terp_core::permission::{PermissionSet, Right};
use terp_core::window::WindowTracker;
use terp_persist::{BarrierTicket, DurableStore, DurableTicket, WalRecord};
use terp_pmo::{Permission, PmoError, PmoId, ProcessAddressSpace};
use terp_sim::PermissionMatrix;
use terp_trace::{EventKind, TraceRecorder};

use crate::config::Visibility;
use crate::error::ServiceError;
use crate::fastpath::PoolSlot;
use crate::ClientId;

/// A shard: its state mutex plus the condvar Basic-semantics attach waiters
/// sleep on.
#[derive(Debug)]
pub(crate) struct Shard {
    pub(crate) state: Mutex<ShardState>,
    pub(crate) cvar: Condvar,
}

impl Shard {
    pub(crate) fn new(
        seed: u64,
        max_ew_ns: u64,
        cb_capacity: usize,
        idx: u32,
        tracer: Option<Arc<TraceRecorder>>,
    ) -> Self {
        Shard {
            state: Mutex::new(ShardState {
                pools: HashMap::new(),
                space: ProcessAddressSpace::with_seed(seed),
                matrix: PermissionMatrix::new(),
                merr: MerrArch::new(),
                engine: CondEngine::with_capacity(max_ew_ns, cb_capacity),
                windows: WindowTracker::new(),
                owner: HashMap::new(),
                perms: HashMap::new(),
                holders: HashMap::new(),
                roots: HashMap::new(),
                attach_syscalls: 0,
                detach_syscalls: 0,
                randomizations: 0,
                store: None,
                visibility: Visibility::Submit,
                visible_seq: None,
                idx,
                lock_seq: 0,
                lock_pending: std::cell::Cell::new(false),
                tracer,
            }),
            cvar: Condvar::new(),
        }
    }
}

/// Everything a shard protects with its mutex.
#[derive(Debug)]
pub(crate) struct ShardState {
    /// Pools owned by this shard. The same `Arc` is published in the
    /// service's lock-free [`crate::fastpath::PoolIndex`]; the shard map is
    /// the authoritative membership list used by the locked paths.
    pub pools: HashMap<PmoId, Arc<PoolSlot>>,
    /// This shard's slice of the process address space.
    pub space: ProcessAddressSpace,
    /// MERR process-wide permission matrix for this shard's mappings.
    pub matrix: PermissionMatrix,
    /// MERR attach state (Basic semantics schemes).
    pub merr: MerrArch,
    /// CONDAT/CONDDT engine with the circular buffer (TERP schemes).
    pub engine: CondEngine,
    /// EW/TEW tracker; times are nanoseconds since the service epoch.
    pub windows: WindowTracker,
    /// Basic semantics: which client currently owns each attached pool.
    pub owner: HashMap<PmoId, ClientId>,
    /// TERP semantics: per-client thread-permission sets (Definition 1).
    pub perms: HashMap<ClientId, PermissionSet>,
    /// Clients holding an open session per pool (all schemes).
    pub holders: HashMap<PmoId, BTreeSet<ClientId>>,
    /// Root directory for this shard's pools: `(pool, key) → packed
    /// ObjectId` of a persistent data structure's root. Journaled as
    /// [`WalRecord::RootSet`] in durable mode and rebuilt by recovery, so
    /// structures can re-find their roots after a crash.
    pub roots: HashMap<(PmoId, u32), u64>,
    /// Real attach syscalls performed by this shard.
    pub attach_syscalls: u64,
    /// Real detach syscalls performed by this shard.
    pub detach_syscalls: u64,
    /// In-place randomizations performed by this shard.
    pub randomizations: u64,
    /// Durable mode: this shard's write-ahead log + checkpoint directory.
    /// `None` keeps the shard purely in-memory.
    pub store: Option<DurableStore>,
    /// Durable-mode visibility rule (copied from the service config):
    /// whether mutating operations may return at submit or must wait for
    /// their journal records to fsync first.
    pub visibility: Visibility,
    /// Highest sequence number journaled during the current critical
    /// section when the visibility rule is [`Visibility::Durable`] — the
    /// durability obligation [`Self::finish_op`] turns into a ticket before
    /// the operation acknowledges.
    pub visible_seq: Option<u64>,
    /// This shard's index: the lock identity in trace events.
    pub idx: u32,
    /// Mutex acquisition counter. Protected by the mutex itself, so its
    /// order *is* the acquisition order — the happens-before checker pairs
    /// `LockRelease{seq: k}` with every later `LockAcquire{seq > k}`.
    pub lock_seq: u64,
    /// True while the current critical section has not yet emitted its
    /// `LockAcquire` event: the pair is written lazily, on the section's
    /// first recorded event, so quiet sections stay off the ring entirely.
    /// Protected by the mutex (a `Cell` only because [`Self::trace`] takes
    /// `&self`).
    pub lock_pending: std::cell::Cell<bool>,
    /// Flight recorder shared with the service (`None` = tracing off).
    pub tracer: Option<Arc<TraceRecorder>>,
}

impl ShardState {
    fn slot(&self, pmo: PmoId) -> Result<Arc<PoolSlot>, PmoError> {
        self.pools
            .get(&pmo)
            .cloned()
            .ok_or(PmoError::UnknownPmo(pmo))
    }

    /// Records one trace event on the calling thread's ring (no-op when
    /// tracing is off), flushing the critical section's lazy `LockAcquire`
    /// first so the lock pair brackets every recorded event. The recorder
    /// stamps the timestamp itself.
    #[inline]
    pub(crate) fn trace(&self, kind: EventKind) {
        if let Some(t) = &self.tracer {
            if self.lock_pending.replace(false) {
                t.record(EventKind::LockAcquire {
                    obj: self.idx,
                    seq: self.lock_seq,
                });
            }
            t.record(kind);
        }
    }

    /// Records one trace event *without* flushing a pending `LockAcquire`
    /// — only for the release path, which must not reopen the section it
    /// is closing.
    #[inline]
    pub(crate) fn trace_raw(&self, kind: EventKind) {
        if let Some(t) = &self.tracer {
            t.record(kind);
        }
    }

    /// Records a (sampled) data event — slow-path reads/writes under the
    /// lock (no-op when tracing is off). The sampling decision runs first:
    /// a sampled-out op emits nothing, not even the lazy lock pair.
    #[inline]
    pub(crate) fn trace_data(&self, kind: EventKind) {
        if let Some(t) = &self.tracer {
            if t.data_sample_keep() {
                self.trace(kind);
            }
        }
    }

    /// Records the post-publish seqlock epoch of `slot` as a `Publish`
    /// event. Callers hold the shard mutex, so no publish is in flight and
    /// the loaded epoch is the even value the critical section installed.
    fn trace_publish(&self, pmo: PmoId, slot: &PoolSlot) {
        if self.tracer.is_some() {
            self.trace(EventKind::Publish {
                pmo: pmo.raw(),
                epoch: slot.epoch(),
            });
        }
    }

    /// Appends `record` to this shard's WAL when durable mode is on.
    /// A write failure surfaces as [`ServiceError::Persist`] — the caller
    /// must not apply the mutation it failed to journal.
    pub(crate) fn log(&mut self, record: &WalRecord) -> Result<(), ServiceError> {
        if let Some(store) = self.store.as_mut() {
            let seq = store.log(record)?;
            if self.visibility == Visibility::Durable {
                self.visible_seq = Some(self.visible_seq.map_or(seq, |s| s.max(seq)));
            }
        }
        Ok(())
    }

    /// Closes out one mutating operation's durability obligations while the
    /// shard lock is still held: takes a checkpoint when the store says one
    /// is due, then converts any accumulated `visible_seq` into a
    /// [`DurableTicket`] the caller waits on *after* dropping the shard
    /// lock.
    pub(crate) fn finish_op(&mut self) -> Result<Option<DurableTicket>, ServiceError> {
        if self.store.as_ref().is_some_and(|s| s.checkpoint_due()) {
            self.checkpoint()?;
        }
        let Some(seq) = self.visible_seq.take() else {
            return Ok(None);
        };
        let store = self.store.as_ref().expect("visible_seq implies store");
        Ok(Some(store.ticket(seq)))
    }

    /// Starts a checkpoint of this shard's durable store: dirty-page deltas
    /// to the checkpoint log, the protection image rebuilt from live shard
    /// state, WAL truncated — the I/O runs on the store's log writer, not
    /// under the shard lock. Runs at *operation end* (or at drain) — never
    /// mid-operation, where a journaled protection record (e.g. the
    /// `WindowOpen` written before mapping) could be truncated before the
    /// shard state it describes exists. Returns the ticket that completes
    /// with the checkpoint; `None` for an in-memory shard.
    pub(crate) fn checkpoint(&mut self) -> Result<Option<BarrierTicket>, ServiceError> {
        let ShardState {
            store,
            pools,
            space,
            holders,
            perms,
            ..
        } = self;
        let Some(store) = store.as_mut() else {
            return Ok(None);
        };
        // Reconstruct the live protection state: open windows and open
        // sessions, exactly what recovery needs to reseal and re-grant.
        let mut protection: Vec<WalRecord> = Vec::new();
        for &pmo in pools.keys() {
            if space.is_attached(pmo) {
                protection.push(WalRecord::WindowOpen { pmo });
            }
        }
        for (&pmo, clients) in holders.iter() {
            for &client in clients {
                let perm = perms
                    .get(&client)
                    .map(|set| {
                        if set.has(pmo, Right::Write) {
                            Permission::ReadWrite
                        } else if set.has(pmo, Right::Read) {
                            Permission::Read
                        } else {
                            Permission::None
                        }
                    })
                    .unwrap_or(Permission::None);
                if perm != Permission::None {
                    protection.push(WalRecord::SessionOpen {
                        client: client as u64,
                        pmo,
                        perm,
                    });
                }
            }
        }
        let mut guards: Vec<_> = pools.values().map(|s| s.pool_mut()).collect();
        let (_, done) = store.start_checkpoint(guards.iter_mut().map(|g| &mut **g), &protection)?;
        Ok(Some(done))
    }

    /// Performs the real `attach()`: maps the pool at a random base, adds
    /// the permission-matrix entry, opens the process EW, and publishes the
    /// mapping to the fast path (grant direction: publish last).
    pub(crate) fn map_pool(
        &mut self,
        pmo: PmoId,
        perm: Permission,
        now: u64,
    ) -> Result<(), ServiceError> {
        let slot = self.slot(pmo)?;
        self.log(&WalRecord::WindowOpen { pmo })?;
        let handle = {
            let mut pool = slot.pool_mut();
            self.space.attach(&mut pool, perm)?
        };
        self.matrix
            .insert(pmo, handle.base_va(), handle.size(), perm);
        self.windows.open_ew(pmo, now);
        self.attach_syscalls += 1;
        slot.publish(|w| w.set_mapped(Some(perm)));
        self.trace_publish(pmo, &slot);
        Ok(())
    }

    /// Performs the real `detach()`: unpublishes the mapping first
    /// (revocation direction: fast-path readers lose access before the
    /// teardown starts), then unmaps, removes the matrix entry, and closes
    /// the process EW.
    pub(crate) fn unmap_pool(&mut self, pmo: PmoId, now: u64) -> Result<(), ServiceError> {
        let slot = self.slot(pmo)?;
        slot.publish(|w| w.set_mapped(None));
        self.trace_publish(pmo, &slot);
        {
            let mut pool = slot.pool_mut();
            self.space.detach(&mut pool)?;
        }
        self.matrix.remove(pmo);
        self.windows.close_ew(pmo, now);
        self.detach_syscalls += 1;
        self.log(&WalRecord::WindowClose { pmo })?;
        Ok(())
    }

    /// Re-randomizes an attached pool in place: new base, relocated matrix
    /// entry, split EW (the attacker's location knowledge resets). The
    /// pool's write lock drains in-flight fast readers for the relocation;
    /// the final epoch bump invalidates any snapshot taken before it.
    pub(crate) fn randomize_pool(&mut self, pmo: PmoId, now: u64) -> Result<(), ServiceError> {
        let slot = self.slot(pmo)?;
        let handle = {
            let mut pool = slot.pool_mut();
            self.space.randomize(&mut pool)?
        };
        self.matrix.relocate(pmo, handle.base_va());
        self.windows.split_ew(pmo, now);
        self.randomizations += 1;
        self.log(&WalRecord::Randomize { pmo })?;
        slot.publish(|_| {});
        self.trace_publish(pmo, &slot);
        Ok(())
    }

    /// Grants `client` the thread rights implied by `perm`, opens its TEW,
    /// and mirrors the grant to the fast path (publish last).
    pub(crate) fn grant_client(
        &mut self,
        client: ClientId,
        pmo: PmoId,
        perm: Permission,
        now: u64,
    ) -> Result<(), ServiceError> {
        self.log(&WalRecord::SessionOpen {
            client: client as u64,
            pmo,
            perm,
        })?;
        let set = self.perms.entry(client).or_default();
        set.grant(pmo, Right::Read);
        if perm == Permission::ReadWrite {
            set.grant(pmo, Right::Write);
        }
        self.windows.open_tew(client, pmo, now);
        if let Some(slot) = self.pools.get(&pmo) {
            slot.publish(|w| w.grant(client, perm));
            self.trace_publish(pmo, slot);
        }
        self.trace(EventKind::Grant {
            pmo: pmo.raw(),
            client: client as u64,
            writable: perm == Permission::ReadWrite,
        });
        Ok(())
    }

    /// Revokes every thread right `client` holds on `pmo` and closes its
    /// TEW. The fast-path mirror is revoked *first*: a reader racing this
    /// call is denied as soon as the revocation begins.
    pub(crate) fn revoke_client(
        &mut self,
        client: ClientId,
        pmo: PmoId,
        now: u64,
    ) -> Result<(), ServiceError> {
        if let Some(slot) = self.pools.get(&pmo) {
            slot.publish(|w| w.revoke(client));
            self.trace_publish(pmo, slot);
        }
        self.trace(EventKind::Revoke {
            pmo: pmo.raw(),
            client: client as u64,
        });
        if let Some(set) = self.perms.get_mut(&client) {
            set.revoke(pmo, Right::Read);
            set.revoke(pmo, Right::Write);
        }
        self.windows.close_tew(client, pmo, now);
        self.log(&WalRecord::SessionClose {
            client: client as u64,
            pmo,
        })?;
        Ok(())
    }

    /// Publishes the Basic-semantics owner change.
    pub(crate) fn publish_owner(&self, pmo: PmoId, owner: Option<ClientId>) {
        if let Some(slot) = self.pools.get(&pmo) {
            slot.publish(|w| w.set_owner(owner));
            self.trace_publish(pmo, slot);
        }
    }

    /// Whether `client` currently holds an open session on `pmo`.
    pub(crate) fn is_holder(&self, client: ClientId, pmo: PmoId) -> bool {
        self.holders.get(&pmo).is_some_and(|h| h.contains(&client))
    }

    /// Records a session open.
    pub(crate) fn add_holder(&mut self, client: ClientId, pmo: PmoId) {
        self.holders.entry(pmo).or_default().insert(client);
    }

    /// Records a session close. When the last holder leaves, the pool's
    /// published grant mirror (including a sticky crowded bit) is known
    /// stale and is cleared.
    pub(crate) fn remove_holder(&mut self, client: ClientId, pmo: PmoId) {
        if let Some(h) = self.holders.get_mut(&pmo) {
            h.remove(&client);
            if h.is_empty() {
                self.holders.remove(&pmo);
                if let Some(slot) = self.pools.get(&pmo) {
                    slot.publish(|w| w.clear_grants());
                }
            }
        }
    }
}
