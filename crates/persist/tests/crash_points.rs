//! Crash-point property test (ISSUE 3, satellite 3).
//!
//! Runs one randomized-but-deterministic workload — three pools, plain
//! writes, a committed transaction, an in-flight transaction abandoned by a
//! crash, sessions and exposure windows opened and closed — while mirroring
//! every pool mutation into an in-memory WAL. Then, for **every** crash
//! point the harness can enumerate over the durable log image (torn
//! truncations and byte flips in every record, plus the clean end — well
//! over the 200-point floor), it injects the damage, drives full recovery,
//! and asserts the TERP recovery invariants against a model computed from
//! the surviving record prefix:
//!
//! (a) **No exposure window is readable.** The resealed set equals exactly
//!     the windows open in the surviving prefix, every resealed pool has a
//!     bumped attach generation (next attach re-randomizes), and crashed
//!     sessions are discarded, never resurrected.
//! (b) **Committed transactions are intact.** Once the commit record is
//!     durable, the committed value survives every later crash point.
//! (c) **Uncommitted transactions roll back.** The in-flight transaction's
//!     target always reads its pre-image, at every cut.
//!
//! Transaction steps are mirrored as their *physical* footprint (new
//! allocations + changed pages, in address order). Because each pool's undo
//! log area is allocated before its data cells, log-area pages sort before
//! data pages — so the mirrored record order preserves the undo-before-data
//! write-ahead ordering that `terp_pmo::txn` relies on, and every record
//! prefix is a state the real medium could have held.

use std::collections::BTreeSet;

use terp_persist::{enumerate_crash_points, inject, read_log, recover, WalRecord, WalWriter};
use terp_pmo::{txn, ObjectId, OpenMode, Permission, PmoId, PmoRegistry, Transaction, PAGE_SIZE};

const POOL_SIZE: u64 = 1 << 18;
const CELL: usize = 24;

/// Deterministic LCG: the workload is randomized but exactly replayable.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| (self.next() & 0xff) as u8).collect()
    }
}

type Phys = (Vec<(u64, u64)>, Vec<(u64, Vec<u8>)>);

/// Live registry + mirrored WAL, exactly as a durable service pairs them.
struct Builder {
    reg: PmoRegistry,
    wal: WalWriter,
    records: Vec<WalRecord>,
}

impl Builder {
    fn new() -> Self {
        Builder {
            reg: PmoRegistry::new(),
            wal: WalWriter::in_memory(),
            records: Vec::new(),
        }
    }

    /// Appends to both the WAL and the model; returns the record index.
    fn log(&mut self, record: WalRecord) -> usize {
        self.wal.append(&record).unwrap();
        self.records.push(record);
        self.records.len() - 1
    }

    fn create(&mut self, name: &str) -> PmoId {
        let id = self
            .reg
            .create(name, POOL_SIZE, OpenMode::ReadWrite)
            .unwrap();
        self.log(WalRecord::PoolCreate {
            id,
            name: name.into(),
            size: POOL_SIZE,
            mode: OpenMode::ReadWrite,
        });
        id
    }

    fn alloc(&mut self, pmo: PmoId, size: u64) -> (u64, usize) {
        let oid = self.reg.pool_mut(pmo).unwrap().pmalloc(size).unwrap();
        let idx = self.log(WalRecord::Alloc {
            pmo,
            size,
            offset: oid.offset(),
        });
        (oid.offset(), idx)
    }

    fn free(&mut self, pmo: PmoId, offset: u64) {
        self.reg
            .pool_mut(pmo)
            .unwrap()
            .pfree(ObjectId::new(pmo, offset))
            .unwrap();
        self.log(WalRecord::Free { pmo, offset });
    }

    fn write(&mut self, pmo: PmoId, offset: u64, data: &[u8]) -> usize {
        self.reg
            .pool_mut(pmo)
            .unwrap()
            .write_bytes(offset, data)
            .unwrap();
        self.log(WalRecord::DataWrite {
            pmo,
            offset,
            data: data.to_vec(),
        })
    }

    fn phys(&self, pmo: PmoId) -> Phys {
        let pool = self.reg.pool(pmo).unwrap();
        (
            pool.allocator().live_blocks().collect(),
            pool.export_pages().map(|(i, b)| (i, b.to_vec())).collect(),
        )
    }

    /// Mirrors the physical footprint of an opaque mutation (a transaction)
    /// into the WAL: new live blocks as `Alloc` records, changed pages as
    /// whole-page `DataWrite`s, both in address order.
    fn mirror(&mut self, pmo: PmoId, before: &Phys) {
        let (live, pages) = self.phys(pmo);
        let mut out = Vec::new();
        for &(offset, size) in live.iter().filter(|b| !before.0.contains(b)) {
            out.push(WalRecord::Alloc { pmo, size, offset });
        }
        for (idx, bytes) in &pages {
            let changed = before
                .1
                .iter()
                .find(|(i, _)| i == idx)
                .is_none_or(|(_, old)| old != bytes);
            if changed {
                out.push(WalRecord::DataWrite {
                    pmo,
                    offset: idx * PAGE_SIZE,
                    data: bytes.clone(),
                });
            }
        }
        for record in out {
            self.log(record);
        }
    }

    fn ensure_log_area(&mut self, pmo: PmoId) {
        let before = self.phys(pmo);
        txn::ensure_log_area(self.reg.pool_mut(pmo).unwrap()).unwrap();
        self.mirror(pmo, &before);
    }
}

fn read_cell(reg: &PmoRegistry, pmo: PmoId, offset: u64, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    reg.pool(pmo).unwrap().read_bytes(offset, &mut buf).unwrap();
    buf
}

#[test]
fn every_crash_point_recovers_to_a_sealed_consistent_state() {
    let mut rng = Lcg(0x7e39_a1c5_55d4_f00d);
    let mut b = Builder::new();

    // Pool A: an often-overwritten plain cell plus a committed transaction.
    let a = b.create("crash-a");
    b.ensure_log_area(a);
    let (c1, c1_alloc) = b.alloc(a, 64);
    let mut c1_writes: Vec<(usize, Vec<u8>)> = Vec::new();
    for _ in 0..(8 + (rng.next() % 5) as usize) {
        let v = rng.bytes(CELL);
        let idx = b.write(a, c1, &v);
        c1_writes.push((idx, v));
    }
    let (c2, c2_alloc) = b.alloc(a, 64);
    let c2_pre = rng.bytes(CELL);
    let c2_pre_idx = b.write(a, c2, &c2_pre);
    b.log(WalRecord::SessionOpen {
        client: 11,
        pmo: a,
        perm: Permission::ReadWrite,
    });
    b.log(WalRecord::WindowOpen { pmo: a });
    b.log(WalRecord::Randomize { pmo: a });
    let c2_new = rng.bytes(CELL);
    let before = b.phys(a);
    {
        let mut tx = Transaction::begin(b.reg.pool_mut(a).unwrap()).unwrap();
        tx.write(c2, &c2_new).unwrap();
        tx.commit().unwrap();
    }
    b.mirror(a, &before);
    let c2_commit_end = b.records.len(); // first index *after* the commit
    b.log(WalRecord::WindowClose { pmo: a });
    b.log(WalRecord::SessionClose { client: 11, pmo: a });

    // Pool C: allocator churn and window churn; one window open at the end.
    let c = b.create("crash-c");
    let (t0, _) = b.alloc(c, 128);
    b.write(c, t0, &rng.bytes(48));
    b.free(c, t0);
    let (t1, _) = b.alloc(c, 256);
    b.write(c, t1, &rng.bytes(48));
    b.log(WalRecord::SessionOpen {
        client: 21,
        pmo: c,
        perm: Permission::Read,
    });
    b.log(WalRecord::WindowOpen { pmo: c });
    b.log(WalRecord::WindowClose { pmo: c });
    b.log(WalRecord::SessionOpen {
        client: 22,
        pmo: c,
        perm: Permission::ReadWrite,
    });
    b.log(WalRecord::SessionClose { client: 21, pmo: c });
    b.log(WalRecord::WindowOpen { pmo: c }); // still open at the crash

    // Pool B: an in-flight transaction abandoned mid-air, window open.
    let pb = b.create("crash-b");
    b.ensure_log_area(pb);
    let (c3, c3_alloc) = b.alloc(pb, 64);
    let c3_pre = rng.bytes(CELL);
    let c3_pre_idx = b.write(pb, c3, &c3_pre);
    b.log(WalRecord::SessionOpen {
        client: 31,
        pmo: pb,
        perm: Permission::ReadWrite,
    });
    b.log(WalRecord::WindowOpen { pmo: pb });
    let before = b.phys(pb);
    {
        let mut tx = Transaction::begin(b.reg.pool_mut(pb).unwrap()).unwrap();
        tx.write(c3, &rng.bytes(CELL)).unwrap();
        tx.write(c3 + 32, &rng.bytes(16)).unwrap();
        tx.crash(); // power fails before commit
    }
    b.mirror(pb, &before);

    let log = b.wal.durable_bytes().unwrap().to_vec();
    let records = b.records;
    assert_eq!(read_log(&log).records.len(), records.len(), "mirror drift");

    let points = enumerate_crash_points(&log);
    assert!(
        points.len() >= 200,
        "acceptance floor: need >= 200 crash points, got {} over {} records",
        points.len(),
        records.len()
    );

    for point in points {
        let damaged = inject(&log, point);
        // Every injected log decodes to an exact record prefix; the model
        // below is computed from that prefix.
        let k = read_log(&damaged).records.len();
        assert_eq!(
            k,
            point.record.min(records.len()),
            "{}: prefix mismatch",
            point.describe()
        );
        let (state, report) =
            recover(&damaged).unwrap_or_else(|e| panic!("{}: {e}", point.describe()));

        // Model: scan the surviving prefix for protection state.
        let mut open: BTreeSet<PmoId> = BTreeSet::new();
        let mut sessions: BTreeSet<(u64, PmoId)> = BTreeSet::new();
        for record in &records[..k] {
            match record {
                WalRecord::WindowOpen { pmo } => {
                    open.insert(*pmo);
                }
                WalRecord::WindowClose { pmo } => {
                    open.remove(pmo);
                }
                WalRecord::SessionOpen { client, pmo, .. } => {
                    sessions.insert((*client, *pmo));
                }
                WalRecord::SessionClose { client, pmo } => {
                    sessions.remove(&(*client, *pmo));
                }
                _ => {}
            }
        }

        // (a) No exposure window survives: exactly the crash-open windows
        // are resealed, and resealing re-randomizes the next attach.
        let resealed: BTreeSet<PmoId> = state.resealed.iter().copied().collect();
        assert_eq!(resealed, open, "{}: resealed set", point.describe());
        assert_eq!(report.windows_resealed, open.len(), "{}", point.describe());
        assert_eq!(
            report.sessions_discarded,
            sessions.len(),
            "{}: sessions are discarded, never resurrected",
            point.describe()
        );
        for pool in state.registry.iter() {
            assert_eq!(
                pool.attach_generation() > 0,
                open.contains(&pool.id()),
                "{}: attach generation of {:?}",
                point.describe(),
                pool.id()
            );
        }

        // Plain cell: last surviving write wins.
        if k > c1_alloc {
            let expect = c1_writes
                .iter()
                .rev()
                .find(|(i, _)| *i < k)
                .map_or_else(|| vec![0u8; CELL], |(_, v)| v.clone());
            assert_eq!(
                read_cell(&state.registry, a, c1, CELL),
                expect,
                "{}: plain cell",
                point.describe()
            );
        }

        // (b) Committed transaction: durable commit record => new value;
        // any earlier cut => pre-image (or zeros before the pre-image).
        if k > c2_alloc {
            let expect = if k >= c2_commit_end {
                c2_new.clone()
            } else if k > c2_pre_idx {
                c2_pre.clone()
            } else {
                vec![0u8; CELL]
            };
            assert_eq!(
                read_cell(&state.registry, a, c2, CELL),
                expect,
                "{}: committed-txn cell",
                point.describe()
            );
        }

        // (c) In-flight transaction: rolled back at every cut — the target
        // reads its pre-image, the second write's range stays zero.
        if k > c3_alloc {
            let expect = if k > c3_pre_idx {
                c3_pre.clone()
            } else {
                vec![0u8; CELL]
            };
            assert_eq!(
                read_cell(&state.registry, pb, c3, CELL),
                expect,
                "{}: uncommitted-txn cell",
                point.describe()
            );
            assert_eq!(
                read_cell(&state.registry, pb, c3 + 32, 16),
                vec![0u8; 16],
                "{}: uncommitted second write",
                point.describe()
            );
        }
    }
}
