//! Exhaustive crash-point enumeration over a multi-structure workload.
//!
//! A seeded workload drives a stack, a queue, and a map (each in its own
//! pool) through a journaling [`LocalMem`], interleaving window
//! open/close protection records. Every operation returns a
//! `commit_mark` — the WAL record count at its commit CAS — so for *any*
//! surviving log prefix the exact committed-operation set is known.
//!
//! The persist crash enumerator then damages the log at every point
//! (truncations mid-header/mid-payload, bit flips in CRC and payload);
//! at each point we recover, re-attach every structure through the typed
//! root directory, run its recovery pass, and assert the full invariant
//! set:
//!
//! * structure contents == the sequential model replayed over exactly
//!   the committed ops (no lost, duplicated, or reordered elements);
//! * the reachable node set ∪ {root, descriptor area} == the
//!   allocator's live blocks (no leaks, no dangling ObjectIDs);
//! * every window open in the surviving prefix is resealed;
//! * the root directory replays to exactly the prefix's last writes;
//! * a second recovery pass is a no-op (idempotence).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use terp_persist::{enumerate_crash_points, inject, read_log, recover, WalRecord};
use terp_pmo::PmoId;
use terp_structures::{DsMem, HashMap, LocalMem, Queue, RecoveryOutcome, Stack};

const STACK_KEY: u32 = 1;
const QUEUE_KEY: u32 = 2;
const MAP_KEY: u32 = 3;
const OPS_PER_DS: u32 = 12;

/// One committed-or-not operation receipt from the workload build.
#[derive(Debug, Clone, Copy)]
enum Applied {
    Push(u64),
    Pop(u64),
    Enq(u64),
    Deq(u64),
    Ins(u64, u64),
    Rem(u64, u64),
}

#[derive(Debug, Clone, Copy)]
struct Receipt {
    mark: u64,
    applied: Applied,
}

struct Workload {
    wal: Vec<u8>,
    receipts: Vec<Receipt>,
    stack_pid: PmoId,
    queue_pid: PmoId,
    map_pid: PmoId,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds the seeded multi-structure workload and returns its durable
/// log image plus the receipt list.
fn build_workload(seed: u64) -> Workload {
    let mem = LocalMem::new();
    let stack_pid = mem.create_pool("crash-stack", 1 << 16).unwrap();
    let queue_pid = mem.create_pool("crash-queue", 1 << 16).unwrap();
    let map_pid = mem.create_pool("crash-map", 1 << 16).unwrap();

    for pid in [stack_pid, queue_pid, map_pid] {
        mem.log_protection(&WalRecord::WindowOpen { pmo: pid });
    }

    let stack = Stack::create(&mem, stack_pid, 2, STACK_KEY).unwrap();
    let queue = Queue::create(&mem, queue_pid, 2, QUEUE_KEY).unwrap();
    let map = HashMap::create(&mem, map_pid, 2, 4, MAP_KEY).unwrap();

    let mut rng = seed;
    let mut receipts = Vec::new();
    for i in 0..OPS_PER_DS {
        let c = i % 2;

        // Vary the crash-time window set so resealing is exercised at
        // many different open counts.
        if i % 5 == 1 {
            mem.log_protection(&WalRecord::WindowClose { pmo: queue_pid });
        }
        if i % 5 == 3 {
            mem.log_protection(&WalRecord::WindowOpen { pmo: queue_pid });
        }

        let r = splitmix(&mut rng);
        if !r.is_multiple_of(3) {
            let v = 0x1000 + u64::from(i);
            let res = stack.push(&mem, c, v).unwrap();
            receipts.push(Receipt {
                mark: res.commit_mark,
                applied: Applied::Push(v),
            });
        } else {
            let res = stack.pop(&mem, c).unwrap();
            if let Some(v) = res.value {
                receipts.push(Receipt {
                    mark: res.commit_mark,
                    applied: Applied::Pop(v),
                });
            }
        }

        let r = splitmix(&mut rng);
        if !r.is_multiple_of(3) {
            let v = 0x2000 + u64::from(i);
            let res = queue.enqueue(&mem, c, v).unwrap();
            receipts.push(Receipt {
                mark: res.commit_mark,
                applied: Applied::Enq(v),
            });
        } else {
            let res = queue.dequeue(&mem, c).unwrap();
            if let Some(v) = res.value {
                receipts.push(Receipt {
                    mark: res.commit_mark,
                    applied: Applied::Deq(v),
                });
            }
        }

        let r = splitmix(&mut rng);
        let key = (r >> 8) % 5;
        if !r.is_multiple_of(3) {
            let v = 0x3000 + u64::from(i);
            let res = map.insert(&mem, c, key, v).unwrap();
            receipts.push(Receipt {
                mark: res.commit_mark,
                applied: Applied::Ins(key, v),
            });
        } else {
            let res = map.remove(&mem, c, key).unwrap();
            if let Some(v) = res.value {
                receipts.push(Receipt {
                    mark: res.commit_mark,
                    applied: Applied::Rem(key, v),
                });
            }
        }
    }

    Workload {
        wal: mem.durable_bytes(),
        receipts,
        stack_pid,
        queue_pid,
        map_pid,
    }
}

/// The sequential model at a given surviving-record count.
#[derive(Default)]
struct Expected {
    stack: Vec<u64>,
    queue: VecDeque<u64>,
    map: BTreeMap<u64, Vec<u64>>,
}

fn replay_expected(receipts: &[Receipt], k: u64) -> Expected {
    let mut e = Expected::default();
    for r in receipts {
        if r.mark == 0 || r.mark > k {
            continue;
        }
        match r.applied {
            Applied::Push(v) => e.stack.push(v),
            Applied::Pop(v) => assert_eq!(e.stack.pop(), Some(v), "receipt model diverged"),
            Applied::Enq(v) => e.queue.push_back(v),
            Applied::Deq(v) => assert_eq!(e.queue.pop_front(), Some(v), "receipt model diverged"),
            Applied::Ins(k2, v) => e.map.entry(k2).or_default().push(v),
            Applied::Rem(k2, v) => {
                assert_eq!(
                    e.map.get_mut(&k2).and_then(Vec::pop),
                    Some(v),
                    "receipt model diverged"
                );
            }
        }
    }
    e.map.retain(|_, stack| !stack.is_empty());
    e
}

/// Windows open and roots registered after replaying a decoded prefix.
fn replay_protection(
    records: &[(u64, WalRecord)],
) -> (BTreeSet<PmoId>, BTreeMap<(PmoId, u32), u64>) {
    let mut open = BTreeSet::new();
    let mut roots = BTreeMap::new();
    for (_, rec) in records {
        match rec {
            WalRecord::WindowOpen { pmo } => {
                open.insert(*pmo);
            }
            WalRecord::WindowClose { pmo } => {
                open.remove(pmo);
            }
            WalRecord::RootSet { pmo, key, oid } => {
                if *oid == 0 {
                    roots.remove(&(*pmo, *key));
                } else {
                    roots.insert((*pmo, *key), *oid);
                }
            }
            _ => {}
        }
    }
    (open, roots)
}

/// Asserts live blocks == reachable ∪ {root, descriptor area}: exactly
/// two live blocks besides the reachable node set, and every reachable
/// offset is a live block.
fn assert_accounted(mem: &LocalMem, pid: PmoId, reachable: &BTreeSet<u64>) {
    let live: BTreeSet<u64> = mem
        .live_blocks(pid)
        .expect("local memory enumerates live blocks")
        .into_iter()
        .map(|(off, _)| off)
        .collect();
    for off in reachable {
        assert!(live.contains(off), "dangling node at offset {off:#x}");
    }
    assert_eq!(
        live.len(),
        reachable.len() + 2,
        "leak or loss in pool {pid:?}: live {live:?} vs reachable {reachable:?}"
    );
}

#[test]
fn every_enumerated_crash_point_recovers_to_the_committed_prefix() {
    let w = build_workload(0xC0FFEE);
    let points = enumerate_crash_points(&w.wal);
    assert!(
        points.len() >= 200,
        "workload too small: only {} crash points",
        points.len()
    );

    let mut structures_checked = 0usize;
    for point in points {
        let damaged = inject(&w.wal, point);
        let log = read_log(&damaged);
        let k = log.records.len() as u64;
        let (expect_open, expect_roots) = replay_protection(&log.records);
        let expected = replay_expected(&w.receipts, k);

        let (state, report) = recover(&damaged).unwrap();

        // Every window open in the surviving prefix was resealed.
        let mut resealed = state.resealed.clone();
        resealed.sort();
        assert_eq!(
            resealed,
            expect_open.iter().copied().collect::<Vec<_>>(),
            "reseal set diverges at prefix {k}"
        );
        assert_eq!(report.windows_resealed, expect_open.len());

        // The root directory replays to exactly the prefix's last writes.
        assert_eq!(state.roots, expect_roots, "root directory diverges at {k}");
        assert_eq!(report.roots_recovered, expect_roots.len());

        let post = LocalMem::from_recovered(state);

        if expect_roots.contains_key(&(w.stack_pid, STACK_KEY)) {
            let stack = Stack::attach(&post, w.stack_pid, STACK_KEY).unwrap();
            stack.recover(&post).unwrap();
            let mut top_first = expected.stack.clone();
            top_first.reverse();
            assert_eq!(stack.items(&post).unwrap(), top_first, "stack at {k}");
            assert_accounted(&post, w.stack_pid, &stack.reachable(&post).unwrap());
            assert_eq!(
                stack.recover(&post).unwrap(),
                RecoveryOutcome::default(),
                "stack recovery not idempotent at {k}"
            );
            structures_checked += 1;
        }

        if expect_roots.contains_key(&(w.queue_pid, QUEUE_KEY)) {
            let queue = Queue::attach(&post, w.queue_pid, QUEUE_KEY).unwrap();
            queue.recover(&post).unwrap();
            let front_first: Vec<u64> = expected.queue.iter().copied().collect();
            assert_eq!(queue.items(&post).unwrap(), front_first, "queue at {k}");
            // Queue reachability includes the dummy node.
            let reach = queue.reachable(&post).unwrap();
            assert_eq!(reach.len(), front_first.len() + 1, "queue chain at {k}");
            assert_accounted(&post, w.queue_pid, &reach);
            assert_eq!(
                queue.recover(&post).unwrap(),
                RecoveryOutcome::default(),
                "queue recovery not idempotent at {k}"
            );
            structures_checked += 1;
        }

        if expect_roots.contains_key(&(w.map_pid, MAP_KEY)) {
            let map = HashMap::attach(&post, w.map_pid, MAP_KEY).unwrap();
            map.recover(&post).unwrap();
            let mut got: Vec<(u64, u64)> = map.items(&post).unwrap();
            got.sort_unstable();
            let mut want: Vec<(u64, u64)> = expected
                .map
                .iter()
                .flat_map(|(key, stack)| stack.iter().map(move |v| (*key, *v)))
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "map at {k}");
            for (key, stack) in &expected.map {
                assert_eq!(
                    map.get(&post, *key).unwrap(),
                    stack.last().copied(),
                    "map key {key} at {k}"
                );
            }
            assert_accounted(&post, w.map_pid, &map.reachable(&post).unwrap());
            assert_eq!(
                map.recover(&post).unwrap(),
                RecoveryOutcome::default(),
                "map recovery not idempotent at {k}"
            );
            structures_checked += 1;
        }
    }

    assert!(
        structures_checked > 500,
        "too few structure recoveries exercised: {structures_checked}"
    );
}

/// The undamaged log recovers to exactly the full workload — the clean
/// point the enumerator also emits, asserted separately for a readable
/// failure when the workload itself is broken.
#[test]
fn clean_log_recovers_every_committed_op() {
    let w = build_workload(0xC0FFEE);
    let log = read_log(&w.wal);
    assert!(log.is_clean());
    let expected = replay_expected(&w.receipts, log.records.len() as u64);

    let (state, report) = recover(&w.wal).unwrap();
    assert!(!report.torn_tail);
    let post = LocalMem::from_recovered(state);

    let stack = Stack::attach(&post, w.stack_pid, STACK_KEY).unwrap();
    stack.recover(&post).unwrap();
    let mut top_first = expected.stack.clone();
    top_first.reverse();
    assert_eq!(stack.items(&post).unwrap(), top_first);

    let queue = Queue::attach(&post, w.queue_pid, QUEUE_KEY).unwrap();
    queue.recover(&post).unwrap();
    let front_first: Vec<u64> = expected.queue.iter().copied().collect();
    assert_eq!(queue.items(&post).unwrap(), front_first);

    let map = HashMap::attach(&post, w.map_pid, MAP_KEY).unwrap();
    map.recover(&post).unwrap();
    let mut got = map.items(&post).unwrap();
    got.sort_unstable();
    let mut want: Vec<(u64, u64)> = expected
        .map
        .iter()
        .flat_map(|(key, stack)| stack.iter().map(move |v| (*key, *v)))
        .collect();
    want.sort_unstable();
    assert_eq!(got, want);
}
