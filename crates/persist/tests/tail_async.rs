//! TailReader vs. the pipelined async store (ISSUE 10, satellite 6).
//!
//! A replication leader tails the very file the background log writer is
//! appending to with large coalesced `write(2)`s. The reader must treat
//! every torn observation as `NeedMore` — never a CRC error — and must
//! survive an incremental checkpoint truncating the log out from under it
//! with a clean `Truncated` + restart-from-zero, not corruption.

use terp_persist::{DurableStore, TailReader, TailStatus, WalRecord, WAL_FILE};
use terp_pmo::{OpenMode, PmoId, PmoRegistry};

fn rec(n: u64) -> WalRecord {
    WalRecord::DataWrite {
        pmo: PmoId::new(1).unwrap(),
        offset: n * 64,
        data: vec![n as u8; 24],
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("terp-tail-async-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn tail_reader_over_live_async_writer_sees_no_errors_and_survives_truncation() {
    let dir = temp_dir("race");
    let (mut store, _, _) = DurableStore::open(&dir).unwrap();
    let wal = dir.join(WAL_FILE);
    let total: u64 = 400;

    // Phase 1: poll concurrently with the background writer's coalesced
    // batches. Every poll must be CaughtUp or NeedMore — a torn tail is
    // "not yet", never corruption — and the records arrive in order,
    // exactly once.
    let mut tail = TailReader::new(&wal);
    let mut store = std::thread::scope(|scope| {
        let appender = scope.spawn(move || {
            let mut last = 0;
            for n in 0..total {
                last = store.log(&rec(n)).unwrap();
                if n % 17 == 0 {
                    std::thread::yield_now();
                }
            }
            store.sync_to(last).unwrap();
            store
        });

        let mut seen: Vec<u64> = Vec::new();
        while seen.len() < total as usize {
            let chunk = tail
                .poll()
                .expect("poll must never error under a live writer");
            assert_ne!(chunk.status, TailStatus::Truncated, "no checkpoint ran yet");
            seen.extend(chunk.records.iter().map(|(seq, _)| *seq));
            if chunk.records.is_empty() {
                std::thread::yield_now();
            }
        }
        assert_eq!(
            seen,
            (0..total).collect::<Vec<_>>(),
            "in order, exactly once"
        );
        appender.join().unwrap()
    });

    // Phase 2: an incremental checkpoint truncates the WAL beneath the
    // reader. The poll after the truncation reports Truncated and resets to
    // offset zero; subsequent appends read cleanly from the top.
    let mut reg = PmoRegistry::new();
    let p = reg
        .create("tail-ckpt", 1 << 16, OpenMode::ReadWrite)
        .unwrap();
    let pool = reg.pool_mut(p).unwrap();
    let oid = pool.pmalloc(64).unwrap();
    pool.write_bytes(oid.offset(), b"dirty page").unwrap();
    store
        .checkpoint_incremental(std::iter::once(reg.pool_mut(p).unwrap()), &[])
        .unwrap();

    let chunk = tail.poll().expect("truncation is a status, not an error");
    assert_eq!(chunk.status, TailStatus::Truncated);
    assert!(chunk.records.is_empty());
    assert_eq!(tail.offset(), 0, "reader restarts from the top");

    let last = store.log(&rec(999)).unwrap();
    store.sync_to(last).unwrap();
    let chunk = tail.poll().unwrap();
    assert_eq!(chunk.records.len(), 1);
    assert_eq!(chunk.status, TailStatus::CaughtUp);
    // The shipped bytes are verbatim the post-checkpoint file prefix.
    assert_eq!(chunk.bytes, std::fs::read(&wal).unwrap());

    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}
