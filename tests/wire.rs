//! The serving stack over loopback TCP: every request kind round-trips
//! through `NetServer` and `Client`, and under `visibility = durable` no
//! write is acked over the wire before its record is in the shard's WAL on
//! disk.

use terp_net::{Client, NetServer, ServiceError};
use terp_persist::{read_log, WalRecord, WAL_FILE};
use terp_service::{PmoServer, ServiceConfig, Visibility};
use terp_suite::prelude::*;

#[test]
fn loopback_round_trip_of_every_request_kind() {
    let config = ServiceConfig::for_tests(Scheme::terp_full());
    let net = NetServer::start(PmoServer::start(config), "127.0.0.1:0").unwrap();
    // Connect sends Hello; the server answers with its scheme and shards.
    let client = Client::connect(net.local_addr(), 3).unwrap();
    assert_eq!(client.server_version(), terp_net::VERSION);
    assert_eq!(client.server_scheme(), "TT");
    assert_eq!(client.server_shards(), 4);

    let pmo = client
        .create_pool("suite-wire", 1 << 16, OpenMode::ReadWrite)
        .unwrap();
    assert_eq!(client.attach(pmo, Permission::ReadWrite).unwrap(), 0);
    let oid = client.alloc(pmo, 64).unwrap();
    client.write(oid, b"round trip").unwrap();
    assert_eq!(client.read(oid, 10).unwrap(), b"round trip");
    client.free(oid).unwrap();
    client.detach(pmo).unwrap();
    client.ping().unwrap();
    // A service error crosses the wire as the same typed value.
    assert_eq!(
        client.detach(pmo),
        Err(ServiceError::NotAttached { client: 3, pmo })
    );

    net.shutdown();
}

#[test]
fn durable_acks_over_the_wire_follow_the_wal() {
    const SHARDS: usize = 2;
    const WRITES: u8 = 32;
    let dir = std::env::temp_dir().join(format!("terp-suite-wire-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServiceConfig::for_tests(Scheme::terp_full())
        .with_shards(SHARDS)
        .with_durable(&dir)
        .with_visibility(Visibility::Durable);
    let net = NetServer::start(PmoServer::try_start(config).unwrap(), "127.0.0.1:0").unwrap();
    let addr = net.local_addr();

    // Two connections, each pipelining writes to its own pool; every ack
    // must find its record already on disk.
    std::thread::scope(|s| {
        for conn in 0..2u8 {
            let dir = &dir;
            s.spawn(move || {
                let client = Client::connect(addr, u64::from(conn)).unwrap();
                let pmo = client
                    .create_pool(&format!("durable-{conn}"), 1 << 16, OpenMode::ReadWrite)
                    .unwrap();
                client.attach(pmo, Permission::ReadWrite).unwrap();
                let oid = client.alloc(pmo, 32).unwrap();
                let wal = dir
                    .join(format!("shard-{}", pmo.raw() as usize & (SHARDS - 1)))
                    .join(WAL_FILE);
                let payload = |i: u8| vec![conn << 7 | i; 32];
                let pending: Vec<_> = (0..WRITES)
                    .map(|i| client.write_pipelined(oid, &payload(i)).unwrap())
                    .collect();
                for (i, ack) in (0..WRITES).zip(pending) {
                    ack.wait_unit().unwrap();
                    let want = payload(i);
                    let on_disk = read_log(&std::fs::read(&wal).unwrap());
                    assert!(
                        on_disk.records.iter().any(|(_, r)| matches!(
                            r, WalRecord::DataWrite { data, .. } if *data == want
                        )),
                        "connection {conn}: write {i} acked before it reached the WAL"
                    );
                }
            });
        }
    });

    net.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
