//! Semantics over the wire: the paper's MM-blocking / TT-silent contrasts
//! must survive the network boundary. A parked attach blocks its *request*,
//! never the connection; a drained server answers in-flight requests with
//! `ShuttingDown` instead of a hung socket; and the request lifecycle shows
//! up as `NetRecv -> NetExec` happens-before edges in the trace. A client
//! that stops reading stalls only its own connection.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use terp_core::Scheme;
use terp_net::{Client, NetServer, ServiceError};
use terp_pmo::{OpenMode, Permission};
use terp_service::config::ServiceConfig;
use terp_service::{PmoServer, TraceConfig};

fn net_server(scheme: Scheme) -> NetServer {
    let config = ServiceConfig::for_tests(scheme);
    NetServer::start(PmoServer::start(config), "127.0.0.1:0").expect("bind loopback")
}

#[test]
fn loopback_roundtrip_all_ops() {
    let net = net_server(Scheme::terp_full());
    let addr = net.local_addr();
    let client = Client::connect(addr, 7).expect("connect");
    assert_eq!(client.server_version(), terp_net::VERSION);
    assert_eq!(client.server_scheme(), "TT");

    let pmo = client
        .create_pool("wire-pool", 1 << 16, OpenMode::ReadWrite)
        .expect("create");
    let waited = client.attach(pmo, Permission::ReadWrite).expect("attach");
    assert_eq!(waited, 0, "TT attach never queues");
    let oid = client.alloc(pmo, 256).expect("alloc");
    client.write(oid, b"over the wire").expect("write");
    assert_eq!(client.read(oid, 13).expect("read"), b"over the wire");
    client.free(oid).expect("free");
    client.detach(pmo).expect("detach");
    client.ping().expect("ping");

    // Service-level failures come back as the same typed enum in-process
    // callers see.
    let unknown = terp_pmo::PmoId::new(999).unwrap();
    assert_eq!(
        client.detach(unknown),
        Err(ServiceError::UnknownPmo(unknown))
    );
    assert!(matches!(
        client
            .attach(pmo, Permission::ReadWrite)
            .and_then(|_| { client.attach(pmo, Permission::ReadWrite).map(|_| ()) }),
        Err(ServiceError::AlreadyAttached { .. })
    ));

    net.shutdown();
}

#[test]
fn pipelined_ops_complete_while_attach_is_parked() {
    // Basic semantics: at most one client holds a pool; a second attach
    // parks server-side until the holder detaches.
    let net = net_server(Scheme::BasicSemantics);
    let addr = net.local_addr();
    let holder = Client::connect(addr, 1).expect("connect holder");
    let waiter = Client::connect(addr, 2).expect("connect waiter");

    let pmo = holder
        .create_pool("contended", 1 << 12, OpenMode::ReadWrite)
        .expect("create");
    assert_eq!(holder.attach(pmo, Permission::ReadWrite).expect("hold"), 0);

    // The waiter's attach parks on the holder's exposure window...
    let parked = waiter
        .attach_pipelined(pmo, Permission::ReadWrite)
        .expect("submit attach");
    // ...while later pipelined ops on the SAME connection complete. If the
    // parked attach head-of-line-blocked the connection, these would hang
    // with it (the test harness would time out).
    for _ in 0..3 {
        waiter.ping().expect("ping past a parked attach");
    }
    let probe = waiter
        .create_pool("side-pool", 1 << 12, OpenMode::ReadWrite)
        .expect("later op completes before the earlier attach");

    // Release the window after a measurable delay; the parked request then
    // completes with the queue wait attributed.
    let released = Arc::new(AtomicBool::new(false));
    let release_flag = Arc::clone(&released);
    let holder2 = holder.clone();
    let releaser = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        release_flag.store(true, Ordering::Release);
        holder2.detach(pmo).expect("release");
    });
    let waited_ns = parked.wait_attached().expect("parked attach completes");
    assert!(
        released.load(Ordering::Acquire),
        "attach completed before the holder released"
    );
    assert!(
        waited_ns > 0,
        "queue wait must be attributed to the parked attach"
    );
    releaser.join().unwrap();

    // The waiter now holds the contended pool and can open the side pool
    // it created while parked.
    waiter
        .attach(probe, Permission::ReadWrite)
        .expect("attach side pool");
    let oid = waiter.alloc(probe, 64).expect("alloc on side pool");
    waiter.write(oid, &[3; 16]).expect("write");
    waiter.detach(probe).expect("side detach");
    waiter.detach(pmo).expect("waiter detach");
    net.shutdown();
}

#[test]
fn drain_mid_request_returns_shutting_down_not_hung_socket() {
    let net = net_server(Scheme::BasicSemantics);
    let addr = net.local_addr();
    let holder = Client::connect(addr, 1).expect("connect holder");
    let waiter = Client::connect(addr, 2).expect("connect waiter");

    let pmo = holder
        .create_pool("drained", 1 << 12, OpenMode::ReadWrite)
        .expect("create");
    holder.attach(pmo, Permission::ReadWrite).expect("hold");

    // Park an attach, then drain the server out from under it.
    let parked = waiter
        .attach_pipelined(pmo, Permission::ReadWrite)
        .expect("submit attach");
    waiter.ping().expect("attach is parked, connection is live");

    let verdict = std::thread::spawn(move || parked.wait_attached());
    net.shutdown();
    let result = verdict.join().unwrap();
    assert_eq!(
        result,
        Err(ServiceError::ShuttingDown),
        "a drained request must get an explicit error response, not a dead socket"
    );

    // Post-shutdown submissions fail fast with a connection-level error.
    assert!(waiter.ping().is_err());
}

#[test]
fn protocol_violations_are_connection_fatal_and_typed() {
    let net = net_server(Scheme::terp_full());
    let addr = net.local_addr();

    // A raw socket speaking garbage gets an error frame, then the close.
    use std::io::{Read, Write};
    let mut raw = std::net::TcpStream::connect(addr).expect("connect raw");
    raw.write_all(&terp_net::encode_frame(&[0x42; 12])).unwrap();
    let mut buf = Vec::new();
    raw.read_to_end(&mut buf)
        .expect("server responds then closes");
    let mut dec = terp_net::FrameDecoder::new();
    dec.push(&buf);
    let payload = dec
        .next_frame()
        .expect("clean frame")
        .expect("error frame before close");
    let (id, resp) = terp_net::Response::decode(&payload).expect("decodable");
    assert_eq!(id, 0, "connection-level errors ride request id 0");
    assert!(matches!(
        resp,
        terp_net::Response::Err(ServiceError::Protocol(_))
    ));

    // A well-behaved client on the same server still works.
    let client = Client::connect(addr, 9).expect("connect");
    client.ping().expect("healthy connection unaffected");
    net.shutdown();
}

#[test]
fn request_lifecycle_appears_as_hb_edges_in_the_trace() {
    let config = ServiceConfig::for_tests(Scheme::terp_full()).with_trace(TraceConfig::full());
    let net = NetServer::start(PmoServer::start(config), "127.0.0.1:0").expect("bind");
    let service = net.service();
    let tracer = service.tracer().cloned().expect("tracing enabled");

    let client = Client::connect(net.local_addr(), 5).expect("connect");
    let pmo = client
        .create_pool("traced", 1 << 12, OpenMode::ReadWrite)
        .expect("create");
    client.attach(pmo, Permission::ReadWrite).expect("attach");
    let oid = client.alloc(pmo, 64).expect("alloc");
    client.write(oid, &[1; 8]).expect("write");
    client.detach(pmo).expect("detach");
    net.shutdown();

    let set = tracer.snapshot();
    let (mut recvs, mut execs) = (Vec::new(), Vec::new());
    for t in &set.threads {
        for ev in &t.events {
            match ev.kind {
                terp_trace::EventKind::NetRecv { conn, req } => recvs.push((conn, req)),
                terp_trace::EventKind::NetExec { conn, req } => execs.push((conn, req)),
                _ => {}
            }
        }
    }
    assert!(
        recvs.len() >= 5,
        "every decoded request records NetRecv (got {recvs:?})"
    );
    // Every executed request's edge has its source: exec ⊆ recv.
    for pair in &execs {
        assert!(recvs.contains(pair), "NetExec {pair:?} without NetRecv");
    }
    assert!(!execs.is_empty(), "service-bound ops record NetExec");

    // The offline checker consumes the trace without flagging the
    // network-driven windows (single client, no overlap).
    let report = terp_analysis::hb::check_trace(&set);
    assert_eq!(report.stats.races(), 0, "{:?}", report.diagnostics);
    assert!(report.stats.events > 0);
}

#[test]
fn stalled_client_stalls_only_itself() {
    use std::io::Write;
    use std::sync::mpsc::{channel, RecvTimeoutError};
    use terp_net::server::MAX_INFLIGHT;
    use terp_net::{encode_frame, Request};

    const OBJ: u32 = 64 * 1024;
    // A's responses total ROUNDS MiB, far more than loopback socket buffers
    // hold, so A's connection must stall long before its last round.
    const ROUNDS: u64 = 64;
    const READS_PER_ROUND: usize = 16;
    assert!(ROUNDS as usize * READS_PER_ROUND > MAX_INFLIGHT);

    let net = net_server(Scheme::terp_full());
    let addr = net.local_addr();
    let b = Client::connect(addr, 2).expect("connect B");
    let pmo = b
        .create_pool("stall", 1 << 20, OpenMode::ReadWrite)
        .expect("create");
    b.attach(pmo, Permission::ReadWrite).expect("attach B");
    let big = b.alloc(pmo, u64::from(OBJ)).expect("alloc big");
    let progress = b.alloc(pmo, 8).expect("alloc progress");
    b.write(progress, &0u64.to_le_bytes())
        .expect("write progress");

    // A: hello, attach, then rounds of 16 reads of 64 KiB, each round
    // followed by a write of its number to `progress` — and A never reads a
    // response.
    let mut a = std::net::TcpStream::connect(addr).expect("connect A");
    let mut reqs = vec![
        Request::Hello {
            magic: terp_net::MAGIC,
            version: terp_net::VERSION,
            client: 1,
        },
        Request::Attach {
            pmo,
            perm: Permission::ReadWrite,
        },
    ];
    for round in 1..=ROUNDS {
        reqs.extend((0..READS_PER_ROUND).map(|_| Request::Read { oid: big, len: OBJ }));
        reqs.push(Request::Write {
            oid: progress,
            data: round.to_le_bytes().to_vec(),
        });
    }
    let bytes: Vec<u8> = (1u64..)
        .zip(&reqs)
        .flat_map(|(id, r)| encode_frame(&r.encode(id)))
        .collect();
    a.write_all(&bytes).expect("A pipelines its requests");

    // B waits until A's progress stops short of the end (A's connection is
    // blocked sending), then runs sync ops, each within a bound. The ops
    // run on their own thread so a stalled B fails the test, not hangs it.
    let (tx, rx) = channel();
    let b2 = b.clone();
    let ops = std::thread::spawn(move || {
        let read_progress =
            || u64::from_le_bytes(b2.read(progress, 8).expect("read").try_into().unwrap());
        loop {
            let k = read_progress();
            std::thread::sleep(Duration::from_millis(50));
            if k > 0 && read_progress() == k {
                break;
            }
            tx.send(()).expect("report progress");
        }
        for i in 0..200u8 {
            b2.ping().expect("ping");
            b2.write(big, &[i; 16]).expect("write");
            assert_eq!(b2.read(big, 16).expect("read"), [i; 16]);
            tx.send(()).expect("report progress");
        }
        read_progress()
    });
    loop {
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(()) => {}
            Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => panic!("B's ops stalled behind A"),
        }
    }
    let stuck_at = ops.join().expect("B's ops");
    assert!(
        stuck_at < ROUNDS,
        "A never stalled: all {ROUNDS} rounds ran"
    );

    // Dropping A frees its connection thread, so shutdown returns.
    drop(a);
    drop(b);
    let (done_tx, done_rx) = channel();
    std::thread::spawn(move || {
        net.shutdown();
        done_tx.send(()).unwrap();
    });
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("shutdown hung after the stalled client left");
}
