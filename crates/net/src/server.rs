//! The TCP front-end over [`PmoServer`].
//!
//! ## Threading model
//!
//! Each accepted connection gets **one** thread that runs every request to
//! completion. It reads a chunk off the socket, decodes every frame in it,
//! executes each request inline against the service, and appends each
//! encoded response to one per-connection output buffer. After the chunk it
//! sends that buffer with a single `write_all` through the connection's
//! write half, which sits behind a mutex. Nothing queues between decode
//! and execution: data ops take the service's seqlock fast path straight
//! from the connection thread.
//!
//! The one exception is an attach that can park on a conflicting holder's
//! exposure window (Merr / Basic semantics). It runs on a dedicated
//! spawned thread, which writes its single response under the same write
//! mutex. A parked attach therefore blocks only its own request: later
//! pipelined ops on the same connection keep flowing and complete first.
//! Every other response leaves in request order, which is stricter than
//! the protocol's out-of-order contract (see [`crate::proto`]).
//!
//! ## Backpressure
//!
//! A client that stops reading blocks its own connection thread in
//! `write_all`; that thread then stops reading, the kernel receive buffer
//! fills, and TCP flow control pushes back on the client. A stalled client
//! thus holds at most 64 KiB of responses (plus one response) and
//! the socket buffers on the server, and never stalls another connection. Parked attaches are capped
//! per connection at [`MAX_INFLIGHT`]; at the cap the connection thread
//! stops decoding until one completes.
//!
//! ## Tracing
//!
//! When the service runs with tracing enabled, the connection thread
//! records `NetRecv{conn, req}` at decode and `NetExec{conn, req}` before
//! touching the service; a parked attach records its `NetExec` on its own
//! thread. The pair is a happens-before edge for the offline checker, so
//! cross-thread windows driven by network requests order through their
//! dispatch points.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use terp_core::Scheme;
use terp_service::metrics::ServiceReport;
use terp_service::{ClientId, PmoServer, PmoService, TraceRecorder};
use terp_trace::EventKind;

use crate::frame::{encode_frame, FrameDecoder};
use crate::proto::{Request, Response, MAGIC, VERSION};
use crate::ServiceError;

/// Per-connection cap on parked attaches (Merr / Basic semantics attaches
/// running on their own threads). At the cap the connection thread stops
/// decoding until one completes, and TCP flow control takes over.
pub const MAX_INFLIGHT: usize = 256;

/// Output bytes after which the connection thread sends mid-chunk, so one
/// chunk of large reads cannot buffer without bound.
const FLUSH_BYTES: usize = 64 * 1024;

/// Counts one connection's parked attaches; the connection thread takes a
/// [`Permit`] before spawning one, and the permit drops once that attach's
/// response is written (or its thread panics, or never starts).
struct Gate {
    n: Mutex<usize>,
    cv: Condvar,
}

struct Permit(Arc<Gate>);

impl Gate {
    fn new() -> Self {
        Gate {
            n: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    fn acquire(self: &Arc<Self>) -> Permit {
        let mut n = self.n.lock().unwrap_or_else(|e| e.into_inner());
        while *n >= MAX_INFLIGHT {
            n = self.cv.wait(n).unwrap_or_else(|e| e.into_inner());
        }
        *n += 1;
        Permit(Arc::clone(self))
    }

    /// Blocks until every parked attach has written its response.
    fn wait_idle(&self) {
        let mut n = self.n.lock().unwrap_or_else(|e| e.into_inner());
        while *n > 0 {
            n = self.cv.wait(n).unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        let mut n = self.0.n.lock().unwrap_or_else(|e| e.into_inner());
        *n -= 1;
        self.0.cv.notify_all();
    }
}

/// Executes one request against the service, mapping the result onto the
/// wire response.
fn execute(
    service: &PmoService,
    tracer: Option<&TraceRecorder>,
    conn: u32,
    req_id: u64,
    client: ClientId,
    req: &Request,
) -> Response {
    if let Some(t) = tracer {
        t.record(EventKind::NetExec { conn, req: req_id });
    }
    let r = match req {
        Request::CreatePool { name, size, mode } => {
            service.create_pool(name, *size, *mode).map(Response::Pool)
        }
        Request::Attach { pmo, perm } => service
            .attach_with_wait(client, *pmo, *perm)
            .map(|waited_ns| Response::Attached { waited_ns }),
        Request::Detach { pmo } => service.detach(client, *pmo).map(|()| Response::Unit),
        Request::Read { oid, len } => service
            .read(client, *oid, *len as usize)
            .map(Response::Data),
        Request::Write { oid, data } => service.write(client, *oid, data).map(|()| Response::Unit),
        Request::Alloc { pmo, size } => service.alloc(client, *pmo, *size).map(Response::Oid),
        Request::Free { oid } => service.free(client, *oid).map(|()| Response::Unit),
        Request::Ping => Ok(Response::Unit),
        Request::Hello { .. } => Err(ServiceError::Protocol("hello after handshake".to_string())),
    };
    r.unwrap_or_else(Response::Err)
}

struct Shared {
    service: Arc<PmoService>,
    tracer: Option<Arc<TraceRecorder>>,
    stopping: AtomicBool,
    conns: Mutex<Vec<Conn>>,
    next_conn: AtomicU32,
}

struct Conn {
    stream: TcpStream,
    thread: JoinHandle<()>,
}

/// The network front-end: owns the in-process [`PmoServer`], the listener,
/// and every connection's thread. [`NetServer::shutdown`] drains in an
/// order that guarantees every request already decoded gets a response
/// (typically [`ServiceError::ShuttingDown`]) before its socket closes.
pub struct NetServer {
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
    server: Option<PmoServer>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts accepting
    /// connections against `server`'s service.
    ///
    /// # Errors
    ///
    /// The bind error, when the address is unavailable.
    pub fn start(server: PmoServer, addr: &str) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let service = server.service();
        let tracer = service.tracer().cloned();
        let shared = Arc::new(Shared {
            service,
            tracer,
            stopping: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            next_conn: AtomicU32::new(1),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("terp-net-accept".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_shared.stopping.load(Ordering::Acquire) {
                        return;
                    }
                    let Ok(stream) = stream else { continue };
                    spawn_conn(&accept_shared, stream);
                }
            })
            .expect("spawn accept thread");
        Ok(NetServer {
            addr: local,
            accept: Some(accept),
            shared,
            server: Some(server),
        })
    }

    /// The bound address — connect clients here (port is kernel-assigned
    /// when `start` was given port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The underlying service, for in-process baseline comparisons against
    /// the same instance the network clients hit.
    pub fn service(&self) -> Arc<PmoService> {
        Arc::clone(&self.shared.service)
    }

    /// Drains and stops everything, returning the service report.
    ///
    /// Ordering matters: shutdown begins *service-side first* (parked
    /// Basic-semantics attaches wake with [`ServiceError::ShuttingDown`]),
    /// then the accept loop stops and connection threads are unblocked via
    /// read-half shutdown. Each connection thread sends what it has
    /// executed and waits for its parked attaches to write their responses
    /// before its socket closes — a client mid-request sees an error
    /// response, never a silently hung socket.
    pub fn shutdown(mut self) -> ServiceReport {
        self.stop_net();
        self.server.take().expect("server present").shutdown()
    }

    fn stop_net(&mut self) {
        if self.shared.stopping.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake parked attaches and fail new ops with ShuttingDown.
        self.shared.service.begin_shutdown();
        // Unblock accept() with a self-connection; the loop observes
        // `stopping` and exits.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let conns =
            std::mem::take(&mut *self.shared.conns.lock().unwrap_or_else(|e| e.into_inner()));
        // Close read halves so connection threads see EOF; each then waits
        // for its parked attaches and closes its socket.
        for c in &conns {
            let _ = c.stream.shutdown(Shutdown::Read);
        }
        for c in conns {
            let _ = c.thread.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if self.server.is_some() {
            self.stop_net();
            if let Some(server) = self.server.take() {
                let _ = server.shutdown();
            }
        }
    }
}

fn spawn_conn(shared: &Arc<Shared>, stream: TcpStream) {
    let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let conn_shared = Arc::clone(shared);
    let thread = std::thread::Builder::new()
        .name(format!("terp-net-conn-{conn_id}"))
        .spawn(move || {
            let out = Arc::new(Mutex::new(write_half));
            let gate = Arc::new(Gate::new());
            conn_loop(&conn_shared, conn_id, read_half, &out, &gate);
            // Every decoded request gets its response before the close.
            gate.wait_idle();
            let _ = out
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .shutdown(Shutdown::Both);
        })
        .expect("spawn connection thread");
    shared
        .conns
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(Conn { stream, thread });
}

/// Whether `scheme` can park an attach on a conflicting holder — those run
/// on a dedicated thread so the park blocks only their own request.
fn attach_can_block(scheme: Scheme) -> bool {
    matches!(scheme, Scheme::Merr | Scheme::BasicSemantics)
}

/// Appends one response frame to the connection's output buffer.
fn push_response(buf: &mut Vec<u8>, req_id: u64, resp: &Response) {
    buf.extend_from_slice(&encode_frame(&resp.encode(req_id)));
}

/// Sends and clears `buf` in one `write_all` under the write mutex.
fn send(out: &Mutex<TcpStream>, buf: &mut Vec<u8>) -> std::io::Result<()> {
    if buf.is_empty() {
        return Ok(());
    }
    let r = out.lock().unwrap_or_else(|e| e.into_inner()).write_all(buf);
    buf.clear();
    r
}

/// Reads, decodes and executes one connection's requests until EOF, a
/// socket error, or a protocol violation (answered, then fatal).
fn conn_loop(
    shared: &Shared,
    conn: u32,
    mut sock: TcpStream,
    out: &Arc<Mutex<TcpStream>>,
    gate: &Arc<Gate>,
) {
    let mut dec = FrameDecoder::new();
    let mut buf = vec![0u8; 16 * 1024];
    let mut resp = Vec::new();
    let mut client: Option<ClientId> = None;
    loop {
        let n = match sock.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        dec.push(&buf[..n]);
        loop {
            let (req_id, req) = match dec.next_frame() {
                Ok(Some(p)) => match Request::decode(&p) {
                    Ok((0, _)) => (
                        0,
                        Err(ServiceError::Protocol("request id 0 is reserved".into())),
                    ),
                    Ok((id, req)) => (id, Ok(req)),
                    Err(e) => (0, Err(e)),
                },
                Ok(None) => break,
                Err(e) => (0, Err(ServiceError::Protocol(e.to_string()))),
            };
            let req = match req {
                Ok(req) => req,
                Err(e) => {
                    push_response(&mut resp, req_id, &Response::Err(e));
                    let _ = send(out, &mut resp);
                    return;
                }
            };
            if let Some(t) = &shared.tracer {
                t.record(EventKind::NetRecv { conn, req: req_id });
            }
            // A refused handshake or a duplicate hello is answered, then the
            // stream closes.
            let (reply, fatal) = match (client, req) {
                // First message must be the handshake.
                (
                    None,
                    Request::Hello {
                        magic,
                        version,
                        client: c,
                    },
                ) if magic == MAGIC && version == VERSION => {
                    client = Some(c as ClientId);
                    let hello = Response::Hello {
                        version: VERSION,
                        scheme: shared.service.scheme().to_string(),
                        shards: shared.service.shard_count() as u16,
                    };
                    (hello, false)
                }
                (None, Request::Hello { magic, version, .. }) => (
                    protocol_err(format!(
                        "handshake mismatch: magic {magic:#010x} version {version} \
                         (want {MAGIC:#010x} version {VERSION})"
                    )),
                    true,
                ),
                (None, _) => (protocol_err("first message must be hello".into()), true),
                (Some(_), Request::Hello { .. }) => (protocol_err("duplicate hello".into()), true),
                (Some(client_id), req @ Request::Attach { .. })
                    if attach_can_block(shared.service.scheme()) =>
                {
                    // Send what is buffered first: the park may wait on the
                    // gate, and the client may need those responses before
                    // it releases the window the attach waits for.
                    if send(out, &mut resp).is_err() {
                        return;
                    }
                    match park_attach(shared, conn, req_id, client_id, req, out, gate) {
                        Some(r) => (r, false),
                        None => continue,
                    }
                }
                (Some(client_id), req) => {
                    let tracer = shared.tracer.as_deref();
                    let r = execute(&shared.service, tracer, conn, req_id, client_id, &req);
                    (r, false)
                }
            };
            push_response(&mut resp, req_id, &reply);
            if fatal {
                let _ = send(out, &mut resp);
                return;
            }
            if resp.len() >= FLUSH_BYTES && send(out, &mut resp).is_err() {
                return;
            }
        }
        if send(out, &mut resp).is_err() {
            return;
        }
    }
}

/// Runs a blocking-capable attach on its own thread, which writes the
/// response itself; returns `None` once that thread owns the request. When
/// the thread cannot be spawned (its permit drops with the closure) the
/// attach runs here instead and its response is returned, so the request
/// is still answered.
fn park_attach(
    shared: &Shared,
    conn: u32,
    req_id: u64,
    client: ClientId,
    req: Request,
    out: &Arc<Mutex<TcpStream>>,
    gate: &Arc<Gate>,
) -> Option<Response> {
    let permit = gate.acquire();
    let svc = Arc::clone(&shared.service);
    let tr = shared.tracer.clone();
    let out = Arc::clone(out);
    let parked = req.clone();
    let spawned = std::thread::Builder::new()
        .name(format!("terp-net-attach-{conn}-{req_id}"))
        .spawn(move || {
            let resp = execute(&svc, tr.as_deref(), conn, req_id, client, &parked);
            let mut buf = Vec::new();
            push_response(&mut buf, req_id, &resp);
            // A failed send leaves the connection thread to notice the dead
            // socket.
            let _ = send(&out, &mut buf);
            drop(permit);
        });
    if spawned.is_ok() {
        return None;
    }
    let tracer = shared.tracer.as_deref();
    Some(execute(&shared.service, tracer, conn, req_id, client, &req))
}

fn protocol_err(msg: String) -> Response {
    Response::Err(ServiceError::Protocol(msg))
}
