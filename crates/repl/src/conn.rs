//! Blocking framed connection shared by leader and follower.
//!
//! One CRC frame ([`terp_net::frame`]) carries one [`ReplMsg`]. Reads run
//! under a socket timeout so stream threads can notice a shutdown flag
//! without a poison message: [`Conn::recv`] returns `Ok(None)` on timeout
//! and the caller re-checks its flag.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use terp_net::repl::ReplMsg;
use terp_net::{encode_frame, FrameDecoder, ServiceError};

/// Socket read timeout: the longest a stream thread stays blind to its
/// shutdown flag.
pub(crate) const READ_TIMEOUT: Duration = Duration::from_millis(50);

pub(crate) fn disconnected(e: impl std::fmt::Display) -> ServiceError {
    ServiceError::Disconnected(e.to_string())
}

pub(crate) struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream) -> Result<Self, ServiceError> {
        stream.set_nodelay(true).map_err(disconnected)?;
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(disconnected)?;
        Ok(Conn {
            stream,
            decoder: FrameDecoder::new(),
        })
    }

    /// A second handle on the same socket (reader/writer split).
    pub(crate) fn split(&self) -> Result<Conn, ServiceError> {
        Conn::new(self.stream.try_clone().map_err(disconnected)?)
    }

    /// Shuts the socket down in both directions: every handle on it (see
    /// [`Conn::split`]) sees the connection end.
    pub(crate) fn close(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    pub(crate) fn send(&mut self, msg: &ReplMsg) -> Result<(), ServiceError> {
        self.stream
            .write_all(&encode_frame(&msg.encode()))
            .map_err(disconnected)
    }

    /// Receives one message; `Ok(None)` means the read timed out with no
    /// complete frame (re-check shutdown and call again).
    pub(crate) fn recv(&mut self) -> Result<Option<ReplMsg>, ServiceError> {
        loop {
            match self.decoder.next_frame() {
                Ok(Some(payload)) => return ReplMsg::decode(&payload).map(Some),
                Ok(None) => {}
                Err(e) => return Err(ServiceError::Protocol(e.to_string())),
            }
            let mut buf = [0u8; 64 * 1024];
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(disconnected("peer closed the stream")),
                Ok(n) => self.decoder.push(&buf[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(disconnected(e)),
            }
        }
    }

    /// Blocks (re-polling across timeouts) until a message arrives, the
    /// deadline passes, or the connection dies.
    pub(crate) fn recv_deadline(
        &mut self,
        deadline: std::time::Instant,
    ) -> Result<ReplMsg, ServiceError> {
        loop {
            if let Some(msg) = self.recv()? {
                return Ok(msg);
            }
            if std::time::Instant::now() >= deadline {
                return Err(disconnected("timed out waiting for replication peer"));
            }
        }
    }
}

impl std::fmt::Debug for Conn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Conn")
            .field("peer", &self.stream.peer_addr().ok())
            .finish()
    }
}
