//! The migrant-side connection: dial, handshake, frame I/O, reconnect.
//!
//! [`MigrantClient`] owns one socket to the deputy and the framing state
//! on it. It is deliberately mechanical — *when* to retry, degrade or
//! reconnect is decided by the shared
//! [`RetrySchedule`](ampom_core::RetrySchedule) driven from
//! [`LiveTransport`](crate::live::LiveTransport); the client only
//! provides the verbs (send a frame, receive with a deadline, redial).
//!
//! Client→deputy frames are small (a maximal 64-page request is under
//! 600 bytes), so sends never block on a full socket buffer while the
//! deputy is itself blocked writing replies — the client can always
//! finish a send and return to draining the reply stream, which is what
//! makes a single-threaded migrant deadlock-free.

use std::io::{Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ampom_mem::page::{PageId, PAGE_SIZE};

use crate::frame::{
    encode_writeback_batch_into, Frame, FrameBuffer, MAX_BATCH_PAGES, WIRE_VERSION,
};
use crate::RpcError;

/// Where the deputy listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address, `host:port`.
    Tcp(String),
    /// A Unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl Endpoint {
    /// A TCP endpoint.
    pub fn tcp(addr: impl Into<String>) -> Self {
        Endpoint::Tcp(addr.into())
    }

    /// A Unix-domain endpoint.
    #[cfg(unix)]
    pub fn unix(path: impl Into<PathBuf>) -> Self {
        Endpoint::Unix(path.into())
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp://{addr}"),
            #[cfg(unix)]
            Endpoint::Unix(path) => write!(f, "unix://{}", path.display()),
        }
    }
}

enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(d),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(d),
        }
    }

    fn set_nonblocking(&self, on: bool) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(on),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_nonblocking(on),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// How long the version handshake may take before the connection is
/// declared dead. Generous: this also covers TCP connection setup.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// One migrant session with the deputy.
pub struct MigrantClient {
    endpoint: Endpoint,
    stream: Stream,
    fb: FrameBuffer,
    read_buf: Vec<u8>,
    /// Outbound encode buffer, reused by every send.
    write_buf: Vec<u8>,
    total_pages: u64,
    scheme_byte: u8,
    next_req_id: u64,
    next_call_id: u64,
    next_token: u64,
    bytes_sent: u64,
    bytes_received: u64,
}

impl std::fmt::Debug for MigrantClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MigrantClient")
            .field("endpoint", &self.endpoint)
            .field("total_pages", &self.total_pages)
            .field("bytes_sent", &self.bytes_sent)
            .field("bytes_received", &self.bytes_received)
            .finish()
    }
}

impl MigrantClient {
    /// Dials the deputy and completes the version handshake for a
    /// migrant whose address space spans `total_pages` pages.
    pub fn connect(
        endpoint: Endpoint,
        total_pages: u64,
        scheme_byte: u8,
    ) -> Result<MigrantClient, RpcError> {
        let stream = dial(&endpoint)?;
        let mut client = MigrantClient {
            endpoint,
            stream,
            fb: FrameBuffer::new(),
            read_buf: vec![0u8; 64 * 1024],
            write_buf: Vec::new(),
            total_pages,
            scheme_byte,
            next_req_id: 1,
            next_call_id: 1,
            next_token: 1,
            bytes_sent: 0,
            bytes_received: 0,
        };
        client.handshake()?;
        Ok(client)
    }

    /// Drops the current socket, redials and re-handshakes. Buffered
    /// partial frames from the dead connection are discarded (framing
    /// restarts clean on the new byte stream).
    pub fn reconnect(&mut self) -> Result<(), RpcError> {
        self.stream = dial(&self.endpoint)?;
        self.fb = FrameBuffer::new();
        self.handshake()
    }

    fn handshake(&mut self) -> Result<(), RpcError> {
        self.send(&Frame::Hello {
            version: WIRE_VERSION,
            total_pages: self.total_pages,
            scheme: self.scheme_byte,
        })?;
        match self.recv(HANDSHAKE_TIMEOUT)? {
            Some(Frame::HelloAck { version, page_size }) => {
                if version != WIRE_VERSION {
                    return Err(RpcError::Handshake(format!(
                        "deputy speaks version {version}, we speak {WIRE_VERSION}"
                    )));
                }
                if u64::from(page_size) != PAGE_SIZE {
                    return Err(RpcError::Handshake(format!(
                        "deputy serves {page_size}-byte pages, we use {PAGE_SIZE}"
                    )));
                }
                Ok(())
            }
            Some(Frame::Error { code, detail }) => Err(RpcError::Handshake(format!(
                "deputy error {code}: {detail}"
            ))),
            Some(other) => Err(RpcError::Handshake(format!(
                "expected hello-ack, got frame type {:#04x}",
                other.type_byte()
            ))),
            None => Err(RpcError::Handshake("hello-ack timed out".into())),
        }
    }

    /// Encodes and writes one frame (flushed — requests must not sit in
    /// a userspace buffer while we wait for their replies).
    pub fn send(&mut self, frame: &Frame) -> Result<(), RpcError> {
        self.write_buf.clear();
        frame.encode_into(&mut self.write_buf);
        self.write_out()
    }

    /// Writes and flushes the encoded bytes in `write_buf`.
    fn write_out(&mut self) -> Result<(), RpcError> {
        self.stream.write_all(&self.write_buf)?;
        self.stream.flush()?;
        self.bytes_sent += self.write_buf.len() as u64;
        Ok(())
    }

    /// Receives the next frame, waiting at most `timeout`. `Ok(None)`
    /// means the deadline passed with no complete frame;
    /// [`RpcError::Disconnected`] means the deputy closed the stream.
    pub fn recv(&mut self, timeout: Duration) -> Result<Option<Frame>, RpcError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(frame) = self.fb.pop()? {
                return Ok(Some(frame));
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(None);
            }
            // set_read_timeout(0) would mean "block forever"; the
            // deadline check above guarantees remaining > 0 here.
            self.stream.set_read_timeout(Some(remaining))?;
            match self.stream.read(&mut self.read_buf) {
                Ok(0) => return Err(RpcError::Disconnected),
                Ok(n) => {
                    self.bytes_received += n as u64;
                    self.fb.extend(&self.read_buf[..n]);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None);
                }
                Err(e) => return Err(RpcError::Io(e)),
            }
        }
    }

    /// Switches the socket's blocking mode. The `deputybench` driver
    /// multiplexes thousands of clients through one poll loop, so it
    /// flips them all non-blocking and consumes replies via
    /// [`MigrantClient::try_recv`]; the blocking verbs above assume the
    /// default blocking mode.
    pub fn set_nonblocking(&mut self, on: bool) -> Result<(), RpcError> {
        self.stream.set_nonblocking(on)?;
        Ok(())
    }

    /// The raw socket descriptor, for registering with a
    /// [`Poller`](crate::poll::Poller).
    #[cfg(unix)]
    pub fn as_raw_fd(&self) -> std::os::unix::io::RawFd {
        match &self.stream {
            Stream::Tcp(s) => {
                use std::os::unix::io::AsRawFd;
                s.as_raw_fd()
            }
            Stream::Unix(s) => {
                use std::os::unix::io::AsRawFd;
                s.as_raw_fd()
            }
        }
    }

    /// Non-blocking receive: returns an already-buffered frame or reads
    /// whatever the socket has. `Ok(None)` means no complete frame is
    /// available yet. The socket must be in non-blocking mode
    /// ([`MigrantClient::set_nonblocking`]) — on a blocking socket this
    /// degenerates to a blocking read.
    pub fn try_recv(&mut self) -> Result<Option<Frame>, RpcError> {
        loop {
            if let Some(frame) = self.fb.pop()? {
                return Ok(Some(frame));
            }
            match self.stream.read(&mut self.read_buf) {
                Ok(0) => return Err(RpcError::Disconnected),
                Ok(n) => {
                    self.bytes_received += n as u64;
                    self.fb.extend(&self.read_buf[..n]);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(RpcError::Io(e)),
            }
        }
    }

    /// Drains every frame already available without blocking.
    pub fn drain(&mut self) -> Result<Vec<Frame>, RpcError> {
        let mut frames = Vec::new();
        while let Some(frame) = self.fb.pop()? {
            frames.push(frame);
        }
        self.stream.set_nonblocking(true)?;
        let outcome = loop {
            match self.stream.read(&mut self.read_buf) {
                Ok(0) => break Err(RpcError::Disconnected),
                Ok(n) => {
                    self.bytes_received += n as u64;
                    self.fb.extend(&self.read_buf[..n]);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break Ok(()),
                Err(e) => break Err(RpcError::Io(e)),
            }
        };
        // Restore blocking mode before surfacing any error.
        self.stream.set_nonblocking(false)?;
        outcome?;
        while let Some(frame) = self.fb.pop()? {
            frames.push(frame);
        }
        Ok(frames)
    }

    /// Sends a paging request — demand page first, prefetch zone after —
    /// and returns the request id its replies will echo. An empty
    /// `demand` makes it a [`Frame::PrefetchBatch`].
    pub fn send_request(
        &mut self,
        demand: Option<PageId>,
        prefetch: &[PageId],
    ) -> Result<u64, RpcError> {
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        let frame = match demand {
            Some(d) => {
                let mut pages = Vec::with_capacity(prefetch.len() + 1);
                pages.push(d);
                pages.extend_from_slice(prefetch);
                Frame::PageRequest { req_id, pages }
            }
            None => Frame::PrefetchBatch {
                req_id,
                pages: prefetch.to_vec(),
            },
        };
        self.send(&frame)?;
        Ok(req_id)
    }

    /// Sends one writeback delta batch — `(page, version)` pairs with
    /// deterministic page payloads — and returns the batch sequence
    /// number its [`Frame::WritebackAck`] will echo. More than
    /// [`MAX_BATCH_PAGES`] entries is [`RpcError::BatchTooLarge`], and
    /// nothing is sent: the deputy would reject the frame and close the
    /// session.
    pub fn send_writeback(&mut self, seq: u64, entries: &[(PageId, u64)]) -> Result<u64, RpcError> {
        if entries.len() > MAX_BATCH_PAGES {
            return Err(RpcError::BatchTooLarge(entries.len()));
        }
        self.write_buf.clear();
        encode_writeback_batch_into(seq, entries, &mut self.write_buf);
        self.write_out()?;
        Ok(seq)
    }

    /// Begins home-return migration: sends a [`Frame::ReturnRequest`]
    /// and waits for the deputy's accounting. Frames that arrive in
    /// between (stale page replies, writeback acks) are returned
    /// alongside so the caller can process them.
    pub fn send_return(&mut self, timeout: Duration) -> Result<((u64, u64), Vec<Frame>), RpcError> {
        self.send(&Frame::ReturnRequest)?;
        let mut stray = Vec::new();
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.recv(remaining)? {
                Some(Frame::ReturnAck {
                    stub_pages,
                    freed_pages,
                }) => return Ok(((stub_pages, freed_pages), stray)),
                Some(other) => stray.push(other),
                None => {
                    return Err(RpcError::Protocol(format!(
                        "return-ack unanswered after {timeout:?}"
                    )))
                }
            }
        }
    }

    /// Forwards a system call and returns its call id.
    pub fn send_syscall(&mut self, work_ns: u64) -> Result<u64, RpcError> {
        let call_id = self.next_call_id;
        self.next_call_id += 1;
        self.send(&Frame::SyscallForward { call_id, work_ns })?;
        Ok(call_id)
    }

    /// One RTT probe: sends a ping and measures the wall time to its
    /// pong. Frames that arrive in between (stale page replies) are
    /// returned so the caller can process them instead of losing them.
    pub fn ping(&mut self, timeout: Duration) -> Result<(Duration, Vec<Frame>), RpcError> {
        let token = self.next_token;
        self.next_token += 1;
        let sent = Instant::now();
        self.send(&Frame::Ping { token })?;
        let mut stray = Vec::new();
        let deadline = sent + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.recv(remaining)? {
                Some(Frame::Pong { token: t }) if t == token => {
                    return Ok((sent.elapsed(), stray));
                }
                Some(other) => stray.push(other),
                None => {
                    return Err(RpcError::Protocol(format!(
                        "ping {token} unanswered after {timeout:?}"
                    )))
                }
            }
        }
    }

    /// Total wire bytes written to the deputy.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Total wire bytes read from the deputy.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    /// The endpoint this client dials.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }
}

impl ampom_obs::MetricSource for MigrantClient {
    fn export_metrics(&self, reg: &mut ampom_obs::MetricsRegistry) {
        reg.export_counter(
            "ampom_migrant_bytes_sent_total",
            "Wire bytes written to the deputy",
            self.bytes_sent,
        );
        reg.export_counter(
            "ampom_migrant_bytes_received_total",
            "Wire bytes read from the deputy",
            self.bytes_received,
        );
    }
}

fn dial(endpoint: &Endpoint) -> Result<Stream, RpcError> {
    match endpoint {
        Endpoint::Tcp(addr) => {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(Stream::Tcp(s))
        }
        #[cfg(unix)]
        Endpoint::Unix(path) => Ok(Stream::Unix(UnixStream::connect(path)?)),
    }
}
