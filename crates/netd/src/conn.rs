//! One framed connection: blocking and polled frame exchange over a
//! `TcpStream`, with per-frame telemetry.
//!
//! Both endpoints speak through [`Conn`]: the daemon wraps accepted
//! sockets, loadgen wraps dialed ones. The receive path assembles
//! frames *incrementally* — a poll tick that catches a frame mid-flight
//! parks the partial bytes and resumes on the next tick, so a slow or
//! trickling sender can never desynchronize the stream (the soak
//! suite's slow-reader scenario). The receive and send buffers are
//! bounded by [`crate::proto::MAX_FRAME_LEN`] and reused across frames,
//! so a connection's steady-state memory is one frame each way
//! regardless of how much traffic it carries.

use crate::deadline::Deadline;
use crate::error::NetError;
use crate::proto::{decode_frame, encode_frame, put_prefixed, Frame, MAX_FRAME_LEN};
use ldp_obs::MetricsRegistry;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Telemetry names (`docs/OBS_FORMAT.md` conventions).
const FRAMES_RX: &str = "ldp.netd.frames_rx";
const FRAMES_TX: &str = "ldp.netd.frames_tx";
const BYTES: &str = "ldp.netd.bytes";

/// Outcome of one non-blocking receive poll.
#[derive(Debug)]
pub enum Polled {
    /// A whole frame arrived: its header fingerprint and the frame.
    Frame(u64, Frame),
    /// Nothing (or only part of a frame) arrived within the poll tick.
    Idle,
    /// The peer closed the stream at a frame boundary.
    Closed,
}

/// Incremental frame-assembly state, preserved across poll ticks.
#[derive(Debug, Default)]
struct Assembler {
    len_bytes: [u8; 4],
    len_filled: usize,
    /// `Some` once the length prefix is complete and cap-checked.
    body_len: Option<usize>,
    body: Vec<u8>,
    body_filled: usize,
}

impl Assembler {
    fn reset(&mut self) {
        self.len_filled = 0;
        self.body_len = None;
        self.body_filled = 0;
    }

    /// Whether any bytes of a frame have been consumed (end-of-stream
    /// here is truncation, not a clean close).
    fn mid_frame(&self) -> bool {
        self.len_filled > 0 || self.body_len.is_some()
    }
}

/// A framed, instrumented TCP connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    asm: Assembler,
    /// The outgoing frame, length prefix included, reused across sends
    /// so each frame leaves in one write.
    tx: Vec<u8>,
    /// The socket's read timeout as last set (`None` until the first
    /// receive), so a receive only calls `setsockopt` when it changes.
    read_timeout: Option<Option<Duration>>,
    fingerprint: u64,
    obs: MetricsRegistry,
}

impl Conn {
    /// Dials `addr` within `deadline` and wraps the stream. An expired
    /// deadline fails immediately (the injected-timeout test path).
    pub fn connect(
        addr: SocketAddr,
        fingerprint: u64,
        obs: &MetricsRegistry,
        deadline: Deadline,
    ) -> Result<Self, NetError> {
        let timeout = match deadline.remaining() {
            Some(d) if d.is_zero() => return Err(NetError::IdleTimeout),
            Some(d) => d,
            None => Duration::from_secs(30),
        };
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        Ok(Self::wrap(stream, fingerprint, obs))
    }

    /// Wraps an already established stream (the daemon's accept path).
    pub fn wrap(stream: TcpStream, fingerprint: u64, obs: &MetricsRegistry) -> Self {
        // Frames are request/response sized; latency beats batching.
        let _ = stream.set_nodelay(true);
        Self {
            stream,
            asm: Assembler::default(),
            tx: Vec::new(),
            read_timeout: None,
            fingerprint,
            obs: obs.clone(),
        }
    }

    /// The configuration fingerprint stamped into every sent frame.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The peer's address, if the socket still knows it.
    pub fn peer_addr(&self) -> Option<SocketAddr> {
        self.stream.peer_addr().ok()
    }

    /// Encodes and sends one frame, length prefix and body in a single
    /// write.
    pub fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        let body = encode_frame(frame, self.fingerprint);
        self.tx.clear();
        put_prefixed(&mut self.tx, &body)?;
        self.stream.write_all(&self.tx)?;
        self.obs.counter_labeled(FRAMES_TX, frame.kind_name()).inc();
        self.obs
            .counter_labeled(BYTES, "tx")
            .inc_by(self.tx.len() as u64);
        Ok(())
    }

    /// Sets the socket's read timeout unless it already has this one.
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), NetError> {
        if self.read_timeout != Some(timeout) {
            self.stream.set_read_timeout(timeout)?;
            self.read_timeout = Some(timeout);
        }
        Ok(())
    }

    /// Blocks until a whole frame arrives (or the peer closes: `None`).
    pub fn recv(&mut self) -> Result<Option<(u64, Frame)>, NetError> {
        self.set_read_timeout(None)?;
        match self.advance()? {
            Polled::Frame(fp, frame) => Ok(Some((fp, frame))),
            Polled::Closed => Ok(None),
            // Unreachable without a read timeout, but harmless to map.
            Polled::Idle => Err(NetError::IdleTimeout),
        }
    }

    /// Polls for one frame, waiting at most `tick`. Partial progress is
    /// kept in the assembler, so "no whole frame this tick"
    /// ([`Polled::Idle`]) is always safe to retry — the stream never
    /// desynchronizes.
    pub fn poll(&mut self, tick: Duration) -> Result<Polled, NetError> {
        self.set_read_timeout(Some(tick.max(Duration::from_millis(1))))?;
        self.advance()
    }

    /// Pumps reads into the assembler until a frame completes, the
    /// stream ends, or a read would exceed the configured timeout.
    fn advance(&mut self) -> Result<Polled, NetError> {
        loop {
            let Some(len) = self.asm.body_len else {
                // Still assembling the 4-byte length prefix.
                match self
                    .stream
                    .read(&mut self.asm.len_bytes[self.asm.len_filled..])
                {
                    Ok(0) => {
                        if self.asm.mid_frame() {
                            return Err(NetError::Codec(
                                ldp_primitives::codec::CodecError::Truncated,
                            ));
                        }
                        return Ok(Polled::Closed);
                    }
                    Ok(n) => self.asm.len_filled += n,
                    Err(e) if would_block(&e) => return Ok(Polled::Idle),
                    Err(e) => return Err(e.into()),
                }
                if self.asm.len_filled == 4 {
                    let claimed = u32::from_le_bytes(self.asm.len_bytes);
                    // Cap check *before* the body buffer grows: a forged
                    // length cannot force an allocation.
                    if claimed > MAX_FRAME_LEN {
                        return Err(NetError::FrameTooLarge {
                            len: claimed,
                            cap: MAX_FRAME_LEN,
                        });
                    }
                    self.asm.body_len = Some(claimed as usize);
                    self.asm.body.clear();
                    self.asm.body.resize(claimed as usize, 0);
                    self.asm.body_filled = 0;
                }
                continue;
            };
            if self.asm.body_filled < len {
                match self
                    .stream
                    .read(&mut self.asm.body[self.asm.body_filled..len])
                {
                    Ok(0) => {
                        return Err(NetError::Codec(
                            ldp_primitives::codec::CodecError::Truncated,
                        ))
                    }
                    Ok(n) => self.asm.body_filled += n,
                    Err(e) if would_block(&e) => return Ok(Polled::Idle),
                    Err(e) => return Err(e.into()),
                }
                continue;
            }
            let decoded = decode_frame(&self.asm.body[..len]);
            self.asm.reset();
            let (fp, frame) = decoded?;
            self.obs.counter_labeled(FRAMES_RX, frame.kind_name()).inc();
            self.obs.counter_labeled(BYTES, "rx").inc_by(len as u64 + 4);
            return Ok(Polled::Frame(fp, frame));
        }
    }
}

/// The platform's two spellings of "the socket timeout elapsed".
fn would_block(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}
