//! Frame transports: TCP, in-process virtual sockets, and the
//! deterministic fault-injection proxy.
//!
//! Everything above this module speaks whole frames; everything below
//! is bytes. Three implementations share the [`Transport`] trait:
//!
//! * [`TcpTransport`] — a `TcpStream` with per-connection read/write
//!   deadlines. A slow-loris peer (bytes trickling in slower than the
//!   deadline) surfaces as [`TransportError::TimedOut`], never a hang,
//!   and an oversize advertised length is refused *before* any payload
//!   allocation ([`ProtoError::Oversize`]).
//! * [`VirtualSocket`] — an in-process duplex byte pipe
//!   ([`virtual_pair`]). This is how CI runs the daemon: same frame
//!   codec, same deadline semantics, zero network, byte-reproducible.
//! * [`FaultyTransport`] — the protocol-layer analogue of the
//!   simulator's `FaultPlan`: a seeded [`SimRng`] decides per outbound
//!   frame whether to deliver, drop, truncate-and-close, bit-flip or
//!   delay it, and logs every action to a transcript the CI smoke pins
//!   against a golden file.
//!
//! [`Listener`] abstracts `accept` the same way ([`VirtualListener`] /
//! [`TcpListener`](std::net::TcpListener) via [`TcpAcceptor`]), so the
//! daemon serve loop is transport-independent.

use std::collections::VecDeque;
use std::fmt;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use gcs_sim::rng::SimRng;

use crate::proto::{decode_header, ProtoError, FRAME_HEADER_LEN};

/// Transport-level failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The byte stream violated the frame protocol.
    Proto(ProtoError),
    /// The peer closed the connection at a frame boundary.
    Closed,
    /// A read or write deadline expired (slow-loris defense).
    TimedOut,
    /// Any other I/O failure.
    Io(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Proto(e) => write!(f, "protocol error: {e}"),
            TransportError::Closed => write!(f, "connection closed by peer"),
            TransportError::TimedOut => write!(f, "deadline expired"),
            TransportError::Io(why) => write!(f, "transport i/o failed: {why}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<ProtoError> for TransportError {
    fn from(e: ProtoError) -> Self {
        TransportError::Proto(e)
    }
}

/// A bidirectional frame pipe.
pub trait Transport {
    /// Writes raw bytes (normally a whole frame; the fault proxy uses
    /// it for truncated prefixes too).
    ///
    /// # Errors
    ///
    /// [`TransportError`] on close, deadline expiry or I/O failure.
    fn send_bytes(&mut self, bytes: &[u8]) -> Result<(), TransportError>;

    /// Reads exactly one frame (header + payload) and returns its
    /// bytes. The header is validated (magic, version, length budget)
    /// *before* the payload is read, so a hostile length never causes
    /// an unbounded allocation; checksum verification is the decoder's
    /// job.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] at a clean frame boundary,
    /// [`TransportError::TimedOut`] when the deadline expires mid-read,
    /// [`TransportError::Proto`] for header violations or a peer dying
    /// mid-frame.
    fn recv_frame(&mut self) -> Result<Vec<u8>, TransportError>;

    /// Closes the connection (further calls fail with `Closed`).
    fn close(&mut self);

    /// Sends one whole frame. Default: [`Transport::send_bytes`].
    ///
    /// # Errors
    ///
    /// As [`Transport::send_bytes`].
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.send_bytes(frame)
    }
}

/// An `accept` source of connections, so the daemon serve loop is
/// transport-independent.
pub trait Listener {
    /// The connection type produced.
    type Conn: Transport;

    /// Blocks until the next connection (or the listener is closed).
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] when no more connections can arrive.
    fn accept(&mut self) -> Result<Self::Conn, TransportError>;
}

// ----------------------------------------------------------------------
// TCP
// ----------------------------------------------------------------------

/// A `TcpStream` speaking frames under per-connection deadlines.
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    closed: bool,
}

impl TcpTransport {
    /// Wraps `stream` with the given read/write deadlines (`None`
    /// blocks forever — only sensible for trusted clients).
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] if the deadlines cannot be set.
    pub fn new(
        stream: TcpStream,
        read_deadline: Option<Duration>,
        write_deadline: Option<Duration>,
    ) -> Result<TcpTransport, TransportError> {
        stream
            .set_read_timeout(read_deadline)
            .and_then(|()| stream.set_write_timeout(write_deadline))
            .map_err(|e| TransportError::Io(e.to_string()))?;
        Ok(TcpTransport {
            stream,
            closed: false,
        })
    }

    fn read_exact_counted(&mut self, buf: &mut [u8]) -> Result<(), (usize, TransportError)> {
        let mut got = 0usize;
        while got < buf.len() {
            match self.stream.read(&mut buf[got..]) {
                Ok(0) => {
                    let e = if got == 0 {
                        TransportError::Closed
                    } else {
                        TransportError::Proto(ProtoError::Truncated {
                            at: got,
                            want: buf.len() - got,
                        })
                    };
                    return Err((got, e));
                }
                Ok(n) => got += n,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Err((got, TransportError::TimedOut));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err((got, TransportError::Io(e.to_string()))),
            }
        }
        Ok(())
    }
}

impl Transport for TcpTransport {
    fn send_bytes(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        if self.closed {
            return Err(TransportError::Closed);
        }
        self.stream.write_all(bytes).map_err(|e| match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                TransportError::TimedOut
            }
            std::io::ErrorKind::BrokenPipe | std::io::ErrorKind::ConnectionReset => {
                TransportError::Closed
            }
            _ => TransportError::Io(e.to_string()),
        })
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, TransportError> {
        if self.closed {
            return Err(TransportError::Closed);
        }
        let mut header = [0u8; FRAME_HEADER_LEN];
        self.read_exact_counted(&mut header).map_err(|(_, e)| e)?;
        let (len, _checksum) = decode_header(&header)?;
        let mut frame = vec![0u8; FRAME_HEADER_LEN + len];
        frame[..FRAME_HEADER_LEN].copy_from_slice(&header);
        self.read_exact_counted(&mut frame[FRAME_HEADER_LEN..])
            .map_err(|(got, e)| match e {
                // Mid-payload EOF: report the offset within the frame.
                TransportError::Proto(ProtoError::Truncated { .. }) | TransportError::Closed => {
                    TransportError::Proto(ProtoError::Truncated {
                        at: FRAME_HEADER_LEN + got,
                        want: len - got,
                    })
                }
                other => other,
            })?;
        Ok(frame)
    }

    fn close(&mut self) {
        self.closed = true;
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// `accept` adapter for a [`std::net::TcpListener`], stamping each
/// connection with the daemon's per-connection deadlines.
#[derive(Debug)]
pub struct TcpAcceptor {
    listener: std::net::TcpListener,
    read_deadline: Option<Duration>,
    write_deadline: Option<Duration>,
}

impl TcpAcceptor {
    /// Wraps `listener`; every accepted connection gets the deadlines.
    pub fn new(
        listener: std::net::TcpListener,
        read_deadline: Option<Duration>,
        write_deadline: Option<Duration>,
    ) -> TcpAcceptor {
        TcpAcceptor {
            listener,
            read_deadline,
            write_deadline,
        }
    }
}

impl Listener for TcpAcceptor {
    type Conn = TcpTransport;

    fn accept(&mut self) -> Result<TcpTransport, TransportError> {
        let (stream, _addr) = self
            .listener
            .accept()
            .map_err(|e| TransportError::Io(e.to_string()))?;
        TcpTransport::new(stream, self.read_deadline, self.write_deadline)
    }
}

// ----------------------------------------------------------------------
// Virtual sockets
// ----------------------------------------------------------------------

#[derive(Debug, Default)]
struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
}

#[derive(Debug, Default)]
struct Pipe {
    state: Mutex<PipeState>,
    cv: Condvar,
}

impl Pipe {
    fn push(&self, bytes: &[u8]) -> Result<(), TransportError> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.closed {
            return Err(TransportError::Closed);
        }
        st.buf.extend(bytes.iter().copied());
        self.cv.notify_all();
        Ok(())
    }

    /// Blocks until `n` bytes are available, the pipe closes, or the
    /// deadline expires. Bytes are only consumed on success.
    fn pop_exact(&self, n: usize, deadline: Option<Duration>) -> Result<Vec<u8>, TransportError> {
        let start = Instant::now();
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if st.buf.len() >= n {
                return Ok(st.buf.drain(..n).collect());
            }
            if st.closed {
                return Err(if st.buf.is_empty() {
                    TransportError::Closed
                } else {
                    TransportError::Proto(ProtoError::Truncated {
                        at: st.buf.len(),
                        want: n - st.buf.len(),
                    })
                });
            }
            match deadline {
                None => {
                    st = self
                        .cv
                        .wait(st)
                        .unwrap_or_else(|e| e.into_inner());
                }
                Some(limit) => {
                    let elapsed = start.elapsed();
                    if elapsed >= limit {
                        return Err(TransportError::TimedOut);
                    }
                    let (guard, _timeout) = self
                        .cv
                        .wait_timeout(st, limit - elapsed)
                        .unwrap_or_else(|e| e.into_inner());
                    st = guard;
                }
            }
        }
    }

    fn close(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.closed = true;
        self.cv.notify_all();
    }
}

/// One end of an in-process duplex byte pipe ([`virtual_pair`]).
///
/// Same framing and deadline semantics as [`TcpTransport`], no
/// network: this is the byte-reproducible mode CI runs the daemon in.
#[derive(Debug)]
pub struct VirtualSocket {
    rx: Arc<Pipe>,
    tx: Arc<Pipe>,
    /// Optional receive deadline (slow-loris defense in virtual form).
    pub recv_deadline: Option<Duration>,
}

/// A connected pair of virtual sockets: what one end sends, the other
/// receives.
pub fn virtual_pair() -> (VirtualSocket, VirtualSocket) {
    let a = Arc::new(Pipe::default());
    let b = Arc::new(Pipe::default());
    (
        VirtualSocket {
            rx: Arc::clone(&a),
            tx: Arc::clone(&b),
            recv_deadline: None,
        },
        VirtualSocket {
            rx: b,
            tx: a,
            recv_deadline: None,
        },
    )
}

impl Transport for VirtualSocket {
    fn send_bytes(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        self.tx.push(bytes)
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, TransportError> {
        let header = self.rx.pop_exact(FRAME_HEADER_LEN, self.recv_deadline)?;
        let (len, _checksum) = decode_header(&header)?;
        let payload = self
            .rx
            .pop_exact(len, self.recv_deadline)
            .map_err(|e| match e {
                TransportError::Closed => TransportError::Proto(ProtoError::Truncated {
                    at: FRAME_HEADER_LEN,
                    want: len,
                }),
                other => other,
            })?;
        let mut frame = header;
        frame.extend_from_slice(&payload);
        Ok(frame)
    }

    fn close(&mut self) {
        self.tx.close();
        self.rx.close();
    }
}

impl Drop for VirtualSocket {
    fn drop(&mut self) {
        // EOF for the peer, like a socket going away.
        self.tx.close();
    }
}

/// The connecting side of a virtual link: each [`VirtualConnector::connect`]
/// yields a fresh client socket whose peer lands at the listener.
#[derive(Clone)]
pub struct VirtualConnector {
    tx: mpsc::Sender<VirtualSocket>,
}

impl VirtualConnector {
    /// Opens a new in-process connection to the linked listener.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] if the listener is gone.
    pub fn connect(&self) -> Result<VirtualSocket, TransportError> {
        let (client, server) = virtual_pair();
        self.tx
            .send(server)
            .map_err(|_| TransportError::Closed)?;
        Ok(client)
    }
}

/// The accepting side of a virtual link.
pub struct VirtualListener {
    rx: mpsc::Receiver<VirtualSocket>,
    conn_deadline: Option<Duration>,
}

/// A connected (connector, listener) pair — the in-process analogue of
/// `TcpListener::bind` + `TcpStream::connect`. `conn_deadline` becomes
/// the receive deadline of every accepted connection.
pub fn virtual_link(conn_deadline: Option<Duration>) -> (VirtualConnector, VirtualListener) {
    let (tx, rx) = mpsc::channel();
    (
        VirtualConnector { tx },
        VirtualListener { rx, conn_deadline },
    )
}

impl Listener for VirtualListener {
    type Conn = VirtualSocket;

    fn accept(&mut self) -> Result<VirtualSocket, TransportError> {
        let mut conn = self.rx.recv().map_err(|_| TransportError::Closed)?;
        conn.recv_deadline = self.conn_deadline;
        Ok(conn)
    }
}

// ----------------------------------------------------------------------
// Fault injection
// ----------------------------------------------------------------------

/// Per-frame fault probabilities, in percent; the remainder delivers
/// clean. The protocol-layer analogue of the simulator's `FaultPlan`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Percent of frames silently dropped.
    pub drop_pct: u8,
    /// Percent of frames cut short, after which the connection closes
    /// (a peer dying mid-send).
    pub truncate_pct: u8,
    /// Percent of frames with one bit flipped in flight.
    pub flip_pct: u8,
    /// Percent of frames delayed a few milliseconds before delivery.
    pub delay_pct: u8,
}

impl FaultSpec {
    /// A lively mix for smoke tests: 10% drop, 10% truncate, 20% flip,
    /// 10% delay.
    pub const SMOKE: FaultSpec = FaultSpec {
        drop_pct: 10,
        truncate_pct: 10,
        flip_pct: 20,
        delay_pct: 10,
    };
}

/// Deterministic fault-injection proxy around any [`Transport`].
///
/// A seeded [`SimRng`] draws one action per *outbound* frame (inbound
/// frames pass through untouched), so a given `(seed, spec, frame
/// sizes)` sequence always produces the same damage — and the same
/// [`FaultyTransport::transcript`], which is what the CI smoke pins.
pub struct FaultyTransport<T: Transport> {
    inner: T,
    rng: SimRng,
    spec: FaultSpec,
    frame_idx: u64,
    transcript: Vec<String>,
    severed: bool,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner` with a fault plan seeded by `seed`.
    pub fn new(inner: T, seed: u64, spec: FaultSpec) -> FaultyTransport<T> {
        FaultyTransport {
            inner,
            rng: SimRng::seed_from_u64(seed ^ 0x6661_756c_7479_7478), // "faultytx"
            spec,
            frame_idx: 0,
            transcript: Vec::new(),
            severed: false,
        }
    }

    /// Everything the proxy did, one line per outbound frame.
    pub fn transcript(&self) -> &[String] {
        &self.transcript
    }

    /// Consumes the proxy, returning the transcript.
    pub fn into_transcript(self) -> Vec<String> {
        self.transcript
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn send_bytes(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        if self.severed {
            return Err(TransportError::Closed);
        }
        self.inner.send_bytes(bytes)
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, TransportError> {
        if self.severed {
            return Err(TransportError::Closed);
        }
        self.inner.recv_frame()
    }

    fn close(&mut self) {
        self.severed = true;
        self.inner.close();
    }

    fn send_frame(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        if self.severed {
            return Err(TransportError::Closed);
        }
        let i = self.frame_idx;
        self.frame_idx += 1;
        let roll = self.rng.gen_range(100) as u8;
        let s = &self.spec;
        if roll < s.drop_pct {
            self.transcript.push(format!("frame {i}: drop {} bytes", frame.len()));
            return Ok(());
        }
        if roll < s.drop_pct + s.truncate_pct {
            let keep = 1 + self.rng.gen_range(frame.len().max(2) as u64 - 1) as usize;
            let keep = keep.min(frame.len().saturating_sub(1)).max(1);
            self.transcript
                .push(format!("frame {i}: truncate to {keep}/{} bytes, sever", frame.len()));
            let _ = self.inner.send_bytes(&frame[..keep]);
            self.inner.close();
            self.severed = true;
            return Ok(());
        }
        if roll < s.drop_pct + s.truncate_pct + s.flip_pct {
            let pos = self.rng.gen_range(frame.len() as u64) as usize;
            let bit = self.rng.gen_range(8) as u8;
            let mut copy = frame.to_vec();
            copy[pos] ^= 1 << bit;
            self.transcript
                .push(format!("frame {i}: flip byte {pos} bit {bit}"));
            return self.inner.send_bytes(&copy);
        }
        if roll < s.drop_pct + s.truncate_pct + s.flip_pct + s.delay_pct {
            let ms = 1 + self.rng.gen_range(5);
            self.transcript.push(format!("frame {i}: delay {ms}ms"));
            std::thread::sleep(Duration::from_millis(ms));
            return self.inner.send_bytes(frame);
        }
        self.transcript.push(format!("frame {i}: deliver"));
        self.inner.send_bytes(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{encode_frame, Request};
    use gcs_workloads::Benchmark;

    #[test]
    fn virtual_pair_round_trips_frames() {
        let (mut a, mut b) = virtual_pair();
        let req = Request::Submit {
            id: 1,
            bench: Benchmark::Gups,
            at: 9,
        };
        a.send_frame(&req.encode()).unwrap();
        let frame = b.recv_frame().unwrap();
        assert_eq!(Request::decode(&frame).unwrap(), req);
        // And the other direction.
        b.send_frame(&encode_frame(b"{\"op\":\"status\"}").unwrap()).unwrap();
        assert_eq!(Request::decode(&a.recv_frame().unwrap()).unwrap(), Request::Status);
    }

    #[test]
    fn virtual_close_is_eof_and_mid_frame_close_is_truncated() {
        let (mut a, mut b) = virtual_pair();
        a.close();
        assert_eq!(b.recv_frame().unwrap_err(), TransportError::Closed);

        let (mut a, mut b) = virtual_pair();
        let frame = Request::Status.encode();
        a.send_bytes(&frame[..7]).unwrap();
        a.close();
        assert!(matches!(
            b.recv_frame().unwrap_err(),
            TransportError::Proto(ProtoError::Truncated { .. })
        ));
    }

    #[test]
    fn virtual_recv_deadline_defeats_slow_loris() {
        let (mut a, mut b) = virtual_pair();
        b.recv_deadline = Some(Duration::from_millis(30));
        // A lone header byte, then silence: the read must give up.
        a.send_bytes(b"G").unwrap();
        let start = Instant::now();
        assert_eq!(b.recv_frame().unwrap_err(), TransportError::TimedOut);
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn oversize_header_is_refused_before_payload() {
        let (mut a, mut b) = virtual_pair();
        let mut header = Vec::new();
        header.extend_from_slice(b"GCSD");
        header.extend_from_slice(&1u32.to_le_bytes());
        header.extend_from_slice(&u32::MAX.to_le_bytes()); // 4 GiB payload
        header.extend_from_slice(&0u64.to_le_bytes());
        a.send_bytes(&header).unwrap();
        assert!(matches!(
            b.recv_frame().unwrap_err(),
            TransportError::Proto(ProtoError::Oversize { .. })
        ));
    }

    #[test]
    fn virtual_link_accepts_multiple_connections() {
        let (connector, mut listener) = virtual_link(None);
        let mut c1 = connector.connect().unwrap();
        let mut s1 = listener.accept().unwrap();
        c1.send_frame(&Request::Status.encode()).unwrap();
        assert!(s1.recv_frame().is_ok());
        drop(connector);
        // c1's peer is already accepted; a new accept has no source.
        assert_eq!(listener.accept().unwrap_err(), TransportError::Closed);
    }

    #[test]
    fn tcp_round_trip_and_deadline() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t =
                TcpTransport::new(stream, Some(Duration::from_millis(100)), None).unwrap();
            let first = t.recv_frame().unwrap();
            t.send_frame(&first).unwrap(); // echo
            // Second read: client sends nothing more → deadline.
            assert_eq!(t.recv_frame().unwrap_err(), TransportError::TimedOut);
        });
        let stream = TcpStream::connect(addr).unwrap();
        let mut c = TcpTransport::new(stream, Some(Duration::from_secs(5)), None).unwrap();
        let req = Request::Drain.encode();
        c.send_frame(&req).unwrap();
        assert_eq!(c.recv_frame().unwrap(), req);
        server.join().unwrap();
    }

    #[test]
    fn faulty_transport_is_deterministic_and_damaging() {
        let run = |seed: u64| {
            let (a, mut b) = virtual_pair();
            let mut faulty = FaultyTransport::new(a, seed, FaultSpec::SMOKE);
            let mut outcomes = Vec::new();
            for i in 0..40u64 {
                let frame = Request::Submit {
                    id: i,
                    bench: Benchmark::Gups,
                    at: i,
                }
                .encode();
                if faulty.send_frame(&frame).is_err() {
                    break;
                }
            }
            b.recv_deadline = Some(Duration::from_millis(10));
            loop {
                match b.recv_frame() {
                    Ok(frame) => outcomes.push(match Request::decode(&frame) {
                        Ok(_) => "ok".to_string(),
                        Err(e) => e.kind().to_string(),
                    }),
                    Err(e) => {
                        outcomes.push(format!("recv:{e:?}"));
                        break;
                    }
                }
            }
            (faulty.into_transcript(), outcomes)
        };
        let (t1, o1) = run(7);
        let (t2, o2) = run(7);
        assert_eq!(t1, t2, "same seed, same transcript");
        assert_eq!(o1, o2, "same seed, same receiver outcomes");
        let (t3, _) = run(8);
        assert_ne!(t1, t3, "different seeds must differ");
        // The smoke spec actually injects *something* in 40 frames.
        assert!(
            t1.iter().any(|l| !l.ends_with("deliver")),
            "no faults injected: {t1:?}"
        );
    }
}
