//! Server ↔ worker links: the [`Transport`] trait and its two implementations.
//!
//! A transport establishes one bidirectional, ordered, reliable frame [`Link`]
//! per worker. A link is the same code on every transport: it sends through
//! a byte `Sink` and receives from a byte `Source`, and every message goes
//! through the same wire codec ([`crate::wire`]). The transports differ only
//! in how a pair of pipes is made and how bytes move:
//!
//! * [`ChanTransport`] — in-process `std::sync::mpsc` channels, one message
//!   per flushed batch of *encoded* frames (the codec is exercised even
//!   without sockets);
//! * [`TcpTransport`] — `std::net` TCP over loopback, one connection per
//!   worker, identified by a `Hello` handshake frame sent over the new link.
//!
//! A link can be split into independently owned send/receive halves
//! ([`Link::split`]): the real-clock server moves each receive half onto a
//! small reader thread that forwards into its inbox (`LinkRx::spawn_reader`)
//! while it grants over the send halves. A link can be closed
//! ([`LinkTx::close`]), which drops its sink — how the fault injector "drops
//! the connection" to a worker: the peer's next receive fails and the thread
//! dies, exactly like a real network partition.
//!
//! Send halves own a reusable per-link encode buffer: [`LinkTx::queue`]
//! appends encoded frames without moving any bytes and [`LinkTx::flush`]
//! moves the whole batch with one write — one channel message, or one
//! syscall on TCP — the grant hot path of the real-clock server. Every
//! receive goes through one incremental parser (`FrameBuf`): it peels a
//! complete frame if it holds one, and otherwise blocks for more bytes. A
//! channel message always ends on a frame boundary; a TCP read may stop
//! mid-frame, and the parser keeps the partial frame for the next read.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use fela_core::codec::length_prefix;

use crate::sched::{Endpoint, Sched, SyncEvent};
use crate::wire::{decode_body, encode_frame_into, Frame, WireError, MAX_FRAME};

/// One endpoint of a bidirectional frame link.
pub struct Link {
    tx: LinkTx,
    rx: LinkRx,
}

/// An instrumentation tap: a [`Sched`] plus the identity of the endpoint it
/// observes. Cloned onto both halves of an instrumented [`Link`].
#[derive(Clone)]
struct Tap {
    sched: Arc<dyn Sched>,
    side: Endpoint,
    worker: usize,
}

impl Tap {
    fn sent(&self, frame: &Frame) {
        self.sched.reached(&SyncEvent::FrameSent {
            side: self.side,
            worker: self.worker,
            frame: frame.clone(),
        });
    }

    fn received(&self, frame: &Frame) {
        self.sched.reached(&SyncEvent::FrameReceived {
            side: self.side,
            worker: self.worker,
            frame: frame.clone(),
        });
    }

    fn closed(&self) {
        self.sched.reached(&SyncEvent::LinkClosed {
            side: self.side,
            worker: self.worker,
        });
    }
}

/// The sending end of a byte pipe. Dropping it closes the pipe.
trait Sink: Send {
    /// Moves one flushed batch of encoded frames to the peer, leaving
    /// `batch` empty for reuse.
    fn send_batch(&mut self, batch: &mut Vec<u8>) -> io::Result<()>;
}

impl Sink for Sender<Vec<u8>> {
    fn send_batch(&mut self, batch: &mut Vec<u8>) -> io::Result<()> {
        // The channel owns its message, so the batch is moved out; the
        // allocation cost amortizes over every queued frame.
        self.send(std::mem::take(batch))
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer hung up"))
    }
}

/// A TCP connection's sending end: one write per batch. The receive half
/// keeps its own handle on the socket (on a server reader thread, say), so
/// dropping the sink shuts the socket down instead of waiting for the last
/// handle to close.
struct TcpSink(TcpStream);

impl Sink for TcpSink {
    fn send_batch(&mut self, batch: &mut Vec<u8>) -> io::Result<()> {
        let result = self.0.write_all(batch);
        batch.clear();
        result
    }
}

impl Drop for TcpSink {
    fn drop(&mut self) {
        let _ = self.0.shutdown(Shutdown::Both);
    }
}

/// The receiving end of a byte pipe.
pub(crate) trait Source {
    /// Blocks until bytes arrive and appends them to `buf`. Returns how many
    /// arrived; `0` means the peer is gone.
    fn fill(&mut self, buf: &mut FrameBuf) -> io::Result<usize>;
}

/// A byte stream (a TCP connection) reads into the parser's heap buffer.
impl<R: Read> Source for R {
    fn fill(&mut self, buf: &mut FrameBuf) -> io::Result<usize> {
        buf.read_from(self)
    }
}

/// A channel's receiving end: each message is one flushed batch.
struct ChanSource(Receiver<Vec<u8>>);

impl Source for ChanSource {
    fn fill(&mut self, buf: &mut FrameBuf) -> io::Result<usize> {
        Ok(self.0.recv().map_or(0, |bytes| {
            buf.extend(&bytes);
            bytes.len()
        }))
    }
}

/// Bytes one stream read asks for. Reads land in [`FrameBuf`]'s heap buffer,
/// never on the stack: reader threads run on [`READER_STACK`].
const READ_CHUNK: usize = 4 * 1024;

/// The incremental frame parser every receive goes through: bytes
/// accumulate in `buf[start..end]` and complete `[len][tag][fields]` frames
/// are peeled off the front. Consumed bytes are reclaimed before more are
/// added, and bytes are added only once no complete frame is left, so the
/// buffer stays within one frame plus one read and steady traffic reuses
/// one allocation.
#[derive(Default)]
pub(crate) struct FrameBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameBuf {
    /// Moves the unconsumed bytes to the front of the buffer.
    fn reclaim(&mut self) {
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
    }

    /// Appends `bytes` (one channel message).
    pub(crate) fn extend(&mut self, bytes: &[u8]) {
        self.reclaim();
        self.buf.truncate(self.end);
        self.buf.extend_from_slice(bytes);
        self.end = self.buf.len();
    }

    /// Reads at most [`READ_CHUNK`] bytes from `r` into the buffer and
    /// returns how many arrived (`0` at end of stream). The read space is
    /// zero-filled once, then reused.
    fn read_from(&mut self, r: &mut impl Read) -> io::Result<usize> {
        self.reclaim();
        let want = self.end + READ_CHUNK;
        if self.buf.len() < want {
            self.buf.resize(want, 0);
        }
        loop {
            match r.read(&mut self.buf[self.end..want]) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Peels one complete frame off the front, or `None` if more bytes are
    /// needed. Corrupt prefixes and bodies surface as [`WireError`]s.
    pub(crate) fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let avail = &self.buf[self.start..self.end];
        let Some(len) = length_prefix(avail, MAX_FRAME)? else {
            return Ok(None);
        };
        let Some(body) = avail.get(4..4 + len) else {
            return Ok(None);
        };
        let frame = decode_body(body)?;
        self.start += 4 + len;
        Ok(Some(frame))
    }

    /// Receives one frame, blocking: peels a buffered frame if there is one,
    /// and otherwise pulls more bytes from `src`. The length prefix is
    /// checked against [`MAX_FRAME`] before its body is waited for, so a
    /// corrupt prefix cannot grow the buffer. A source that runs dry,
    /// mid-frame or not, surfaces as `Io(UnexpectedEof)`, and any other
    /// stream failure as [`WireError::Io`] of its kind.
    pub(crate) fn recv_from(&mut self, src: &mut dyn Source) -> Result<Frame, WireError> {
        loop {
            if let Some(frame) = self.next_frame()? {
                return Ok(frame);
            }
            if src.fill(self)? == 0 {
                return Err(WireError::Io(io::ErrorKind::UnexpectedEof));
            }
        }
    }
}

/// The sending half of a link.
pub struct LinkTx {
    /// `None` once the link is closed.
    sink: Option<Box<dyn Sink>>,
    tap: Option<Tap>,
    /// Reusable per-link encode buffer: [`LinkTx::queue`] appends frames
    /// here; [`LinkTx::flush`] moves the whole batch in one write.
    pending: Vec<u8>,
}

/// One message of a server inbox: the worker whose link it came from, and
/// the frame received or the error that ended the link.
pub(crate) type Inbound = (usize, io::Result<Frame>);

/// A reader thread's stack. It only blocks on its link and forwards what it
/// reads, with every frame on the heap, so a wide fleet's readers stay small.
const READER_STACK: usize = 64 * 1024;

/// The receiving half of a link.
pub struct LinkRx {
    src: Box<dyn Source + Send>,
    tap: Option<Tap>,
    parse: FrameBuf,
}

fn link_closed() -> io::Error {
    io::Error::new(io::ErrorKind::NotConnected, "link closed")
}

impl LinkTx {
    /// Queues one frame into the link's reusable encode buffer **without
    /// moving any bytes** — the mid-batch path. Yields to the link's
    /// scheduler (if instrumented) at queue time, which is the frame's send
    /// sync point. Pair with [`LinkTx::flush`].
    pub fn queue(&mut self, frame: &Frame) -> io::Result<()> {
        if self.sink.is_none() {
            return Err(link_closed());
        }
        if let Some(tap) = &self.tap {
            tap.sent(frame);
        }
        encode_frame_into(&mut self.pending, frame);
        Ok(())
    }

    /// Flushes every queued frame with one write (one channel message, or
    /// one syscall on TCP). A no-op when nothing is queued.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        match &mut self.sink {
            Some(sink) => sink.send_batch(&mut self.pending),
            None => {
                self.pending.clear();
                Err(link_closed())
            }
        }
    }

    /// Sends one frame immediately ([`LinkTx::queue`] + [`LinkTx::flush`]).
    /// Fails when the peer is gone or the link was closed.
    pub fn send(&mut self, frame: &Frame) -> io::Result<()> {
        self.queue(frame)?;
        self.flush()
    }

    /// Drops the connection by dropping the sink, as dropping the send half
    /// does: the peer's next receive fails (channel disconnect / TCP
    /// reset-EOF), which is the transport-level kill switch for fault
    /// injection. It records no event: the link's close is recorded once,
    /// by the receive half whose receive fails.
    pub fn close(&mut self) {
        self.pending.clear();
        self.sink = None;
    }
}

impl LinkRx {
    /// Receives one frame, blocking. An error means the peer is gone (or the
    /// link was closed under us, or it sent garbage — see
    /// [`crate::wire::WireError`]).
    pub fn recv(&mut self) -> io::Result<Frame> {
        let result = self
            .parse
            .recv_from(self.src.as_mut())
            .map_err(io::Error::from);
        if let Some(tap) = &self.tap {
            match &result {
                Ok(frame) => tap.received(frame),
                Err(_) => tap.closed(),
            }
        }
        result
    }

    /// Moves this receive half onto a small reader thread that forwards
    /// each received frame into `inbox`, tagged with `worker`, then the
    /// receive error that ends the link. The thread exits after forwarding
    /// that error, or once the inbox is gone.
    pub(crate) fn spawn_reader(
        mut self,
        worker: usize,
        inbox: Sender<Inbound>,
    ) -> io::Result<JoinHandle<()>> {
        thread::Builder::new()
            .name(format!("fela-reader-{worker}"))
            .stack_size(READER_STACK)
            .spawn(move || loop {
                let msg = self.recv();
                let closed = msg.is_err();
                if inbox.send((worker, msg)).is_err() || closed {
                    return;
                }
            })
    }
}

impl Link {
    /// A link that sends into `sink` and receives from `src`.
    fn new(sink: impl Sink + 'static, src: impl Source + Send + 'static) -> Self {
        Link {
            tx: LinkTx {
                sink: Some(Box::new(sink)),
                tap: None,
                pending: Vec::new(),
            },
            rx: LinkRx {
                src: Box::new(src),
                tap: None,
                parse: FrameBuf::default(),
            },
        }
    }

    /// Attaches a scheduler tap to both halves: every send, receive, and
    /// close on this link yields a [`SyncEvent`] identifying `side`/`worker`.
    /// Un-instrumented links (the default) skip the seam entirely.
    pub fn instrument(&mut self, sched: Arc<dyn Sched>, side: Endpoint, worker: usize) {
        let tap = Tap {
            sched,
            side,
            worker,
        };
        self.tx.tap = Some(tap.clone());
        self.rx.tap = Some(tap);
    }

    /// Sends one frame.
    pub fn send(&mut self, frame: &Frame) -> io::Result<()> {
        self.tx.send(frame)
    }

    /// Receives one frame, blocking.
    pub fn recv(&mut self) -> io::Result<Frame> {
        self.rx.recv()
    }

    /// Splits into independently owned halves (reader thread + writer loop).
    pub fn split(self) -> (LinkTx, LinkRx) {
        (self.tx, self.rx)
    }
}

/// A way to establish server ↔ worker frame links.
pub trait Transport {
    /// Human-readable transport name (`"chan"` / `"tcp"`).
    fn name(&self) -> &'static str;

    /// Establishes `n` links; returns `(server_ends, worker_ends)` with the
    /// link for worker `w` at index `w` of both vectors.
    fn establish(&mut self, n: usize) -> io::Result<(Vec<Link>, Vec<Link>)>;

    /// Establishes one additional link for a rejoining worker (crash-restart
    /// in real-clock mode). Returns `(server_end, worker_end)`.
    fn extra_link(&mut self, worker: usize) -> io::Result<(Link, Link)>;
}

/// In-process channel transport.
#[derive(Default)]
pub struct ChanTransport;

fn chan_pair() -> (Link, Link) {
    let (a_tx, b_rx) = channel();
    let (b_tx, a_rx) = channel();
    (
        Link::new(a_tx, ChanSource(a_rx)),
        Link::new(b_tx, ChanSource(b_rx)),
    )
}

impl Transport for ChanTransport {
    fn name(&self) -> &'static str {
        "chan"
    }

    fn establish(&mut self, n: usize) -> io::Result<(Vec<Link>, Vec<Link>)> {
        Ok((0..n).map(|_| chan_pair()).unzip())
    }

    fn extra_link(&mut self, _worker: usize) -> io::Result<(Link, Link)> {
        Ok(chan_pair())
    }
}

/// TCP-loopback transport. Binds an ephemeral `127.0.0.1` listener on first
/// use and keeps it open for restart links.
#[derive(Default)]
pub struct TcpTransport {
    listener: Option<TcpListener>,
}

fn tcp_link(stream: TcpStream) -> io::Result<Link> {
    stream.set_nodelay(true)?;
    Ok(Link::new(TcpSink(stream.try_clone()?), stream))
}

impl TcpTransport {
    fn listener(&mut self) -> io::Result<&TcpListener> {
        if self.listener.is_none() {
            self.listener = Some(TcpListener::bind(("127.0.0.1", 0))?);
        }
        match self.listener.as_ref() {
            Some(listener) => Ok(listener),
            None => unreachable!("just bound"),
        }
    }

    /// Connects one worker and performs the `Hello` handshake over the new
    /// links; returns `(server_end, worker_end)`.
    fn connect_one(&mut self, worker: usize) -> io::Result<(Link, Link)> {
        let listener = self.listener()?;
        let mut worker_end = tcp_link(TcpStream::connect(listener.local_addr()?)?)?;
        worker_end.send(&Frame::Hello {
            worker: worker as u32,
        })?;
        let mut server_end = tcp_link(listener.accept()?.0)?;
        match server_end.recv()? {
            Frame::Hello { worker: got } if got as usize == worker => {}
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected Hello for worker {worker}, got {other:?}"),
                ))
            }
        }
        Ok((server_end, worker_end))
    }
}

impl Transport for TcpTransport {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn establish(&mut self, n: usize) -> io::Result<(Vec<Link>, Vec<Link>)> {
        (0..n).map(|w| self.connect_one(w)).collect()
    }

    fn extra_link(&mut self, worker: usize) -> io::Result<(Link, Link)> {
        self.connect_one(worker)
    }
}

/// Looks a transport up by its CLI name.
pub fn transport_by_name(name: &str) -> Option<Box<dyn Transport>> {
    match name {
        "chan" => Some(Box::<ChanTransport>::default()),
        "tcp" => Some(Box::<TcpTransport>::default()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireGrant;

    fn grant(token: u64) -> Frame {
        Frame::GrantBatch {
            grants: vec![WireGrant {
                token,
                level: 1,
                iteration: 0,
                batch: 8,
                unit_start: 0,
                unit_end: 4,
            }],
        }
    }

    fn report(worker: u32, token: u64) -> Frame {
        Frame::ReportBatch {
            worker,
            tokens: vec![token],
        }
    }

    fn roundtrip(transport: &mut dyn Transport) {
        let (mut servers, mut workers) = transport.establish(3).expect("establish");
        for w in 0..3 {
            servers[w].send(&grant(w as u64)).expect("send grant");
            assert_eq!(workers[w].recv().expect("recv grant"), grant(w as u64));
            workers[w]
                .send(&report(w as u32, w as u64))
                .expect("send report");
            assert_eq!(
                servers[w].recv().expect("recv report"),
                report(w as u32, w as u64)
            );
        }
    }

    #[test]
    fn chan_links_round_trip() {
        roundtrip(&mut ChanTransport);
    }

    #[test]
    fn tcp_links_round_trip() {
        roundtrip(&mut TcpTransport::default());
    }

    #[test]
    fn closing_the_server_end_kills_the_worker_recv() {
        // Closing or dropping the send half ends the link even while the
        // receive half lives on, as it does on a server reader thread.
        for name in ["chan", "tcp"] {
            for close in [true, false] {
                let mut t = transport_by_name(name).expect("known transport");
                let (servers, mut workers) = t.establish(1).expect("establish");
                let (mut tx, rx) = servers.into_iter().next().expect("one link").split();
                if close {
                    tx.close();
                } else {
                    drop(tx);
                }
                assert!(
                    workers[0].recv().is_err(),
                    "{name}, close={close}: recv on a dropped connection must fail"
                );
                drop(rx);
            }
        }
    }

    #[test]
    fn extra_link_reconnects_a_worker() {
        for name in ["chan", "tcp"] {
            let mut t = transport_by_name(name).expect("known transport");
            let _initial = t.establish(2).expect("establish");
            let (mut s, mut w) = t.extra_link(1).expect("extra link");
            s.send(&Frame::End).expect("send");
            assert_eq!(w.recv().expect("recv"), Frame::End, "{name}");
        }
    }

    #[test]
    fn unknown_transport_name_is_rejected() {
        assert!(transport_by_name("udp").is_none());
    }

    #[test]
    fn frame_buf_peels_frames_fed_one_byte_at_a_time() {
        let frames = vec![Frame::Request { worker: 2 }, report(2, 9), Frame::End];
        let mut bytes = Vec::new();
        for f in &frames {
            crate::wire::encode_frame_into(&mut bytes, f);
        }
        let mut buf = FrameBuf::default();
        let mut got = Vec::new();
        for b in bytes {
            buf.extend(&[b]);
            while let Some(frame) = buf.next_frame().expect("valid stream") {
                got.push(frame);
            }
        }
        assert_eq!(got, frames);
        assert!(buf.next_frame().expect("empty").is_none());
    }

    #[test]
    fn frame_buf_stays_within_one_frame_plus_one_read() {
        // A long stream whose reads and channel messages both split frames:
        // the parser reclaims what it consumed before it takes more bytes.
        let frames: Vec<Frame> = (0..2000u64)
            .map(|i| Frame::Iter {
                iteration: i,
                schedule: vec![(1, 2); (i % 97) as usize],
            })
            .collect();
        let mut bytes = Vec::new();
        for f in &frames {
            crate::wire::encode_frame_into(&mut bytes, f);
        }
        let largest = frames
            .iter()
            .map(|f| 4 + crate::wire::body_len(f))
            .max()
            .unwrap_or(0);
        let chunk = 777;
        let (tx, rx) = channel();
        for piece in bytes.chunks(chunk) {
            tx.send(piece.to_vec()).expect("queue chunk");
        }
        drop(tx);
        let sources: [(Box<dyn Source>, usize); 2] = [
            (Box::new(&bytes[..]), READ_CHUNK),
            (Box::new(ChanSource(rx)), chunk),
        ];
        for (mut src, read) in sources {
            let mut parse = FrameBuf::default();
            for f in &frames {
                assert_eq!(&parse.recv_from(src.as_mut()).expect("frame"), f);
                assert!(
                    parse.buf.len() <= largest + read,
                    "buffer {} exceeds one frame ({largest}) plus one read ({read})",
                    parse.buf.len()
                );
            }
            assert_eq!(
                parse.recv_from(src.as_mut()),
                Err(WireError::Io(io::ErrorKind::UnexpectedEof))
            );
        }
    }

    #[test]
    fn a_thousand_frames_in_one_tcp_flush_arrive_in_order() {
        let (servers, workers) = TcpTransport::default().establish(1).expect("establish");
        let (mut tx, _srx) = servers.into_iter().next().expect("one link").split();
        let (_wtx, mut rx) = workers.into_iter().next().expect("one link").split();
        let mut sent: Vec<Frame> = (0..1000u32)
            .map(|i| Frame::Iter {
                iteration: u64::from(i),
                schedule: vec![(0, i), (1, i / 2)],
            })
            .collect();
        sent.push(Frame::End);
        thread::scope(|s| {
            let reader = s.spawn(|| sent.iter().map(|_| rx.recv()).collect::<Vec<_>>());
            for f in &sent {
                tx.queue(f).expect("queue");
            }
            tx.flush().expect("one flush");
            let got: Vec<Frame> = reader
                .join()
                .expect("reader thread")
                .into_iter()
                .map(|r| r.expect("recv"))
                .collect();
            assert_eq!(got, sent);
        });
    }

    #[test]
    fn queued_frames_flush_as_one_batch_and_recv_takes_them_in_order() {
        for name in ["chan", "tcp"] {
            let mut t = transport_by_name(name).expect("known transport");
            let (servers, workers) = t.establish(1).expect("establish");
            let (mut tx, _srx) = servers.into_iter().next().expect("one link").split();
            let (_wtx, mut rx) = workers.into_iter().next().expect("one link").split();
            let sent: Vec<Frame> = (0..5).map(grant).collect();
            for f in &sent {
                tx.queue(f).expect("queue");
            }
            assert!(
                !tx.pending.is_empty(),
                "{name}: queued frames wait for the flush"
            );
            tx.flush().expect("flush");
            assert!(
                tx.pending.is_empty(),
                "{name}: one flush moves the whole batch"
            );
            let got: Vec<Frame> = sent.iter().map(|_| rx.recv().expect("recv")).collect();
            assert_eq!(got, sent, "{name}");
        }
    }

    #[test]
    fn flush_with_nothing_queued_is_a_no_op() {
        let (server, _worker) = chan_pair();
        let (mut tx, _rx) = server.split();
        tx.flush().expect("empty flush");
        tx.flush().expect("still empty");
    }

    #[test]
    fn instrumented_links_record_sends_receives_and_closes() {
        use crate::sched::{Endpoint, RecordingSched, SyncEvent};

        let rec = RecordingSched::new();
        let (mut server, mut worker) = chan_pair();
        server.instrument(rec.clone(), Endpoint::Server, 3);
        server.send(&Frame::End).expect("send");
        assert_eq!(worker.recv().expect("recv"), Frame::End);
        worker.send(&report(3, 7)).expect("send report");
        assert_eq!(server.recv().expect("recv report"), report(3, 7));
        drop(worker);
        assert!(server.recv().is_err(), "peer gone");
        let events = rec.take();
        assert_eq!(
            events,
            vec![
                SyncEvent::FrameSent {
                    side: Endpoint::Server,
                    worker: 3,
                    frame: Frame::End,
                },
                SyncEvent::FrameReceived {
                    side: Endpoint::Server,
                    worker: 3,
                    frame: report(3, 7),
                },
                SyncEvent::LinkClosed {
                    side: Endpoint::Server,
                    worker: 3,
                },
            ],
            "only the instrumented (server) side records, in program order"
        );
    }
}
