//! Server ↔ worker links: the [`Transport`] trait and its two implementations.
//!
//! A transport establishes one bidirectional, ordered, reliable frame [`Link`]
//! per worker. Both implementations push every message through the same wire
//! codec ([`crate::wire`]):
//!
//! * [`ChanTransport`] — in-process `std::sync::mpsc` channels carrying the
//!   *encoded* frame bytes (the codec is exercised even without sockets);
//! * [`TcpTransport`] — `std::net` TCP over loopback, one connection per
//!   worker, identified by a `Hello` handshake frame at accept time.
//!
//! A link can be split into independently owned send/receive halves
//! ([`Link::split`]): the real-clock server moves each receive half onto a
//! small reader thread that forwards into its inbox (`LinkRx::spawn_reader`)
//! while it grants over the send halves. A link can be closed
//! ([`LinkTx::close`]) — which is how the fault injector "drops the
//! connection" to a worker: the peer's next receive fails and the thread dies,
//! exactly like a real network partition.
//!
//! Every read blocks. A channel message carries a flushed batch of encoded
//! frames, which the receive half's incremental parser ([`FrameBuf`]) peels
//! apart; a TCP receive reads one frame. Send halves own a reusable per-link
//! encode buffer: [`LinkTx::queue`] appends encoded frames without a syscall
//! and [`LinkTx::flush`] moves the whole batch with one write — the grant
//! hot path of the real-clock server.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use fela_core::codec::length_prefix;

use crate::sched::{Endpoint, Sched, SyncEvent};
use crate::wire::{decode_body, encode_frame, read_frame, Frame, WireError, MAX_FRAME};

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

enum TxKind {
    /// In-process channel of encoded frame batches.
    Chan(Option<Sender<Vec<u8>>>),
    /// TCP stream (a `try_clone` of the connection).
    Tcp(Option<TcpStream>),
}

enum RxKind {
    /// In-process channel of encoded frame batches.
    Chan(Receiver<Vec<u8>>),
    /// TCP stream.
    Tcp(TcpStream),
}

/// Incremental frame parser of a channel link: each message (one flushed
/// batch) accumulates here and complete `[len][tag][fields]` frames are
/// peeled off the front. Consumed space is reclaimed lazily (one `drain`
/// once the buffer is fully parsed), so steady traffic reuses the same
/// allocation.
#[derive(Default)]
pub(crate) struct FrameBuf {
    buf: Vec<u8>,
    start: usize,
}

impl FrameBuf {
    pub(crate) fn extend(&mut self, bytes: &[u8]) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Peels one complete frame off the front, or `None` if more bytes are
    /// needed. Corrupt prefixes and bodies surface as [`WireError`]s.
    pub(crate) fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let avail = &self.buf[self.start..];
        let Some(len) = length_prefix(avail, MAX_FRAME)? else {
            return Ok(None);
        };
        let Some(body) = avail.get(4..4 + len) else {
            return Ok(None);
        };
        let frame = decode_body(body)?;
        self.start += 4 + len;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        Ok(Some(frame))
    }
}

/// The sending half of a link.
pub struct LinkTx {
    kind: TxKind,
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
    kind: RxKind,
    tap: Option<Tap>,
    parse: FrameBuf,
}

impl LinkTx {
    /// Queues one frame into the link's reusable encode buffer **without
    /// moving any bytes** — the mid-batch path. Yields to the link's
    /// scheduler (if instrumented) at queue time, which is the frame's send
    /// sync point. Pair with [`LinkTx::flush`].
    pub fn queue(&mut self, frame: &Frame) -> io::Result<()> {
        let connected = match &self.kind {
            TxKind::Chan(tx) => tx.is_some(),
            TxKind::Tcp(stream) => stream.is_some(),
        };
        if !connected {
            return Err(io::Error::new(io::ErrorKind::NotConnected, "link closed"));
        }
        if let Some(tap) = &self.tap {
            tap.sent(frame);
        }
        crate::wire::encode_frame_into(&mut self.pending, frame);
        Ok(())
    }

    /// Flushes every queued frame with one write (and, on TCP, one syscall).
    /// A no-op when nothing is queued.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        match &mut self.kind {
            TxKind::Chan(tx) => {
                // The channel owns its message, so the batch is moved out;
                // the allocation cost amortizes over every queued frame.
                let batch = std::mem::take(&mut self.pending);
                match tx {
                    Some(tx) => tx
                        .send(batch)
                        .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer hung up")),
                    None => Err(io::Error::new(io::ErrorKind::NotConnected, "link closed")),
                }
            }
            TxKind::Tcp(stream) => {
                let result = match stream {
                    Some(s) => s.write_all(&self.pending).and_then(|()| s.flush()),
                    None => Err(io::Error::new(io::ErrorKind::NotConnected, "link closed")),
                };
                self.pending.clear();
                result
            }
        }
    }

    /// Sends one frame immediately ([`LinkTx::queue`] + [`LinkTx::flush`]).
    /// Fails when the peer is gone or the link was closed.
    pub fn send(&mut self, frame: &Frame) -> io::Result<()> {
        self.queue(frame)?;
        self.flush()
    }

    /// Drops the connection. The peer's next receive fails (channel
    /// disconnect / TCP reset-EOF), which is the transport-level kill switch
    /// for fault injection. It records no event: the link's close is
    /// recorded once, by the receive half whose receive fails.
    pub fn close(&mut self) {
        self.pending.clear();
        match &mut self.kind {
            TxKind::Chan(tx) => {
                tx.take();
            }
            TxKind::Tcp(stream) => {
                if let Some(s) = stream.take() {
                    let _ = s.shutdown(Shutdown::Both);
                }
            }
        }
    }
}

impl Drop for LinkTx {
    /// A dropped send half closes its link, on TCP too, where the receive
    /// half may live on (on a reader thread) with its own handle on the
    /// socket.
    fn drop(&mut self) {
        self.close();
    }
}

impl LinkRx {
    fn tap_result(&self, result: &io::Result<Frame>) {
        if let Some(tap) = &self.tap {
            match result {
                Ok(frame) => tap.received(frame),
                Err(_) => tap.closed(),
            }
        }
    }

    /// Receives one frame, blocking. An error means the peer is gone (or the
    /// link was closed under us, or it sent garbage — see
    /// [`crate::wire::WireError`]).
    pub fn recv(&mut self) -> io::Result<Frame> {
        let result = self.recv_inner();
        self.tap_result(&result);
        result
    }

    fn recv_inner(&mut self) -> io::Result<Frame> {
        match &mut self.kind {
            RxKind::Chan(rx) => loop {
                if let Some(frame) = self.parse.next_frame().map_err(io::Error::from)? {
                    return Ok(frame);
                }
                let bytes = rx
                    .recv()
                    .map_err(|_| io::Error::new(io::ErrorKind::UnexpectedEof, "peer hung up"))?;
                self.parse.extend(&bytes);
            },
            RxKind::Tcp(stream) => read_frame(stream).map_err(io::Error::from),
        }
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
    fn new(tx: LinkTx, rx: LinkRx) -> Self {
        Link { tx, rx }
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

fn bare_tx(kind: TxKind) -> LinkTx {
    LinkTx {
        kind,
        tap: None,
        pending: Vec::new(),
    }
}

fn bare_rx(kind: RxKind) -> LinkRx {
    LinkRx {
        kind,
        tap: None,
        parse: FrameBuf::default(),
    }
}

fn chan_pair() -> (Link, Link) {
    let (a_tx, b_rx) = channel();
    let (b_tx, a_rx) = channel();
    (
        Link::new(
            bare_tx(TxKind::Chan(Some(a_tx))),
            bare_rx(RxKind::Chan(a_rx)),
        ),
        Link::new(
            bare_tx(TxKind::Chan(Some(b_tx))),
            bare_rx(RxKind::Chan(b_rx)),
        ),
    )
}

impl Transport for ChanTransport {
    fn name(&self) -> &'static str {
        "chan"
    }

    fn establish(&mut self, n: usize) -> io::Result<(Vec<Link>, Vec<Link>)> {
        let mut servers = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(n);
        for _ in 0..n {
            let (s, w) = chan_pair();
            servers.push(s);
            workers.push(w);
        }
        Ok((servers, workers))
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

    /// Connects one worker end and performs the `Hello` handshake; returns
    /// the accepted (server) stream and the connecting (worker) stream.
    fn connect_one(&mut self, worker: usize) -> io::Result<(TcpStream, TcpStream)> {
        let listener = self.listener()?;
        let addr = listener.local_addr()?;
        let worker_stream = TcpStream::connect(addr)?;
        worker_stream.set_nodelay(true)?;
        {
            let mut w = &worker_stream;
            w.write_all(&encode_frame(&Frame::Hello {
                worker: worker as u32,
            }))?;
            w.flush()?;
        }
        let (server_stream, _) = listener.accept()?;
        server_stream.set_nodelay(true)?;
        let hello = {
            let mut r = &server_stream;
            read_one(&mut r)?
        };
        match hello {
            Frame::Hello { worker: got } if got as usize == worker => {}
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected Hello for worker {worker}, got {other:?}"),
                ))
            }
        }
        Ok((server_stream, worker_stream))
    }
}

fn read_one(r: &mut impl Read) -> io::Result<Frame> {
    read_frame(r).map_err(io::Error::from)
}

fn tcp_link(stream: TcpStream) -> io::Result<Link> {
    let write_half = stream.try_clone()?;
    Ok(Link::new(
        bare_tx(TxKind::Tcp(Some(write_half))),
        bare_rx(RxKind::Tcp(stream)),
    ))
}

impl Transport for TcpTransport {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn establish(&mut self, n: usize) -> io::Result<(Vec<Link>, Vec<Link>)> {
        let mut servers = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(n);
        for w in 0..n {
            let (server_stream, worker_stream) = self.connect_one(w)?;
            servers.push(tcp_link(server_stream)?);
            workers.push(tcp_link(worker_stream)?);
        }
        Ok((servers, workers))
    }

    fn extra_link(&mut self, worker: usize) -> io::Result<(Link, Link)> {
        let (server_stream, worker_stream) = self.connect_one(worker)?;
        Ok((tcp_link(server_stream)?, tcp_link(worker_stream)?))
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
