//! The socket lifecycle of a live server, written once.
//!
//! [`Server<S>`] owns everything `BalancerServer` and `ReplicaServer`
//! share: the listener and its accept loop, outbound links
//! ([`Server::dial`]), the per-connection pump (one thread per
//! connection: a reader loop that hands each frame to the service), the
//! table of who awaits which request's responses, the set of open
//! streams — one per connection thread still running — the one-shot
//! [`ask`], and [`Server::shutdown`]. A server supplies its state `S`
//! and the two methods of [`Service`]; the skeleton never asks which
//! server it is serving.
//!
//! A connection's [`Outbox`] is its write half: whoever sends a frame —
//! a pump answering on its own connection or relaying to another, the
//! prober, the stepper — encodes and writes it, on its own thread. No
//! socket here waits on Nagle: every one is born with `TCP_NODELAY`
//! ([`open`] for those this crate connects, the acceptor for the rest),
//! and a frame leaves in one `write`. Every socket a server serves has a
//! [`WRITE_TIMEOUT`]: a peer that stops reading costs one blocked sender
//! for at most that long, then loses its connection, and later writes to
//! it fail at once. That sender may be shared: the pump of a replica or
//! peer link relays the answers of every client behind that link, so a
//! client that stops reading with a request in flight holds them all for
//! up to [`WRITE_TIMEOUT`], once per connection it opens. That is the
//! price of having no writer thread: one would avoid the stall, at the
//! cost of a queue that grows without bound for such a peer.
//!
//! Two rules keep the senders apart:
//!
//! - **No socket write under a shared lock.** The table lock, the
//!   balancer's and the replica's mutex are held to look a connection up
//!   and mark a request in flight, or to compute an answer — then
//!   dropped, and only then is the frame written. A blocked peer stalls
//!   its sender, never a lock every thread needs. (`shutdown()` shuts
//!   streams down under the table lock; a shutdown never blocks.)
//! - **Frames never interleave.** Senders on one connection take turns
//!   on that connection's writer lock, and a frame is one `write`.
//!
//! Three ordering rules live here and nowhere else:
//!
//! 1. **The scrape peek happens only on accepted sockets.** An outbound
//!    replica/peer link never opens with a scrape, and peeking there
//!    would block on a peer that speaks only when spoken to. On an
//!    accepted socket it is safe: a framed peer's first byte is a length
//!    prefix ≤ 0x01, never `G`.
//! 2. **A link's outbox is registered before its target is routable.**
//!    [`Server::dial`] puts the outbox in the link table, *then* runs
//!    the caller's `routable` step (`add_replica` / `add_peer`), *then*
//!    starts the pump — so a dispatch can never pick a target whose
//!    outbox is missing, and a link that dies at once is torn down
//!    after it was set up, not before.
//! 3. **A link ends at one exit.** However the reader loop ends (EOF,
//!    error, a `Shutdown` frame, a failed write, the server closing the
//!    stream), the pump shuts the socket down, hands the service a final
//!    `Shutdown` on that link (unless the server itself is closing: it
//!    has no routing state left to keep), then takes the link out of the
//!    table and answers every request in flight over it with `Reject`.
//!    Looking a link up and marking a request in flight on it
//!    ([`Server::send_via`]) happen under the same lock as that teardown,
//!    so a request is either sent and swept, or refused — never lost.
//!
//! (A fourth rule is the replica's own and stays in `replica_server.rs`:
//! its stepper steps, checks for a stuck head and goes to wait for an
//! arrival under one lock hold.)
//!
//! Connection threads block in `read` on their socket, so the server
//! keeps a handle on every stream it accepted or opened for as long as a
//! thread serves it: `shutdown()` closes them, which ends the reads, and
//! returns once the last connection thread is gone (or, after
//! [`DRAIN_TIMEOUT`], says how many are not).

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::Duration;

use skywalker_core::LbId;
use skywalker_net::{read_frame, write_frame, Message};
use skywalker_replica::ReplicaId;

use crate::scrape::{is_ascii_scrape, serve_ascii_scrape};
use crate::sync::Mutex;

/// How long [`Server::shutdown`] waits for connection threads to end.
pub(crate) const DRAIN_TIMEOUT: Duration = Duration::from_secs(2);

/// The longest one `write` to a served socket may block.
pub(crate) const WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// One connection's write half.
pub(crate) struct Writer(Mutex<TcpStream>);

/// Everything sent to one connection goes through its outbox.
pub(crate) type Outbox = Arc<Writer>;

impl Writer {
    /// Encodes `msg` and writes the frame in one `write`, on the calling
    /// thread. A connection that cannot take it shuts down, so its reader
    /// ends (rule 3).
    pub(crate) fn send(&self, msg: &Message) {
        let mut frame = Vec::new();
        let encoded = write_frame(&mut frame, msg).is_ok();
        let stream = self.0.lock();
        // A blocking send comes back short only once `WRITE_TIMEOUT` ran
        // out mid-frame. Writing the rest would restart the clock, and a
        // peer whose kernel frees a few hundred bytes a second would hold
        // the sender for good.
        if !encoded || !matches!((&*stream).write(&frame), Ok(n) if n == frame.len()) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// Which connection a frame arrived on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Link {
    /// A connection this server accepted (client, prober, peer balancer).
    Inbound,
    /// The link this server dialed to a replica server.
    Replica(ReplicaId),
    /// The link this server dialed to a peer balancer.
    Lb(LbId),
}

/// What a server adds to the skeleton.
pub(crate) trait Service: Sized + Send + Sync + 'static {
    /// The state as a Prometheus exposition (both scrape front doors).
    fn metrics_text(&self) -> String;

    /// One frame that arrived on `link` (`reply`: that connection's
    /// outbox). A link's last frame is `Shutdown`, sent or implied.
    fn on_frame(net: &Server<Self>, link: Link, msg: Message, reply: &Outbox);
}

/// Who awaits a request's responses, and over which link it was sent on.
struct Pending {
    to: Outbox,
    via: Option<Link>,
}

/// Everything the skeleton's threads share, under one lock.
#[derive(Default)]
struct Table {
    /// Dialed links: the outbox toward each target.
    links: BTreeMap<Link, Outbox>,
    /// request id → the connection awaiting its responses.
    pending: HashMap<u64, Pending>,
    /// Set by [`Server::shutdown`]: nothing new is served.
    closed: bool,
    next_id: u64,
    /// A clone of the stream of every connection thread not yet finished.
    streams: HashMap<u64, TcpStream>,
}

/// A listening server bound to 127.0.0.1, serving `S`.
pub(crate) struct Server<S> {
    pub(crate) state: S,
    pub(crate) addr: SocketAddr,
    table: Mutex<Table>,
    drained: Condvar,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl<S: Service> Server<S> {
    /// Binds an ephemeral localhost port and starts the accept loop and
    /// the server's own thread (`own`: stepper, prober).
    pub(crate) fn spawn(
        state: S,
        own: impl FnOnce(Arc<Self>) + Send + 'static,
    ) -> io::Result<Arc<Self>> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let net = Arc::new(Server {
            state,
            addr: listener.local_addr()?,
            table: Mutex::default(),
            drained: Condvar::new(),
            threads: Mutex::default(),
        });
        let (acceptor, owner) = (Arc::clone(&net), Arc::clone(&net));
        *net.threads.lock() = vec![
            std::thread::spawn(move || acceptor.accept(&listener)),
            std::thread::spawn(move || own(owner)),
        ];
        Ok(net)
    }

    fn accept(self: &Arc<Self>, listener: &TcpListener) {
        for conn in listener.incoming() {
            if self.closing() {
                break;
            }
            let Ok(stream) = conn else { break };
            if let Ok(handles) = stream.set_nodelay(true).and_then(|()| handles(stream)) {
                self.serve(handles, Link::Inbound);
            }
        }
    }

    /// True once [`Server::shutdown`] has begun.
    pub(crate) fn closing(&self) -> bool {
        self.table.lock().closed
    }

    /// Opens the outbound link `who` to `addr` (ordering rule 2): its
    /// outbox, the socket's write half, is in the link table before
    /// `routable` runs, and its one connection thread starts after.
    pub(crate) fn dial(
        self: &Arc<Self>,
        addr: SocketAddr,
        who: Link,
        routable: impl FnOnce(&S),
    ) -> io::Result<()> {
        let handles = handles(open(addr)?)?;
        self.table.lock().links.insert(who, Arc::clone(&handles.1));
        routable(&self.state);
        self.serve(handles, who);
        Ok(())
    }

    /// The dialed links, replicas first: each with its outbox.
    pub(crate) fn links(&self) -> Vec<(Link, Outbox)> {
        let table = self.table.lock();
        table.links.iter().map(|(l, tx)| (*l, tx.clone())).collect()
    }

    /// Starts a connection thread, keeping one handle for `shutdown()` to
    /// close; once closing, drops the connection unserved.
    fn serve(self: &Arc<Self>, conn: Handles, link: Link) {
        let (reader, tx, closer) = conn;
        let id = {
            let mut table = self.table.lock();
            if table.closed {
                return;
            }
            table.next_id += 1;
            let id = table.next_id;
            table.streams.insert(id, closer);
            id
        };
        let net = Arc::clone(self);
        std::thread::spawn(move || {
            if link == Link::Inbound && is_ascii_scrape(&reader) {
                serve_ascii_scrape(reader, &net.state.metrics_text());
            } else {
                net.pump(reader, link, &tx);
            }
            net.table.lock().streams.remove(&id);
            net.drained.notify_all();
        });
    }

    /// The reader loop, then the link's one exit (ordering rule 3);
    /// connections differ only in `link`.
    fn pump(&self, mut reader: TcpStream, link: Link, tx: &Outbox) {
        loop {
            match read_frame(&mut reader) {
                Ok(Message::MetricsRequest) => {
                    let text = self.state.metrics_text();
                    tx.send(&Message::MetricsText { text });
                }
                Ok(Message::Shutdown) | Err(_) => break,
                Ok(msg) => S::on_frame(self, link, msg, tx),
            }
        }
        // A reply table entry may keep the outbox alive: the peer must
        // see the close now, not when the last one goes.
        let _ = reader.shutdown(Shutdown::Both);
        // A server that is itself closing has no routing state to keep.
        if !self.closing() {
            S::on_frame(self, link, Message::Shutdown, tx);
        }
        let swept: Vec<(u64, Pending)> = {
            let mut table = self.table.lock();
            table.links.remove(&link);
            let on_link = |_: &u64, p: &mut Pending| p.via == Some(link);
            table.pending.extract_if(on_link).collect()
        };
        for (id, p) in swept {
            p.to.send(&link_closed(id));
        }
    }

    /// Records that `to` awaits the responses to request `id`. A waiter
    /// on another connection that it displaces is answered with
    /// `Reject` instead of never hearing back; one on the same
    /// connection (a balancer's one link to a replica) is replaced
    /// silently.
    pub(crate) fn expect_reply(&self, id: u64, to: &Outbox) {
        let waiter = Pending {
            to: to.clone(),
            via: None,
        };
        let displaced = self.table.lock().pending.insert(id, waiter);
        if let Some(old) = displaced.filter(|old| !Arc::ptr_eq(&old.to, to)) {
            old.to.send(&Message::Reject {
                request_id: id,
                reason: "request id taken over by another connection".to_string(),
            });
        }
    }

    /// Passes a response on to whoever awaits request `id`; any response
    /// but `FirstToken` is the request's last.
    pub(crate) fn reply(&self, id: u64, msg: Message) {
        self.pass_on(id, msg, |_| true);
    }

    /// Passes on a response that arrived on `link`, only if request `id`
    /// went out on that link ([`Server::send_via`]). Any other
    /// connection names a request it was never sent, and is ignored: it
    /// cannot end, or answer for, another client's request.
    pub(crate) fn relay(&self, link: Link, id: u64, msg: Message) {
        self.pass_on(id, msg, |p| p.via == Some(link));
    }

    fn pass_on(&self, id: u64, msg: Message, ours: impl FnOnce(&Pending) -> bool) {
        let last = !matches!(msg, Message::FirstToken { .. });
        let to = {
            let mut table = self.table.lock();
            let Entry::Occupied(waiter) = table.pending.entry(id) else {
                return;
            };
            if !ours(waiter.get()) {
                return;
            }
            if last {
                waiter.remove().to
            } else {
                waiter.get().to.clone()
            }
        };
        to.send(&msg);
    }

    /// Marks request `id` in flight on `link` and sends it out there; if
    /// the link is gone, answers the request with `Reject`.
    pub(crate) fn send_via(&self, link: Link, id: u64, msg: Message) {
        let tx = {
            let mut table = self.table.lock();
            if let Some(p) = table.pending.get_mut(&id) {
                p.via = Some(link);
            }
            table.links.get(&link).cloned()
        };
        match tx {
            Some(tx) => tx.send(&msg),
            None => self.reply(id, link_closed(id)),
        }
    }

    /// Joins the acceptor and the server's own thread, closes every open
    /// connection, and waits (bounded) for the threads serving them.
    pub(crate) fn shutdown(&self) {
        self.table.lock().closed = true;
        // Unblock the acceptor.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
        let table = self.table.lock();
        for stream in table.streams.values() {
            // Already-disconnected peers answer `NotConnected`: fine.
            let _ = stream.shutdown(Shutdown::Both);
        }
        let (table, _) = self
            .drained
            .wait_timeout_while(table, DRAIN_TIMEOUT, |t| !t.streams.is_empty())
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let left @ 1.. = table.streams.len() {
            eprintln!("skywalker-live: shutdown left {left} connection threads running");
        }
    }

    /// Connection threads spawned and not yet finished.
    #[cfg(test)]
    pub(crate) fn serving(&self) -> usize {
        self.table.lock().streams.len()
    }

    /// True if every connection being served has `TCP_NODELAY` set.
    #[cfg(test)]
    pub(crate) fn all_nodelay(&self) -> bool {
        let table = self.table.lock();
        table.streams.values().all(|s| s.nodelay().unwrap())
    }
}

/// A connection's three handles on its socket: the reader loop's, the
/// outbox, and the one `shutdown()` closes.
type Handles = (TcpStream, Outbox, TcpStream);

/// Every socket a server serves passes here, so here it gets its
/// [`WRITE_TIMEOUT`].
fn handles(stream: TcpStream) -> io::Result<Handles> {
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let writer = Arc::new(Writer(Mutex::new(stream.try_clone()?)));
    Ok((stream.try_clone()?, writer, stream))
}

/// Connects to `addr`; where every socket this crate opens is born, and
/// so where it gets `TCP_NODELAY`.
pub(crate) fn open(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn link_closed(request_id: u64) -> Message {
    Message::Reject {
        request_id,
        reason: "link to the serving replica or balancer closed".to_string(),
    }
}

/// One request, one response, over a short-lived connection.
pub(crate) fn ask(addr: SocketAddr, msg: &Message) -> Option<Message> {
    let mut stream = open(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    write_frame(&mut stream, msg).ok()?;
    read_frame(&mut stream).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A connected loopback pair: (the end `open` made, the accepted end).
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let near = open(listener.local_addr().unwrap()).unwrap();
        (near, listener.accept().unwrap().0)
    }

    /// Frame `nth` of sender `thread`: distinct, and every 50th is 256 KiB,
    /// more than the socket has room for — a `write` that waits for room
    /// is where another sender's bytes would get in.
    fn numbered(thread: u64, nth: u64) -> Message {
        let request_id = thread << 32 | nth;
        let len = if nth.is_multiple_of(50) {
            1 << 16
        } else {
            nth % 50
        };
        Message::Infer {
            request_id,
            session_key: format!("sender-{thread}").into(),
            prompt: vec![request_id as u32; len as usize].into(),
            max_new_tokens: 1,
            hops: 0,
        }
    }

    /// Eight threads send through one writer at once: every frame arrives
    /// whole, and each thread's frames in the order it sent them.
    #[test]
    fn concurrent_senders_never_interleave_frames() {
        let _timing = crate::sync::beside_timing();
        const THREADS: u64 = 8;
        const FRAMES: u64 = 500;
        let (near, mut far) = pair();
        let (_, writer, _) = handles(near).unwrap();
        let reader = std::thread::spawn(move || {
            let mut next = [0; THREADS as usize];
            for _ in 0..THREADS * FRAMES {
                let got = read_frame(&mut far).expect("a whole frame");
                let Message::Infer { request_id, .. } = got else {
                    panic!("not an Infer: {got:?}");
                };
                let thread = (request_id >> 32) as usize;
                assert_eq!(got, numbered(thread as u64, next[thread]));
                next[thread] += 1;
            }
            next
        });
        std::thread::scope(|scope| {
            for thread in 0..THREADS {
                let writer = &writer;
                scope.spawn(move || (0..FRAMES).for_each(|n| writer.send(&numbered(thread, n))));
            }
        });
        assert_eq!(reader.join().unwrap(), [FRAMES; THREADS as usize]);
    }

    #[test]
    fn opened_sockets_have_nodelay() {
        let (near, _far) = pair();
        assert!(near.nodelay().unwrap());
    }
}
