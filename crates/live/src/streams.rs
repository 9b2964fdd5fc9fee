//! The set of sockets a live server is serving, so `shutdown()` can end
//! them.
//!
//! Connection threads block in `read` on their socket; joining the
//! accept loop alone leaves every one of them serving a server that is
//! gone — an `Infer` enqueued for a stepper that no longer runs, a
//! "shut down" balancer still routing over its surviving links. Each
//! server keeps a clone of every stream it accepted or opened for as
//! long as a thread serves it; closing the clones ends the reads, and
//! with them the threads.

use std::collections::HashMap;
use std::net::{Shutdown, TcpStream};

use crate::sync::Mutex;

#[derive(Default)]
struct Open {
    /// Set by [`OpenStreams::close_all`]: nothing is served any more.
    closed: bool,
    next_id: u64,
    streams: HashMap<u64, TcpStream>,
}

/// Every stream some connection thread is currently serving.
#[derive(Default)]
pub(crate) struct OpenStreams(Mutex<Open>);

impl OpenStreams {
    /// Runs `serve` on `stream`, holding a clone of it for
    /// [`OpenStreams::close_all`] until `serve` returns. After
    /// `close_all` the stream is dropped unserved.
    pub(crate) fn serve(&self, stream: TcpStream, serve: impl FnOnce(TcpStream)) {
        let Ok(clone) = stream.try_clone() else {
            return;
        };
        let id = {
            let mut open = self.0.lock();
            if open.closed {
                return;
            }
            open.next_id += 1;
            let id = open.next_id;
            open.streams.insert(id, clone);
            id
        };
        serve(stream);
        self.0.lock().streams.remove(&id);
    }

    /// Closes every stream being served, and refuses any later one.
    pub(crate) fn close_all(&self) {
        let mut open = self.0.lock();
        open.closed = true;
        for (_, stream) in open.streams.drain() {
            // Already-disconnected peers answer `NotConnected`: fine.
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}
