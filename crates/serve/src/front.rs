//! The connection front end shared by the daemon ([`crate::server`]) and the
//! `qec-cluster` router: the listener, the hard connection limit, a fixed
//! pool of connection workers, the line reader, panic containment and the
//! shutdown drain. It drives a request handler — the daemon's evaluates, the
//! router's forwards — so connection-level bytes (the `overloaded` greeting,
//! `bad-request` answers to unreadable lines) are routed ≡ monolithic by
//! construction.
//!
//! Threads are allocated once, at startup: the thread calling [`Front::run`]
//! accepts sockets and hands them to `max_connections` workers; a connection
//! beyond the limit gets one typed `overloaded` line and is closed. Requests
//! on a connection are answered strictly in arrival order, and malformed
//! input — bad JSON, a line that is not UTF-8, a line longer than
//! [`MAX_REQUEST_LINE_BYTES`] — is answered with a typed error, never by
//! closing the connection.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

use crate::protocol::{
    parse_request, response_line, ErrorCode, Request, RequestKind, Response, ResponseKind,
    ServerStats, WireError, PROTOCOL_VERSION,
};

/// Longest request line accepted, in bytes, not counting its `\n`: 1 MiB,
/// about 7,000 eval specs — far more than a default evaluation queue admits
/// in one batch. A longer line is consumed without being buffered and
/// answered with `bad-request`; the connection keeps serving.
pub const MAX_REQUEST_LINE_BYTES: usize = 1 << 20;

/// What a request handler answers with.
#[derive(Debug)]
pub enum Answer {
    /// A typed response, serialized by the front end with the request's
    /// echoed `id` and [`PROTOCOL_VERSION`]. [`ResponseKind::ShuttingDown`]
    /// stops the server once the line is delivered.
    Response(Box<ResponseKind>),
    /// A complete response line produced elsewhere — the router's
    /// pass-through of a replica's answer — written verbatim.
    Raw(String),
}

impl From<ResponseKind> for Answer {
    fn from(response: ResponseKind) -> Answer {
        Answer::Response(Box::new(response))
    }
}

/// Admitted-but-not-yet-served connections, handed from the acceptor to the
/// connection workers. `close` drops whatever is still pending (shutdown
/// refuses no one an in-flight answer, but queued sockets that never reached
/// a worker are simply closed) and wakes every idle worker so the pool can
/// join deterministically.
struct ConnQueue {
    inner: Mutex<QueueState>,
    ready: Condvar,
}

struct QueueState {
    pending: VecDeque<TcpStream>,
    closed: bool,
}

impl ConnQueue {
    fn new() -> Self {
        ConnQueue {
            inner: Mutex::new(QueueState { pending: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
        }
    }

    fn push(&self, stream: TcpStream) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.closed {
            return; // dropped: the server is shutting down
        }
        inner.pending.push_back(stream);
        self.ready.notify_one();
    }

    fn pop(&self) -> Option<TcpStream> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(stream) = inner.pending.pop_front() {
                return Some(stream);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.closed = true;
        inner.pending.clear();
        self.ready.notify_all();
    }
}

/// A bound front end: the listen socket, the connection limit and the
/// connection gauges. [`Front::run`] serves until a handler answers
/// `shutting-down`.
pub struct Front {
    listener: TcpListener,
    addr: SocketAddr,
    max_connections: usize,
    conn_queue: ConnQueue,
    requests: AtomicU64,
    /// Connections admitted and not yet finished (the connection-limit gauge:
    /// only the acceptor increments, so the limit is never exceeded).
    active_connections: AtomicU64,
    shed_connections: AtomicU64,
    shutdown: AtomicBool,
    /// Read-half clones of open connections, so shutdown can unblock workers
    /// parked in a read (an idle client must not keep the server alive
    /// forever).
    connections: Mutex<Vec<(u64, TcpStream)>>,
}

impl Front {
    /// Binds `addr` (`host:port`; port `0` picks an ephemeral port) with a
    /// hard limit of `max_connections` (at least 1) connections served at
    /// once.
    ///
    /// # Errors
    /// Returns a message when the address cannot be bound.
    pub fn bind(addr: &str, max_connections: usize) -> Result<Front, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        Ok(Front {
            addr: listener.local_addr().map_err(|e| e.to_string())?,
            listener,
            max_connections: max_connections.max(1),
            conn_queue: ConnQueue::new(),
            requests: AtomicU64::new(0),
            active_connections: AtomicU64::new(0),
            shed_connections: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            connections: Mutex::new(Vec::new()),
        })
    }

    /// The bound address (resolves an ephemeral port request).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The front end's fields of a `stats` answer — `requests` (malformed
    /// lines included), `active_connections`, `max_connections` and
    /// `shed_connections` — with every other field zero.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            requests: self.requests.load(Ordering::Relaxed),
            active_connections: self.active_connections.load(Ordering::Relaxed),
            max_connections: self.max_connections,
            shed_connections: self.shed_connections.load(Ordering::Relaxed),
            ..ServerStats::default()
        }
    }

    /// Accepts and serves connections, answering every request through
    /// `handler`, until a handler answers `shutting-down`. Then drains
    /// deterministically and returns: the connection queue is closed (idle
    /// workers wake and exit, queued-but-unserved sockets are dropped), open
    /// connections' read halves are shut so parked workers finish their
    /// in-flight response and see EOF, and the scope joins every thread.
    pub fn run(&self, handler: impl Fn(Option<u64>, RequestKind) -> Answer + Sync) {
        let next_id = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..self.max_connections {
                scope.spawn(|| self.connection_worker(&handler, &next_id));
            }
            for stream in self.listener.incoming() {
                if self.shutdown.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // Request/response lines are tiny; Nagle + delayed ACK would
                // add ~40ms stalls per round trip on small writes.
                let _ = stream.set_nodelay(true);
                // Hard connection limit. Only this thread increments the
                // gauge, so admitted connections never exceed the worker
                // count and every admitted socket gets a worker promptly.
                let admitted = self.active_connections.fetch_add(1, Ordering::AcqRel);
                if admitted >= self.max_connections as u64 {
                    self.active_connections.fetch_sub(1, Ordering::AcqRel);
                    self.shed_connections.fetch_add(1, Ordering::Relaxed);
                    self.shed_connection(stream);
                    continue;
                }
                self.conn_queue.push(stream);
            }
            // Shutdown: wake idle workers (and drop never-served sockets)...
            self.conn_queue.close();
            // ...then close the *read* side of every remaining connection so
            // parked workers cannot keep the join alive. Writes stay open, so
            // a worker mid-request still delivers its in-flight response
            // before seeing EOF — the protocol doc's "force-closed after
            // their in-flight request".
            for (_, conn) in self.connections.lock().unwrap_or_else(PoisonError::into_inner).iter()
            {
                let _ = conn.shutdown(std::net::Shutdown::Read);
            }
        });
    }

    /// One connection-worker thread: serves admitted connections, one at a
    /// time, until the queue is closed. Registers each connection's read half
    /// so shutdown can unblock a parked read.
    fn connection_worker(
        &self,
        handler: &impl Fn(Option<u64>, RequestKind) -> Answer,
        next_id: &AtomicU64,
    ) {
        while let Some(stream) = self.conn_queue.pop() {
            let id = next_id.fetch_add(1, Ordering::Relaxed);
            if let Ok(clone) = stream.try_clone() {
                self.connections.lock().unwrap_or_else(PoisonError::into_inner).push((id, clone));
            }
            self.handle_connection(stream, handler);
            self.connections
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .retain(|(conn_id, _)| *conn_id != id);
            self.active_connections.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Answers an over-limit connection with a single typed `overloaded` error
    /// line (`id` null — there is no request to correlate with) and closes it.
    /// Established connections are unaffected; the client may reconnect later.
    fn shed_connection(&self, mut stream: TcpStream) {
        let error = WireError::new(
            ErrorCode::Overloaded,
            format!(
                "connection limit reached ({} active); connection refused — retry later",
                self.max_connections
            ),
        );
        let response =
            Response { id: None, v: PROTOCOL_VERSION, response: ResponseKind::Error(error) };
        let _ = writeln!(stream, "{}", response_line(&response));
        let _ = stream.flush();
    }

    /// Serves one connection: reads request lines, answers each in order.
    /// EOF, a read error or a write failure ends the connection; a
    /// `shutdown` answer ends the whole server.
    fn handle_connection(
        &self,
        stream: TcpStream,
        handler: &impl Fn(Option<u64>, RequestKind) -> Answer,
    ) {
        let Ok(read_half) = stream.try_clone() else { return };
        let mut reader = BufReader::new(read_half);
        let mut writer = stream;
        let mut line = Vec::new();
        while let Ok(Some(request)) = next_request(&mut reader, &mut line) {
            self.requests.fetch_add(1, Ordering::Relaxed);
            let (id, answer) = match request {
                Ok(request) => (request.id, contain_panic(|| handler(request.id, request.request))),
                Err(error) => (None, Ok(ResponseKind::Error(error).into())),
            };
            // A contained panic answers with a typed `internal` error and then
            // closes *this* connection only — the worker thread survives to
            // serve the next socket, and every other connection is untouched.
            let panicked = answer.is_err();
            let answer = answer.unwrap_or_else(|error| ResponseKind::Error(error).into());
            let stop =
                matches!(&answer, Answer::Response(kind) if **kind == ResponseKind::ShuttingDown);
            let reply = match answer {
                Answer::Response(kind) => {
                    response_line(&Response { id, v: PROTOCOL_VERSION, response: *kind })
                }
                Answer::Raw(reply) => reply,
            };
            if writeln!(writer, "{reply}").is_err() {
                break;
            }
            let _ = writer.flush();
            if panicked {
                break;
            }
            if stop {
                self.shutdown.store(true, Ordering::Release);
                // Unblock the accept loop so it observes the flag. A wildcard
                // bind (0.0.0.0 / ::) is not connectable everywhere, so the
                // poke targets loopback on the bound port.
                let mut poke = self.addr;
                if poke.ip().is_unspecified() {
                    poke.set_ip(match poke {
                        SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                        SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                    });
                }
                let _ = TcpStream::connect(poke);
                break;
            }
        }
    }
}

/// Reads the next non-empty request line into `line` (a buffer reused across
/// calls) and parses it; `None` at end of stream. A trailing `\r` is
/// tolerated. A line that is not UTF-8 or is longer than
/// [`MAX_REQUEST_LINE_BYTES`] parses to a `bad-request` error; past the cap
/// the rest of the line is consumed as it arrives, never buffered, so a
/// client that never sends a newline cannot grow the server.
fn next_request(
    reader: &mut impl BufRead,
    line: &mut Vec<u8>,
) -> std::io::Result<Option<Result<Request, WireError>>> {
    let bad_request =
        |message: String| Ok(Some(Err(WireError::new(ErrorCode::BadRequest, message))));
    loop {
        line.clear();
        let cap = MAX_REQUEST_LINE_BYTES as u64 + 1;
        if reader.by_ref().take(cap).read_until(b'\n', line)? == 0 {
            return Ok(None);
        }
        if line.len() > MAX_REQUEST_LINE_BYTES && line.last() != Some(&b'\n') {
            // Drop the rest of the line (a `fill_buf`/`consume` loop:
            // `BufRead::skip_until` needs a newer Rust than the workspace's).
            loop {
                let available = reader.fill_buf()?;
                let newline = available.iter().position(|&byte| byte == b'\n');
                let end = newline.is_some() || available.is_empty();
                let consumed = newline.map_or(available.len(), |at| at + 1);
                reader.consume(consumed);
                if end {
                    return bad_request(format!(
                        "malformed request: line longer than {MAX_REQUEST_LINE_BYTES} bytes"
                    ));
                }
            }
        }
        let text = line.strip_suffix(b"\n").unwrap_or(line);
        match std::str::from_utf8(text.strip_suffix(b"\r").unwrap_or(text)) {
            Ok(text) if text.trim().is_empty() => continue,
            Ok(text) => return Ok(Some(parse_request(text))),
            Err(e) => return bad_request(format!("malformed request: {e}")),
        }
    }
}

/// Runs one request dispatch with panic containment: a panic anywhere in the
/// dispatch path is caught and mapped to a typed `internal` [`WireError`]
/// instead of unwinding through the connection worker. The caller answers
/// with that error and closes the offending connection; the worker thread —
/// and every other connection — keeps serving. Locks the panicking dispatch
/// held are recovered by the `PoisonError::into_inner` guards at every lock
/// site, so one poisoned request cannot cascade into poisoned-lock panics on
/// later requests.
fn contain_panic<T>(dispatch: impl FnOnce() -> T) -> Result<T, WireError> {
    // AssertUnwindSafe: the shared state behind the closure is lock-guarded,
    // and every guard recovers from poisoning, so observing post-panic state
    // is sound.
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(dispatch)).map_err(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(ToString::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        WireError::new(
            ErrorCode::Internal,
            format!("request panicked server-side: {message}; connection closed"),
        )
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    use crate::client::Client;

    #[test]
    fn contain_panic_passes_a_clean_dispatch_through() {
        let outcome = contain_panic(|| ResponseKind::Pong);
        assert_eq!(outcome, Ok(ResponseKind::Pong));
    }

    #[test]
    fn contain_panic_maps_a_panicking_dispatch_to_a_typed_internal_error() {
        let prior = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep the test log clean
        let str_panic = contain_panic(|| panic!("decoder exploded"));
        let string_panic = contain_panic(|| panic!("shot {}", 7));
        std::panic::set_hook(prior);
        let error = str_panic.unwrap_err();
        assert_eq!(error.code, ErrorCode::Internal);
        assert!(error.message.contains("decoder exploded"), "{}", error.message);
        assert!(error.message.contains("connection closed"), "{}", error.message);
        let error = string_panic.unwrap_err();
        assert_eq!(error.code, ErrorCode::Internal);
        assert!(error.message.contains("shot 7"), "{}", error.message);
    }

    /// The line reader's framing: blank lines are skipped, a trailing `\r`
    /// and a final unterminated line are accepted, and the cap is exact — a
    /// line of `MAX_REQUEST_LINE_BYTES` is read, one byte more is dropped
    /// with the next line intact.
    #[test]
    fn next_request_frames_lines_and_caps_them_exactly() {
        let ping = br#"{"id":1,"request":"ping"}"#;
        let mut input = b"\n \r\n".to_vec();
        for len in [MAX_REQUEST_LINE_BYTES, MAX_REQUEST_LINE_BYTES + 1] {
            input.extend(vec![b' '; len - ping.len()]);
            input.extend(ping.iter().chain(b"\n"));
        }
        input.extend(b"\xff\n".iter().chain(ping).chain(b"\r\n").chain(ping));
        let mut reader = std::io::Cursor::new(input);
        let mut line = Vec::new();
        let mut next = || next_request(&mut reader, &mut line).unwrap();
        let pinged = Some(Ok(Request { id: Some(1), request: RequestKind::Ping }));
        assert_eq!(next(), pinged, "a line of exactly the cap is read");
        let Some(Err(error)) = next() else { panic!("a line one byte over the cap is refused") };
        assert!(error.message.contains("longer than"), "{error}");
        let Some(Err(error)) = next() else { panic!("a line that is not UTF-8 is refused") };
        assert_eq!(error.code, ErrorCode::BadRequest);
        assert_eq!(next(), pinged, "a trailing \\r is tolerated");
        assert_eq!(next(), pinged, "a final unterminated line is read");
        assert_eq!(next(), None);
    }

    /// A thread that panics while holding the connection-queue lock poisons
    /// it; the queue must keep operating (recovered guards), not cascade the
    /// panic into every later `lock()`.
    #[test]
    fn conn_queue_survives_a_poisoned_lock() {
        let queue = Arc::new(ConnQueue::new());
        let poisoner = Arc::clone(&queue);
        let prior = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.inner.lock().unwrap();
            panic!("poison the queue");
        })
        .join();
        std::panic::set_hook(prior);
        assert!(queue.inner.is_poisoned(), "the panic above must have poisoned the lock");
        queue.close(); // recovers the guard; would panic under `.expect(...)`
        assert!(queue.pop().is_none(), "a closed queue reports end-of-connections");
    }

    /// A poisoned connection registry still registers connections and, at
    /// shutdown, still releases a worker parked on an idle client — only the
    /// registry's read-half shutdown can, since the idle client stays
    /// connected across the join.
    #[test]
    fn a_poisoned_connection_registry_still_shuts_down_cleanly() {
        let front = Front::bind("127.0.0.1:0", 2).unwrap();
        let addr = front.local_addr();
        let prior = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let _ = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = front.connections.lock().unwrap_or_else(PoisonError::into_inner);
                    panic!("poison the connection registry");
                })
                .join()
        });
        std::panic::set_hook(prior);
        assert!(front.connections.is_poisoned(), "the panic above must have poisoned the lock");
        let handle = std::thread::spawn(move || {
            front.run(|_, request| match request {
                RequestKind::Shutdown => ResponseKind::ShuttingDown.into(),
                _ => ResponseKind::Pong.into(),
            });
        });
        let mut idle = Client::connect(addr).unwrap();
        assert_eq!(idle.request(RequestKind::Ping).unwrap(), ResponseKind::Pong);
        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.request(RequestKind::Shutdown).unwrap(), ResponseKind::ShuttingDown);
        handle.join().unwrap();
        drop(idle);
    }
}
