//! The TCP serving loop: acceptor, bounded dispatch, per-connection
//! handlers, admission control, graceful drain.
//!
//! [`NetServer::serve`] brings up an in-process [`ExplorationServer`] from
//! the same validated [`ServerConfig`] every other entry point uses, then
//! listens on `config.listen_addr`:
//!
//! * the **acceptor** thread blocks in `accept` and pushes sockets into a
//!   bounded queue of `config.accept_backlog` entries — an accept burst
//!   beyond the queue (or beyond `config.max_connections` live connections)
//!   receives an explicit `Shed` frame and is closed, counted in `net.shed`;
//! * the **dispatcher** thread drains the queue and spawns one handler
//!   thread per connection (sessions are cheap: the exploration server
//!   multiplexes them over its fixed worker pool, so a connection thread
//!   only parses frames and blocks on session barriers);
//! * each **handler** speaks the frame protocol: JSON version handshake
//!   first, then binary request/response frames. One connection serves at
//!   most one exploration session. `RunTrace` is acknowledged only after the
//!   server accepted the event, so the bounded per-session queue's
//!   backpressure propagates to the client as TCP flow control.
//!
//! Nothing in the loop polls: the acceptor blocks in `accept` and idle
//! handlers block in `read` with no timeout, so a new connection or a frame
//! is served the moment it arrives.
//!
//! Admission control runs *before* work is queued: `OpenSession` and
//! `RunTrace` consult [`Admission`] against the live metrics snapshot and
//! answer `Shed { retry_after_ms, reason }` when a threshold is tripped.
//! With no threshold configured no snapshot is built.
//!
//! **Graceful drain** ([`NetServer::shutdown`]) wakes every blocked thread
//! directly. It sets the draining flag, then
//!
//! 1. wakes the blocking `accept` with one connection to the listener's own
//!    address; the acceptor drops it and exits, and the dispatcher follows
//!    once the queue closes;
//! 2. shuts down the read half of every live connection, through the clone
//!    of its stream each handler registers. A handler blocked in `read` sees
//!    end of stream at once; a busy one finishes its request and sees it on
//!    the next read. The handler then closes its session (flushing queued
//!    traces through the barrier), sends `GoAway` carrying the final
//!    [`SessionReport`], and answers requests already queued on the socket
//!    with an error;
//! 3. waits on a condvar, bounded by `config.drain_timeout_ms`, until the
//!    last handler has gone, and only then shuts the inner exploration
//!    server down.

use crate::admission::{Admission, ShedSignal, Verdict};
use crate::codec::{decode_request, encode_response, Request, Response};
use crate::frame::{
    read_frame, write_frame, FrameReadError, ReadOutcome, MAX_FRAME_LEN, MAX_HANDSHAKE_LEN,
    MIN_PROTOCOL_VERSION, PROTOCOL_NAME, PROTOCOL_VERSION,
};
use crate::metrics::NetInstruments;
use dbtouch_obs::TraceEventKind;
use dbtouch_server::{
    ExplorationServer, ServerConfig, ServerMetricsSnapshot, SessionHandle, SessionReport,
};
use dbtouch_types::json::{self, Json};
use dbtouch_types::{DbTouchError, Result};
use std::collections::HashMap;
use std::io::{ErrorKind, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pause after an `accept` that failed for lack of resources (EMFILE,
/// ENOBUFS, …), so the acceptor does not spin while they are exhausted.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// The JSON handshake payload, carrying `version` (a client offers its own;
/// a server acks the negotiated `min(client, server)`).
fn hello_json(version: u64) -> String {
    json::object([
        ("proto", Json::String(PROTOCOL_NAME.into())),
        ("version", Json::Number(version as f64)),
    ])
    .pretty()
}

/// Validate a received handshake payload (JSON text after the tag byte) and
/// return the peer's version. Anything down to [`MIN_PROTOCOL_VERSION`] is
/// accepted — both sides then speak `min(peer, own)`, so a v1 peer simply
/// never sees the v2 additions.
pub(crate) fn check_hello(body: &[u8]) -> std::result::Result<u64, String> {
    let text = std::str::from_utf8(body).map_err(|_| "handshake is not UTF-8".to_string())?;
    let parsed = json::parse(text).map_err(|e| format!("handshake is not JSON: {e}"))?;
    match parsed.get("proto").and_then(|p| p.as_str()) {
        Some(PROTOCOL_NAME) => {}
        other => return Err(format!("unknown protocol {other:?}")),
    }
    match parsed.get("version").and_then(|v| v.as_u64()) {
        Some(v) if v >= MIN_PROTOCOL_VERSION => Ok(v),
        other => Err(format!(
            "unsupported protocol version {other:?} \
             (supported: {MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION})"
        )),
    }
}

struct Shared {
    server: ExplorationServer,
    instruments: Arc<NetInstruments>,
    admission: Admission,
    draining: AtomicBool,
    connections: Arc<Connections>,
    retry_after_ms: u64,
    drain_timeout: Duration,
}

/// The live connection handlers: a clone of each one's stream, so a drain
/// can wake a handler blocked in `read`, and the condvar
/// [`NetServer::shutdown`] waits on until the last handler has gone. It sits
/// outside [`Shared`] so a handler can release its `Shared` reference
/// *before* it deregisters: once the table is empty, nothing but the
/// `NetServer` holds `Shared`.
struct Connections {
    table: Mutex<ConnectionTable>,
    gone: Condvar,
    instruments: Arc<NetInstruments>,
}

#[derive(Default)]
struct ConnectionTable {
    next_id: u64,
    streams: HashMap<u64, TcpStream>,
}

impl Connections {
    /// Every update below leaves the table valid, so a guard poisoned by a
    /// panicking handler is safe to recover; the drain must still run.
    fn lock(&self) -> MutexGuard<'_, ConnectionTable> {
        self.table.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn live(&self) -> usize {
        self.lock().streams.len()
    }

    /// Register a handler's stream; `None` when it cannot be cloned (then
    /// it could not be woken, so it is not served).
    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let mut table = self.lock();
        let id = table.next_id;
        table.next_id += 1;
        table.streams.insert(id, clone);
        self.instruments.connections.set(table.streams.len() as u64);
        Some(id)
    }

    fn deregister(&self, id: u64) {
        let mut table = self.lock();
        table.streams.remove(&id);
        self.instruments.connections.set(table.streams.len() as u64);
        self.gone.notify_all();
    }

    /// End of stream for every blocked `read`: the drain wake.
    fn wake_all(&self) {
        for stream in self.lock().streams.values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }

    /// Wait until every handler has deregistered or `deadline` passes;
    /// true when none is left.
    fn wait_all_gone(&self, deadline: Instant) -> bool {
        let mut table = self.lock();
        while !table.streams.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            table = self
                .gone
                .wait_timeout(table, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        true
    }
}

/// The network front-end: owns the listener threads and the in-process
/// exploration server they serve.
pub struct NetServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Bring up the exploration server described by `config` and serve it on
    /// `config.listen_addr` (required; use port 0 to let the OS pick).
    pub fn serve(config: ServerConfig) -> Result<NetServer> {
        config.validate()?;
        let addr = config.listen_addr.clone().ok_or_else(|| {
            DbTouchError::InvalidConfig(
                "NetServer::serve requires listen_addr (e.g. \"127.0.0.1:0\")".into(),
            )
        })?;
        let server = ExplorationServer::serve(config.clone())?;
        let instruments = Arc::new(NetInstruments::default());
        server
            .catalog()
            .telemetry()
            .register(Arc::clone(&instruments) as Arc<dyn dbtouch_obs::MetricSource>);

        let listener =
            TcpListener::bind(&addr).map_err(|e| DbTouchError::Io(format!("bind {addr}: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| DbTouchError::Io(format!("local_addr: {e}")))?;

        let shared = Arc::new(Shared {
            server,
            connections: Arc::new(Connections {
                table: Mutex::default(),
                gone: Condvar::new(),
                instruments: Arc::clone(&instruments),
            }),
            instruments,
            admission: Admission::new(config.shed.clone()),
            draining: AtomicBool::new(false),
            retry_after_ms: config.shed.retry_after_ms,
            drain_timeout: Duration::from_millis(config.drain_timeout_ms),
        });

        let (tx, rx) = sync_channel::<TcpStream>(config.accept_backlog);
        let max_connections = config.max_connections;

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("net-acceptor".into())
                .spawn(move || accept_loop(&shared, listener, tx, max_connections))
                .map_err(|e| DbTouchError::Io(format!("spawn acceptor: {e}")))?
        };
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("net-dispatcher".into())
                .spawn(move || dispatch_loop(shared, rx))
                .map_err(|e| DbTouchError::Io(format!("spawn dispatcher: {e}")))?
        };

        Ok(NetServer {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            dispatcher: Some(dispatcher),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The live metrics snapshot — `net.*` instruments included, since they
    /// are registered into the served catalog's telemetry hub.
    pub fn metrics_snapshot(&self) -> ServerMetricsSnapshot {
        self.shared.server.metrics_snapshot()
    }

    /// The network layer's own instruments (for tests and benches).
    pub fn instruments(&self) -> &Arc<NetInstruments> {
        &self.shared.instruments
    }

    /// Graceful drain: stop accepting, let every connection flush its
    /// in-flight traces and receive its final report via `GoAway`, then shut
    /// the inner exploration server down. Connections that have not finished
    /// within `config.drain_timeout_ms` are abandoned; the last of them to
    /// finish shuts the exploration server down as it drops it.
    pub fn shutdown(mut self) {
        let shared = &self.shared;
        shared.draining.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + shared.drain_timeout;
        // One connection to our own listener wakes the blocking `accept`.
        // Should even that fail, the acceptor cannot be joined: leave it
        // (and the dispatcher waiting on it) blocked rather than hang.
        let woke = TcpStream::connect(wake_addr(self.local_addr));
        if woke.is_ok() {
            if let Some(a) = self.acceptor.take() {
                let _ = a.join();
            }
            // The queue closed with the acceptor: no handler starts after
            // this join, so the wake below reaches every one of them.
            if let Some(d) = self.dispatcher.take() {
                let _ = d.join();
            }
        }
        shared.connections.wake_all();
        if shared.connections.wait_all_gone(deadline) {
            if let Ok(inner) = Arc::try_unwrap(self.shared) {
                inner.server.shutdown();
            }
        }
    }
}

/// The address that reaches a listener bound to `local`: an unspecified
/// bind address (`0.0.0.0`, `::`) is reached through loopback.
fn wake_addr(local: SocketAddr) -> SocketAddr {
    let ip = match local.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, local.port())
}

/// Send a response frame, accounting bytes; false when the peer is gone.
fn send(shared: &Shared, stream: &mut TcpStream, resp: &Response) -> bool {
    match write_frame(stream, &encode_response(resp)) {
        Ok(n) => {
            shared.instruments.bytes_out.add(n);
            true
        }
        Err(_) => false,
    }
}

/// Shed a connection before it is served: explicit `Shed` frame, then close.
/// Pre-handshake sheds carry no trace context, but the decision itself is
/// stamped into the event ring so operators can see it server-side. The
/// frame leaves without Nagle's delay: closing on a client `Hello` that was
/// never read resets the connection and discards any unsent bytes.
fn shed_connection(shared: &Shared, mut stream: TcpStream, signal: ShedSignal, reason: &str) {
    let _ = stream.set_nodelay(true);
    shared.instruments.shed.inc();
    shared
        .server
        .catalog()
        .telemetry()
        .event(TraceEventKind::Shed, signal.code());
    let resp = Response::Shed {
        retry_after_ms: shared.retry_after_ms,
        reason: reason.into(),
    };
    let _ = write_frame(&mut stream, &encode_response(&resp));
}

fn accept_loop(
    shared: &Shared,
    listener: TcpListener,
    tx: std::sync::mpsc::SyncSender<TcpStream>,
    max_connections: usize,
) {
    loop {
        let accepted = listener.accept();
        if shared.draining.load(Ordering::SeqCst) {
            // The drain's wake-up connection (or a client racing the
            // drain): dropped unserved.
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                shared.instruments.accepted.inc();
                if shared.connections.live() >= max_connections {
                    shed_connection(
                        shared,
                        stream,
                        ShedSignal::ConnectionLimit,
                        "connection limit reached",
                    );
                    continue;
                }
                match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(stream)) => {
                        shed_connection(
                            shared,
                            stream,
                            ShedSignal::AcceptBacklog,
                            "accept backlog full",
                        );
                    }
                    Err(TrySendError::Disconnected(_)) => return,
                }
            }
            // The peer gave up before we accepted it: nothing to wait for.
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::ConnectionAborted | ErrorKind::Interrupted
                ) => {}
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
}

fn dispatch_loop(shared: Arc<Shared>, rx: Receiver<TcpStream>) {
    // Bounded by the acceptor: the channel closes when the acceptor exits.
    while let Ok(stream) = rx.recv() {
        if shared.draining.load(Ordering::SeqCst) {
            continue; // queued behind the drain: just close.
        }
        let Some(id) = shared.connections.register(&stream) else {
            continue;
        };
        let conn_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("net-conn".into())
            .spawn(move || {
                // The handler is panic-contained so a bug in one connection
                // cannot wedge the connection accounting of the rest.
                let _ = catch_unwind(AssertUnwindSafe(|| handle_connection(&conn_shared, stream)));
                let connections = Arc::clone(&conn_shared.connections);
                drop(conn_shared);
                connections.deregister(id);
            });
        if spawned.is_err() {
            // Could not spawn a handler: undo the accounting (the socket
            // moved into the dropped closure and is already closed).
            shared.connections.deregister(id);
        }
    }
}

/// The per-connection protocol loop. Reads block with no timeout; end of
/// stream while the server drains is the drain wake (see the module docs).
fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);

    // --- handshake -------------------------------------------------------
    let hello = match read_frame(&mut stream, MAX_HANDSHAKE_LEN) {
        Ok((ReadOutcome::Frame(p), n)) => {
            shared.instruments.bytes_in.add(n);
            p
        }
        Ok((ReadOutcome::Eof, _)) => {
            if shared.draining.load(Ordering::SeqCst) {
                let _ = send(shared, &mut stream, &Response::GoAway(None));
            }
            return;
        }
        Err(e) => {
            shared.instruments.frame_errors.inc();
            let _ = send(shared, &mut stream, &Response::Error(e.to_string()));
            return;
        }
    };
    if hello.first() != Some(&crate::frame::tag::HELLO) {
        shared.instruments.frame_errors.inc();
        let _ = send(
            shared,
            &mut stream,
            &Response::Error("expected Hello as the first frame".into()),
        );
        return;
    }
    let peer_version = match check_hello(&hello[1..]) {
        Ok(v) => v,
        Err(reason) => {
            shared.instruments.frame_errors.inc();
            let _ = send(shared, &mut stream, &Response::Error(reason));
            return;
        }
    };
    let mut ack = crate::codec::WireWriter::with_tag(crate::frame::tag::HELLO_ACK);
    ack.raw(hello_json(peer_version.min(PROTOCOL_VERSION)).as_bytes());
    match write_frame(&mut stream, &ack.into_bytes()) {
        Ok(n) => shared.instruments.bytes_out.add(n),
        Err(_) => return,
    }

    // --- request loop ----------------------------------------------------
    let mut session: Option<SessionHandle> = None;
    loop {
        match read_frame(&mut stream, MAX_FRAME_LEN) {
            Ok((ReadOutcome::Frame(payload), n)) => {
                shared.instruments.bytes_in.add(n);
                let started = Instant::now();
                let (resp, close_after) = serve_request(shared, &payload, &mut session);
                shared
                    .instruments
                    .frame_nanos
                    .record(started.elapsed().as_nanos() as u64);
                if !send(shared, &mut stream, &resp) || close_after {
                    break;
                }
            }
            // The client hung up — or the drain woke us, possibly cutting
            // a frame short: either way the session is closed, and a
            // draining server delivers its final report.
            Ok((ReadOutcome::Eof, _)) | Err(FrameReadError::Truncated)
                if shared.draining.load(Ordering::SeqCst) =>
            {
                drain_connection(shared, stream, session.take());
                return;
            }
            Ok((ReadOutcome::Eof, _)) => break,
            Err(e @ (FrameReadError::BadChecksum | FrameReadError::Empty)) => {
                // The stream is still in sync: answer and keep serving.
                shared.instruments.frame_errors.inc();
                if !send(shared, &mut stream, &Response::Error(e.to_string())) {
                    break;
                }
            }
            Err(e @ FrameReadError::Oversize(_)) => {
                shared.instruments.frame_errors.inc();
                let _ = send(shared, &mut stream, &Response::Error(e.to_string()));
                break;
            }
            Err(FrameReadError::Truncated) => {
                shared.instruments.frame_errors.inc();
                break;
            }
            Err(FrameReadError::Io(_)) => break,
        }
    }
    // The peer hung up (or the stream broke) with a session still open:
    // close it so its worker slot frees and its queued traces drain.
    if let Some(s) = session {
        let _ = s.close();
    }
}

/// Serve one decoded request. Returns the response and whether the
/// connection must close afterwards.
fn serve_request(
    shared: &Shared,
    payload: &[u8],
    session: &mut Option<SessionHandle>,
) -> (Response, bool) {
    let decode_started = Instant::now();
    let request = match decode_request(payload) {
        Ok(r) => r,
        Err(e) => {
            shared.instruments.frame_errors.inc();
            return (Response::Error(e.to_string()), false);
        }
    };
    let decode_nanos = decode_started.elapsed().as_nanos() as u64;
    let resp = match request {
        Request::OpenSession => {
            if session.is_some() {
                Response::Error("a session is already open on this connection".into())
            } else {
                let verdict = if shared.admission.gates_opens() {
                    shared
                        .admission
                        .admit_open(&shared.server.metrics_snapshot())
                } else {
                    Verdict::Admit
                };
                match verdict {
                    Verdict::Shed {
                        retry_after_ms,
                        signal,
                        reason,
                    } => {
                        shared.instruments.shed.inc();
                        shared
                            .server
                            .catalog()
                            .telemetry()
                            .event(TraceEventKind::Shed, signal.code());
                        Response::Shed {
                            retry_after_ms,
                            reason,
                        }
                    }
                    Verdict::Admit => {
                        let handle = shared.server.open_session();
                        let id = handle.id();
                        *session = Some(handle);
                        Response::SessionOpened(id)
                    }
                }
            }
        }
        Request::SetAction(object, action) => match session {
            Some(s) => match s.set_action(object, action) {
                Ok(()) => Response::Ack,
                Err(e) => Response::Error(e.to_string()),
            },
            None => Response::Error("no session open".into()),
        },
        Request::RunTrace(object, trace, wire) => match session {
            Some(s) => {
                let hub = shared.server.catalog().telemetry();
                // Continue the client's span across the server: the root
                // opens backdated to when the frame hit the decoder, and the
                // decode itself becomes the tree's first child span. (The
                // worker later finds this buffer by the wire ids —
                // ensure_root is idempotent.)
                if let Some(w) = wire {
                    let now = hub.now_nanos();
                    let root_start = now.saturating_sub(decode_nanos);
                    hub.spans()
                        .ensure_root(s.id(), w.trace, w.root_span, root_start);
                    hub.spans().record_span(
                        s.id(),
                        w.trace,
                        0,
                        "decode",
                        root_start,
                        decode_nanos,
                        payload.len() as u64,
                    );
                }
                let admit_started = hub.now_nanos();
                let verdict = if shared.admission.gates_traces() {
                    shared
                        .admission
                        .admit_trace(&shared.server.metrics_snapshot())
                } else {
                    Verdict::Admit
                };
                match verdict {
                    Verdict::Shed {
                        retry_after_ms,
                        signal,
                        reason,
                    } => {
                        shared.instruments.shed.inc();
                        // Stamp the shed decision with the rejected trace
                        // context so client-side `Overloaded` errors
                        // correlate with server state; the partial span
                        // buffer is dropped, not sampled.
                        match wire {
                            Some(w) => {
                                hub.adopt_trace(s.id(), w.trace);
                                hub.event(TraceEventKind::Shed, signal.code());
                                hub.end_trace();
                                hub.spans().trace_abort(s.id(), w.trace);
                            }
                            None => {
                                hub.event(TraceEventKind::Shed, signal.code());
                            }
                        }
                        Response::Shed {
                            retry_after_ms,
                            reason,
                        }
                    }
                    // Acked only after the bounded session queue accepted the
                    // trace: server backpressure becomes client backpressure.
                    Verdict::Admit => {
                        if let Some(w) = wire {
                            let end = hub.now_nanos();
                            hub.spans().record_span(
                                s.id(),
                                w.trace,
                                0,
                                "admission",
                                admit_started,
                                end.saturating_sub(admit_started),
                                0,
                            );
                        }
                        match s.run_trace_traced(object, trace, wire) {
                            Ok(()) => Response::Ack,
                            Err(e) => {
                                if let Some(w) = wire {
                                    hub.spans().trace_abort(s.id(), w.trace);
                                }
                                Response::Error(e.to_string())
                            }
                        }
                    }
                }
            }
            None => Response::Error("no session open".into()),
        },
        Request::Snapshot => match session {
            Some(s) => match s.snapshot() {
                Ok(report) => Response::Report(report),
                Err(e) => Response::Error(e.to_string()),
            },
            None => Response::Error("no session open".into()),
        },
        Request::CloseSession => match session.take() {
            Some(s) => match s.close() {
                Ok(report) => Response::Report(report),
                Err(e) => Response::Error(e.to_string()),
            },
            None => Response::Error("no session open".into()),
        },
        Request::Metrics => {
            Response::MetricsJson(shared.server.metrics_snapshot().to_json().pretty())
        }
        Request::MetricsText => {
            Response::MetricsText(shared.server.metrics_snapshot().render_text())
        }
        Request::DumpTraces => {
            shared.instruments.traces_dumped.inc();
            let retained = shared.server.catalog().telemetry().spans().retained();
            Response::TracesJson(dbtouch_obs::chrome_trace_text(&retained))
        }
    };
    (resp, false)
}

/// Graceful drain of one connection: close the session (a barrier — every
/// queued trace completes and every in-flight refinement lands), deliver the
/// final report in a `GoAway`, then answer the requests already queued on
/// the socket with an error. Its read half is shut (the drain wake), so
/// reads return queued frames and then end of stream instead of blocking;
/// the deadline bounds a client that keeps sending.
fn drain_connection(shared: &Shared, mut stream: TcpStream, session: Option<SessionHandle>) {
    let final_report: Option<SessionReport> = session.and_then(|s| s.close().ok());
    if !send(shared, &mut stream, &Response::GoAway(final_report)) {
        return;
    }
    let _ = stream.flush();
    let deadline = Instant::now() + shared.drain_timeout;
    while Instant::now() < deadline {
        match read_frame(&mut stream, MAX_FRAME_LEN) {
            Ok((ReadOutcome::Frame(_), n)) => {
                shared.instruments.bytes_in.add(n);
                if !send(
                    shared,
                    &mut stream,
                    &Response::Error("server is draining".into()),
                ) {
                    return;
                }
            }
            Ok((ReadOutcome::Eof, _)) | Err(_) => return,
        }
    }
}

/// Client-side handshake over a fresh stream (shared with
/// [`crate::client::TcpClient`]). Returns the negotiated protocol version,
/// `min(our version, the server's ack)`.
pub(crate) fn client_handshake(stream: &mut TcpStream) -> Result<u64> {
    let mut hello = crate::codec::WireWriter::with_tag(crate::frame::tag::HELLO);
    hello.raw(hello_json(PROTOCOL_VERSION).as_bytes());
    let p = crate::client::exchange(stream, &hello.into_bytes(), MAX_HANDSHAKE_LEN, "handshake")?;
    match p.first() {
        Some(&crate::frame::tag::HELLO_ACK) => check_hello(&p[1..])
            .map(|acked| acked.min(PROTOCOL_VERSION))
            .map_err(DbTouchError::Remote),
        Some(&crate::frame::tag::SHED) => match crate::codec::decode_response(&p)? {
            Response::Shed {
                retry_after_ms,
                reason,
            } => Err(DbTouchError::Overloaded {
                retry_after_ms,
                reason,
            }),
            _ => Err(DbTouchError::Remote("malformed shed frame".into())),
        },
        Some(&crate::frame::tag::ERROR) => match crate::codec::decode_response(&p)? {
            Response::Error(msg) => Err(DbTouchError::Remote(msg)),
            _ => Err(DbTouchError::Remote("malformed error frame".into())),
        },
        Some(&crate::frame::tag::GO_AWAY) => Err(DbTouchError::Remote("server is draining".into())),
        _ => Err(DbTouchError::Remote(
            "unexpected frame during handshake".into(),
        )),
    }
}
