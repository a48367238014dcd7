//! The `clasp-serve` daemon layer: a std-only TCP server (and matching
//! client) speaking the [`crate::service`] wire shape in length-prefixed
//! frames.
//!
//! # Protocol
//!
//! Every message is one *frame*: a big-endian `u32` byte length followed
//! by that many bytes of UTF-8 text. A connection carries any number of
//! request/reply frame pairs, in order; the server answers every request
//! frame with exactly one reply frame. Frame bodies:
//!
//! | request                      | reply                          |
//! |------------------------------|--------------------------------|
//! | [`ServiceRequest::render`]   | [`ServiceReply::render`]       |
//! | `clasp-serve/1 ping`         | `clasp-serve/1 pong`           |
//! | `clasp-serve/1 stats`        | `clasp-serve/1 stats <line>`   |
//! | `clasp-serve/1 shutdown`     | `clasp-serve/1 bye`            |
//!
//! `shutdown` is graceful: the server answers `bye`, stops accepting,
//! and lets every in-flight connection finish. A malformed compile
//! request gets a `bad-request` reply and the connection survives; a
//! frame that is not valid UTF-8, or larger than [`MAX_FRAME_BYTES`],
//! closes only that connection. Each connection is served on its own
//! thread, so one misbehaving client never stalls another.
//!
//! Replies are *bit-identical* for a given request regardless of how
//! many worker threads the service admits, what the daemon served
//! before, and whether the artifact was computed, served from memory,
//! or promoted from the persistent tier — the canonical payload carries
//! no timings and no incidental state (see [`crate::codec`]). CI's
//! determinism gate diffs exactly this.

use crate::service::{CompileService, ServiceReply, ServiceRequest, PROTOCOL};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Upper bound on one frame body; a peer announcing more is closed
/// rather than trusted to allocate.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Frame bodies are read in chunks of at most this size, so a reader's
/// allocation grows with bytes actually received — a peer announcing a
/// 64 MiB body but sending one byte holds one chunk, not 64 MiB.
pub const FRAME_CHUNK_BYTES: usize = 64 << 10;

/// Write one length-prefixed frame.
///
/// # Errors
///
/// Any [`io::Error`] from the underlying writer.
pub fn write_frame(w: &mut impl Write, body: &str) -> io::Result<()> {
    let len = u32::try_from(body.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    // One write for prefix + body: split writes on an unbuffered socket
    // interact with Nagle's algorithm and delayed ACKs, turning every
    // round-trip into a ~40ms stall.
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(body.as_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Read one length-prefixed frame; `Ok(None)` on a clean EOF at a frame
/// boundary.
///
/// # Errors
///
/// Any [`io::Error`] from the reader, an oversized announced length, a
/// truncated body, or non-UTF-8 contents.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES} byte cap"),
        ));
    }
    // Bounded-chunk body read: never trust the announced length for the
    // up-front allocation. The buffer grows only as bytes arrive, capped
    // one chunk ahead, so a truncated or malicious announcement costs at
    // most `FRAME_CHUNK_BYTES` of memory before the read fails.
    let mut body = Vec::with_capacity(len.min(FRAME_CHUNK_BYTES));
    while body.len() < len {
        let chunk = (len - body.len()).min(FRAME_CHUNK_BYTES);
        let start = body.len();
        body.resize(start + chunk, 0);
        r.read_exact(&mut body[start..])?;
    }
    String::from_utf8(body)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

/// State shared between the accept loop, every connection handler, and
/// the [`Server`] handle: the stop flag, the connection registry (one
/// read-side clone per *open* connection, pruned by handlers on exit),
/// and handler accounting.
struct ServerState {
    stop: AtomicBool,
    /// Open connections by id. A handler registers its stream clone on
    /// accept and removes it on every exit path (including panic, via
    /// [`Deregister`]), so a long-running daemon holds one entry — and
    /// one fd — per *currently open* connection, never per connection
    /// ever accepted. `shutdown` walks the live entries to close their
    /// read sides.
    connections: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    accepted: AtomicU64,
    panics: AtomicU64,
}

impl ServerState {
    fn new() -> ServerState {
        ServerState {
            stop: AtomicBool::new(false),
            connections: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            panics: AtomicU64::new(0),
        }
    }

    /// Register a read-side clone of `stream`; `None` if the clone
    /// fails (the connection is still served, just not shutdown-able).
    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let id = self.next_conn.fetch_add(1, Ordering::SeqCst);
        self.connections.lock().unwrap().insert(id, clone);
        Some(id)
    }

    fn deregister(&self, id: u64) {
        self.connections.lock().unwrap().remove(&id);
    }

    /// Close the read side of every open connection so idle handlers
    /// observe EOF (in-flight replies still go out on the write side).
    fn close_all_reads(&self) {
        for conn in self.connections.lock().unwrap().values() {
            let _ = conn.shutdown(std::net::Shutdown::Read);
        }
    }
}

/// Removes a connection's registry entry when dropped — the handler's
/// every exit path, panic unwinding included, prunes the registry.
struct Deregister<'a> {
    state: &'a ServerState,
    id: Option<u64>,
}

impl Drop for Deregister<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            self.state.deregister(id);
        }
    }
}

/// A running `clasp-serve` daemon bound to a local address.
pub struct Server {
    addr: SocketAddr,
    accept: JoinHandle<()>,
    state: Arc<ServerState>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// accepting connections on a background thread.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from binding the listener.
    pub fn start(addr: impl ToSocketAddrs, service: Arc<CompileService>) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServerState::new());
        let run_state = Arc::clone(&state);
        let accept = std::thread::spawn(move || run_with(listener, service, &run_state));
        Ok(Server {
            addr,
            accept,
            state,
        })
    }

    /// The bound address (with the actual port when an ephemeral one
    /// was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of currently open connections (registry size). Bounded by
    /// the number of connected clients at any instant — a closed
    /// connection leaves the registry as soon as its handler exits.
    pub fn open_connections(&self) -> usize {
        self.state.connections.lock().unwrap().len()
    }

    /// Total connections accepted since start.
    pub fn connections_accepted(&self) -> u64 {
        self.state.accepted.load(Ordering::SeqCst)
    }

    /// Number of connection handlers that panicked. Panics are joined,
    /// counted, and logged by the accept loop — never silently dropped
    /// with the handle.
    pub fn handler_panics(&self) -> u64 {
        self.state.panics.load(Ordering::SeqCst)
    }

    /// Ask the daemon to shut down gracefully and wait for it.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from the shutdown round-trip.
    pub fn shutdown(self) -> io::Result<()> {
        let mut client = Client::connect(self.addr)?;
        client.shutdown_server()?;
        let _ = self.accept.join();
        Ok(())
    }

    /// Wait for the daemon to exit (after some client sent `shutdown`).
    pub fn join(self) {
        let _ = self.accept.join();
    }
}

/// The blocking accept loop: one handler thread per connection, until a
/// `shutdown` request flips the stop flag. Shutdown is graceful for
/// *requests*, not connections: every open connection has its read side
/// closed (an in-flight reply still goes out on the open write side),
/// the accept loop is woken, and every handler is joined before the
/// listener disappears.
pub fn run(listener: TcpListener, service: Arc<CompileService>) {
    run_with(listener, service, &Arc::new(ServerState::new()));
}

fn run_with(listener: TcpListener, service: Arc<CompileService>, state: &Arc<ServerState>) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    for conn in listener.incoming() {
        if state.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let _ = stream.set_nodelay(true);
        state.accepted.fetch_add(1, Ordering::SeqCst);
        let conn_id = state.register(&stream);
        let service = Arc::clone(&service);
        let conn_state = Arc::clone(state);
        workers.push(std::thread::spawn(move || {
            // The guard prunes the registry on every exit path —
            // return, error, or panic — so a long-running daemon never
            // accumulates entries (or fds) for closed connections.
            let _prune = Deregister {
                state: &conn_state,
                id: conn_id,
            };
            serve_connection(stream, &service, &conn_state);
        }));
        // Reap finished handlers: join them, so a panicking handler is
        // observed, counted, and logged — not silently discarded with
        // its handle.
        let (done, live): (Vec<_>, Vec<_>) = workers.drain(..).partition(|w| w.is_finished());
        workers = live;
        for w in done {
            join_handler(w, state);
        }
    }
    for w in workers {
        join_handler(w, state);
    }
}

/// Join one handler thread, counting and logging a panic.
fn join_handler(worker: JoinHandle<()>, state: &ServerState) {
    if let Err(payload) = worker.join() {
        state.panics.fetch_add(1, Ordering::SeqCst);
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        eprintln!("clasp-serve: connection handler panicked: {msg}");
    }
}

/// Serve one connection until EOF, IO error, or a `shutdown` request.
/// When `shutdown` arrives, the stop flag is set, every open
/// connection's read side is closed so idle handlers see EOF, and the
/// accept loop is woken with a throwaway connection.
fn serve_connection(mut stream: TcpStream, service: &CompileService, state: &ServerState) {
    let listen_addr = stream.local_addr().ok();
    loop {
        let body = match read_frame(&mut stream) {
            Ok(Some(body)) => body,
            // Clean EOF or a frame-level violation: either way this
            // connection is done; the server and its siblings live on.
            Ok(None) | Err(_) => return,
        };
        let reply = match control_verb(&body) {
            Some("ping") => format!("{PROTOCOL} pong"),
            Some("stats") => format!("{PROTOCOL} stats {}", service.stats_line()),
            Some("shutdown") => {
                let _ = write_frame(&mut stream, &format!("{PROTOCOL} bye"));
                state.stop.store(true, Ordering::SeqCst);
                state.close_all_reads();
                // Wake the blocked accept() so it observes the flag.
                if let Some(addr) = listen_addr {
                    let _ = TcpStream::connect(addr);
                }
                return;
            }
            _ => service.respond(&body),
        };
        if write_frame(&mut stream, &reply).is_err() {
            return;
        }
    }
}

/// The control verb of a one-line frame (`ping`/`stats`/`shutdown`),
/// or `None` for compile requests and anything else.
fn control_verb(body: &str) -> Option<&str> {
    let line = body.lines().next()?;
    let mut toks = line.split_ascii_whitespace();
    if toks.next() != Some(PROTOCOL) {
        return None;
    }
    match toks.next() {
        v @ Some("ping" | "stats" | "shutdown") => v,
        _ => None,
    }
}

/// A client connection to a `clasp-serve` daemon.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to a daemon.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from the connect.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client { stream })
    }

    /// One raw frame round-trip.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`], or [`io::ErrorKind::UnexpectedEof`] if the
    /// server closed the connection instead of replying.
    pub fn roundtrip(&mut self, body: &str) -> io::Result<String> {
        write_frame(&mut self.stream, body)?;
        read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })
    }

    /// One compile round-trip.
    ///
    /// # Errors
    ///
    /// IO failures, or a reply that does not parse (which a healthy
    /// server never sends).
    pub fn compile(&mut self, request: &ServiceRequest) -> io::Result<ServiceReply> {
        let reply = self.roundtrip(&request.render())?;
        ServiceReply::parse(&reply)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// IO failures on the round-trip.
    pub fn ping(&mut self) -> io::Result<bool> {
        Ok(self.roundtrip(&format!("{PROTOCOL} ping"))? == format!("{PROTOCOL} pong"))
    }

    /// The server's cache counter line.
    ///
    /// # Errors
    ///
    /// IO failures on the round-trip.
    pub fn stats(&mut self) -> io::Result<String> {
        let reply = self.roundtrip(&format!("{PROTOCOL} stats"))?;
        Ok(reply
            .strip_prefix(&format!("{PROTOCOL} stats "))
            .unwrap_or(&reply)
            .to_string())
    }

    /// Ask the server to shut down gracefully.
    ///
    /// # Errors
    ///
    /// IO failures on the round-trip.
    pub fn shutdown_server(&mut self) -> io::Result<()> {
        let _ = self.roundtrip(&format!("{PROTOCOL} shutdown"))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;

    const LOOP: &str = "loop t\n\nop n0 load\nop n1 alu\n\ndep n0 -> n1\n";

    fn start_in_memory() -> Server {
        Server::start("127.0.0.1:0", Arc::new(CompileService::in_memory()))
            .expect("bind ephemeral port")
    }

    fn machine_text() -> String {
        clasp_text::write_machine(&clasp_machine::presets::two_cluster_gp(2, 1))
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("hello"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn frames_larger_than_one_chunk_round_trip() {
        // A body spanning several read chunks must arrive intact.
        let body = "chunked-frame-bytes.".repeat((3 * FRAME_CHUNK_BYTES) / 20);
        assert!(body.len() > 2 * FRAME_CHUNK_BYTES);
        let mut buf = Vec::new();
        write_frame(&mut buf, &body).unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(body.as_str()));
    }

    #[test]
    fn huge_announcement_with_tiny_body_fails_without_ballooning() {
        // A frame announcing MAX_FRAME_BYTES but carrying one byte must
        // fail on the truncated read; the chunked reader allocates at
        // most one chunk up front, never the announced 64 MiB.
        let mut lying = Vec::new();
        lying.extend_from_slice(&(MAX_FRAME_BYTES as u32).to_be_bytes());
        lying.push(b'x');
        let err = read_frame(&mut io::Cursor::new(lying)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_and_truncated_frames_are_errors() {
        let mut huge = Vec::new();
        huge.extend_from_slice(&(u32::MAX).to_be_bytes());
        assert!(read_frame(&mut io::Cursor::new(huge)).is_err());
        let mut truncated = Vec::new();
        truncated.extend_from_slice(&8u32.to_be_bytes());
        truncated.extend_from_slice(b"oop");
        assert!(read_frame(&mut io::Cursor::new(truncated)).is_err());
    }

    #[test]
    fn server_answers_ping_compile_stats_and_shuts_down() {
        let server = start_in_memory();
        let mut client = Client::connect(server.addr()).unwrap();
        assert!(client.ping().unwrap());

        let sreq = ServiceRequest::new(LOOP, machine_text());
        let first = client.compile(&sreq).unwrap();
        let artifact = first.decode().unwrap().unwrap();
        assert!(artifact.ii() >= 1);
        let second = client.compile(&sreq).unwrap();
        assert_eq!(first.render(), second.render(), "warm reply identical");

        let stats = client.stats().unwrap();
        assert!(stats.contains("1 misses"), "{stats}");
        server.shutdown().unwrap();
    }

    #[test]
    fn bad_requests_do_not_kill_the_connection() {
        let server = start_in_memory();
        let mut client = Client::connect(server.addr()).unwrap();
        let reply = client
            .roundtrip("clasp-serve/1 compile\ngarbage\n")
            .unwrap();
        assert!(ServiceReply::parse(&reply).unwrap().outcome.is_err());
        // Same connection still serves a healthy compile.
        let ok = client
            .compile(&ServiceRequest::new(LOOP, machine_text()))
            .unwrap();
        assert!(ok.outcome.is_ok());
        server.shutdown().unwrap();
    }

    #[test]
    fn connections_are_isolated() {
        let server = start_in_memory();
        // A client that sends a garbage length prefix and hangs up only
        // loses its own connection.
        {
            let mut rogue = TcpStream::connect(server.addr()).unwrap();
            rogue.write_all(&[0xff, 0xff, 0xff, 0xff]).unwrap();
        }
        let mut client = Client::connect(server.addr()).unwrap();
        assert!(client.ping().unwrap());
        server.shutdown().unwrap();
    }

    #[test]
    fn connection_registry_is_pruned_as_clients_leave() {
        let server = start_in_memory();
        // Sequential connect/use/close cycles: a daemon that leaked one
        // registry entry (and fd) per accepted connection would end
        // this loop with 40 entries; the pruned registry ends empty.
        for i in 0..40 {
            let mut client = Client::connect(server.addr()).unwrap();
            if i % 2 == 0 {
                assert!(client.ping().unwrap());
            }
            // Odd cycles drop without a single frame: abrupt close.
        }
        // An abrupt close can reach the listener after the registry
        // reads empty: wait for every accept before checking the drain.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while server.connections_accepted() < 40 {
            assert!(
                std::time::Instant::now() < deadline,
                "accepted {} of 40 connections",
                server.connections_accepted()
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        while server.open_connections() > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "registry still holds {} entries after 40 closed connections",
                server.open_connections()
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(server.connections_accepted(), 40);
        assert_eq!(server.handler_panics(), 0);
        server.shutdown().unwrap();
    }

    #[test]
    fn persistent_tier_survives_a_server_restart() {
        let dir = std::env::temp_dir().join(format!("clasp-serve-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = || ServiceConfig {
            cache_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        let sreq = ServiceRequest::new(LOOP, machine_text());

        let server = Server::start(
            "127.0.0.1:0",
            Arc::new(CompileService::new(config()).unwrap()),
        )
        .unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let cold = client.compile(&sreq).unwrap();
        server.shutdown().unwrap();

        // A fresh server over the same directory: the reply must be
        // bit-identical and served by promotion, not recompute.
        let server = Server::start(
            "127.0.0.1:0",
            Arc::new(CompileService::new(config()).unwrap()),
        )
        .unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let warm = client.compile(&sreq).unwrap();
        assert_eq!(cold.render(), warm.render());
        let stats = client.stats().unwrap();
        assert!(stats.contains("disk 1 hits"), "{stats}");
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
