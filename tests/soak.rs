//! Soak test for the `clasp-serve` daemon: hundreds of sequential
//! connections plus dozens of concurrent ones, mixed clean and abrupt
//! disconnects, while the connection registry stays bounded, replies
//! stay bit-identical to an in-process service, no handler panics, and
//! shutdown stays graceful with stragglers mid-request.

use clasp::serve::{Client, Server};
use clasp::{CompileService, ServiceRequest};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const LOOPS: [&str; 3] = [
    "loop dot\n\nop n0 load\nop n1 load\nop n2 fmul\nop n3 fadd\n\ndep n0 -> n2\ndep n1 -> n2\ndep n2 -> n3\ndep n3 -> n3 @1\n",
    "loop chain\n\nop n0 load\nop n1 alu\nop n2 alu\nop n3 store\n\ndep n0 -> n1\ndep n1 -> n2\ndep n2 -> n3\n",
    "loop rec\n\nop n0 alu\nop n1 alu\n\ndep n0 -> n1\ndep n1 -> n0 @1\n",
];

fn request(i: usize) -> ServiceRequest {
    ServiceRequest::new(
        LOOPS[i % LOOPS.len()],
        clasp_text::write_machine(&clasp_machine::presets::two_cluster_gp(2, 1)),
    )
}

/// Wait until the daemon has accepted `accepted` connections and its
/// registry holds at most `below`, both under one deadline; returns the
/// registry size. Waiting for the accepts first matters: an abrupt
/// close can reach the listener after the registry already reads empty.
fn wait_for_drain(server: &Server, accepted: u64, below: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.connections_accepted() < accepted && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    loop {
        let open = server.open_connections();
        if open <= below || Instant::now() >= deadline {
            return open;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn daemon_soaks_through_churning_clients_without_leaking() {
    let server = Server::start("127.0.0.1:0", Arc::new(CompileService::in_memory()))
        .expect("bind ephemeral port");
    let addr = server.addr();
    // The reference oracle: the same replies, computed in-process.
    let reference = CompileService::in_memory();

    // Phase 1: hundreds of sequential connections. Round-robin over a
    // clean compare-to-reference compile, a clean ping, and an abrupt
    // drop (connect, say nothing, vanish).
    for i in 0..300 {
        match i % 3 {
            0 => {
                let sreq = request(i);
                let mut client = Client::connect(addr).expect("connect");
                let reply = client.compile(&sreq).expect("compile");
                assert_eq!(
                    reply.render(),
                    reference.handle(&sreq).render(),
                    "daemon reply diverged from in-process service at connection {i}"
                );
            }
            1 => {
                let mut client = Client::connect(addr).expect("connect");
                assert!(client.ping().expect("ping"));
            }
            _ => {
                // Abrupt disconnect: no frame, no goodbye.
                drop(TcpStream::connect(addr).expect("connect"));
            }
        }
        // The registry must stay bounded by the clients actually open —
        // here sequential, so a handful at most while handlers race the
        // check.
        assert!(
            server.open_connections() <= 4,
            "registry grew to {} after {} sequential connections",
            server.open_connections(),
            i + 1
        );
    }
    assert_eq!(wait_for_drain(&server, 300, 0), 0, "registry did not drain");
    assert_eq!(server.connections_accepted(), 300);

    // Phase 2: dozens of concurrent clients, half leaving cleanly
    // (dropping the client closes the socket after the last reply),
    // half yanking the stream mid-connection after their replies.
    let divergences = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for worker in 0..24 {
            let divergences = &divergences;
            let reference = &reference;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for round in 0..10 {
                    let sreq = request(worker * 10 + round);
                    let reply = client.compile(&sreq).expect("compile");
                    if reply.render() != reference.handle(&sreq).render() {
                        divergences.fetch_add(1, Ordering::Relaxed);
                    }
                }
                // Half the workers ping a goodbye; half just vanish
                // (drop without further protocol).
                if worker % 2 == 0 {
                    let _ = client.ping();
                }
            });
        }
    });
    assert_eq!(divergences.load(Ordering::Relaxed), 0);
    assert_eq!(
        wait_for_drain(&server, 300 + 24, 0),
        0,
        "registry did not drain"
    );
    assert_eq!(server.connections_accepted(), 300 + 24);
    assert_eq!(server.handler_panics(), 0);

    // Phase 3: graceful shutdown with stragglers mid-request. Start
    // clients that keep issuing compiles, then shut the daemon down
    // under them. Stragglers may see io errors once the daemon stops —
    // but nothing hangs and no handler panics.
    std::thread::scope(|scope| {
        for worker in 0..4 {
            scope.spawn(move || {
                let Ok(mut client) = Client::connect(addr) else {
                    return;
                };
                for round in 0..50 {
                    if client.compile(&request(worker + round)).is_err() {
                        break; // daemon went away mid-soak: expected
                    }
                }
            });
        }
        // Let the stragglers get in flight, then pull the plug.
        std::thread::sleep(Duration::from_millis(30));
        let panics = server.handler_panics();
        server.shutdown().expect("graceful shutdown");
        assert_eq!(panics, 0);
    });
}
