//! End-to-end contract of the `clasp-serve` stack: replies are
//! bit-identical whatever the admission width, however many clients
//! race, and whether the artifact was computed this process or promoted
//! from a persisted tier — and one misbehaving client never takes the
//! daemon down.

use clasp::obs::Obs;
use clasp::serve::{Client, Server};
use clasp::{
    codec, compile_full, CompileRequest, CompileService, RegisterModelKind, ServiceConfig,
    ServiceReply, ServiceRequest,
};
use std::path::PathBuf;
use std::sync::Arc;

mod common;
use common::bench_corpus;

const LOOPS: [&str; 3] = [
    "loop dot\n\nop n0 load\nop n1 load\nop n2 fmul\nop n3 fadd\n\ndep n0 -> n2\ndep n1 -> n2\ndep n2 -> n3\ndep n3 -> n3 @1\n",
    "loop chain\n\nop n0 load\nop n1 alu\nop n2 alu\nop n3 store\n\ndep n0 -> n1\ndep n1 -> n2\ndep n2 -> n3\n",
    "loop rec\n\nop n0 alu\nop n1 alu\n\ndep n0 -> n1\ndep n1 -> n0 @1\n",
];

fn machine_text() -> String {
    clasp_text::write_machine(&clasp_machine::presets::two_cluster_gp(2, 1))
}

fn requests() -> Vec<ServiceRequest> {
    LOOPS
        .iter()
        .map(|l| {
            let mut sreq = ServiceRequest::new(*l, machine_text());
            sreq.request.register_model = RegisterModelKind::Rotating;
            sreq.request.iterations = 12;
            sreq
        })
        .collect()
}

fn serve_width(threads: usize) -> Server {
    let service = CompileService::new(ServiceConfig {
        threads,
        ..ServiceConfig::default()
    })
    .expect("memory-only service");
    Server::start("127.0.0.1:0", Arc::new(service)).expect("bind ephemeral port")
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clasp-service-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn replies_are_invariant_across_admission_width_and_racing_clients() {
    // Reference replies: width-1 daemon, one client, serial.
    let narrow = serve_width(1);
    let mut client = Client::connect(narrow.addr()).unwrap();
    let reference: Vec<String> = requests()
        .iter()
        .map(|r| client.compile(r).unwrap().render())
        .collect();
    narrow.shutdown().unwrap();

    // Wide daemon, four clients racing the same requests from threads:
    // every reply must be byte-for-byte the reference.
    let wide = serve_width(4);
    let addr = wide.addr();
    let reference = Arc::new(reference);
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let reference = Arc::clone(&reference);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for (sreq, expected) in requests().iter().zip(reference.iter()) {
                    let reply = client.compile(sreq).unwrap().render();
                    assert_eq!(&reply, expected, "reply diverged under contention");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }
    wide.shutdown().unwrap();
}

#[test]
fn cold_and_persisted_warm_daemons_answer_identically() {
    let dir = tmpdir("cold-warm");
    let config = || ServiceConfig {
        cache_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };

    let cold_server = Server::start(
        "127.0.0.1:0",
        Arc::new(CompileService::new(config()).unwrap()),
    )
    .unwrap();
    let mut client = Client::connect(cold_server.addr()).unwrap();
    let cold: Vec<String> = requests()
        .iter()
        .map(|r| client.compile(r).unwrap().render())
        .collect();
    cold_server.shutdown().unwrap();

    let warm_server = Server::start(
        "127.0.0.1:0",
        Arc::new(CompileService::new(config()).unwrap()),
    )
    .unwrap();
    let mut client = Client::connect(warm_server.addr()).unwrap();
    for (sreq, expected) in requests().iter().zip(&cold) {
        assert_eq!(
            &client.compile(sreq).unwrap().render(),
            expected,
            "promoted reply diverged from computed"
        );
    }
    let stats = client.stats().unwrap();
    assert!(
        stats.contains(&format!("disk {} hits", requests().len())),
        "every warm reply must come from the persisted tier: {stats}"
    );
    warm_server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_misbehaving_client_is_isolated_and_shutdown_stays_graceful() {
    let server = serve_width(2);
    let addr = server.addr();

    // One client floods garbage: oversized frame announcements, raw
    // bytes, a malformed compile body.
    {
        use std::io::Write as _;
        let mut rogue = std::net::TcpStream::connect(addr).unwrap();
        rogue.write_all(&u32::MAX.to_be_bytes()).unwrap();
        // Connection is dropped by the server; writing more may fail,
        // which is the rogue's problem, not the daemon's.
        let _ = rogue.write_all(b"leftover noise");
    }
    let mut rude = Client::connect(addr).unwrap();
    let reply = rude
        .roundtrip("clasp-serve/1 compile\nnot a header\n")
        .unwrap();
    assert!(reply.contains("bad-request"));

    // A healthy client on the same daemon is unaffected.
    let mut client = Client::connect(addr).unwrap();
    assert!(client.ping().unwrap());
    let ok = client.compile(&requests()[0]).unwrap();
    assert!(ok.outcome.is_ok());

    // Graceful shutdown with idle connections (`rude`, `client`) still
    // open: the daemon must not hang waiting on them.
    server.shutdown().unwrap();
    assert!(
        Client::connect(addr).is_err() || {
            // The listener may linger briefly on some platforms; a
            // connect that succeeds must at least fail to round-trip.
            let mut c = Client::connect(addr).unwrap();
            c.ping().is_err()
        },
        "daemon must stop serving after shutdown"
    );
}

/// `machine` rendered under the display name `name`.
fn machine_named(name: &str) -> String {
    let mut text = String::new();
    clasp_text::write_machine_named_into(
        &clasp_machine::presets::two_cluster_gp(2, 1),
        name,
        &mut text,
    )
    .unwrap();
    text
}

#[test]
fn replies_are_a_pure_function_of_the_request() {
    // Same-shaped machines under two names: `bar`'s reply must not
    // depend on whether `foo` was served first.
    let foo = ServiceRequest::new(LOOPS[0], machine_named("foo"));
    let bar = ServiceRequest::new(LOOPS[0], machine_named("bar"));
    let fresh = CompileService::in_memory().handle(&bar).render();
    assert!(fresh.contains("\nmachine bar\n"), "{fresh}");

    let service = CompileService::in_memory();
    assert!(service.handle(&foo).render().contains("\nmachine foo\n"));
    assert_eq!(
        service.handle(&bar).render(),
        fresh,
        "`bar` was answered from `foo`'s entry"
    );
}

#[test]
fn wire_and_in_process_keys_never_collide() {
    // The wire request carries exactly the texts the in-process key
    // streams: the canonical loop and the name-normalized machine.
    let g = clasp_text::parse_loop(LOOPS[0]).unwrap();
    let machine_text = machine_named("#");
    assert!(machine_text.starts_with("machine _\n"), "{machine_text}");
    let machine = clasp_text::parse_machine(&machine_text).unwrap();
    let sreq = ServiceRequest::new(clasp_text::write_loop(&g), machine_text);

    let service = CompileService::in_memory();
    let reply = service.handle(&sreq);
    let artifact = service.compile_artifact(&g, &machine, &sreq.request, &Obs::disabled());
    let local = clasp::compile_full(&g, &machine, &sreq.request).unwrap();

    let served = reply.decode().unwrap().unwrap();
    assert_eq!(served.ii(), local.ii());
    let direct = artifact.as_ref().as_ref().unwrap();
    assert_eq!(direct.ii(), local.ii());
    assert_eq!(
        reply.outcome.as_deref(),
        Ok(codec::encode(&artifact, sreq.request.iterations).as_str()),
        "the wire payload and the in-process artifact must agree"
    );
    assert_eq!(service.stats().misses, 2, "two key spaces, two entries");
}

#[test]
fn a_memory_budget_bounds_the_tier_and_never_changes_a_reply() {
    // Daemon entries hold only their payload, so the memory budget
    // bounds what a daemon holds. Twelve bench-corpus requests under a
    // third of their payload bytes must evict, stay under the budget
    // after every request, and answer each request, evicted ones
    // included, with the unbounded service's bytes.
    let machine_text = clasp_text::write_machine(&clasp_machine::presets::four_cluster_gp(4, 2));
    let wires: Vec<String> = bench_corpus()
        .iter()
        .take(12)
        .map(|g| ServiceRequest::new(clasp_text::write_loop(g), machine_text.clone()).render())
        .collect();
    let unbounded = CompileService::in_memory();
    let reference: Vec<String> = wires.iter().map(|w| unbounded.respond(w)).collect();
    let budget = unbounded.stats().resident_bytes / 3;
    assert!(budget > 0, "payloads are charged to the tier");

    let bounded = CompileService::new(ServiceConfig {
        memory_budget: Some(budget as usize),
        ..ServiceConfig::default()
    })
    .expect("memory-only service");
    let mut misses = 0;
    for pass in 0..2 {
        for (wire, expected) in wires.iter().zip(&reference) {
            assert_eq!(
                &bounded.respond(wire),
                expected,
                "pass {pass}: a bounded reply diverged"
            );
            let stats = bounded.stats();
            assert!(
                stats.resident_bytes <= budget,
                "pass {pass}: {} bytes resident over a {budget}-byte budget",
                stats.resident_bytes
            );
        }
        let stats = bounded.stats();
        assert!(stats.evictions > 0, "pass {pass}: the budget never evicted");
        assert!(
            stats.misses > misses,
            "pass {pass}: no evicted request was compiled again"
        );
        misses = stats.misses;
    }
}

#[test]
fn daemon_replies_equal_in_process_replies_on_the_bench_corpus() {
    // The daemon adds transport, never behavior: for every bench-corpus
    // loop its reply bytes equal the in-process service's on the same
    // wire text, and the served II is the direct compile's. Artifacts
    // are compared by II only: the wire carries the loop as `.clasp`
    // text, which canonicalizes the node labels the generator leaves
    // empty.
    let machine = clasp_machine::presets::four_cluster_gp(4, 2);
    let machine_text = clasp_text::write_machine(&machine);
    let request = CompileRequest {
        restage: false,
        verify: false,
        iterations: 16,
        ..CompileRequest::default()
    };
    let server = Server::start("127.0.0.1:0", Arc::new(CompileService::in_memory())).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let in_process = CompileService::in_memory();
    for g in bench_corpus() {
        let mut sreq = ServiceRequest::new(clasp_text::write_loop(&g), machine_text.clone());
        sreq.request = request;
        let wire = sreq.render();
        let reply = client.roundtrip(&wire).unwrap();
        assert_eq!(
            reply,
            in_process.respond(&wire),
            "{}: daemon reply diverged from the in-process service",
            g.name()
        );
        let served = ServiceReply::parse(&reply)
            .expect("healthy reply")
            .decode()
            .expect("artifact payload");
        let direct = compile_full(&g, &machine, &request);
        assert_eq!(
            served.as_ref().ok().map(|a| a.ii()),
            direct.as_ref().ok().map(|a| a.ii()),
            "{}: served II diverged from the direct compile",
            g.name()
        );
    }
    drop(client);
    server.shutdown().unwrap();
}

#[test]
fn a_table_past_the_cell_bound_is_an_error_payload() {
    // Every dimension inside `clasp_text::limits`, their product not: a
    // 128-op cycle of latency-64 dependences (RecMII 8,192) on 128
    // clusters of 64 GP units asks for 69,214,208 table cells at its
    // first II. The daemon answers with the typed refusal, not an abort.
    let mut cycle = String::from("loop cycle128\n\n");
    for i in 0..128 {
        cycle.push_str(&format!("op n{i} alu\n"));
    }
    for i in 0..127 {
        cycle.push_str(&format!("dep n{i} -> n{} !64\n", i + 1));
    }
    cycle.push_str("dep n127 -> n0 @1 !64\n");
    let machine = "cluster 64gp\n".repeat(128) + "bus 1 ports 1 1\n";
    let server = serve_width(1);
    let mut client = Client::connect(server.addr()).unwrap();
    let reply = client
        .compile(&ServiceRequest::new(cycle, machine))
        .unwrap();
    assert!(
        reply.outcome.as_ref().unwrap().starts_with("error "),
        "{reply:?}"
    );
    assert_eq!(
        reply.decode().unwrap().unwrap_err(),
        clasp::PipelineError::Refused(clasp_sched::SchedFailure::TableTooLarge {
            ii: 8192,
            cells: 69_214_208,
        })
    );
    // The connection and the daemon stay up.
    assert!(client
        .compile(&requests()[0])
        .unwrap()
        .decode()
        .unwrap()
        .is_ok());
    drop(client);
    server.shutdown().unwrap();
}
