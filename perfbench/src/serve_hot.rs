//! `serve-hot`: a closed loop of one client over one TCP connection to
//! an in-process `clasp::serve::Server`. Set-up compiles a pool of
//! distinct requests once; the timed phase draws repeats uniformly, so
//! every request is a memory-tier hit and no compile layer runs.
//!
//! The untraced run is pinned to one CPU (see [`pin_to_one_cpu`]). In a
//! closed loop the client and the handler never run at the same time, so
//! one CPU loses no work. Unpinned, each round trip wakes a thread on
//! the other CPU, and on a virtual machine that wake-up cost swung
//! throughput by ±15% with the host's load; pinned, one-second samples
//! stayed within ±4%.

use crate::common::{
    repeated_setup, timed_ms, Layers, Measured, RunOptions, SplitMix64, Verdicts, DEFAULT_SEED,
};
use crate::sampling::{arrange_like, Quotas};
use crate::trace::{SelfTimes, Tracer, ITEM};
use clasp::kernel::verify_pipelined_with;
use clasp::loopgen::{generate_stratum, LoopStream, Stratum};
use clasp::machine::MachineSpec;
use clasp::obs::Obs;
use clasp::serve::{read_frame, write_frame, Client, Server};
use clasp::{codec, CompileCache, CompileService, ServiceConfig, ServiceReply, ServiceRequest};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct requests in the pool.
pub const POOL: usize = 512;

/// The two machines requests alternate between.
pub const PRESETS: [&str; 2] = ["4c-gp", "mesh3x3"];

/// Requests in the traced pass.
pub const TRACED_REQUESTS: usize = 20_000;

/// Loops per synthetic stratum in the pool; anchors fill the rest.
pub const POOL_PER_STRATUM: usize = 120;

/// The stream the pool's loops come from, apart from the corpora of the
/// compile workloads.
const STREAM: &str = "perfbench-serve-hot";

/// The generated request pool: wire texts plus what the checks need.
pub struct Pool {
    pub wires: Vec<String>,
    pub machines: Vec<MachineSpec>,
}

impl Pool {
    /// [`POOL_PER_STRATUM`] loops of each synthetic stratum, then
    /// anchors up to [`POOL`]; request `i` targets machine `i % 2`. The
    /// synthetic loops are drawn to the default seed's exact loop sizes
    /// and laid out in its order, so every seed's pool has the same
    /// (size, machine) pairs: its few largest requests set the tail
    /// latency.
    pub fn generate(seed: u64) -> Pool {
        let machines: Vec<MachineSpec> = PRESETS
            .iter()
            .map(|n| clasp::strata::machine_by_name(n).expect("known preset"))
            .collect();
        let machine_texts: Vec<String> = machines.iter().map(clasp_text::write_machine).collect();
        let mut loops = Vec::with_capacity(POOL);
        for stratum in Stratum::SYNTHETIC {
            let sizes: Vec<usize> = LoopStream::new(stratum, DEFAULT_SEED, STREAM)
                .take(POOL_PER_STRATUM)
                .map(|g| g.node_count())
                .collect();
            let profile = Quotas::exact(sizes.iter().map(|&n| (0, n)));
            let mut stream = LoopStream::new(stratum, seed, STREAM);
            let drawn = profile.fill(|| (0, stream.next_loop()));
            loops.extend(arrange_like(&sizes, drawn));
        }
        loops.extend(generate_stratum(
            Stratum::Livermore,
            POOL - loops.len(),
            seed,
        ));
        assert_eq!(loops.len(), POOL, "enough anchors to fill the pool");
        let wires = loops
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let machine = machine_texts[i % machine_texts.len()].clone();
                ServiceRequest::new(clasp_text::write_loop(g), machine).render()
            })
            .collect();
        Pool { wires, machines }
    }

    pub fn label(&self, i: usize) -> String {
        let name = self.wires[i]
            .lines()
            .find_map(|l| l.strip_prefix("loop "))
            .unwrap_or("?");
        format!("request {i} ({name} on {})", PRESETS[i % PRESETS.len()])
    }
}

/// A running daemon and the pool's replies.
pub struct Rig {
    server: Server,
    service: Arc<CompileService>,
    pub references: Vec<String>,
    pub prewarm_ms: f64,
}

impl Rig {
    /// A fresh single-worker service, pre-warmed with every pool request
    /// through the service's wire entry point (the replies are the
    /// references), then a daemon over it.
    fn start(pool: &Pool) -> Rig {
        let service = Arc::new(
            CompileService::new(ServiceConfig {
                threads: 1,
                ..ServiceConfig::default()
            })
            .expect("a memory-only service opens no files"),
        );
        let (references, prewarm_ms) =
            timed_ms(|| pool.wires.iter().map(|w| service.respond(w)).collect());
        let server = Server::start("127.0.0.1:0", Arc::clone(&service)).expect("bind loopback");
        Rig {
            server,
            service,
            references,
            prewarm_ms,
        }
    }

    /// Shut the daemon down, joining its threads.
    pub fn stop(self) {
        if let Err(e) = self.server.shutdown() {
            eprintln!("serve-hot: daemon shutdown failed: {e}");
        }
    }
}

/// Marks a process already pinned by [`pin_to_one_cpu`].
const PINNED_ENV: &str = "PERFBENCH_PINNED_CPU";

/// Re-run this process pinned to its first allowed CPU with `taskset`
/// and return the pinned run's exit code; `None` when this process is
/// already the pinned one, or when `taskset` cannot be run (the run then
/// goes on unpinned, and says so).
pub fn pin_to_one_cpu() -> Option<i32> {
    if std::env::var_os(PINNED_ENV).is_some() {
        return None;
    }
    let cpu = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let list = status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
                .trim()
                .to_string();
            let first = list.split([',', '-']).next()?.to_string();
            Some(first)
        })
        .unwrap_or_else(|| "0".to_string());
    let exe = std::env::current_exe().ok()?;
    match std::process::Command::new("taskset")
        .arg("-c")
        .arg(&cpu)
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .env(PINNED_ENV, &cpu)
        .status()
    {
        Ok(status) => Some(status.code().unwrap_or(1)),
        Err(e) => {
            eprintln!("serve-hot: cannot run taskset ({e}); running unpinned");
            None
        }
    }
}

/// Output check of one pool entry's reference reply: it must decode to
/// an artifact whose kernel re-verifies against sequential semantics.
/// Returns the artifact's II on success.
pub fn check_reference(reply: &str) -> Result<u32, String> {
    let reply = ServiceReply::parse(reply).map_err(|e| format!("reply does not parse: {e}"))?;
    let artifact = reply
        .decode()
        .map_err(|e| format!("reply does not decode: {e}"))?
        .map_err(|e| format!("compile failed: {e}"))?;
    let iterations = artifact
        .report
        .verified_iterations
        .ok_or("reference was not verified by the driver")?;
    verify_pipelined_with(
        &artifact.assignment.graph,
        &artifact.assignment.map,
        &artifact.schedule,
        iterations,
        &artifact.register_model,
    )
    .map_err(|e| format!("decoded kernel fails verification: {e}"))?;
    Ok(artifact.ii())
}

/// Compare one reply with its reference; `None` when byte-identical.
pub fn reply_mismatch(got: &str, reference: &str) -> Option<String> {
    if got.as_bytes() == reference.as_bytes() {
        return None;
    }
    let at = got
        .bytes()
        .zip(reference.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(reference.len()));
    Some(format!(
        "reply differs from the reference at byte {at} ({} vs {} bytes)",
        got.len(),
        reference.len()
    ))
}

/// The untraced run.
pub fn measure(opts: &RunOptions) -> (Measured, Pool, Rig) {
    let mut generate_ms = 0.0;
    let ((pool, rig), setup_s) = repeated_setup(
        || {
            let (pool, ms) = timed_ms(|| Pool::generate(opts.seed));
            generate_ms = ms;
            let rig = Rig::start(&pool);
            (pool, rig)
        },
        |(_, rig)| rig.stop(),
    );
    let mut m = Measured {
        setup_s,
        corpus: format!(
            "{POOL} distinct requests on {} machines, uniform repeats (seed {:#x})",
            PRESETS.len(),
            opts.seed
        ),
        ..Measured::default()
    };
    let mut verdicts = Verdicts::new(POOL);
    let mut times = vec![0u64; POOL];
    let mut draws = SplitMix64::new(opts.seed);
    let mut client = Client::connect(rig.server.addr()).expect("connect to the daemon");
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < opts.seconds {
        for _ in 0..64 {
            let i = draws.below(POOL);
            let s = Instant::now();
            let reply = client.roundtrip(&pool.wires[i]);
            m.latencies_ms.push(s.elapsed().as_secs_f64() * 1e3);
            times[i] += 1;
            match reply {
                Ok(reply) => {
                    if let Some(why) = reply_mismatch(&reply, &rig.references[i]) {
                        verdicts.fail(i, || why);
                    }
                }
                Err(e) => verdicts.fail(i, || format!("round trip failed: {e}")),
            }
        }
    }
    m.timed_s = t0.elapsed().as_secs_f64();
    drop(client);
    m.loopgen_ms = generate_ms;
    let mut verified = 0;
    for (i, &count) in times.iter().enumerate() {
        match check_reference(&rig.references[i]) {
            Ok(ii) => {
                verified += 1;
                let g = clasp_text::parse_loop(
                    &ServiceRequest::parse(&pool.wires[i])
                        .expect("generated request parses")
                        .loop_text,
                )
                .expect("generated loop parses");
                let mii = pool.machines[i % pool.machines.len()].mii(&g);
                for _ in 0..count {
                    m.ii_over_mii.add_ratio(ii, mii);
                }
            }
            Err(why) => verdicts.fail(i, || format!("reference: {why}")),
        }
    }
    let stats = rig.service.stats();
    m.checks.push(format!(
        "every reply byte-identical to its set-up reference; {verified} of {POOL} references decoded and re-verified"
    ));
    m.checks.push(format!(
        "service memory tier: {} hits, {} misses (the {POOL} pre-warm compiles)",
        stats.hits, stats.misses
    ));
    let bad = verdicts.bad_count();
    verdicts.fold_into(&mut m, &times, |i| pool.label(i));
    m.checks.push(format!("{bad} distinct request(s) failed"));
    (m, pool, rig)
}

const SPANS: [&str; 8] = [
    "serve.frame_read",
    "service.parse",
    "text.parse",
    "cache.key",
    "cache.lookup",
    "codec.encode",
    "service.render",
    "serve.frame_write",
];

/// One connection served by the benchmark's own handler loop, every
/// step in its own span. The item span opens once a request's first
/// byte has arrived, so time spent waiting for the client is not
/// counted.
fn handle_traced(
    mut stream: TcpStream,
    service: &CompileService,
    tracer: &Tracer,
) -> Result<(), String> {
    let _ = stream.set_nodelay(true);
    let mut peek = [0u8; 1];
    for i in 0.. {
        match stream.peek(&mut peek) {
            Ok(0) => return Ok(()),
            Ok(_) => {}
            Err(e) => return Err(format!("traced handler: {e}")),
        }
        tracer.span(ITEM, i, || -> Result<(), String> {
            let body = tracer
                .span("serve.frame_read", i, || read_frame(&mut stream))
                .map_err(|e| e.to_string())?
                .ok_or("connection closed mid-frame")?;
            let sreq = tracer
                .span("service.parse", i, || ServiceRequest::parse(&body))
                .map_err(|e| e.to_string())?;
            let (g, machine) = tracer.span("text.parse", i, || {
                (
                    clasp_text::parse_loop(&sreq.loop_text),
                    clasp_text::parse_machine(&sreq.machine_text),
                )
            });
            let g = g.map_err(|e| e.to_string())?;
            let machine = machine.map_err(|e| e.to_string())?;
            tracer.span("cache.key", i, || {
                CompileCache::key(&g, &machine, &sreq.request)
            });
            let result = tracer.span("cache.lookup", i, || {
                service.compile_artifact(&g, &machine, &sreq.request, &Obs::disabled())
            });
            let payload = tracer.span("codec.encode", i, || {
                codec::encode(&result, sreq.request.iterations)
            });
            let reply = tracer.span("service.render", i, || {
                ServiceReply {
                    outcome: Ok(payload),
                    trace: None,
                }
                .render()
            });
            tracer
                .span("serve.frame_write", i, || write_frame(&mut stream, &reply))
                .map_err(|e| e.to_string())
        })?;
    }
    Ok(())
}

/// The traced run: the same draws against the benchmark's own handler
/// over the warm service, every reply checked against its reference.
pub fn traced(
    opts: &RunOptions,
    pool: &Pool,
    rig: &Rig,
    tracer: &Tracer,
) -> Result<(Layers, Duration, usize), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let before = rig.service.stats();
    let mut rtt = Duration::ZERO;
    let mut bytes_out = 0u64;
    let mut payload_bytes = 0u64;
    let (client_result, server_result, wall) = std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let (stream, _) = listener.accept().map_err(|e| e.to_string())?;
            handle_traced(stream, &rig.service, tracer)
        });
        let t0 = Instant::now();
        let client = (|| -> Result<(), String> {
            let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
            let mut draws = SplitMix64::new(opts.seed);
            for _ in 0..TRACED_REQUESTS {
                let i = draws.below(POOL);
                let s = Instant::now();
                let reply = client
                    .roundtrip(&pool.wires[i])
                    .map_err(|e| e.to_string())?;
                rtt += s.elapsed();
                if let Some(why) = reply_mismatch(&reply, &rig.references[i]) {
                    return Err(format!("traced reply to {}: {why}", pool.label(i)));
                }
                bytes_out += 4 + reply.len() as u64;
                payload_bytes += reply
                    .split_once("-- artifact\n")
                    .map_or(0, |(_, p)| p.len() as u64);
            }
            Ok(())
        })();
        let wall = t0.elapsed();
        // The client is dropped here, which ends the handler's loop.
        let server = server.join().expect("traced handler thread panicked");
        (client, server, wall)
    });
    client_result?;
    server_result?;
    let after = rig.service.stats();
    let t = SelfTimes::fold(&tracer.spans())?;
    if let Some(name) = t.unreported(&SPANS).next() {
        return Err(format!("span `{name}` has no layer metric"));
    }
    if t.items != TRACED_REQUESTS {
        return Err(format!(
            "handler saw {} requests, the client sent {TRACED_REQUESTS}",
            t.items
        ));
    }
    let n = TRACED_REQUESTS as f64;
    let hits = after.hits - before.hits;
    let lookups = hits + after.misses - before.misses;
    let mut l = Layers::new();
    l.insert("driver.other_ms", t.per_item_ms(&[ITEM]));
    l.insert("cache.key_us", t.per_item_us(&["cache.key"]));
    l.insert("cache.lookup_us", t.per_item_us(&["cache.lookup"]));
    l.insert("cache.hit_frac", hits as f64 / lookups.max(1) as f64);
    l.insert("cache.payload_kb", payload_bytes as f64 / n / 1024.0);
    l.insert("codec.encode_us", t.per_item_us(&["codec.encode"]));
    l.insert("text.parse_us", t.per_item_us(&["text.parse"]));
    l.insert("service.parse_us", t.per_item_us(&["service.parse"]));
    l.insert("service.render_us", t.per_item_us(&["service.render"]));
    l.insert("service.prewarm_ms", rig.prewarm_ms);
    l.insert("serve.frame_read_us", t.per_item_us(&["serve.frame_read"]));
    l.insert(
        "serve.frame_write_us",
        t.per_item_us(&["serve.frame_write"]),
    );
    l.insert(
        "serve.wire_us",
        (rtt.as_secs_f64() * 1e6 - t.item_ns as f64 / 1e3) / n,
    );
    l.insert("serve.bytes_out", bytes_out as f64 / n);
    Ok((l, wall, TRACED_REQUESTS))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_is_deterministic_per_seed_and_distinct_across_seeds() {
        let a = Pool::generate(1);
        assert_eq!(a.wires.len(), POOL);
        assert_eq!(a.wires, Pool::generate(1).wires);
        assert_ne!(a.wires, Pool::generate(2).wires);
        let distinct: std::collections::HashSet<_> = a.wires.iter().collect();
        assert_eq!(distinct.len(), POOL);
    }

    #[test]
    fn a_flipped_reply_byte_is_caught() {
        let service = CompileService::in_memory();
        let pool = Pool::generate(4);
        let reply = service.respond(&pool.wires[0]);
        assert!(check_reference(&reply).is_ok());
        assert_eq!(reply_mismatch(&reply, &reply), None);
        let mut flipped = reply.clone().into_bytes();
        let at = flipped.len() / 2;
        flipped[at] ^= 0x01;
        let flipped = String::from_utf8(flipped).expect("still ASCII");
        assert!(reply_mismatch(&flipped, &reply).is_some());
    }
}
