//! `clasp-serve` — the compile daemon: accepts `.clasp` + `.machine`
//! compile requests over TCP (length-prefixed frames, see
//! `clasp::serve`) and answers with canonical artifact payloads served
//! through the tiered compile cache.
//!
//! ```text
//! clasp-serve [--addr HOST:PORT] [--threads N] [--cache-dir DIR]
//!             [--memory-budget BYTES]
//!
//! options:
//!   --addr HOST:PORT      bind address (default 127.0.0.1:7117;
//!                         use port 0 for an ephemeral port)
//!   --threads N           max concurrent compiles admitted
//!                         (default 0 = one per hardware thread)
//!   --cache-dir DIR       persistent artifact tier: results survive
//!                         restarts and are shared between processes
//!   --memory-budget BYTES byte budget for the in-memory tier: the
//!                         reply payload bytes held (default unbounded)
//! ```
//!
//! On startup the daemon prints `clasp-serve listening on ADDR` to
//! stdout (with the actual port when an ephemeral one was requested) so
//! scripts can scrape the address, then serves until a client sends the
//! `shutdown` verb.

use clasp::serve::Server;
use clasp::service::{CompileService, ServiceConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = String::from("127.0.0.1:7117");
    let mut config = ServiceConfig::default();
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Option<String> {
            *i += 1;
            args.get(*i).cloned()
        };
        let result: Result<(), String> = match args[i].as_str() {
            "--addr" => take(&mut i)
                .map(|v| addr = v)
                .ok_or("--addr needs host:port".into()),
            "--threads" => take(&mut i)
                .and_then(|v| v.parse().ok())
                .map(|v| config.threads = v)
                .ok_or("--threads needs a number".into()),
            "--cache-dir" => take(&mut i)
                .map(|v| config.cache_dir = Some(v.into()))
                .ok_or("--cache-dir needs a directory".into()),
            "--memory-budget" => take(&mut i)
                .and_then(|v| v.parse().ok())
                .map(|v| config.memory_budget = Some(v))
                .ok_or("--memory-budget needs a byte count".into()),
            other => Err(format!("unknown option `{other}`")),
        };
        if let Err(e) = result {
            eprintln!("error: {e}");
            eprintln!(
                "usage: clasp-serve [--addr HOST:PORT] [--threads N] \
                 [--cache-dir DIR] [--memory-budget BYTES]"
            );
            return ExitCode::from(2);
        }
        i += 1;
    }

    let service = match CompileService::new(config) {
        Ok(s) => std::sync::Arc::new(s),
        Err(e) => {
            eprintln!("error: opening the cache directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::start(addr.as_str(), service) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: binding {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("clasp-serve listening on {}", server.addr());
    // Scripts wait for the line above before connecting.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.join();
    ExitCode::SUCCESS
}
