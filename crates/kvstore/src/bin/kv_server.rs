//! A standalone soft-memory KV server over TCP.
//!
//! Runs the Redis-like store on its own soft-memory allocator with a
//! fixed budget, so the cache degrades (sheds entries) instead of
//! growing without bound — `maxmemory` semantics out of the box.
//! `--shards N` splits the keyspace over N independent engine threads
//! (one SDS and one worker each), the shard-per-core deployment shape.
//!
//! The network frontend is the event-driven plane (DESIGN.md
//! §network-plane): a small pool of epoll reactors multiplexes every
//! client socket, frames and hash-routes requests to per-shard SPSC
//! rings, and shard workers execute them in batches. It scales to
//! thousands of idle or slow connections without a thread each.
//! `--reactors N` sizes the pool (0 = auto). The server needs Linux
//! epoll; elsewhere it exits with status 2.
//!
//! Unknown options and values that do not parse are rejected with a
//! usage line and exit status 2.
//!
//! ```sh
//! cargo run --release -p softmem-kv --bin kv_server -- --budget-mib 64 --shards 4
//! # in another terminal:
//! cargo run --release -p softmem-kv --bin kv_cli -- 127.0.0.1:<port>
//! ```

use std::str::FromStr;

const USAGE: &str = "usage: kv_server [--budget-mib N] [--shards N] [--listen ADDR] \
     [--reactors N] [--idle-timeout-ms MS] [--write-stall-timeout-ms MS] \
     [--shed-inflight N] [--accept-pause-inflight N] [--smd-socket PATH]";

/// Parsed command line. The fault-plane knobs (deadlines and overload
/// admission control) are all off by default.
struct Opts {
    budget_bytes: usize,
    shards: usize,
    listen: String,
    reactors: usize,
    idle_timeout_ms: Option<u64>,
    write_stall_timeout_ms: Option<u64>,
    shed_inflight: Option<u64>,
    accept_pause_inflight: Option<u64>,
    smd_socket: Option<String>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
    fn num<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
        value
            .parse()
            .map_err(|_| format!("{flag}: cannot parse {value:?}"))
    }
    let mut opts = Opts {
        budget_bytes: 64 << 20,
        shards: 1,
        listen: "127.0.0.1:0".to_string(),
        reactors: 0,
        idle_timeout_ms: None,
        write_stall_timeout_ms: None,
        shed_inflight: None,
        accept_pause_inflight: None,
        smd_socket: None,
    };
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag}: missing value"))?;
        match flag.as_str() {
            "--budget-mib" => {
                opts.budget_bytes = num::<usize>(&flag, &value)?
                    .checked_mul(1 << 20)
                    .ok_or_else(|| format!("{flag}: {value} MiB is out of range"))?
            }
            "--shards" => opts.shards = num::<usize>(&flag, &value)?.max(1),
            "--listen" => opts.listen = value,
            "--reactors" => opts.reactors = num(&flag, &value)?,
            "--idle-timeout-ms" => opts.idle_timeout_ms = Some(num(&flag, &value)?),
            "--write-stall-timeout-ms" => opts.write_stall_timeout_ms = Some(num(&flag, &value)?),
            "--shed-inflight" => opts.shed_inflight = Some(num(&flag, &value)?),
            "--accept-pause-inflight" => opts.accept_pause_inflight = Some(num(&flag, &value)?),
            "--smd-socket" => opts.smd_socket = Some(value),
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    Ok(opts)
}

fn main() {
    match parse_args(std::env::args().skip(1)) {
        Ok(opts) => serve(opts),
        Err(msg) => {
            eprintln!("kv_server: {msg} ({USAGE})");
            std::process::exit(2);
        }
    }
}

#[cfg(not(target_os = "linux"))]
fn serve(_opts: Opts) {
    eprintln!("kv_server: the server needs Linux epoll");
    std::process::exit(2);
}

#[cfg(target_os = "linux")]
fn fail(msg: String) -> ! {
    eprintln!("kv_server: {msg}");
    std::process::exit(1);
}

#[cfg(target_os = "linux")]
fn serve(opts: Opts) {
    use std::sync::Arc;
    use std::time::Duration;

    use softmem_core::{bytes_to_pages, Priority, Sma, SmaConfig};
    use softmem_daemon::uds::UdsProcess;
    use softmem_kv::{ReactorConfig, ReactorFrontend, ShardedStore};

    // Two modes: a fixed standalone budget, or membership of a
    // machine-wide daemon (multiple kv_server processes then share
    // soft memory, reclaiming from each other under pressure).
    let (_daemon_membership, sma) = match &opts.smd_socket {
        Some(socket) => {
            let proc = UdsProcess::connect(socket, "kv-server", SmaConfig::for_testing(0))
                .unwrap_or_else(|e| fail(format!("cannot join the daemon at {socket}: {e}")));
            println!("joined soft memory daemon at {socket}");
            let sma = Arc::clone(proc.sma());
            (Some(proc), sma)
        }
        None => (
            None,
            Sma::with_config(SmaConfig::for_testing(bytes_to_pages(opts.budget_bytes))),
        ),
    };
    let engine = ShardedStore::new(&sma, "keyspace", Priority::new(4), opts.shards);

    let cfg = ReactorConfig {
        reactors: opts.reactors,
        idle_timeout: opts.idle_timeout_ms.map(Duration::from_millis),
        write_stall_timeout: opts.write_stall_timeout_ms.map(Duration::from_millis),
        overload_shed_inflight: opts.shed_inflight,
        overload_accept_inflight: opts.accept_pause_inflight,
        ..ReactorConfig::default()
    };
    let frontend = ReactorFrontend::bind(&opts.listen, Arc::new(engine), cfg)
        .unwrap_or_else(|e| fail(format!("cannot listen on {}: {e}", opts.listen)));
    println!(
        "softmem-kv listening on {} (reactor frontend, soft budget {} MiB, {} shard{})",
        frontend.addr(),
        opts.budget_bytes >> 20,
        opts.shards,
        if opts.shards == 1 { "" } else { "s" }
    );
    println!("commands: GET SET DEL EXISTS DBSIZE KEYS MGET INCR INCRBY APPEND PEXPIRE PTTL PERSIST INFO STATS SHED FLUSHALL SHUTDOWN");

    // The reactors and shard workers do all the work; the main thread
    // just waits for a client to issue SHUTDOWN.
    let stats = frontend.stats();
    while !stats
        .shutdown_requested
        .load(std::sync::atomic::Ordering::Acquire)
    {
        std::thread::sleep(Duration::from_millis(50));
    }
    drop(frontend); // flush + join reactors and workers before exiting
}
