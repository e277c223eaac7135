//! Connection scaling — what the event-driven network plane buys over
//! thread-per-connection, reported as `BENCH_conn.json`.
//!
//! For each client count the harness binds a fresh 4-shard engine
//! behind one of two servers, dials that many real localhost sockets
//! with the multiplexed `Swarm` load generator, and drives a pipelined
//! GET/SET mix for a fixed wall-clock window. The library's reactor
//! frontend is swept up to 8192 concurrent clients; the baseline, a
//! minimal blocking thread-per-connection server private to this bench
//! (`threads` below), is swept up to 1024 (its practical ceiling — a
//! thread and two fds per client). Aggregate ops/s and sampled
//! p50/p99/p999 latency per point are the evidence.
//!
//! Run: `cargo run --release -p softmem-bench --bin conn_scaling`
//! Options: `--quick` (CI preset: caps the sweep at 1024 clients,
//! shorter windows), `--check` (exit non-zero unless the reactor
//! sustained every point without an I/O error or server-side close
//! AND beat the thread-per-connection baseline's aggregate ops/s at
//! 1024 clients by the gate ratio), `--out PATH` (default
//! `BENCH_conn.json`).

#[cfg(not(target_os = "linux"))]
fn main() {
    eprintln!("conn_scaling requires Linux (epoll reactor frontend + swarm client)");
}

#[cfg(target_os = "linux")]
fn main() {
    linux::run()
}

#[cfg(target_os = "linux")]
mod linux {
    use std::sync::Arc;
    use std::time::Duration;

    use softmem_core::{Priority, Sma};
    use softmem_kv::{ReactorConfig, ReactorFrontend, RunOpts, ShardedStore, Swarm};

    /// Engine shards behind every configuration.
    const SHARDS: usize = 4;
    /// Outstanding requests per client.
    const PIPELINE: usize = 8;
    /// Shared keyspace the fleet churns.
    const KEYSPACE: u64 = 1024;
    /// Value bytes per SET.
    const VALUE_LEN: usize = 64;
    /// The CI gate: reactor aggregate ops/s must beat the thread
    /// baseline by this factor at [`GATE_CLIENTS`] clients.
    const GATE_RATIO: f64 = 1.5;
    const GATE_CLIENTS: usize = 1024;

    struct Point {
        frontend: &'static str,
        clients: usize,
        sent: u64,
        received: u64,
        elapsed: Duration,
        p50_ns: u64,
        p99_ns: u64,
        p999_ns: u64,
        error_replies: u64,
        io_errors: u64,
        disconnects: u64,
    }

    impl Point {
        fn ops_per_sec(&self) -> f64 {
            self.received as f64 / self.elapsed.as_secs_f64().max(1e-9)
        }

        fn clean(&self) -> bool {
            self.io_errors == 0 && self.disconnects == 0 && self.received > 0
        }

        fn json(&self) -> String {
            format!(
                "{{\"frontend\":\"{}\",\"clients\":{},\"sent\":{},\"received\":{},\
                 \"elapsed_ms\":{},\"ops_per_sec\":{:.0},\"p50_ns\":{},\"p99_ns\":{},\
                 \"p999_ns\":{},\"error_replies\":{},\"io_errors\":{},\"disconnects\":{}}}",
                self.frontend,
                self.clients,
                self.sent,
                self.received,
                self.elapsed.as_millis(),
                self.ops_per_sec(),
                self.p50_ns,
                self.p99_ns,
                self.p999_ns,
                self.error_replies,
                self.io_errors,
                self.disconnects,
            )
        }
    }

    fn percentile(sorted: &[u64], p: f64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        sorted[((sorted.len() - 1) as f64 * p).round() as usize]
    }

    /// Drives `clients` connections against `addr` for `window`,
    /// returning the aggregate throughput/latency point. The swarm is
    /// single-threaded and shares the core with the server — identical
    /// overhead for both frontends, so the comparison stays fair.
    fn drive(
        frontend: &'static str,
        addr: std::net::SocketAddr,
        clients: usize,
        window: Duration,
    ) -> Point {
        let mut swarm = Swarm::connect(addr, clients).expect("swarm connect");
        let opts = RunOpts {
            per_client: u64::MAX,
            pipeline: PIPELINE,
            deadline: Some(window),
            latency_sample_every: 64,
        };
        let report = swarm.run(&opts, |client, req, out| {
            let k = ((client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ req) % KEYSPACE;
            if req % 3 == 0 {
                out.extend_from_slice(format!("GET conn:{k:04}\n").as_bytes());
            } else {
                out.extend_from_slice(format!("SET conn:{k:04} ").as_bytes());
                out.resize(out.len() + VALUE_LEN, b'v');
                out.push(b'\n');
            }
        });
        // Collect stragglers so sent == received and the elapsed
        // window (not the tail drain) is what throughput is judged on.
        let tail = swarm.drain(Duration::from_secs(10));
        let mut lats = report.latencies_ns;
        lats.extend(tail.latencies_ns);
        lats.sort_unstable();
        Point {
            frontend,
            clients,
            sent: report.sent + tail.sent,
            received: report.received + tail.received,
            elapsed: report.elapsed,
            p50_ns: percentile(&lats, 0.50),
            p99_ns: percentile(&lats, 0.99),
            p999_ns: percentile(&lats, 0.999),
            error_replies: report.error_replies + tail.error_replies,
            io_errors: report.io_errors + tail.io_errors,
            disconnects: report.disconnects + tail.disconnects,
        }
    }

    fn engine(sma: &Arc<Sma>) -> ShardedStore {
        ShardedStore::new(sma, "bench", Priority::new(4), SHARDS)
    }

    fn reactor_point(clients: usize, window: Duration) -> Point {
        let sma = Sma::standalone(2048);
        let fe = ReactorFrontend::bind(
            "127.0.0.1:0",
            Arc::new(engine(&sma)),
            ReactorConfig::default(),
        )
        .expect("bind reactor frontend");
        drive("reactor", fe.addr(), clients, window)
    }

    fn threads_point(clients: usize, window: Duration) -> Point {
        let sma = Sma::standalone(2048);
        let server = threads::ThreadServer::bind(Arc::new(engine(&sma))).expect("bind threads");
        drive("threads", server.addr(), clients, window)
    }

    pub fn run() {
        let args: Vec<String> = std::env::args().collect();
        let quick = args.iter().any(|a| a == "--quick")
            || std::env::var("SOFTMEM_BENCH_QUICK").is_ok_and(|v| v == "1");
        let check = args.iter().any(|a| a == "--check");
        let out = args
            .iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| "BENCH_conn.json".to_string());

        let window = Duration::from_millis(if quick { 500 } else { 2000 });
        let cap = if quick { 1024 } else { usize::MAX };
        let reactor_sweep: Vec<usize> = [64usize, 256, 1024, 4096, 8192]
            .into_iter()
            .filter(|&c| c <= cap)
            .collect();
        let thread_sweep: Vec<usize> = [64usize, 256, 1024]
            .into_iter()
            .filter(|&c| c <= cap)
            .collect();

        println!("== connection scaling ==");
        println!(
            "{SHARDS}-shard engine, pipeline {PIPELINE}, {KEYSPACE}-key GET/SET mix, \
             {window:?} window per point\n"
        );

        let mut points = Vec::new();
        for &(name, sweep) in &[("reactor", &reactor_sweep), ("threads", &thread_sweep)] {
            for &clients in sweep.iter() {
                let p = if name == "reactor" {
                    reactor_point(clients, window)
                } else {
                    threads_point(clients, window)
                };
                println!(
                    "{:>7} × {:>4} clients: {:>9.0} ops/s  p50 {:>7} ns  p99 {:>8} ns  \
                     p999 {:>9} ns{}",
                    p.frontend,
                    p.clients,
                    p.ops_per_sec(),
                    p.p50_ns,
                    p.p99_ns,
                    p.p999_ns,
                    if p.clean() {
                        String::new()
                    } else {
                        format!(
                            "  [{} io error(s), {} disconnect(s)]",
                            p.io_errors, p.disconnects
                        )
                    },
                );
                points.push(p);
            }
        }

        let ops_at = |frontend: &str, clients: usize| {
            points
                .iter()
                .find(|p| p.frontend == frontend && p.clients == clients)
                .map(|p| p.ops_per_sec())
        };
        let ratio_at_gate = match (
            ops_at("reactor", GATE_CLIENTS),
            ops_at("threads", GATE_CLIENTS),
        ) {
            (Some(r), Some(t)) => r / t.max(1e-9),
            _ => 0.0,
        };
        let reactor_clean = points
            .iter()
            .filter(|p| p.frontend == "reactor")
            .all(Point::clean);
        let gate_passed = reactor_clean && ratio_at_gate >= GATE_RATIO;
        println!(
            "\nreactor vs threads at {GATE_CLIENTS} clients: {ratio_at_gate:.2}x \
             (gate {GATE_RATIO}x) — {}",
            if gate_passed { "PASS" } else { "FAIL" }
        );

        let point_json: Vec<String> = points.iter().map(Point::json).collect();
        let json = format!(
            "{{\"quick\":{quick},\"shards\":{SHARDS},\"pipeline\":{PIPELINE},\
             \"window_ms\":{},\"points\":[{}],\
             \"reactor_vs_threads_at_{GATE_CLIENTS}\":{ratio_at_gate:.2},\
             \"gate_ratio\":{GATE_RATIO},\"reactor_error_free\":{reactor_clean},\
             \"gate_passed\":{gate_passed}}}",
            window.as_millis(),
            point_json.join(","),
        );
        std::fs::write(&out, format!("{json}\n")).expect("write report");
        println!("wrote {out}");

        if check && !gate_passed {
            eprintln!(
                "FAIL: connection-scaling gate — reactor must sweep error-free and \
                 beat the thread baseline by {GATE_RATIO}x at {GATE_CLIENTS} clients \
                 (see {out})"
            );
            std::process::exit(1);
        }
    }

    /// The baseline the reactor is gated against: a minimal blocking
    /// thread-per-connection server. Each connection gets one OS thread
    /// that reads lines with `BufRead::read_line`, hops every keyed
    /// request to its shard's worker thread over a channel, waits on a
    /// one-slot reply channel, and writes the reply with one
    /// `encode_into` + write. Keyless verbs run inline on the
    /// connection thread (the swarm sends only GET/SET).
    mod threads {
        use std::io::{self, BufRead, BufReader, Write};
        use std::net::{SocketAddr, TcpListener, TcpStream};
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::mpsc::{channel, sync_channel, Sender, SyncSender};
        use std::sync::Arc;
        use std::thread::JoinHandle;

        use softmem_kv::protocol::routing_key_of;
        use softmem_kv::{CommandRef, Response, ShardedStore};

        enum Job {
            /// A request line and the one-slot channel for its reply.
            Exec(String, SyncSender<Response>),
            Stop,
        }

        struct Shared {
            engine: Arc<ShardedStore>,
            shards: Vec<Sender<Job>>,
            stop: AtomicBool,
        }

        /// Dropping the server joins every thread it started. A
        /// connection thread ends when its client hangs up, so drop the
        /// clients first (`drive` drops its swarm before returning).
        pub struct ThreadServer {
            addr: SocketAddr,
            shared: Arc<Shared>,
            accept: Option<JoinHandle<()>>,
            workers: Vec<JoinHandle<()>>,
        }

        impl ThreadServer {
            pub fn bind(engine: Arc<ShardedStore>) -> io::Result<Self> {
                let listener = TcpListener::bind("127.0.0.1:0")?;
                let addr = listener.local_addr()?;
                let mut shards = Vec::new();
                let mut workers = Vec::new();
                for shard in 0..engine.shard_count() {
                    let (tx, rx) = channel::<Job>();
                    let engine = Arc::clone(&engine);
                    workers.push(std::thread::spawn(move || {
                        while let Ok(Job::Exec(line, reply)) = rx.recv() {
                            let _ = reply.send(match CommandRef::parse(&line) {
                                Ok(cmd) => engine.execute_at(shard, &cmd),
                                Err(msg) => Response::Error(msg),
                            });
                        }
                    }));
                    shards.push(tx);
                }
                let shared = Arc::new(Shared {
                    engine,
                    shards,
                    stop: AtomicBool::new(false),
                });
                let accept_shared = Arc::clone(&shared);
                let accept = std::thread::spawn(move || {
                    let mut conns = Vec::new();
                    for stream in listener.incoming() {
                        if accept_shared.stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = stream else { break };
                        let shared = Arc::clone(&accept_shared);
                        conns.extend(
                            std::thread::Builder::new()
                                .spawn(move || serve(stream, &shared))
                                .ok(),
                        );
                    }
                    for t in conns {
                        let _ = t.join();
                    }
                });
                Ok(ThreadServer {
                    addr,
                    shared,
                    accept: Some(accept),
                    workers,
                })
            }

            pub fn addr(&self) -> SocketAddr {
                self.addr
            }
        }

        fn serve(stream: TcpStream, shared: &Shared) {
            let _ = stream.set_nodelay(true);
            let Ok(mut writer) = stream.try_clone() else {
                return;
            };
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            let mut out = Vec::new();
            loop {
                line.clear();
                // EOF, an error, or a truncated final line ends the
                // connection; a half frame is never executed.
                match reader.read_line(&mut line) {
                    Ok(_) if line.ends_with('\n') => {}
                    _ => return,
                }
                let frame = line.trim_end_matches(['\r', '\n']);
                if frame.is_empty() {
                    continue;
                }
                let reply = match routing_key_of(frame.as_bytes()) {
                    Some(key) => {
                        let shard = shared.engine.shard_of(key);
                        let (tx, rx) = sync_channel(1);
                        let job = Job::Exec(std::mem::take(&mut line), tx);
                        if shared.shards[shard].send(job).is_err() {
                            return;
                        }
                        match rx.recv() {
                            Ok(reply) => reply,
                            Err(_) => return,
                        }
                    }
                    None => match CommandRef::parse(frame) {
                        Ok(cmd) => shared.engine.execute_at(0, &cmd),
                        Err(msg) => Response::Error(msg),
                    },
                };
                out.clear();
                reply.encode_into(&mut out);
                if writer.write_all(&out).is_err() {
                    return;
                }
            }
        }

        impl Drop for ThreadServer {
            fn drop(&mut self) {
                // Wake the accept loop; it sees the flag and joins its
                // connection threads.
                self.shared.stop.store(true, Ordering::Release);
                drop(TcpStream::connect(self.addr));
                if let Some(t) = self.accept.take() {
                    let _ = t.join();
                }
                for tx in &self.shared.shards {
                    let _ = tx.send(Job::Stop);
                }
                for w in self.workers.drain(..) {
                    let _ = w.join();
                }
            }
        }
    }
}
