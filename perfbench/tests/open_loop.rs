//! The open-loop generator against servers that misbehave on purpose.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use softmem_perfbench::client::{check_backlog, open_loop, Checker, Conn, OpenLoop, Tally};
use softmem_perfbench::gen::{parse_key, Op, Req, Values};

/// A server answering every line with `reply` on two connections. The
/// request for key `stall_key` starts a stall of `stall`: until it
/// ends, no connection replies. Every reply is also delayed by
/// `per_request`.
struct Server {
    conns: Vec<Conn>,
    threads: Vec<JoinHandle<()>>,
}

fn server(reply: &'static [u8], stall_key: u32, stall: Duration, per_request: Duration) -> Server {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stall_until: Arc<Mutex<Option<Instant>>> = Arc::new(Mutex::new(None));
    let acceptor = std::thread::spawn(move || {
        (0..2)
            .map(|_| {
                let (stream, _) = listener.accept().unwrap();
                let stall_until = Arc::clone(&stall_until);
                std::thread::spawn(move || {
                    let mut writer = stream.try_clone().unwrap();
                    for line in BufReader::new(stream).lines() {
                        let Ok(line) = line else { break };
                        let key = line.split(' ').nth(1).and_then(|k| parse_key(k.as_bytes()));
                        if key == Some(stall_key) {
                            *stall_until.lock().unwrap() = Some(Instant::now() + stall);
                        }
                        let until = *stall_until.lock().unwrap();
                        if let Some(t) = until {
                            std::thread::sleep(t.saturating_duration_since(Instant::now()));
                        }
                        std::thread::sleep(per_request);
                        if writer.write_all(reply).is_err() {
                            break;
                        }
                    }
                })
            })
            .collect::<Vec<_>>()
    });
    let conns = vec![Conn::connect(addr).unwrap(), Conn::connect(addr).unwrap()];
    let threads = acceptor.join().unwrap();
    Server { conns, threads }
}

impl Server {
    fn run(mut self, rate: f64, secs: f64) -> Result<Tally, String> {
        let n = (rate * secs) as u32 + 1;
        let reqs: Vec<Req> = (0..n)
            .map(|key| Req {
                op: Op::Set,
                key,
                version: 1,
                len: 16,
            })
            .collect();
        let max_version = vec![1; n as usize];
        let values = Values::new(1);
        let chk = Checker {
            values: &values,
            max_version: &max_version,
            miss_is_failure: true,
            refill: false,
            record_latency: true,
        };
        let cfg = OpenLoop {
            rate,
            duration: Duration::from_secs_f64(secs),
        };
        let r = open_loop(&mut self.conns, &reqs, 0, cfg, &chk);
        drop(self.conns);
        for t in self.threads {
            t.join().unwrap();
        }
        r
    }
}

/// Coordinated omission: a 200 ms stall must be charged to every
/// request scheduled during it, not only to the one that hit it.
#[test]
fn requests_scheduled_during_a_stall_are_charged_the_stall() {
    let stall = Duration::from_millis(200);
    let mut t = server(b"+OK\n", 300, stall, Duration::ZERO)
        .run(1000.0, 1.0)
        .unwrap();
    assert_eq!(t.failed, 0, "{:?}", t.first_error);
    assert_eq!(t.set_ns.len(), 1000);
    let max = t.set_ns.quantile(1.0);
    assert!(
        max >= 180e6,
        "the request that hit the stall waited {max} ns"
    );
    // Requests due in the stall's first 100 ms waited at least the
    // remaining 100 ms; at 1000/s that is about 100 of them.
    let charged = t.set_ns.0.iter().filter(|&&ns| ns >= 100_000_000).count();
    assert!(
        charged >= 80,
        "only {charged} requests were charged the stall"
    );
    // The generator itself kept to its schedule through the stall.
    let lag = t.lag_ns.quantile(0.99);
    assert!(lag < 20e6, "generator lag p99 {lag} ns");
    assert!(t.set_ns.quantile(0.5) < 100e6);
    // The stall ended long before the phase did.
    assert_eq!(t.backlogged, 0);
}

/// A server slower than the offered rate ends the phase backlogged,
/// which fails it, instead of turning an ever-growing queue into
/// numbers.
#[test]
fn a_growing_backlog_fails_the_phase() {
    let t = server(b"+OK\n", u32::MAX, Duration::ZERO, Duration::from_millis(2))
        .run(2000.0, 0.5)
        .unwrap();
    assert_eq!(t.backlogged, 1);
    let err = check_backlog(t.backlogged, 1).unwrap_err();
    assert!(err.contains("backlog grew"), "{err}");
}

/// A server that refuses every request (as an overloaded one sheds
/// load) fails the phase: its replies are timed like any other, so it
/// cannot read as a fast server, and the phase's gate turns the
/// failures into an error instead of numbers.
#[test]
fn error_replies_fail_the_phase() {
    let mut t = server(
        b"-ERR overloaded\n",
        u32::MAX,
        Duration::ZERO,
        Duration::ZERO,
    )
    .run(1000.0, 0.2)
    .unwrap();
    assert_eq!(t.failed, t.attempted);
    assert_eq!(t.set_ns.len() as u64, t.attempted, "every reply is timed");
    assert!(t.set_ns.quantile(0.5) > 0.0);
    let err = t.check("open loop").unwrap_err();
    assert!(err.contains("ERR overloaded"), "{err}");
}
