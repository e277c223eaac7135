//! The network workloads, `net-read` and `squeeze`: an in-process
//! `ReactorFrontend` (1 reactor, 2 shards) driven over loopback TCP by
//! the generators in [`crate::client`]. `squeeze` adds the daemon: the
//! store's allocator belongs to a `UdsProcess` registered with an
//! in-process `UdsSmdServer`, and a co-tenant `UdsProcess` keeps
//! taking and returning a block of pages.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use softmem_core::{MachineMemory, Priority, Sma, SmaConfig, TierConfig};
use softmem_daemon::{Smd, SmdConfig, UdsProcess, UdsSmdServer};
use softmem_kv::{ReactorConfig, ReactorFrontend, ShardedStore, SysIo, WorkerHook};
use softmem_sds::EvictionOrder;

use crate::client::{check_backlog, closed_loop, open_loop, Checker, Conn, OpenLoop, Tally};
use crate::gen::{self, key_bytes, Rng, Stream, Values};
use crate::stats::{median, peak_rss_mib, process_cpu_ns, Report, Samples};
use crate::trace::{self, FrameCounter, SpanLog, TimingSysIo};
use crate::{Args, Outcome, Workload};

const SHARDS: usize = 2;
const CONNS: usize = 2;
const DEPTH: usize = 32;
const STREAM_LEN: usize = 1 << 20;
/// An untraced run alternates this many rounds of a closed-loop phase
/// and an open-loop phase, so both sample the whole run. Latency is
/// the median over rounds of each round's percentile, and peak
/// throughput the median over rounds of the closed-loop phase's rate.
const ROUNDS: usize = 30;
/// Closed-loop phases in each half of a traced run's overhead check,
/// and open-loop rounds after it.
const TRACE_ROUNDS: usize = 5;
const SETUPS: usize = 3;
const REPLAY_REQS: usize = 100_000;
/// Stream requests set aside for warm-up; measurement starts after them.
const WARM_REQS: usize = 200_000;

/// Sizing of one network workload.
struct Plan {
    keys: u32,
    /// Offered rate of the open-loop phase (requests/s), fixed well
    /// below the closed-loop peak.
    rate: f64,
    refill: bool,
    squeeze: Option<Squeeze>,
}

struct Squeeze {
    /// SMD capacity shared by the store and the co-tenant.
    capacity_pages: usize,
    /// Pages the co-tenant takes each round.
    block_pages: usize,
    arena_cap_bytes: usize,
    value_len: u32,
    hot_keys: u32,
}

fn plan(w: Workload) -> Plan {
    match w {
        Workload::NetRead => Plan {
            keys: 100_000,
            rate: 20_000.0,
            refill: false,
            squeeze: None,
        },
        Workload::Squeeze => Plan {
            keys: 400_000,
            rate: 10_000.0,
            refill: true,
            squeeze: Some(Squeeze {
                capacity_pages: 2048,
                block_pages: 256,
                arena_cap_bytes: 256 << 10,
                value_len: 64,
                hot_keys: 60_000,
            }),
        },
        Workload::EmbedMix => unreachable!("embed-mix has no network plane"),
    }
}

/// Generates the stream for a network workload.
pub fn stream(w: Workload, seed: u64) -> Stream {
    let p = plan(w);
    match &p.squeeze {
        None => gen::net_read(seed, p.keys, STREAM_LEN),
        Some(s) => gen::squeeze(seed, p.keys, s.hot_keys, s.value_len, STREAM_LEN),
    }
}

/// The daemon side of `squeeze`. Fields drop in declaration order:
/// the daemon's clients, then its server, and only then the socket
/// directory — the server's `Drop` wakes its accept loop by connecting
/// to the socket file, which must still exist.
struct Daemon {
    cotenant: Arc<UdsProcess>,
    store_proc: Arc<UdsProcess>,
    server: UdsSmdServer,
    _dir: DirGuard,
}

/// Removes its directory (spill logs, the daemon socket) on drop.
struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        if let Err(e) = std::fs::remove_dir_all(&self.0) {
            eprintln!("perfbench: remove {}: {e}", self.0.display());
        }
    }
}

/// A served engine and everything it depends on. Fields drop in
/// declaration order: clients, the frontend (joining its threads), the
/// engine, then the daemon.
struct Served {
    conns: Vec<Conn>,
    frontend: ReactorFrontend,
    engine: Arc<ShardedStore>,
    daemon: Option<Daemon>,
}

fn scratch_dir(args: &Args, tag: &str) -> Result<DirGuard, String> {
    let dir = args.work_dir.join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(DirGuard(dir))
}

/// Builds, preloads, serves and warms one engine. Returns it with the
/// seconds that took.
fn setup(
    args: &Args,
    p: &Plan,
    s: &Stream,
    values: &Values,
    io: Option<Arc<dyn SysIo>>,
    hook: Option<Arc<dyn WorkerHook>>,
    tag: &str,
) -> Result<(Served, f64), String> {
    let t0 = Instant::now();
    let (engine, daemon) = match &p.squeeze {
        None => {
            let sma = Sma::standalone(16 << 10);
            let engine = ShardedStore::new(&sma, "perfbench", Priority::new(4), SHARDS);
            (Arc::new(engine), None)
        }
        Some(sq) => {
            let dir = scratch_dir(args, tag)?;
            let path = dir.0.clone();
            let machine = MachineMemory::unbounded();
            let smd = Smd::new(SmdConfig::new(&machine, sq.capacity_pages).initial_budget(16));
            let sock = path.join("smd.sock");
            let server = UdsSmdServer::bind(smd, &sock).map_err(|e| format!("bind smd: {e}"))?;
            let store_proc = UdsProcess::connect(&sock, "kv", SmaConfig::for_testing(0))
                .map_err(|e| format!("store joins smd: {e}"))?;
            let cotenant = UdsProcess::connect(&sock, "cotenant", SmaConfig::for_testing(0))
                .map_err(|e| format!("co-tenant joins smd: {e}"))?;
            let tier = TierConfig {
                arena_cap_bytes: sq.arena_cap_bytes,
                segment_bytes: 16 << 10,
                // Arena only: with a spill log behind it, reads stalled
                // for 0.1–1.2 s under this co-tenant (see README.md).
                spill_path: None,
            };
            let engine = ShardedStore::with_tier(
                store_proc.sma(),
                "perfbench",
                Priority::new(4),
                EvictionOrder::InsertionOrder,
                SHARDS,
                tier,
            )
            .map_err(|e| format!("tiered store: {e}"))?;
            let d = Daemon {
                cotenant,
                store_proc,
                server,
                _dir: dir,
            };
            (Arc::new(engine), Some(d))
        }
    };
    let mut buf = Vec::with_capacity(128);
    for &(key, len) in &s.preload {
        buf.clear();
        values.value_into(key, 0, len, &mut buf);
        engine
            .set(&key_bytes(key), &buf)
            .map_err(|e| format!("preload key {key}: {e}"))?;
    }
    let cfg = ReactorConfig {
        reactors: 1,
        io: io.unwrap_or_else(|| ReactorConfig::default().io),
        hook,
        ..ReactorConfig::default()
    };
    let frontend = ReactorFrontend::bind("127.0.0.1:0", Arc::clone(&engine), cfg)
        .map_err(|e| format!("bind frontend: {e}"))?;
    let conns = (0..CONNS)
        .map(|_| Conn::connect(frontend.addr()))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connect: {e}"))?;
    let mut served = Served {
        conns,
        frontend,
        engine,
        daemon,
    };
    // Warm-up: a short closed loop over the stream's head.
    let chk = checker(p, s, values, false);
    let (warm, _) = closed_phase(
        &mut served.conns,
        &s.reqs,
        0,
        Duration::from_millis(200),
        &chk,
    );
    if warm.stream_used as usize > WARM_REQS {
        return Err(format!(
            "warm-up used {} requests, more than {WARM_REQS}",
            warm.stream_used
        ));
    }
    warm.check("warm-up")?;
    quiesce(&served.frontend, "warm-up")?;
    Ok((served, t0.elapsed().as_secs_f64()))
}

fn checker<'a>(p: &Plan, s: &'a Stream, values: &'a Values, record: bool) -> Checker<'a> {
    Checker {
        values,
        max_version: &s.max_version,
        miss_is_failure: !p.refill,
        refill: p.refill,
        record_latency: record,
    }
}

/// A closed-loop phase: one thread per connection, `DEPTH` in flight.
/// Returns the tally and the phase's completions per second.
fn closed_phase(
    conns: &mut [Conn],
    reqs: &[gen::Req],
    first: usize,
    dur: Duration,
    chk: &Checker<'_>,
) -> (Tally, f64) {
    let start = Instant::now();
    let deadline = start + dur;
    let n = conns.len();
    std::thread::scope(|sc| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, c)| {
                sc.spawn(move || closed_loop(c, reqs, first + i, n, DEPTH, deadline, chk))
            })
            .collect();
        let mut t = Tally::default();
        for h in handles {
            t.merge(h.join().expect("closed-loop generator thread panicked"));
        }
        let rate = t.completed as f64 / start.elapsed().as_secs_f64();
        (t, rate)
    })
}

/// Waits for the network plane to go idle and checks its reply ledger.
fn quiesce(frontend: &ReactorFrontend, phase: &str) -> Result<(), String> {
    let stats = frontend.stats();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !stats.quiesced() {
        if Instant::now() > deadline {
            return Err(format!("{phase}: network plane did not quiesce"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let (replies, origins) = stats.ledger();
    if replies != origins {
        return Err(format!(
            "{phase}: reply ledger unbalanced: {replies} replies vs {origins} origins"
        ));
    }
    Ok(())
}

/// Tier and daemon health: an empty audit on every shard's tier, no
/// corrupt cold records, and no daemon reconnects.
fn check_tiers(served: &Served) -> Result<(), String> {
    for (i, shard) in served.engine.shards().iter().enumerate() {
        if let Some(tier) = shard.tier() {
            let violations = tier.audit();
            if !violations.is_empty() {
                return Err(format!("shard {i} tier audit: {violations:?}"));
            }
            let corrupt = tier.stats().corruptions;
            if corrupt != 0 {
                return Err(format!("shard {i} tier: {corrupt} corrupt records"));
            }
        }
    }
    if let Some(d) = &served.daemon {
        for p in [&d.store_proc, &d.cotenant] {
            let reconnects = p.metrics().reconnects_total.get();
            if reconnects != 0 {
                return Err(format!("{}: {reconnects} daemon reconnects", p.name()));
            }
        }
    }
    Ok(())
}

/// What the co-tenant saw.
#[derive(Default)]
struct Grants {
    grant_ns: Samples,
    rtt_ns: Samples,
    /// Grants the SMD denied: counted as failed operations, not fatal
    /// (the co-tenant tries again next round).
    denied: u64,
    first_denial: Option<String>,
    rounds_with_targets: u64,
    targets: u64,
    need_pages: u64,
    yielded_pages: u64,
    /// A failed release: fatal.
    first_error: Option<String>,
}

/// The co-tenant: on a seed-derived schedule, takes a block of pages
/// (the SMD reclaims them from the store), holds it, and gives it
/// back. Drains the SMD's decision log every round so it stays
/// bounded.
fn cotenant(d: &Daemon, block: usize, seed: u64, stop: &AtomicBool) -> Grants {
    let mut g = Grants::default();
    let mut rng = Rng::new(seed ^ 0x636f_7465);
    let smd = d.server.smd();
    let mut round = 0u64;
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_micros(5000 + rng.below(15_000)));
        let t0 = Instant::now();
        match d.cotenant.request_range(block, block) {
            Ok(_) => {
                g.grant_ns.push(t0.elapsed().as_nanos() as u64);
                std::thread::sleep(Duration::from_micros(5000 + rng.below(15_000)));
                if let Err(e) = d.cotenant.release_slack(block) {
                    g.first_error.get_or_insert(format!("release: {e}"));
                }
            }
            Err(e) => {
                g.denied += 1;
                g.first_denial.get_or_insert(e.to_string());
            }
        }
        for dec in smd.take_decisions() {
            if !dec.targets.is_empty() {
                g.rounds_with_targets += 1;
                g.targets += dec.targets.len() as u64;
                g.need_pages += dec.need_pages as u64;
                g.yielded_pages += dec
                    .targets
                    .iter()
                    .map(|t| t.yielded_pages as u64)
                    .sum::<u64>();
            }
        }
        round += 1;
        if round.is_multiple_of(8) {
            let t0 = Instant::now();
            if d.cotenant.report_traditional(0).is_ok() {
                g.rtt_ns.push(t0.elapsed().as_nanos() as u64);
            }
        }
    }
    g
}

/// Runs `phase` with the co-tenant squeezing the store (when the
/// workload has one) and returns what the co-tenant saw.
fn with_cotenant<R>(
    daemon: Option<&Daemon>,
    p: &Plan,
    seed: u64,
    phase: impl FnOnce() -> R,
) -> (R, Grants) {
    let (Some(d), Some(sq)) = (daemon, &p.squeeze) else {
        return (phase(), Grants::default());
    };
    let stop = AtomicBool::new(false);
    std::thread::scope(|sc| {
        let h = sc.spawn(|| cotenant(d, sq.block_pages, seed, &stop));
        let r = phase();
        stop.store(true, Ordering::Release);
        (r, h.join().expect("co-tenant thread panicked"))
    })
}

/// The measured phases of a run.
#[derive(Default)]
struct Phases {
    /// Closed-loop phases, merged.
    closed: Tally,
    /// Completions per second of each closed-loop phase.
    closed_rates: Vec<f64>,
    /// One open-loop phase per round.
    open: Vec<Tally>,
}

/// `rounds` rounds of a closed-loop phase of `closed_dur` followed by
/// an open-loop phase of `open_dur` (skipped when zero), beside the
/// co-tenant when the workload has one. Checks outputs and the network
/// plane's ledger after every phase.
#[allow(clippy::too_many_arguments)]
fn measure(
    served: &mut Served,
    p: &Plan,
    s: &Stream,
    values: &Values,
    seed: u64,
    rounds: usize,
    closed_dur: Duration,
    open_dur: Duration,
) -> Result<(Phases, Grants), String> {
    let Served {
        frontend,
        daemon,
        conns,
        ..
    } = served;
    let (r, grants) = with_cotenant(daemon.as_ref(), p, seed, || -> Result<Phases, String> {
        let mut ph = Phases::default();
        let closed_chk = checker(p, s, values, false);
        let open_chk = checker(p, s, values, true);
        let cfg = OpenLoop {
            rate: p.rate,
            duration: open_dur,
        };
        // Each phase picks up the stream where the last one stopped.
        let mut cursor = WARM_REQS;
        for _ in 0..rounds {
            let (closed, rate) = closed_phase(conns, &s.reqs, cursor, closed_dur, &closed_chk);
            closed.check("closed loop")?;
            quiesce(frontend, "closed loop")?;
            cursor += closed.stream_used as usize;
            ph.closed_rates.push(rate);
            ph.closed.merge(closed);
            if open_dur > Duration::ZERO {
                let open = open_loop(conns, &s.reqs, cursor, cfg, &open_chk)?;
                open.check("open loop")?;
                quiesce(frontend, "open loop")?;
                cursor += open.stream_used as usize;
                ph.open.push(open);
            }
        }
        let backlogged = ph.open.iter().map(|t| t.backlogged).sum();
        check_backlog(backlogged, ph.open.len())?;
        Ok(ph)
    });
    let ph = r?;
    if let Some(e) = &grants.first_error {
        return Err(format!("co-tenant: {e}"));
    }
    Ok((ph, grants))
}

/// Median over sub-phases of each sub-phase's `q`-quantile, in µs,
/// with the total sample count.
fn sub_quantile(subs: &mut [Tally], get: bool, q: f64) -> (f64, u64) {
    let mut qs = Vec::with_capacity(subs.len());
    let mut n = 0u64;
    for t in subs.iter_mut() {
        let s = if get { &mut t.get_ns } else { &mut t.set_ns };
        n += s.len() as u64;
        if !s.is_empty() {
            qs.push(s.quantile(q) / 1000.0);
        }
    }
    (median(&qs), n)
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let p = plan(args.workload);
    let s = stream(args.workload, args.seed);
    let values = Values::new(args.seed);

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut served = None;
    for i in 0..SETUPS {
        drop(served.take());
        let (sv, secs) = setup(args, &p, &s, &values, None, None, &format!("setup{i}"))?;
        setup_s.push(secs);
        served = Some(sv);
    }
    let mut served = served.expect("at least one setup");

    let round = Duration::from_secs_f64(args.seconds / ROUNDS as f64);
    let (mut ph, mut grants) = measure(
        &mut served,
        &p,
        &s,
        &values,
        args.seed,
        ROUNDS,
        round.mul_f64(0.3),
        round.mul_f64(0.7),
    )?;
    check_tiers(&served)?;

    let mut r = Report::default();
    r.add("setup_s", median(&setup_s), "s", SETUPS as u64);
    for (name, get, q) in [
        ("get_p50_us", true, 0.5),
        ("get_p90_us", true, 0.9),
        ("get_p99_us", true, 0.99),
        ("set_p50_us", false, 0.5),
        ("set_p90_us", false, 0.9),
        ("set_p99_us", false, 0.99),
    ] {
        let (v, n) = sub_quantile(&mut ph.open, get, q);
        r.add(name, v, "us", n);
    }
    r.add(
        "peak_ops_per_s",
        median(&ph.closed_rates),
        "ops/s",
        ph.closed_rates.len() as u64,
    );
    let mut all = Tally::default();
    all.merge(std::mem::take(&mut ph.closed));
    for t in ph.open.drain(..) {
        all.merge(t);
    }
    let grants_attempted = grants.grant_ns.len() as u64 + grants.denied;
    let attempted = all.attempted + grants_attempted;
    let failed = all.failed + grants.denied;
    r.add(
        "hit_rate",
        all.hits as f64 / all.gets.max(1) as f64,
        "fraction",
        all.gets,
    );
    r.add(
        "error_share",
        failed as f64 / attempted.max(1) as f64,
        "fraction",
        attempted,
    );
    if p.squeeze.is_some() {
        let n = grants.grant_ns.len() as u64;
        r.add(
            "grant_p50_us",
            grants.grant_ns.quantile(0.5) / 1000.0,
            "us",
            n,
        );
        r.add(
            "grant_p99_us",
            grants.grant_ns.quantile(0.99) / 1000.0,
            "us",
            n,
        );
    }
    let lag = all.lag_ns.quantile(0.99) / 1000.0;
    drop(served);
    r.add("peak_rss_mib", peak_rss_mib(), "MiB", 1);
    let mut rates = ph.closed_rates.clone();
    rates.sort_by(f64::total_cmp);
    let mut notes = vec![
        format!("open-loop generator lag p99: {lag:.1} us"),
        // The spread within a run: on a shared host the machine's
        // speed changes between rounds, which moves every metric.
        format!(
            "closed-loop ops/s per round: min {:.0}, median {:.0}, max {:.0}",
            rates[0],
            median(&rates),
            rates[rates.len() - 1]
        ),
    ];
    if p.squeeze.is_some() {
        notes.push(format!(
            "refill SETs refused for want of memory: {}; co-tenant grants denied: {} of {}",
            all.refused_refills, grants.denied, grants_attempted
        ));
    }
    notes.extend(all.first_error.map(|e| format!("first failure: {e}")));
    notes.extend(grants.first_denial.map(|e| format!("first denial: {e}")));
    Ok(Outcome {
        report: r,
        correct: all.mismatches == 0,
        attempted,
        failed,
        notes,
    })
}

/// A fresh engine preloaded like the served one, for the replays.
fn replay_engine(s: &Stream, values: &Values) -> Result<ShardedStore, String> {
    let sma = Sma::standalone(64 << 10);
    let e = ShardedStore::new(&sma, "perfbench-replay", Priority::new(4), SHARDS);
    let mut buf = Vec::new();
    for &(key, len) in &s.preload {
        buf.clear();
        values.value_into(key, 0, len, &mut buf);
        e.set(&key_bytes(key), &buf)
            .map_err(|e| format!("replay preload: {e}"))?;
    }
    Ok(e)
}

/// Syscall counters at one instant, to take deltas over a phase.
#[derive(Clone, Copy, Default)]
struct IoSnap {
    calls: [u64; 5],
    ns: [u64; 5],
    cpu_ns: [u64; 5],
    read_bytes: u64,
}

impl IoSnap {
    /// Adds the counts between snapshots `a` and `b`.
    fn add_delta(&mut self, a: &IoSnap, b: &IoSnap) {
        for k in 0..5 {
            self.calls[k] += b.calls[k] - a.calls[k];
            self.ns[k] += b.ns[k] - a.ns[k];
            self.cpu_ns[k] += b.cpu_ns[k] - a.cpu_ns[k];
        }
        self.read_bytes += b.read_bytes - a.read_bytes;
    }
}

fn io_snap(io: &TimingSysIo) -> IoSnap {
    let all = [&io.read, &io.write, &io.accept, &io.epoll_wait, &io.wake];
    let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
    IoSnap {
        calls: all.map(|c| load(&c.calls)),
        ns: all.map(|c| load(&c.ns)),
        cpu_ns: all.map(|c| load(&c.cpu_ns)),
        read_bytes: load(&io.read.bytes),
    }
}

const READ: usize = 0;
const WRITE: usize = 1;
const ACCEPT: usize = 2;
const EPOLL: usize = 3;
const WAKE: usize = 4;

/// The traced run: per-layer metrics.
pub fn run_traced(args: &Args) -> Result<Outcome, String> {
    let p = plan(args.workload);
    let s = stream(args.workload, args.seed);
    let values = Values::new(args.seed);
    let total = Duration::from_secs_f64(args.seconds);
    let closed_dur = total.mul_f64(0.25);

    // An untraced and a traced engine side by side, their closed-loop
    // phases alternating so both see the same machine conditions: the
    // peak ratio is the tracing overhead, and the traced phases feed
    // the CPU ledger.
    let (mut plain, _) = setup(args, &p, &s, &values, None, None, "plain")?;
    let io = Arc::new(TimingSysIo::default());
    let frames = Arc::new(FrameCounter::new(SHARDS));
    let (mut served, _) = setup(
        args,
        &p,
        &s,
        &values,
        Some(io.clone() as Arc<dyn SysIo>),
        Some(frames.clone() as Arc<dyn WorkerHook>),
        "traced",
    )?;
    let chk = checker(&p, &s, &values, false);
    let phase = closed_dur / TRACE_ROUNDS as u32;
    let (mut plain_rates, mut traced_rates) = (Vec::new(), Vec::new());
    let (mut plain_used, mut closed) = (0usize, Tally::default());
    let (mut cpu, mut wall) = (0u64, 0u64);
    // Syscall counters over the traced phases only (its reactor keeps
    // polling while the untraced side runs).
    let mut ios = IoSnap::default();
    // Alternate which side goes first, so a drift in machine speed
    // cancels out of the ratio.
    for k in 0..2 * TRACE_ROUNDS {
        if (k % 2 == 0) == (k / 2 % 2 == 0) {
            let (t, rate) = closed_phase(
                &mut plain.conns,
                &s.reqs,
                WARM_REQS + plain_used,
                phase,
                &chk,
            );
            t.check("untraced closed loop")?;
            quiesce(&plain.frontend, "untraced closed loop")?;
            plain_used += t.stream_used as usize;
            plain_rates.push(rate);
        } else {
            let (io0, cpu0, wall0) = (io_snap(&io), process_cpu_ns(), Instant::now());
            let (t, rate) = closed_phase(
                &mut served.conns,
                &s.reqs,
                WARM_REQS + closed.stream_used as usize,
                phase,
                &chk,
            );
            cpu += process_cpu_ns() - cpu0;
            wall += wall0.elapsed().as_nanos() as u64;
            ios.add_delta(&io0, &io_snap(&io));
            t.check("traced closed loop")?;
            quiesce(&served.frontend, "traced closed loop")?;
            traced_rates.push(rate);
            closed.merge(t);
        }
    }
    drop(plain);
    let untraced_peak = median(&plain_rates);
    let traced_peak = median(&traced_rates);
    let ops = (closed.attempted - closed.failed).max(1);

    // Open-loop rounds beside the co-tenant, for the generator's lag
    // and the daemon-side counters. Several rounds, as in the untraced
    // run, so one stall at a phase's end does not read as growth.
    let (ph, mut grants) = measure(
        &mut served,
        &p,
        &s,
        &values,
        args.seed,
        TRACE_ROUNDS,
        Duration::from_millis(100),
        total.mul_f64(0.35 / TRACE_ROUNDS as f64),
    )?;
    check_tiers(&served)?;
    let mut lag = Tally::default();
    for t in ph.open {
        lag.merge(t);
    }
    let failed = closed.failed + ph.closed.failed + lag.failed + grants.denied;
    let attempted = closed.attempted
        + ph.closed.attempted
        + lag.attempted
        + grants.denied
        + grants.grant_ns.len() as u64;
    let mismatches = closed.mismatches + ph.closed.mismatches + lag.mismatches;
    let refused_refills = closed.refused_refills + ph.closed.refused_refills + lag.refused_refills;

    // (d) Snapshots of the served engine's layers.
    let net = served.frontend.stats();
    let batches = net.batches_total.load(Ordering::Relaxed);
    let batched = net.batched_requests_total.load(Ordering::Relaxed);
    let route_stalls = net.route_stalls_total.load(Ordering::Relaxed);
    let paused = net.paused_reads_total.load(Ordering::Relaxed);
    let sheds = net.overload_sheds_total.load(Ordering::Relaxed);
    let store = served.engine.stats();
    let callback_ns = served.engine.callback_time().as_nanos() as f64;
    let sma = served.engine.shard(0).sma().stats();
    let mut tier = softmem_core::TierStats::default();
    for sh in served.engine.shards() {
        if let Some(t) = sh.tier() {
            let ts = t.stats();
            tier.demotions += ts.demotions;
            tier.arena_hits += ts.arena_hits;
            tier.disk_hits += ts.disk_hits;
            tier.spill_bytes_written += ts.spill_bytes_written;
            tier.compactions += ts.compactions + ts.spill_compactions;
            tier.corruptions += ts.corruptions;
        }
    }
    let smd = served.daemon.as_ref().map(|d| d.server.smd().stats());
    let reconnects: u64 = served.daemon.as_ref().map_or(0, |d| {
        d.store_proc.metrics().reconnects_total.get() + d.cotenant.metrics().reconnects_total.get()
    });
    drop(served);

    // (b) Replay through the protocol path on an identically preloaded
    // engine, one span per layer call.
    let clock = trace::clock_cost_ns();
    let mut spans = SpanLog::default();
    let replay = &s.reqs[..REPLAY_REQS.min(s.reqs.len())];
    trace::replay_protocol(
        &replay_engine(&s, &values)?,
        &values,
        replay,
        p.refill,
        &mut spans,
    )?;
    trace::replay_typed(
        &replay_engine(&s, &values)?,
        &values,
        replay,
        p.refill,
        &mut spans,
    )?;
    let frames_replayed = spans.count("protocol.frame").max(1);
    let protocol_ns_per_frame = spans.total_ns(
        &[
            "protocol.frame",
            "protocol.parse",
            "store.execute_get",
            "store.execute_set",
            "protocol.encode",
        ],
        clock,
    ) / frames_replayed as f64;

    // (c) Micro-replays at the workload's sizes.
    let sizes: Vec<u32> = s.preload.iter().take(1024).map(|&(_, len)| len).collect();
    let tier_cfg = p.squeeze.as_ref().map(|sq| TierConfig {
        arena_cap_bytes: sq.arena_cap_bytes,
        segment_bytes: 16 << 10,
        spill_path: None,
    });
    let micro = trace::micro(&sizes, p.keys, tier_cfg, args.seed)?;

    let d = |k: usize| ios.calls[k] as f64;
    let dns = |k: usize| ios.ns[k] as f64;
    let syscall_cpu_ns: u64 = ios.cpu_ns.iter().sum();
    let cpu_per_op_ns = (cpu.saturating_sub(closed.gen_cpu_ns)) as f64 / ops as f64;
    let attributed = protocol_ns_per_frame + syscall_cpu_ns as f64 / ops as f64;

    let mut r = Report::default();
    let opsf = ops as f64;
    r.add(
        "reactor.syscalls_per_op",
        (d(READ) + d(WRITE) + d(ACCEPT) + d(EPOLL) + d(WAKE)) / opsf,
        "1/op",
        ops,
    );
    r.add(
        "reactor.read_ns",
        dns(READ) / d(READ).max(1.0),
        "ns",
        d(READ) as u64,
    );
    r.add(
        "reactor.write_ns",
        dns(WRITE) / d(WRITE).max(1.0),
        "ns",
        d(WRITE) as u64,
    );
    r.add(
        "reactor.bytes_per_read",
        ios.read_bytes as f64 / d(READ).max(1.0),
        "B",
        d(READ) as u64,
    );
    r.add("reactor.wakes_per_op", d(WAKE) / opsf, "1/op", ops);
    r.add(
        "reactor.epoll_wait_share",
        dns(EPOLL) / wall as f64,
        "fraction",
        d(EPOLL) as u64,
    );
    r.add(
        "reactor.batch_mean",
        batched as f64 / batches.max(1) as f64,
        "frames",
        batches,
    );
    r.add("reactor.route_stalls", route_stalls as f64, "count", 0);
    r.add("reactor.paused_reads", paused as f64, "count", 0);
    r.add("reactor.overload_sheds", sheds as f64, "count", 0);
    r.add("worker.frames_skew", frames.skew(), "ratio", 0);
    for (name, layer) in [
        ("protocol.frame_ns", "protocol.frame"),
        ("protocol.parse_ns", "protocol.parse"),
        ("protocol.encode_ns", "protocol.encode"),
        ("store.execute_get_ns", "store.execute_get"),
        ("store.execute_set_ns", "store.execute_set"),
        ("store.get_into_ns", "store.get_into"),
        ("store.set_ns", "store.set"),
        ("store.del_ns", "store.del"),
    ] {
        let (v, n) = spans.mean_ns(layer, clock);
        r.add(name, v, "ns", n);
    }
    crate::add_store_metrics(&mut r, &store, callback_ns);
    crate::add_micro_metrics(&mut r, &micro, p.squeeze.is_some());
    crate::add_sma_metrics(&mut r, &sma, store.reclaimed_entries, callback_ns);
    crate::add_tier_metrics(&mut r, &tier);
    let (rounds, grants_total, denials) = smd.map_or((0, 0, 0), |st| {
        (st.reclaim_rounds_total, st.grants_total, st.denials_total)
    });
    r.add("smd.rounds", rounds as f64, "count", 0);
    r.add("smd.grants", grants_total as f64, "count", 0);
    r.add("smd.denials", denials as f64, "count", 0);
    r.add(
        "smd.over_reclaim_ratio",
        grants.yielded_pages as f64 / grants.need_pages.max(1) as f64,
        "ratio",
        grants.rounds_with_targets,
    );
    r.add(
        "smd.targets_per_round",
        grants.targets as f64 / grants.rounds_with_targets.max(1) as f64,
        "1/round",
        grants.rounds_with_targets,
    );
    let n = grants.grant_ns.len() as u64;
    r.add(
        "smd.grant_p50_us",
        grants.grant_ns.quantile(0.5) / 1000.0,
        "us",
        n,
    );
    r.add(
        "smd.grant_p99_us",
        grants.grant_ns.quantile(0.99) / 1000.0,
        "us",
        n,
    );
    let n = grants.rtt_ns.len() as u64;
    r.add("uds.rtt_us", grants.rtt_ns.quantile(0.5) / 1000.0, "us", n);
    r.add("uds.reconnects", reconnects as f64, "count", 0);
    let n = lag.lag_ns.len() as u64;
    r.add(
        "gen.lag_p99_us",
        lag.lag_ns.quantile(0.99) / 1000.0,
        "us",
        n,
    );
    r.add(
        "trace.overhead_share",
        1.0 - traced_peak / untraced_peak,
        "fraction",
        2,
    );
    r.add("ledger.cpu_us_per_op", cpu_per_op_ns / 1000.0, "us", ops);
    r.add(
        "ledger.unattributed_share",
        1.0 - attributed / cpu_per_op_ns,
        "fraction",
        ops,
    );

    let path = args
        .work_dir
        .join(format!("spans-{}-{}.tsv", args.workload.name(), args.seed));
    spans
        .write_to(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let mut notes = vec![
        format!("spans: {} written to {}", spans.spans.len(), path.display()),
        format!(
            "peak ops/s untraced {untraced_peak:.0}, traced {traced_peak:.0}; clock read {clock:.1} ns"
        ),
    ];
    if p.squeeze.is_some() {
        notes.push(format!(
            "refill SETs refused for want of memory: {refused_refills}; co-tenant grants denied: {}",
            grants.denied
        ));
    }
    Ok(Outcome {
        report: r,
        correct: mismatches == 0,
        attempted,
        failed,
        notes,
    })
}
