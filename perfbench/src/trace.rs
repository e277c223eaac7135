//! The traced run's instruments. Every layer is timed from outside,
//! around calls into its public functions and through its public
//! seams (`ReactorConfig::io`, `ReactorConfig::hook`); nothing inside
//! the program changes.

use std::collections::HashMap;
use std::fs::File;
use std::hint::black_box;
use std::io::{self, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use softmem_core::{ColdTier, Priority, Sma, TierConfig};
use softmem_kv::protocol::next_frame;
use softmem_kv::reactor::{Event, Poller};
use softmem_kv::{CommandRef, RealSysIo, ShardedStore, SysIo, WorkerHook};
use softmem_sds::SoftHashMap;

use crate::gen::{key_bytes, key_into, Op, Req, Rng, Values};
use crate::stats::thread_cpu_ns;

/// Count, time and bytes of one syscall kind. `ns` is wall time in
/// the call; `cpu_ns` the calling thread's CPU time, which leaves out
/// other threads that run while this one is descheduled inside the
/// call (a loopback write wakes its reader on the same CPU).
#[derive(Default, Debug)]
pub struct CallStats {
    pub calls: AtomicU64,
    pub ns: AtomicU64,
    pub cpu_ns: AtomicU64,
    pub bytes: AtomicU64,
}

impl CallStats {
    fn record(&self, t0: Instant, cpu0: u64, bytes: usize) {
        self.cpu_ns.fetch_add(thread_cpu_ns() - cpu0, Relaxed);
        self.calls.fetch_add(1, Relaxed);
        self.ns.fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        self.bytes.fetch_add(bytes as u64, Relaxed);
    }
}

/// Starts timing a call: wall clock and thread CPU clock.
fn start() -> (Instant, u64) {
    (Instant::now(), thread_cpu_ns())
}

/// A [`SysIo`] that times every call it forwards to [`RealSysIo`].
#[derive(Default, Debug)]
pub struct TimingSysIo {
    pub read: CallStats,
    pub write: CallStats,
    pub accept: CallStats,
    pub epoll_wait: CallStats,
    pub wake: CallStats,
}

impl SysIo for TimingSysIo {
    fn read(&self, stream: &TcpStream, buf: &mut [u8]) -> io::Result<usize> {
        let (t0, c0) = start();
        let r = RealSysIo.read(stream, buf);
        self.read.record(t0, c0, *r.as_ref().unwrap_or(&0));
        r
    }

    fn write(&self, stream: &TcpStream, buf: &[u8]) -> io::Result<usize> {
        let (t0, c0) = start();
        let r = RealSysIo.write(stream, buf);
        self.write.record(t0, c0, *r.as_ref().unwrap_or(&0));
        r
    }

    fn accept(&self, listener: &TcpListener) -> io::Result<(TcpStream, SocketAddr)> {
        let (t0, c0) = start();
        let r = RealSysIo.accept(listener);
        self.accept.record(t0, c0, 0);
        r
    }

    fn epoll_wait(&self, poller: &Poller, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        let (t0, c0) = start();
        let r = RealSysIo.epoll_wait(poller, out, timeout_ms);
        self.epoll_wait.record(t0, c0, 0);
        r
    }

    fn wake(&self, efd: &File) -> io::Result<()> {
        let (t0, c0) = start();
        let r = RealSysIo.wake(efd);
        self.wake.record(t0, c0, 8);
        r
    }
}

/// Counts the frames each shard worker executes.
#[derive(Debug)]
pub struct FrameCounter {
    pub per_shard: Vec<AtomicU64>,
}

impl FrameCounter {
    pub fn new(shards: usize) -> Self {
        FrameCounter {
            per_shard: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Busiest shard's frames over the mean (1.0 is perfectly even).
    pub fn skew(&self) -> f64 {
        let counts: Vec<u64> = self.per_shard.iter().map(|c| c.load(Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let max = *counts.iter().max().unwrap_or(&0);
        max as f64 * counts.len() as f64 / total as f64
    }
}

impl WorkerHook for FrameCounter {
    fn before_execute(&self, shard: usize, _frame: &[u8]) {
        self.per_shard[shard].fetch_add(1, Relaxed);
    }
}

/// One recorded span: a layer call on behalf of request `req`.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub req: u32,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory for the whole run and written at the end.
#[derive(Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// Mean duration (ns) of spans of `layer`, less the cost of the
    /// clock reads that bound it; with the sample count.
    pub fn mean_ns(&self, layer: &str, clock_ns: f64) -> (f64, u64) {
        let (sum, n) = self
            .spans
            .iter()
            .filter(|s| s.layer == layer)
            .fold((0u64, 0u64), |(s, n), sp| {
                (s + (sp.end_ns - sp.start_ns), n + 1)
            });
        if n == 0 {
            return (0.0, 0);
        }
        ((sum as f64 / n as f64 - clock_ns).max(0.0), n)
    }

    /// Number of spans of `layer`.
    pub fn count(&self, layer: &str) -> u64 {
        self.spans.iter().filter(|s| s.layer == layer).count() as u64
    }

    /// Summed duration (ns) of spans in `layers`, each less the clock
    /// cost.
    pub fn total_ns(&self, layers: &[&str], clock_ns: f64) -> f64 {
        self.spans
            .iter()
            .filter(|s| layers.contains(&s.layer))
            .map(|s| ((s.end_ns - s.start_ns) as f64 - clock_ns).max(0.0))
            .sum()
    }

    /// Writes `req layer start_ns end_ns` lines to `path`.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        writeln!(w, "req\tlayer\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(w, "{}\t{}\t{}\t{}", s.req, s.layer, s.start_ns, s.end_ns)?;
        }
        w.flush()
    }
}

/// The cost of one `Instant::now()` read, measured in this run, in ns.
pub fn clock_cost_ns() -> f64 {
    let n = 200_000u32;
    let t0 = Instant::now();
    for _ in 0..n {
        black_box(Instant::now());
    }
    t0.elapsed().as_nanos() as f64 / f64::from(n)
}

/// Replays `reqs` on `engine` through the protocol path as the shard
/// worker runs it: framing, parse, execute at the key's shard, encode.
/// Records one span per call, all sharing the request's index; GET
/// misses are followed by a refill SET when `refill` is set.
pub fn replay_protocol(
    engine: &ShardedStore,
    values: &Values,
    reqs: &[Req],
    refill: bool,
    log: &mut SpanLog,
) -> Result<(), String> {
    let epoch = Instant::now();
    let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let mut input = Vec::with_capacity(8192);
    let mut out = Vec::with_capacity(8192);
    let mut pending: Vec<Req> = Vec::new();
    for (i, r) in reqs.iter().enumerate() {
        pending.push(*r);
        while let Some(r) = pending.pop() {
            input.clear();
            out.clear();
            match r.op {
                Op::Get => {
                    input.extend_from_slice(b"GET ");
                    key_into(r.key, &mut input);
                }
                Op::Set => {
                    input.extend_from_slice(b"SET ");
                    key_into(r.key, &mut input);
                    input.push(b' ');
                    values.value_into(r.key, r.version, r.len, &mut input);
                }
                Op::Del | Op::Expire => unreachable!("network streams carry GET and SET only"),
            }
            input.push(b'\n');
            let req = i as u32;
            let t0 = Instant::now();
            let (frame, _used) = next_frame(&input).ok_or("replay frame incomplete")?;
            let t1 = Instant::now();
            let line = std::str::from_utf8(frame).map_err(|e| e.to_string())?;
            let cmd = CommandRef::parse(line)?;
            let t2 = Instant::now();
            let shard = engine.shard_of(cmd.routing_key().ok_or("replay command has no key")?);
            let resp = engine.execute_at(shard, &cmd);
            let t3 = Instant::now();
            resp.encode_into(&mut out);
            let t4 = Instant::now();
            let exec = if r.op == Op::Get {
                "store.execute_get"
            } else {
                "store.execute_set"
            };
            for (layer, a, b) in [
                ("protocol.frame", t0, t1),
                ("protocol.parse", t1, t2),
                (exec, t2, t3),
                ("protocol.encode", t3, t4),
            ] {
                log.spans.push(Span {
                    req,
                    layer,
                    start_ns: ns(a),
                    end_ns: ns(b),
                });
            }
            if r.op == Op::Get && out == b"$-1\n" && refill {
                pending.push(Req {
                    op: Op::Set,
                    version: 0,
                    ..r
                });
            } else if r.op == Op::Get && out.first() != Some(&b'$') {
                return Err(format!("replay GET key {}: unexpected reply", r.key));
            }
        }
    }
    Ok(())
}

/// Replays `reqs` through the typed store API (`get_into`, `set`),
/// then deletes the first keys it touched (`del`); one span per call.
/// Request ids continue after the protocol replay's.
pub fn replay_typed(
    engine: &ShardedStore,
    values: &Values,
    reqs: &[Req],
    refill: bool,
    log: &mut SpanLog,
) -> Result<(), String> {
    let epoch = Instant::now();
    let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let base = reqs.len() as u32;
    let mut key = Vec::with_capacity(16);
    let mut val = Vec::with_capacity(8192);
    let span = |log: &mut SpanLog, req: u32, layer, a, b| {
        log.spans.push(Span {
            req,
            layer,
            start_ns: ns(a),
            end_ns: ns(b),
        })
    };
    for (i, r) in reqs.iter().enumerate() {
        let req = base + i as u32;
        key.clear();
        key_into(r.key, &mut key);
        val.clear();
        let set = |val: &mut Vec<u8>, version| {
            val.clear();
            values.value_into(r.key, version, r.len, val);
        };
        match r.op {
            Op::Get => {
                let t0 = Instant::now();
                let hit = engine.get_into(&key, &mut val);
                let t1 = Instant::now();
                span(log, req, "store.get_into", t0, t1);
                if hit && values.verify(r.key, &val).is_none() {
                    return Err(format!("typed replay GET key {}: wrong bytes", r.key));
                }
                if !hit && refill {
                    set(&mut val, 0);
                    let t0 = Instant::now();
                    let ok = engine.set(&key, &val);
                    span(log, req, "store.set", t0, Instant::now());
                    ok.map_err(|e| format!("typed replay refill: {e}"))?;
                }
            }
            Op::Set => {
                set(&mut val, r.version);
                let t0 = Instant::now();
                let ok = engine.set(&key, &val);
                span(log, req, "store.set", t0, Instant::now());
                ok.map_err(|e| format!("typed replay SET: {e}"))?;
            }
            Op::Del | Op::Expire => unreachable!("network streams carry GET and SET only"),
        }
    }
    for (i, r) in reqs.iter().take(10_000).enumerate() {
        key.clear();
        key_into(r.key, &mut key);
        let t0 = Instant::now();
        black_box(engine.del(&key));
        span(log, base + i as u32, "store.del", t0, Instant::now());
    }
    Ok(())
}

/// Times `n` runs of `f` as one batch; mean ns per run.
fn per_op_ns(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..n {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// Results of the micro-replays, each beside its in-run baseline.
#[derive(Default, Debug)]
pub struct Micro {
    pub sma_alloc_free_ns: f64,
    pub system_alloc_free_ns: f64,
    pub sma_with_bytes_ns: f64,
    pub sma_pin_ns: f64,
    pub map_get_ns: f64,
    pub map_insert_ns: f64,
    pub std_get_ns: f64,
    pub tier_demote_ns: f64,
    pub tier_take_ns: f64,
}

/// Micro-replays at the workload's value sizes `sizes` (cycled):
/// SMA alloc/free, guarded reads and pins against the system
/// allocator; `SoftHashMap` get/insert against `std`'s `HashMap`;
/// and, when `tier` is given, `ColdTier` demote/take.
pub fn micro(
    sizes: &[u32],
    keys: u32,
    tier: Option<TierConfig>,
    seed: u64,
) -> Result<Micro, String> {
    const N: usize = 200_000;
    let mut m = Micro::default();
    let size = |i: usize| sizes[i % sizes.len()] as usize;

    let sma = Sma::standalone(64 << 10);
    let sds = sma.register_sds("perfbench-micro", Priority::new(4));
    // Warm the magazines and the system allocator alike.
    for i in 0..N / 10 {
        let h = sma.alloc_bytes(sds, size(i)).map_err(|e| e.to_string())?;
        sma.free_bytes(h).map_err(|e| e.to_string())?;
        black_box(Vec::<u8>::with_capacity(size(i)));
    }
    let mut err = None;
    m.sma_alloc_free_ns = per_op_ns(N, |i| match sma.alloc_bytes(sds, size(i)) {
        Ok(h) => {
            if let Err(e) = sma.free_bytes(black_box(h)) {
                err = Some(e.to_string());
            }
        }
        Err(e) => err = Some(e.to_string()),
    });
    m.system_alloc_free_ns = per_op_ns(N, |i| {
        black_box(Vec::<u8>::with_capacity(size(i)));
    });
    let live: Vec<_> = (0..4096)
        .map(|i| sma.alloc_bytes(sds, size(i)))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut rng = Rng::new(seed);
    let picks: Vec<usize> = (0..N)
        .map(|_| rng.below(live.len() as u64) as usize)
        .collect();
    m.sma_with_bytes_ns = per_op_ns(N, |i| {
        match sma.with_bytes(&live[picks[i]], |b| black_box(b.first().copied())) {
            Ok(v) => {
                black_box(v);
            }
            Err(e) => err = Some(e.to_string()),
        }
    });
    m.sma_pin_ns = per_op_ns(N, |_| drop(black_box(sma.pin())));
    for h in live {
        sma.free_bytes(h).map_err(|e| e.to_string())?;
    }
    if let Some(e) = err {
        return Err(format!("micro SMA: {e}"));
    }

    // Maps at the workload's key count (capped) and value sizes.
    let n_keys = keys.min(100_000);
    let key_list: Vec<Vec<u8>> = (0..n_keys).map(key_bytes).collect();
    let value = |i: usize| vec![b'v'; size(i)];
    let map_sma = Sma::standalone(256 << 10);
    let soft: SoftHashMap<Vec<u8>, Vec<u8>> =
        SoftHashMap::new(&map_sma, "perfbench-map", Priority::new(4));
    let mut std_map: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
    let values: Vec<Vec<u8>> = (0..n_keys as usize).map(value).collect();
    m.map_insert_ns = per_op_ns(n_keys as usize, |i| {
        if let Err(e) = soft.insert(key_list[i].clone(), values[i].clone()) {
            err = Some(e.to_string());
        }
    });
    for (k, v) in key_list.iter().zip(&values) {
        std_map.insert(k.clone(), v.clone());
    }
    let picks: Vec<usize> = (0..N)
        .map(|_| rng.below(u64::from(n_keys)) as usize)
        .collect();
    m.map_get_ns = per_op_ns(N, |i| {
        black_box(soft.get_with(&key_list[picks[i]], |v| v.len()));
    });
    m.std_get_ns = per_op_ns(N, |i| {
        black_box(std_map.get(&key_list[picks[i]]).map(Vec::len));
    });
    if let Some(e) = err {
        return Err(format!("micro map: {e}"));
    }
    drop(soft);

    if let Some(cfg) = tier {
        let tier = ColdTier::new(cfg).map_err(|e| format!("micro tier: {e}"))?;
        let n = n_keys as usize;
        let vals = Values::new(seed);
        let tv: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                let mut v = Vec::new();
                vals.value_into(i as u32, 0, size(i) as u32, &mut v);
                v
            })
            .collect();
        m.tier_demote_ns = per_op_ns(n, |i| tier.demote(&key_list[i], &tv[i]));
        tier.flush();
        let mut taken = 0u64;
        m.tier_take_ns = per_op_ns(n, |i| {
            if let Some((v, _)) = tier.take(&key_list[i]) {
                taken += 1;
                if v != tv[i] {
                    err = Some(format!("tier returned wrong bytes for key {i}"));
                }
            }
        });
        if taken == 0 {
            return Err("micro tier: nothing came back".into());
        }
        let violations = tier.audit();
        if !violations.is_empty() {
            return Err(format!("micro tier audit: {violations:?}"));
        }
        if let Some(e) = err {
            return Err(e);
        }
    }
    Ok(m)
}
