//! `embed-mix`: no network. A caller drives the typed `ShardedStore`
//! API in a closed loop — about 50 % `get_into`, 35 % `set`, 10 %
//! `del`, 5 % `expire` — over a sliding keyspace that fits the soft
//! budget, with log-uniform 16 B – 4 KiB values.
//!
//! One caller, not two: the process runs on one CPU (see
//! [`crate::cpu`]), where two callers only take turns, and their turns
//! made latency and throughput swing 25–30 % from run to run against
//! 6–10 % with one caller. With one caller issuing requests in order,
//! the expected state of every key is known exactly (see [`Model`]).

use std::time::{Duration, Instant};

use softmem_core::{Priority, Sma};
use softmem_kv::ShardedStore;

use crate::gen::{self, key_bytes, key_into, Op, Req, Rng, Stream, Values};
use crate::stats::{median, peak_rss_mib, process_cpu_ns, Report, Samples};
use crate::trace::{self, Span, SpanLog};
use crate::{Args, Outcome};

const SHARDS: usize = 2;
const KEYS: u32 = 65_536;
const WINDOW: u32 = 8_192;
const STREAM_LEN: usize = 1 << 21;
/// The measured closed loop runs as this many consecutive phases;
/// latency is the median over phases of each phase's percentile.
const SUBPHASES: usize = 10;
const SETUPS: usize = 3;
/// Latency samples kept per sub-phase (a uniform reservoir), so memory
/// does not grow with throughput.
const RESERVOIR: usize = 50_000;
/// Spans kept per phase in the traced run; later calls are only
/// counted.
const SPANS_PER_PHASE: usize = 20_000;
/// Untraced/traced phase pairs in a traced run.
const TRACE_ROUNDS: usize = 5;

pub fn stream(seed: u64) -> Stream {
    gen::embed_mix(seed, KEYS, WINDOW, STREAM_LEN)
}

/// What the callers saw in one phase.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    mismatches: u64,
    /// DELs that reported a key whose TTL had lapsed as existing.
    lapsed_dels: u64,
    gets: u64,
    hits: u64,
    get_ns: Samples,
    set_ns: Samples,
    /// Completions per 100 ms slot (partial first and last dropped).
    slot_rates: Vec<f64>,
    /// Per layer: calls and summed ns, over every call.
    layer_calls: [u64; 4],
    layer_ns: [u64; 4],
    spans: Vec<Span>,
    first_error: Option<String>,
}

impl Tally {
    fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.mismatches += o.mismatches;
        self.lapsed_dels += o.lapsed_dels;
        self.gets += o.gets;
        self.hits += o.hits;
        self.get_ns.extend(&o.get_ns);
        self.set_ns.extend(&o.set_ns);
        for k in 0..4 {
            self.layer_calls[k] += o.layer_calls[k];
            self.layer_ns[k] += o.layer_ns[k];
        }
        self.spans.extend(o.spans);
        if self.first_error.is_none() {
            self.first_error = o.first_error;
        }
    }

    /// The phase's correctness gate: every reply as the model expects
    /// and no failed call. A failure fails the run; it never turns
    /// into numbers.
    fn check(&self, what: &str) -> Result<(), String> {
        if self.mismatches > 0 || self.failed > 0 {
            return Err(format!(
                "{what}: {} of {} calls failed, {} with a wrong reply (first: {})",
                self.failed,
                self.attempted,
                self.mismatches,
                self.first_error.as_deref().unwrap_or("")
            ));
        }
        Ok(())
    }
}

/// What the store must hold for one key.
#[derive(Clone, Copy, Debug)]
enum Expect {
    Absent,
    /// `version` of the key's value, `len` bytes long, with no TTL.
    Present {
        version: u32,
        len: u32,
    },
    /// As `Present`, but an EXPIRE set a TTL that lapses somewhere in
    /// `lo..=hi` (the call's start and end, plus the TTL).
    Expiring {
        version: u32,
        len: u32,
        lo: Instant,
        hi: Instant,
    },
}

/// The expected state of every key. The caller issues requests in
/// order, so every reply is fully determined — apart from when a TTL
/// lapses, which is bounded by the EXPIRE call's own start and end.
/// A hit must carry exactly the last written version and length; a
/// miss is allowed only after a DEL, before any write, or once a TTL
/// may have lapsed. Nothing is evicted (the keyspace fits the
/// budget), so any other miss is a lost write.
struct Model {
    keys: Vec<Expect>,
}

impl Model {
    fn new(s: &Stream) -> Model {
        let mut keys = vec![Expect::Absent; KEYS as usize];
        for &(key, len) in &s.preload {
            keys[key as usize] = Expect::Present { version: 0, len };
        }
        Model { keys }
    }

    /// Checks one call's reply (`ok`, and for a GET hit the bytes in
    /// `got`) made over `t0..t1`, then applies the call. Returns
    /// whether the call was a DEL that reported a key whose TTL had
    /// lapsed as existing.
    fn apply(
        &mut self,
        values: &Values,
        r: Req,
        ok: bool,
        got: &[u8],
        t0: Instant,
        t1: Instant,
    ) -> Result<bool, String> {
        let slot = &mut self.keys[r.key as usize];
        // Whether the key must exist during the call (`Some(true)`),
        // must be gone (`Some(false)`), or may be either.
        let alive = match *slot {
            Expect::Absent => Some(false),
            Expect::Present { .. } => Some(true),
            Expect::Expiring { lo, .. } if t1 < lo => Some(true),
            Expect::Expiring { hi, .. } if t0 > hi => Some(false),
            Expect::Expiring { .. } => None,
        };
        let held = match *slot {
            Expect::Absent => None,
            Expect::Present { version, len } | Expect::Expiring { version, len, .. } => {
                Some((version, len))
            }
        };
        let before = *slot;
        let wrong = |what: String| {
            Err(format!(
                "{:?} key {}: {what} (expected {before:?})",
                r.op, r.key
            ))
        };
        // `ShardedStore::del` does not reap a lapsed TTL before it
        // removes the key, so it reports a key whose TTL has lapsed,
        // but which no call has reaped yet, as existing (Redis's DEL
        // reports it gone). The caller counts these instead of failing
        // on them.
        let lapsed_del = r.op == Op::Del && ok && held.is_some() && alive == Some(false);
        if r.op != Op::Set && !lapsed_del && alive.is_some_and(|a| a != ok) {
            return wrong(format!("returned {ok}"));
        }
        match r.op {
            Op::Get if ok => {
                let (version, len) = held.expect("a hit on an absent key was rejected above");
                if got.len() != len as usize || values.verify(r.key, got) != Some(version) {
                    return wrong("returned wrong bytes".into());
                }
            }
            Op::Get | Op::Del => *slot = Expect::Absent,
            Op::Set => {
                *slot = Expect::Present {
                    version: r.version,
                    len: r.len,
                }
            }
            Op::Expire => {
                *slot = match held {
                    Some((version, len)) if ok => {
                        let ttl = Duration::from_millis(u64::from(r.len));
                        Expect::Expiring {
                            version,
                            len,
                            lo: t0 + ttl,
                            hi: t1 + ttl,
                        }
                    }
                    _ => Expect::Absent,
                }
            }
        }
        Ok(lapsed_del)
    }
}

const LAYERS: [&str; 4] = ["store.get_into", "store.set", "store.del", "store.expire"];

/// Keeps a uniform sample of at most `RESERVOIR` values (Algorithm R).
fn reservoir(s: &mut Samples, seen: u64, v: u64, rng: &mut Rng) {
    if s.len() < RESERVOIR {
        s.push(v);
    } else {
        let j = rng.below(seen) as usize;
        if j < RESERVOIR {
            s.0[j] = v;
        }
    }
}

#[derive(Clone, Copy)]
struct Mode {
    record: bool,
    spans: bool,
}

/// A closed-loop phase over `reqs[first], reqs[first + 1], …` until
/// `dur` has passed, every reply checked against `model`.
fn phase(
    engine: &ShardedStore,
    model: &mut Model,
    s: &Stream,
    values: &Values,
    first: usize,
    dur: Duration,
    mode: Mode,
) -> Tally {
    let mut t = Tally::default();
    let mut rng = Rng::new(first as u64);
    let mut key = Vec::with_capacity(16);
    let mut buf = Vec::with_capacity(8192);
    let (mut gets_seen, mut sets_seen) = (0u64, 0u64);
    let start = Instant::now();
    let deadline = start + dur;
    let mut slots: Vec<u64> = Vec::new();
    let n = s.reqs.len();
    for i in first.. {
        let r = s.reqs[i % n];
        key.clear();
        key_into(r.key, &mut key);
        buf.clear();
        if r.op == Op::Set {
            values.value_into(r.key, r.version, r.len, &mut buf);
        }
        let t0 = Instant::now();
        let (layer, ok) = match r.op {
            Op::Get => (0, engine.get_into(&key, &mut buf)),
            Op::Set => (1, engine.set(&key, &buf).is_ok()),
            Op::Del => (2, engine.del(&key)),
            Op::Expire => (
                3,
                engine.expire(&key, Duration::from_millis(u64::from(r.len))),
            ),
        };
        let t1 = Instant::now();
        let ns = t1.duration_since(t0).as_nanos() as u64;
        t.attempted += 1;
        t.layer_calls[layer] += 1;
        t.layer_ns[layer] += ns;
        if mode.spans && t.spans.len() < SPANS_PER_PHASE {
            t.spans.push(Span {
                req: i as u32,
                layer: LAYERS[layer],
                start_ns: t0.duration_since(start).as_nanos() as u64,
                end_ns: t1.duration_since(start).as_nanos() as u64,
            });
        }
        if r.op == Op::Set && !ok {
            t.failed += 1;
            t.first_error
                .get_or_insert(format!("set key {} failed", r.key));
        } else {
            match model.apply(values, r, ok, &buf, t0, t1) {
                Ok(lapsed) => t.lapsed_dels += u64::from(lapsed),
                Err(e) => {
                    t.mismatches += 1;
                    t.first_error.get_or_insert(e);
                }
            }
        }
        if r.op == Op::Get {
            t.gets += 1;
            t.hits += u64::from(ok);
        }
        if mode.record {
            match r.op {
                Op::Get => {
                    gets_seen += 1;
                    reservoir(&mut t.get_ns, gets_seen, ns, &mut rng);
                }
                Op::Set => {
                    sets_seen += 1;
                    reservoir(&mut t.set_ns, sets_seen, ns, &mut rng);
                }
                Op::Del | Op::Expire => {}
            }
        }
        let slot = (t1.duration_since(start).as_millis() / 100) as usize;
        if slots.len() <= slot {
            slots.resize(slot + 1, 0);
        }
        slots[slot] += 1;
        if t1 >= deadline {
            break;
        }
    }
    // Completions per 100 ms slot; the partial last slot is dropped.
    slots.pop();
    t.slot_rates = slots.iter().map(|&c| c as f64 * 10.0).collect();
    t
}

/// Builds and preloads the engine and warms it up; returns it, the
/// model of what it holds, and the seconds that took.
fn setup(s: &Stream, values: &Values) -> Result<(ShardedStore, Model, f64), String> {
    let t0 = Instant::now();
    let sma = Sma::standalone(16 << 10);
    let engine = ShardedStore::new(&sma, "perfbench", Priority::new(4), SHARDS);
    let mut buf = Vec::with_capacity(8192);
    for &(key, len) in &s.preload {
        buf.clear();
        values.value_into(key, 0, len, &mut buf);
        engine
            .set(&key_bytes(key), &buf)
            .map_err(|e| format!("preload key {key}: {e}"))?;
    }
    let quiet = Mode {
        record: false,
        spans: false,
    };
    let mut model = Model::new(s);
    let warm = phase(
        &engine,
        &mut model,
        s,
        values,
        0,
        Duration::from_millis(200),
        quiet,
    );
    warm.check("warm-up")?;
    Ok((engine, model, t0.elapsed().as_secs_f64()))
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let s = stream(args.seed);
    let values = Values::new(args.seed);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut served = None;
    for _ in 0..SETUPS {
        drop(served.take());
        let (e, model, secs) = setup(&s, &values)?;
        setup_s.push(secs);
        served = Some((e, model));
    }
    let (engine, mut model) = served.expect("at least one setup");

    let sub = Duration::from_secs_f64(args.seconds / SUBPHASES as f64);
    let mode = Mode {
        record: true,
        spans: false,
    };
    let mut subs = Vec::with_capacity(SUBPHASES);
    for k in 0..SUBPHASES {
        let t = phase(
            &engine,
            &mut model,
            &s,
            &values,
            100_000 * (k + 1),
            sub,
            mode,
        );
        t.check("closed loop")?;
        subs.push(t);
    }
    let q = |subs: &mut [Tally], get: bool, q: f64| {
        let mut n = 0u64;
        let qs: Vec<f64> = subs
            .iter_mut()
            .map(|t| {
                let s = if get { &mut t.get_ns } else { &mut t.set_ns };
                n += s.len() as u64;
                s.quantile(q) / 1000.0
            })
            .collect();
        (median(&qs), n)
    };
    let mut r = Report::default();
    r.add("setup_s", median(&setup_s), "s", SETUPS as u64);
    let (v, n) = q(&mut subs, true, 0.5);
    r.add("get_p50_us", v, "us", n);
    for (name, get, quant) in [
        ("get_p90_us", true, 0.9),
        ("get_p99_us", true, 0.99),
        ("set_p50_us", false, 0.5),
        ("set_p90_us", false, 0.9),
        ("set_p99_us", false, 0.99),
    ] {
        let (v, n) = q(&mut subs, get, quant);
        r.add(name, v, "us", n);
    }
    let rates: Vec<f64> = subs
        .iter()
        .flat_map(|t| t.slot_rates.iter().copied())
        .collect();
    r.add(
        "peak_ops_per_s",
        median(&rates),
        "ops/s",
        rates.len() as u64,
    );
    let mut all = Tally::default();
    for t in subs {
        all.merge(t);
    }
    r.add(
        "hit_rate",
        all.hits as f64 / all.gets.max(1) as f64,
        "fraction",
        all.gets,
    );
    r.add(
        "error_share",
        all.failed as f64 / all.attempted.max(1) as f64,
        "fraction",
        all.attempted,
    );
    drop(engine);
    r.add("peak_rss_mib", peak_rss_mib(), "MiB", 1);
    Ok(Outcome {
        report: r,
        correct: all.mismatches == 0,
        attempted: all.attempted,
        failed: all.failed,
        notes: vec![format!(
            "{} DELs reported a key whose TTL had lapsed as existing",
            all.lapsed_dels
        )],
    })
}

/// The traced run: per-layer metrics. The network, tier and daemon
/// layers do no work here and report 0.
pub fn run_traced(args: &Args) -> Result<Outcome, String> {
    let s = stream(args.seed);
    let values = Values::new(args.seed);
    let (engine, mut model, _) = setup(&s, &values)?;
    // Untraced and traced phases alternate on one engine, so both see
    // the same machine conditions; their peak ratio is the tracing
    // overhead.
    let dur = Duration::from_secs_f64(args.seconds * 0.7 / (2 * TRACE_ROUNDS) as f64);
    let (mut plain, mut traced) = (Tally::default(), Tally::default());
    let (mut plain_rates, mut traced_rates) = (Vec::new(), Vec::new());
    let mut cpu = 0u64;
    // Alternate which side goes first, so a drift in machine speed
    // cancels out of the ratio.
    for k in 0..2 * TRACE_ROUNDS {
        let first = 100_000 * (k / 2 + 1);
        if (k % 2 == 0) == (k / 2 % 2 == 0) {
            let mut t = phase(
                &engine,
                &mut model,
                &s,
                &values,
                first,
                dur,
                Mode {
                    record: false,
                    spans: false,
                },
            );
            t.check("untraced closed loop")?;
            plain_rates.append(&mut t.slot_rates);
            plain.merge(t);
        } else {
            let cpu0 = process_cpu_ns();
            let mut t = phase(
                &engine,
                &mut model,
                &s,
                &values,
                first,
                dur,
                Mode {
                    record: false,
                    spans: true,
                },
            );
            cpu += process_cpu_ns() - cpu0;
            t.check("traced closed loop")?;
            traced_rates.append(&mut t.slot_rates);
            traced.merge(t);
        }
    }
    let untraced_peak = median(&plain_rates);
    let traced_peak = median(&traced_rates);
    let store = engine.stats();
    let callback_ns = engine.callback_time().as_nanos() as f64;
    let sma = engine.shard(0).sma().stats();
    drop(engine);

    let clock = trace::clock_cost_ns();
    let sizes: Vec<u32> = s.preload.iter().take(1024).map(|&(_, len)| len).collect();
    let micro = trace::micro(&sizes, WINDOW, None, args.seed)?;

    let mut r = Report::default();
    for (name, unit) in crate::PER_LAYER {
        let network = [
            "reactor.",
            "worker.",
            "protocol.",
            "store.execute_",
            "smd.",
            "uds.",
            "gen.",
        ];
        if network.iter().any(|p| name.starts_with(p)) {
            r.add(name, 0.0, unit, 0);
        }
    }
    let log = SpanLog {
        spans: std::mem::take(&mut traced.spans),
    };
    for (k, name) in ["store.get_into_ns", "store.set_ns", "store.del_ns"]
        .into_iter()
        .enumerate()
    {
        let n = traced.layer_calls[k];
        let mean = traced.layer_ns[k] as f64 / n.max(1) as f64 - clock;
        r.add(name, mean.max(0.0), "ns", n);
    }
    crate::add_store_metrics(&mut r, &store, callback_ns);
    crate::add_micro_metrics(&mut r, &micro, false);
    crate::add_sma_metrics(&mut r, &sma, store.reclaimed_entries, callback_ns);
    crate::add_tier_metrics(&mut r, &softmem_core::TierStats::default());
    let ops = traced.attempted.max(1);
    let cpu_per_op = cpu as f64 / ops as f64;
    let attributed: f64 = (0..4)
        .map(|k| traced.layer_ns[k] as f64 - clock * traced.layer_calls[k] as f64)
        .sum::<f64>()
        / ops as f64;
    r.add(
        "trace.overhead_share",
        1.0 - traced_peak / untraced_peak,
        "fraction",
        2 * TRACE_ROUNDS as u64,
    );
    r.add("ledger.cpu_us_per_op", cpu_per_op / 1000.0, "us", ops);
    r.add(
        "ledger.unattributed_share",
        1.0 - attributed / cpu_per_op,
        "fraction",
        ops,
    );

    let path = args
        .work_dir
        .join(format!("spans-embed-mix-{}.tsv", args.seed));
    log.write_to(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(Outcome {
        report: r,
        correct: plain.mismatches + traced.mismatches == 0,
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        notes: vec![
            format!("spans: {} written to {}", log.spans.len(), path.display()),
            format!("peak ops/s untraced {untraced_peak:.0}, traced {traced_peak:.0}; clock read {clock:.1} ns"),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(op: Op, key: u32, version: u32, len: u32) -> Req {
        Req {
            op,
            key,
            version,
            len,
        }
    }

    #[test]
    fn model_accepts_only_the_last_write() {
        let values = Values::new(5);
        let s = Stream {
            reqs: Vec::new(),
            max_version: Vec::new(),
            preload: vec![(1, 40)],
        };
        let mut m = Model::new(&s);
        let now = Instant::now();
        let bytes = |version: u32, len: u32| {
            let mut b = Vec::new();
            values.value_into(1, version, len, &mut b);
            b
        };
        let mut ok = |r: Req, hit: bool, got: &[u8], at: Instant| {
            m.apply(&values, r, hit, got, at, at).is_ok()
        };
        let get = req(Op::Get, 1, 0, 0);
        assert!(ok(get, true, &bytes(0, 40), now));
        // A resident key may not miss, nor return a version or a
        // length it does not hold.
        assert!(!ok(get, false, &[], now));
        assert!(!ok(get, true, &bytes(0, 39), now));
        let set = req(Op::Set, 1, 2, 60);
        assert!(ok(set, true, &[], now));
        assert!(!ok(get, true, &bytes(0, 40), now));
        assert!(ok(get, true, &bytes(2, 60), now));
        // After a DEL only a miss is right.
        let del = req(Op::Del, 1, 0, 0);
        assert!(ok(del, true, &[], now));
        assert!(!ok(get, true, &bytes(2, 60), now));
        assert!(ok(get, false, &[], now));
        assert!(!ok(del, true, &[], now));
        // A TTL: the key must live until it may have lapsed, and must
        // be gone once it surely has.
        assert!(ok(set, true, &[], now));
        assert!(ok(req(Op::Expire, 1, 0, 10), true, &[], now));
        assert!(!ok(get, false, &[], now));
        let later = now + Duration::from_millis(11);
        assert!(!ok(get, true, &bytes(2, 60), later));
        assert!(ok(get, false, &[], later));
    }
}
