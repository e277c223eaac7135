//! softmem's end-to-end and per-layer benchmark.
//!
//! One command runs one workload for a fixed time on inputs generated
//! from a seed, checks every output, and prints its metrics; see
//! `README.md` beside this crate for the workloads, the metrics and
//! how each layer metric maps to the end-to-end metrics.

use std::path::PathBuf;

use softmem_core::{SmaStats, TierStats};
use softmem_kv::StoreStats;

pub mod client;
pub mod cpu;
pub mod embed;
pub mod gen;
pub mod net;
pub mod stats;
pub mod trace;

use stats::Report;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    NetRead,
    EmbedMix,
    Squeeze,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::NetRead, Workload::EmbedMix, Workload::Squeeze];

    pub fn name(self) -> &'static str {
        match self {
            Workload::NetRead => "net-read",
            Workload::EmbedMix => "embed-mix",
            Workload::Squeeze => "squeeze",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's generated inputs, as canonical bytes.
    pub fn stream_bytes(self, seed: u64) -> Vec<u8> {
        match self {
            Workload::EmbedMix => embed::stream(seed).to_bytes(),
            w => net::stream(w, seed).to_bytes(),
        }
    }
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where spill logs, daemon sockets and span files go.
    pub work_dir: PathBuf,
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    pub report: Report,
    /// Every checked output was right.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Extra lines for the log.
    pub notes: Vec<String>,
}

/// End-to-end metrics the result line carries on every workload
/// (untraced runs), with units. The report table also prints
/// `get_p50_us`, `set_p50_us`, `get_p99_us`, `set_p99_us`,
/// `peak_ops_per_s`, `error_share` (carried by the result line's
/// `failed`/`attempted`) and, on `squeeze`, the co-tenant's
/// `grant_p50_us`/`grant_p99_us`; README.md says why those stay out
/// of the result line.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("get_p90_us", "us"),
    ("set_p90_us", "us"),
    ("hit_rate", "fraction"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of the traced run, with units. A layer that does
/// no work on a workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("reactor.syscalls_per_op", "1/op"),
    ("reactor.read_ns", "ns"),
    ("reactor.write_ns", "ns"),
    ("reactor.bytes_per_read", "B"),
    ("reactor.wakes_per_op", "1/op"),
    ("reactor.epoll_wait_share", "fraction"),
    ("reactor.batch_mean", "frames"),
    ("reactor.route_stalls", "count"),
    ("reactor.paused_reads", "count"),
    ("reactor.overload_sheds", "count"),
    ("worker.frames_skew", "ratio"),
    ("protocol.frame_ns", "ns"),
    ("protocol.parse_ns", "ns"),
    ("protocol.encode_ns", "ns"),
    ("store.execute_get_ns", "ns"),
    ("store.execute_set_ns", "ns"),
    ("store.get_into_ns", "ns"),
    ("store.set_ns", "ns"),
    ("store.del_ns", "ns"),
    ("store.hit_rate", "fraction"),
    ("store.reclaimed_entries", "count"),
    ("store.callback_ms", "ms"),
    ("store.degraded_denies", "count"),
    ("sds.map_get_ns", "ns"),
    ("sds.map_insert_ns", "ns"),
    ("sds.map_get_vs_std", "ratio"),
    ("sma.alloc_free_ns", "ns"),
    ("sma.alloc_vs_system", "ratio"),
    ("sma.with_bytes_ns", "ns"),
    ("sma.pin_ns", "ns"),
    ("sma.magazine_refills", "count"),
    ("sma.steal_backs", "count"),
    ("sma.guard_stalls", "count"),
    ("sma.limbo_pages", "pages"),
    ("sma.held_per_live_byte", "ratio"),
    ("reclaim.rounds", "count"),
    ("reclaim.pages", "pages"),
    ("reclaim.entries_per_page", "1/page"),
    ("reclaim.callback_ns_per_entry", "ns"),
    ("tier.demotions", "count"),
    ("tier.second_chance_ratio", "ratio"),
    ("tier.spill_bytes_per_demotion", "B"),
    ("tier.compactions", "count"),
    ("tier.corruptions", "count"),
    ("tier.demote_ns", "ns"),
    ("tier.take_ns", "ns"),
    ("smd.rounds", "count"),
    ("smd.grants", "count"),
    ("smd.denials", "count"),
    ("smd.over_reclaim_ratio", "ratio"),
    ("smd.targets_per_round", "1/round"),
    ("smd.grant_p50_us", "us"),
    ("smd.grant_p99_us", "us"),
    ("uds.rtt_us", "us"),
    ("uds.reconnects", "count"),
    ("gen.lag_p99_us", "us"),
    ("trace.overhead_share", "fraction"),
    ("ledger.cpu_us_per_op", "us"),
    ("ledger.unattributed_share", "fraction"),
];

/// Runs one workload, traced or not.
pub fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("create {}: {e}", args.work_dir.display()))?;
    cpu::pin();
    match (args.workload, args.trace) {
        (Workload::EmbedMix, false) => embed::run(args),
        (Workload::EmbedMix, true) => embed::run_traced(args),
        (_, false) => net::run(args),
        (_, true) => net::run_traced(args),
    }
}

/// `store.*` counters from the served engine.
pub(crate) fn add_store_metrics(r: &mut Report, s: &StoreStats, callback_ns: f64) {
    r.add(
        "store.hit_rate",
        s.hit_rate(),
        "fraction",
        s.hits + s.misses,
    );
    r.add(
        "store.reclaimed_entries",
        s.reclaimed_entries as f64,
        "count",
        0,
    );
    r.add(
        "store.callback_ms",
        callback_ns / 1e6,
        "ms",
        s.reclaimed_entries,
    );
    r.add(
        "store.degraded_denies",
        s.degraded_denies as f64,
        "count",
        0,
    );
}

/// Micro-replay results beside their baselines.
pub(crate) fn add_micro_metrics(r: &mut Report, m: &trace::Micro, tier: bool) {
    r.add("sds.map_get_ns", m.map_get_ns, "ns", 0);
    r.add("sds.map_insert_ns", m.map_insert_ns, "ns", 0);
    r.add(
        "sds.map_get_vs_std",
        m.map_get_ns / m.std_get_ns,
        "ratio",
        0,
    );
    r.add("sma.alloc_free_ns", m.sma_alloc_free_ns, "ns", 0);
    r.add(
        "sma.alloc_vs_system",
        m.sma_alloc_free_ns / m.system_alloc_free_ns,
        "ratio",
        0,
    );
    r.add("sma.with_bytes_ns", m.sma_with_bytes_ns, "ns", 0);
    r.add("sma.pin_ns", m.sma_pin_ns, "ns", 0);
    r.add(
        "tier.demote_ns",
        if tier { m.tier_demote_ns } else { 0.0 },
        "ns",
        0,
    );
    r.add(
        "tier.take_ns",
        if tier { m.tier_take_ns } else { 0.0 },
        "ns",
        0,
    );
}

/// `sma.*` and `reclaim.*` counters from the served engine's allocator.
pub(crate) fn add_sma_metrics(
    r: &mut Report,
    s: &SmaStats,
    reclaimed_entries: u64,
    callback_ns: f64,
) {
    r.add(
        "sma.magazine_refills",
        s.magazine_refills_total as f64,
        "count",
        0,
    );
    r.add(
        "sma.steal_backs",
        s.magazine_steal_backs_total as f64,
        "count",
        0,
    );
    r.add(
        "sma.guard_stalls",
        s.smr_guard_stalls_total as f64,
        "count",
        0,
    );
    r.add("sma.limbo_pages", s.smr_limbo_pages as f64, "pages", 0);
    r.add(
        "sma.held_per_live_byte",
        (s.held_pages * softmem_core::PAGE_SIZE) as f64 / s.live_bytes.max(1) as f64,
        "ratio",
        0,
    );
    r.add("reclaim.rounds", s.reclaims_total as f64, "count", 0);
    r.add("reclaim.pages", s.pages_reclaimed_total as f64, "pages", 0);
    r.add(
        "reclaim.entries_per_page",
        reclaimed_entries as f64 / s.pages_reclaimed_total.max(1) as f64,
        "1/page",
        s.pages_reclaimed_total,
    );
    r.add(
        "reclaim.callback_ns_per_entry",
        callback_ns / reclaimed_entries.max(1) as f64,
        "ns",
        reclaimed_entries,
    );
}

/// `tier.*` counters summed over the shards' tiers.
pub(crate) fn add_tier_metrics(r: &mut Report, t: &TierStats) {
    let dem = t.demotions.max(1) as f64;
    r.add("tier.demotions", t.demotions as f64, "count", 0);
    r.add(
        "tier.second_chance_ratio",
        (t.arena_hits + t.disk_hits) as f64 / dem,
        "ratio",
        t.demotions,
    );
    r.add(
        "tier.spill_bytes_per_demotion",
        t.spill_bytes_written as f64 / dem,
        "B",
        t.demotions,
    );
    r.add("tier.compactions", t.compactions as f64, "count", 0);
    r.add("tier.corruptions", t.corruptions as f64, "count", 0);
}
