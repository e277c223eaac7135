//! # softmem-kv — a Redis-like in-memory key-value store on soft memory
//!
//! The paper evaluates soft memory by patching Redis so that its hash
//! table stores "the elements of its buckets in soft memory, turning it
//! into an SDS", while keys and values point to traditional heap memory
//! that the reclamation callback cleans up (§5). This crate is the
//! from-scratch substitute for that patched Redis (DESIGN.md §2):
//!
//! * [`Store`] — the single-threaded command engine: a soft-memory hash
//!   table of entries whose key/value buffers live on the traditional
//!   heap and are released when an entry is reclaimed. A reclaimed key
//!   simply reads as *not found*, and "in a caching setup, the client
//!   would re-fetch these entries from a database".
//! * [`ShardedStore`] — N stores behind one keyspace: single-key
//!   commands hash-route to their shard, cross-shard ones merge in
//!   [`ShardedStore::execute_at`].
//! * [`protocol`] — a line-oriented command protocol (`SET`/`GET`/…)
//!   with Redis-flavoured replies.
//! * `reactor` (Linux) — the network frontend: epoll reactors frame
//!   and route requests to one worker thread per shard, so each shard
//!   keeps Redis's single-threaded execution. [`TcpKvClient`] is its
//!   blocking client.
//! * [`crash`] — the no-soft-memory baseline: a store that is killed
//!   under memory pressure and restarts cold (≥ 12 ms downtime plus a
//!   refill period of elevated misses, §5).
//!
//! # Examples
//!
//! ```
//! use softmem_core::{Priority, Sma};
//! use softmem_kv::Store;
//!
//! let sma = Sma::standalone(1024);
//! let store = Store::new(&sma, "cache", Priority::new(4));
//! store.set(b"user:1", b"alice").unwrap();
//! assert_eq!(store.get(b"user:1"), Some(b"alice".to_vec()));
//! assert_eq!(store.dbsize(), 1);
//!
//! // Under pressure the SMA reclaims entries; lookups turn into
//! // cache misses instead of crashes.
//! sma.reclaim(usize::MAX / 4096);
//! assert_eq!(store.get(b"user:1"), None);
//! ```

mod client;
pub mod crash;
mod metrics;
pub mod protocol;
#[cfg(target_os = "linux")]
pub mod reactor;
mod sharded;
mod store;
#[cfg(target_os = "linux")]
pub mod swarm;

pub use client::TcpKvClient;
pub use metrics::StoreMetrics;
pub use protocol::{CommandRef, Response};
#[cfg(target_os = "linux")]
pub use reactor::{
    NetMetrics, NetStats, ReactorConfig, ReactorFrontend, RealSysIo, SysIo, WorkerHook,
};
pub use sharded::ShardedStore;
pub use store::{ReclaimCostModel, Store, StoreStats, Ttl};
#[cfg(target_os = "linux")]
pub use swarm::{RunOpts, Swarm, SwarmReport};
