//! Federated campaign fabric: the pure logic behind coordinator-sharded
//! multi-daemon campaigns.
//!
//! One campaign's injection index range `0..N` is split into contiguous
//! shards ([`plan_shards`]), each shard is placed on a worker daemon by
//! rendezvous-hashing the campaign's golden content address
//! ([`rendezvous_rank`]) so re-runs of the same campaign warm the same
//! golden caches, and every shard's event stream is folded into one
//! [`MergedStream`] whose aggregate is byte-identical to a single-node
//! run of the same seed — the invariant
//! `crates/campaign/tests/shard_determinism.rs` pins.
//!
//! Fault tolerance is journal + heartbeat shaped: the
//! [`FabricJournal`] records every shard assignment, re-dispatch and
//! completion (append-only JSONL over [`radcrit_obs::jsonl`], like the
//! daemon's job journal), and the [`WorkerRegistry`] tracks heartbeat
//! recency so a dead worker's shards can be re-dispatched — from the
//! merged stream's *covered frontier*, not from scratch, because the
//! fold is idempotent per global injection index and shard event files
//! are written in index order.
//!
//! This crate is transport-free: it depends only on `radcrit-obs` (the
//! event/JSON/analytics vocabulary). HTTP dispatch, SSE tailing and the
//! coordinator endpoints live in `radcrit-serve`, which composes these
//! pieces.

pub mod journal;
pub mod merge;
pub mod plan;
pub mod registry;

pub use journal::{FabricJournal, ShardRecord, ShardState};
pub use merge::{IngestOutcome, MergedStream};
pub use plan::{plan_shards, rendezvous_rank};
pub use registry::{ClockEstimate, ClockProbe, Worker, WorkerRegistry};
