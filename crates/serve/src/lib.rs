//! # chipmunk-serve
//!
//! A long-running compilation daemon for the chipmunk synthesis stack.
//!
//! Chipmunk-style queries are expensive (CEGIS over bit-blasted SAT) and
//! highly repetitive: the paper's evaluation alone re-compiles every
//! benchmark under ten semantics-preserving mutations, all of which reduce
//! to the *same* synthesis problem. This crate turns the one-shot CLI into
//! a service shaped for that workload:
//!
//! * a **bounded job queue** with typed backpressure ([`queue`]),
//! * a fixed-size **worker pool** running
//!   [`chipmunk::compile_with_cancel`] with per-job timeouts and
//!   cancellation-based abortive shutdown ([`server`]),
//! * a **two-tier content-addressed result cache** — a bounded in-memory
//!   LRU plus an on-disk JSONL store — keyed by [`chipmunk::cache_key`],
//!   the hash of the *canonicalized* program and every semantics-relevant
//!   option, so mutants of one benchmark are cache hits ([`cache`]),
//! * a **newline-delimited JSON protocol** over TCP, using the workspace's
//!   own zero-dependency JSON module ([`protocol`], [`client`]). Requests
//!   carry optional client-chosen `id`s, and each connection is handled by
//!   a reader/writer thread pair, so one socket can pipeline many compiles
//!   and receive responses in completion order.
//! * a **fault-tolerant compile path**: worker panics are isolated into
//!   structured `internal` errors, a dispatch-time watchdog respawns dead
//!   workers, the cache's disk tier and the journal degrade instead of
//!   failing and re-attach on their own, clients retry transient errors
//!   with jittered backoff ([`client::RetryingClient`]), and the whole
//!   stack is testable under a seeded deterministic fault schedule
//!   ([`faults`]).
//! * **certified results**: every result document served — fresh,
//!   cache-hit, name-remapped, or polled — is independently re-checked
//!   against the submitted program by differential execution in the
//!   hardware simulator before it leaves the daemon; a failing document
//!   is quarantined from both cache tiers and the compile retried from
//!   scratch ([`chipmunk::certify_config`]).
//! * a **write-ahead job journal** ([`journal`]): accepted jobs are
//!   fsync'd to disk before they enter the queue, so a killed daemon
//!   replays unfinished work on restart and clients collect the recovered
//!   results with the `poll` op.
//! * one **durable log** ([`durable`]) under both the cache's disk tier
//!   and the journal: a JSONL file with torn-line tolerance, crash-safe
//!   compaction (temp file, fsync, rename), and degrade-and-re-attach on
//!   I/O errors.
//! * a **live telemetry plane** ([`metrics`], [`trace_store`]): every
//!   accepted job carries a trace id (client-supplied or server-assigned)
//!   that is echoed in responses, journaled with both journal records,
//!   and stamped on the job's `serve.job` span so the nested `cegis.*` /
//!   `sat.*` spans correlate end to end — across a kill-restart replay.
//!   Recent spans are ring-buffered in memory and queryable with the
//!   `trace` protocol op; latency SLO histograms (queue wait, compile,
//!   certify, remap, end-to-end — labeled by outcome and spec family)
//!   and solver-cost gauges are served as Prometheus text exposition
//!   from an optional HTTP endpoint and summarized by the `telemetry`
//!   protocol op.
//!
//! The whole path is instrumented with `chipmunk-trace`: queue depth and
//! wait time, cache hits/misses, and per-job synthesis time all land in
//! the same JSONL trace stream as the underlying CEGIS spans.
//!
//! ```no_run
//! use chipmunk_serve::{server, Client};
//! use chipmunk_trace::json::Json;
//!
//! let handle = server::start(&server::ServerConfig::default()).unwrap();
//! let mut client = Client::connect(handle.local_addr()).unwrap();
//! let resp = client.compile("pkt.x = pkt.a;", Json::Obj(vec![])).unwrap();
//! assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
//! client.shutdown(false).unwrap();
//! handle.join();
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod durable;
pub mod faults;
pub mod journal;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod trace_store;

pub use cache::ResultCache;
pub use client::{BatchProgress, Client, RetryPolicy, RetryingClient};
pub use journal::{Journal, PendingJob};
pub use metrics::{Family, Outcome, Stage, Telemetry};
pub use protocol::{CacheAction, Incoming, JobOptions, Request};
pub use queue::{Bounded, PushError};
pub use server::{start, ServerConfig, ServerHandle};
pub use trace_store::TraceStore;
