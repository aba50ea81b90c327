//! Per-request causal span tracing for the RBV reproduction.
//!
//! The engine emits a rich [`TraceEvent`](rbv_telemetry::TraceEvent)
//! stream, but no layer reconstructed what a *request* experienced end
//! to end. This crate closes that gap:
//!
//! * [`span`] — [`SpanCollector`], a streaming
//!   [`TraceSink`](rbv_telemetry::TraceSink) folding the event stream
//!   into per-request causal timelines in bounded memory (state ∝ live
//!   requests), deriving the client-visible latency decomposition
//!   (queue wait / service / retry backoff / admission + network) as
//!   mergeable [`QuantileSketch`](rbv_telemetry::QuantileSketch)es, and
//!   checking the span-accounting and attempt-conservation invariants
//!   for every finished request;
//! * [`export`] — [`spans_to_perfetto`]: retained spans rendered as
//!   Perfetto async tracks with per-attempt sub-spans and flow arrows
//!   linking retry chains;
//! * [`explain`] — [`render_explain`]: the `repro explain` critical-path
//!   report (stage share of p99 vs p50, top-k slowest requests by stage
//!   breakdown);
//! * [`tier`] — [`TierSpanCollector`]: the cross-machine extension —
//!   the `rbv-cluster` event loop records each request's begin, tier
//!   legs, network hops and end by direct call, folded into per-tier
//!   latency/CPI attribution whose stages (per-tier residence plus
//!   network hops) exactly partition each request's client-visible
//!   latency, plus [`cluster_to_perfetto`] rendering one track-group per
//!   machine with cross-tier flow arrows.
//!
//! Both span families share one canonical top-k list (slowest first,
//! ties by shard then request id) and one Perfetto event builder.
//!
//! Everything here is observation-only and deterministic: shard
//!   summaries merged in canonical order serialize byte-identically at
//!   any `--threads` value, and a run with tracing disabled is
//!   bit-identical to one that predates this crate.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod explain;
pub mod export;
pub mod span;
pub mod tier;
mod topk;

pub use explain::render_explain;
pub use export::spans_to_perfetto;
pub use span::{SpanCollector, SpanRecord, SpanSummary, TopSpan, TOP_K};
pub use tier::{
    cluster_to_perfetto, ClusterHopRecord, ClusterLegRecord, ClusterSpanRecord, TierSpanCollector,
    TierStats, TierSummary, TierTopSpan,
};
