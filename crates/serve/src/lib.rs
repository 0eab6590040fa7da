//! # loa_serve — the resident multi-session audit service
//!
//! The deployment shape of the reproduction. The paper's fleet framing
//! (and Model Assertions' runtime-monitoring story) is LOA running
//! *continuously*: thousands of concurrent streams, each audited as it
//! records — not a one-shot CLI over files. This crate is that resident
//! layer over the PR 5/6 streaming machinery:
//!
//! * **Sessions** — each live stream owns the incremental trio
//!   ([`loa_ingest::StreamingAssembler`] +
//!   [`fixy_core::IncrementalScorer`] + the app's
//!   [`rank_streamed`](fixy_core::apps::App::rank_streamed))
//!   behind a bounded [`loa_ingest::ReorderBuffer`], so the per-frame
//!   cost stays O(Δ) and transport jitter (late, early, duplicated
//!   frames) inside the window is absorbed instead of fatal. Frames only
//!   assemble and rescore; the worklist is ranked when it is read
//!   ([`AuditService::peek`] or `CLOSE`). A session's
//!   worklist at watermark *n* is byte-identical to `fixy stream`'s
//!   after *n* in-order frames (locked by `tests/serve.rs`).
//! * **Session table** — [`AuditService`]: bounded concurrent sessions,
//!   a per-session frame budget, and engine pooling — closed sessions
//!   hand their assembler/scorer/reorder trio back, and the next open
//!   reuses it via `begin()`, so steady-state churn allocates nothing.
//! * **Wire protocol** — [`protocol`]: preamble + tagged length-prefixed
//!   envelopes whose frame payloads are exactly the `.fscb` frame-record
//!   bytes, so recorded scenes replay over the wire without recoding.
//!   `OPEN`/`CLOSE`/`SHUTDOWN` are request/response; `FRAME` is
//!   fire-and-forget (no per-frame ack, no write-path deadlock).
//! * **TCP front-end** — [`serve`]: one handler thread and one
//!   connection-scoped [`AuditService`] per accepted connection, all
//!   borrowing one [`ServeContext`] (the fitted library is resident
//!   once). [`FeedClient`] is the replay side.
//!
//! Everything fails typed ([`ServeError`]); per-frame rejections the
//! session can survive (beyond-window, over-budget) are absorbed into
//! [`SessionStats`] and reported with the final worklist — or live,
//! mid-session, through the `STATS` request/response pair.
//!
//! The serving layer is instrumented with `loa_obs` (frames, per-frame
//! latency histograms, active sessions, engine-pool reuse, wire bytes;
//! all free while the recorder is off), and [`serve_metrics`] exposes
//! the global registry as a Prometheus text endpoint for `fixy serve
//! --metrics-addr`.

pub mod client;
pub mod error;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod service;
pub mod session;

pub use client::FeedClient;
pub use error::ServeError;
pub use metrics::serve_metrics;
pub use protocol::{Request, Response, SessionStats, Worklist};
pub use server::{serve, ServeSummary};
pub use service::{AuditService, ServiceCfg};
pub use session::{ServeApp, ServeContext, Session};
