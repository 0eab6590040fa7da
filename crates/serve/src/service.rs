//! The resident session table: many concurrent streams over one shared
//! context.
//!
//! [`AuditService`] is the transport-agnostic core of the server — the
//! TCP layer ([`crate::server`]) owns one per connection, the `serving`
//! bench drives one in-process, and tests exercise it without a socket.
//! It enforces the resource bounds that make residency safe (session
//! cap, per-session frame budget, bounded reorder windows) and recycles
//! engine trios across session churn: a closed session's assembler,
//! scorer, and reorder buffer go to a pool, and the next open reuses
//! them via `begin()` — so steady-state session turnover allocates
//! nothing.

use crate::error::ServeError;
use crate::protocol::{SessionStats, Worklist};
use crate::session::{Engines, ServeContext, Session};
use loa_data::Frame;
use std::collections::HashMap;

/// Resource bounds of a service instance.
#[derive(Debug, Clone, Copy)]
pub struct ServiceCfg {
    /// Reorder-buffer window per session (frames a transport may deliver
    /// early before the stream errors).
    pub window: u32,
    /// Per-session frame budget: a frame index at or past this is
    /// rejected (recoverably), bounding each session's memory.
    pub max_frames: usize,
    /// Maximum concurrently open sessions.
    pub max_sessions: usize,
}

impl Default for ServiceCfg {
    fn default() -> Self {
        ServiceCfg { window: 8, max_frames: 100_000, max_sessions: 4096 }
    }
}

/// A multi-session audit service over one borrowed [`ServeContext`].
pub struct AuditService<'c> {
    ctx: &'c ServeContext,
    cfg: ServiceCfg,
    sessions: HashMap<u32, Session<'c>>,
    pool: Vec<Engines<'c>>,
    engines_built: u64,
    sessions_served: u64,
}

impl<'c> AuditService<'c> {
    pub fn new(ctx: &'c ServeContext, cfg: ServiceCfg) -> Self {
        AuditService {
            ctx,
            cfg,
            sessions: HashMap::new(),
            pool: Vec::new(),
            engines_built: 0,
            sessions_served: 0,
        }
    }

    pub fn cfg(&self) -> &ServiceCfg {
        &self.cfg
    }

    /// Currently open sessions.
    pub fn open_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Sessions closed so far (the churn the engine pool absorbed).
    pub fn sessions_served(&self) -> u64 {
        self.sessions_served
    }

    /// Engine trios built from scratch — stays flat under session churn
    /// because closes feed the pool.
    pub fn engines_built(&self) -> u64 {
        self.engines_built
    }

    /// Open a session. `session` ids are chosen by the client and must
    /// not collide with a live session.
    pub fn open(&mut self, session: u32, scene_id: &str, frame_dt: f64) -> Result<(), ServeError> {
        if self.sessions.contains_key(&session) {
            return Err(ServeError::SessionExists(session));
        }
        if self.sessions.len() >= self.cfg.max_sessions {
            return Err(ServeError::SessionLimit { max: self.cfg.max_sessions });
        }
        let pooled = self.pool.pop();
        if let Some(metrics) = loa_obs::recorder() {
            metrics.sessions_opened.inc();
            metrics.active_sessions.add(1.0);
            if pooled.is_some() {
                metrics.engines_reused.inc();
            } else {
                metrics.engines_built.inc();
            }
        }
        let engines = pooled.unwrap_or_else(|| {
            self.engines_built += 1;
            self.ctx.new_engines(self.cfg.window)
        });
        self.sessions.insert(
            session,
            Session::start(engines, scene_id, frame_dt, self.cfg.max_frames),
        );
        Ok(())
    }

    /// Feed one frame. Recoverable rejections (beyond-window,
    /// over-budget) are absorbed into the session's stats — the session
    /// and the connection both survive; the stats surface at close.
    pub fn frame(&mut self, session: u32, frame: Frame) -> Result<(), ServeError> {
        let sess = self
            .sessions
            .get_mut(&session)
            .ok_or(ServeError::UnknownSession(session))?;
        match sess.push(frame) {
            Ok(_) => Ok(()),
            Err(e) if e.is_frame_recoverable() => {
                sess.record_reject(e.to_string());
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Feed one `.fscb` frame-record payload off the wire.
    pub fn frame_record(&mut self, session: u32, payload: &[u8]) -> Result<(), ServeError> {
        let frame = loa_ingest::decode_frame_record(payload)?;
        self.frame(session, frame)
    }

    /// The session's worklist after its last released frame, without
    /// closing it. Frames are not ranked as they arrive; this ranks once
    /// if frames were released since the session's last read.
    pub fn peek(&mut self, session: u32) -> Result<&[(String, f64)], ServeError> {
        let ctx = self.ctx;
        self.sessions
            .get_mut(&session)
            .map(|s| s.peek(ctx))
            .ok_or(ServeError::UnknownSession(session))
    }

    /// A live delivery-stats snapshot for an open session — the `STATS`
    /// request, mid-session, without disturbing the stream.
    pub fn stats(&self, session: u32) -> Result<SessionStats, ServeError> {
        self.sessions
            .get(&session)
            .map(|s| s.stats_snapshot())
            .ok_or(ServeError::UnknownSession(session))
    }

    /// Close a session: final worklist out, engines back to the pool.
    pub fn close(&mut self, session: u32) -> Result<Worklist, ServeError> {
        let sess = self
            .sessions
            .remove(&session)
            .ok_or(ServeError::UnknownSession(session))?;
        let (worklist, engines) = sess.close(self.ctx);
        self.pool.push(engines);
        self.sessions_served += 1;
        if let Some(metrics) = loa_obs::recorder() {
            metrics.sessions_closed.inc();
            metrics.active_sessions.add(-1.0);
        }
        Ok(worklist)
    }
}
