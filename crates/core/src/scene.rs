//! The LOA scene model: observations, bundles, tracks (Section 4.2).
//!
//! Formally a scene `s = {τ}` is a set of tracks; each track
//! `τ = (β₀, …, βₙ)` is a sequence of observation bundles; each bundle
//! `β = {ω}` is a set of observations from different modalities.
//!
//! [`Scene::assemble`] builds this structure from a raw
//! [`SceneData`] exactly the way the paper's worked
//! example does: same-frame observations associate by box overlap into
//! bundles; bundles associate across adjacent frames into tracks. The
//! work happens in an [`AssemblyEngine`] — a reusable, staged assembler
//! whose per-frame buffers (spatial grids, union-find, score matrices)
//! survive across scenes, which is what the batch pipeline fans out.
//!
//! Membership is stored flat: one `ObsIdx` arena (bundle → member
//! observations) addressed by an offsets array (CSR layout), and one
//! `BundleIdx` arena (track → member bundles) addressed by per-track
//! `(start, len, cap)` slots, so a live snapshot can grow a track in
//! place. [`Bundle`] and [`Track`] are small per-element metas; the
//! member lists are reached through the slice accessors
//! [`Scene::bundle_obs`] / [`Scene::track_bundles`]. A `Scene` has no
//! wire format: only the raw [`SceneData`] is persisted, and the scene
//! is re-assembled from it whenever it is scored.

use loa_assoc::{bundle_prepared_into, BundleScratch, FrameBundles, PreparedBox, TrackBuilder};
use loa_data::{Frame, FrameId, ObjectClass, ObservationSource, SceneData};
use loa_geom::{Box3, Vec2};
use serde::{Deserialize, Serialize};

/// Index of an observation within a [`Scene`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObsIdx(pub usize);

/// Index of a bundle within a [`Scene`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BundleIdx(pub usize);

/// Index of a track within a [`Scene`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TrackIdx(pub usize);

/// One observation `ω`: a 3D box from one source in one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    pub idx: ObsIdx,
    pub frame: FrameId,
    pub source: ObservationSource,
    /// Index of this observation within its source's per-frame list
    /// (`frame.human_labels[i]` or `frame.detections[i]`), so evaluation
    /// can resolve provenance without the engine ever reading it.
    pub source_index: usize,
    /// Ego-frame box.
    pub bbox: Box3,
    pub class: ObjectClass,
    /// Model confidence (None for human/auditor labels).
    pub confidence: Option<f64>,
    /// Box center in the world frame (ego-motion compensated) — the basis
    /// of velocity features, so a parked car has near-zero velocity even
    /// while the ego moves.
    pub world_center: Vec2,
}

/// One observation bundle `β`: same-object observations in one frame.
///
/// The member list lives in the scene's flat arena —
/// [`Scene::bundle_obs`] returns it as a slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bundle {
    pub idx: BundleIdx,
    pub frame: FrameId,
}

/// One track `τ`: bundles of the same object across time, frame-ordered.
///
/// The member list lives in the scene's flat arena —
/// [`Scene::track_bundles`] returns it as a slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Track {
    pub idx: TrackIdx,
}

/// A track's slot in the scene's track arena: its `len` member bundles
/// sit at `start..start + len`, with room for `cap` before the slot ends.
#[derive(Debug, Clone, Copy, Default)]
struct TrackSpan {
    start: u32,
    len: u32,
    cap: u32,
}

/// Filler for the unused tail of a track slot; never read through
/// [`Scene::track_bundles`].
const SLACK: BundleIdx = BundleIdx(usize::MAX);

/// Track metas plus a tight arena layout (slots in track order,
/// `cap == len`) for the given member lists.
fn tight_tracks<I: IntoIterator<Item = BundleIdx>>(
    lists: impl IntoIterator<Item = I>,
    n_bundles: usize,
) -> (Vec<Track>, Vec<TrackSpan>, Vec<BundleIdx>) {
    let lists = lists.into_iter();
    let n_tracks = lists.size_hint().0;
    let mut tracks = Vec::with_capacity(n_tracks);
    let mut spans = Vec::with_capacity(n_tracks);
    let mut arena = Vec::with_capacity(n_bundles);
    for members in lists {
        let start = arena.len() as u32;
        arena.extend(members);
        let len = arena.len() as u32 - start;
        tracks.push(Track { idx: TrackIdx(tracks.len()) });
        spans.push(TrackSpan { start, len, cap: len });
    }
    (tracks, spans, arena)
}

/// What a ranked candidate reports about its track (class, length, mean
/// confidence), folded in once per bundle the track gains instead of
/// re-walked on every rank.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct TrackFacts {
    /// Member observations per class, by [`ObjectClass::index`].
    class_counts: [u32; ObjectClass::ALL.len()],
    /// Model confidences summed in track order, and how many there are.
    confidence_sum: f64,
    confidences: u32,
}

impl TrackFacts {
    /// Fold in one bundle's members. Indices outside the arenas (a
    /// malformed [`Scene::from_parts`] input, which validation rejects)
    /// are skipped rather than panicking here.
    fn add_bundle(
        &mut self,
        observations: &[Observation],
        bundle_obs_offsets: &[u32],
        bundle_obs_arena: &[ObsIdx],
        bundle: BundleIdx,
    ) {
        let (Some(&lo), Some(&hi)) =
            (bundle_obs_offsets.get(bundle.0), bundle_obs_offsets.get(bundle.0 + 1))
        else {
            return;
        };
        for o in bundle_obs_arena.get(lo as usize..hi as usize).unwrap_or_default() {
            let Some(obs) = observations.get(o.0) else {
                continue;
            };
            self.class_counts[obs.class.index()] += 1;
            if let Some(c) = obs.confidence {
                self.confidence_sum += c;
                self.confidences += 1;
            }
        }
    }
}

/// Which observation sources a scene is assembled from. The association
/// rule itself is fixed: [`loa_assoc::BUNDLE_IOU`] for same-frame
/// bundling, [`loa_assoc::TRACK_IOU`] and [`loa_assoc::TRACK_MAX_GAP`]
/// for tracking.
#[derive(Debug, Clone, Copy)]
pub struct AssemblyConfig {
    /// Include human labels as observations.
    pub use_human: bool,
    /// Include model detections as observations.
    pub use_model: bool,
}

impl Default for AssemblyConfig {
    fn default() -> Self {
        AssemblyConfig { use_human: true, use_model: true }
    }
}

impl AssemblyConfig {
    /// Model-predictions-only assembly (the Section 8.4 application
    /// assumes no human proposals).
    pub fn model_only() -> Self {
        AssemblyConfig { use_human: false, use_model: true }
    }

    /// Human-labels-only assembly (the label-audit application scores the
    /// vendor's own output, so model predictions are excluded).
    pub fn human_only() -> Self {
        AssemblyConfig { use_human: true, use_model: false }
    }
}

/// A fully assembled scene.
///
/// Bundle membership is CSR: `bundle_obs_offsets` indexes the flat
/// `bundle_obs_arena`. Track membership lives in one flat arena too,
/// addressed by a per-track slot, so iterating every member of every
/// element walks contiguous arrays instead of chasing per-element heap
/// vectors. Equality compares the logical member lists, not the arena
/// layout.
#[derive(Debug, Clone)]
pub struct Scene {
    observations: Vec<Observation>,
    bundles: Vec<Bundle>,
    /// `bundle_obs_arena[bundle_obs_offsets[b] .. bundle_obs_offsets[b+1]]`
    /// are bundle `b`'s members, in deterministic order.
    bundle_obs_offsets: Vec<u32>,
    bundle_obs_arena: Vec<ObsIdx>,
    tracks: Vec<Track>,
    /// Track `t`'s bundles, frame-ordered, fill the first `len` entries
    /// of its slot `track_spans[t]` in `track_bundle_arena`. Batch scenes
    /// are tight (`cap == len`, slots in track order); a streamed
    /// snapshot grows each track inside its slot and moves one that
    /// outgrows it to the arena's end with doubled capacity, leaving a
    /// gap behind (see [`AssemblyEngine::update_snapshot`]).
    track_spans: Vec<TrackSpan>,
    track_bundle_arena: Vec<BundleIdx>,
    /// Per track, derived from the arenas above.
    track_facts: Vec<TrackFacts>,
    /// Seconds between frames (for velocity features).
    pub frame_dt: f64,
    pub n_frames: usize,
}

impl PartialEq for Scene {
    fn eq(&self, other: &Scene) -> bool {
        self.observations == other.observations
            && self.bundles == other.bundles
            && self.bundle_obs_offsets == other.bundle_obs_offsets
            && self.bundle_obs_arena == other.bundle_obs_arena
            && self.tracks == other.tracks
            && self
                .tracks
                .iter()
                .all(|t| self.track_bundles(t.idx) == other.track_bundles(t.idx))
            && self.track_facts == other.track_facts
            && self.frame_dt == other.frame_dt
            && self.n_frames == other.n_frames
    }
}

impl Scene {
    /// Assemble bundles and tracks from a raw scene.
    ///
    /// One-shot convenience over [`AssemblyEngine`]; batch callers hold an
    /// engine and reuse its buffers across scenes.
    pub fn assemble(data: &SceneData, cfg: &AssemblyConfig) -> Scene {
        AssemblyEngine::new(*cfg).assemble(data)
    }

    /// Build a scene from explicit membership lists (the v1 shape): one
    /// `(frame, members)` entry per bundle, one bundle list per track.
    /// Indices (`Bundle::idx`, `Track::idx`) are assigned by position.
    pub fn from_parts(
        observations: Vec<Observation>,
        bundles: Vec<(FrameId, Vec<ObsIdx>)>,
        tracks: Vec<Vec<BundleIdx>>,
        frame_dt: f64,
        n_frames: usize,
    ) -> Scene {
        let mut bundle_metas = Vec::with_capacity(bundles.len());
        let mut bundle_obs_offsets = Vec::with_capacity(bundles.len() + 1);
        bundle_obs_offsets.push(0u32);
        let mut bundle_obs_arena = Vec::new();
        for (i, (frame, obs)) in bundles.into_iter().enumerate() {
            bundle_metas.push(Bundle { idx: BundleIdx(i), frame });
            bundle_obs_arena.extend(obs);
            bundle_obs_offsets.push(bundle_obs_arena.len() as u32);
        }
        let n_members = tracks.iter().map(Vec::len).sum();
        let (track_metas, track_spans, track_bundle_arena) = tight_tracks(tracks, n_members);
        Scene {
            observations,
            bundles: bundle_metas,
            bundle_obs_offsets,
            bundle_obs_arena,
            tracks: track_metas,
            track_spans,
            track_bundle_arena,
            track_facts: Vec::new(),
            frame_dt,
            n_frames,
        }
        .with_track_facts()
    }

    /// Fill `track_facts` from the arenas.
    fn with_track_facts(mut self) -> Scene {
        self.track_facts = (0..self.tracks.len())
            .map(|t| {
                let mut facts = TrackFacts::default();
                for &b in self.track_bundles(TrackIdx(t)) {
                    facts.add_bundle(
                        &self.observations,
                        &self.bundle_obs_offsets,
                        &self.bundle_obs_arena,
                        b,
                    );
                }
                facts
            })
            .collect();
        self
    }

    /// All observations, index-ordered.
    pub fn observations(&self) -> &[Observation] {
        &self.observations
    }

    /// All bundle metas, index-ordered.
    pub fn bundles(&self) -> &[Bundle] {
        &self.bundles
    }

    /// All track metas, index-ordered.
    pub fn tracks(&self) -> &[Track] {
        &self.tracks
    }

    pub fn n_observations(&self) -> usize {
        self.observations.len()
    }

    pub fn n_bundles(&self) -> usize {
        self.bundles.len()
    }

    pub fn n_tracks(&self) -> usize {
        self.tracks.len()
    }

    /// The observation an index refers to.
    pub fn obs(&self, idx: ObsIdx) -> &Observation {
        &self.observations[idx.0]
    }

    pub fn bundle(&self, idx: BundleIdx) -> &Bundle {
        &self.bundles[idx.0]
    }

    pub fn track(&self, idx: TrackIdx) -> &Track {
        &self.tracks[idx.0]
    }

    /// The member observations of a bundle, in deterministic order.
    #[inline]
    pub fn bundle_obs(&self, idx: BundleIdx) -> &[ObsIdx] {
        let lo = self.bundle_obs_offsets[idx.0] as usize;
        let hi = self.bundle_obs_offsets[idx.0 + 1] as usize;
        &self.bundle_obs_arena[lo..hi]
    }

    /// The member bundles of a track, frame-ordered.
    #[inline]
    pub fn track_bundles(&self, idx: TrackIdx) -> &[BundleIdx] {
        let span = self.track_spans[idx.0];
        let lo = span.start as usize;
        &self.track_bundle_arena[lo..lo + span.len as usize]
    }

    /// Append bundle `b` to track `t`: into the slot's slack when it has
    /// some, at the arena's end when the slot ends the arena, and
    /// otherwise after moving the slot to the arena's end with doubled
    /// capacity. Amortized O(1); a slot's capacity stays at most twice
    /// its length and the gaps it left behind sum to less than its
    /// capacity, so the arena stays under 4× the live member count.
    fn push_track_bundle(&mut self, t: TrackIdx, b: BundleIdx) {
        let arena = &mut self.track_bundle_arena;
        let span = &mut self.track_spans[t.0];
        let (start, len, cap) = (span.start as usize, span.len as usize, span.cap as usize);
        if len < cap {
            arena[start + len] = b;
        } else if start + cap == arena.len() {
            arena.push(b);
            span.cap += 1;
        } else {
            let (moved, new_cap) = (arena.len(), 2 * cap.max(1));
            arena.extend_from_within(start..start + len);
            arena.push(b);
            arena.resize(moved + new_cap, SLACK);
            span.start = moved as u32;
            span.cap = new_cap as u32;
        }
        span.len += 1;
    }

    /// All observation indices of a track, bundle-ordered (lazy).
    pub fn track_obs_iter(&self, idx: TrackIdx) -> impl Iterator<Item = ObsIdx> + '_ {
        self.track_bundles(idx)
            .iter()
            .flat_map(|&b| self.bundle_obs(b).iter().copied())
    }

    /// All observation indices of a track, bundle-ordered.
    pub fn track_obs(&self, track: &Track) -> Vec<ObsIdx> {
        self.track_obs_iter(track.idx).collect()
    }

    /// Whether a track contains an observation from `source`.
    pub fn track_has_source(&self, track: &Track, source: ObservationSource) -> bool {
        self.track_obs_iter(track.idx).any(|o| self.obs(o).source == source)
    }

    /// Whether a bundle contains an observation from `source`.
    pub fn bundle_has_source(&self, bundle: &Bundle, source: ObservationSource) -> bool {
        self.bundle_obs(bundle.idx)
            .iter()
            .any(|&o| self.obs(o).source == source)
    }

    /// The representative observation of a bundle: the human label when
    /// present, else the highest-confidence model prediction.
    pub fn bundle_representative(&self, bundle: &Bundle) -> &Observation {
        let mut members = self.bundle_obs(bundle.idx).iter().map(|&o| self.obs(o));
        let first = members.next().expect("bundles are non-empty by construction");
        members.fold(
            first,
            |cur, obs| if replaces_representative(cur, obs) { obs } else { cur },
        )
    }

    /// Number of observations in a track.
    pub fn track_n_obs(&self, idx: TrackIdx) -> usize {
        self.track_facts[idx.0].class_counts.iter().map(|&c| c as usize).sum()
    }

    /// Majority class of a track (ties broken by class index).
    pub fn track_class(&self, track: &Track) -> ObjectClass {
        let counts = &self.track_facts[track.idx.0].class_counts;
        let best = counts
            .iter()
            .enumerate()
            .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
            .map(|(i, _)| i)
            .unwrap_or(0);
        ObjectClass::from_index(best).unwrap_or(ObjectClass::Car)
    }

    /// Mean model confidence over a track's observations (None if the
    /// track has no model observations).
    pub fn track_mean_confidence(&self, track: &Track) -> Option<f64> {
        let facts = &self.track_facts[track.idx.0];
        (facts.confidences > 0).then(|| facts.confidence_sum / facts.confidences as f64)
    }
}

/// Whether `obs` is a better bundle representative than `cur`, the best
/// of the members before it: human beats model (human boxes are the
/// curated ones), then strictly higher confidence wins, so ties keep the
/// earlier member.
fn replaces_representative(cur: &Observation, obs: &Observation) -> bool {
    let cur_human = cur.source == ObservationSource::Human;
    let obs_human = obs.source == ObservationSource::Human;
    if obs_human != cur_human {
        obs_human
    } else {
        obs.confidence.unwrap_or(0.0) > cur.confidence.unwrap_or(0.0)
    }
}

/// The representative of a bundle whose members are `members`, offsets
/// into one frame's observations `frame_obs`: [`replaces_representative`]
/// folded over them, as [`Scene::bundle_representative`] does.
fn representative(frame_obs: &[Observation], members: &[u32]) -> u32 {
    members
        .iter()
        .copied()
        .reduce(|cur, m| {
            let better = replaces_representative(&frame_obs[cur as usize], &frame_obs[m as usize]);
            if better {
                m
            } else {
                cur
            }
        })
        .expect("bundles are non-empty by construction")
}

/// What one pushed frame changed in the in-progress scene — the assembly
/// facts that drive incremental re-scoring (no snapshot diffing).
///
/// New observations are `obs_start..scene.n_observations()` and new
/// bundles `bundle_start..scene.n_bundles()` of the snapshot covering the
/// frame. `changed_tracks` are the tracks the frame created or extended;
/// a changed track with one bundle was created this frame (track indices
/// are creation-ordered and stable across snapshots).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrameDelta {
    /// The pushed frame's index.
    pub frame: usize,
    /// Observation count before the frame (its watermark).
    pub obs_start: usize,
    /// Bundle count before the frame.
    pub bundle_start: usize,
    /// Tracks created or extended by the frame, ascending.
    pub changed_tracks: Vec<TrackIdx>,
}

/// The staged scene assembler.
///
/// Three stages per scene — (1) gather observations and bundle each frame
/// (spatially-indexed union-find), (2) link bundle representative boxes
/// across frames into tracks (spatially-pruned assignment), (3)
/// materialize the [`Scene`] arenas — with every intermediate buffer owned
/// by the engine and reused across scenes. Each observation's footprint
/// is prepared once, when it is gathered, and the bundler and the tracker
/// both read it by its offset in the frame. `ScenePipeline` keeps one
/// engine per worker thread, so a warm batch run allocates only for the
/// scenes it returns.
///
/// The stages are exposed incrementally: [`begin`](AssemblyEngine::begin)
/// / [`push_frame`](AssemblyEngine::push_frame) /
/// [`finish`](AssemblyEngine::finish) run one frame at a time — stage 1
/// bundles the frame into the in-progress CSR and stage 2 extends tracks
/// through an incremental [`TrackBuilder`] immediately, so a live stream
/// has no batch latency floor. [`Scene::assemble`] (and
/// [`assemble`](AssemblyEngine::assemble)) is the one-shot loop over this
/// exact path, which is what makes streamed and batch output
/// field-for-field identical. Mid-stream, [`update_snapshot`](AssemblyEngine::update_snapshot)
/// grows one live scene in place after each push (the sweep never
/// revises a past frame's assignments, so the grown scene equals a batch
/// assembly of the scene truncated to the frames pushed so far).
#[derive(Debug, Default)]
pub struct AssemblyEngine {
    cfg: AssemblyConfig,
    // This frame's observation footprints, in gather order (humans, then
    // models): the bundler's input, and the tracker's through `reps`.
    prepared: Vec<PreparedBox>,
    // Bundling scratch (grid, union-find) and this frame's groups, as
    // offsets into `prepared`.
    bundle_scratch: BundleScratch,
    frame_bundles: FrameBundles,
    // Each of this frame's bundles' representative, as an offset into
    // `prepared` (tracker input), plus the incremental tracker itself
    // (owns its grid/matrix/matcher scratch).
    reps: Vec<u32>,
    tracker: TrackBuilder,
    // In-progress scene accumulators: the bundle CSR grows per frame;
    // `frame_bundle_start` records each frame's bundle watermark (entry
    // `f` = bundles before frame `f`), which maps a tracker path entry
    // `(f, b)` to its `BundleIdx`.
    observations: Vec<Observation>,
    bundles: Vec<Bundle>,
    bundle_obs_offsets: Vec<u32>,
    bundle_obs_arena: Vec<ObsIdx>,
    frame_bundle_start: Vec<u32>,
    /// Per track, folded as the track gains each bundle (the order a
    /// from-scratch fold takes, so the sums agree bit for bit).
    track_facts: Vec<TrackFacts>,
    /// The most recent frame's delta (None before the first push and
    /// after `finish`).
    last_delta: Option<FrameDelta>,
    frame_dt: f64,
    n_frames: usize,
}

impl AssemblyEngine {
    pub fn new(cfg: AssemblyConfig) -> Self {
        AssemblyEngine { cfg, ..Default::default() }
    }

    /// Swap the assembly configuration, keeping all scratch buffers (the
    /// pipeline's per-thread engines serve whatever app comes next).
    /// Takes effect from the next pushed frame — swap between scenes,
    /// not mid-stream.
    pub fn set_config(&mut self, cfg: AssemblyConfig) {
        self.cfg = cfg;
    }

    /// Assemble one scene. Equivalent to [`Scene::assemble`] — the
    /// equivalence is locked by `tests/pipeline.rs` — but reuses every
    /// per-frame buffer from previous calls.
    pub fn assemble(&mut self, data: &SceneData) -> Scene {
        let cfg = self.cfg;
        self.begin(data.frame_dt);
        // Size the output vectors upfront — the observation count is
        // known exactly, and bundles can't outnumber observations.
        let n_obs: usize = data
            .frames
            .iter()
            .map(|f| {
                (if cfg.use_human { f.human_labels.len() } else { 0 })
                    + (if cfg.use_model { f.detections.len() } else { 0 })
            })
            .sum();
        self.observations.reserve(n_obs);
        self.bundles.reserve(n_obs);
        self.bundle_obs_offsets.reserve(n_obs + 1);
        self.bundle_obs_arena.reserve(n_obs);
        for frame in &data.frames {
            self.push_frame(frame);
        }
        self.finish()
    }

    /// Start a new scene, discarding any in-progress state (buffer
    /// capacity survives). Required before [`push_frame`](Self::push_frame).
    pub fn begin(&mut self, frame_dt: f64) {
        self.observations.clear();
        self.bundles.clear();
        self.bundle_obs_offsets.clear();
        self.bundle_obs_offsets.push(0);
        self.bundle_obs_arena.clear();
        self.frame_bundle_start.clear();
        self.track_facts.clear();
        self.tracker.begin();
        self.last_delta = None;
        self.frame_dt = frame_dt;
        self.n_frames = 0;
    }

    /// Number of frames pushed since [`begin`](Self::begin).
    pub fn frames_pushed(&self) -> usize {
        self.n_frames
    }

    /// Ingest the next frame: gather its observations, bundle them into
    /// the in-progress CSR, and extend tracks. The frame's position in
    /// the scene is its push order; callers streaming untrusted input
    /// validate `frame.index` against [`frames_pushed`](Self::frames_pushed)
    /// first (as `loa_ingest::StreamingAssembler` does).
    pub fn push_frame(&mut self, frame: &Frame) {
        assert!(
            !self.bundle_obs_offsets.is_empty(),
            "AssemblyEngine::begin must be called before push_frame"
        );
        let cfg = self.cfg;
        let f = self.n_frames;
        let (obs_start, bundle_start) = (self.observations.len(), self.bundles.len());
        self.frame_bundle_start.push(bundle_start as u32);

        // Stage 1a: gather this frame's observations, each written once
        // with its footprint beside it, with world centres rotated by one
        // `sin_cos` per frame (what `Pose2::transform` computes per
        // point).
        let (sin, cos) = frame.ego_pose.yaw.sin_cos();
        let to_world = |p: Vec2| p.rotated_sin_cos(sin, cos) + frame.ego_pose.translation;
        self.prepared.clear();
        if cfg.use_human {
            for (i, label) in frame.human_labels.iter().enumerate() {
                self.observations.push(Observation {
                    idx: ObsIdx(self.observations.len()),
                    frame: frame.index,
                    source: ObservationSource::Human,
                    source_index: i,
                    bbox: label.bbox,
                    class: label.class,
                    confidence: None,
                    world_center: to_world(label.bbox.center.bev()),
                });
                self.prepared.push(PreparedBox::new(&label.bbox));
            }
        }
        let humans = self.prepared.len();
        if cfg.use_model {
            for (i, det) in frame.detections.iter().enumerate() {
                self.observations.push(Observation {
                    idx: ObsIdx(self.observations.len()),
                    frame: frame.index,
                    source: ObservationSource::Model,
                    source_index: i,
                    bbox: det.bbox,
                    class: det.class,
                    confidence: Some(det.confidence),
                    world_center: to_world(det.bbox.center.bev()),
                });
                self.prepared.push(PreparedBox::new(&det.bbox));
            }
        }

        // Stage 1b: bundle the frame; humans are the first source.
        let prepared = &self.prepared;
        bundle_prepared_into(
            prepared,
            &[humans, prepared.len()],
            &mut self.bundle_scratch,
            &mut self.frame_bundles,
        );

        // Stage 3a: materialize this frame's bundles into the CSR arena
        // and pick each one's representative for the tracker.
        let frame_obs = &self.observations[obs_start..];
        self.reps.clear();
        for members in self.frame_bundles.iter() {
            self.bundle_obs_arena
                .extend(members.iter().map(|&m| ObsIdx(obs_start + m as usize)));
            self.bundles
                .push(Bundle { idx: BundleIdx(self.bundles.len()), frame: FrameId(f as u32) });
            self.bundle_obs_offsets.push(self.bundle_obs_arena.len() as u32);
            self.reps.push(representative(frame_obs, members));
        }

        // Stage 2: extend tracks through this frame, over the
        // representatives' footprints.
        self.tracker.step_prepared(prepared, &self.reps);

        // Fold each changed track's new bundle into its facts, and record
        // the frame's delta from the watermarks and the tracker's touched
        // set, which it reports ascending (reuse the previous delta's vec
        // when possible).
        let mut changed_tracks = match self.last_delta.take() {
            Some(mut d) => {
                d.changed_tracks.clear();
                d.changed_tracks
            }
            None => Vec::new(),
        };
        for &t in self.tracker.last_touched() {
            if t == self.track_facts.len() {
                self.track_facts.push(TrackFacts::default());
            }
            let (_, (_, b)) = self.tracker.path_len_and_last(t);
            self.track_facts[t].add_bundle(
                &self.observations,
                &self.bundle_obs_offsets,
                &self.bundle_obs_arena,
                BundleIdx(bundle_start + b),
            );
            changed_tracks.push(TrackIdx(t));
        }
        self.last_delta = Some(FrameDelta { frame: f, obs_start, bundle_start, changed_tracks });
        self.n_frames += 1;
    }

    /// What the most recent [`push_frame`](Self::push_frame) changed —
    /// `None` before the first push of a scene.
    pub fn last_delta(&self) -> Option<&FrameDelta> {
        self.last_delta.as_ref()
    }

    /// End the stream and materialize the [`Scene`]. The engine needs a
    /// [`begin`](Self::begin) before the next scene.
    pub fn finish(&mut self) -> Scene {
        // Stage 3b: lay the finished paths out tight in the track arena.
        let tracker = &self.tracker;
        let (tracks, track_spans, track_bundle_arena) = tight_tracks(
            (0..tracker.n_paths()).map(|t| {
                tracker
                    .path(t)
                    .map(|(f, b)| BundleIdx(self.frame_bundle_start[f] as usize + b))
            }),
            self.bundles.len(),
        );

        let scene = Scene {
            observations: std::mem::take(&mut self.observations),
            bundles: std::mem::take(&mut self.bundles),
            bundle_obs_offsets: std::mem::take(&mut self.bundle_obs_offsets),
            bundle_obs_arena: std::mem::take(&mut self.bundle_obs_arena),
            tracks,
            track_spans,
            track_bundle_arena,
            track_facts: std::mem::take(&mut self.track_facts),
            frame_dt: self.frame_dt,
            n_frames: self.n_frames,
        };
        self.tracker.begin();
        self.frame_bundle_start.clear();
        self.last_delta = None;
        self.n_frames = 0;
        scene
    }

    /// Grow `scene` in place to cover every pushed frame: the one way a
    /// live caller sees the partial scene. `scene` must be this stream's
    /// scene as of the previous push (grown by an earlier call here; an
    /// empty [`Scene::from_parts`] scene seeds the very first frame) or
    /// as of the current one, which is left as it is. So a live caller
    /// grows its scene once after every push. Any other scene is
    /// refused, untouched, with a [`SnapshotMismatch`]; the check is
    /// O(Δ) (element counts against the stream's watermarks, and each
    /// extended track's length against its path).
    ///
    /// The update is O(Δ) too: it appends the frame's observations and
    /// bundles, appends one bundle to each track in the frame's
    /// [`last_delta`](Self::last_delta) (moving a track that outgrows its
    /// slot to the arena's end), opens the frame's new tracks at the end,
    /// and copies those tracks' facts, which the stream folds bundle by
    /// bundle in track order, so the confidence sums match a
    /// from-scratch fold bit for bit. The result equals
    /// [`Scene::assemble`] over the frames pushed so far (tracker path
    /// indices are creation-ordered and agree with the sorted batch
    /// layout, locked by the loa_assoc `last_touched_indexes_snapshot`
    /// test).
    ///
    /// # Panics
    /// If [`begin`](Self::begin) was not called.
    pub fn update_snapshot(&self, scene: &mut Scene) -> Result<(), SnapshotMismatch> {
        assert!(
            !self.bundle_obs_offsets.is_empty(),
            "AssemblyEngine::begin must be called before update_snapshot"
        );
        let n_paths = self.tracker.n_paths();
        let path_len = |t: TrackIdx| self.tracker.path_len_and_last(t.0).0;
        let foreign = SnapshotMismatch::Foreign { scene_frames: scene.n_frames };
        if scene.n_frames == self.n_frames {
            let current = scene.observations.len() == self.observations.len()
                && scene.bundles.len() == self.bundles.len()
                && scene.tracks.len() == n_paths;
            return if current { Ok(()) } else { Err(foreign) };
        }
        let delta = match &self.last_delta {
            Some(delta) if scene.n_frames + 1 == self.n_frames => delta,
            _ => {
                return Err(SnapshotMismatch::Lagging {
                    scene_frames: scene.n_frames,
                    pushed: self.n_frames,
                })
            }
        };
        // A changed track with one entry was opened by this frame; the
        // rest gained exactly one entry each.
        let opened = delta.changed_tracks.iter().filter(|&&t| path_len(t) == 1).count();
        let extended_match = delta.changed_tracks.iter().all(|&t| {
            let len = path_len(t);
            len == 1 || scene.track_spans.get(t.0).is_some_and(|s| s.len as usize + 1 == len)
        });
        if scene.observations.len() != delta.obs_start
            || scene.bundles.len() != delta.bundle_start
            || scene.bundle_obs_arena.len() != self.bundle_obs_offsets[delta.bundle_start] as usize
            || scene.tracks.len() != n_paths - opened
            || !extended_match
        {
            return Err(foreign);
        }

        scene
            .observations
            .extend_from_slice(&self.observations[delta.obs_start..]);
        scene.bundles.extend_from_slice(&self.bundles[delta.bundle_start..]);
        // Offsets are global and append-only, so the prefix's entries are
        // byte-identical to ours — extend, don't rebuild.
        scene
            .bundle_obs_offsets
            .extend_from_slice(&self.bundle_obs_offsets[delta.bundle_start + 1..]);
        scene
            .bundle_obs_arena
            .extend_from_slice(&self.bundle_obs_arena[scene.bundle_obs_arena.len()..]);

        // Changed tracks ascend and the opened ones are the last indices,
        // so each opened track lands at the end in index order. Their
        // facts are the stream's own, folded as each bundle arrived.
        for &t in &delta.changed_tracks {
            let facts = self.track_facts[t.0];
            if t.0 == scene.tracks.len() {
                scene.tracks.push(Track { idx: t });
                scene.track_facts.push(facts);
                let start = scene.track_bundle_arena.len() as u32;
                scene.track_spans.push(TrackSpan { start, len: 0, cap: 0 });
            } else {
                scene.track_facts[t.0] = facts;
            }
            let (_, (f, b)) = self.tracker.path_len_and_last(t.0);
            scene.push_track_bundle(t, BundleIdx(self.frame_bundle_start[f] as usize + b));
        }
        scene.frame_dt = self.frame_dt;
        scene.n_frames = self.n_frames;
        Ok(())
    }
}

/// Why [`AssemblyEngine::update_snapshot`] refused a scene.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotMismatch {
    /// The scene covers `scene_frames` frames, but only the previous
    /// push's snapshot (`pushed - 1` frames) or the current one
    /// (`pushed`) can be grown.
    Lagging { scene_frames: usize, pushed: usize },
    /// The frame count fits, but the scene's observations, bundles or
    /// tracks are not this stream's.
    Foreign { scene_frames: usize },
}

impl std::fmt::Display for SnapshotMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotMismatch::Lagging { scene_frames, pushed } => write!(
                f,
                "scene covers {scene_frames} frame(s) but the stream has pushed {pushed}; \
                 only the previous or current snapshot can be grown"
            ),
            SnapshotMismatch::Foreign { scene_frames } => {
                write!(f, "scene of {scene_frames} frame(s) is not a snapshot of this stream")
            }
        }
    }
}

impl std::error::Error for SnapshotMismatch {}

#[cfg(test)]
mod tests {
    use super::*;
    use loa_data::{generate_scene, DatasetProfile};

    fn tiny_scene_data(seed: u64) -> SceneData {
        let mut cfg = DatasetProfile::LyftLike.scene_config();
        cfg.world.duration = 4.0;
        cfg.lidar.beam_count = 240;
        generate_scene(&cfg, "assembly-test", seed)
    }

    #[test]
    fn assembly_covers_all_observations() {
        let data = tiny_scene_data(3);
        let scene = Scene::assemble(&data, &AssemblyConfig::default());
        let raw_count: usize = data
            .frames
            .iter()
            .map(|f| f.human_labels.len() + f.detections.len())
            .sum();
        assert_eq!(scene.n_observations(), raw_count);
        // Every observation in exactly one bundle.
        let mut seen = std::collections::BTreeSet::new();
        for b in scene.bundles() {
            for &o in scene.bundle_obs(b.idx) {
                assert!(seen.insert(o), "{o:?} in two bundles");
            }
        }
        assert_eq!(seen.len(), raw_count);
        // Every bundle in exactly one track.
        let mut seen_b = std::collections::BTreeSet::new();
        for t in scene.tracks() {
            for &b in scene.track_bundles(t.idx) {
                assert!(seen_b.insert(b), "{b:?} in two tracks");
            }
        }
        assert_eq!(seen_b.len(), scene.n_bundles());
    }

    #[test]
    fn update_snapshot_equals_truncated_batch_every_frame() {
        // Growing one scene in place frame by frame must reproduce a
        // batch assembly of the scene truncated to the frames pushed so
        // far, under every preset, and growing never disturbs the stream:
        // the finished scene still matches batch.
        for cfg in
            [AssemblyConfig::default(), AssemblyConfig::model_only(), AssemblyConfig::human_only()]
        {
            let data = tiny_scene_data(7);
            let mut engine = AssemblyEngine::new(cfg);
            engine.begin(data.frame_dt);
            let mut current = Scene::from_parts(vec![], vec![], vec![], data.frame_dt, 0);
            let mut truncated = SceneData { frames: Vec::new(), ..data.clone() };
            for frame in &data.frames {
                engine.push_frame(frame);
                engine.update_snapshot(&mut current).unwrap();
                truncated.frames.push(frame.clone());
                assert_eq!(
                    current,
                    Scene::assemble(&truncated, &cfg),
                    "grown scene after {} frame(s) diverged",
                    truncated.frames.len()
                );
            }
            assert_eq!(current, engine.finish());
            assert_eq!(current, Scene::assemble(&data, &cfg));
        }
    }

    #[test]
    fn grown_track_arena_stays_bounded_and_batch_is_tight() {
        // A streamed snapshot keeps slack and gaps in its track arena but
        // stays within a small factor of the live members; the batch
        // layouts (finish, from_parts) are tight.
        for seed in [7, 23] {
            let data = tiny_scene_data(seed);
            let mut engine = AssemblyEngine::new(AssemblyConfig::default());
            engine.begin(data.frame_dt);
            let mut grown = Scene::from_parts(vec![], vec![], vec![], data.frame_dt, 0);
            let mut moved = 0;
            for frame in &data.frames {
                let starts: Vec<u32> = grown.track_spans.iter().map(|s| s.start).collect();
                engine.push_frame(frame);
                engine.update_snapshot(&mut grown).unwrap();
                moved += starts
                    .iter()
                    .zip(&grown.track_spans)
                    .filter(|(&a, b)| a != b.start)
                    .count();
                for s in &grown.track_spans {
                    assert!(s.len <= s.cap, "len {} over cap {}", s.len, s.cap);
                    assert!((s.start + s.cap) as usize <= grown.track_bundle_arena.len());
                }
                assert!(grown.track_bundle_arena.len() <= 4 * grown.n_bundles().max(1));
            }
            assert!(moved > 0, "seed {seed}: no track ever outgrew its slot");
            let tight = |scene: &Scene| {
                assert_eq!(scene.track_bundle_arena.len(), scene.n_bundles());
                let mut next = 0;
                for s in &scene.track_spans {
                    assert_eq!((s.start, s.len), (next, s.cap));
                    next += s.len;
                }
            };
            let batch = engine.finish();
            tight(&batch);
            assert_eq!(grown, batch);
            let lists = batch
                .tracks()
                .iter()
                .map(|t| batch.track_bundles(t.idx).to_vec())
                .collect();
            let parts: Vec<(FrameId, Vec<ObsIdx>)> = batch
                .bundles()
                .iter()
                .map(|b| (b.frame, batch.bundle_obs(b.idx).to_vec()))
                .collect();
            let rebuilt = Scene::from_parts(
                batch.observations().to_vec(),
                parts,
                lists,
                batch.frame_dt,
                batch.n_frames,
            );
            tight(&rebuilt);
            assert_eq!(rebuilt, grown);
        }
    }

    #[test]
    fn last_delta_reports_assembly_facts() {
        let data = tiny_scene_data(8);
        let mut engine = AssemblyEngine::new(AssemblyConfig::default());
        engine.begin(data.frame_dt);
        assert!(engine.last_delta().is_none());
        let mut prev = Scene::from_parts(vec![], vec![], vec![], data.frame_dt, 0);
        let mut truncated = SceneData { frames: Vec::new(), ..data.clone() };
        for (f, frame) in data.frames.iter().enumerate() {
            engine.push_frame(frame);
            // The reference is batch assembly, not the grown scene, whose
            // growth follows this very delta.
            truncated.frames.push(frame.clone());
            let snap = Scene::assemble(&truncated, &AssemblyConfig::default());
            let delta = engine.last_delta().unwrap();
            assert_eq!(delta.frame, f);
            assert_eq!(delta.obs_start, prev.n_observations());
            assert_eq!(delta.bundle_start, prev.n_bundles());
            // changed_tracks = exactly the tracks whose bundle lists
            // differ from the previous snapshot (new tracks included).
            let changed: Vec<TrackIdx> = snap
                .tracks()
                .iter()
                .map(|t| t.idx)
                .filter(|&t| {
                    t.0 >= prev.n_tracks() || snap.track_bundles(t) != prev.track_bundles(t)
                })
                .collect();
            assert_eq!(delta.changed_tracks, changed, "frame {f}");
            for w in delta.changed_tracks.windows(2) {
                assert!(w[0].0 < w[1].0, "changed_tracks sorted");
            }
            prev = snap;
        }
        engine.finish();
        assert!(engine.last_delta().is_none());
    }

    #[test]
    fn model_only_assembly_excludes_human() {
        let data = tiny_scene_data(4);
        let scene = Scene::assemble(&data, &AssemblyConfig::model_only());
        assert!(scene
            .observations()
            .iter()
            .all(|o| o.source == ObservationSource::Model));
        let det_count: usize = data.frames.iter().map(|f| f.detections.len()).sum();
        assert_eq!(scene.n_observations(), det_count);
    }

    #[test]
    fn bundles_mix_sources_for_same_object() {
        // A well-labeled, well-detected scene should produce many bundles
        // with both a human and a model member.
        let data = tiny_scene_data(5);
        let scene = Scene::assemble(&data, &AssemblyConfig::default());
        let mixed = scene
            .bundles()
            .iter()
            .filter(|b| {
                scene.bundle_has_source(b, ObservationSource::Human)
                    && scene.bundle_has_source(b, ObservationSource::Model)
            })
            .count();
        assert!(
            mixed > scene.n_bundles() / 4,
            "only {mixed}/{} mixed bundles",
            scene.n_bundles()
        );
    }

    #[test]
    fn tracks_span_multiple_frames() {
        let data = tiny_scene_data(6);
        let scene = Scene::assemble(&data, &AssemblyConfig::default());
        let long_tracks = scene
            .tracks()
            .iter()
            .filter(|t| scene.track_bundles(t.idx).len() >= 5)
            .count();
        assert!(long_tracks >= 3, "only {long_tracks} long tracks");
        // Tracks are frame-ordered.
        for t in scene.tracks() {
            let frames: Vec<u32> = scene
                .track_bundles(t.idx)
                .iter()
                .map(|&b| scene.bundle(b).frame.0)
                .collect();
            for w in frames.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn world_centers_compensate_ego_motion() {
        // A stationary parked car must have a near-constant world center
        // across a track even though the ego moves.
        let data = tiny_scene_data(7);
        let scene = Scene::assemble(&data, &AssemblyConfig::default());
        // Find the longest track and check spread of world centers per
        // bundle transition is bounded by a plausible per-frame motion.
        let track = scene
            .tracks()
            .iter()
            .max_by_key(|t| scene.track_bundles(t.idx).len())
            .expect("tracks exist");
        for pair in scene.track_bundles(track.idx).windows(2) {
            let a = scene.bundle_representative(scene.bundle(pair[0]));
            let b = scene.bundle_representative(scene.bundle(pair[1]));
            let frames_apart =
                (scene.bundle(pair[1]).frame.0 - scene.bundle(pair[0]).frame.0) as f64;
            let speed = a.world_center.distance(b.world_center) / (frames_apart * scene.frame_dt);
            assert!(speed < 40.0, "implausible world speed {speed}");
        }
    }

    #[test]
    fn representative_prefers_human() {
        let data = tiny_scene_data(8);
        let scene = Scene::assemble(&data, &AssemblyConfig::default());
        for b in scene.bundles() {
            let rep = scene.bundle_representative(b);
            if scene.bundle_has_source(b, ObservationSource::Human) {
                assert_eq!(rep.source, ObservationSource::Human);
            }
        }
    }

    #[test]
    fn track_class_majority() {
        let data = tiny_scene_data(9);
        let scene = Scene::assemble(&data, &AssemblyConfig::default());
        for t in scene.tracks() {
            let class = scene.track_class(t);
            let members = scene.track_obs(t);
            let count = members.iter().filter(|&&o| scene.obs(o).class == class).count();
            // Majority class covers at least half (ties possible).
            assert!(count * 2 >= members.len());
        }
    }

    #[test]
    fn empty_scene_assembles() {
        let data = SceneData {
            id: "empty".into(),
            frame_dt: 0.2,
            frames: vec![loa_data::Frame {
                index: FrameId(0),
                timestamp: 0.0,
                ego_pose: loa_geom::Pose2::identity(),
                gt: vec![],
                human_labels: vec![],
                detections: vec![],
            }],
            injected: Default::default(),
        };
        let scene = Scene::assemble(&data, &AssemblyConfig::default());
        assert!(scene.observations().is_empty());
        assert!(scene.bundles().is_empty());
        assert!(scene.tracks().is_empty());
        assert_eq!(scene.n_frames, 1);
    }

    #[test]
    fn engine_reuse_across_scenes_matches_fresh_assembly() {
        // One engine across heterogeneous scenes (different sizes, an
        // empty one in between) must produce exactly what fresh engines
        // produce — no state may leak through the reused buffers.
        let mut engine = AssemblyEngine::new(AssemblyConfig::default());
        for seed in [3, 11, 4, 12] {
            let data = tiny_scene_data(seed);
            let reused = engine.assemble(&data);
            let fresh = Scene::assemble(&data, &AssemblyConfig::default());
            assert_eq!(reused, fresh, "seed {seed} diverged through reuse");
        }
        // And a config swap mid-stream behaves like a fresh engine too.
        engine.set_config(AssemblyConfig::model_only());
        let data = tiny_scene_data(5);
        let reused = engine.assemble(&data);
        let fresh = Scene::assemble(&data, &AssemblyConfig::model_only());
        assert_eq!(reused, fresh, "config swap diverged");
    }

    #[test]
    fn incremental_push_matches_batch_assembly() {
        // Pushing frames one at a time through begin/push_frame/finish
        // must produce exactly what the one-shot assemble does, for every
        // assembly preset.
        for cfg in
            [AssemblyConfig::default(), AssemblyConfig::model_only(), AssemblyConfig::human_only()]
        {
            let data = tiny_scene_data(21);
            let mut engine = AssemblyEngine::new(cfg);
            engine.begin(data.frame_dt);
            for frame in &data.frames {
                engine.push_frame(frame);
            }
            assert_eq!(engine.frames_pushed(), data.frames.len());
            let streamed = engine.finish();
            assert_eq!(streamed, Scene::assemble(&data, &cfg));
        }
    }

    #[test]
    fn empty_stream_finishes_to_empty_scene() {
        let mut engine = AssemblyEngine::new(AssemblyConfig::default());
        engine.begin(0.2);
        // Before any push, an empty scene is already current.
        let mut empty = Scene::from_parts(vec![], vec![], vec![], 0.2, 0);
        assert_eq!(engine.update_snapshot(&mut empty), Ok(()));
        let scene = engine.finish();
        assert!(scene.observations().is_empty());
        assert!(scene.bundles().is_empty());
        assert!(scene.tracks().is_empty());
        assert_eq!(scene.n_frames, 0);
        assert_eq!(scene.frame_dt, 0.2);
    }

    #[test]
    fn csr_arenas_are_consistent() {
        let data = tiny_scene_data(13);
        let scene = Scene::assemble(&data, &AssemblyConfig::default());
        // Concatenating per-bundle slices walks the whole arena exactly
        // once, in order.
        let total_obs: usize = scene.bundles().iter().map(|b| scene.bundle_obs(b.idx).len()).sum();
        assert_eq!(total_obs, scene.n_observations());
        let total_bundles: usize =
            scene.tracks().iter().map(|t| scene.track_bundles(t.idx).len()).sum();
        assert_eq!(total_bundles, scene.n_bundles());
        // Metas carry their own positions.
        for (i, b) in scene.bundles().iter().enumerate() {
            assert_eq!(b.idx, BundleIdx(i));
        }
        for (i, t) in scene.tracks().iter().enumerate() {
            assert_eq!(t.idx, TrackIdx(i));
        }
    }
}
