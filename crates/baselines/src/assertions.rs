//! Ad-hoc model assertions (Kang et al. \[11\]).
//!
//! These are the hand-written, black-box checks the paper compares
//! against. They flag candidates but produce no calibrated severity — the
//! orderings live in [`crate::ordering`].

use fixy_core::{ObsIdx, Scene, TrackIdx};
use loa_data::ObservationSource;
use loa_geom::iou_bev;
use std::collections::BTreeSet;

/// The **consistency** assertion, used to find missing human labels
/// (Section 8.2 baseline): flag model-prediction tracks that persist
/// across at least `min_frames` frames yet contain no human label —
/// a time-consistent detection with no corresponding label is a candidate
/// missing object.
pub fn consistency_assertion(scene: &Scene, min_frames: usize) -> Vec<TrackIdx> {
    scene
        .tracks()
        .iter()
        .filter(|t| {
            scene.track_bundles(t.idx).len() >= min_frames
                && !scene.track_has_source(t, ObservationSource::Human)
        })
        .map(|t| t.idx)
        .collect()
}

/// The **appear** assertion: *"an observation should have observations in
/// nearby timestamps"* — flags observations in single-frame tracks.
pub fn appear_assertion(scene: &Scene) -> BTreeSet<ObsIdx> {
    let mut flagged = BTreeSet::new();
    for track in scene.tracks() {
        if scene.track_bundles(track.idx).len() == 1 {
            flagged.extend(scene.track_obs(track));
        }
    }
    flagged
}

/// The **flicker** assertion: *"an observation should not appear and
/// disappear rapidly"* — flags the observations of short-lived contiguous
/// segments: either a whole track living at most `max_span_frames` frames,
/// or a ≤`max_span_frames` segment of a longer track bounded by gaps
/// (appeared, vanished, reappeared). Long segments of a track with a
/// dropout are *not* flagged: it is the flickering observations that are
/// the error, not the object.
pub fn flicker_assertion(scene: &Scene, max_span_frames: u32) -> BTreeSet<ObsIdx> {
    let mut flagged = BTreeSet::new();
    for track in scene.tracks() {
        let bundles = scene.track_bundles(track.idx);
        if bundles.len() < 2 {
            continue; // appear's territory
        }
        // Split the track's bundles into contiguous segments.
        let mut segments: Vec<Vec<usize>> = vec![vec![0]];
        for i in 1..bundles.len() {
            let prev = scene.bundle(bundles[i - 1]).frame.0;
            let cur = scene.bundle(bundles[i]).frame.0;
            if cur - prev > 1 {
                segments.push(Vec::new());
            }
            segments.last_mut().expect("non-empty").push(i);
        }
        let whole_track_rapid = {
            let first = scene.bundle(bundles[0]).frame.0;
            let last = scene.bundle(*bundles.last().expect("non-empty")).frame.0;
            last - first < max_span_frames
        };
        for segment in &segments {
            let seg_first = scene.bundle(bundles[segment[0]]).frame.0;
            let seg_last = scene.bundle(bundles[*segment.last().expect("non-empty")]).frame.0;
            let seg_rapid = seg_last - seg_first < max_span_frames;
            // A short segment flickers when it is not the whole story of
            // the track (there are other segments) or the track itself is
            // rapid.
            if whole_track_rapid || (seg_rapid && segments.len() >= 2) {
                for &i in segment {
                    flagged.extend(scene.bundle_obs(bundles[i]).iter().copied());
                }
            }
        }
    }
    flagged
}

/// The **multibox** assertion: *"3 boxes should not overlap"* — flags
/// model observations participating in a same-frame triple of mutually
/// overlapping boxes.
pub fn multibox_assertion(scene: &Scene, min_iou: f64) -> BTreeSet<ObsIdx> {
    let mut flagged = BTreeSet::new();
    // Group model observations per frame.
    let mut per_frame: std::collections::BTreeMap<u32, Vec<ObsIdx>> = Default::default();
    for obs in scene.observations() {
        if obs.source == ObservationSource::Model {
            per_frame.entry(obs.frame.0).or_default().push(obs.idx);
        }
    }
    for obs_list in per_frame.values() {
        let n = obs_list.len();
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    let (oa, ob, oc) = (
                        &scene.obs(obs_list[a]).bbox,
                        &scene.obs(obs_list[b]).bbox,
                        &scene.obs(obs_list[c]).bbox,
                    );
                    if iou_bev(oa, ob) > min_iou
                        && iou_bev(ob, oc) > min_iou
                        && iou_bev(oa, oc) > min_iou
                    {
                        flagged.insert(obs_list[a]);
                        flagged.insert(obs_list[b]);
                        flagged.insert(obs_list[c]);
                    }
                }
            }
        }
    }
    flagged
}

/// Convenience wrapper running the three model-error assertions with the
/// paper's deployment (Section 8.4: appear, flicker, multibox).
#[derive(Debug, Clone, Copy)]
pub struct AdHocAssertions {
    pub flicker_max_span: u32,
    pub multibox_min_iou: f64,
}

impl Default for AdHocAssertions {
    fn default() -> Self {
        AdHocAssertions { flicker_max_span: 2, multibox_min_iou: 0.1 }
    }
}

impl AdHocAssertions {
    /// Union of all observations flagged by appear, flicker, and multibox.
    pub fn flag_all(&self, scene: &Scene) -> BTreeSet<ObsIdx> {
        let mut flagged = appear_assertion(scene);
        flagged.extend(flicker_assertion(scene, self.flicker_max_span));
        flagged.extend(multibox_assertion(scene, self.multibox_min_iou));
        flagged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixy_core::AssemblyConfig;
    use loa_data::{generate_scene, DatasetProfile, SceneData};

    fn scene_data(seed: u64) -> SceneData {
        let mut cfg = DatasetProfile::LyftLike.scene_config();
        cfg.world.duration = 6.0;
        cfg.lidar.beam_count = 300;
        generate_scene(&cfg, "baseline-test", seed)
    }

    #[test]
    fn consistency_flags_only_model_only_tracks() {
        let data = scene_data(1);
        let scene = Scene::assemble(&data, &AssemblyConfig::default());
        let flagged = consistency_assertion(&scene, 3);
        assert!(!flagged.is_empty());
        for t in &flagged {
            let track = scene.track(*t);
            assert!(!scene.track_has_source(track, ObservationSource::Human));
            assert!(scene.track_bundles(track.idx).len() >= 3);
        }
    }

    #[test]
    fn appear_flags_singletons_only() {
        let data = scene_data(2);
        let scene = Scene::assemble(&data, &AssemblyConfig::model_only());
        let flagged = appear_assertion(&scene);
        for track in scene.tracks() {
            let obs = scene.track_obs(track);
            let any_flagged = obs.iter().any(|o| flagged.contains(o));
            assert_eq!(
                any_flagged,
                scene.track_bundles(track.idx).len() == 1,
                "track len {}",
                scene.track_bundles(track.idx).len()
            );
        }
    }

    #[test]
    fn flicker_flags_short_segments_only() {
        let data = scene_data(3);
        let scene = Scene::assemble(&data, &AssemblyConfig::model_only());
        let flagged = flicker_assertion(&scene, 2);
        for track in scene.tracks() {
            let bundles = scene.track_bundles(track.idx);
            if bundles.len() < 2 {
                continue;
            }
            let frames: Vec<u32> = bundles.iter().map(|&b| scene.bundle(b).frame.0).collect();
            let span = frames.last().unwrap() - frames.first().unwrap() + 1;
            let has_gap = frames.windows(2).any(|w| w[1] - w[0] > 1);
            let obs = scene.track_obs(track);
            let any_flagged = obs.iter().any(|o| flagged.contains(o));
            if span <= 2 {
                assert!(any_flagged, "rapid track unflagged: {frames:?}");
            } else if !has_gap {
                assert!(!any_flagged, "contiguous long track flagged: {frames:?}");
            }
            // Gappy long tracks: only short-segment obs may be flagged —
            // never all of them when some segment is long.
            let longest_run = {
                let mut best = 1u32;
                let mut cur = 1u32;
                for w in frames.windows(2) {
                    if w[1] - w[0] == 1 {
                        cur += 1;
                    } else {
                        cur = 1;
                    }
                    best = best.max(cur);
                }
                best
            };
            if longest_run > 2 && span > 2 {
                let all_flagged = obs.iter().all(|o| flagged.contains(o));
                assert!(!all_flagged, "long-run track fully flagged: {frames:?}");
            }
        }
    }

    #[test]
    fn flicker_ignores_long_track_with_single_dropout() {
        // Build a scene by hand: detections in frames 0..10 except 5.
        let mut data = scene_data(31);
        for frame in &mut data.frames {
            frame.detections.clear();
            frame.human_labels.clear();
        }
        for i in 0..10u32 {
            if i == 5 {
                continue;
            }
            data.frames[i as usize].detections.push(loa_data::Detection {
                bbox: loa_geom::Box3::on_ground(
                    10.0 + i as f64 * 0.5,
                    0.0,
                    0.0,
                    4.5,
                    1.9,
                    1.6,
                    0.0,
                ),
                class: loa_data::ObjectClass::Car,
                confidence: 0.8,
                provenance: loa_data::DetectionProvenance::Clutter,
                class_correct: true,
                localization_error: false,
            });
        }
        let scene = Scene::assemble(&data, &AssemblyConfig::model_only());
        // One track with a bridged gap, two long segments: no flicker.
        let long_track = scene.tracks().iter().find(|t| scene.track_bundles(t.idx).len() == 9);
        assert!(long_track.is_some(), "tracker should bridge the dropout");
        let flagged = flicker_assertion(&scene, 2);
        let obs = scene.track_obs(long_track.unwrap());
        assert!(obs.iter().all(|o| !flagged.contains(o)));
    }

    #[test]
    fn multibox_fires_on_triple_overlap() {
        // Force duplicates: three near-identical boxes on one object.
        let mut data = scene_data(4);
        let frame = &mut data.frames[0];
        if let Some(det) = frame.detections.first().cloned() {
            let mut d2 = det.clone();
            d2.bbox = d2.bbox.translated(loa_geom::Vec3::new(0.2, 0.0, 0.0));
            let mut d3 = det.clone();
            d3.bbox = d3.bbox.translated(loa_geom::Vec3::new(-0.2, 0.1, 0.0));
            frame.detections.push(d2);
            frame.detections.push(d3);
        }
        let scene = Scene::assemble(&data, &AssemblyConfig::model_only());
        let flagged = multibox_assertion(&scene, 0.1);
        assert!(flagged.len() >= 3, "flagged {}", flagged.len());
    }

    #[test]
    fn multibox_quiet_without_triples() {
        // A scene with well-separated single detections.
        let mut data = scene_data(5);
        for frame in &mut data.frames {
            frame.detections.truncate(1);
        }
        let scene = Scene::assemble(&data, &AssemblyConfig::model_only());
        assert!(multibox_assertion(&scene, 0.1).is_empty());
    }

    #[test]
    fn flag_all_unions_assertions() {
        let data = scene_data(6);
        let scene = Scene::assemble(&data, &AssemblyConfig::model_only());
        let all = AdHocAssertions::default().flag_all(&scene);
        let a = appear_assertion(&scene);
        let f = flicker_assertion(&scene, 2);
        let m = multibox_assertion(&scene, 0.1);
        assert_eq!(
            all.len(),
            a.union(&f).cloned().collect::<BTreeSet<_>>().union(&m).count()
        );
        assert!(a.is_subset(&all) && f.is_subset(&all) && m.is_subset(&all));
    }
}
