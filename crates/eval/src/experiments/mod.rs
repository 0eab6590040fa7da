//! Experiment runners, one per table/figure of Section 8.

pub mod audit_curve;
pub mod injection_recall;
pub mod missing_obs;
pub mod model_errors;
pub mod recall;
pub mod runtime;
pub mod table3;

use fixy_core::pipeline::{pool_map, worker_count};
use std::convert::Infallible;

/// Map a function over items in parallel (scenes are independent) on the
/// pipeline's worker pool, keeping input order.
pub(crate) fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync + Send,
{
    let workers = worker_count().min(items.len());
    pool_map(workers, items, |_, item| Ok::<_, Infallible>(f(item))).unwrap_or_else(|e| match e {})
}

/// Shrink a scene config for fast test runs.
pub(crate) fn shrink_config(cfg: &mut loa_data::SceneConfig, duration: f64, beams: usize) {
    cfg.world.duration = duration;
    cfg.lidar.beam_count = beams;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..50).collect();
        let out = parallel_map(items, |x| x * 2);
        assert_eq!(out, (0..50).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }
}
