//! Shared helpers for the cross-crate integration tests.

use symi::{MoeLayerEngine, ReshardReport};
use symi_collectives::coll::chunk_range;
use symi_tensor::Matrix;

/// Deterministic pseudo-token embeddings for a rank's local batch.
pub fn token_matrix(rank: usize, t_loc: usize, d: usize) -> Matrix {
    Matrix::from_fn(t_loc, d, |r, c| (((rank * t_loc + r) * d + c) as f32 * 0.137).sin())
}

/// The re-shard accounting identity of one member after a membership
/// change: every parameter of its new chunk of every class is kept,
/// transferred or reseeded, exactly once, and re-initialization is a kind
/// of reseeding.
pub fn assert_reshard_accounts(engine: &MoeLayerEngine, report: &ReshardReport) {
    let cfg = engine.config();
    let params = 2 * cfg.d_model * cfg.d_ff + cfg.d_ff + cfg.d_model; // W1 | b1 | W2 | b2
    let (start, end) = chunk_range(params, engine.membership().size(), engine.logical_rank());
    assert_eq!(
        report.kept_params + report.transferred_params + report.reseeded_params,
        (cfg.expert_classes * (end - start)) as u64,
        "kept + transferred + reseeded must tile the new chunk: {report:?}"
    );
    assert!(report.reinitialized_params <= report.reseeded_params, "{report:?}");
}

/// Max absolute difference between two flat float slices.
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max)
}
