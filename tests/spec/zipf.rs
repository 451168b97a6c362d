//! Zipf draw reference model: the inverse-CDF step as one binary search
//! over the whole CDF.
//!
//! This is `workloads::Zipf::sample_unit` as it was before the guide
//! table narrowed each search to one bucket; the CDF is built exactly as
//! `Zipf::new` builds it. Included with `#[path]` by
//! `workloads/tests/prop_zipf.rs`, which demands the same index from
//! both for every variate it tries; depends on nothing.

use std::cmp::Ordering;

/// The CDF over `n` items with skew `theta`: normalised harmonic weights,
/// accumulated in index order.
pub fn cdf(n: u32, theta: f64) -> Vec<f64> {
    let mut weights: Vec<f64> = (1..=n as u64)
        .map(|k| 1.0 / (k as f64).powf(theta))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    for w in weights.iter_mut() {
        acc += *w / total;
        *w = acc;
    }
    weights
}

/// The index a uniform variate `u` maps to: a binary search for `u` over
/// the whole CDF, clamped to the last index.
pub fn sample_unit(cdf: &[f64], u: f64) -> u32 {
    match cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap_or(Ordering::Less)) {
        Ok(i) | Err(i) => (i as u32).min(cdf.len() as u32 - 1),
    }
}
