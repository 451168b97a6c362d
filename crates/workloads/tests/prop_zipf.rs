//! The guided Zipf draw against the whole-CDF binary search in
//! `tests/spec/zipf.rs`: the same index for every variate that can sit
//! on a boundary — each CDF value and each guide-bucket edge, with their
//! `f64` neighbours — plus 0, 1 − ε and 10⁵ random draws, over the key
//! counts and skews the workloads use and the awkward small ones.

use rand::Rng;
use workloads::Zipf;

#[path = "../../../tests/spec/zipf.rs"]
mod zipf;

#[test]
fn guided_draw_matches_the_full_binary_search() {
    let mut rng = workloads::rng(27);
    for n in [1u32, 2, 3, 48, 100, 640, 2048, 4096, 5000] {
        for theta in [0.0, 0.5, 0.99, 1.2] {
            let fast = Zipf::new(n, theta);
            let cdf = zipf::cdf(n, theta);
            assert!(
                cdf.windows(2).all(|w| w[0] < w[1]),
                "n {n} theta {theta}: the CDF is not strictly increasing"
            );
            let g = n.next_power_of_two();
            let edges = (0..=g).map(|j| j as f64 / g as f64);
            let mut us: Vec<f64> = cdf
                .iter()
                .copied()
                .chain(edges)
                .flat_map(|x| [x.next_down(), x, x.next_up()])
                .collect();
            us.extend([0.0, 1.0 - f64::EPSILON]);
            us.extend((0..100_000).map(|_| rng.gen::<f64>()));
            for u in us {
                assert_eq!(
                    fast.sample_unit(u),
                    zipf::sample_unit(&cdf, u),
                    "n {n} theta {theta} u {u:e}"
                );
            }
        }
    }
}
