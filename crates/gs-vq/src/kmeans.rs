//! Seeded k-means with k-means++ initialization.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of a clustering run.
#[derive(Clone, Debug, PartialEq)]
pub struct KmeansResult {
    /// `k × dim` centroids, row-major.
    pub centroids: Vec<f32>,
    /// Vector dimensionality.
    pub dim: usize,
    /// Number of centroids.
    pub k: usize,
    /// Mean squared distance after the final iteration.
    pub distortion: f64,
    /// Distortion after each Lloyd iteration (monotone non-increasing).
    pub history: Vec<f64>,
}

/// Runs k-means++ followed by `iters` Lloyd iterations on `data`
/// (`n × dim` row-major). Returns `k.min(n)` centroids.
///
/// Deterministic in `(data, k, iters, seed)`.
///
/// # Panics
///
/// Panics when `dim == 0`, `data.len()` is not a multiple of `dim`, or the
/// data is empty.
///
/// ```
/// use gs_vq::kmeans;
/// // Two well-separated 1-D clusters.
/// let data = [0.0_f32, 0.1, 0.2, 10.0, 10.1, 10.2];
/// let r = kmeans(&data, 1, 2, 10, 42);
/// let mut c = vec![r.centroids[0], r.centroids[1]];
/// c.sort_by(f32::total_cmp);
/// assert!((c[0] - 0.1).abs() < 0.05 && (c[1] - 10.1).abs() < 0.05);
/// ```
pub fn kmeans(data: &[f32], dim: usize, k: usize, iters: usize, seed: u64) -> KmeansResult {
    assert!(dim > 0, "dimension must be positive");
    assert!(!data.is_empty(), "cannot cluster empty data");
    assert_eq!(data.len() % dim, 0, "data length must be a multiple of dim");
    let n = data.len() / dim;
    let k = k.min(n).max(1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b6d_6561);

    let mut centroids = init_pp(data, dim, n, k, &mut rng);
    let mut assignment = vec![0u32; n];
    let mut history = Vec::with_capacity(iters);
    let mut distortion = assign(data, dim, n, &centroids, k, &mut assignment);

    for _ in 0..iters {
        update(data, dim, n, &assignment, k, &mut centroids, &mut rng);
        distortion = assign(data, dim, n, &centroids, k, &mut assignment);
        history.push(distortion);
    }
    KmeansResult {
        centroids,
        dim,
        k,
        distortion,
        history,
    }
}

fn dist2(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// k-means++ seeding: first centroid uniform, then proportional to D².
fn init_pp(data: &[f32], dim: usize, n: usize, k: usize, rng: &mut StdRng) -> Vec<f32> {
    let mut centroids = Vec::with_capacity(k * dim);
    let first = rng.gen_range(0..n);
    centroids.extend_from_slice(&data[first * dim..(first + 1) * dim]);

    let mut best_d2 = vec![f32::INFINITY; n];
    while centroids.len() < k * dim {
        let last = &centroids[centroids.len() - dim..];
        let mut total = 0.0f64;
        for i in 0..n {
            let d = dist2(&data[i * dim..(i + 1) * dim], last);
            if d < best_d2[i] {
                best_d2[i] = d;
            }
            total += best_d2[i] as f64;
        }
        let pick = if total <= 0.0 {
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut chosen = n - 1;
            for (i, d) in best_d2.iter().enumerate() {
                target -= *d as f64;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.extend_from_slice(&data[pick * dim..(pick + 1) * dim]);
    }
    centroids
}

/// Centroids per block of [`assign`]'s transposed centroid table.
const LANES: usize = 8;

/// Assigns every point to its nearest centroid and returns the mean
/// squared distance.
///
/// The centroids are transposed into blocks of [`LANES`]: block `b` holds
/// coordinate `d` of centroids `8b..8b + 8` side by side, so one pass over
/// a point's coordinates accumulates eight distances at once. Each lane
/// sums `(x − c)²` in the same coordinate order as [`dist2`], and the
/// argmin scans lanes in centroid order with the same strict `<`, so every
/// distance, every assignment and the total are bit-identical to the
/// one-centroid-at-a-time scan.
fn assign(
    data: &[f32],
    dim: usize,
    n: usize,
    centroids: &[f32],
    k: usize,
    assignment: &mut [u32],
) -> f64 {
    let block_len = dim * LANES;
    let mut table = vec![0.0f32; k.div_ceil(LANES) * block_len];
    for (c, centroid) in centroids[..k * dim].chunks_exact(dim).enumerate() {
        let (b, lane) = (c / LANES, c % LANES);
        for (d, &x) in centroid.iter().enumerate() {
            table[b * block_len + d * LANES + lane] = x;
        }
    }
    let mut total = 0.0f64;
    for (v, slot) in data[..n * dim].chunks_exact(dim).zip(assignment.iter_mut()) {
        let mut best = 0usize;
        let mut best_d = f32::INFINITY;
        for (b, block) in table.chunks_exact(block_len).enumerate() {
            let mut acc = [0.0f32; LANES];
            for (&x, coord) in v.iter().zip(block.chunks_exact(LANES)) {
                for (a, &c) in acc.iter_mut().zip(coord) {
                    let t = x - c;
                    *a += t * t;
                }
            }
            // The last block's padding lanes hold no centroid.
            let lanes = (k - b * LANES).min(LANES);
            for (lane, &d) in acc[..lanes].iter().enumerate() {
                if d < best_d {
                    best_d = d;
                    best = b * LANES + lane;
                }
            }
        }
        *slot = best as u32;
        total += best_d as f64;
    }
    total / n as f64
}

fn update(
    data: &[f32],
    dim: usize,
    n: usize,
    assignment: &[u32],
    k: usize,
    centroids: &mut [f32],
    rng: &mut StdRng,
) {
    let mut counts = vec![0u32; k];
    let mut sums = vec![0f64; k * dim];
    for i in 0..n {
        let c = assignment[i] as usize;
        counts[c] += 1;
        for d in 0..dim {
            sums[c * dim + d] += data[i * dim + d] as f64;
        }
    }
    for c in 0..k {
        if counts[c] == 0 {
            // Re-seed empty clusters at a random data point.
            let pick = rng.gen_range(0..n);
            centroids[c * dim..(c + 1) * dim].copy_from_slice(&data[pick * dim..(pick + 1) * dim]);
        } else {
            for d in 0..dim {
                centroids[c * dim + d] = (sums[c * dim + d] / counts[c] as f64) as f32;
            }
        }
    }
}

/// Nearest-centroid lookup used by encoders. Returns `(index, squared err)`.
pub fn nearest(centroids: &[f32], dim: usize, v: &[f32]) -> (u32, f32) {
    debug_assert_eq!(v.len(), dim);
    let k = centroids.len() / dim;
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for c in 0..k {
        let d = dist2(v, &centroids[c * dim..(c + 1) * dim]);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best as u32, best_d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separates_two_clusters() {
        let mut data = Vec::new();
        for i in 0..50 {
            data.extend_from_slice(&[0.0 + 0.01 * i as f32, 1.0]);
            data.extend_from_slice(&[5.0 + 0.01 * i as f32, -1.0]);
        }
        let r = kmeans(&data, 2, 2, 15, 7);
        assert_eq!(r.k, 2);
        let c0 = &r.centroids[0..2];
        let c1 = &r.centroids[2..4];
        let (lo, hi) = if c0[0] < c1[0] { (c0, c1) } else { (c1, c0) };
        assert!((lo[0] - 0.245).abs() < 0.1, "lo {lo:?}");
        assert!((hi[0] - 5.245).abs() < 0.1, "hi {hi:?}");
    }

    #[test]
    fn distortion_is_monotone_nonincreasing() {
        let mut data = Vec::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..300 {
            data.push(rng.gen::<f32>() * 10.0);
            data.push(rng.gen::<f32>() * 10.0);
            data.push(rng.gen::<f32>() * 10.0);
        }
        let r = kmeans(&data, 3, 16, 12, 11);
        for w in r.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "distortion increased: {w:?}");
        }
    }

    #[test]
    fn k_larger_than_n_is_clamped() {
        let data = [1.0f32, 2.0, 3.0, 4.0];
        let r = kmeans(&data, 2, 10, 5, 1);
        assert_eq!(r.k, 2);
        assert!(r.distortion < 1e-9);
    }

    #[test]
    fn deterministic_in_seed() {
        let data: Vec<f32> = (0..90).map(|i| (i * 37 % 23) as f32).collect();
        let a = kmeans(&data, 3, 4, 8, 5);
        let b = kmeans(&data, 3, 4, 8, 5);
        assert_eq!(a.centroids, b.centroids);
        let c = kmeans(&data, 3, 4, 8, 6);
        assert!(c.centroids != a.centroids || c.distortion == a.distortion);
    }

    #[test]
    fn more_centroids_lower_distortion() {
        let mut rng = StdRng::seed_from_u64(9);
        let data: Vec<f32> = (0..600).map(|_| rng.gen::<f32>()).collect();
        let d4 = kmeans(&data, 2, 4, 10, 1).distortion;
        let d32 = kmeans(&data, 2, 32, 10, 1).distortion;
        assert!(d32 < d4);
    }

    #[test]
    fn nearest_finds_exact_centroid() {
        let centroids = [0.0f32, 0.0, 10.0, 10.0];
        let (i, d) = nearest(&centroids, 2, &[9.8, 10.1]);
        assert_eq!(i, 1);
        assert!(d < 0.1);
    }

    #[test]
    fn blocked_assign_is_bit_identical_to_scalar_scan() {
        // Every block shape (k below, at and past a block, with a ragged
        // last block) and duplicated centroids (ties resolve to the lower
        // index) must reproduce `nearest`'s one-centroid-at-a-time scan.
        let mut rng = StdRng::seed_from_u64(21);
        for (dim, k) in [(1, 1), (3, 7), (4, 8), (3, 9), (45, 23), (2, 40)] {
            let n = 257;
            let data: Vec<f32> = (0..n * dim).map(|_| rng.gen::<f32>() * 4.0 - 2.0).collect();
            let mut centroids: Vec<f32> = data[..k * dim].to_vec();
            if k > 2 {
                centroids.copy_within(0..dim, (k - 1) * dim);
            }
            let mut assignment = vec![0u32; n];
            let mean = assign(&data, dim, n, &centroids, k, &mut assignment);
            let mut total = 0.0f64;
            for (i, v) in data.chunks_exact(dim).enumerate() {
                let (best, d) = nearest(&centroids, dim, v);
                assert_eq!(assignment[i], best, "dim {dim} k {k} point {i}");
                total += d as f64;
            }
            assert_eq!(mean.to_bits(), (total / n as f64).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn bad_shape_panics() {
        let _ = kmeans(&[1.0, 2.0, 3.0], 2, 2, 1, 0);
    }
}
