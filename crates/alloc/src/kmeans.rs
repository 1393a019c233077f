//! Seeded k-means clustering over slowdown vectors.
//!
//! Both allocation levels group entities (tasks, then VCPUs) whose
//! slowdown vectors are similar, so that entities sharing a core make
//! similar use of the cache and bandwidth given to that core. The
//! feature space is the flattened slowdown surface (one dimension per
//! `(c, b)` cell); distances are Euclidean.
//!
//! The implementation is deterministic for a given seed: k-means++
//! initialization drives all randomness through the caller's RNG, and
//! Lloyd iterations run to convergence or a fixed cap.

use vc2m_rng::Rng;

/// Maximum Lloyd iterations before giving up on convergence.
const MAX_ITERATIONS: usize = 50;

/// Result of a clustering run: for each input point, the index of its
/// cluster in `0..k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    assignment: Vec<usize>,
    k: usize,
}

impl Clustering {
    /// Cluster index of point `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn cluster_of(&self, i: usize) -> usize {
        self.assignment[i]
    }

    /// The assignment vector.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Number of clusters requested.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The members of each cluster, as index lists.
    pub fn members(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.k];
        for (i, &c) in self.assignment.iter().enumerate() {
            groups[c].push(i);
        }
        groups
    }
}

/// Runs k-means over `points` (each a feature slice of equal length),
/// producing at most `k` clusters.
///
/// Empty inputs yield an empty clustering; `k` is clamped to the
/// number of points. Duplicate points are fine (k-means++ falls back
/// to uniform choice when all remaining distances are zero).
///
/// # Panics
///
/// Panics if `k` is zero while points are non-empty, or if points have
/// inconsistent dimensions.
pub fn kmeans<R: Rng>(points: &[&[f64]], k: usize, rng: &mut R) -> Clustering {
    if points.is_empty() {
        return Clustering {
            assignment: Vec::new(),
            k: 0,
        };
    }
    assert!(k > 0, "k must be positive for a non-empty point set");
    let dim = points[0].len();
    assert!(
        points.iter().all(|p| p.len() == dim),
        "all points must share one dimension"
    );
    let k = k.min(points.len());

    let mut centroids = init_plus_plus(points, k, rng);
    let mut assignment = vec![0usize; points.len()];
    for _ in 0..MAX_ITERATIONS {
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let nearest = nearest_centroid(p, &centroids);
            if assignment[i] != nearest {
                assignment[i] = nearest;
                changed = true;
            }
        }
        // Recompute centroids; refill an empty cluster by stealing the
        // point farthest from its centroid — but only when that point
        // is at a strictly positive distance and leaves at least one
        // point behind. (With identical points there is nothing
        // meaningful to split; empty clusters are then left empty and
        // callers skip them.)
        let mut sums = vec![vec![0.0; dim]; k];
        let mut counts = vec![0usize; k];
        for (i, p) in points.iter().enumerate() {
            counts[assignment[i]] += 1;
            for (s, v) in sums[assignment[i]].iter_mut().zip(*p) {
                *s += v;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                let candidate = points
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| counts[assignment[*i]] >= 2)
                    .map(|(i, p)| (i, distance_sq(p, &centroids[assignment[i]])))
                    .max_by(|(i, a), (j, b)| {
                        a.partial_cmp(b)
                            .expect("distances are finite")
                            .then(i.cmp(j))
                    });
                if let Some((far, dist)) = candidate {
                    if dist > 0.0 {
                        counts[assignment[far]] -= 1;
                        assignment[far] = c;
                        counts[c] = 1;
                        centroids[c] = points[far].to_vec();
                        changed = true;
                    }
                }
            } else {
                for (d, s) in centroids[c].iter_mut().zip(&sums[c]) {
                    *d = s / counts[c] as f64;
                }
            }
        }
        if !changed {
            break;
        }
    }
    Clustering { assignment, k }
}

fn init_plus_plus<R: Rng>(points: &[&[f64]], k: usize, rng: &mut R) -> Vec<Vec<f64>> {
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..points.len())].to_vec());
    // Each point's squared distance to its nearest centroid so far: a
    // running minimum, extended by the newest centroid each round,
    // folds the distances in centroid order like a full recomputation.
    let mut weights = vec![f64::INFINITY; points.len()];
    while centroids.len() < k {
        let newest = centroids.last().expect("one centroid chosen");
        for (w, p) in weights.iter_mut().zip(points) {
            *w = w.min(distance_sq(p, newest));
        }
        let total: f64 = weights.iter().sum();
        let chosen = if total <= 0.0 {
            rng.gen_range(0..points.len())
        } else {
            let mut target = rng.gen_f64() * total;
            let mut chosen = points.len() - 1;
            for (i, w) in weights.iter().enumerate() {
                if target < *w {
                    chosen = i;
                    break;
                }
                target -= w;
            }
            chosen
        };
        centroids.push(points[chosen].to_vec());
    }
    centroids
}

/// Index of the centroid nearest to `p`, the lowest index on a tie.
fn nearest_centroid(p: &[f64], centroids: &[Vec<f64>]) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for_each_distance_sq(p, centroids, |i, d| {
        if d < best_d {
            best_d = d;
            best = i;
        }
    });
    best
}

/// Centroids whose distances one pass over the dimensions computes.
const LANES: usize = 4;

/// Calls `f(i, distance_sq(p, &centroids[i]))` for every centroid in
/// index order. Up to [`LANES`] distances share one pass over the
/// dimensions, each in its own accumulator summed in dimension order,
/// so each equals [`distance_sq`] bit for bit while the additions of
/// different centroids overlap instead of waiting on one another.
fn for_each_distance_sq(p: &[f64], centroids: &[Vec<f64>], mut f: impl FnMut(usize, f64)) {
    for (g, group) in centroids.chunks(LANES).enumerate() {
        let mut emit = |distances: &[f64]| {
            for (j, &d) in distances.iter().enumerate() {
                f(g * LANES + j, d);
            }
        };
        match group.len() {
            4 => emit(&lanes::<4>(p, group)),
            3 => emit(&lanes::<3>(p, group)),
            2 => emit(&lanes::<2>(p, group)),
            _ => emit(&lanes::<1>(p, group)),
        }
    }
}

/// Squared distances from `p` to each of the `N` centroids of `group`.
fn lanes<const N: usize>(p: &[f64], group: &[Vec<f64>]) -> [f64; N] {
    let centroids: [&[f64]; N] = std::array::from_fn(|j| &group[j][..p.len()]);
    // -0.0, the identity `Iterator::sum` starts from, keeps even a
    // zero-dimension distance bitwise equal.
    let mut sums = [-0.0; N];
    for (d, &x) in p.iter().enumerate() {
        for (sum, c) in sums.iter_mut().zip(&centroids) {
            let diff = x - c[d];
            *sum += diff * diff;
        }
    }
    sums
}

fn distance_sq(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc2m_rng::{DetRng, Rng};

    fn rng() -> DetRng {
        DetRng::seed_from_u64(17)
    }

    /// Deterministic pseudo-random features, spread over several
    /// binades so the rounding of each addition matters.
    fn features(n: usize, dim: usize, rng: &mut DetRng) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| {
                (0..dim)
                    .map(|_| rng.gen_f64() * 10f64.powi(rng.gen_range(0..6usize) as i32 - 3))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn interleaved_distances_equal_distance_sq_bit_for_bit() {
        let mut rng = rng();
        for k in 1..=9 {
            for dim in [0, 1, 3, 7, 19, 381] {
                let centroids = features(k, dim, &mut rng);
                let p = &features(1, dim, &mut rng)[0];
                let mut seen = Vec::new();
                for_each_distance_sq(p, &centroids, |i, d| seen.push((i, d.to_bits())));
                let expected: Vec<(usize, u64)> = centroids
                    .iter()
                    .enumerate()
                    .map(|(i, c)| (i, distance_sq(p, c).to_bits()))
                    .collect();
                assert_eq!(seen, expected, "k={k} dim={dim}");
            }
        }
    }

    #[test]
    fn nearest_centroid_breaks_exact_ties_toward_the_lowest_index() {
        let p = [1.0, 2.0, 3.0];
        let near = vec![1.5, 2.0, 3.0];
        let far = vec![9.0, 9.0, 9.0];
        for k in 2..=6 {
            for first in 0..k - 1 {
                for second in first + 1..k {
                    let mut centroids = vec![far.clone(); k];
                    centroids[first] = near.clone();
                    centroids[second] = near.clone();
                    assert_eq!(nearest_centroid(&p, &centroids), first, "k={k}");
                }
            }
        }
    }

    #[test]
    fn empty_input() {
        let c = kmeans(&[], 3, &mut rng());
        assert_eq!(c.k(), 0);
        assert!(c.assignment().is_empty());
    }

    #[test]
    fn k_clamped_to_point_count() {
        let points: Vec<&[f64]> = vec![&[0.0], &[1.0]];
        let c = kmeans(&points, 5, &mut rng());
        assert_eq!(c.k(), 2);
    }

    #[test]
    fn separates_two_obvious_blobs() {
        let raw: Vec<Vec<f64>> = (0..10)
            .map(|i| {
                if i < 5 {
                    vec![0.0 + i as f64 * 0.01, 0.0]
                } else {
                    vec![10.0 + i as f64 * 0.01, 10.0]
                }
            })
            .collect();
        let points: Vec<&[f64]> = raw.iter().map(|v| v.as_slice()).collect();
        let c = kmeans(&points, 2, &mut rng());
        let first = c.cluster_of(0);
        assert!((0..5).all(|i| c.cluster_of(i) == first));
        let second = c.cluster_of(5);
        assert!((5..10).all(|i| c.cluster_of(i) == second));
        assert_ne!(first, second);
    }

    #[test]
    fn no_cluster_is_empty() {
        // 6 points, 3 clusters, two far blobs: the third centroid must
        // steal a point rather than stay empty.
        let raw: Vec<Vec<f64>> = vec![
            vec![0.0],
            vec![0.1],
            vec![0.2],
            vec![9.0],
            vec![9.1],
            vec![9.2],
        ];
        let points: Vec<&[f64]> = raw.iter().map(|v| v.as_slice()).collect();
        let c = kmeans(&points, 3, &mut rng());
        let members = c.members();
        assert_eq!(members.len(), 3);
        assert!(members.iter().all(|m| !m.is_empty()), "{members:?}");
        let total: usize = members.iter().map(Vec::len).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn identical_points_collapse_to_one_cluster() {
        // Nothing meaningful separates identical points: they all land
        // in one cluster and the other clusters stay empty (callers
        // skip empty clusters).
        let raw: Vec<Vec<f64>> = vec![vec![1.0, 2.0]; 8];
        let points: Vec<&[f64]> = raw.iter().map(|v| v.as_slice()).collect();
        let c = kmeans(&points, 3, &mut rng());
        assert_eq!(c.assignment().len(), 8);
        let non_empty: Vec<_> = c.members().into_iter().filter(|m| !m.is_empty()).collect();
        assert_eq!(non_empty.len(), 1);
        assert_eq!(non_empty[0].len(), 8);
    }

    #[test]
    fn deterministic_for_seed() {
        let raw: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![(i * i % 7) as f64, i as f64])
            .collect();
        let points: Vec<&[f64]> = raw.iter().map(|v| v.as_slice()).collect();
        let a = kmeans(&points, 4, &mut DetRng::seed_from_u64(5));
        let b = kmeans(&points, 4, &mut DetRng::seed_from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "share one dimension")]
    fn mismatched_dimensions_panic() {
        let a = [0.0];
        let b = [0.0, 1.0];
        let points: Vec<&[f64]> = vec![&a, &b];
        let _ = kmeans(&points, 1, &mut rng());
    }

    #[test]
    fn single_cluster_contains_everything() {
        let raw: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64]).collect();
        let points: Vec<&[f64]> = raw.iter().map(|v| v.as_slice()).collect();
        let c = kmeans(&points, 1, &mut rng());
        assert!(c.assignment().iter().all(|&a| a == 0));
    }
}
