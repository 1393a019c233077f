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
//!
//! The seeding computes every point's distance to each seed, and Lloyd
//! pass 1 reads those columns instead of recomputing them; they are the
//! same sums in the same order, so the same bits. A pass that changes
//! no assignment and leaves no cluster empty returns at once: the
//! centroid update would refill nothing, and its centroids would never
//! be read.

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

    let (mut centroids, seed_distances) = init_plus_plus(points, k, rng);
    let mut assignment = vec![0usize; points.len()];
    let mut counts = vec![0usize; k];
    for pass in 0..MAX_ITERATIONS {
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            // Pass 1 reads the distances the seeding already computed.
            let nearest = if pass == 0 {
                nearest_seed(&seed_distances, i)
            } else {
                nearest_centroid(p, &centroids)
            };
            if assignment[i] != nearest {
                assignment[i] = nearest;
                changed = true;
            }
        }
        counts.fill(0);
        for &c in &assignment {
            counts[c] += 1;
        }
        // Converged with no cluster empty: the update below would
        // refill nothing, and its centroids would never be read.
        if !changed && counts.iter().all(|&n| n > 0) {
            break;
        }
        changed |= update_centroids(points, &mut assignment, &mut centroids, &mut counts);
        if !changed {
            break;
        }
    }
    Clustering { assignment, k }
}

/// Moves each cluster's centroid to the mean of its members, in
/// cluster order, given the member `counts` of `assignment`.
///
/// An empty cluster is refilled by stealing the point farthest from
/// its centroid — but only when that point is at a strictly positive
/// distance and leaves at least one point behind. (With identical
/// points there is nothing meaningful to split; empty clusters are then
/// left empty and callers skip them.) The donor's mean loses the stolen
/// point, so afterwards every non-empty cluster's centroid is the mean
/// of its members. Returns whether a point was stolen.
fn update_centroids(
    points: &[&[f64]],
    assignment: &mut [usize],
    centroids: &mut [Vec<f64>],
    counts: &mut [usize],
) -> bool {
    let mut stole = false;
    for c in 0..counts.len() {
        if counts[c] > 0 {
            set_mean(points, assignment, c, counts[c], &mut centroids[c]);
            continue;
        }
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
                let donor = assignment[far];
                counts[donor] -= 1;
                assignment[far] = c;
                counts[c] = 1;
                centroids[c].copy_from_slice(points[far]);
                // A later donor's mean is taken at its own turn.
                if donor < c {
                    set_mean(
                        points,
                        assignment,
                        donor,
                        counts[donor],
                        &mut centroids[donor],
                    );
                }
                stole = true;
            }
        }
    }
    stole
}

/// Sets `centroid` to the mean of the `count` points that `assignment`
/// puts in cluster `c`, summed in point order.
fn set_mean(points: &[&[f64]], assignment: &[usize], c: usize, count: usize, centroid: &mut [f64]) {
    centroid.fill(0.0);
    for (p, _) in points.iter().zip(assignment).filter(|(_, &a)| a == c) {
        for (s, v) in centroid.iter_mut().zip(*p) {
            *s += v;
        }
    }
    for s in centroid.iter_mut() {
        *s /= count as f64;
    }
}

/// k-means++ seeding. Returns the `k` seeds and, for each seed `j`,
/// the column `distance_sq(points[i], seeds[j])` over every point `i`:
/// the weights need all but the last column, and Lloyd pass 1 reads
/// them all instead of recomputing them.
fn init_plus_plus<R: Rng>(
    points: &[&[f64]],
    k: usize,
    rng: &mut R,
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    let mut columns: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..points.len())].to_vec());
    // Each point's squared distance to its nearest centroid so far: a
    // running minimum, extended by the newest centroid each round,
    // folds the distances in centroid order like a full recomputation.
    let mut weights = vec![f64::INFINITY; points.len()];
    loop {
        let newest = centroids.last().expect("one centroid chosen");
        columns.push(points.iter().map(|p| distance_sq(p, newest)).collect());
        if centroids.len() == k {
            return (centroids, columns);
        }
        let column = columns.last().expect("column just pushed");
        for (w, d) in weights.iter_mut().zip(column) {
            *w = w.min(*d);
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
}

/// Index of the seed nearest to point `i`, read from the seeding's
/// distance columns; the lowest index on a tie, like
/// [`nearest_centroid`].
fn nearest_seed(columns: &[Vec<f64>], i: usize) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (j, column) in columns.iter().enumerate() {
        if column[i] < best_d {
            best_d = column[i];
            best = j;
        }
    }
    best
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
    use vc2m_rng::{cases::check, DetRng, Rng};

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

    /// Random points with duplicates: every point is drawn from a pool
    /// of `1..=n` distinct features, so some inputs have fewer distinct
    /// points than clusters.
    fn points_with_duplicates(rng: &mut DetRng) -> (Vec<Vec<f64>>, usize) {
        let n = rng.gen_range(1..25usize);
        let dim = [0, 1, 3, 7, 19, 381][rng.gen_range(0..6usize)];
        let pool = features(rng.gen_range(1..=n), dim, rng);
        let points = (0..n)
            .map(|_| pool[rng.gen_range(0..pool.len())].clone())
            .collect();
        (points, rng.gen_range(1..10usize))
    }

    /// k-means as it was before pass 1 reused the seeding's distances,
    /// converged passes returned early and the buffers were hoisted:
    /// every pass recomputes every distance and every centroid. Its one
    /// change is the refill's donor fix (marked below), which
    /// [`refill_leaves_every_centroid_the_mean_of_its_members`] pins.
    fn reference_kmeans(points: &[&[f64]], k: usize, rng: &mut DetRng) -> Clustering {
        if points.is_empty() {
            return Clustering {
                assignment: Vec::new(),
                k: 0,
            };
        }
        let dim = points[0].len();
        let k = k.min(points.len());
        let mut centroids: Vec<Vec<f64>> = vec![points[rng.gen_range(0..points.len())].to_vec()];
        while centroids.len() < k {
            let weights: Vec<f64> = points
                .iter()
                .map(|p| {
                    centroids
                        .iter()
                        .map(|c| distance_sq(p, c))
                        .fold(f64::INFINITY, f64::min)
                })
                .collect();
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
                        .max_by(|(i, a), (j, b)| a.partial_cmp(b).unwrap().then(i.cmp(j)));
                    if let Some((far, dist)) = candidate {
                        if dist > 0.0 {
                            let donor = assignment[far];
                            counts[donor] -= 1;
                            assignment[far] = c;
                            counts[c] = 1;
                            centroids[c] = points[far].to_vec();
                            changed = true;
                            // The donor fix: the donor's sum loses the
                            // stolen point, and an already-updated
                            // donor's centroid is taken again.
                            sums[donor] = vec![0.0; dim];
                            for (i, p) in points.iter().enumerate() {
                                if assignment[i] == donor {
                                    for (s, v) in sums[donor].iter_mut().zip(*p) {
                                        *s += v;
                                    }
                                }
                            }
                            if donor < c {
                                for (d, s) in centroids[donor].iter_mut().zip(&sums[donor]) {
                                    *d = s / counts[donor] as f64;
                                }
                            }
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

    #[test]
    fn conformance_seed_columns_equal_nearest_centroid_bit_for_bit() {
        check(200, |rng| {
            let (raw, k) = points_with_duplicates(rng);
            let points: Vec<&[f64]> = raw.iter().map(|v| v.as_slice()).collect();
            let k = k.min(points.len());
            let (seeds, columns) = init_plus_plus(&points, k, rng);
            assert_eq!((seeds.len(), columns.len()), (k, k));
            for (i, p) in points.iter().enumerate() {
                for_each_distance_sq(p, &seeds, |j, d| {
                    assert_eq!(columns[j][i].to_bits(), d.to_bits(), "point {i} seed {j}");
                });
                assert_eq!(
                    nearest_seed(&columns, i),
                    nearest_centroid(p, &seeds),
                    "point {i}"
                );
            }
        });
    }

    #[test]
    fn conformance_kmeans_equals_the_reference_loop() {
        check(200, |rng| {
            let (raw, k) = points_with_duplicates(rng);
            let points: Vec<&[f64]> = raw.iter().map(|v| v.as_slice()).collect();
            let seed = rng.next_u64();
            let (mut fast, mut reference) =
                (DetRng::seed_from_u64(seed), DetRng::seed_from_u64(seed));
            assert_eq!(
                kmeans(&points, k, &mut fast),
                reference_kmeans(&points, k, &mut reference)
            );
            assert_eq!(fast.next_u64(), reference.next_u64(), "RNG draws differ");
        });
    }

    #[test]
    fn conformance_emptied_clusters_fall_through_the_early_return() {
        // Identical points: pass 1 changes nothing yet leaves clusters 1
        // and 2 empty, so it must reach the refill, which finds nothing
        // to split. {a, a, a, b} with k = 3 seeds a twice, and the
        // refill steals an `a`.
        let a = vec![0.1, 0.7, 0.3];
        let b = vec![5.0, 1.0, 2.0];
        for raw in [vec![a.clone(); 8], vec![a.clone(), a.clone(), a, b]] {
            let points: Vec<&[f64]> = raw.iter().map(|v| v.as_slice()).collect();
            for seed in 0..16 {
                let (mut fast, mut reference) =
                    (DetRng::seed_from_u64(seed), DetRng::seed_from_u64(seed));
                assert_eq!(
                    kmeans(&points, 3, &mut fast),
                    reference_kmeans(&points, 3, &mut reference)
                );
                assert_eq!(fast.next_u64(), reference.next_u64(), "RNG draws differ");
            }
        }
    }

    #[test]
    fn refill_leaves_every_centroid_the_mean_of_its_members() {
        let raw: Vec<Vec<f64>> = vec![vec![0.0, 1.0], vec![1.0, 3.0], vec![10.0, 7.0]];
        let points: Vec<&[f64]> = raw.iter().map(|v| v.as_slice()).collect();
        let mean = |assignment: &[usize], c: usize| -> Vec<u64> {
            let members: Vec<&[f64]> = points
                .iter()
                .zip(assignment)
                .filter(|(_, &a)| a == c)
                .map(|(p, _)| *p)
                .collect();
            (0..2)
                .map(|d| {
                    (members.iter().map(|p| p[d]).fold(0.0, |s, v| s + v) / members.len() as f64)
                        .to_bits()
                })
                .collect()
        };
        // Cluster 0 is empty and steals point 0 from cluster 1 (a
        // later donor); then cluster 2 steals from cluster 0 (an
        // earlier donor, whose mean was already taken).
        for (before, after) in [([1, 1, 2], [0, 1, 2]), ([0, 0, 1], [0, 2, 1])] {
            let mut assignment = before.to_vec();
            let mut counts = vec![0usize; 3];
            for &c in &assignment {
                counts[c] += 1;
            }
            let mut centroids = vec![vec![4.0, 4.0]; 3];
            assert!(update_centroids(
                &points,
                &mut assignment,
                &mut centroids,
                &mut counts
            ));
            assert_eq!(assignment, after);
            assert_eq!(counts, vec![1; 3]);
            for (c, centroid) in centroids.iter().enumerate() {
                let bits: Vec<u64> = centroid.iter().map(|x| x.to_bits()).collect();
                assert_eq!(bits, mean(&assignment, c), "cluster {c} of {before:?}");
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
