//! User-placement distributions.

use rand::Rng;
use uavnet_geom::{AreaSpec, Point2};

/// How users are scattered over the disaster zone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UserDistribution {
    /// Uniform placement over the whole footprint.
    Uniform,
    /// The paper's fat-tailed density (Song et al., reference 30 of the paper): `clusters`
    /// hotspot centers with Zipf-distributed popularity
    /// (`weight_i ∝ i^{−zipf_exponent}`), users scattered around their
    /// hotspot with a Gaussian of `sigma_m` meters; a small uniform
    /// background (10 %) models stragglers.
    FatTailed {
        /// Number of hotspot centers.
        clusters: usize,
        /// Zipf popularity exponent (≈ 1.2 reproduces the heavy head
        /// the paper describes).
        zipf_exponent: f64,
    },
}

impl Default for UserDistribution {
    fn default() -> Self {
        UserDistribution::FatTailed {
            clusters: 12,
            zipf_exponent: 1.2,
        }
    }
}

/// Standard deviation of the per-hotspot Gaussian scatter, in meters.
const CLUSTER_SIGMA_M: f64 = 150.0;

/// Fraction of users placed uniformly regardless of hotspots.
const BACKGROUND_FRACTION: f64 = 0.10;

/// Samples `n` user positions inside `area` from `distribution`.
///
/// Deterministic given the RNG state. Positions outside the footprint
/// (Gaussian tails) are re-drawn a few times and finally clamped, so
/// every returned point lies inside the zone.
///
/// # Panics
///
/// Panics if a fat-tailed distribution is requested with zero clusters
/// or a non-finite exponent.
pub fn sample_users<R: Rng>(
    rng: &mut R,
    area: AreaSpec,
    n: usize,
    distribution: UserDistribution,
) -> Vec<Point2> {
    match distribution {
        UserDistribution::Uniform => (0..n).map(|_| uniform_point(rng, area)).collect(),
        UserDistribution::FatTailed {
            clusters,
            zipf_exponent,
        } => {
            assert!(
                clusters > 0,
                "fat-tailed placement needs at least one cluster"
            );
            assert!(
                zipf_exponent.is_finite() && zipf_exponent >= 0.0,
                "invalid Zipf exponent {zipf_exponent}"
            );
            // Hotspot centers, kept a sigma away from the border so the
            // mass is not clipped too aggressively.
            let margin = CLUSTER_SIGMA_M
                .min(area.length_m() / 4.0)
                .min(area.width_m() / 4.0);
            let centers: Vec<Point2> = (0..clusters)
                .map(|_| {
                    Point2::new(
                        rng.gen_range(margin..=area.length_m() - margin),
                        rng.gen_range(margin..=area.width_m() - margin),
                    )
                })
                .collect();
            // Zipf weights: w_i ∝ (i+1)^{-a}, cumulative for sampling.
            let weights: Vec<f64> = (0..clusters)
                .map(|i| ((i + 1) as f64).powf(-zipf_exponent))
                .collect();
            let total: f64 = weights.iter().sum();
            let mut cumulative = Vec::with_capacity(clusters);
            let mut acc = 0.0;
            for w in &weights {
                acc += w / total;
                cumulative.push(acc);
            }

            (0..n)
                .map(|_| {
                    if rng.gen_bool(BACKGROUND_FRACTION) {
                        return uniform_point(rng, area);
                    }
                    let u: f64 = rng.gen();
                    let cluster = cumulative
                        .iter()
                        .position(|&c| u <= c)
                        .unwrap_or(clusters - 1);
                    gaussian_around(rng, area, centers[cluster], CLUSTER_SIGMA_M)
                })
                .collect()
        }
    }
}

fn uniform_point<R: Rng>(rng: &mut R, area: AreaSpec) -> Point2 {
    Point2::new(
        rng.gen_range(0.0..=area.length_m()),
        rng.gen_range(0.0..=area.width_m()),
    )
}

/// Box–Muller Gaussian scatter around `center`, redrawn up to 8 times
/// if it lands outside the zone, then clamped.
fn gaussian_around<R: Rng>(rng: &mut R, area: AreaSpec, center: Point2, sigma: f64) -> Point2 {
    for _ in 0..8 {
        let (z0, z1) = box_muller(rng);
        let p = Point2::new(center.x + sigma * z0, center.y + sigma * z1);
        if area.contains(p) {
            return p;
        }
    }
    let (z0, z1) = box_muller(rng);
    area.clamp(Point2::new(center.x + sigma * z0, center.y + sigma * z1))
}

fn box_muller<R: Rng>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn area() -> AreaSpec {
        AreaSpec::new(3_000.0, 3_000.0, 500.0).unwrap()
    }

    #[test]
    fn all_points_inside_zone() {
        let mut rng = SmallRng::seed_from_u64(1);
        for dist in [
            UserDistribution::Uniform,
            UserDistribution::default(),
            UserDistribution::FatTailed {
                clusters: 1,
                zipf_exponent: 0.0,
            },
        ] {
            let pts = sample_users(&mut rng, area(), 500, dist);
            assert_eq!(pts.len(), 500);
            for p in pts {
                assert!(area().contains(p), "{p} escaped with {dist:?}");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = sample_users(
            &mut SmallRng::seed_from_u64(7),
            area(),
            100,
            UserDistribution::default(),
        );
        let b = sample_users(
            &mut SmallRng::seed_from_u64(7),
            area(),
            100,
            UserDistribution::default(),
        );
        assert_eq!(a, b);
        let c = sample_users(
            &mut SmallRng::seed_from_u64(8),
            area(),
            100,
            UserDistribution::default(),
        );
        assert_ne!(a, c);
    }

    #[test]
    fn fat_tailed_is_more_concentrated_than_uniform() {
        // Compare the occupancy of the busiest 10 % of a 10×10 grid:
        // the fat-tailed placement should pack far more users there.
        let occupancy_top_decile = |pts: &[Point2]| {
            let mut counts = vec![0usize; 100];
            for p in pts {
                let cx = ((p.x / 300.0) as usize).min(9);
                let cy = ((p.y / 300.0) as usize).min(9);
                counts[cy * 10 + cx] += 1;
            }
            counts.sort_unstable_by(|a, b| b.cmp(a));
            counts[..10].iter().sum::<usize>()
        };
        let mut rng = SmallRng::seed_from_u64(3);
        let fat = sample_users(&mut rng, area(), 2_000, UserDistribution::default());
        let mut rng = SmallRng::seed_from_u64(3);
        let uni = sample_users(&mut rng, area(), 2_000, UserDistribution::Uniform);
        let fat_top = occupancy_top_decile(&fat);
        let uni_top = occupancy_top_decile(&uni);
        assert!(
            fat_top > 2 * uni_top,
            "fat-tailed top decile {fat_top} vs uniform {uni_top}"
        );
    }

    #[test]
    fn zipf_head_dominates() {
        // With a strong exponent, the single busiest grid cell should
        // hold a sizable share of all users.
        let mut rng = SmallRng::seed_from_u64(11);
        let pts = sample_users(
            &mut rng,
            area(),
            1_000,
            UserDistribution::FatTailed {
                clusters: 20,
                zipf_exponent: 2.0,
            },
        );
        let mut counts = vec![0usize; 100];
        for p in &pts {
            let cx = ((p.x / 300.0) as usize).min(9);
            let cy = ((p.y / 300.0) as usize).min(9);
            counts[cy * 10 + cx] += 1;
        }
        assert!(*counts.iter().max().unwrap() > 100);
    }

    #[test]
    fn zero_users_is_fine() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(sample_users(&mut rng, area(), 0, UserDistribution::Uniform).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn rejects_zero_clusters() {
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = sample_users(
            &mut rng,
            area(),
            10,
            UserDistribution::FatTailed {
                clusters: 0,
                zipf_exponent: 1.0,
            },
        );
    }
}
