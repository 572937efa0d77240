//! # pstar-topology
//!
//! Topology substrate for the Priority STAR reproduction: general
//! `n1 × n2 × … × nd` tori (wraparound meshes), `n`-ary `d`-cubes,
//! hypercubes (the `2`-ary special case) and open meshes.
//!
//! The crate is deliberately dependency-free and allocation-light: the hot
//! simulation loop addresses nodes and directed links through dense integer
//! ids ([`NodeId`], [`LinkId`]) and performs coordinate arithmetic with
//! precomputed mixed-radix strides and reciprocals (no hardware division),
//! never materializing coordinate vectors.
//!
//! ## Conventions
//!
//! * Dimensions are indexed `0..d` internally. The paper indexes them
//!   `1..=d`; all formulas are translated accordingly.
//! * Every dimension must have at least 2 nodes. A dimension of size 2
//!   contributes a **single** link per node (its `+` and `-` neighbors
//!   coincide), which is what makes a `2`-ary `d`-cube an ordinary
//!   `d`-dimensional hypercube with `d` links per node.
//! * Directed links are owned by their *sending* node: link `(u, i, ±)`
//!   carries packets from `u` to its dimension-`i` neighbor.

#![warn(missing_docs)]

mod coord;
mod link;
mod mesh;
mod network;
mod torus;

pub use coord::{CoordIter, Coordinates};
pub use link::{Direction, Link, LinkId};
pub use mesh::Mesh;
pub use network::{toward, Network};
pub use torus::Torus;

/// Dense node identifier: the mixed-radix value of the node's coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's dense index as a `usize`, for table lookups.
    #[inline(always)]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Exact average ring distance `E[min(k, n-k)]` for `k` uniform over `0..n`.
///
/// This is the expected number of dimension-`i` hops of a shortest-path
/// unicast whose per-dimension destination digit is uniform (including the
/// source digit). The paper approximates this by `⌊n/4⌋`; the exact value is
/// `n/4` for even `n` and `(n² − 1) / (4n)` for odd `n`.
pub fn exact_avg_ring_distance(n: u32) -> f64 {
    let nf = n as f64;
    if n % 2 == 0 {
        nf / 4.0
    } else {
        (nf * nf - 1.0) / (4.0 * nf)
    }
}

/// The paper's `⌊n/4⌋` approximation of the average ring distance (§4).
pub fn paper_avg_ring_distance(n: u32) -> f64 {
    (n / 4) as f64
}

/// Hops from position `a` to `b` travelling the `+` way round an `n`-node
/// ring: `(b − a) mod n`. Both positions are `< n`, so the reduction is one
/// compare and subtract — this sits under every unicast hop.
#[inline(always)]
pub fn ring_offset(a: u32, b: u32, n: u32) -> u32 {
    debug_assert!(a < n && b < n);
    if b >= a {
        b - a
    } else {
        b + n - a
    }
}

/// Distance between two positions on an `n`-node ring (shortest way around).
#[inline(always)]
pub fn ring_distance(a: u32, b: u32, n: u32) -> u32 {
    let fwd = ring_offset(a, b, n);
    fwd.min(n - fwd)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_offset_is_the_difference_mod_n() {
        for n in 2..12u32 {
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(ring_offset(a, b, n), (b + n - a) % n);
                }
            }
        }
    }

    #[test]
    fn ring_distance_symmetric() {
        for n in 2..12u32 {
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(ring_distance(a, b, n), ring_distance(b, a, n));
                    assert!(ring_distance(a, b, n) <= n / 2);
                }
            }
        }
    }

    #[test]
    fn ring_distance_zero_iff_equal() {
        for n in 2..10u32 {
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(ring_distance(a, b, n) == 0, a == b);
                }
            }
        }
    }

    #[test]
    fn exact_avg_matches_enumeration() {
        for n in 2..40u32 {
            let brute: f64 = (0..n).map(|k| ring_distance(0, k, n) as f64).sum::<f64>() / n as f64;
            assert!((exact_avg_ring_distance(n) - brute).abs() < 1e-12, "n={n}");
        }
    }

    #[test]
    fn paper_approximation_exact_when_divisible_by_four() {
        assert_eq!(paper_avg_ring_distance(8), exact_avg_ring_distance(8));
        assert_eq!(paper_avg_ring_distance(16), exact_avg_ring_distance(16));
        assert_eq!(paper_avg_ring_distance(4), exact_avg_ring_distance(4));
    }
}
