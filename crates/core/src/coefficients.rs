//! The `a_{i,l}` transmission-count coefficients of Eq. (1).
//!
//! A single STAR broadcast with ending dimension `l` covers dimensions in
//! the rotated order `l+1, …, d−1, 0, …, l` (0-based). When the tree
//! reaches dimension `i`, one ring broadcast (costing `n_i − 1`
//! transmissions) starts from **every** node already covered, so the task
//! performs
//!
//! ```text
//! a_{i,l} = (n_i − 1) · Π_{j earlier than i in the order} n_j
//! ```
//!
//! transmissions on dimension-`i` links, and `Σ_i a_{i,l} = N − 1`
//! regardless of `l` (each of the other `N − 1` nodes receives exactly one
//! copy). These counts are the coefficients of the balance systems
//! Eq. (2)/(4) and are verified against simulated trees by the
//! integration tests.

use pstar_linalg::Matrix;
use pstar_sim::rotated_dim;
use pstar_topology::Torus;

/// The rotated dimension order used by a STAR broadcast with ending
/// dimension `l` (0-based): `l+1, l+2, …, l+d` (mod `d`), so that `l`
/// itself comes last.
pub fn rotated_order(d: usize, ending_dim: usize) -> impl Iterator<Item = usize> {
    assert!(ending_dim < d, "ending dimension out of range");
    (0..d).map(move |t| rotated_dim(ending_dim, t, d))
}

/// Per-dimension transmission counts `a_{·,l}` of one STAR broadcast with
/// ending dimension `l` (indexed by dimension, not by phase).
pub fn star_dim_transmissions(topo: &Torus, ending_dim: usize) -> Vec<u64> {
    let d = topo.d();
    let mut counts = vec![0u64; d];
    let mut covered: u64 = 1;
    for dim in rotated_order(d, ending_dim) {
        let n = topo.dim_size(dim) as u64;
        counts[dim] = (n - 1) * covered;
        covered *= n;
    }
    counts
}

/// The full `d × d` coefficient matrix `A` with `A[i][j] = a_{i,j}`
/// (row = dimension whose load is being counted, column = ending
/// dimension), as used by the balance systems.
pub fn star_transmission_matrix(topo: &Torus) -> Matrix {
    let d = topo.d();
    let cols: Vec<Vec<u64>> = (0..d).map(|l| star_dim_transmissions(topo, l)).collect();
    Matrix::from_fn(d, d, |i, j| cols[j][i] as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotated_order_ends_with_ending_dim() {
        for d in 1..6 {
            for l in 0..d {
                let order: Vec<usize> = rotated_order(d, l).collect();
                assert_eq!(order.len(), d);
                assert_eq!(*order.last().unwrap(), l);
                let mut sorted = order.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..d).collect::<Vec<_>>(), "a permutation");
            }
        }
    }

    #[test]
    fn counts_sum_to_n_minus_one() {
        for topo in [
            Torus::new(&[5, 5]),
            Torus::new(&[4, 4, 8]),
            Torus::new(&[2, 3, 4, 5]),
            Torus::hypercube(6),
        ] {
            for l in 0..topo.d() {
                let total: u64 = star_dim_transmissions(&topo, l).iter().sum();
                assert_eq!(total, topo.node_count() as u64 - 1, "{topo} l={l}");
            }
        }
    }

    #[test]
    fn matches_paper_formula_for_2d() {
        // 1-based paper formula, d=2, torus n1 x n2:
        // a_{l+1,l} = n_{l+1} − 1, a_{l+2 wrapped} = (n − 1)·n_{l+1}.
        let topo = Torus::new(&[4, 8]);
        // ending dim 0 (paper's l=1): order is (1, 0):
        //   a_{1,0} = n1 − 1 = 7, a_{0,0} = (n0 − 1)·n1 = 3·8 = 24.
        assert_eq!(star_dim_transmissions(&topo, 0), vec![24, 7]);
        // ending dim 1: order (0, 1): a0 = 3, a1 = 7·4 = 28.
        assert_eq!(star_dim_transmissions(&topo, 1), vec![3, 28]);
    }

    #[test]
    fn symmetric_torus_counts_are_rotations() {
        let topo = Torus::n_ary_d_cube(5, 3);
        let base = star_dim_transmissions(&topo, 2); // order 0,1,2
        assert_eq!(base, vec![4, 20, 100]);
        // Ending dim 0 → order 1,2,0: dim 1 first, dim 0 last.
        assert_eq!(star_dim_transmissions(&topo, 0), vec![100, 4, 20]);
    }

    #[test]
    fn hypercube_counts_are_powers_of_two() {
        let topo = Torus::hypercube(4);
        // Ending dim 3 → order 0,1,2,3 → 1, 2, 4, 8.
        assert_eq!(star_dim_transmissions(&topo, 3), vec![1, 2, 4, 8]);
    }

    #[test]
    fn matrix_columns_match_vector_form() {
        let topo = Torus::new(&[3, 4, 5]);
        let m = star_transmission_matrix(&topo);
        for l in 0..topo.d() {
            let v = star_dim_transmissions(&topo, l);
            for i in 0..topo.d() {
                assert_eq!(m[(i, l)], v[i] as f64);
            }
        }
    }
}
