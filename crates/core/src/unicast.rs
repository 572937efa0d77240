//! Shortest-path (e-cube) unicast routing with balanced wrap tie-breaks.
//!
//! §4 routes unicast packets "along the shortest path between the source
//! and destination nodes". We use dimension-ordered e-cube traversal:
//! correct the lowest-indexed mismatched dimension first, travelling the
//! shorter way around the ring. When the two ways are equally long
//! (`n` even, offset exactly `n/2`) the direction is chosen uniformly at
//! random so that `+` and `−` links carry equal load — without this the
//! antipodal traffic would all pile onto `+` links and unbalance the
//! network.

use pstar_topology::{ring_offset, Direction, NodeId, Torus};
use rand::Rng;

/// The next hop of a shortest path from `node` to `dest`:
/// `(dimension, direction)`.
///
/// # Panics
///
/// Panics when `node == dest` (there is no next hop).
#[inline]
pub fn next_hop<R: Rng + ?Sized>(
    topo: &Torus,
    node: NodeId,
    dest: NodeId,
    rng: &mut R,
) -> (usize, Direction) {
    let c = topo.coords();
    for dim in 0..topo.d() {
        let a = c.digit(node, dim);
        let b = c.digit(dest, dim);
        if a == b {
            continue;
        }
        let n = topo.dim_size(dim);
        if n == 2 {
            return (dim, Direction::Plus);
        }
        let fwd = ring_offset(a, b, n);
        let back = n - fwd;
        let dir = match fwd.cmp(&back) {
            std::cmp::Ordering::Less => Direction::Plus,
            std::cmp::Ordering::Greater => Direction::Minus,
            std::cmp::Ordering::Equal => {
                if rng.gen::<bool>() {
                    Direction::Plus
                } else {
                    Direction::Minus
                }
            }
        };
        return (dim, dir);
    }
    panic!("next_hop called with node == dest ({node})");
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Walks hops until arrival, returning the path length.
    fn walk(topo: &Torus, src: NodeId, dest: NodeId, rng: &mut StdRng) -> u32 {
        let mut cur = src;
        let mut hops = 0;
        while cur != dest {
            let (dim, dir) = next_hop(topo, cur, dest, rng);
            cur = topo.neighbor(cur, dim, dir);
            hops += 1;
            assert!(hops <= topo.diameter(), "walk exceeded diameter");
        }
        hops
    }

    #[test]
    fn every_pair_routes_along_shortest_path() {
        let mut rng = StdRng::seed_from_u64(5);
        for topo in [
            Torus::new(&[5, 4]),
            Torus::new(&[2, 3, 4]),
            Torus::hypercube(4),
        ] {
            for a in topo.coords().nodes() {
                for b in topo.coords().nodes() {
                    if a != b {
                        assert_eq!(
                            walk(&topo, a, b, &mut rng),
                            topo.distance(a, b),
                            "{topo}: {a}->{b}"
                        );
                    }
                }
            }
        }
    }

    /// `next_hop` as it was written with hardware division — digits as
    /// `(id / stride) % n`, the ring offset as `(b + n − a) % n` — kept as
    /// the reference.
    fn next_hop_by_division(
        topo: &Torus,
        node: NodeId,
        dest: NodeId,
        rng: &mut StdRng,
    ) -> (usize, Direction) {
        let mut stride = 1;
        for (dim, &n) in topo.dims().iter().enumerate() {
            let a = (node.0 / stride) % n;
            let b = (dest.0 / stride) % n;
            stride *= n;
            if a == b {
                continue;
            }
            if n == 2 {
                return (dim, Direction::Plus);
            }
            let fwd = (b + n - a) % n;
            return match fwd.cmp(&(n - fwd)) {
                std::cmp::Ordering::Less => (dim, Direction::Plus),
                std::cmp::Ordering::Greater => (dim, Direction::Minus),
                std::cmp::Ordering::Equal if rng.gen::<bool>() => (dim, Direction::Plus),
                std::cmp::Ordering::Equal => (dim, Direction::Minus),
            };
        }
        unreachable!("node == dest");
    }

    #[test]
    fn next_hop_matches_hardware_division_hop_and_draw() {
        for dims in [&[8][..], &[5, 4], &[2, 3, 4], &[8, 8, 16]] {
            let topo = Torus::new(dims);
            let mut rng = StdRng::seed_from_u64(10);
            let mut reference = rng.clone();
            for a in topo.coords().nodes() {
                for b in topo.coords().nodes().filter(|&b| b != a) {
                    assert_eq!(
                        next_hop(&topo, a, b, &mut rng),
                        next_hop_by_division(&topo, a, b, &mut reference),
                        "{topo}: {a}->{b}"
                    );
                    assert_eq!(rng, reference, "{topo}: {a}->{b} drew differently");
                }
            }
        }
    }

    #[test]
    fn antipodal_ties_split_both_ways() {
        let topo = Torus::new(&[8]);
        let mut rng = StdRng::seed_from_u64(6);
        let (mut plus, mut minus) = (0, 0);
        for _ in 0..2000 {
            match next_hop(&topo, NodeId(0), NodeId(4), &mut rng).1 {
                Direction::Plus => plus += 1,
                Direction::Minus => minus += 1,
            }
        }
        assert!(
            plus > 800 && minus > 800,
            "tie-break skewed: +{plus} -{minus}"
        );
    }

    #[test]
    fn non_tie_always_takes_shorter_way() {
        let topo = Torus::new(&[8]);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(
                next_hop(&topo, NodeId(0), NodeId(2), &mut rng).1,
                Direction::Plus
            );
            assert_eq!(
                next_hop(&topo, NodeId(0), NodeId(6), &mut rng).1,
                Direction::Minus
            );
        }
    }

    #[test]
    fn hypercube_dimension_always_plus() {
        let topo = Torus::hypercube(3);
        let mut rng = StdRng::seed_from_u64(8);
        let (dim, dir) = next_hop(&topo, NodeId(0), NodeId(7), &mut rng);
        assert_eq!(dim, 0);
        assert_eq!(dir, Direction::Plus);
    }

    #[test]
    #[should_panic(expected = "node == dest")]
    fn rejects_self_route() {
        let topo = Torus::new(&[4, 4]);
        let mut rng = StdRng::seed_from_u64(9);
        next_hop(&topo, NodeId(3), NodeId(3), &mut rng);
    }
}
