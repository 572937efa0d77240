//! The general `n1 × n2 × … × nd` torus (wraparound mesh).

use crate::{exact_avg_ring_distance, ring_distance, Coordinates, Direction, Link, LinkId, NodeId};

/// A `d`-dimensional torus with `n_i ≥ 2` nodes along dimension `i`.
///
/// Special cases: an `n`-ary `d`-cube has `n_i = n` for all `i`
/// ([`Torus::n_ary_d_cube`]); a `d`-dimensional hypercube is the 2-ary
/// `d`-cube ([`Torus::hypercube`]).
///
/// ```
/// use pstar_topology::{NodeId, Torus};
///
/// let t = Torus::new(&[4, 4, 8]);
/// assert_eq!(t.node_count(), 128);
/// assert_eq!(t.degree(), 6);                 // 2 links per dimension
/// assert_eq!(t.diameter(), 2 + 2 + 4);       // Σ ⌊n_i / 2⌋
///
/// let a = t.coords().node(&[0, 0, 0]);
/// let b = t.coords().node(&[3, 2, 5]);
/// assert_eq!(t.distance(a, b), 1 + 2 + 3);   // wraparound shortest ways
/// ```
///
/// Dimensions of size ≥ 3 contribute two directed output ports per node
/// (`+` and `-`); dimensions of size 2 contribute one (the two neighbors
/// coincide), so a hypercube node has exactly `d` outgoing links and the
/// paper's hypercube throughput formula `ρ = λ_B (2^d − 1)/d + …` holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Torus {
    coords: Coordinates,
    /// Port offset of each dimension within a node's port block.
    port_offset: Vec<u32>,
    /// Number of output ports per node (= number of outgoing links).
    ports_per_node: u32,
}

impl Torus {
    /// Builds a torus with the given per-dimension sizes.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Coordinates::new`], or if the
    /// directed-link count `N · degree` exceeds `u32::MAX` (a [`LinkId`]
    /// is a `u32`).
    pub fn new(dims: &[u32]) -> Self {
        let coords = Coordinates::new(dims);
        let mut port_offset = Vec::with_capacity(dims.len());
        let mut acc = 0u32;
        for &n in dims {
            port_offset.push(acc);
            acc += if n == 2 { 1 } else { 2 };
        }
        assert!(
            coords.node_count() as u64 * acc as u64 <= u32::MAX as u64,
            "link count exceeds u32 range"
        );
        Self {
            coords,
            port_offset,
            ports_per_node: acc,
        }
    }

    /// The `n`-ary `d`-cube: `d` dimensions of `n` nodes each.
    pub fn n_ary_d_cube(n: u32, d: usize) -> Self {
        Self::new(&vec![n; d])
    }

    /// The `d`-dimensional hypercube (2-ary `d`-cube).
    pub fn hypercube(d: usize) -> Self {
        Self::n_ary_d_cube(2, d)
    }

    /// The underlying coordinate system.
    #[inline(always)]
    pub fn coords(&self) -> &Coordinates {
        &self.coords
    }

    /// Number of dimensions `d`.
    #[inline(always)]
    pub fn d(&self) -> usize {
        self.coords.d()
    }

    /// Per-dimension sizes.
    #[inline(always)]
    pub fn dims(&self) -> &[u32] {
        self.coords.dims()
    }

    /// Size of dimension `dim`.
    #[inline(always)]
    pub fn dim_size(&self, dim: usize) -> u32 {
        self.coords.dim_size(dim)
    }

    /// Total number of nodes `N`.
    #[inline(always)]
    pub fn node_count(&self) -> u32 {
        self.coords.node_count()
    }

    /// Number of outgoing links per node (`d_ave` in the paper; `2d` when
    /// all dimensions have size ≥ 3, `d` for a hypercube).
    #[inline(always)]
    pub fn degree(&self) -> u32 {
        self.ports_per_node
    }

    /// Total number of directed links `L = N · degree`.
    #[inline(always)]
    pub fn link_count(&self) -> u32 {
        self.node_count() * self.ports_per_node
    }

    /// Number of directed links per node in dimension `dim` (1 or 2).
    #[inline(always)]
    pub fn ports_in_dim(&self, dim: usize) -> u32 {
        if self.coords.dim_size(dim) == 2 {
            1
        } else {
            2
        }
    }

    /// The legal travel directions in dimension `dim`
    /// (`[Plus]` when `n_i = 2`, else `[Plus, Minus]`).
    #[inline(always)]
    pub fn ring_directions(&self, dim: usize) -> &'static [Direction] {
        if self.coords.dim_size(dim) == 2 {
            &[Direction::Plus]
        } else {
            &[Direction::Plus, Direction::Minus]
        }
    }

    /// `true` when all dimensions have equal size (an `n`-ary `d`-cube).
    pub fn is_symmetric(&self) -> bool {
        self.dims().windows(2).all(|w| w[0] == w[1])
    }

    /// The dimension-`dim` neighbor of `node` in direction `dir`.
    #[inline(always)]
    pub fn neighbor(&self, node: NodeId, dim: usize, dir: Direction) -> NodeId {
        self.coords.step(node, dim, dir.is_forward())
    }

    /// Dense id of a directed link.
    ///
    /// # Panics
    ///
    /// Debug-panics if `dir` is `Minus` in a size-2 dimension (that port
    /// does not exist — use `Plus`).
    #[inline(always)]
    pub fn link_id(&self, link: Link) -> LinkId {
        debug_assert!(
            self.coords.dim_size(link.dim as usize) > 2 || link.dir == Direction::Plus,
            "size-2 dimension {} has no Minus port",
            link.dim
        );
        LinkId(
            link.from.0 * self.ports_per_node
                + self.port_offset[link.dim as usize]
                + link.dir.index(),
        )
    }

    /// Decodes a dense link id back into its logical descriptor.
    pub fn link(&self, id: LinkId) -> Link {
        let from = NodeId(id.0 / self.ports_per_node);
        let port = id.0 % self.ports_per_node;
        // Dimensions are few (≤ ~32); linear scan is fine off the hot path.
        let dim = (0..self.d())
            .rev()
            .find(|&i| self.port_offset[i] <= port)
            .expect("port offset table is non-empty");
        let dir = if port - self.port_offset[dim] == 0 {
            Direction::Plus
        } else {
            Direction::Minus
        };
        Link {
            from,
            dim: dim as u8,
            dir,
        }
    }

    /// The receiving node of a directed link.
    #[inline(always)]
    pub fn link_target(&self, link: Link) -> NodeId {
        self.neighbor(link.from, link.dim as usize, link.dir)
    }

    /// Iterator over every directed link (in dense id order).
    pub fn links(&self) -> impl Iterator<Item = Link> + '_ {
        (0..self.link_count()).map(move |i| self.link(LinkId(i)))
    }

    /// Precomputed table mapping `LinkId` index → receiving node, for the
    /// simulator's hot loop.
    pub fn link_target_table(&self) -> Vec<NodeId> {
        (0..self.link_count())
            .map(|i| self.link_target(self.link(LinkId(i))))
            .collect()
    }

    /// Precomputed table mapping `LinkId` index → dimension, for priority
    /// disciplines that depend on the transmission dimension.
    pub fn link_dim_table(&self) -> Vec<u8> {
        (0..self.link_count())
            .map(|i| self.link(LinkId(i)).dim)
            .collect()
    }

    /// Shortest-path distance between two nodes (sum of ring distances).
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        (0..self.d())
            .map(|i| {
                ring_distance(
                    self.coords.digit(a, i),
                    self.coords.digit(b, i),
                    self.coords.dim_size(i),
                )
            })
            .sum()
    }

    /// Network diameter `Σ ⌊n_i / 2⌋`.
    pub fn diameter(&self) -> u32 {
        self.dims().iter().map(|&n| n / 2).sum()
    }

    /// Exact average shortest-path distance `D_ave` to a destination chosen
    /// uniformly among the other `N − 1` nodes.
    pub fn avg_distance(&self) -> f64 {
        let n = self.node_count() as f64;
        let per_dim: f64 = self
            .dims()
            .iter()
            .map(|&ni| exact_avg_ring_distance(ni))
            .sum();
        per_dim * n / (n - 1.0)
    }

    /// Expected number of dimension-`dim` hops of a shortest-path unicast
    /// to a uniform destination (≠ source). Used by the balance system
    /// Eq. (4).
    pub fn avg_hops_in_dim(&self, dim: usize) -> f64 {
        let n = self.node_count() as f64;
        exact_avg_ring_distance(self.dim_size(dim)) * n / (n - 1.0)
    }

    /// The paper's `⌊n_i/4⌋` stand-in for [`Torus::avg_hops_in_dim`] (§4).
    pub fn paper_avg_hops_in_dim(&self, dim: usize) -> f64 {
        crate::paper_avg_ring_distance(self.dim_size(dim))
    }
}

impl std::fmt::Display for Torus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let dims: Vec<String> = self.dims().iter().map(|n| n.to_string()).collect();
        write!(f, "torus({})", dims.join("x"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hypercube_degree_is_d() {
        for d in 1..8 {
            let h = Torus::hypercube(d);
            assert_eq!(h.degree() as usize, d);
            assert_eq!(h.node_count(), 1 << d);
            assert_eq!(h.link_count() as usize, d << d);
        }
    }

    #[test]
    #[should_panic(expected = "link count exceeds u32 range")]
    fn rejects_a_link_count_past_u32() {
        // 2³⁰ nodes × 4 ports used to wrap `link_count()` to 0.
        Torus::new(&[32_768, 32_768]);
    }

    #[test]
    fn torus_degree_is_2d_for_large_dims() {
        let t = Torus::new(&[8, 8, 8]);
        assert_eq!(t.degree(), 6);
        assert_eq!(t.link_count(), 512 * 6);
    }

    #[test]
    fn mixed_dims_port_layout() {
        // 2 x 5 torus: dim 0 has one port, dim 1 has two -> 3 ports/node.
        let t = Torus::new(&[2, 5]);
        assert_eq!(t.degree(), 3);
        assert_eq!(t.ports_in_dim(0), 1);
        assert_eq!(t.ports_in_dim(1), 2);
        assert_eq!(t.ring_directions(0), &[Direction::Plus]);
        assert_eq!(t.ring_directions(1), &[Direction::Plus, Direction::Minus]);
    }

    #[test]
    fn link_id_roundtrip() {
        for t in [
            Torus::new(&[5, 5]),
            Torus::new(&[2, 4, 3]),
            Torus::hypercube(4),
            Torus::new(&[4, 8]),
        ] {
            for id in 0..t.link_count() {
                let link = t.link(LinkId(id));
                assert_eq!(t.link_id(link), LinkId(id), "{t} id={id}");
            }
        }
    }

    #[test]
    fn link_ids_are_dense_and_unique() {
        let t = Torus::new(&[3, 2, 4]);
        let mut seen = vec![false; t.link_count() as usize];
        for node in t.coords().nodes() {
            for dim in 0..t.d() {
                for &dir in t.ring_directions(dim) {
                    let id = t.link_id(Link {
                        from: node,
                        dim: dim as u8,
                        dir,
                    });
                    assert!(!seen[id.index()], "duplicate id {id}");
                    seen[id.index()] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn neighbor_relation_is_mutual() {
        for t in [
            Torus::new(&[4, 5, 2]),
            Torus::new(&[5, 4]),
            Torus::new(&[2, 3, 4]),
            Torus::new(&[7, 11, 13]),
            Torus::new(&[16, 16]),
            Torus::new(&[8, 8, 16]),
            Torus::hypercube(12),
        ] {
            for node in t.coords().nodes() {
                for dim in 0..t.d() {
                    for &dir in t.ring_directions(dim) {
                        let nb = t.neighbor(node, dim, dir);
                        assert_ne!(nb, node);
                        let back = if t.dim_size(dim) == 2 {
                            Direction::Plus
                        } else {
                            dir.opposite()
                        };
                        assert_eq!(t.neighbor(nb, dim, back), node, "{t}");
                    }
                }
            }
        }
    }

    #[test]
    fn distance_is_a_metric_on_small_torus() {
        let t = Torus::new(&[4, 3]);
        let nodes: Vec<_> = t.coords().nodes().collect();
        for &a in &nodes {
            assert_eq!(t.distance(a, a), 0);
            for &b in &nodes {
                assert_eq!(t.distance(a, b), t.distance(b, a));
                for &c in &nodes {
                    assert!(t.distance(a, c) <= t.distance(a, b) + t.distance(b, c));
                }
            }
        }
    }

    #[test]
    fn diameter_matches_brute_force() {
        for t in [
            Torus::new(&[5, 4]),
            Torus::new(&[2, 3, 4]),
            Torus::hypercube(5),
        ] {
            let brute = t
                .coords()
                .nodes()
                .map(|b| t.distance(NodeId(0), b))
                .max()
                .unwrap();
            assert_eq!(t.diameter(), brute, "{t}");
        }
    }

    #[test]
    fn avg_distance_matches_brute_force() {
        for t in [
            Torus::new(&[5, 4]),
            Torus::new(&[2, 3, 4]),
            Torus::hypercube(4),
        ] {
            let n = t.node_count();
            let sum: u64 = t
                .coords()
                .nodes()
                .map(|b| t.distance(NodeId(0), b) as u64)
                .sum();
            let brute = sum as f64 / (n - 1) as f64;
            assert!((t.avg_distance() - brute).abs() < 1e-9, "{t}");
        }
    }

    #[test]
    fn hypercube_avg_distance_closed_form() {
        // D_ave = (d/2) * N / (N - 1) for the d-cube.
        for d in 2..8usize {
            let h = Torus::hypercube(d);
            let n = h.node_count() as f64;
            let expect = d as f64 / 2.0 * n / (n - 1.0);
            assert!((h.avg_distance() - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn display_format() {
        assert_eq!(Torus::new(&[8, 8, 8]).to_string(), "torus(8x8x8)");
    }

    #[test]
    fn symmetry_detection() {
        assert!(Torus::n_ary_d_cube(5, 3).is_symmetric());
        assert!(!Torus::new(&[4, 8]).is_symmetric());
    }

    #[test]
    fn link_target_table_consistent() {
        let t = Torus::new(&[3, 4]);
        let table = t.link_target_table();
        for l in t.links() {
            assert_eq!(table[t.link_id(l).index()], t.link_target(l));
        }
    }
}
