//! Open meshes (no wraparound), used by the §2 throughput-factor formulas.
//!
//! The paper's simulations all run on tori; the mesh type exists so that the
//! queueing crate can reproduce and test the mesh throughput expressions
//! (e.g. `ρ = λ_B (n² − 1)/(4 − 4/n)` for random broadcasting in an
//! `n × n` mesh, whose maximum achievable ρ is 0.5 because corner nodes
//! have only two incident links).

use crate::{Coordinates, Direction, Link, LinkId, NodeId};

/// A `d`-dimensional open mesh with `n_i ≥ 2` nodes along dimension `i`.
///
/// Unlike the torus, ports vary per node: boundary nodes miss the port
/// that would leave the mesh, so directed-link ids are assigned through
/// per-node prefix offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mesh {
    coords: Coordinates,
    /// `port_offset[v]` = dense id of node v's first outgoing link;
    /// `port_offset[N]` = total link count.
    port_offset: Vec<u32>,
}

impl Mesh {
    /// Builds a mesh with the given per-dimension sizes.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Coordinates::new`], or if the
    /// directed-link count exceeds `u32::MAX` (a [`LinkId`] is a `u32`).
    pub fn new(dims: &[u32]) -> Self {
        let coords = Coordinates::new(dims);
        let n = coords.node_count();
        assert!(
            link_count(dims, n) <= u32::MAX as u64,
            "link count exceeds u32 range"
        );
        let mut port_offset = Vec::with_capacity(n as usize + 1);
        let mut acc = 0u32;
        for v in 0..n {
            port_offset.push(acc);
            for dim in 0..coords.d() {
                let c = coords.digit(NodeId(v), dim);
                acc += u32::from(c + 1 < coords.dim_size(dim)); // Plus port
                acc += u32::from(c > 0); // Minus port
            }
        }
        port_offset.push(acc);
        Self {
            coords,
            port_offset,
        }
    }

    /// `true` when `node` has an outgoing port in `(dim, dir)` (i.e. the
    /// move stays inside the mesh).
    pub fn has_port(&self, node: NodeId, dim: usize, dir: Direction) -> bool {
        let c = self.coords.digit(node, dim);
        match dir {
            Direction::Plus => c + 1 < self.coords.dim_size(dim),
            Direction::Minus => c > 0,
        }
    }

    /// The neighbor across `(dim, dir)`.
    ///
    /// # Panics
    ///
    /// Panics when the move leaves the mesh.
    pub fn neighbor(&self, node: NodeId, dim: usize, dir: Direction) -> NodeId {
        assert!(self.has_port(node, dim, dir), "move leaves the mesh");
        self.coords.step(node, dim, dir.is_forward())
    }

    /// Dense id of a directed link.
    ///
    /// # Panics
    ///
    /// Panics when the port does not exist.
    pub fn link_id(&self, link: Link) -> LinkId {
        assert!(
            self.has_port(link.from, link.dim as usize, link.dir),
            "no such mesh port: {link}"
        );
        let mut local = 0u32;
        for dim in 0..link.dim as usize {
            local += u32::from(self.has_port(link.from, dim, Direction::Plus));
            local += u32::from(self.has_port(link.from, dim, Direction::Minus));
        }
        if link.dir == Direction::Minus {
            local += u32::from(self.has_port(link.from, link.dim as usize, Direction::Plus));
        }
        LinkId(self.port_offset[link.from.index()] + local)
    }

    /// Decodes a dense link id.
    pub fn link(&self, id: LinkId) -> Link {
        let from = match self.port_offset.binary_search(&id.0) {
            Ok(mut i) => {
                // Land on the first node whose offset equals id (nodes with
                // zero ports cannot occur for n_i ≥ 2, but be precise).
                while i + 1 < self.port_offset.len() && self.port_offset[i + 1] == id.0 {
                    i += 1;
                }
                i
            }
            Err(i) => i - 1,
        };
        let node = NodeId(from as u32);
        let mut local = id.0 - self.port_offset[from];
        for dim in 0..self.d() {
            for dir in [Direction::Plus, Direction::Minus] {
                if self.has_port(node, dim, dir) {
                    if local == 0 {
                        return Link {
                            from: node,
                            dim: dim as u8,
                            dir,
                        };
                    }
                    local -= 1;
                }
            }
        }
        unreachable!("link id {id} out of range for node {node}");
    }

    /// Table mapping dense link id → receiving node.
    pub fn link_target_table(&self) -> Vec<NodeId> {
        (0..self.link_count())
            .map(|i| {
                let l = self.link(LinkId(i));
                self.neighbor(l.from, l.dim as usize, l.dir)
            })
            .collect()
    }

    /// Table mapping dense link id → dimension.
    pub fn link_dim_table(&self) -> Vec<u8> {
        (0..self.link_count())
            .map(|i| self.link(LinkId(i)).dim)
            .collect()
    }

    /// The underlying coordinate system.
    pub fn coords(&self) -> &Coordinates {
        &self.coords
    }

    /// Number of dimensions.
    pub fn d(&self) -> usize {
        self.coords.d()
    }

    /// Per-dimension sizes.
    pub fn dims(&self) -> &[u32] {
        self.coords.dims()
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> u32 {
        self.coords.node_count()
    }

    /// Total number of directed links: `Σ_i 2 (n_i − 1) N / n_i`.
    pub fn link_count(&self) -> u32 {
        link_count(self.dims(), self.node_count()) as u32
    }

    /// Average number of directed outgoing links per node,
    /// `d_ave = Σ_i (2 − 2/n_i)` — the denominator in the paper's mesh
    /// throughput-factor formula.
    pub fn avg_degree(&self) -> f64 {
        self.dims().iter().map(|&ni| 2.0 - 2.0 / ni as f64).sum()
    }

    /// Out-degree of a specific node (boundary nodes lose ports).
    pub fn degree(&self, node: NodeId) -> u32 {
        (0..self.d())
            .map(|i| {
                let c = self.coords.digit(node, i);
                let n = self.coords.dim_size(i);
                u32::from(c > 0) + u32::from(c + 1 < n)
            })
            .sum()
    }

    /// Manhattan distance between two nodes.
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        (0..self.d())
            .map(|i| {
                let ca = self.coords.digit(a, i);
                let cb = self.coords.digit(b, i);
                ca.abs_diff(cb)
            })
            .sum()
    }

    /// Network diameter `Σ (n_i − 1)`.
    pub fn diameter(&self) -> u32 {
        self.dims().iter().map(|&n| n - 1).sum()
    }

    /// Exact average shortest-path distance to a uniform destination
    /// (≠ source). The average line distance for a dimension of size `n`
    /// is `(n² − 1) / (3n)`.
    pub fn avg_distance(&self) -> f64 {
        let n = self.node_count() as f64;
        let per_dim: f64 = self
            .dims()
            .iter()
            .map(|&ni| {
                let ni = ni as f64;
                (ni * ni - 1.0) / (3.0 * ni)
            })
            .sum();
        per_dim * n / (n - 1.0)
    }
}

impl std::fmt::Display for Mesh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let dims: Vec<String> = self.dims().iter().map(|n| n.to_string()).collect();
        write!(f, "mesh({})", dims.join("x"))
    }
}

/// `Σ_i 2 (n_i − 1) N / n_i`, before it is known to fit a [`LinkId`].
fn link_count(dims: &[u32], nodes: u32) -> u64 {
    dims.iter()
        .map(|&ni| 2 * (ni as u64 - 1) * nodes as u64 / ni as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_count_matches_degree_sum() {
        for m in [
            Mesh::new(&[4, 4]),
            Mesh::new(&[3, 5, 2]),
            Mesh::new(&[8, 8]),
        ] {
            let by_degree: u32 = m.coords().nodes().map(|v| m.degree(v)).sum();
            assert_eq!(m.link_count(), by_degree, "{m}");
        }
    }

    #[test]
    #[should_panic(expected = "link count exceeds u32 range")]
    fn rejects_a_link_count_past_u32() {
        // 2³¹ nodes fit a `NodeId`; their ≈ 6 · 2³¹ links do not fit a
        // `LinkId`. Refused before the per-node offset table is built.
        Mesh::new(&[2_048, 2_048, 512]);
    }

    #[test]
    fn avg_degree_matches_link_count() {
        let m = Mesh::new(&[4, 6]);
        let expect = m.link_count() as f64 / m.node_count() as f64;
        assert!((m.avg_degree() - expect).abs() < 1e-12);
    }

    #[test]
    fn corner_of_2d_mesh_has_two_links() {
        let m = Mesh::new(&[5, 5]);
        let corner = m.coords().node(&[0, 0]);
        assert_eq!(m.degree(corner), 2);
        let center = m.coords().node(&[2, 2]);
        assert_eq!(m.degree(center), 4);
    }

    #[test]
    fn avg_distance_matches_brute_force() {
        for m in [Mesh::new(&[4, 5]), Mesh::new(&[3, 3, 3])] {
            let nodes: Vec<_> = m.coords().nodes().collect();
            let mut sum = 0u64;
            for &a in &nodes {
                for &b in &nodes {
                    sum += m.distance(a, b) as u64;
                }
            }
            let n = m.node_count() as u64;
            let brute = sum as f64 / (n * (n - 1)) as f64;
            assert!((m.avg_distance() - brute).abs() < 1e-9, "{m}");
        }
    }

    #[test]
    fn diameter_is_corner_to_corner() {
        let m = Mesh::new(&[4, 7]);
        let a = m.coords().node(&[0, 0]);
        let b = m.coords().node(&[3, 6]);
        assert_eq!(m.distance(a, b), m.diameter());
    }

    #[test]
    fn link_id_roundtrip_and_density() {
        for m in [
            Mesh::new(&[4, 5]),
            Mesh::new(&[2, 3, 4]),
            Mesh::new(&[8, 8]),
        ] {
            let mut seen = vec![false; m.link_count() as usize];
            for node in m.coords().nodes() {
                for dim in 0..m.d() {
                    for dir in [Direction::Plus, Direction::Minus] {
                        if m.has_port(node, dim, dir) {
                            let link = Link {
                                from: node,
                                dim: dim as u8,
                                dir,
                            };
                            let id = m.link_id(link);
                            assert!(!seen[id.index()], "{m}: duplicate {id}");
                            seen[id.index()] = true;
                            assert_eq!(m.link(id), link, "{m}: decode mismatch");
                        }
                    }
                }
            }
            assert!(seen.iter().all(|&s| s), "{m}: ids not dense");
        }
    }

    #[test]
    fn boundary_nodes_have_no_outward_port() {
        let m = Mesh::new(&[4, 4]);
        let corner = m.coords().node(&[0, 0]);
        assert!(!m.has_port(corner, 0, Direction::Minus));
        assert!(!m.has_port(corner, 1, Direction::Minus));
        assert!(m.has_port(corner, 0, Direction::Plus));
        let edge = m.coords().node(&[3, 2]);
        assert!(!m.has_port(edge, 0, Direction::Plus));
        assert!(m.has_port(edge, 0, Direction::Minus));
    }

    #[test]
    #[should_panic(expected = "leaves the mesh")]
    fn neighbor_panics_off_the_edge() {
        let m = Mesh::new(&[3, 3]);
        m.neighbor(m.coords().node(&[0, 0]), 0, Direction::Minus);
    }
}
