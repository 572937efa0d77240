//! Mixed-radix coordinate arithmetic.
//!
//! A node of an `n1 × … × nd` torus is identified by its coordinate vector
//! `(c_0, …, c_{d-1})` with `0 ≤ c_i < n_i`, encoded densely as the
//! mixed-radix integer `Σ c_i · stride_i` with `stride_0 = 1` and
//! `stride_{i+1} = stride_i · n_i` (dimension 0 varies fastest).
//!
//! Digit extraction sits under every packet-hop, so it takes no hardware
//! division: `c_i = ⌊(id mod P_i) / stride_i⌋` with `P_i = stride_i · n_i`
//! is computed from the precomputed reciprocal `M_i = ⌈2⁶⁴ / P_i⌉` as the
//! high word of `(M_i · id mod 2⁶⁴) · n_i`. The low word `M_i · id mod 2⁶⁴`
//! is `2⁶⁴ · (id mod P_i) / P_i + δ` with `0 ≤ δ = id · e / P_i`, where
//! `e = M_i · P_i − 2⁶⁴ < P_i`; scaled by `n_i / 2⁶⁴` that is
//! `(id mod P_i) / stride_i + δ · n_i / 2⁶⁴`, and the error term stays
//! below the `1 / stride_i` it would need to reach the next integer
//! because `δ · P_i = id · e < 2³² · 2³²`. So the result is exact for
//! every `id < 2³²` and every `2 ≤ P_i ≤ 2³²` — any radix, no
//! power-of-two fork, no stride-1 special case — which is the whole
//! domain: `N ≤ u32::MAX` is asserted at construction.

use crate::NodeId;

/// Immutable description of a mixed-radix coordinate system.
///
/// Shared by [`crate::Torus`] and [`crate::Mesh`]; all per-node arithmetic
/// (digit extraction, digit replacement) lives here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coordinates {
    dims: Vec<u32>,
    axes: Vec<Axis>,
    n: u32,
}

/// One dimension's digit arithmetic (module docs give the identity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Axis {
    /// `⌈2⁶⁴ / (stride · size)⌉`.
    recip: u64,
    size: u32,
    stride: u32,
}

impl Axis {
    #[inline(always)]
    fn digit(&self, id: u32) -> u32 {
        let frac = self.recip.wrapping_mul(id as u64);
        ((frac as u128 * self.size as u128) >> 64) as u32
    }
}

impl Coordinates {
    /// Builds the coordinate system for the given per-dimension sizes.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty, any dimension has fewer than 2 nodes, or
    /// the total node count exceeds `u32::MAX`.
    pub fn new(dims: &[u32]) -> Self {
        assert!(!dims.is_empty(), "torus must have at least one dimension");
        assert!(
            dims.iter().all(|&n| n >= 2),
            "every dimension must have at least 2 nodes, got {dims:?}"
        );
        let mut axes = Vec::with_capacity(dims.len());
        let mut acc: u64 = 1;
        for &size in dims {
            let stride = acc as u32;
            acc *= size as u64; // both factors fit a u32
            assert!(acc <= u32::MAX as u64, "node count exceeds u32 range");
            axes.push(Axis {
                recip: u64::MAX / acc + 1,
                size,
                stride,
            });
        }
        Self {
            dims: dims.to_vec(),
            axes,
            n: acc as u32,
        }
    }

    /// Number of dimensions `d`.
    #[inline(always)]
    pub fn d(&self) -> usize {
        self.dims.len()
    }

    /// Per-dimension sizes `(n_0, …, n_{d-1})`.
    #[inline(always)]
    pub fn dims(&self) -> &[u32] {
        &self.dims
    }

    /// Size of dimension `dim`.
    #[inline(always)]
    pub fn dim_size(&self, dim: usize) -> u32 {
        self.dims[dim]
    }

    /// Total number of nodes `N = Π n_i`.
    #[inline(always)]
    pub fn node_count(&self) -> u32 {
        self.n
    }

    /// Extracts coordinate digit `dim` of `node`.
    #[inline(always)]
    pub fn digit(&self, node: NodeId, dim: usize) -> u32 {
        self.axes[dim].digit(node.0)
    }

    /// Returns `node` with coordinate digit `dim` replaced by `value`.
    ///
    /// # Panics
    ///
    /// Debug-panics if `value` is out of range for the dimension.
    #[inline(always)]
    pub fn with_digit(&self, node: NodeId, dim: usize, value: u32) -> NodeId {
        let axis = &self.axes[dim];
        debug_assert!(value < axis.size);
        let old = axis.digit(node.0);
        NodeId(node.0 - old * axis.stride + value * axis.stride)
    }

    /// Moves one hop in dimension `dim`: `+1` (wrapping) if `forward`,
    /// else `-1` (wrapping).
    #[inline(always)]
    pub fn step(&self, node: NodeId, dim: usize, forward: bool) -> NodeId {
        let axis = &self.axes[dim];
        let digit = axis.digit(node.0);
        // The wrap jumps the other `size − 1` positions of the ring back.
        let wrap = (axis.size - 1) * axis.stride;
        NodeId(if forward {
            if digit + 1 == axis.size {
                node.0 - wrap
            } else {
                node.0 + axis.stride
            }
        } else if digit == 0 {
            node.0 + wrap
        } else {
            node.0 - axis.stride
        })
    }

    /// Decodes a node id into its full coordinate vector (allocates).
    pub fn coords(&self, node: NodeId) -> Vec<u32> {
        (0..self.d()).map(|i| self.digit(node, i)).collect()
    }

    /// Encodes a coordinate vector into a node id.
    ///
    /// # Panics
    ///
    /// Panics if the vector has the wrong length or a digit is out of range.
    pub fn node(&self, coords: &[u32]) -> NodeId {
        assert_eq!(coords.len(), self.d(), "coordinate arity mismatch");
        let mut id = 0u32;
        for (i, &c) in coords.iter().enumerate() {
            assert!(c < self.dims[i], "digit {c} out of range for dim {i}");
            id += c * self.axes[i].stride;
        }
        NodeId(id)
    }

    /// Iterator over all node ids `0..N`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n).map(NodeId)
    }

    /// Iterator over all coordinate vectors in node-id order.
    pub fn coord_iter(&self) -> CoordIter<'_> {
        CoordIter { sys: self, next: 0 }
    }
}

/// Iterator yielding every coordinate vector of a [`Coordinates`] system.
pub struct CoordIter<'a> {
    sys: &'a Coordinates,
    next: u32,
}

impl Iterator for CoordIter<'_> {
    type Item = Vec<u32>;

    fn next(&mut self) -> Option<Vec<u32>> {
        if self.next >= self.sys.node_count() {
            return None;
        }
        let c = self.sys.coords(NodeId(self.next));
        self.next += 1;
        Some(c)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.sys.node_count() - self.next) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for CoordIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_encode_decode() {
        let c = Coordinates::new(&[3, 4, 5]);
        assert_eq!(c.node_count(), 60);
        for node in c.nodes() {
            let v = c.coords(node);
            assert_eq!(c.node(&v), node);
        }
    }

    #[test]
    fn digit_extraction_matches_decode() {
        let c = Coordinates::new(&[2, 7, 3]);
        for node in c.nodes() {
            let v = c.coords(node);
            for (i, &digit) in v.iter().enumerate() {
                assert_eq!(c.digit(node, i), digit);
            }
        }
    }

    /// The formula `digit` replaced, kept as the reference: two hardware
    /// divisions by the stride and the size.
    fn digit_by_division(dims: &[u32], id: u32, dim: usize) -> u32 {
        let stride: u32 = dims[..dim].iter().product();
        (id / stride) % dims[dim]
    }

    /// Every shape the simulator runs, odd and prime radices, and the two
    /// systems at the edge of the id range (a prime ring; `N = u32::MAX`).
    const SMALL: [&[u32]; 7] = [
        &[4, 4, 2],
        &[5, 4],
        &[2, 3, 4],
        &[7, 11, 13],
        &[16, 16],
        &[8, 8, 16],
        &[2; 12],
    ];
    const HUGE: [&[u32]; 2] = [&[65_521], &[65_535, 65_537]];

    /// Calls `check` on every node of the small systems and on ids
    /// `0, 1, stride ± 1, N − 1` of the huge ones.
    fn for_each_probe(check: impl Fn(&Coordinates, NodeId)) {
        for dims in SMALL {
            let c = Coordinates::new(dims);
            c.nodes().for_each(|node| check(&c, node));
        }
        for dims in HUGE {
            let c = Coordinates::new(dims);
            let n = c.node_count();
            let mut ids = vec![0, 1, n - 1];
            for axis in &c.axes {
                ids.extend([axis.stride - 1, (axis.stride + 1) % n]);
            }
            ids.into_iter().for_each(|id| check(&c, NodeId(id)));
        }
    }

    fn assert_digits_match_division(c: &Coordinates, node: NodeId) {
        for dim in 0..c.d() {
            assert_eq!(
                c.digit(node, dim),
                digit_by_division(c.dims(), node.0, dim),
                "{:?}: digit {dim} of {node}",
                c.dims()
            );
        }
    }

    /// One hop each way lands on the node whose only changed digit is
    /// `dim`'s, moved by ±1 around the ring, and the two hops undo each
    /// other (what `Torus::neighbor` mutuality rests on).
    fn assert_steps_are_ring_moves(c: &Coordinates, node: NodeId) {
        let here = c.coords(node);
        for dim in 0..c.d() {
            let n = c.dim_size(dim);
            for forward in [true, false] {
                let there = c.step(node, dim, forward);
                let mut want = here.clone();
                want[dim] = (here[dim] + if forward { 1 } else { n - 1 }) % n;
                assert_eq!(c.coords(there), want, "{:?}: {node} dim {dim}", c.dims());
                assert_eq!(c.step(there, dim, !forward), node);
            }
        }
    }

    #[test]
    fn digit_matches_hardware_division() {
        for_each_probe(assert_digits_match_division);
    }

    #[test]
    fn step_forward_then_back_is_identity() {
        for_each_probe(assert_steps_are_ring_moves);
    }

    #[test]
    fn node_count_may_reach_but_not_pass_u32_max() {
        assert_eq!(Coordinates::new(&[65_535, 65_537]).node_count(), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "node count exceeds u32 range")]
    fn rejects_a_node_count_of_two_to_the_32() {
        // 2³² used to pass the range check and wrap `node_count()` to 0.
        Coordinates::new(&[65_536, 65_536]);
    }

    #[test]
    fn step_wraps_around() {
        let c = Coordinates::new(&[5, 3]);
        let n = c.node(&[4, 2]);
        assert_eq!(c.coords(c.step(n, 0, true)), vec![0, 2]);
        assert_eq!(c.coords(c.step(n, 1, true)), vec![4, 0]);
        let z = c.node(&[0, 0]);
        assert_eq!(c.coords(c.step(z, 0, false)), vec![4, 0]);
        assert_eq!(c.coords(c.step(z, 1, false)), vec![0, 2]);
    }

    #[test]
    fn step_in_two_ring_is_involution() {
        let c = Coordinates::new(&[2, 3]);
        for node in c.nodes() {
            assert_eq!(c.step(node, 0, true), c.step(node, 0, false));
            assert_eq!(c.step(c.step(node, 0, true), 0, true), node);
        }
    }

    #[test]
    fn with_digit_replaces_only_that_digit() {
        let c = Coordinates::new(&[3, 5, 4]);
        let n = c.node(&[2, 3, 1]);
        let m = c.with_digit(n, 1, 0);
        assert_eq!(c.coords(m), vec![2, 0, 1]);
    }

    #[test]
    fn coord_iter_covers_all_nodes_in_order() {
        let c = Coordinates::new(&[2, 3]);
        let all: Vec<_> = c.coord_iter().collect();
        assert_eq!(all.len(), 6);
        assert_eq!(all[0], vec![0, 0]);
        assert_eq!(all[1], vec![1, 0]);
        assert_eq!(all[2], vec![0, 1]);
        assert_eq!(all[5], vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "at least 2 nodes")]
    fn rejects_degenerate_dimension() {
        Coordinates::new(&[4, 1]);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn rejects_wrong_arity() {
        Coordinates::new(&[4, 4]).node(&[1]);
    }
}
