//! STAR broadcast spanning trees.
//!
//! A STAR broadcast with ending dimension `l` is the *non-idling SDC*
//! dimension-ordered tree of §3.1: a node that received the packet while
//! it travelled phase `p` of the rotated order (i) keeps propagating its
//! ring segment in that dimension, and (ii) initiates ring broadcasts in
//! every later phase's dimension. Ring broadcasts cover `⌈(n−1)/2⌉` nodes
//! in the `+` direction and `⌊(n−1)/2⌋` in the `−` direction, so every
//! tree path is a shortest path and each node receives exactly one copy.
//!
//! [`star_initial_emits`]/[`star_forward_emits`] translate this tree into
//! simulator transmissions; [`SpanningTree`] materializes it explicitly
//! for analysis, rendering (Fig. 1) and the Eq. (1) verification tests.

use crate::discipline::{Discipline, TrafficClass};
use pstar_sim::{rotated_dim, BroadcastState, Emit, PacketKind};
use pstar_topology::{Direction, NodeId, Torus};

/// Virtual-channel tag of §3.1: dimensions after the rotation point use
/// VC 1, wrapped-around dimensions (≤ ending dim) use VC 2.
#[inline]
pub fn virtual_channel(dim: usize, ending_dim: usize) -> u8 {
    if dim > ending_dim {
        1
    } else {
        2
    }
}

/// Emits the ring-broadcast initiation of phase `phase` (both ring
/// directions from the initiating node).
///
/// For odd `n` the two directions cover `(n−1)/2` nodes each. For even
/// `n` one direction must take the extra node; always favouring `+`
/// would overload `+` links by a factor `⌈(n−1)/2⌉/⌊(n−1)/2⌋` and cap the
/// sustainable throughput well below 1 (e.g. at 0.75 for `n = 4`). The
/// orientation is therefore a per-task coin flip (`state.flip`), sampled
/// at generation time: over uniformly random sources every directed link
/// then carries exactly the same expected load, preserving the paper's
/// balance property, while trees stay deterministic given the flip.
fn ring_initiation(
    topo: &Torus,
    src: NodeId,
    ending_dim: usize,
    phase: usize,
    flip: bool,
    discipline: Discipline,
    out: &mut Vec<Emit>,
) {
    let d = topo.d();
    let dim = rotated_dim(ending_dim, phase, d);
    let n = topo.dim_size(dim);
    let traffic = if phase == d - 1 {
        TrafficClass::BroadcastEnding
    } else {
        TrafficClass::BroadcastTrunk
    };
    let priority = discipline.class_of(traffic);
    let vc = virtual_channel(dim, ending_dim);
    let half = (n - 1) as u16 / 2;
    let (fwd, back) = if n == 2 {
        // Hypercube dimension: a single link; no choice to balance.
        (1, 0)
    } else if (n - 1) % 2 == 0 {
        (half, half)
    } else if flip {
        (half + 1, half)
    } else {
        (half, half + 1)
    };
    debug_assert_eq!(fwd + back, (n - 1) as u16);
    let mk = |dir: Direction, hops: u16| Emit {
        dim: dim as u8,
        dir,
        kind: PacketKind::Broadcast(BroadcastState {
            src,
            ending_dim: ending_dim as u8,
            phase: phase as u8,
            dir,
            hops_left: hops,
            flip,
        }),
        priority,
        vc,
    };
    if fwd > 0 {
        out.push(mk(Direction::Plus, fwd));
    }
    if back > 0 {
        out.push(mk(Direction::Minus, back));
    }
}

/// Initial transmissions of a STAR broadcast from `src` with the given
/// ending dimension: ring initiations in every phase's dimension.
pub fn star_initial_emits(
    topo: &Torus,
    src: NodeId,
    ending_dim: usize,
    flip: bool,
    discipline: Discipline,
    out: &mut Vec<Emit>,
) {
    for phase in 0..topo.d() {
        ring_initiation(topo, src, ending_dim, phase, flip, discipline, out);
    }
}

/// Forwards triggered by the arrival of a broadcast copy with state
/// `state`: ring continuation plus later-phase initiations.
pub fn star_forward_emits(
    topo: &Torus,
    state: &BroadcastState,
    discipline: Discipline,
    out: &mut Vec<Emit>,
) {
    let d = topo.d();
    let ending_dim = state.ending_dim as usize;
    let phase = state.phase as usize;
    if state.hops_left > 1 {
        let dim = state.current_dim(d);
        let traffic = if phase == d - 1 {
            TrafficClass::BroadcastEnding
        } else {
            TrafficClass::BroadcastTrunk
        };
        out.push(Emit {
            dim: dim as u8,
            dir: state.dir,
            kind: PacketKind::Broadcast(BroadcastState {
                hops_left: state.hops_left - 1,
                ..*state
            }),
            priority: discipline.class_of(traffic),
            vc: virtual_channel(dim, ending_dim),
        });
    }
    for later in phase + 1..d {
        ring_initiation(
            topo, state.src, ending_dim, later, state.flip, discipline, out,
        );
    }
}

/// An explicitly materialized STAR spanning tree.
///
/// ```
/// use priority_star::SpanningTree;
/// use pstar_topology::{NodeId, Torus};
///
/// let topo = Torus::new(&[5, 5]);
/// let tree = SpanningTree::build(&topo, NodeId(0), 1);
///
/// // Tree paths are shortest paths, so the deepest leaf sits at the
/// // diameter and Eq. (1) counts hold per dimension.
/// assert_eq!(tree.max_depth(), topo.diameter());
/// assert_eq!(tree.transmissions_per_dim(), vec![4, 20]);
/// // Only N/n − 1 = 4 transmissions ride the high-priority trunk.
/// assert_eq!(tree.trunk_transmissions(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct SpanningTree {
    topo: Torus,
    src: NodeId,
    ending_dim: usize,
    parent: Vec<Option<NodeId>>,
    depth: Vec<u32>,
    entry_dim: Vec<u8>,
    entry_phase: Vec<u8>,
}

impl SpanningTree {
    /// Builds the tree by walking the emit logic at zero load, with the
    /// default split orientation (`flip = false`).
    pub fn build(topo: &Torus, src: NodeId, ending_dim: usize) -> Self {
        Self::build_with(topo, src, ending_dim, false)
    }

    /// Builds the tree for an explicit split orientation.
    pub fn build_with(topo: &Torus, src: NodeId, ending_dim: usize, flip: bool) -> Self {
        assert!(ending_dim < topo.d(), "ending dimension out of range");
        let n = topo.node_count() as usize;
        let mut tree = Self {
            topo: topo.clone(),
            src,
            ending_dim,
            parent: vec![None; n],
            depth: vec![u32::MAX; n],
            entry_dim: vec![u8::MAX; n],
            entry_phase: vec![u8::MAX; n],
        };
        tree.depth[src.index()] = 0;

        // Breadth-style walk: (sending node, emit) pairs.
        let mut emits = Vec::new();
        star_initial_emits(topo, src, ending_dim, flip, Discipline::Fcfs, &mut emits);
        let mut frontier: Vec<(NodeId, Emit)> = emits.drain(..).map(|e| (src, e)).collect();
        while let Some((from, emit)) = frontier.pop() {
            let to = topo.neighbor(from, emit.dim as usize, emit.dir);
            let PacketKind::Broadcast(state) = emit.kind else {
                unreachable!("tree walk only emits broadcast packets");
            };
            let ti = to.index();
            assert_eq!(
                tree.depth[ti],
                u32::MAX,
                "node {to} received twice (from {from} and {:?})",
                tree.parent[ti]
            );
            tree.depth[ti] = tree.depth[from.index()] + 1;
            tree.parent[ti] = Some(from);
            tree.entry_dim[ti] = emit.dim;
            tree.entry_phase[ti] = state.phase;
            star_forward_emits(topo, &state, Discipline::Fcfs, &mut emits);
            frontier.extend(emits.drain(..).map(|e| (to, e)));
        }
        assert!(
            tree.depth.iter().all(|&d| d != u32::MAX),
            "tree does not span the torus"
        );
        tree
    }

    /// The broadcast source.
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// The ending dimension.
    pub fn ending_dim(&self) -> usize {
        self.ending_dim
    }

    /// Tree parent of a node (`None` for the source).
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.parent[node.index()]
    }

    /// Tree depth (hop count from source).
    pub fn depth(&self, node: NodeId) -> u32 {
        self.depth[node.index()]
    }

    /// Dimension over which the node received its copy.
    pub fn entry_dim(&self, node: NodeId) -> Option<usize> {
        let d = self.entry_dim[node.index()];
        (d != u8::MAX).then_some(d as usize)
    }

    /// `true` when the node's incoming transmission travelled the ending
    /// dimension (and would be low-priority under priority STAR).
    pub fn entry_is_ending_dim(&self, node: NodeId) -> bool {
        self.entry_dim(node) == Some(self.ending_dim)
    }

    /// Number of tree transmissions per dimension — must equal the
    /// `a_{i,l}` of Eq. (1).
    pub fn transmissions_per_dim(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.topo.d()];
        for node in self.topo.coords().nodes() {
            if let Some(dim) = self.entry_dim(node) {
                counts[dim] += 1;
            }
        }
        counts
    }

    /// Maximum depth (zero-load broadcast delay in hops).
    pub fn max_depth(&self) -> u32 {
        *self.depth.iter().max().unwrap()
    }

    /// Average depth over the `N − 1` non-source nodes (zero-load
    /// reception delay in hops).
    pub fn avg_depth(&self) -> f64 {
        let sum: u64 = self.depth.iter().map(|&d| d as u64).sum();
        sum as f64 / (self.depth.len() - 1) as f64
    }

    /// Number of high-priority (trunk) transmissions under priority STAR.
    pub fn trunk_transmissions(&self) -> u64 {
        self.topo
            .coords()
            .nodes()
            .filter(|&v| self.entry_dim(v).is_some_and(|dim| dim != self.ending_dim))
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coefficients::star_dim_transmissions;

    #[test]
    fn tree_spans_and_counts_match_eq1() {
        for topo in [
            Torus::new(&[5, 5]),
            Torus::new(&[4, 8]),
            Torus::new(&[4, 4, 8]),
            Torus::hypercube(5),
            Torus::new(&[2, 3, 4]),
        ] {
            for l in 0..topo.d() {
                let tree = SpanningTree::build(&topo, NodeId(0), l);
                assert_eq!(
                    tree.transmissions_per_dim(),
                    star_dim_transmissions(&topo, l),
                    "{topo} l={l}"
                );
            }
        }
    }

    #[test]
    fn tree_paths_are_shortest_paths() {
        let topo = Torus::new(&[5, 4, 3]);
        for src in [NodeId(0), NodeId(17), NodeId(59)] {
            for l in 0..topo.d() {
                let tree = SpanningTree::build(&topo, src, l);
                for node in topo.coords().nodes() {
                    assert_eq!(
                        tree.depth(node),
                        topo.distance(src, node),
                        "{topo} src={src} l={l} node={node}"
                    );
                }
            }
        }
    }

    #[test]
    fn max_depth_is_diameter() {
        let topo = Torus::new(&[8, 8]);
        let tree = SpanningTree::build(&topo, NodeId(0), 1);
        assert_eq!(tree.max_depth(), topo.diameter());
    }

    #[test]
    fn avg_depth_is_avg_distance() {
        let topo = Torus::new(&[4, 4, 8]);
        let tree = SpanningTree::build(&topo, NodeId(5), 2);
        assert!((tree.avg_depth() - topo.avg_distance()).abs() < 1e-9);
    }

    #[test]
    fn trunk_share_matches_paper_counting() {
        // §3.2: N/n − 1 high-priority and (1 − 1/n)N low-priority
        // transmissions per task in an n-ary d-cube.
        let topo = Torus::n_ary_d_cube(8, 2);
        let n = topo.node_count() as u64; // 64
        let tree = SpanningTree::build(&topo, NodeId(0), 0);
        assert_eq!(tree.trunk_transmissions(), n / 8 - 1); // 7
        let ending = (n - 1) - tree.trunk_transmissions();
        assert_eq!(ending, n - n / 8); // 56
    }

    #[test]
    fn parent_chain_reaches_source() {
        let topo = Torus::new(&[3, 3, 3]);
        let src = NodeId(13);
        let tree = SpanningTree::build(&topo, src, 1);
        for node in topo.coords().nodes() {
            let mut cur = node;
            let mut hops = 0;
            while let Some(p) = tree.parent(cur) {
                cur = p;
                hops += 1;
                assert!(hops <= topo.diameter(), "cycle detected");
            }
            assert_eq!(cur, src);
            assert_eq!(hops, tree.depth(node));
        }
    }

    #[test]
    fn ending_dim_entries_only_on_ending_dim() {
        let topo = Torus::new(&[4, 8]);
        let tree = SpanningTree::build(&topo, NodeId(0), 1);
        for node in topo.coords().nodes() {
            if node == tree.src() {
                continue;
            }
            let is_ending = tree.entry_is_ending_dim(node);
            assert_eq!(is_ending, tree.entry_dim(node) == Some(1));
        }
    }

    #[test]
    fn virtual_channel_split() {
        // 0-based: dims strictly above l use VC1, the wrapped ones VC2.
        assert_eq!(virtual_channel(2, 1), 1);
        assert_eq!(virtual_channel(1, 1), 2);
        assert_eq!(virtual_channel(0, 1), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_ending_dim() {
        SpanningTree::build(&Torus::new(&[4, 4]), NodeId(0), 2);
    }

    #[test]
    fn plus_minus_link_load_balances_over_sources_and_flips() {
        // Regression test for the even-n ring-split imbalance: summed over
        // all sources and both flip orientations (i.e. in expectation over
        // uniform random traffic), every directed link must carry exactly
        // the same number of tree edges — always favouring `+` for the
        // extra node of an even ring would load `+` links 2:1 and cap the
        // sustainable throughput at 0.75 on a 4-ring.
        for topo in [
            Torus::new(&[4, 4]),
            Torus::new(&[6, 4]),
            Torus::new(&[5, 4, 2]),
        ] {
            for l in 0..topo.d() {
                let mut per_link = vec![0u64; topo.link_count() as usize];
                for src in topo.coords().nodes() {
                    for flip in [false, true] {
                        let tree = SpanningTree::build_with(&topo, src, l, flip);
                        for node in topo.coords().nodes() {
                            if let Some(parent) = tree.parent(node) {
                                let dim = tree.entry_dim(node).unwrap();
                                // Identify the direction parent → node.
                                let dir = if topo.dim_size(dim) == 2
                                    || topo.neighbor(parent, dim, Direction::Plus) == node
                                {
                                    Direction::Plus
                                } else {
                                    Direction::Minus
                                };
                                let id = topo.link_id(pstar_topology::Link {
                                    from: parent,
                                    dim: dim as u8,
                                    dir,
                                });
                                per_link[id.index()] += 1;
                            }
                        }
                    }
                }
                // Within each dimension, all links carry identical load.
                let mut by_dim: std::collections::HashMap<u8, Vec<u64>> = Default::default();
                for (i, &c) in per_link.iter().enumerate() {
                    let link = topo.link(pstar_topology::LinkId(i as u32));
                    by_dim.entry(link.dim).or_default().push(c);
                }
                for (dim, loads) in by_dim {
                    let min = *loads.iter().min().unwrap();
                    let max = *loads.iter().max().unwrap();
                    assert_eq!(min, max, "{topo} l={l} dim={dim}: {min}..{max}");
                }
            }
        }
    }
}
