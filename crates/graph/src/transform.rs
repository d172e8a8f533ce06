//! Vertex relabelling, for the locality baseline in the ablations:
//! degree-ordered relabelling is the classic alternative to placement —
//! instead of moving hot data to fast memory, pack hot vertices together.

use crate::csr::Csr;

/// Relabels vertices by descending out-degree: vertex 0 of the result is
/// the highest-degree vertex of the input. Returns the relabelled graph
/// and the mapping `old_id -> new_id`.
///
/// This is the classic locality optimisation for skewed graphs (hot
/// vertices become a contiguous prefix), which makes coarse-grained
/// placement competitive — the ablation harness uses it as an alternative
/// baseline to ATMem's fine-grained placement.
pub fn degree_order(g: &Csr) -> (Csr, Vec<u32>) {
    let n = g.num_vertices();
    let mut by_degree: Vec<u32> = (0..n as u32).collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(g.degree(v as usize)));
    let mut new_id = vec![0u32; n];
    for (new, &old) in by_degree.iter().enumerate() {
        new_id[old as usize] = new as u32;
    }
    let relabelled = relabel(g, &new_id);
    (relabelled, new_id)
}

/// Applies an arbitrary relabelling `old_id -> new_id` (a permutation).
///
/// # Panics
///
/// Panics if `new_id` is not a permutation of `0..n`.
pub fn relabel(g: &Csr, new_id: &[u32]) -> Csr {
    let n = g.num_vertices();
    assert_eq!(new_id.len(), n, "relabelling must cover every vertex");
    let mut seen = vec![false; n];
    for &id in new_id {
        assert!(
            (id as usize) < n && !std::mem::replace(&mut seen[id as usize], true),
            "relabelling must be a permutation"
        );
    }
    let mut builder_edges = Vec::with_capacity(g.num_edges());
    if g.is_weighted() {
        for u in 0..n {
            let ws = g.weights_of(u);
            for (&v, &w) in g.neighbors_of(u).iter().zip(ws) {
                builder_edges.push((new_id[u], new_id[v as usize], w));
            }
        }
        crate::builder::GraphBuilder::new(n)
            .self_loops(crate::builder::SelfLoops::Keep)
            .weighted_edges(builder_edges)
            .build()
    } else {
        let edges: Vec<(u32, u32)> = g
            .edges()
            .map(|(u, v)| (new_id[u as usize], new_id[v as usize]))
            .collect();
        crate::builder::GraphBuilder::new(n)
            .self_loops(crate::builder::SelfLoops::Keep)
            .edges(edges)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::datasets::Dataset;

    fn diamond() -> Csr {
        GraphBuilder::new(4)
            .weighted_edges([(0, 1, 1.0), (0, 2, 2.0), (1, 3, 3.0), (2, 3, 4.0)])
            .build()
    }

    #[test]
    fn degree_order_puts_hubs_first() {
        let g = Dataset::Twitter.build_small(10);
        let (r, map) = degree_order(&g);
        assert_eq!(r.num_edges(), g.num_edges());
        // Degrees are non-increasing in the new labelling.
        let degrees: Vec<usize> = (0..r.num_vertices()).map(|v| r.degree(v)).collect();
        assert!(degrees.windows(2).all(|w| w[0] >= w[1]));
        // Mapping preserves degrees.
        for (old, &new) in map.iter().enumerate() {
            assert_eq!(g.degree(old), r.degree(new as usize));
        }
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn bad_relabel_rejected() {
        let g = diamond();
        let _ = relabel(&g, &[0, 0, 1, 2]);
    }
}
