//! Workload inputs: seeded graphs with a minimum cut known by construction,
//! and the seeded edge picks the dynamic-update stream mutates.

use pmc_graph::{gen, Graph};

/// Vertices of the `pack-sparse` gnm body (before the pendant vertex).
pub const PACK_N: usize = 2048;
/// Edges of the `pack-sparse` gnm body (before the pendant edge).
pub const PACK_M: usize = 8192;
/// Largest edge weight of the `pack-sparse` gnm body.
pub const PACK_MAX_W: u64 = 8;

/// A solver workload's input: the graph, its minimum-cut value as known by
/// construction, and the edges the update stream may reweight upwards
/// without moving that value.
pub struct SolverInput {
    /// The graph every solve runs on.
    pub graph: Graph,
    /// The minimum-cut value, known without solving.
    pub min_cut: u64,
    /// Ids of edges whose weight may grow without changing `min_cut`.
    pub safe_edges: Vec<u32>,
}

/// `gen::gnm_connected(n, m, max_w, seed)` plus one pendant vertex `n`,
/// joined to a seeded vertex by a weight-1 edge.
///
/// The minimum cut is exactly 1: the body is connected with integer weights
/// of at least 1, so every cut crosses weight at least 1, and cutting off
/// the pendant vertex crosses exactly 1. Every edge other than the pendant
/// edge is safe to reweight upwards: that cut keeps value 1.
pub fn pendant_gnm(n: usize, m: usize, max_w: u64, seed: u64) -> SolverInput {
    let body = gen::gnm_connected(n, m, max_w, seed);
    let mut triples: Vec<(u32, u32, u64)> = body.edges().iter().map(|e| (e.u, e.v, e.w)).collect();
    let anchor = (splitmix(seed) % n as u64) as u32;
    triples.push((anchor, n as u32, 1));
    let graph = Graph::from_edges(n + 1, &triples).expect("pendant gnm is a valid graph");
    SolverInput {
        safe_edges: (0..body.m() as u32).collect(),
        graph,
        min_cut: 1,
    }
}

/// The `pack-sparse` input for `seed`.
pub fn pack_sparse(seed: u64) -> SolverInput {
    pendant_gnm(PACK_N, PACK_M, PACK_MAX_W, seed)
}

/// The `sweep-planted` input for `seed`:
/// `gen::planted_bisection(256, 256, 40, 5, 512, seed)`, whose minimum cut
/// is the planted bisection. Raising an edge inside one side leaves that
/// cut's value alone and raises no cut below it, so those edges are safe.
pub fn sweep_planted(seed: u64) -> SolverInput {
    let (graph, min_cut, side) = gen::planted_bisection(256, 256, 40, 5, 512, seed);
    let safe_edges = graph
        .edges()
        .iter()
        .enumerate()
        .filter(|(_, e)| side[e.u as usize] == side[e.v as usize])
        .map(|(i, _)| i as u32)
        .collect();
    SolverInput {
        graph,
        min_cut,
        safe_edges,
    }
}

/// SplitMix64: the benchmark's own seeded stream for choices the workload
/// generators do not make (pendant anchor, update edges, derived seeds).
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `k`-th edge the update stream of `seed` reweights.
pub fn update_edge(input: &SolverInput, seed: u64, k: u64) -> u32 {
    let pick = splitmix(seed ^ splitmix(k)) % input.safe_edges.len() as u64;
    input.safe_edges[pick as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmc_baseline::stoer_wagner;

    #[test]
    fn pendant_gnm_min_cut_is_one_by_stoer_wagner() {
        for seed in 0..12 {
            let input = pendant_gnm(40, 90, 8, seed);
            let sw = stoer_wagner(&input.graph).unwrap();
            assert_eq!(sw.value, input.min_cut, "seed {seed}");
            assert_eq!(input.graph.n(), 41);
            assert_eq!(input.graph.m(), 91);
        }
    }

    #[test]
    fn safe_edges_keep_the_min_cut_when_raised() {
        for seed in 0..6 {
            let small = pendant_gnm(30, 70, 8, seed);
            let (planted, value, side) = gen::planted_bisection(8, 9, 10, 3, 6, seed);
            let safe = planted
                .edges()
                .iter()
                .enumerate()
                .filter(|(_, e)| side[e.u as usize] == side[e.v as usize])
                .map(|(i, _)| i as u32)
                .collect();
            let planted = SolverInput {
                graph: planted,
                min_cut: value,
                safe_edges: safe,
            };
            for mut input in [small, planted] {
                for k in 0..20 {
                    let e = update_edge(&input, seed, k) as usize;
                    let w = input.graph.edges()[e].w;
                    input.graph.reweight_edge(e, w + 3).unwrap();
                }
                let sw = stoer_wagner(&input.graph).unwrap();
                assert_eq!(sw.value, input.min_cut, "seed {seed}");
            }
        }
    }

    #[test]
    fn generators_are_deterministic_in_the_seed() {
        let edges = |g: &Graph| {
            g.edges()
                .iter()
                .map(|e| (e.u, e.v, e.w))
                .collect::<Vec<_>>()
        };
        for seed in [1, 7, 2024] {
            let (a, b) = (pack_sparse(seed), pack_sparse(seed));
            assert_eq!(edges(&a.graph), edges(&b.graph));
            assert_eq!(a.safe_edges, b.safe_edges);
            let (c, d) = (sweep_planted(seed), sweep_planted(seed));
            assert_eq!(edges(&c.graph), edges(&d.graph));
            assert_eq!((c.min_cut, c.safe_edges.clone()), (d.min_cut, d.safe_edges));
            for k in 0..8 {
                assert_eq!(update_edge(&a, seed, k), update_edge(&b, seed, k));
            }
        }
        assert_ne!(edges(&pack_sparse(1).graph), edges(&pack_sparse(2).graph));
        assert_eq!(pack_sparse(1).graph.n(), PACK_N + 1);
        assert_eq!(sweep_planted(1).min_cut, 75);
    }
}
