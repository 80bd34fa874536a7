//! Generic recursive bisection of a hypergraph into `k` parts.
//!
//! Net handling between levels uses **net splitting** (the con1-preserving
//! rule of Çatalyürek & Aykanat): a cut net survives in both sub-problems
//! restricted to the pins on each side. This driver also supports *exact*
//! part sizes (unit-count balance with ε = 0), which §IV-B of the paper
//! needs to give every column block exactly `B` columns.

use crate::bisect::{multilevel_bisect, repair_to_exact_count, BisectConfig};
use crate::Hypergraph;

/// Induces the sub-hypergraph on `vertices` (net splitting): every net is
/// restricted to its pins inside `vertices`; nets with fewer than two
/// remaining pins are dropped. Returns the sub-hypergraph and the map
/// `new vertex id → old vertex id`.
pub fn induce_subhypergraph(h: &Hypergraph, vertices: &[usize]) -> (Hypergraph, Vec<usize>) {
    let mut new_of = vec![usize::MAX; h.nvertices()];
    for (new, &old) in vertices.iter().enumerate() {
        new_of[old] = new;
    }
    let ncon = h.nconstraints();
    let mut vwgt = Vec::with_capacity(vertices.len() * ncon);
    for &old in vertices {
        vwgt.extend_from_slice(h.vertex_weights(old));
    }
    let mut nptr = vec![0usize];
    let mut npins: Vec<usize> = Vec::new();
    let mut ncost: Vec<i64> = Vec::new();
    for net in 0..h.nnets() {
        let start = npins.len();
        npins.extend(
            h.pins_of(net)
                .iter()
                .map(|&v| new_of[v])
                .filter(|&nv| nv != usize::MAX),
        );
        if npins.len() - start > 1 {
            nptr.push(npins.len());
            ncost.push(h.net_cost(net));
        } else {
            npins.truncate(start);
        }
    }
    (
        Hypergraph::from_flat_pins(vertices.len(), nptr, npins, vwgt, ncon, ncost),
        vertices.to_vec(),
    )
}

/// Recursively partitions `h` into parts of *exactly* the given sizes
/// (which must sum to the vertex count). Minimises the con1 metric via
/// net splitting. Returns `part[v] ∈ 0..sizes.len()`.
pub fn recursive_partition_exact(
    h: &Hypergraph,
    sizes: &[usize],
    cfg: &BisectConfig,
) -> Vec<usize> {
    let all: Vec<usize> = (0..h.nvertices()).collect();
    recursive_partition_exact_seeded(h, sizes, cfg, &all)
}

/// Like [`recursive_partition_exact`], but seeded: `seed_order` lists all
/// vertices in a locality-preserving sequence (e.g. the §IV-A postorder
/// key order), and each bisection starts from the contiguous split of
/// that sequence before FM refinement. The result is therefore never
/// meaningfully worse than the contiguous blocking of `seed_order`, and
/// usually better — mirroring how a production partitioner (PaToH) beats
/// the postorder blocking in the paper's Fig. 4.
pub fn recursive_partition_exact_seeded(
    h: &Hypergraph,
    sizes: &[usize],
    cfg: &BisectConfig,
    seed_order: &[usize],
) -> Vec<usize> {
    let total: usize = sizes.iter().sum();
    assert_eq!(
        total,
        h.nvertices(),
        "part sizes must sum to the vertex count"
    );
    assert_eq!(
        seed_order.len(),
        h.nvertices(),
        "seed order must cover all vertices"
    );
    let mut part = vec![0usize; h.nvertices()];
    recurse(h, seed_order, sizes, 0, cfg, &mut part);
    part
}

fn recurse(
    h: &Hypergraph,
    vertices: &[usize],
    sizes: &[usize],
    first_part: usize,
    cfg: &BisectConfig,
    part: &mut [usize],
) {
    if sizes.len() == 1 {
        for &v in vertices {
            part[v] = first_part;
        }
        return;
    }
    let half = sizes.len() / 2;
    let target0: usize = sizes[..half].iter().sum();
    let (sub, map) = induce_subhypergraph(h, vertices);
    // Candidate A: multilevel bisection repaired to the exact size.
    let mut ml = multilevel_bisect(&sub, cfg);
    repair_to_exact_count(&sub, &mut ml, target0);
    // Candidate B: the contiguous split of the seed order, FM-refined
    // under a tight balance bound, then repaired.
    let seed_side: Vec<u8> = (0..sub.nvertices())
        .map(|v| if v < target0 { 0u8 } else { 1u8 })
        .collect();
    let mut seeded = crate::fm::HBisection::recompute(&sub, seed_side);
    let tight = crate::fm::HFmLimits::from_eps(&sub, 0.02);
    crate::fm::refine(&sub, &mut seeded, &tight);
    repair_to_exact_count(&sub, &mut seeded, target0);
    let bis = if seeded.cut <= ml.cut { seeded } else { ml };
    // Split, preserving the seed order inside each side so deeper levels
    // keep their locality seed.
    let mut side0 = Vec::with_capacity(target0);
    let mut side1 = Vec::with_capacity(vertices.len() - target0);
    for (local, &global) in map.iter().enumerate() {
        if bis.side[local] == 0 {
            side0.push(global);
        } else {
            side1.push(global);
        }
    }
    debug_assert_eq!(side0.len(), target0);
    recurse(h, &side0, &sizes[..half], first_part, cfg, part);
    recurse(h, &side1, &sizes[half..], first_part + half, cfg, part);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::cut_sizes;

    fn chain(n: usize) -> Hypergraph {
        let pins: Vec<Vec<usize>> = (0..n - 1).map(|i| vec![i, i + 1]).collect();
        let ncost = vec![1i64; pins.len()];
        Hypergraph::from_pin_lists(n, &pins, vec![1; n], 1, ncost)
    }

    #[test]
    fn induced_subhypergraph_splits_nets() {
        let h = chain(6);
        let (sub, map) = induce_subhypergraph(&h, &[0, 1, 2]);
        assert_eq!(sub.nvertices(), 3);
        // Nets {0,1},{1,2} survive; {2,3} loses a pin and is dropped.
        assert_eq!(sub.nnets(), 2);
        assert_eq!(map, vec![0, 1, 2]);
    }

    #[test]
    fn exact_partition_respects_sizes() {
        let h = chain(24);
        let sizes = [6usize, 6, 6, 6];
        let part = recursive_partition_exact(&h, &sizes, &BisectConfig::default());
        let mut counts = [0usize; 4];
        for &p in &part {
            counts[p] += 1;
        }
        assert_eq!(counts, sizes);
    }

    #[test]
    fn exact_partition_with_uneven_sizes() {
        let h = chain(10);
        let sizes = [3usize, 3, 4];
        let part = recursive_partition_exact(&h, &sizes, &BisectConfig::default());
        let mut counts = [0usize; 3];
        for &p in &part {
            counts[p] += 1;
        }
        assert_eq!(counts, sizes);
    }

    #[test]
    fn chain_partition_has_low_con1() {
        let h = chain(32);
        let sizes = [8usize; 4];
        let part = recursive_partition_exact(&h, &sizes, &BisectConfig::default());
        let cs = cut_sizes(&h, &part, 4);
        // A contiguous split cuts 3 pair-nets (con1 = 3); allow slack.
        assert!(cs.con1 <= 8, "con1 {} too large", cs.con1);
    }
}
