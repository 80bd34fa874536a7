//! Separator trimming: a post-pass that removes redundant separator
//! vertices from any DBBD partition.
//!
//! A separator vertex is *redundant* when its non-separator neighbours
//! all lie in (at most) one subdomain — moving it into that subdomain
//! keeps the partition valid. Column-classification separators (as
//! produced by hypergraph-based partitioners) routinely contain such
//! vertices: a "wide" two-layer separator blocks every path twice. The
//! pass sweeps to a fixpoint. A redundant vertex with a non-separator
//! neighbour has exactly one candidate, that neighbour's subdomain; only
//! a vertex with none (all its neighbours are in the separator) has a
//! choice, and goes to the currently *lightest* subdomain.

use crate::nd::{DbbdPartition, SEPARATOR};
use crate::Graph;

/// Trims redundant separator vertices in place; returns how many were
/// reassigned.
pub fn trim_separator(g: &Graph, part: &mut DbbdPartition) -> usize {
    let n = g.nvertices();
    assert_eq!(part.part_of.len(), n);
    let k = part.k;
    let mut sizes = vec![0i64; k];
    for &p in &part.part_of {
        if p != SEPARATOR {
            sizes[p] += 1;
        }
    }
    let mut moved = 0usize;
    loop {
        let mut changed = false;
        for v in 0..n {
            if part.part_of[v] != SEPARATOR {
                continue;
            }
            // Collect the subdomains of non-separator neighbours.
            let mut owner: Option<usize> = None;
            let mut conflict = false;
            for &u in g.neighbors(v) {
                let pu = part.part_of[u];
                if pu == SEPARATOR {
                    continue;
                }
                match owner {
                    None => owner = Some(pu),
                    Some(o) if o != pu => {
                        conflict = true;
                        break;
                    }
                    _ => {}
                }
            }
            if conflict {
                continue;
            }
            // Isolated separator vertices go to the lightest subdomain.
            let dest = owner.unwrap_or_else(|| (0..k).min_by_key(|&l| sizes[l]).expect("k >= 1"));
            part.part_of[v] = dest;
            sizes[dest] += 1;
            moved += 1;
            changed = true;
        }
        if !changed {
            break;
        }
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsekit::Coo;

    fn path_graph(n: usize) -> Graph {
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, 1.0);
            if i + 1 < n {
                c.push_sym(i, i + 1, 1.0);
            }
        }
        Graph::from_matrix(&c.to_csr())
    }

    fn is_valid(g: &Graph, part: &DbbdPartition) -> bool {
        for v in 0..g.nvertices() {
            let pv = part.part_of[v];
            if pv == SEPARATOR {
                continue;
            }
            for &u in g.neighbors(v) {
                let pu = part.part_of[u];
                if pu != SEPARATOR && pu != pv {
                    return false;
                }
            }
        }
        true
    }

    #[test]
    fn trims_double_separator_on_path() {
        // Path 0-1-2-3-4 with a redundant 2-vertex separator {2,3}:
        // part 0 = {0,1}, part 1 = {4}.
        let g = path_graph(5);
        let mut part = DbbdPartition {
            k: 2,
            part_of: vec![0, 0, SEPARATOR, SEPARATOR, 1],
        };
        let moved = trim_separator(&g, &mut part);
        assert_eq!(
            moved, 1,
            "exactly one of the two separator vertices is redundant"
        );
        assert!(is_valid(&g, &part));
        assert_eq!(part.separator_size(), 1);
    }

    #[test]
    fn keeps_necessary_separator() {
        // Path 0-1-2: separator {1} is necessary.
        let g = path_graph(3);
        let mut part = DbbdPartition {
            k: 2,
            part_of: vec![0, SEPARATOR, 1],
        };
        let moved = trim_separator(&g, &mut part);
        assert_eq!(moved, 0);
        assert_eq!(part.separator_size(), 1);
    }

    #[test]
    fn isolated_separator_vertex_joins_lightest_part() {
        // Disconnected: {0,1} path, lone vertex 2, lone vertex 3.
        let mut c = Coo::new(4, 4);
        c.push_sym(0, 1, 1.0);
        for i in 0..4 {
            c.push(i, i, 1.0);
        }
        let g = Graph::from_matrix(&c.to_csr());
        let mut part = DbbdPartition {
            k: 2,
            part_of: vec![0, 0, 1, SEPARATOR],
        };
        trim_separator(&g, &mut part);
        assert_eq!(
            part.part_of[3], 1,
            "lone vertex should join the lighter part"
        );
        assert!(is_valid(&g, &part));
    }

    #[test]
    fn cascading_trim_reaches_fixpoint() {
        // Path 0-1-2-3-4-5 with separator {2,3,4}; part0={0,1}, part1={5}.
        // First 3 is stuck (neighbours 2 and 4 are sep), but trimming 2
        // into part 0 and 4 into part 1 leaves 3 as the lone separator.
        let g = path_graph(6);
        let mut part = DbbdPartition {
            k: 2,
            part_of: vec![0, 0, SEPARATOR, SEPARATOR, SEPARATOR, 1],
        };
        trim_separator(&g, &mut part);
        assert!(is_valid(&g, &part));
        assert_eq!(
            part.separator_size(),
            1,
            "fixpoint should leave one separator"
        );
    }
}
