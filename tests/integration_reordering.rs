//! Cross-crate tests of the §IV right-hand-side reordering machinery.

use matgen::{generate, MatrixKind, Scale};
use pdslin::interface::ehat_columns_pivot;
use pdslin::rhs_order::{column_reaches, order_columns_precomputed, padding_of_order};
use pdslin::subdomain::factor_domain;
use pdslin::{compute_partition, extract_dbbd, PartitionerKind, RhsOrdering};
use pdslin_bench::g_solve_experiment;
use slu::trisolve::SolveWorkspace;

fn factored(kind: MatrixKind) -> (pdslin::DbbdSystem, Vec<pdslin::subdomain::FactoredDomain>) {
    let a = generate(kind, Scale::Test);
    let part = compute_partition(&a, 8, &PartitionerKind::Ngd);
    let sys = extract_dbbd(&a, part);
    let factors: Vec<_> = sys
        .domains
        .iter()
        .map(|d| factor_domain(&d.d, 0.1).expect("LU"))
        .collect();
    (sys, factors)
}

#[test]
fn orderings_are_permutations() {
    let (sys, factors) = factored(MatrixKind::Tdr190k);
    let dom = &sys.domains[0];
    let fd = &factors[0];
    let mut ws = SolveWorkspace::new(fd.lu.n());
    let cols = ehat_columns_pivot(fd, dom);
    let reaches = column_reaches(&cols, &fd.lu.l, &mut ws);
    for ord in [
        RhsOrdering::Natural,
        RhsOrdering::Postorder,
        RhsOrdering::Hypergraph { tau: Some(0.4) },
        RhsOrdering::Hypergraph { tau: None },
    ] {
        let order = order_columns_precomputed(&cols, &reaches, fd.lu.n(), 16, ord);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..cols.len()).collect::<Vec<_>>(),
            "{:?}",
            ord.label()
        );
    }
}

#[test]
fn reordered_padding_beats_natural_on_average() {
    // Under the approximate-minimum-degree subdomain ordering the §IV-A
    // postorder heuristic pads more than the natural order on these two
    // kinds (EXPERIMENTS.md, Fig. 4); the hypergraph ordering still beats
    // both everywhere.
    let post_loses = [MatrixKind::Tdr190k, MatrixKind::G3Circuit];
    for kind in MatrixKind::ALL {
        let (sys, factors) = factored(kind);
        let mut nat = 0u64;
        let mut post = 0u64;
        let mut hyper = 0u64;
        for (dom, fd) in sys.domains.iter().zip(&factors) {
            let n = fd.lu.n();
            let mut ws = SolveWorkspace::new(n);
            let cols = ehat_columns_pivot(fd, dom);
            let reaches = column_reaches(&cols, &fd.lu.l, &mut ws);
            for (acc, ord) in [
                (&mut nat, RhsOrdering::Natural),
                (&mut post, RhsOrdering::Postorder),
                (&mut hyper, RhsOrdering::Hypergraph { tau: Some(0.4) }),
            ] {
                let order = order_columns_precomputed(&cols, &reaches, n, 32, ord);
                *acc += padding_of_order(&reaches, n, &order, 32).0;
            }
        }
        if !post_loses.contains(&kind) {
            assert!(
                post < nat,
                "{kind:?}: postorder {post} should beat natural {nat}"
            );
        }
        assert!(
            hyper < nat,
            "{kind:?}: hypergraph {hyper} should beat natural {nat}"
        );
        assert!(
            hyper <= post,
            "{kind:?}: hypergraph {hyper} should be ≤ postorder {post}"
        );
    }
}

#[test]
fn symbolic_padding_matches_numeric_accounting() {
    let (sys, factors) = factored(MatrixKind::DdsQuad);
    let dom = &sys.domains[0];
    let fd = &factors[0];
    let n = fd.lu.n();
    let mut ws = SolveWorkspace::new(n);
    let cols = ehat_columns_pivot(fd, dom);
    let reaches = column_reaches(&cols, &fd.lu.l, &mut ws);
    for b in [8usize, 32, 100] {
        let order = order_columns_precomputed(&cols, &reaches, n, b, RhsOrdering::Natural);
        let (padded_sym, true_sym) = padding_of_order(&reaches, n, &order, b);
        let (stats, _, _) = g_solve_experiment(fd, dom, b, RhsOrdering::Natural);
        assert_eq!(padded_sym, stats.padded_zeros, "padding mismatch at B={b}");
        assert_eq!(true_sym, stats.true_nnz, "true-nnz mismatch at B={b}");
    }
}

#[test]
fn padding_is_monotone_in_block_size_for_natural_order() {
    let (sys, factors) = factored(MatrixKind::Tdr190k);
    let dom = &sys.domains[1];
    let fd = &factors[1];
    let n = fd.lu.n();
    let mut ws = SolveWorkspace::new(n);
    let cols = ehat_columns_pivot(fd, dom);
    let reaches = column_reaches(&cols, &fd.lu.l, &mut ws);
    let order: Vec<usize> = (0..cols.len()).collect();
    let mut last = 0u64;
    for b in [1usize, 2, 4, 8, 16, 32] {
        let (padded, _) = padding_of_order(&reaches, n, &order, b);
        if b == 1 {
            assert_eq!(padded, 0, "B=1 must be padding-free");
        }
        assert!(
            padded >= last,
            "padding decreased from {last} to {padded} at B={b}"
        );
        last = padded;
    }
}

#[test]
fn quasi_dense_filter_speeds_up_ordering_without_quality_collapse() {
    let (sys, factors) = factored(MatrixKind::Tdr190k);
    let mut pad_none = 0u64;
    let mut pad_filtered = 0u64;
    for (dom, fd) in sys.domains.iter().zip(&factors) {
        let n = fd.lu.n();
        let mut ws = SolveWorkspace::new(n);
        let cols = ehat_columns_pivot(fd, dom);
        let reaches = column_reaches(&cols, &fd.lu.l, &mut ws);
        let o1 = order_columns_precomputed(
            &cols,
            &reaches,
            n,
            32,
            RhsOrdering::Hypergraph { tau: None },
        );
        let o2 = order_columns_precomputed(
            &cols,
            &reaches,
            n,
            32,
            RhsOrdering::Hypergraph { tau: Some(0.4) },
        );
        pad_none += padding_of_order(&reaches, n, &o1, 32).0;
        pad_filtered += padding_of_order(&reaches, n, &o2, 32).0;
    }
    // Quality must stay within 25% of the unfiltered ordering (§V-B(c):
    // "largely independent of the threshold").
    assert!(
        (pad_filtered as f64) < 1.25 * pad_none as f64 + 100.0,
        "filtered padding {pad_filtered} vs unfiltered {pad_none}"
    );
}
