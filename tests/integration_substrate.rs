//! Cross-crate substrate tests: the direct solver, GMRES and supernodes
//! working together on realistic subdomains.

use matgen::{generate, MatrixKind, Scale};
use pdslin::subdomain::factor_domain;
use pdslin::{compute_partition, extract_dbbd, PartitionerKind};
use sparsekit::ops::residual_inf_norm;

fn one_subdomain() -> sparsekit::Csr {
    let a = generate(MatrixKind::DdsLinear, Scale::Test);
    let part = compute_partition(&a, 8, &PartitionerKind::Ngd);
    let sys = extract_dbbd(&a, part);
    sys.domains[0].d.clone()
}

#[test]
fn gmres_agrees_with_direct_solve() {
    let d = one_subdomain();
    let n = d.nrows();
    let fd = factor_domain(&d, 0.1).expect("LU");
    let b: Vec<f64> = (0..n).map(|i| ((i % 17) as f64) / 17.0 - 0.5).collect();
    let x_direct = fd.lu.solve(&b);
    let op = krylov::CsrOperator::new(&d);
    let m = krylov::JacobiPrecond::new(&d);
    let x_gmres = krylov::gmres(
        &op,
        &m,
        &b,
        None,
        &krylov::GmresConfig {
            restart: 80,
            max_iters: 2000,
            tol: 1e-12,
        },
    );
    assert!(x_gmres.converged, "GMRES residual {}", x_gmres.residual);
    for i in 0..n {
        assert!((x_gmres.x[i] - x_direct[i]).abs() < 1e-6);
    }
}

#[test]
fn supernodes_partition_the_columns() {
    let d = one_subdomain();
    let fd = factor_domain(&d, 0.1).expect("LU");
    let sn = slu::detect_supernodes(&fd.lu.l, 0);
    // Supernode ranges must tile 0..n.
    let n = fd.lu.n();
    let mut covered = 0usize;
    for s in 0..sn.count() {
        let r = sn.columns(s);
        assert_eq!(r.start, covered);
        covered = r.end;
        for j in r {
            assert_eq!(sn.sn_of[j], s);
        }
    }
    assert_eq!(covered, n);
    // A real factor should exhibit some nontrivial supernodes.
    assert!(sn.max_size() >= 2, "no supernodes found in a 3-D factor");
}

#[test]
fn generated_matrices_roundtrip_through_matrix_market() {
    let dir = std::env::temp_dir().join("pdslin_mm_roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let a = generate(MatrixKind::G3Circuit, Scale::Test);
    let p = dir.join("g3.mtx");
    sparsekit::io::write_matrix_market(&p, &a).unwrap();
    let b = sparsekit::io::read_matrix_market(&p).unwrap();
    assert_eq!(a, b);
}

#[test]
fn lu_with_refinement_beats_gmres_tolerance_on_hard_matrix() {
    // The indefinite cavity analogue is the hard case the paper targets.
    let a = generate(MatrixKind::Tdr190k, Scale::Test);
    let part = compute_partition(&a, 8, &PartitionerKind::Ngd);
    let sys = extract_dbbd(&a, part);
    let d = &sys.domains[0].d;
    let fd = factor_domain(d, 0.5).expect("LU of indefinite block");
    let b = vec![1.0; d.nrows()];
    let x = fd.lu.solve(&b);
    assert!(
        residual_inf_norm(d, &x, &b) < 1e-8,
        "threshold pivoting must stay stable"
    );
}

#[test]
fn single_seed_reach_equals_etree_fill_path() {
    // Gilbert's theorem (the §IV-A foundation): for an SPD-ordered
    // factor, the pattern of L⁻¹ e_i is exactly the e-tree path from i
    // to the root.
    let d = matgen::stencil::laplace2d(9, 9); // SPD ⇒ diagonal pivots
    let fd = factor_domain(&d, 0.01).expect("LU");
    // Elimination tree of the *ordered* pattern, already computed by
    // factor_domain in elimination coordinates.
    let parent = &fd.etree_parent;
    let n = d.nrows();
    let mut ws = slu::trisolve::SolveWorkspace::new(n);
    for seed in [0usize, 7, 33, n - 1] {
        let reach = slu::trisolve::solve_pattern(&fd.lu.l, &[seed], &mut ws);
        let mut reach_sorted = reach.clone();
        reach_sorted.sort_unstable();
        let mut path = slu::etree::path_to_root(parent, seed);
        path.sort_unstable();
        assert_eq!(
            reach_sorted, path,
            "reach of e_{seed} must equal its e-tree fill path"
        );
    }
}
