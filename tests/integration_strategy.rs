//! Integration tests of the automatic strategy selector (`--strategy
//! auto`): determinism across repeat calls and threads, pinned
//! per-family choices for the whole Table-I suite at test scale, and
//! the rule that explicit CLI flags always beat the selector.

use matgen::{generate, MatrixKind, Scale};
use pdslin::{
    sample_features, select_strategy, PartitionerKind, RhsOrdering, Strategy, WeightScheme,
};
use pdslin_cli::{apply_auto_strategy, parse_args};

/// Canonical comparable form of a choice (PartitionerKind carries a
/// config struct without `PartialEq`, so compare through labels).
fn signature(s: &Strategy) -> String {
    format!(
        "{}|{}|{:?}|{}",
        s.partitioner.label(),
        s.weights.label(),
        s.ordering,
        s.block_size
    )
}

#[test]
fn selector_is_deterministic_across_calls() {
    for kind in MatrixKind::ALL {
        let a = generate(kind, Scale::Test);
        let first = signature(&select_strategy(&a));
        for _ in 0..2 {
            assert_eq!(
                signature(&select_strategy(&a)),
                first,
                "{} strategy drifted between calls",
                kind.name()
            );
        }
        // The feature vector itself is deterministic too.
        let f1 = sample_features(&a);
        let f2 = sample_features(&a);
        assert_eq!(format!("{f1:?}"), format!("{f2:?}"), "{}", kind.name());
    }
}

#[test]
fn selector_is_deterministic_across_threads() {
    for kind in [
        MatrixKind::Tdr190k,
        MatrixKind::Matrix211,
        MatrixKind::G3Circuit,
    ] {
        let main_sig = signature(&select_strategy(&generate(kind, Scale::Test)));
        let sigs: Vec<String> = std::thread::scope(|sc| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    sc.spawn(move || signature(&select_strategy(&generate(kind, Scale::Test))))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for s in sigs {
            assert_eq!(
                s,
                main_sig,
                "{} strategy differs across threads",
                kind.name()
            );
        }
    }
}

/// Pins the selector's choice for every Table-I family at test scale.
/// These are regression anchors: a threshold change that silently flips
/// a family must show up here, not in a benchmark diff.
#[test]
fn selector_covers_every_family_with_pinned_choices() {
    for kind in MatrixKind::ALL {
        let a = generate(kind, Scale::Test);
        let s = select_strategy(&a);
        let is_rhb = matches!(s.partitioner, PartitionerKind::Rhb(_));
        let name = kind.name();
        match kind {
            // Dense symmetric cavities: RHB, unit weights, hypergraph
            // ordering, small blocks (≥20 nnz/row).
            MatrixKind::Tdr190k | MatrixKind::Tdr455k | MatrixKind::DdsQuad => {
                assert!(is_rhb, "{name}: expected RHB");
                assert_eq!(s.weights, WeightScheme::Unit, "{name}");
                assert_eq!(s.ordering, RhsOrdering::Hypergraph { tau: None }, "{name}");
                assert_eq!(s.block_size, 30, "{name}");
            }
            // Linear-element cavity: same shape, but sparse enough for
            // the larger default block.
            MatrixKind::DdsLinear => {
                assert!(is_rhb, "{name}: expected RHB");
                assert_eq!(s.weights, WeightScheme::Unit, "{name}");
                assert_eq!(s.ordering, RhsOrdering::Hypergraph { tau: None }, "{name}");
                assert_eq!(s.block_size, 60, "{name}");
            }
            // Unsymmetric fusion matrix with a wide coefficient range:
            // NGD + value weights + postorder.
            MatrixKind::Matrix211 => {
                assert!(
                    matches!(s.partitioner, PartitionerKind::Ngd),
                    "{name}: expected NGD"
                );
                assert_eq!(s.weights, WeightScheme::ValueScaled, "{name}");
                assert_eq!(s.ordering, RhsOrdering::Postorder, "{name}");
                assert_eq!(s.block_size, 30, "{name}");
            }
            // Circuit with quasi-dense rails: skewed rows trigger the
            // sparsified hypergraph ordering, rails trigger value
            // weights.
            MatrixKind::Asic680ks => {
                assert!(is_rhb, "{name}: expected RHB");
                assert_eq!(s.weights, WeightScheme::ValueScaled, "{name}");
                assert_eq!(
                    s.ordering,
                    RhsOrdering::Hypergraph { tau: Some(0.4) },
                    "{name}"
                );
                assert_eq!(s.block_size, 60, "{name}");
            }
            // Power grid: sparse symmetric, RGB ordering; small n at
            // test scale keeps the block small.
            MatrixKind::G3Circuit => {
                assert!(is_rhb, "{name}: expected RHB");
                assert_eq!(s.weights, WeightScheme::Unit, "{name}");
                assert!(
                    matches!(s.ordering, RhsOrdering::Rgb),
                    "{name}: expected RGB, got {:?}",
                    s.ordering
                );
                assert_eq!(s.block_size, 30, "{name}");
            }
        }
        assert!(!s.rationale.is_empty(), "{name}: empty rationale");
    }
}

#[test]
fn cli_explicit_flags_override_auto_strategy() {
    let a = generate(MatrixKind::Matrix211, Scale::Test);
    let argv = [
        "solve",
        "--matrix",
        "matrix211",
        "--strategy",
        "auto",
        "--ordering",
        "natural",
        "--block-size",
        "45",
    ];
    let args = parse_args(argv.iter().map(|s| s.to_string())).unwrap();
    let mut cfg = pdslin::PdslinConfig {
        rhs_ordering: RhsOrdering::Natural,
        block_size: 45,
        ..Default::default()
    };
    let s = apply_auto_strategy(&args, &a, &mut cfg);
    // The raw selector choice for matrix211 is postorder + B = 30...
    assert_eq!(s.ordering, RhsOrdering::Postorder);
    assert_eq!(s.block_size, 30);
    // ...but the explicit flags must survive untouched.
    assert_eq!(cfg.rhs_ordering, RhsOrdering::Natural);
    assert_eq!(cfg.block_size, 45);
    // Fields the user did not pin take the selector's choice.
    assert!(matches!(cfg.partitioner, PartitionerKind::Ngd));
    assert_eq!(cfg.weights, WeightScheme::ValueScaled);
}

#[test]
fn cli_auto_without_overrides_applies_everything() {
    let a = generate(MatrixKind::G3Circuit, Scale::Test);
    let argv = ["solve", "--matrix", "G3_circuit", "--strategy", "auto"];
    let args = parse_args(argv.iter().map(|s| s.to_string())).unwrap();
    let mut cfg = pdslin::PdslinConfig::default();
    let s = apply_auto_strategy(&args, &a, &mut cfg);
    assert_eq!(signature(&s), {
        let direct = select_strategy(&a);
        signature(&direct)
    });
    assert!(matches!(cfg.rhs_ordering, RhsOrdering::Rgb));
    assert!(matches!(cfg.partitioner, PartitionerKind::Rhb(_)));
    assert_eq!(cfg.block_size, 30);
}
