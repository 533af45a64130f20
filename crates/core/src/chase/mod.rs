//! Canonical-solution construction (the chase).
//!
//! The paper's §9 names "constructing target instances" as the key next
//! step for XML data exchange; for the tractable class the paper builds
//! (fully-specified stds over nested-relational target DTDs, the same
//! class that is closed under composition in §8) the classic chase works:
//!
//! 1. for every std and every firing, instantiate the target pattern into
//!    the partial document — children in **repeatable** slots (`*`/`+`) get
//!    fresh nodes per firing, children in **non-repeatable** slots (`ℓ`,
//!    `ℓ?`) are unified with the existing node (labelled nulls unify with
//!    anything, constants only with themselves);
//! 2. complete the document: missing mandatory children are added with
//!    fresh-null attributes, children are ordered by the production's slot
//!    order;
//! 3. check the deferred `≠` obligations.
//!
//! Failure at any step means **no** solution exists (the chase only merges
//! when the DTD forces it), so [`canonical_solution`] doubles as a
//! per-document solution-existence check — the semantics behind absolute
//! consistency.
//!
//! Two engines implement these steps:
//!
//! * [`compiled`] — the production engine: firings enumerated through the
//!   compiled pattern kernel, std by std, unification over a union-find of labelled nulls with interned
//!   constants, and document construction in a flat `(parent, slot)` arena
//!   completed by a single ordered sweep. Its per-mapping tables live in a
//!   reusable [`ChaseCache`]. The union-find and the arena form one
//!   retractable chase arena (`arena`), which the streaming chase and the
//!   incremental [`delta`] chase drive too.
//! * [`mod@reference`] — the original interpretive implementation, kept
//!   verbatim as the differential-testing oracle (see
//!   `tests/chase_equiv.rs`).
//!
//! The two agree on the success/failure [`ChaseError`] variant and produce
//! isomorphic solutions up to null renaming; only the labels of the
//! invented nulls differ.

mod arena;
pub mod compiled;
pub mod delta;
pub mod reference;

pub(crate) use compiled::canonical_solution_cached;
pub use compiled::{canonical_solution, ChaseCache};
pub use delta::{parse_updates, DeltaPlan, DeltaStats, IncrementalChase, TouchProfile, Update};

/// Why the chase failed — equivalently, why `source` has no solution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaseError {
    /// The source document does not conform to the source DTD.
    SourceNotConforming,
    /// The mapping is outside the chaseable fragment.
    OutsideFragment(String),
    /// Two constants were forced into the same attribute slot.
    ValueConflict(String),
    /// A target pattern cannot embed into the target DTD.
    NotEmbeddable(String),
    /// A non-repeatable slot would need two or more children.
    MultiplicityConflict(String),
    /// A target `≠` condition is violated by forced equalities.
    InequalityViolated(String),
    /// An equality condition equates two different source constants.
    EqualityUnsatisfiable(String),
}

impl std::fmt::Display for ChaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaseError::SourceNotConforming => write!(f, "source does not conform"),
            ChaseError::OutsideFragment(s) => write!(f, "outside the chaseable fragment: {s}"),
            ChaseError::ValueConflict(s) => write!(f, "value conflict: {s}"),
            ChaseError::NotEmbeddable(s) => write!(f, "target pattern not embeddable: {s}"),
            ChaseError::MultiplicityConflict(s) => write!(f, "multiplicity conflict: {s}"),
            ChaseError::InequalityViolated(s) => write!(f, "≠ condition violated: {s}"),
            ChaseError::EqualityUnsatisfiable(s) => write!(f, "= condition unsatisfiable: {s}"),
        }
    }
}

impl std::error::Error for ChaseError {}

#[cfg(test)]
mod tests {
    use super::{canonical_solution, ChaseError};
    use crate::stds::{Mapping, Std};
    use crate::EngineContext;
    use xmlmap_dtd::Dtd;
    use xmlmap_trees::{tree, Tree, Value};

    fn dtd(s: &str) -> Dtd {
        xmlmap_dtd::parse(s).unwrap()
    }

    fn mapping(ds: &str, dt: &str, stds: &[&str]) -> Mapping {
        Mapping::new(
            dtd(ds),
            dtd(dt),
            stds.iter().map(|s| Std::parse(s).unwrap()).collect(),
        )
    }

    #[test]
    fn basic_copy_mapping() {
        let m = mapping(
            "root r\nr -> a*\na @ v",
            "root r\nr -> b*\nb @ w",
            &["r/a(x) --> r/b(x)"],
        );
        let src = tree!("r" [ "a"("v" = "1"), "a"("v" = "2") ]);
        let sol = canonical_solution(&m, &src).unwrap();
        assert!(m.is_solution(&src, &sol));
        assert_eq!(sol.children(Tree::ROOT).len(), 2);
    }

    #[test]
    fn completion_fills_mandatory_nodes() {
        // Even with no firings, the target skeleton must exist.
        let m = mapping(
            "root r\nr -> a*\na @ v",
            "root r\nr -> b, c?\nb -> d\nd @ w",
            &["r/a(x) --> r/b/d(x)"],
        );
        let sol = canonical_solution(&m, &tree!("r")).unwrap();
        assert!(m.target_dtd.conforms(&sol));
        assert_eq!(sol.size(), 3); // r, b, d — d's attribute is a null
        let d_node = sol.children(sol.children(Tree::ROOT)[0])[0];
        assert!(sol.attr(d_node, "w").unwrap().is_null());

        // With a firing, the shared value lands in d.
        let src = tree!("r"["a"("v" = "42")]);
        let sol = canonical_solution(&m, &src).unwrap();
        let d_node = sol.children(sol.children(Tree::ROOT)[0])[0];
        assert_eq!(sol.attr(d_node, "w"), Some(&Value::str("42")));
        assert!(m.is_solution(&src, &sol));
    }

    #[test]
    fn rigid_conflict_has_no_solution() {
        let m = mapping(
            "root r\nr -> a*\na @ v",
            "root r\nr -> b\nb @ w",
            &["r/a(x) --> r/b(x)"],
        );
        let src = tree!("r" [ "a"("v" = "1"), "a"("v" = "2") ]);
        let err = canonical_solution(&m, &src).unwrap_err();
        assert!(matches!(err, ChaseError::ValueConflict(_)), "{err}");
        // Agrees with the bounded oracle.
        assert!(EngineContext::new().solution_exists(&m, &src, 4).is_none());
        // One value is fine.
        let src1 = tree!("r" [ "a"("v" = "1"), "a"("v" = "1") ]);
        let sol = canonical_solution(&m, &src1).unwrap();
        assert!(m.is_solution(&src1, &sol));
    }

    #[test]
    fn repeatable_slots_keep_tuples_separate() {
        let m = mapping(
            "root r\nr -> a*\na @ v, w",
            "root r\nr -> b*\nb -> c\nb @ x\nc @ y",
            &["r/a(x, y) --> r/b(x)/c(y)"],
        );
        let src = tree! {
            "r" [ "a"("v" = "1", "w" = "one"), "a"("v" = "1", "w" = "uno") ]
        };
        let sol = canonical_solution(&m, &src).unwrap();
        assert!(m.is_solution(&src, &sol));
        // Two b nodes even though their x values coincide: the chase only
        // merges when the DTD forces it.
        assert_eq!(sol.children(Tree::ROOT).len(), 2);
    }

    #[test]
    fn existential_variables_get_nulls() {
        let m = mapping(
            "root r\nr -> a*\na @ v",
            "root r\nr -> b*\nb @ x, y",
            &["r/a(x) --> r/b(x, z)"],
        );
        let src = tree!("r"["a"("v" = "1")]);
        let sol = canonical_solution(&m, &src).unwrap();
        let b = sol.children(Tree::ROOT)[0];
        assert_eq!(sol.attr(b, "x"), Some(&Value::str("1")));
        assert!(sol.attr(b, "y").unwrap().is_null());
        assert!(m.is_solution(&src, &sol));
    }

    #[test]
    fn target_equalities_propagate() {
        let m = mapping(
            "root r\nr -> a*\na @ v",
            "root r\nr -> b*\nb @ x, y",
            &["r/a(x) --> r[b(x, z)] ; z = x"],
        );
        let src = tree!("r"["a"("v" = "7")]);
        let sol = canonical_solution(&m, &src).unwrap();
        let b = sol.children(Tree::ROOT)[0];
        assert_eq!(sol.attr(b, "y"), Some(&Value::str("7")));
        assert!(m.is_solution(&src, &sol));
    }

    #[test]
    fn target_inequality_violation_detected() {
        let m = mapping(
            "root r\nr -> a\na @ v",
            "root r\nr -> b\nb @ x, y",
            &["r/a(x) --> r[b(x, z)] ; z = x, z != x"],
        );
        let src = tree!("r"["a"("v" = "7")]);
        let err = canonical_solution(&m, &src).unwrap_err();
        assert!(matches!(err, ChaseError::InequalityViolated(_)), "{err}");
    }

    #[test]
    fn satisfiable_inequality_passes() {
        let m = mapping(
            "root r\nr -> a\na @ v",
            "root r\nr -> b\nb @ x, y",
            &["r/a(x) --> r[b(x, z)] ; z != x"],
        );
        let src = tree!("r"["a"("v" = "7")]);
        let sol = canonical_solution(&m, &src).unwrap();
        assert!(m.is_solution(&src, &sol));
    }

    #[test]
    fn unembeddable_pattern() {
        let m = mapping(
            "root r\nr -> a\na @ v",
            "root r\nr -> b",
            &["r/a(x) --> r/nosuch(x)"],
        );
        let src = tree!("r"["a"("v" = "1")]);
        assert!(matches!(
            canonical_solution(&m, &src),
            Err(ChaseError::NotEmbeddable(_))
        ));
    }

    #[test]
    fn outside_fragment_errors() {
        let m = mapping(
            "root r\nr -> a\na @ v",
            "root r\nr -> b*\nb @ w",
            &["r/a(x) --> r//b(x)"],
        );
        assert!(matches!(
            canonical_solution(&m, &tree!("r"["a"("v" = "1")])),
            Err(ChaseError::OutsideFragment(_))
        ));
        let m2 = mapping(
            "root r\nr -> a\na @ v",
            "root r\nr -> b|c",
            &["r/a(x) --> r/b"],
        );
        assert!(matches!(
            canonical_solution(&m2, &tree!("r"["a"("v" = "1")])),
            Err(ChaseError::OutsideFragment(_))
        ));
    }

    #[test]
    fn source_conditions_filter_firings() {
        let m = mapping(
            "root r\nr -> a, a\na @ v",
            "root r\nr -> b*\nb @ w",
            &["r[a(x) -> a(y)] ; x != y --> r/b(x)"],
        );
        // Equal values: std does not fire; canonical solution is skeletal.
        let src_eq = tree!("r" [ "a"("v" = "1"), "a"("v" = "1") ]);
        let sol = canonical_solution(&m, &src_eq).unwrap();
        assert_eq!(sol.size(), 1);
        // Distinct values: fires once.
        let src_ne = tree!("r" [ "a"("v" = "1"), "a"("v" = "2") ]);
        let sol = canonical_solution(&m, &src_ne).unwrap();
        assert_eq!(sol.size(), 2);
        assert!(m.is_solution(&src_ne, &sol));
    }
}
