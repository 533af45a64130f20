//! Consistency of schema mappings (paper §5).
//!
//! `CONS(σ)`: given `M = (D_s, D_t, Σ)`, is `⟦M⟧ ≠ ∅`?
//!
//! | fragment | procedure | paper result |
//! |---|---|---|
//! | no data comparisons (σ ⊆ {⇓,⇒}) | [`EngineContext::consistent`](crate::EngineContext::consistent) via the type-fixpoint engine | EXPTIME-complete (Fact 5.1, Thm 5.2) |
//! | + nested-relational DTDs, σ ⊆ {⇓} | [`consistent_nr_ptime`] | PTIME (Fact 5.1) |
//! | with `=`/`≠` | [`consistent_bounded`](crate::bounded::consistent_bounded) semi-procedure | undecidable (Thm 5.4); NEXPTIME-complete over NR DTDs (Thm 5.5) |
//!
//! Consistency of compositions, `CONSCOMP` (Thm 7.1) and its n-fold form
//! (Prop 7.2), walks the same engine through the middle schemas:
//! [`EngineContext::composition_consistent`](crate::EngineContext::composition_consistent)
//! and
//! [`EngineContext::composition_chain_consistent`](crate::EngineContext::composition_chain_consistent).
//! The exact procedures run only through the context, which compiles each
//! schema's [`SatCache`] once and shares it; this module holds their
//! crate-private cores.
//!
//! The data-free procedure is justified by the all-equal-values reduction:
//! without `≠` anywhere and without equalities *restricting source
//! firings*, a mapping is consistent iff its value-stripped version is —
//! give every attribute the same constant and both witnesses carry over.

use crate::signature::Signature;
use crate::stds::Mapping;
use std::collections::BTreeSet;
use std::sync::Arc;
use xmlmap_patterns::sat::{BudgetExceeded, NrKernel, SatCache};
use xmlmap_patterns::Pattern;
use xmlmap_trees::Tree;

/// Result of a consistency check.
#[derive(Clone, Debug)]
pub enum ConsAnswer {
    /// The mapping is consistent; a witness pair is attached.
    Consistent {
        /// A source document with a solution.
        source: Tree,
        /// One of its solutions.
        target: Tree,
    },
    /// No source document has a solution.
    Inconsistent,
}

impl ConsAnswer {
    /// Boolean view.
    pub fn is_consistent(&self) -> bool {
        matches!(self, ConsAnswer::Consistent { .. })
    }
}

/// Why the exact procedures do not apply to a mapping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConsError {
    /// The mapping uses data comparisons that make consistency undecidable
    /// in general (Thm 5.4). Use the bounded semi-procedure.
    DataComparisons(Signature),
    /// The exploration budget was exhausted (the problem is
    /// EXPTIME-complete; adversarial inputs blow up).
    Budget(BudgetExceeded),
}

impl std::fmt::Display for ConsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConsError::DataComparisons(sig) => write!(
                f,
                "consistency is undecidable for {sig} (Thm 5.4); use consistent_bounded"
            ),
            ConsError::Budget(b) => write!(f, "{b}"),
        }
    }
}

impl std::error::Error for ConsError {}

/// Does the mapping qualify for the exact (data-free) procedure?
///
/// Requirements: no `≠` conditions anywhere, no `=` conditions on the
/// source, no repeated source variables. Target-side equality (explicit or
/// by reuse) is fine: the all-equal valuation satisfies it.
pub(crate) fn data_free(m: &Mapping) -> bool {
    m.stds.iter().all(|s| {
        s.source_cond.is_empty()
            && !s.source.features().repeated_variable
            && s.target_cond
                .iter()
                .all(|c| c.op == crate::cond::CompOp::Eq)
    })
}

/// The core of [`EngineContext::consistent`](crate::EngineContext::consistent)
/// over the source and target [`SatCache`]s (`src` compiled from
/// `m.source_dtd`, `tgt` from `m.target_dtd`).
///
/// Instead of one satisfiability run per candidate match set `J` (up to
/// `2^n`), a single joint run over *all* target patterns enumerates the
/// achievable target match sets `K`; the target side of `J` is satisfiable
/// iff some achievable `K ⊇ J` — its witness matches every pattern of `J`,
/// and conversely any tree matching all of `J` realises an exact match set
/// containing `J`.
pub(crate) fn consistent_cached(
    m: &Mapping,
    src: &SatCache,
    tgt: &SatCache,
    budget: usize,
) -> Result<ConsAnswer, ConsError> {
    if !data_free(m) {
        return Err(ConsError::DataComparisons(m.signature()));
    }
    let sources: Vec<&Pattern> = m.stds.iter().map(|s| &s.source).collect();
    let match_sets = src
        .achievable_match_sets(&sources, budget)
        .map_err(ConsError::Budget)?;

    // Try smaller match sets first: fewer target obligations.
    let mut ordered: Vec<&(BTreeSet<usize>, Tree)> = match_sets.iter().collect();
    ordered.sort_by_key(|(j, _)| j.len());

    // An achievable empty match set fires nothing: consistent iff the
    // target DTD has any conforming tree (skips the joint run below).
    if let Some((_, source_witness)) = ordered.first().filter(|(j, _)| j.is_empty()) {
        return Ok(
            match tgt
                .satisfiable_all(&[], budget)
                .map_err(ConsError::Budget)?
            {
                Some(target_witness) => ConsAnswer::Consistent {
                    source: source_witness.clone(),
                    target: target_witness,
                },
                None => ConsAnswer::Inconsistent, // target DTD unsatisfiable
            },
        );
    }

    let targets: Vec<&Pattern> = m.stds.iter().map(|s| &s.target).collect();
    let ks = tgt
        .achievable_match_sets(&targets, budget)
        .map_err(ConsError::Budget)?;
    for (j, source_witness) in ordered {
        if let Some((_, target_witness)) = ks.iter().find(|(k, _)| j.is_subset(k)) {
            return Ok(ConsAnswer::Consistent {
                source: source_witness.clone(),
                target: target_witness.clone(),
            });
        }
    }
    Ok(ConsAnswer::Inconsistent)
}

/// The minimal document of a nested-relational DTD: mandatory slots only
/// (`ℓ` and `ℓ⁺` get one child, `ℓ?`/`ℓ*` get none), all attributes equal.
pub(crate) fn minimal_nr_tree(dtd: &xmlmap_dtd::Dtd) -> Option<Tree> {
    let nr = dtd.nested_relational()?;
    fn fill(
        dtd: &xmlmap_dtd::Dtd,
        nr: &xmlmap_dtd::NestedRelationalView,
        tree: &mut Tree,
        at: xmlmap_trees::NodeId,
        label: &xmlmap_trees::Name,
    ) {
        for (child, mult) in nr.slots(label) {
            if matches!(mult, xmlmap_dtd::Mult::One | xmlmap_dtd::Mult::Plus) {
                let node = tree.add_child(
                    at,
                    child.clone(),
                    dtd.attrs(child)
                        .iter()
                        .map(|a| (a.clone(), xmlmap_trees::Value::str("d"))),
                );
                fill(dtd, nr, tree, node, child);
            }
        }
    }
    let mut tree = Tree::with_root_attrs(
        dtd.root().clone(),
        dtd.attrs(dtd.root())
            .iter()
            .map(|a| (a.clone(), xmlmap_trees::Value::str("d"))),
    );
    fill(dtd, &nr, &mut tree, Tree::ROOT, dtd.root());
    Some(tree)
}

/// `CONS(⇓)` over nested-relational DTDs — the PTIME case of Fact 5.1.
///
/// Over nested-relational DTDs, downward patterns are preserved under the
/// embedding of the minimal document into any conforming document, so the
/// match set `J₀` of the minimal document is contained in every achievable
/// match set. Consistency then reduces to: every std fired by the minimal
/// document has a satisfiable target side (satisfiability of a conjunction
/// over an NR DTD is satisfiability of each conjunct).
///
/// Returns `None` if the mapping is outside the fragment (non-NR DTDs,
/// horizontal axes, or data comparisons). A free function because it has
/// no form over the shared kernels of an
/// [`EngineContext`](crate::EngineContext) yet (ROADMAP item 16).
pub fn consistent_nr_ptime(m: &Mapping) -> Option<bool> {
    if !data_free(m) || m.signature().has_horizontal() {
        return None;
    }
    let t0 = minimal_nr_tree(&m.source_dtd)?;
    let tgt = NrKernel::new(&m.target_dtd)?;
    let mut ok = true;
    for s in &m.stds {
        if xmlmap_patterns::matches(&t0, &s.source) {
            match tgt.satisfiable(&s.target) {
                Some(sat) => ok &= sat,
                None => return None, // pattern outside the downward fragment
            }
        }
    }
    Some(ok)
}

/// Is some obligation set's target side `D_t ∧ {targets of K}` satisfiable?
/// One joint run over all targets answers every `K` at once (`K` is
/// satisfiable iff some achievable target match set contains it).
fn final_side_satisfiable(
    m: &Mapping,
    tgt: &SatCache,
    mut obligations: Vec<BTreeSet<usize>>,
    budget: usize,
) -> Result<bool, ConsError> {
    if obligations.is_empty() {
        return Ok(false);
    }
    obligations.sort_by_key(|k| k.len());
    if obligations[0].is_empty() {
        // Nothing fired: satisfiable iff the target DTD has any tree — and
        // if it has none, no other obligation set can do better.
        return Ok(tgt
            .satisfiable_all(&[], budget)
            .map_err(ConsError::Budget)?
            .is_some());
    }
    let targets: Vec<&Pattern> = m.stds.iter().map(|s| &s.target).collect();
    let ks = tgt
        .achievable_match_sets(&targets, budget)
        .map_err(ConsError::Budget)?;
    Ok(obligations
        .iter()
        .any(|k| ks.iter().any(|(kk, _)| k.is_subset(kk))))
}

/// The core of
/// [`EngineContext::composition_chain_consistent`](crate::EngineContext::composition_chain_consistent)
/// over one [`SatCache`] per schema: `schemas[0]` is compiled from
/// `chain[0].source_dtd` and `schemas[i]` from `chain[i - 1].target_dtd`,
/// the schema `Mᵢ` and `Mᵢ₊₁` share.
///
/// Walks the chain left to right, tracking which *sets of fired-target
/// obligations* are achievable at each schema. At the schema between `Mᵢ`
/// and `Mᵢ₊₁` the engine enumerates achievable match sets over the pattern
/// family (targets of `Mᵢ` ∪ sources of `Mᵢ₊₁`); a middle match set is
/// viable iff it covers some currently-achievable obligation set, and it
/// induces the obligation set for the next schema. The final side uses one
/// joint run over the last mapping's targets, as in [`consistent_cached`].
pub(crate) fn chain_consistent(
    chain: &[&Mapping],
    schemas: &[Arc<SatCache>],
    budget: usize,
) -> Result<bool, ConsError> {
    let (Some(first), Some(last)) = (chain.first(), chain.last()) else {
        return Ok(true); // the empty composition is the identity
    };
    assert_eq!(schemas.len(), chain.len() + 1, "one SatCache per schema");
    if !chain.iter().all(|m| data_free(m)) {
        let sig = chain.iter().map(|m| m.signature());
        return Err(ConsError::DataComparisons(
            sig.fold(Signature::CHILD_ONLY, Signature::union),
        ));
    }
    // Obligation sets achievable at the current schema boundary: the sets
    // of target patterns of the previous mapping that must hold.
    let sources: Vec<&Pattern> = first.stds.iter().map(|s| &s.source).collect();
    let js = schemas[0]
        .achievable_match_sets(&sources, budget)
        .map_err(ConsError::Budget)?;
    let mut obligations: Vec<BTreeSet<usize>> = js.iter().map(|(j, _)| j.clone()).collect();

    for (pair, mid) in chain.windows(2).zip(&schemas[1..]) {
        let (prev, m) = (pair[0], pair[1]);
        // Patterns at the shared middle schema: prev's targets (must hold
        // when fired) + m's sources (their exact match set drives m's
        // obligations).
        let n_prev = prev.stds.len();
        let mut middle: Vec<&Pattern> = prev.stds.iter().map(|s| &s.target).collect();
        middle.extend(m.stds.iter().map(|s| &s.source));
        let middle_sets = mid
            .achievable_match_sets(&middle, budget)
            .map_err(ConsError::Budget)?;
        let mut next: Vec<BTreeSet<usize>> = Vec::new();
        for (mset, _) in middle_sets.iter() {
            if !obligations.iter().any(|j| j.is_subset(mset)) {
                continue;
            }
            let k: BTreeSet<usize> = mset
                .iter()
                .filter(|&&x| x >= n_prev)
                .map(|&x| x - n_prev)
                .collect();
            if !next.contains(&k) {
                next.push(k);
            }
        }
        if next.is_empty() {
            return Ok(false);
        }
        obligations = next;
    }
    final_side_satisfiable(last, &schemas[chain.len()], obligations, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stds::Std;
    use crate::EngineContext;
    use xmlmap_dtd::Dtd;

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

    const BUDGET: usize = 500_000;

    fn consistent(m: &Mapping, budget: usize) -> Result<ConsAnswer, ConsError> {
        EngineContext::new().consistent(m, budget)
    }

    fn composition_consistent(
        m12: &Mapping,
        m23: &Mapping,
        budget: usize,
    ) -> Result<bool, ConsError> {
        EngineContext::new().composition_consistent(m12, m23, budget)
    }

    fn composition_chain_consistent(chain: &[&Mapping], budget: usize) -> Result<bool, ConsError> {
        EngineContext::new().composition_chain_consistent(chain, budget)
    }

    #[test]
    fn intro_inconsistency_example() {
        // §1: target changes to r → courses, students — course nodes can no
        // longer be children of the root, so the mapping is inconsistent
        // ... unless no source document fires the std. Here prof is starred
        // so the empty source works: the std never fires. Force firing with
        // prof+ to reproduce the paper's inconsistency.
        let m = mapping(
            "root r
             r -> prof+
             prof -> course
             course @ cno",
            "root r
             r -> courses
             courses -> course*
             course @ cno",
            &["r/prof/course(c) --> r/course(c)"],
        );
        let ans = consistent(&m, BUDGET).unwrap();
        assert!(!ans.is_consistent());

        // The corrected std (courses in between) is consistent.
        let fixed = mapping(
            "root r
             r -> prof+
             prof -> course
             course @ cno",
            "root r
             r -> courses
             courses -> course*
             course @ cno",
            &["r/prof/course(c) --> r/courses/course(c)"],
        );
        let ans = consistent(&fixed, BUDGET).unwrap();
        let ConsAnswer::Consistent { source, target } = &ans else {
            panic!("should be consistent");
        };
        assert!(fixed.is_solution(source, target));
    }

    #[test]
    fn vacuous_when_source_optional() {
        // Same shapes but prof*: empty source fires nothing ⇒ consistent.
        let m = mapping(
            "root r\nr -> prof*\nprof -> course\ncourse @ cno",
            "root r\nr -> courses\ncourses -> course*\ncourse @ cno",
            &["r/prof/course(c) --> r/course(c)"],
        );
        let ans = consistent(&m, BUDGET).unwrap();
        assert!(ans.is_consistent());
        let ConsAnswer::Consistent { source, target } = ans else {
            unreachable!()
        };
        assert!(m.is_solution(&source, &target));
        assert_eq!(source.size(), 1); // the empty document
    }

    #[test]
    fn horizontal_consistency() {
        // Source forces a before b; target std demands b ->* a: the target
        // DTD fixes the order a, b, so the mapping is inconsistent whenever
        // the source fires — and the source always fires.
        let m = mapping(
            "root r\nr -> a, b\na @ v\nb @ v",
            "root r\nr -> a, b\na @ v\nb @ v",
            &["r[a(x) -> b(y)] --> r[b(y) ->* a(x)]"],
        );
        assert!(!consistent(&m, BUDGET).unwrap().is_consistent());

        let ok = mapping(
            "root r\nr -> a, b\na @ v\nb @ v",
            "root r\nr -> a, b\na @ v\nb @ v",
            &["r[a(x) -> b(y)] --> r[a(x) ->* b(y)]"],
        );
        assert!(consistent(&ok, BUDGET).unwrap().is_consistent());
    }

    #[test]
    fn rejects_data_comparisons() {
        let m = mapping(
            "root r\nr -> a*\na @ v",
            "root r\nr -> b*\nb @ w",
            &["r[a(x), a(y)] ; x != y --> r/b(x)"],
        );
        assert!(matches!(
            consistent(&m, BUDGET),
            Err(ConsError::DataComparisons(_))
        ));
    }

    #[test]
    fn nr_ptime_agrees_with_general() {
        let cases = [
            (
                "root r\nr -> a, b*\na @ v",
                "root r\nr -> c\nc @ w",
                vec!["r/a(x) --> r/c(x)"],
                true,
            ),
            (
                // source a is mandatory, target needs an impossible shape
                "root r\nr -> a\na @ v",
                "root r\nr -> c\nc @ w",
                vec!["r/a(x) --> r/c(x)/c(y)"],
                false,
            ),
            (
                // fired only if optional branch present ⇒ still consistent
                "root r\nr -> a?\na @ v",
                "root r\nr -> c\nc @ w",
                vec!["r/a(x) --> r/d(x)"],
                true,
            ),
        ];
        for (ds, dt, stds, expect) in cases {
            let m = mapping(ds, dt, &stds);
            let fast = consistent_nr_ptime(&m).expect("inside fragment");
            let slow = consistent(&m, BUDGET).unwrap().is_consistent();
            assert_eq!(fast, slow, "{stds:?}");
            assert_eq!(fast, expect, "{stds:?}");
        }
    }

    #[test]
    fn nr_ptime_outside_fragment() {
        // Horizontal axis: not applicable.
        let m = mapping(
            "root r\nr -> a, b",
            "root r\nr -> a, b",
            &["r[a -> b] --> r[a]"],
        );
        assert!(consistent_nr_ptime(&m).is_none());
        // Non-NR DTD (disjunction).
        let m2 = mapping("root r\nr -> a|b", "root r\nr -> c", &["r/a --> r/c"]);
        assert!(consistent_nr_ptime(&m2).is_none());
    }

    #[test]
    fn chain_consistency_matches_pairwise() {
        let m12 = mapping("root r\nr -> a", "root m\nm -> b", &["r/a --> m/b"]);
        let m23 = mapping("root m\nm -> b", "root w\nw -> c", &["m/b --> w/c"]);
        let m34 = mapping("root w\nw -> c", "root z\nz -> d?", &["w/c --> z/d"]);
        assert!(composition_chain_consistent(&[&m12, &m23, &m34], BUDGET).unwrap());
        // Break the last link: the fired obligation has no satisfiable target.
        let m34bad = mapping("root w\nw -> c", "root z\nz -> d?", &["w/c --> z/d/d"]);
        assert!(!composition_chain_consistent(&[&m12, &m23, &m34bad], BUDGET).unwrap());
        // Pairwise special case agrees with composition_consistent.
        assert_eq!(
            composition_chain_consistent(&[&m12, &m23], BUDGET).unwrap(),
            composition_consistent(&m12, &m23, BUDGET).unwrap()
        );
        assert_eq!(
            composition_chain_consistent(&[&m23, &m34bad], BUDGET).unwrap(),
            composition_consistent(&m23, &m34bad, BUDGET).unwrap()
        );
        // Length-one chain = plain consistency.
        assert_eq!(
            composition_chain_consistent(&[&m12], BUDGET).unwrap(),
            consistent(&m12, BUDGET).unwrap().is_consistent()
        );
        // Empty chain is trivially consistent.
        assert!(composition_chain_consistent(&[], BUDGET).unwrap());
    }

    #[test]
    fn conscomp_basic() {
        // M12: a → b; M23: b → c. Composition consistent.
        let m12 = mapping("root r\nr -> a", "root r\nr -> b", &["r/a --> r/b"]);
        let m23 = mapping("root r\nr -> b", "root r\nr -> c", &["r/b --> r/c"]);
        assert!(composition_consistent(&m12, &m23, BUDGET).unwrap());

        // Incompatible middle: M12 needs b at the root's child, M23's
        // source DTD is the same, but M23 maps b to an impossible target.
        let m23bad = mapping(
            "root r\nr -> b",
            "root r\nr -> c",
            &["r/b --> r/c/c"], // c below c is impossible: c → ε
        );
        assert!(!composition_consistent(&m12, &m23bad, BUDGET).unwrap());
    }

    #[test]
    fn conscomp_consistent_parts_inconsistent_whole() {
        // M12 forces the middle to contain b1; M23 fires on b1 and demands
        // an impossible final target. Each mapping alone is consistent
        // (M23's source b1 is optional), but the composition is not.
        let m12 = mapping("root r\nr -> a", "root m\nm -> b1", &["r/a --> m/b1"]);
        let m23 = mapping("root m\nm -> b1?", "root w\nw -> c?", &["m/b1 --> w/c/c"]);
        assert!(consistent(&m12, BUDGET).unwrap().is_consistent());
        assert!(consistent(&m23, BUDGET).unwrap().is_consistent());
        assert!(!composition_consistent(&m12, &m23, BUDGET).unwrap());
    }
}
