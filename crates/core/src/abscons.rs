//! Absolute consistency (paper §6).
//!
//! `ABSCONS(σ)`: does *every* `T ⊨ D_s` have a solution?
//!
//! Three procedures:
//!
//! * Prop 6.1 (Π₂ᵖ),
//!   [`EngineContext::abscons_structural`](crate::EngineContext::abscons_structural):
//!   exact for value-free (SM°) mappings — every achievable source match
//!   set must have a satisfiable target side. *Not* valid with variables:
//!   the paper's §6 example (`r → a*` to `r → a` with `r/a(x) → r/a(x)`)
//!   is structurally fine but absolutely inconsistent, because two
//!   distinct values cannot share one target slot.
//! * Thm 6.3 (PTIME): nested-relational DTDs + fully-specified stds, via
//!   the rigidity analysis (DESIGN.md §3.4) over each DTD's [`NrKernel`].
//!   [`EngineContext::abscons`](crate::EngineContext::abscons) runs it over
//!   the kernels of the shared [`SatCache`]s before falling back to
//!   Prop 6.1; [`abscons_nr_ptime`] compiles fresh kernels per call.
//!   Reconstructed from the theorem statement (the conference paper omits
//!   proofs); property-tested against the bounded oracle.
//! * [`crate::bounded::abscons_violation_bounded`] — brute-force reference
//!   oracle / semi-procedure for the general case (in EXPSPACE,
//!   NEXPTIME-hard; Thm 6.2).
//!
//! The exact procedures' cores here are crate-private; the context
//! methods are their one public entry point.

use crate::stds::Mapping;
use std::collections::BTreeMap;
use xmlmap_patterns::sat::{BudgetExceeded, NrKernel, SatCache};
use xmlmap_patterns::{LabelTest, ListItem, Pattern, Var};
use xmlmap_trees::{Name, Tree};

/// Result of an absolute-consistency check.
#[derive(Clone, Debug)]
pub enum AbsConsAnswer {
    /// Every source document has a solution.
    AbsolutelyConsistent,
    /// Some source document has no solution.
    Violated {
        /// A source document witnessing the violation, when the procedure
        /// can produce one.
        witness: Option<Tree>,
        /// Human-readable explanation of the violated condition.
        reason: String,
    },
}

impl AbsConsAnswer {
    /// Boolean view.
    pub fn holds(&self) -> bool {
        matches!(self, AbsConsAnswer::AbsolutelyConsistent)
    }
}

/// The exact procedure that decided an ABSCONS question (see
/// `EngineContext::abscons`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbsConsProcedure {
    /// Thm 6.3: [`abscons_nr_ptime`].
    NestedRelational,
    /// Prop 6.1:
    /// [`EngineContext::abscons_structural`](crate::EngineContext::abscons_structural).
    Structural,
}

impl AbsConsProcedure {
    /// The verdict line for `answer` as this procedure decided it — what
    /// `xmlmap abscons` prints and a batch `abscons` job reports.
    pub fn detail(self, answer: &AbsConsAnswer) -> String {
        match (answer, self) {
            (AbsConsAnswer::Violated { reason, .. }, _) => {
                format!("NOT absolutely consistent: {reason}")
            }
            (AbsConsAnswer::AbsolutelyConsistent, AbsConsProcedure::NestedRelational) => {
                "absolutely consistent (Thm 6.3 fragment)".to_string()
            }
            (AbsConsAnswer::AbsolutelyConsistent, AbsConsProcedure::Structural) => {
                "absolutely consistent (SM° structural, Prop 6.1)".to_string()
            }
        }
    }
}

/// The core of
/// [`EngineContext::abscons_structural`](crate::EngineContext::abscons_structural)
/// over the source and target [`SatCache`]s.
///
/// *Every* achievable source match set `J` must have a satisfiable target
/// side. One joint run over all target patterns answers every `J` at once:
/// `J`'s side is satisfiable iff some achievable target match set `K ⊇ J`
/// (its witness matches all of `J`; conversely a tree matching all of `J`
/// realises an exact match set containing `J`).
pub(crate) fn abscons_structural_cached(
    m: &Mapping,
    src: &SatCache,
    tgt: &SatCache,
    budget: usize,
) -> Result<Result<AbsConsAnswer, BudgetExceeded>, String> {
    for s in &m.stds {
        if !s.source.variables().is_empty() || !s.target.variables().is_empty() {
            return Err(format!(
                "abscons_structural applies to SM° (value-free) mappings only; \
                 std `{s}` mentions variables"
            ));
        }
    }
    let sources: Vec<&Pattern> = m.stds.iter().map(|s| &s.source).collect();
    let sets = match src.achievable_match_sets(&sources, budget) {
        Ok(s) => s,
        Err(b) => return Ok(Err(b)),
    };
    if sets.is_empty() {
        // The source DTD admits no tree at all: vacuously consistent.
        return Ok(Ok(AbsConsAnswer::AbsolutelyConsistent));
    }
    let targets: Vec<&Pattern> = m.stds.iter().map(|s| &s.target).collect();
    let ks = match tgt.achievable_match_sets(&targets, budget) {
        Ok(k) => k,
        Err(b) => return Ok(Err(b)),
    };
    for (j, witness) in sets.iter() {
        if !ks.iter().any(|(k, _)| j.is_subset(k)) {
            return Ok(Ok(AbsConsAnswer::Violated {
                witness: Some(witness.clone()),
                reason: format!("match set {j:?} has an unsatisfiable target side"),
            }));
        }
    }
    Ok(Ok(AbsConsAnswer::AbsolutelyConsistent))
}

/// A source DTD position: the (label, attribute index) a variable reads.
#[derive(Clone, PartialEq, Eq, Debug)]
struct SourcePos {
    label: Name,
    attr: usize,
    rigid: bool,
}

/// Collects, for each variable of a fully-specified pattern, the (label,
/// attribute-index) positions it occurs at.
fn var_positions(p: &Pattern, out: &mut BTreeMap<Var, Vec<(Name, usize)>>) {
    if let LabelTest::Label(l) = &p.label {
        for (i, v) in p.vars.iter().enumerate() {
            out.entry(v.clone()).or_default().push((l.clone(), i));
        }
    }
    for item in &p.list {
        match item {
            ListItem::Seq { members, .. } => {
                for m in members {
                    var_positions(m, out);
                }
            }
            ListItem::Descendant(d) => var_positions(d, out),
        }
    }
}

/// Merge classes of a fully-specified target pattern: pattern nodes forced
/// to map to the same document node. The root is one class; children of
/// merged classes with the same label whose slot is non-repeatable merge.
/// Returns, per class, the list of member pattern nodes' variable tuples
/// (with their common label).
fn merge_classes<'p>(pattern: &'p Pattern, nr: &NrKernel) -> Vec<(Name, Vec<&'p [Var]>)> {
    // Work queue of classes; each class is a list of pattern nodes that
    // share one document node. Children partition by label.
    let mut out = Vec::new();
    let root_label = match &pattern.label {
        LabelTest::Label(l) => l.clone(),
        LabelTest::Wildcard => return out, // outside fragment; caller rejects
    };
    let mut queue: Vec<(Name, Vec<&Pattern>)> = vec![(root_label, vec![pattern])];
    while let Some((label, nodes)) = queue.pop() {
        out.push((
            label.clone(),
            nodes.iter().map(|n| n.vars.as_slice()).collect(),
        ));
        // Group the children of ALL nodes in the class by label.
        let mut by_label: BTreeMap<Name, Vec<&Pattern>> = BTreeMap::new();
        for node in nodes {
            for item in &node.list {
                if let ListItem::Seq { members, .. } = item {
                    for child in members {
                        if let LabelTest::Label(l) = &child.label {
                            by_label.entry(l.clone()).or_default().push(child);
                        }
                    }
                }
            }
        }
        for (l, kids) in by_label {
            if nr.is_repeatable(&l) {
                // Each child can have its own document node.
                for kid in kids {
                    queue.push((l.clone(), vec![kid]));
                }
            } else {
                // All must share the unique (per-parent) node.
                queue.push((l.clone(), kids));
            }
        }
    }
    out
}

/// Thm 6.3 (PTIME case): absolute consistency over nested-relational DTDs
/// with fully-specified stds and no data comparisons.
///
/// Returns `None` when the mapping is outside the fragment. The algorithm
/// (rigidity analysis, DESIGN.md §3.4):
///
/// 1. stds with unsatisfiable sources are vacuous; if a fired std's target
///    is unsatisfiable w.r.t. `D_t`, absolute consistency fails;
/// 2. within one firing, pattern nodes forced onto the same document node
///    (same label under a non-repeatable slot) must receive equal values —
///    guaranteed only if the variables coincide or both read the same
///    *rigid* source position;
/// 3. across firings (and stds), a *rigid* target slot holds a single value
///    in the whole document — every shared variable written there must read
///    a rigid source position, and all of them the same one.
///
/// Compiles fresh kernels for both DTDs on every call;
/// [`EngineContext::abscons`](crate::EngineContext::abscons) reads the
/// kernels of the shared [`SatCache`]s instead. This free form stays
/// public only because the benchmark's audit oracle calls it (ROADMAP
/// item 14 moves that caller onto the context).
pub fn abscons_nr_ptime(m: &Mapping) -> Option<AbsConsAnswer> {
    if !thm63_stds(m) {
        return None;
    }
    let src = NrKernel::new(&m.source_dtd)?;
    let tgt = NrKernel::new(&m.target_dtd)?;
    abscons_nr(m, &src, &tgt)
}

/// [`abscons_nr_ptime`] over the source and target [`SatCache`]s, whose
/// shared [`NrKernel`]s answer every satisfiability and rigidity question.
pub(crate) fn abscons_nr_cached(
    m: &Mapping,
    src: &SatCache,
    tgt: &SatCache,
) -> Option<AbsConsAnswer> {
    if !thm63_stds(m) {
        return None;
    }
    abscons_nr(m, src.nr_kernel()?, tgt.nr_kernel()?)
}

/// The std half of the Thm 6.3 fragment: fully specified, without data
/// comparisons or wildcards.
fn thm63_stds(m: &Mapping) -> bool {
    let sig = m.signature();
    sig.is_fully_specified() && !sig.has_data_comparison()
}

/// The rigidity analysis over the two DTDs' kernels.
fn abscons_nr(m: &Mapping, src_nr: &NrKernel, tgt_nr: &NrKernel) -> Option<AbsConsAnswer> {
    if !src_nr.is_tree_shaped() || !tgt_nr.is_tree_shaped() {
        return None;
    }

    // Global table: rigid target slot → the unique rigid source position
    // feeding it (if any shared variable does).
    let mut rigid_slots: BTreeMap<(Name, usize), (usize, Var, SourcePos)> = BTreeMap::new();

    for (si, s) in m.stds.iter().enumerate() {
        // 1. Vacuous or violated?
        match src_nr.satisfiable(&s.source) {
            Some(true) => {}
            Some(false) => continue, // never fires
            None => return None,
        }
        match tgt_nr.satisfiable(&s.target) {
            Some(true) => {}
            Some(false) => {
                return Some(AbsConsAnswer::Violated {
                    witness: None,
                    reason: format!(
                        "std #{si}: source fires on some document but target \
                         pattern is unsatisfiable w.r.t. the target DTD"
                    ),
                })
            }
            None => return None,
        }

        // Source positions per variable (each source variable occurs once
        // in the fragment, but tolerate repeats by taking all positions).
        let mut src_pos: BTreeMap<Var, Vec<(Name, usize)>> = BTreeMap::new();
        var_positions(&s.source, &mut src_pos);
        let pos_of = |v: &Var| -> Option<SourcePos> {
            let ps = src_pos.get(v)?;
            let (label, attr) = ps.first()?.clone();
            let rigid = src_nr.is_rigid(&label);
            Some(SourcePos { label, attr, rigid })
        };

        // 2. Within-firing merge constraints.
        for (label, tuples) in merge_classes(&s.target, tgt_nr) {
            let arity = tuples.iter().map(|t| t.len()).max().unwrap_or(0);
            for k in 0..arity {
                let vars_at_k: Vec<&Var> = tuples.iter().filter_map(|t| t.get(k)).collect();
                for pair in vars_at_k.windows(2) {
                    let (a, b) = (pair[0], pair[1]);
                    if a == b {
                        continue;
                    }
                    // Equality must be guaranteed per firing: both shared
                    // and reading the same rigid source position; a pair
                    // involving an existential variable is always fine.
                    // A pair involving an existential variable is always
                    // satisfiable (choose it equal); two shared variables
                    // need the identical rigid source position.
                    if let (Some(pa), Some(pb)) = (pos_of(a), pos_of(b)) {
                        let same_rigid =
                            pa.rigid && pb.rigid && pa.label == pb.label && pa.attr == pb.attr;
                        if !same_rigid {
                            return Some(AbsConsAnswer::Violated {
                                witness: None,
                                reason: format!(
                                    "std #{si}: variables {a} and {b} are forced \
                                     into the same node {label}(…) but their \
                                     source values can differ"
                                ),
                            });
                        }
                    }
                }
            }

            // 3. Cross-firing constraints at rigid target slots.
            if tgt_nr.is_rigid(&label) {
                for tuple in &tuples {
                    for (k, v) in tuple.iter().enumerate() {
                        let Some(p) = pos_of(v) else { continue }; // existential
                        if !p.rigid {
                            return Some(AbsConsAnswer::Violated {
                                witness: None,
                                reason: format!(
                                    "std #{si}: variable {v} writes rigid target \
                                     slot {label}@{k} but reads the repeatable \
                                     source position {}@{}",
                                    p.label, p.attr
                                ),
                            });
                        }
                        match rigid_slots.get(&(label.clone(), k)) {
                            None => {
                                rigid_slots.insert((label.clone(), k), (si, v.clone(), p.clone()));
                            }
                            Some((oi, ov, op)) => {
                                if op.label != p.label || op.attr != p.attr {
                                    return Some(AbsConsAnswer::Violated {
                                        witness: None,
                                        reason: format!(
                                            "rigid target slot {label}@{k} is written \
                                             from two different source positions: \
                                             {ov} in std #{oi} and {v} in std #{si}"
                                        ),
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    Some(AbsConsAnswer::AbsolutelyConsistent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounded::{abscons_violation_bounded, BoundedOutcome};
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

    #[test]
    fn paper_counterexample_not_abs_consistent() {
        // §6: r → a* to r → a with r/a(x) → r/a(x).
        let m = mapping(
            "root r\nr -> a*\na @ v",
            "root r\nr -> a\na @ v",
            &["r/a(x) --> r/a(x)"],
        );
        let ans = abscons_nr_ptime(&m).expect("inside fragment");
        assert!(!ans.holds());
        // …but the value-stripped version IS absolutely consistent,
        // exactly as the paper observes.
        let stripped = mapping("root r\nr -> a*", "root r\nr -> a", &["r/a --> r/a"]);
        let ans = EngineContext::new()
            .abscons_structural(&stripped, BUDGET)
            .unwrap()
            .unwrap();
        assert!(ans.holds());
    }

    #[test]
    fn starred_target_slot_is_fine() {
        let m = mapping(
            "root r\nr -> a*\na @ v",
            "root r\nr -> b*\nb @ w",
            &["r/a(x) --> r/b(x)"],
        );
        assert!(abscons_nr_ptime(&m).expect("fragment").holds());
    }

    #[test]
    fn rigid_source_to_rigid_target_is_fine() {
        let m = mapping(
            "root r\nr -> a\na @ v",
            "root r\nr -> b\nb @ w",
            &["r/a(x) --> r/b(x)"],
        );
        assert!(abscons_nr_ptime(&m).expect("fragment").holds());
    }

    #[test]
    fn optional_rigid_source_is_still_single_valued() {
        // a? is optional but never has two occurrences: still rigid.
        let m = mapping(
            "root r\nr -> a?\na @ v",
            "root r\nr -> b\nb @ w",
            &["r/a(x) --> r/b(x)"],
        );
        assert!(abscons_nr_ptime(&m).expect("fragment").holds());
    }

    #[test]
    fn two_stds_conflicting_on_rigid_slot() {
        // Both stds write the unique target c from different source slots.
        let m = mapping(
            "root r\nr -> a, b\na @ v\nb @ v",
            "root r\nr -> c\nc @ w",
            &["r/a(x) --> r/c(x)", "r/b(y) --> r/c(y)"],
        );
        let ans = abscons_nr_ptime(&m).expect("fragment");
        assert!(!ans.holds());
        // The bounded oracle agrees: there is a violating source.
        assert!(matches!(
            abscons_violation_bounded(&m, 3, 3),
            BoundedOutcome::Witness(_)
        ));
    }

    #[test]
    fn two_stds_same_rigid_position_ok() {
        let m = mapping(
            "root r\nr -> a\na @ v",
            "root r\nr -> c, d\nc @ w\nd @ w",
            &["r/a(x) --> r/c(x)", "r/a(y) --> r/d(y)"],
        );
        assert!(abscons_nr_ptime(&m).expect("fragment").holds());
    }

    #[test]
    fn within_firing_merge_conflict() {
        // Target forces b(x) and b(y) onto the same unique b node.
        let m = mapping(
            "root r\nr -> a\na @ v, w",
            "root r\nr -> b\nb @ u",
            &["r/a(x, y) --> r[b(x), b(y)]"],
        );
        let ans = abscons_nr_ptime(&m).expect("fragment");
        assert!(!ans.holds());
        assert!(matches!(
            abscons_violation_bounded(&m, 2, 2),
            BoundedOutcome::Witness(_)
        ));
    }

    #[test]
    fn within_firing_merge_with_starred_slot_ok() {
        // b* lets each pattern b-node take its own document node.
        let m = mapping(
            "root r\nr -> a\na @ v, w",
            "root r\nr -> b*\nb @ u",
            &["r/a(x, y) --> r[b(x), b(y)]"],
        );
        assert!(abscons_nr_ptime(&m).expect("fragment").holds());
    }

    #[test]
    fn unsatisfiable_target_detected() {
        let m = mapping(
            "root r\nr -> a\na @ v",
            "root r\nr -> b\nb @ w",
            &["r/a(x) --> r/nosuch(x)"],
        );
        assert!(!abscons_nr_ptime(&m).expect("fragment").holds());
    }

    #[test]
    fn vacuous_std_ignored() {
        // Source pattern unsatisfiable ⇒ std never fires ⇒ holds.
        let m = mapping(
            "root r\nr -> a\na @ v",
            "root r\nr -> b\nb @ w",
            &["r/zz(x) --> r/nosuch(x)"],
        );
        assert!(abscons_nr_ptime(&m).expect("fragment").holds());
    }

    #[test]
    fn existential_in_rigid_slot_ok() {
        let m = mapping(
            "root r\nr -> a*\na @ v",
            "root r\nr -> b\nb @ w, u",
            // z is existential: choose one value for the unique b node.
            &["r/a(x) --> r[b(z, z)]"],
        );
        assert!(abscons_nr_ptime(&m).expect("fragment").holds());
    }

    #[test]
    fn outside_fragment_rejected() {
        // descendant: not fully specified.
        let m = mapping(
            "root r\nr -> a\na @ v",
            "root r\nr -> b\nb @ w",
            &["r//a(x) --> r/b(x)"],
        );
        assert!(abscons_nr_ptime(&m).is_none());
        // inequality.
        let m2 = mapping(
            "root r\nr -> a, a\na @ v",
            "root r\nr -> b\nb @ w",
            &["r[a(x), a(y)] ; x != y --> r/b(x)"],
        );
        assert!(abscons_nr_ptime(&m2).is_none());
    }

    #[test]
    fn structural_rejects_valued_mappings() {
        let m = mapping(
            "root r\nr -> a*\na @ v",
            "root r\nr -> a\na @ v",
            &["r/a(x) --> r/a(x)"],
        );
        assert!(EngineContext::new().abscons_structural(&m, BUDGET).is_err());
    }

    #[test]
    fn structural_violation_detected() {
        // Every nonempty source (a is mandatory) fires the std, but the
        // target side is unsatisfiable.
        let m = mapping("root r\nr -> a", "root r\nr -> b", &["r/a --> r/c"]);
        let ans = EngineContext::new()
            .abscons_structural(&m, BUDGET)
            .unwrap()
            .unwrap();
        let AbsConsAnswer::Violated { witness, .. } = ans else {
            panic!("expected violation");
        };
        assert!(m.source_dtd.conforms(&witness.unwrap()));
        // Optional source: the empty document avoids firing, but some
        // document still fires it ⇒ still violated.
        let m2 = mapping("root r\nr -> a?", "root r\nr -> b", &["r/a --> r/c"]);
        assert!(!EngineContext::new()
            .abscons_structural(&m2, BUDGET)
            .unwrap()
            .unwrap()
            .holds());
        // Unsatisfiable target never fired ⇒ holds.
        let m3 = mapping("root r\nr -> a?", "root r\nr -> b", &["r/zz --> r/c"]);
        assert!(EngineContext::new()
            .abscons_structural(&m3, BUDGET)
            .unwrap()
            .unwrap()
            .holds());
    }
}
