//! Source-to-target dependencies (Definition 3.1) and schema mappings
//! (Definition 3.2).

use crate::cond::{all_hold, Comparison};
use crate::signature::Signature;
use std::collections::BTreeSet;
use std::fmt;
use xmlmap_dtd::Dtd;
use xmlmap_patterns::{eval, CompiledPattern, Matcher, Pattern, Valuation, Var};
use xmlmap_trees::Tree;

/// An std `π(x̄,ȳ), α₌,≠(x̄,ȳ) → π′(x̄,z̄), α′₌,≠(x̄,z̄)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Std {
    /// Source pattern π.
    pub source: Pattern,
    /// Source condition α₌,≠.
    pub source_cond: Vec<Comparison>,
    /// Target pattern π′.
    pub target: Pattern,
    /// Target condition α′₌,≠.
    pub target_cond: Vec<Comparison>,
}

impl Std {
    /// Builds an std without conditions.
    pub fn new(source: Pattern, target: Pattern) -> Std {
        Std {
            source,
            source_cond: Vec::new(),
            target,
            target_cond: Vec::new(),
        }
    }

    /// Adds a source condition (builder style).
    pub fn when(mut self, c: Comparison) -> Std {
        self.source_cond.push(c);
        self
    }

    /// Adds a target condition (builder style).
    pub fn ensure(mut self, c: Comparison) -> Std {
        self.target_cond.push(c);
        self
    }

    /// Parses `source , conds -> target , conds` with pattern syntax from
    /// `xmlmap-patterns` and condition syntax `x = y, a != b`. The optional
    /// condition block is introduced by `;`:
    ///
    /// ```text
    /// r[a(x) -> a(y)] ; x != y  ->  r[b(x), b(y)] ; x != y
    /// ```
    pub fn parse(input: &str) -> Result<Std, String> {
        // Split on the *std arrow*, which we require to be written `-->`
        // to avoid colliding with the pattern-level `->`.
        let (lhs, rhs) = input
            .split_once("-->")
            .ok_or_else(|| "expected `-->` between source and target".to_string())?;
        let parse_side = |side: &str| -> Result<(Pattern, Vec<Comparison>), String> {
            let (pat_text, cond_text) = match side.split_once(';') {
                Some((p, c)) => (p, c),
                None => (side, ""),
            };
            let pat = xmlmap_patterns::parse(pat_text.trim()).map_err(|e| e.to_string())?;
            let conds = crate::cond::parse_conditions(cond_text)?;
            Ok((pat, conds))
        };
        let (source, source_cond) = parse_side(lhs)?;
        let (target, target_cond) = parse_side(rhs)?;
        Ok(Std {
            source,
            source_cond,
            target,
            target_cond,
        })
    }

    /// The variables shared between source and target (the x̄ of the
    /// definition; universally quantified).
    pub fn shared_vars(&self) -> Vec<Var> {
        let target_vars: BTreeSet<Var> = self.target.variables().into_iter().collect();
        self.source
            .variables()
            .into_iter()
            .filter(|v| target_vars.contains(v))
            .collect()
    }

    /// Variables appearing only on the target side (the z̄; existential).
    pub(crate) fn existential_vars(&self) -> Vec<Var> {
        let source_vars: BTreeSet<Var> = self.source.variables().into_iter().collect();
        self.target
            .variables()
            .into_iter()
            .filter(|v| !source_vars.contains(v))
            .collect()
    }

    /// Do `(T, T′)` satisfy this std?
    ///
    /// Both patterns are compiled once and their feasibility tables built
    /// once per tree; every source firing then probes the *same* prepared
    /// target [`Matcher`], so the `O(|T|·|π′|)` table cost is not repaid
    /// per firing. The whole check runs in the interned id space: shared
    /// variables are translated to (source id, target id) pairs and
    /// conditions to id triples up front, so no per-firing `Valuation` is
    /// ever built.
    pub fn satisfied(&self, source_tree: &Tree, target_tree: &Tree) -> bool {
        use crate::cond::CompOp;
        use xmlmap_trees::Value;

        let src_pat = CompiledPattern::new(&self.source);
        let src = Matcher::new(source_tree, &src_pat);
        let tgt_pat = CompiledPattern::new(&self.target);
        let tgt = Matcher::new(target_tree, &tgt_pat);
        // Shared variables (x̄) as dense id pairs.
        let id_pairs: Vec<(usize, usize)> = src_pat
            .vars()
            .iter()
            .enumerate()
            .filter_map(|(si, v)| tgt_pat.var_id(v).map(|ti| (si, ti as usize)))
            .collect();
        // Conditions in id space. `None` marks a comparison over a variable
        // the side can never bind — such comparisons never hold (matching
        // [`Comparison::holds`] on unbound variables).
        let compile =
            |conds: &[Comparison], pat: &CompiledPattern| -> Vec<Option<(CompOp, usize, usize)>> {
                conds
                    .iter()
                    .map(|c| match (pat.var_id(&c.left), pat.var_id(&c.right)) {
                        (Some(l), Some(r)) => Some((c.op, l as usize, r as usize)),
                        _ => None,
                    })
                    .collect()
            };
        let src_conds = compile(&self.source_cond, &src_pat);
        let tgt_conds = compile(&self.target_cond, &tgt_pat);
        // The target side may compare a seeded (shared) variable, so
        // condition checks run on the full dense environment of each side.
        fn holds(conds: &[Option<(CompOp, usize, usize)>], env: &[Option<&Value>]) -> bool {
            conds.iter().all(|c| match c {
                Some((op, l, r)) => match (env[*l], env[*r]) {
                    (Some(a), Some(b)) => match op {
                        CompOp::Eq => a == b,
                        CompOp::Neq => a != b,
                    },
                    _ => false,
                },
                None => false,
            })
        }
        let tgt_vars = tgt_pat.var_count();
        let empty = vec![None; src_pat.var_count()];
        // ∀ source matches passing α: ∃ target match passing α′.
        !src.for_each_match_dense(Tree::ROOT, &empty, &mut |env| {
            if !holds(&src_conds, env) {
                return true; // condition fails ⇒ std does not fire here
            }
            let mut tgt_seed: Vec<Option<&Value>> = vec![None; tgt_vars];
            for &(si, ti) in &id_pairs {
                tgt_seed[ti] = env[si];
            }
            // Continue scanning source matches only while satisfied.
            tgt.for_each_match_dense(Tree::ROOT, &tgt_seed, &mut |tenv| {
                !holds(&tgt_conds, tenv) // stop on first success
            })
        })
    }

    /// All source matches on which this std fires (α₌,≠ included).
    pub fn firings(&self, source_tree: &Tree) -> Vec<Valuation> {
        eval::all_matches(source_tree, &self.source)
            .into_iter()
            .filter(|m| all_hold(&self.source_cond, m))
            .collect()
    }

    /// The features used by this std (child is implicit).
    pub fn signature(&self) -> Signature {
        use crate::cond::CompOp;
        let eq_cond = |cs: &[Comparison]| cs.iter().any(|c| c.op == CompOp::Eq);
        let neq_cond = |cs: &[Comparison]| cs.iter().any(|c| c.op == CompOp::Neq);
        // Variable reuse on the source side is implicit equality. Reuse on
        // the target side is NOT counted: the paper's convention ("as in
        // [4], we do not restrict variable reuse in target patterns") keeps
        // it inside every class, including SM(⇓).
        let (s, t) = (self.source.features(), self.target.features());
        Signature {
            descendant: s.descendant || t.descendant,
            next_sibling: s.next_sibling || t.next_sibling,
            following_sibling: s.following_sibling || t.following_sibling,
            eq: s.repeated_variable || eq_cond(&self.source_cond) || eq_cond(&self.target_cond),
            neq: neq_cond(&self.source_cond) || neq_cond(&self.target_cond),
            wildcard: s.wildcard || t.wildcard,
        }
    }

    /// Is this std fully specified (both patterns in grammar (5))?
    pub fn is_fully_specified(&self) -> bool {
        self.signature().is_fully_specified()
    }
}

impl fmt::Display for Std {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.source)?;
        if !self.source_cond.is_empty() {
            write!(f, " ; ")?;
            for (i, c) in self.source_cond.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{c}")?;
            }
        }
        write!(f, " --> {}", self.target)?;
        if !self.target_cond.is_empty() {
            write!(f, " ; ")?;
            for (i, c) in self.target_cond.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{c}")?;
            }
        }
        Ok(())
    }
}

/// An XML schema mapping `M = (D_s, D_t, Σ)` (Definition 3.2).
#[derive(Clone, Debug)]
pub struct Mapping {
    /// Source DTD.
    pub source_dtd: Dtd,
    /// Target DTD.
    pub target_dtd: Dtd,
    /// The set Σ of stds.
    pub stds: Vec<Std>,
}

impl Mapping {
    /// Builds a mapping.
    pub fn new(source_dtd: Dtd, target_dtd: Dtd, stds: Vec<Std>) -> Mapping {
        Mapping {
            source_dtd,
            target_dtd,
            stds,
        }
    }

    /// Parses a mapping file with three sections:
    ///
    /// ```text
    /// [source]
    /// root r
    /// r -> a*
    /// a @ v
    ///
    /// [target]
    /// root r
    /// r -> b*
    /// b @ w
    ///
    /// [stds]
    /// r/a(x) --> r/b(x)
    /// ```
    ///
    /// DTD sections use the `xmlmap-dtd` syntax; each non-empty line of
    /// `[stds]` is one std in [`Std::parse`] syntax. `#` starts a comment.
    pub fn parse(input: &str) -> Result<Mapping, String> {
        let mut section = None;
        let mut source = String::new();
        let mut target = String::new();
        let mut stds = Vec::new();
        for (idx, raw) in input.lines().enumerate() {
            let line = match raw.find('#') {
                Some(i) => &raw[..i],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            match line {
                "[source]" => section = Some(0),
                "[target]" => section = Some(1),
                "[stds]" => section = Some(2),
                _ => match section {
                    Some(0) => {
                        source.push_str(line);
                        source.push('\n');
                    }
                    Some(1) => {
                        target.push_str(line);
                        target.push('\n');
                    }
                    Some(2) => {
                        stds.push(Std::parse(line).map_err(|e| format!("line {}: {e}", idx + 1))?)
                    }
                    _ => {
                        return Err(format!(
                            "line {}: content before the first [section]",
                            idx + 1
                        ))
                    }
                },
            }
        }
        let source_dtd =
            xmlmap_dtd::parse(&source).map_err(|e| format!("[source] section: {e}"))?;
        let target_dtd =
            xmlmap_dtd::parse(&target).map_err(|e| format!("[target] section: {e}"))?;
        Ok(Mapping {
            source_dtd,
            target_dtd,
            stds,
        })
    }

    /// Membership: `(T, T′) ∈ ⟦M⟧` — both trees conform and every std is
    /// satisfied (the problem of Theorem 4.3). The stds are checked in
    /// order on the calling thread, stopping at the first one that fails.
    pub fn is_solution(&self, source_tree: &Tree, target_tree: &Tree) -> bool {
        self.source_dtd.conforms(source_tree)
            && self.target_dtd.conforms(target_tree)
            && self
                .stds
                .iter()
                .all(|s| s.satisfied(source_tree, target_tree))
    }

    /// The union of the std signatures.
    pub fn signature(&self) -> Signature {
        self.stds
            .iter()
            .map(Std::signature)
            .fold(Signature::CHILD_ONLY, Signature::union)
    }

    /// Are all stds fully specified?
    pub fn is_fully_specified(&self) -> bool {
        self.signature().is_fully_specified()
    }
}

impl fmt::Display for Mapping {
    /// Prints the mapping in the `[source]`/`[target]`/`[stds]` file format
    /// accepted by [`Mapping::parse`], so `Display` round-trips.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[source]\n{}", self.source_dtd)?;
        writeln!(f, "[target]\n{}", self.target_dtd)?;
        writeln!(f, "[stds]")?;
        for s in &self.stds {
            writeln!(f, "{s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cond::Comparison;
    use xmlmap_trees::tree;

    /// The paper's introduction mapping with order preservation and
    /// inequality: π₃, cn1 ≠ cn2 → π₄.
    fn intro_std() -> Std {
        Std::parse(
            "r[prof(x)[teach[year(y)[course(cn1) -> course(cn2)]], supervise[student(s)]]] \
             ; cn1 != cn2 \
             --> r[course(cn1, y)[taughtby(x)] ->* course(cn2, y)[taughtby(x)], \
                   student(s)[supervisor(x)]]",
        )
        .unwrap()
    }

    fn source_tree() -> Tree {
        tree! {
            "r" [ "prof"("name" = "Ada") [
                "teach" [ "year"("y" = "2008") [
                    "course"("cno" = "cs1"),
                    "course"("cno" = "cs2"),
                ] ],
                "supervise" [ "student"("sid" = "Sue") ],
            ] ]
        }
    }

    #[test]
    fn parse_and_display_round_trip() {
        let s = intro_std();
        let s2 = Std::parse(&s.to_string()).unwrap();
        assert_eq!(s, s2);
        assert_eq!(s.source_cond, vec![Comparison::neq("cn1", "cn2")]);
    }

    #[test]
    fn shared_and_existential_vars() {
        let s = Std::parse("r[a(x), b(y)] --> r[c(x, z)]").unwrap();
        let shared: Vec<String> = s.shared_vars().iter().map(|v| v.to_string()).collect();
        assert_eq!(shared, ["x"]);
        let ex: Vec<String> = s.existential_vars().iter().map(|v| v.to_string()).collect();
        assert_eq!(ex, ["z"]);
    }

    #[test]
    fn intro_std_satisfaction_order_preserved() {
        let s = intro_std();
        // Order-preserving target: cs1 before cs2.
        let good = tree! {
            "r" [
                "course"("cno" = "cs1", "year" = "2008") [ "taughtby"("t" = "Ada") ],
                "course"("cno" = "cs2", "year" = "2008") [ "taughtby"("t" = "Ada") ],
                "student"("sid" = "Sue") [ "supervisor"("n" = "Ada") ],
            ]
        };
        assert!(s.satisfied(&source_tree(), &good));

        // Order-reversing target violates the →* requirement.
        let reversed = tree! {
            "r" [
                "course"("cno" = "cs2", "year" = "2008") [ "taughtby"("t" = "Ada") ],
                "course"("cno" = "cs1", "year" = "2008") [ "taughtby"("t" = "Ada") ],
                "student"("sid" = "Sue") [ "supervisor"("n" = "Ada") ],
            ]
        };
        assert!(!s.satisfied(&source_tree(), &reversed));
    }

    #[test]
    fn inequality_prevents_firing() {
        let s = intro_std();
        // Same course twice: cn1 ≠ cn2 never holds, so the std is vacuous
        // and ANY target satisfies it.
        let dup = tree! {
            "r" [ "prof"("name" = "Ada") [
                "teach" [ "year"("y" = "2008") [
                    "course"("cno" = "cs1"),
                    "course"("cno" = "cs1"),
                ] ],
                "supervise" [ "student"("sid" = "Sue") ],
            ] ]
        };
        assert!(s.satisfied(&dup, &tree!("r")));
        assert_eq!(s.firings(&dup).len(), 0);
        assert_eq!(s.firings(&source_tree()).len(), 1);
    }

    #[test]
    fn target_condition_checked() {
        let s = Std::parse("r[a(x)] --> r[b(x, z)] ; x != z").unwrap();
        let src = tree!("r"["a"("v" = "1")]);
        let ok = tree!("r"["b"("v" = "1", "w" = "2")]);
        let bad = tree!("r"["b"("v" = "1", "w" = "1")]);
        assert!(s.satisfied(&src, &ok));
        assert!(!s.satisfied(&src, &bad));
    }

    #[test]
    fn signature_inference() {
        let s = intro_std();
        let sig = s.signature();
        assert!(sig.next_sibling);
        assert!(sig.following_sibling);
        assert!(sig.neq);
        // Target-side reuse of x, y does not count as equality (paper
        // convention); the source side uses each variable once.
        assert!(!sig.eq);
        assert!(!sig.descendant);
        assert!(!sig.wildcard);
        assert!(!s.is_fully_specified());

        let plain = Std::parse("r[a(x)] --> r[b(x)]").unwrap();
        assert_eq!(plain.signature(), Signature::CHILD_ONLY);
        assert!(plain.is_fully_specified());
    }

    #[test]
    fn mapping_membership() {
        let d1 = xmlmap_dtd::parse(
            "root r
             r -> prof*
             prof -> teach, supervise
             teach -> year
             year -> course, course
             supervise -> student*
             prof @ name
             student @ sid
             year @ y
             course @ cno",
        )
        .unwrap();
        let d2 = xmlmap_dtd::parse(
            "root r
             r -> course*, student*
             course -> taughtby
             student -> supervisor
             course @ cno, year
             student @ sid
             taughtby @ teacher
             supervisor @ name",
        )
        .unwrap();
        let m = Mapping::new(d1, d2, vec![intro_std()]);
        let good = tree! {
            "r" [
                "course"("cno" = "cs1", "year" = "2008") [ "taughtby"("teacher" = "Ada") ],
                "course"("cno" = "cs2", "year" = "2008") [ "taughtby"("teacher" = "Ada") ],
                "student"("sid" = "Sue") [ "supervisor"("name" = "Ada") ],
            ]
        };
        assert!(m.is_solution(&source_tree(), &good));
        // Non-conforming target: solution fails even if stds hold.
        assert!(!m.is_solution(&source_tree(), &tree!("r"["junk"])));
        // Non-conforming source.
        assert!(!m.is_solution(&tree!("x"), &good));
        assert_eq!(m.signature().to_string(), "SM(↓,⇒,≠)");
    }

    #[test]
    fn display_parses_back() {
        let m = Mapping::new(
            xmlmap_dtd::parse("root r\nr -> a*\na @ v").unwrap(),
            xmlmap_dtd::parse("root w\nw -> b*\nb @ u").unwrap(),
            vec![
                Std::parse("r[a(x) ->* a(y)] ; x != y --> w[b(x), b(y)]").unwrap(),
                Std::parse("r/a(x) --> w/b(z) ; z = x").unwrap(),
            ],
        );
        let reparsed = Mapping::parse(&m.to_string()).unwrap();
        assert_eq!(reparsed.stds, m.stds);
        assert_eq!(reparsed.source_dtd.to_string(), m.source_dtd.to_string());
        assert_eq!(reparsed.target_dtd.to_string(), m.target_dtd.to_string());
    }

    #[test]
    fn mapping_file_round_trip() {
        let text = "
            # a copy mapping
            [source]
            root r
            r -> a*
            a @ v
            [target]
            root r
            r -> b*
            b @ w
            [stds]
            r/a(x) --> r/b(x)
        ";
        let m = Mapping::parse(text).unwrap();
        assert_eq!(m.stds.len(), 1);
        assert_eq!(m.source_dtd.root().as_str(), "r");
        assert!(m.is_fully_specified());
        // Errors: content outside sections, bad std, bad DTD.
        assert!(Mapping::parse("r -> a").is_err());
        assert!(Mapping::parse("[source]\nroot r\n[target]\nroot r\n[stds]\nbogus").is_err());
        assert!(Mapping::parse("[source]\n???\n[target]\nroot r\n[stds]").is_err());
    }

    #[test]
    fn parse_errors() {
        assert!(Std::parse("no arrow here").is_err());
        assert!(Std::parse("r[ --> r").is_err());
        assert!(Std::parse("r ; x < y --> r").is_err());
    }
}
