//! Pattern minimisation relative to a DTD.
//!
//! Tree-pattern minimisation is one of the lines of work the paper builds
//! on (Amer-Yahia, Cho, Lakshmanan, Srivastava — reference \[2\]). Given a
//! DTD, a pattern often contains *redundant* structure: items implied by
//! the DTD (`a/b` when `a`'s production makes `b` mandatory) or by other
//! items. Removing them speeds up every downstream use — evaluation,
//! satisfiability, consistency checks all scale with pattern size.
//!
//! [`minimize`] greedily deletes **variable-free** list items whose removal
//! keeps the pattern equivalent over the DTD ([`SatCache::equivalent`], one
//! cache for the whole pass); items carrying variables are kept, since
//! deleting them would change the valuation schema even when the Boolean
//! semantics is unchanged.

use crate::ast::{ListItem, Pattern};
use crate::sat::{BudgetExceeded, SatCache};
use xmlmap_dtd::Dtd;

/// Does this pattern subtree bind any variable?
fn has_vars(p: &Pattern) -> bool {
    !p.variables().is_empty()
}

fn item_has_vars(item: &ListItem) -> bool {
    match item {
        ListItem::Seq { members, .. } => members.iter().any(has_vars),
        ListItem::Descendant(d) => has_vars(d),
    }
}

/// Minimises `pattern` over `dtd`: repeatedly removes variable-free list
/// items (anywhere in the pattern) whose removal preserves equivalence.
/// The result matches exactly the same documents with exactly the same
/// valuations.
pub fn minimize(dtd: &Dtd, pattern: &Pattern, budget: usize) -> Result<Pattern, BudgetExceeded> {
    let cache = SatCache::new(dtd);
    let mut current = pattern.clone();
    loop {
        let mut changed = false;
        // Enumerate candidate deletions: paths to variable-free items.
        let candidates = candidate_paths(&current);
        for path in candidates {
            let trimmed = remove_item(&current, &path);
            if cache.equivalent(&current, &trimmed, budget)? {
                current = trimmed;
                changed = true;
                break; // restart: paths shifted
            }
        }
        if !changed {
            return Ok(current);
        }
    }
}

/// A path to a list item: indices into nested pattern lists. Each step is
/// (item index, member index within a sequence) to descend; the final step
/// selects the item to delete.
type ItemPath = Vec<(usize, usize)>;

fn candidate_paths(p: &Pattern) -> Vec<ItemPath> {
    let mut out = Vec::new();
    fn walk(p: &Pattern, prefix: &ItemPath, out: &mut Vec<ItemPath>) {
        for (i, item) in p.list.iter().enumerate() {
            let mut here = prefix.clone();
            here.push((i, usize::MAX)); // MAX marks "delete this item"
            if !item_has_vars(item) {
                out.push(here.clone());
            }
            match item {
                ListItem::Seq { members, .. } => {
                    for (mi, m) in members.iter().enumerate() {
                        let mut down = prefix.clone();
                        down.push((i, mi));
                        walk(m, &down, out);
                    }
                }
                ListItem::Descendant(d) => {
                    let mut down = prefix.clone();
                    down.push((i, 0));
                    walk(d, &down, out);
                }
            }
        }
    }
    walk(p, &Vec::new(), &mut out);
    out
}

fn remove_item(p: &Pattern, path: &[(usize, usize)]) -> Pattern {
    let mut out = p.clone();
    fn go(p: &mut Pattern, path: &[(usize, usize)]) {
        let (i, mi) = path[0];
        if path.len() == 1 {
            debug_assert_eq!(mi, usize::MAX);
            p.list.remove(i);
            return;
        }
        match &mut p.list[i] {
            ListItem::Seq { members, .. } => go(&mut members[mi], &path[1..]),
            ListItem::Descendant(d) => go(d, &path[1..]),
        }
    }
    go(&mut out, path);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use crate::sat::DEFAULT_BUDGET;

    fn dtd(s: &str) -> Dtd {
        xmlmap_dtd::parse(s).unwrap()
    }

    #[test]
    fn drops_dtd_implied_items() {
        // a always has a b child, so [b] under a is redundant; a itself is
        // mandatory under r, so r[a] collapses to r.
        let d = dtd("root r\nr -> a\na -> b");
        let p = parse("r[a[b]]").unwrap();
        let m = minimize(&d, &p, DEFAULT_BUDGET).unwrap();
        assert_eq!(m.to_string(), "r");
    }

    #[test]
    fn keeps_discriminating_items() {
        let d = dtd("root r\nr -> a?, b?");
        let p = parse("r[a, b]").unwrap();
        let m = minimize(&d, &p, DEFAULT_BUDGET).unwrap();
        assert_eq!(m, p); // both items restrict the language
    }

    #[test]
    fn drops_items_subsumed_by_others() {
        // Under this DTD b occurs only below a, so a[b] and //b are
        // interchangeable; the greedy pass keeps whichever single item it
        // reaches first — here the (smaller) descendant form.
        let d = dtd("root r\nr -> a*\na -> b?");
        let p = parse("r[a[b], //b]").unwrap();
        let m = minimize(&d, &p, DEFAULT_BUDGET).unwrap();
        assert_eq!(m.to_string(), "r[//b]");
        assert!(SatCache::new(&d)
            .equivalent(&p, &m, DEFAULT_BUDGET)
            .unwrap());
    }

    #[test]
    fn preserves_variable_items() {
        // b(x) binds a variable: never removed, even though b is mandatory.
        let d = dtd("root r\nr -> a\na -> b\nb @ v");
        let p = parse("r[a[b(x)]]").unwrap();
        let m = minimize(&d, &p, DEFAULT_BUDGET).unwrap();
        assert_eq!(m, p);
    }

    #[test]
    fn minimized_pattern_is_equivalent() {
        let d = dtd("root r\nr -> a*, c?\na -> b?\nb @ v");
        for text in ["r[a, a[b(x)], //a]", "r[//a, a, c]", "r[a[b(x)], //b(x)]"] {
            let p = parse(text).unwrap();
            let m = minimize(&d, &p, DEFAULT_BUDGET).unwrap();
            assert!(
                SatCache::new(&d)
                    .equivalent(&p, &m, DEFAULT_BUDGET)
                    .unwrap(),
                "{text} vs {m}"
            );
            assert!(m.size() <= p.size());
        }
    }
}
