#![warn(missing_docs)]

//! # xmlmap-trees
//!
//! Unranked ordered data trees — the document model of *XML Schema Mappings*
//! (Amano, Libkin, Murlak; PODS 2009), §2:
//!
//! > `T = ⟨U, ↓, →, lab, (ρ_a)_{a∈Att}⟩`
//!
//! where `U` is an unranked tree domain, `↓`/`→` are child and next-sibling,
//! `lab` labels nodes with element types, and each `ρ_a` assigns attribute
//! values.
//!
//! The crate provides:
//! * [`Tree`]/[`NodeId`] — an arena-based document with all four navigation
//!   axes used by the mapping language (`↓`, `↓*`, `→`, `→*`);
//! * [`Name`] — interned element-type/attribute names;
//! * [`Value`] — data values (constants and labelled nulls for the chase);
//! * [`xml`] — a reader/writer for the element+attribute XML fragment;
//! * [`sax`] — a pull-based event reader over the same fragment for
//!   streaming consumers (O(depth) memory, no arena);
//! * [`tree!`] — a literal syntax for documents in tests and examples.

pub mod name;
pub mod sax;
pub mod tree;
pub mod value;
pub mod xml;

pub use name::{name, Name};
pub use sax::{BorrowedEvent, NameRef, SaxReader, StartTag};
pub use tree::{isomorphic_mod_nulls, NodeId, Tree};
pub use value::{NullFactory, Value};
pub use xml::XmlError;

/// Builds a [`Tree`] literal.
///
/// Syntax: `label ( attr = value, ... ) [ child, ... ]`, where the attribute
/// list and the child list are each optional.
///
/// ```
/// use xmlmap_trees::{tree, Value};
/// let t = tree! {
///     "r" [
///         "prof"("name" = "Ada") [
///             "teach" [ "year"("y" = "2008") [
///                 "course"("cno" = "cs1"),
///                 "course"("cno" = "cs2"),
///             ] ],
///             "supervise" [ "student"("sid" = "Sue") ],
///         ],
///     ]
/// };
/// assert_eq!(t.size(), 8);
/// assert_eq!(t.attr(t.children(xmlmap_trees::Tree::ROOT)[0], "name"),
///            Some(&Value::str("Ada")));
/// ```
#[macro_export]
macro_rules! tree {
    // Entry points.
    ($label:literal) => {{
        $crate::Tree::new($label)
    }};
    ($label:literal ( $($a:literal = $v:expr),* $(,)? )) => {{
        $crate::Tree::with_root_attrs($label, [$(($a, $crate::Value::from($v))),*])
    }};
    ($label:literal [ $($rest:tt)* ]) => {{
        let mut t = $crate::Tree::new($label);
        $crate::tree!(@children t, $crate::Tree::ROOT, $($rest)*);
        t
    }};
    ($label:literal ( $($a:literal = $v:expr),* $(,)? ) [ $($rest:tt)* ]) => {{
        let mut t = $crate::Tree::with_root_attrs($label, [$(($a, $crate::Value::from($v))),*]);
        $crate::tree!(@children t, $crate::Tree::ROOT, $($rest)*);
        t
    }};

    // Child list walker. Each step peels one child (4 shapes), then recurses.
    (@children $t:ident, $p:expr, ) => {};
    (@children $t:ident, $p:expr, $label:literal $(, $($rest:tt)*)?) => {
        let _ = $t.add_elem($p, $label);
        $crate::tree!(@children $t, $p, $($($rest)*)?);
    };
    (@children $t:ident, $p:expr, $label:literal ( $($a:literal = $v:expr),* $(,)? ) $(, $($rest:tt)*)?) => {
        let _ = $t.add_child($p, $label, [$(($a, $crate::Value::from($v))),*]);
        $crate::tree!(@children $t, $p, $($($rest)*)?);
    };
    (@children $t:ident, $p:expr, $label:literal [ $($kids:tt)* ] $(, $($rest:tt)*)?) => {
        let __id = $t.add_elem($p, $label);
        $crate::tree!(@children $t, __id, $($kids)*);
        $crate::tree!(@children $t, $p, $($($rest)*)?);
    };
    (@children $t:ident, $p:expr, $label:literal ( $($a:literal = $v:expr),* $(,)? ) [ $($kids:tt)* ] $(, $($rest:tt)*)?) => {
        let __id = $t.add_child($p, $label, [$(($a, $crate::Value::from($v))),*]);
        $crate::tree!(@children $t, __id, $($kids)*);
        $crate::tree!(@children $t, $p, $($($rest)*)?);
    };
}

#[cfg(test)]
mod proptests {
    use crate::{Name, Tree, Value};
    use proptest::prelude::*;

    fn arb_name() -> impl Strategy<Value = String> {
        "[a-z][a-z0-9_]{0,6}".prop_map(|s| s)
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            // Printable strings including XML-special characters.
            "[ -~]{0,8}".prop_map(Value::str),
            any::<i64>().prop_map(Value::int),
        ]
    }

    prop_compose! {
        fn arb_attrs()(pairs in proptest::collection::btree_map(arb_name(), arb_value(), 0..3))
            -> Vec<(Name, Value)>
        {
            pairs.into_iter().map(|(k, v)| (Name::new(k), v)).collect()
        }
    }

    fn arb_tree() -> impl Strategy<Value = Tree> {
        // Build a random tree from a recursive (label, attrs, children) spec.
        #[derive(Debug, Clone)]
        struct Spec {
            label: String,
            attrs: Vec<(Name, Value)>,
            children: Vec<Spec>,
        }
        let leaf = (arb_name(), arb_attrs()).prop_map(|(label, attrs)| Spec {
            label,
            attrs,
            children: vec![],
        });
        let spec = leaf.prop_recursive(3, 16, 4, |inner| {
            (
                arb_name(),
                arb_attrs(),
                proptest::collection::vec(inner, 0..4),
            )
                .prop_map(|(label, attrs, children)| Spec {
                    label,
                    attrs,
                    children,
                })
        });
        fn build(tree: &mut Tree, at: crate::NodeId, spec: &Spec) {
            for c in &spec.children {
                let id = tree.add_child(at, c.label.as_str(), c.attrs.iter().cloned());
                build(tree, id, c);
            }
        }
        spec.prop_map(|s| {
            let mut t = Tree::with_root_attrs(s.label.as_str(), s.attrs.iter().cloned());
            build(&mut t, Tree::ROOT, &s);
            t
        })
    }

    proptest! {
        /// Serialising and re-parsing any tree yields the same tree
        /// (integer values come back as strings with equal rendering, so
        /// compare via a second round-trip).
        #[test]
        fn xml_round_trip(t in arb_tree()) {
            let once = crate::xml::parse(&crate::xml::to_string(&t)).unwrap();
            let twice = crate::xml::parse(&crate::xml::to_string(&once)).unwrap();
            prop_assert_eq!(once, twice);
        }

        /// Document-order traversal visits every node exactly once, parents
        /// before children, siblings left to right.
        #[test]
        fn traversal_is_document_order(t in arb_tree()) {
            let order: Vec<_> = t.nodes().collect();
            prop_assert_eq!(order.len(), t.size());
            let position: std::collections::HashMap<_, _> =
                order.iter().enumerate().map(|(i, n)| (*n, i)).collect();
            for n in &order {
                if let Some(p) = t.parent(*n) {
                    prop_assert!(position[&p] < position[n]);
                }
                if let Some(next) = t.next_sibling(*n) {
                    prop_assert!(position[n] < position[&next]);
                }
            }
        }

        /// Subtree extraction and grafting are mutually inverse.
        #[test]
        fn subtree_graft_inverse(t in arb_tree()) {
            for n in t.nodes().take(4) {
                let sub = t.subtree(n);
                let mut host = Tree::new("host");
                let copied = host.graft(Tree::ROOT, &sub);
                prop_assert_eq!(host.subtree(copied), sub);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Tree, Value};

    #[test]
    fn tree_macro_shapes() {
        let plain = tree!("r");
        assert_eq!(plain.size(), 1);

        let attrs_only = tree!("a"("x" = "1", "y" = 2));
        assert_eq!(attrs_only.attr(Tree::ROOT, "y"), Some(&Value::int(2)));

        let nested = tree! {
            "r" [
                "a"("v" = "1"),
                "b" [ "c", "d"("w" = "2") ],
                "e",
            ]
        };
        assert_eq!(nested.size(), 6);
        let b = nested.children(Tree::ROOT)[1];
        assert_eq!(nested.label(b).as_str(), "b");
        assert_eq!(nested.children(b).len(), 2);
    }

    #[test]
    fn tree_macro_matches_builder() {
        let via_macro = tree!("r"["a"("v" = "1")["b"]]);
        let mut via_builder = Tree::new("r");
        let a = via_builder.add_child(Tree::ROOT, "a", [("v", Value::str("1"))]);
        via_builder.add_elem(a, "b");
        assert_eq!(via_macro, via_builder);
    }
}
