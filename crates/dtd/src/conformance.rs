//! Conformance checking: `T ⊨ D` (paper §2).
//!
//! A tree conforms to a DTD iff its root carries the distinguished root
//! label, every node labelled ℓ has exactly the attributes `A_D(ℓ)` (in
//! order), and the left-to-right labels of its children spell a word in
//! `L(P_D(ℓ))`.

use crate::dtd::Dtd;
use std::cell::Cell;
use std::fmt;
use xmlmap_trees::{Name, NodeId, Tree, Value};

/// Why a tree fails to conform to a DTD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConformanceError {
    /// The root label differs from the DTD's root element type.
    WrongRoot {
        /// Label found at the root.
        found: Name,
        /// The DTD's root element type.
        expected: Name,
    },
    /// A node's label is not in the DTD's alphabet.
    UnknownLabel {
        /// The offending node.
        node: NodeId,
        /// Its label.
        label: Name,
    },
    /// A node's attribute names differ from `A_D(ℓ)`.
    WrongAttributes {
        /// The offending node.
        node: NodeId,
        /// Its label.
        label: Name,
        /// Attribute names found, in document order.
        found: Vec<Name>,
        /// Attribute names required by the DTD, in order.
        expected: Vec<Name>,
    },
    /// A node's children do not spell a word in the production's language.
    BadChildren {
        /// The offending node.
        node: NodeId,
        /// Its label.
        label: Name,
        /// The children labels found.
        found: Vec<Name>,
    },
}

impl fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConformanceError::WrongRoot { found, expected } => {
                write!(f, "root is labelled {found}, expected {expected}")
            }
            ConformanceError::UnknownLabel { node, label } => {
                write!(f, "node {node:?} has label {label} not in the DTD alphabet")
            }
            ConformanceError::WrongAttributes {
                node,
                label,
                found,
                expected,
            } => write!(
                f,
                "node {node:?} ({label}) has attributes {found:?}, DTD requires {expected:?}"
            ),
            ConformanceError::BadChildren { node, label, found } => write!(
                f,
                "children of node {node:?} ({label}) spell {found:?}, not in the production language"
            ),
        }
    }
}

impl std::error::Error for ConformanceError {}

impl Dtd {
    /// Checks `tree ⊨ self`, reporting the first violation found
    /// (document order).
    pub fn check(&self, tree: &Tree) -> Result<(), ConformanceError> {
        if tree.label(Tree::ROOT) != self.root() {
            return Err(ConformanceError::WrongRoot {
                found: tree.label(Tree::ROOT).clone(),
                expected: self.root().clone(),
            });
        }
        // Unknown labels are reported first: a child with a foreign label
        // would otherwise surface as a confusing BadChildren on its parent.
        // The sweep interns every label once for the per-node pass.
        let mut ids = vec![u32::MAX; tree.size()];
        let lookup = self.label_ids();
        for node in tree.nodes() {
            let label = tree.label(node);
            let Some(id) = lookup(label) else {
                return Err(ConformanceError::UnknownLabel {
                    node,
                    label: label.clone(),
                });
            };
            ids[node.index()] = id;
        }
        for node in tree.nodes() {
            self.node_rule(tree, node, &|n| Some(ids[n.index()]))?;
        }
        Ok(())
    }

    /// Convenience Boolean form of [`Dtd::check`].
    pub fn conforms(&self, tree: &Tree) -> bool {
        self.check(tree).is_ok()
    }

    /// The local rule of `T ⊨ D` at one node: the root carries the root
    /// label, the node's label is in the alphabet, its attribute names are
    /// exactly `A_D(ℓ)` in order, and its children's labels spell a word
    /// of `L(P_D(ℓ))`. A tree conforms iff every node passes; this is the
    /// check [`Dtd::check`] runs at each node once the unknown-label sweep
    /// is done.
    pub fn check_node(&self, tree: &Tree, node: NodeId) -> Result<(), ConformanceError> {
        let lookup = self.label_ids();
        self.node_rule(tree, node, &|n| lookup(tree.label(n)))
    }

    /// [`Dtd::label_id`] remembering its last answer: sibling runs and
    /// document order mostly repeat one label (`pad*`), so a run costs one
    /// table probe rather than one per node.
    fn label_ids<'a>(&'a self) -> impl Fn(&'a Name) -> Option<u32> + 'a {
        let last: Cell<Option<(&Name, Option<u32>)>> = Cell::new(None);
        move |label| match last.get() {
            Some((seen, id)) if seen == label => id,
            _ => {
                let id = self.label_id(label);
                last.set(Some((label, id)));
                id
            }
        }
    }

    /// [`Dtd::check_node`] with the label-id lookup supplied by the caller.
    fn node_rule(
        &self,
        tree: &Tree,
        node: NodeId,
        id: &impl Fn(NodeId) -> Option<u32>,
    ) -> Result<(), ConformanceError> {
        let label = tree.label(node);
        if node == Tree::ROOT && label != self.root() {
            return Err(ConformanceError::WrongRoot {
                found: label.clone(),
                expected: self.root().clone(),
            });
        }
        let Some(lid) = id(node) else {
            return Err(ConformanceError::UnknownLabel {
                node,
                label: label.clone(),
            });
        };
        let expected = self.attrs(label);
        let found = tree.attrs(node);
        if found.len() != expected.len() || found.iter().zip(expected).any(|((a, _), b)| a != b) {
            return Err(ConformanceError::WrongAttributes {
                node,
                label: label.clone(),
                found: found.iter().map(|(a, _)| a.clone()).collect(),
                expected: expected.to_vec(),
            });
        }
        // The children word is read straight off the tree; it is only
        // collected for the error report.
        let children = tree.children(node);
        if !self
            .content_model(lid)
            .accepts_word(children.iter().map(|&c| id(c)))
        {
            return Err(ConformanceError::BadChildren {
                node,
                label: label.clone(),
                found: children.iter().map(|&c| tree.label(c).clone()).collect(),
            });
        }
        Ok(())
    }

    /// `attrs` reordered into `A_D(label)` order, or `None` when their
    /// name set differs from `A_D(label)` (labels outside the alphabet
    /// have no attributes). The one attribute canonicaliser: documents
    /// parsed from XML may list attributes in any order, while
    /// conformance and pattern semantics use the DTD's.
    pub fn canonical_attrs(
        &self,
        label: &Name,
        attrs: &[(Name, Value)],
    ) -> Option<Vec<(Name, Value)>> {
        let expected = self.attrs(label);
        if attrs.len() != expected.len() {
            return None;
        }
        expected
            .iter()
            .map(|want| attrs.iter().find(|(a, _)| a == want).cloned())
            .collect()
    }

    /// Reorders every node's attributes into `A_D(ℓ)` order with
    /// [`Dtd::canonical_attrs`]. Fails with
    /// [`ConformanceError::UnknownLabel`] on a label outside the alphabet
    /// and [`ConformanceError::WrongAttributes`] if a node's attribute
    /// *set* differs from the DTD's.
    pub fn normalize_attrs(&self, tree: &mut Tree) -> Result<(), ConformanceError> {
        let nodes: Vec<NodeId> = tree.nodes().collect();
        for node in nodes {
            let label = tree.label(node);
            if !self.contains(label) {
                return Err(ConformanceError::UnknownLabel {
                    node,
                    label: label.clone(),
                });
            }
            let Some(attrs) = self.canonical_attrs(label, tree.attrs(node)) else {
                return Err(ConformanceError::WrongAttributes {
                    node,
                    label: label.clone(),
                    found: tree.attrs(node).iter().map(|(a, _)| a.clone()).collect(),
                    expected: self.attrs(label).to_vec(),
                });
            };
            tree.set_attrs(node, attrs);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlmap_trees::tree;

    fn d1() -> Dtd {
        crate::parse(
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
        .unwrap()
    }

    fn good_tree() -> Tree {
        tree! {
            "r" [
                "prof"("name" = "Ada") [
                    "teach" [ "year"("y" = "2008") [
                        "course"("cno" = "cs1"),
                        "course"("cno" = "cs2"),
                    ] ],
                    "supervise" [ "student"("sid" = "Sue") ],
                ],
            ]
        }
    }

    #[test]
    fn paper_example_conforms() {
        assert_eq!(d1().check(&good_tree()), Ok(()));
        // An empty professor list is allowed by prof*.
        assert!(d1().conforms(&tree!("r")));
    }

    #[test]
    fn wrong_root() {
        let e = d1().check(&tree!("prof"("name" = "Ada"))).unwrap_err();
        assert!(matches!(e, ConformanceError::WrongRoot { .. }));
    }

    #[test]
    fn unknown_label() {
        let t = tree!("r"["dean"]);
        let e = d1().check(&t).unwrap_err();
        assert!(matches!(e, ConformanceError::UnknownLabel { .. }));
    }

    #[test]
    fn missing_attribute() {
        let t = tree!("r" [ "prof" [
            "teach" [ "year"("y" = "2008") [
                "course"("cno" = "a"), "course"("cno" = "b") ] ],
            "supervise",
        ] ]);
        let e = d1().check(&t).unwrap_err();
        assert!(
            matches!(e, ConformanceError::WrongAttributes { ref label, .. } if label.as_str() == "prof"),
            "{e}"
        );
    }

    #[test]
    fn attribute_order_matters() {
        let d = crate::parse("r -> \nr @ x, y").unwrap();
        assert!(d.conforms(&tree!("r"("x" = "1", "y" = "2"))));
        assert!(!d.conforms(&tree!("r"("y" = "2", "x" = "1"))));
    }

    #[test]
    fn bad_children_word() {
        // year must have exactly two courses.
        let t = tree!("r" [ "prof"("name" = "Ada") [
            "teach" [ "year"("y" = "2008") [ "course"("cno" = "a") ] ],
            "supervise",
        ] ]);
        let e = d1().check(&t).unwrap_err();
        assert!(
            matches!(e, ConformanceError::BadChildren { ref label, .. } if label.as_str() == "year"),
            "{e}"
        );
    }

    #[test]
    fn leaf_elements_must_be_leaves() {
        let d = crate::parse("r -> a\na -> ").unwrap();
        assert!(d.conforms(&tree!("r"["a"])));
        assert!(!d.conforms(&tree!("r"["a"["a"]])));
    }

    #[test]
    fn normalize_reorders_attributes() {
        let d = crate::parse("r -> \nr @ x, y").unwrap();
        let mut t = tree!("r"("y" = "2", "x" = "1"));
        assert!(!d.conforms(&t));
        d.normalize_attrs(&mut t).unwrap();
        assert!(d.conforms(&t));
        let names: Vec<&str> = t
            .attrs(Tree::ROOT)
            .iter()
            .map(|(a, _)| a.as_str())
            .collect();
        assert_eq!(names, ["x", "y"]);

        // Wrong attribute set still errors.
        let mut wrong = tree!("r"("x" = "1", "z" = "2"));
        assert!(d.normalize_attrs(&mut wrong).is_err());
        let mut missing = tree!("r"("x" = "1"));
        assert!(d.normalize_attrs(&mut missing).is_err());
        let mut unknown = tree!("q");
        assert!(d.normalize_attrs(&mut unknown).is_err());
    }

    #[test]
    fn error_messages_render() {
        let e = d1().check(&tree!("x")).unwrap_err();
        assert!(e.to_string().contains("expected r"));
    }
}
