//! The per-DTD compiled artifact shared by the automaton-shaped consumers.
//!
//! [`DtdIndex`] wraps a [`Dtd`] — whose builder already interned the
//! alphabet into dense `u32` ids and compiled every production into a
//! [`DenseNfa`] — with the table those consumers add on top: the label
//! dependency graph. It is the shared substrate of the type-fixpoint
//! engine in `xmlmap-patterns` and of the streaming conformance validator
//! in [`crate::stream`], which runs one `DenseNfa` subset per open
//! element; both step the DTD's own content models, so nothing here
//! recompiles a production. The validator also checks attribute sets on
//! ids: the index interns every attribute name the DTD declares and keeps
//! each label's attribute list as ids, in canonical order.

use xmlmap_trees::Name;

use crate::content::DenseNfa;
use crate::dtd::Dtd;

/// The per-DTD compiled artifact: the DTD with its interned labels and
/// dense production NFAs, the label dependency graph and the interned
/// attribute lists. Reusable across pattern sets and engines — callers
/// hold one behind an `Arc`.
pub struct DtdIndex {
    dtd: Dtd,
    root: u32,
    /// `dependents[s]` = labels whose production mentions label `s`.
    dependents: Vec<Vec<u32>>,
    /// Every declared attribute name, sorted; `attr_names[id]` has
    /// attribute id `id`.
    attr_names: Box<[Name]>,
    /// Per label id: `A_D(label)` as attribute ids, in canonical order.
    label_attrs: Box<[Box<[u32]>]>,
}

impl DtdIndex {
    /// Indexes `dtd`: the label dependency graph (the content models are
    /// the DTD's own, shared, not rebuilt).
    pub fn new(dtd: &Dtd) -> DtdIndex {
        let labels = dtd.labels();
        let root = dtd
            .label_id(dtd.root())
            .expect("the root is in the alphabet");
        let mut dependents = vec![Vec::new(); labels.len()];
        for (lid, nfa) in dtd.content_models().iter().enumerate() {
            for &s in nfa.syms() {
                dependents[s as usize].push(lid as u32);
            }
        }
        let mut attr_names: Vec<Name> = labels.iter().flat_map(|l| dtd.attrs(l)).cloned().collect();
        attr_names.sort();
        attr_names.dedup();
        let id = |a: &Name| attr_id(&attr_names, a.as_str()).expect("a declared attribute");
        let label_attrs = labels
            .iter()
            .map(|l| dtd.attrs(l).iter().map(id).collect())
            .collect();
        DtdIndex {
            dtd: dtd.clone(),
            root,
            dependents,
            attr_names: attr_names.into(),
            label_attrs,
        }
    }

    /// The compiled DTD.
    pub fn dtd(&self) -> &Dtd {
        &self.dtd
    }

    /// Interned labels; `labels()[lid]` is the label with id `lid`.
    pub fn labels(&self) -> &[Name] {
        self.dtd.labels()
    }

    /// The interned id of the root element type.
    pub fn root(&self) -> u32 {
        self.root
    }

    /// Per-label dense production NFAs, indexed by label id.
    pub fn nfas(&self) -> &[DenseNfa] {
        self.dtd.content_models()
    }

    /// Labels whose production mentions label `s`.
    pub fn dependents(&self, s: u32) -> &[u32] {
        &self.dependents[s as usize]
    }

    /// The attribute id of `name`, or `None` when no label declares it.
    pub fn attr_id(&self, name: &str) -> Option<u32> {
        attr_id(&self.attr_names, name)
    }

    /// Interned attribute names; `attr_names()[id]` has attribute id `id`.
    pub fn attr_names(&self) -> &[Name] {
        &self.attr_names
    }

    /// `A_D(label)` of the label with id `lid`, as attribute ids in the
    /// DTD's (canonical) order.
    #[inline]
    pub fn label_attrs(&self, lid: u32) -> &[u32] {
        &self.label_attrs[lid as usize]
    }

    /// Approximate heap footprint in bytes (label and attribute strings,
    /// dense production NFAs, dependency and attribute lists).
    pub fn approx_bytes(&self) -> u64 {
        self.labels()
            .iter()
            .map(|l| l.as_str().len() as u64 + 16)
            .sum::<u64>()
            + self.nfas().iter().map(DenseNfa::approx_bytes).sum::<u64>()
            + self
                .dependents
                .iter()
                .map(|v| v.capacity() as u64 * 4)
                .sum::<u64>()
            + self
                .attr_names
                .iter()
                .map(|a| a.as_str().len() as u64 + 16)
                .sum::<u64>()
            + self
                .label_attrs
                .iter()
                .map(|v| 16 + v.len() as u64 * 4)
                .sum::<u64>()
            + self.dtd.to_string().len() as u64
    }
}

/// The id of `name` among the sorted attribute names `names`.
fn attr_id(names: &[Name], name: &str) -> Option<u32> {
    names
        .binary_search_by(|a| a.as_str().cmp(name))
        .ok()
        .map(|i| i as u32)
}
