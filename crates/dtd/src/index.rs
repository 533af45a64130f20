//! The per-DTD compiled artifact shared by the automaton-shaped consumers.
//!
//! [`DtdIndex`] wraps a [`Dtd`] — whose builder already interned the
//! alphabet into dense `u32` ids and compiled every production into a
//! [`DenseNfa`] — with the table those consumers add on top: the label
//! dependency graph. It is the shared substrate of the type-fixpoint
//! engine in `xmlmap-patterns` and of the streaming conformance validator
//! in [`crate::stream`], which runs one `DenseNfa` subset per open
//! element; both step the DTD's own content models, so nothing here
//! recompiles a production.

use xmlmap_trees::Name;

use crate::content::DenseNfa;
use crate::dtd::Dtd;

/// The per-DTD compiled artifact: the DTD with its interned labels and
/// dense production NFAs, and the label dependency graph. Reusable across pattern sets and engines — callers hold one
/// behind an `Arc`.
pub struct DtdIndex {
    dtd: Dtd,
    root: u32,
    /// `dependents[s]` = labels whose production mentions label `s`.
    dependents: Vec<Vec<u32>>,
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
        DtdIndex {
            dtd: dtd.clone(),
            root,
            dependents,
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

    /// Approximate heap footprint in bytes (label strings, dense
    /// production NFAs, dependency lists).
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
            + self.dtd.to_string().len() as u64
    }
}
