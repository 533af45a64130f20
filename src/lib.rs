#![warn(missing_docs)]

//! # xmlmap
//!
//! A Rust implementation of **"XML Schema Mappings"** (Shun'ichi Amano,
//! Leonid Libkin, Filip Murlak; PODS 2009): expressive schema mappings
//! between XML DTDs, built from tree patterns with child/descendant/
//! next-sibling/following-sibling navigation and data-value comparisons.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! * [`trees`] — unranked data trees, XML parsing/printing;
//! * [`regex`] — regular expressions, Glushkov NFAs, and the dense DFAs
//!   the hedge-automata engine determinizes horizontals into;
//! * [`dtd`] — DTDs, conformance, nested-relational classification;
//! * [`automata`] — unranked hedge tree automata;
//! * [`patterns`] — tree patterns, evaluation, satisfiability engines;
//! * [`core`] — mappings, membership, consistency, absolute consistency,
//!   the chase, and (syntactic) composition with Skolem functions;
//! * [`gen`] — workload generators and hard instance families.
//!
//! ## Quickstart
//!
//! ```
//! use xmlmap::prelude::*;
//!
//! // The paper's university source schema (D1) and target schema (D2).
//! let d1 = xmlmap::gen::university_dtd();
//! let d2 = xmlmap::gen::university_target_dtd();
//!
//! // An std: professors' courses and students get restructured.
//! let std = Std::parse(
//!     "r[prof(x)[teach[year(y)[course(cn1) -> course(cn2)]],
//!                supervise[student(s)]]] ; cn1 != cn2
//!      --> r[course(cn1, y)[taughtby(x)] ->* course(cn2, y)[taughtby(x)],
//!            student(s)[supervisor(x)]]",
//! ).unwrap();
//! let mapping = Mapping::new(d1.clone(), d2, vec![std]);
//!
//! // A source document and membership checking.
//! let source = xmlmap::gen::university_tree(2, 1);
//! assert!(d1.conforms(&source));
//! assert_eq!(mapping.signature().to_string(), "SM(↓,⇒,≠)");
//! ```

pub use xmlmap_automata as automata;
pub use xmlmap_codec as codec;
pub use xmlmap_core as core;
pub use xmlmap_dtd as dtd;
pub use xmlmap_gen as gen;
pub use xmlmap_patterns as patterns;
pub use xmlmap_regex as regex;
pub use xmlmap_trees as trees;

/// The most common imports, for examples and downstream users. The
/// decision procedures, the chase and the streaming drivers are methods of
/// [`EngineContext`](xmlmap_core::EngineContext).
pub mod prelude {
    pub use xmlmap_core::{
        compose, run_batch, AbsConsAnswer, BatchJob, CompOp, Comparison, ConsAnswer, EngineContext,
        JobKind, JobResult, Mapping, SkolemMapping, Std,
    };
    pub use xmlmap_dtd::Dtd;
    pub use xmlmap_patterns::{Pattern, Valuation};
    pub use xmlmap_trees::{tree, Name, NodeId, Tree, Value};
}
