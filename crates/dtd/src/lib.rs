#![warn(missing_docs)]

//! # xmlmap-dtd
//!
//! DTDs for *XML Schema Mappings* (PODS 2009): productions over regular
//! expressions, ordered attribute lists, conformance checking `T ⊨ D`, and
//! the classifications the paper's tractability results depend on
//! (nested-relational, strictly nested-relational, starred/rigid element
//! types).

pub mod classify;
pub mod conformance;
pub mod content;
#[allow(clippy::module_inception)]
pub mod dtd;
pub mod index;
pub mod parse;
pub mod relational;
pub mod stream;

pub use classify::{Mult, NestedRelationalView};
pub use conformance::ConformanceError;
pub use content::{ContentRun, DenseNfa};
pub use dtd::{Dtd, DtdBuilder, DtdError};
pub use index::DtdIndex;
pub use parse::{parse, ParseDtdError};
pub use relational::{instance_to_tree, schema_to_dtd, Relation};
pub use stream::{validate_stream, StreamError, StreamStats, StreamValidator, StreamViolation};
