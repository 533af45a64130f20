#![warn(missing_docs)]

//! # xmlmap-automata
//!
//! Unranked (hedge) tree automata with regular horizontal languages: the
//! automata-theoretic substrate behind the consistency procedures of
//! *XML Schema Mappings* (PODS 2009) — membership, product, and emptiness
//! with witness extraction.

pub mod cache;
pub mod compile;
mod compiled;
pub mod hedge;
pub mod inclusion;
pub mod reference;

pub use cache::AutomataCache;
pub use compile::pattern_automaton;
pub use hedge::{HedgeAutomaton, Rule};
pub use inclusion::{inclusion_counterexample, InclusionBudgetExceeded, SubschemaViolation};
