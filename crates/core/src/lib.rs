#![warn(missing_docs)]

//! # xmlmap-core
//!
//! The primary contribution of *XML Schema Mappings* (Amano, Libkin,
//! Murlak; PODS 2009): expressive schema mappings between DTDs, their
//! membership problem, static analysis (consistency and absolute
//! consistency), and composition (semantic and syntactic, with Skolem
//! functions).

pub mod abscons;
pub mod batch;
pub mod bounded;
pub mod chase;
pub mod compose;
pub mod cond;
pub mod consistency;
pub mod engine;
pub mod exchange;
pub mod serve;
pub mod signature;
pub mod skolem;
pub mod stds;
pub mod store;
pub mod stream;

pub use abscons::{
    abscons_nr_ptime, abscons_structural, abscons_structural_cached, AbsConsAnswer,
    AbsConsProcedure,
};
pub use batch::{
    parse_jobfile, render_batch, render_results, run_batch, run_job, BatchJob, JobKind, JobParser,
    JobResult,
};
pub use bounded::{
    abscons_violation_bounded, consistent_bounded, solution_exists, solution_exists_cached,
    tree_shapes, BoundedOutcome, ShapeCache,
};
pub use chase::{
    canonical_solution, canonical_solution_cached, parse_updates, ChaseCache, ChaseError,
    DeltaPlan, DeltaStats, IncrementalChase, Update,
};
pub use compose::{compose, composition_member, composition_member_cached, ComposeError};
pub use cond::{all_hold, parse_conditions, CompOp, Comparison};
pub use consistency::{
    composition_chain_consistent, composition_consistent, composition_consistent_cached,
    consistent, consistent_cached, consistent_nr_ptime, minimal_nr_tree, ConsAnswer, ConsError,
};
pub use engine::{CacheCounters, EngineContext, EngineStats};
pub use exchange::{
    certain_answers, certain_answers_cached, nest_solution, reduce_solution, reduced_solution,
    reduced_solution_cached, CertainAnswersError,
};
pub use serve::{
    serve, Endpoint, Response, ServeClient, ServeConfig, ServeSummary, ShutdownHandle,
};
pub use signature::Signature;
pub use skolem::{SkolemMapping, SkolemStd, Term, TermPattern};
pub use stds::{Mapping, Std};
pub use store::{ArtifactStore, Family, LoadError};
pub use stream::{
    chase_stream, stream_document, StreamChaseError, StreamChaseOutcome, StreamChasePlan,
    StreamJobError, StreamOutcome, UnstreamableStd,
};
