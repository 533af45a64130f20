#![warn(missing_docs)]

//! # xmlmap-core
//!
//! The primary contribution of *XML Schema Mappings* (Amano, Libkin,
//! Murlak; PODS 2009): expressive schema mappings between DTDs, their
//! membership problem, static analysis (consistency and absolute
//! consistency), and composition (semantic and syntactic, with Skolem
//! functions).
//!
//! Every decision procedure, the chase and the streaming drivers are run
//! through one entry point, the methods of [`EngineContext`], which
//! compile each schema's and mapping's artifacts once and share them.

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

pub use abscons::{abscons_nr_ptime, AbsConsAnswer, AbsConsProcedure};
pub use batch::{
    parse_jobfile, render_batch, render_results, run_batch, run_job, BatchJob, JobKind, JobParser,
    JobResult,
};
pub use bounded::{
    abscons_violation_bounded, consistent_bounded, tree_shapes, BoundedOutcome, ShapeCache,
};
pub use chase::{
    canonical_solution, parse_updates, ChaseCache, ChaseError, DeltaPlan, DeltaStats,
    IncrementalChase, Update,
};
pub use compose::{compose, ComposeError};
pub use cond::{all_hold, CompOp, Comparison};
pub use consistency::{consistent_nr_ptime, ConsAnswer, ConsError};
pub use engine::{CacheCounters, EngineContext, EngineStats};
pub use exchange::{nest_solution, reduce_solution, CertainAnswersError};
pub use serve::{
    serve, Endpoint, Response, ServeClient, ServeConfig, ServeSummary, ShutdownHandle,
};
pub use signature::Signature;
pub use skolem::{SkolemMapping, SkolemStd, Term, TermPattern};
pub use stds::{Mapping, Std};
pub use store::{ArtifactStore, Family, LoadError};
pub use stream::{
    StreamChaseError, StreamChaseOutcome, StreamChasePlan, StreamJobError, StreamOutcome,
    UnstreamableStd,
};
