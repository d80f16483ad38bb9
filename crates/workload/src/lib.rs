//! # exacml-workload — evaluation workload generators
//!
//! The eXACML+ evaluation (Section 4.2) drives the framework with synthetic
//! workloads: sequences of continuous queries where each query exists in
//! three forms — a StreamSQL script for the direct-query baseline, a policy
//! whose obligations describe exactly the same query graph, and a matching
//! request (so the PDP always permits). Query graphs are random combinations
//! of Filter (FB), Map (MB) and Aggregation (AB) boxes following the
//! composition counts of Table 3, and the request sequence is either unique
//! (every query appears once) or Zipf-distributed (a small number of popular
//! streams requested frequently, α = 0.223, maxRank = 300).
//!
//! This crate reproduces those generators deterministically (seeded RNG):
//!
//! * [`spec`] — the Table 3 parameter set;
//! * [`zipf`] — the Zipf rank sampler;
//! * [`streams`] — synthetic weather / GPS feeds matching the paper's
//!   real-time data sources;
//! * [`generator`] — the continuous-query corpus (script + policy + request
//!   triples) and the request sequences;
//! * [`scenario`] — the declarative [`scenario::ScenarioPack`] model: streams
//!   with seeded synthetic feeds, a policy corpus, a request/ingest script
//!   and expected-outcome oracles, loadable from JSON;
//! * [`runner`] — executes any pack against any [`Backend`] shape and checks
//!   its oracles;
//! * [`packs`] — the four built-in packs (`smart-city`, `financial-ticks`,
//!   `iot-fleet`, `adversarial`): the `packs/*.json` documents, embedded.
//!
//! [`Backend`]: exacml_plus::Backend

pub mod files;
pub mod generator;
pub mod packs;
pub mod runner;
pub mod scenario;
pub mod spec;
pub mod streams;
pub mod zipf;

pub use files::{export_corpus, import_corpus, ImportedQuery, QueryFiles};
pub use generator::{ContinuousQuery, RequestSequence, WorkloadGenerator};
pub use runner::{run_pack, run_pack_checked, PackCounts, PackOutcome, PackRun, StageTelemetry};
pub use scenario::{
    Expectations, FieldGen, FieldSpec, PolicySpec, QuerySpec, ScenarioPack, ScriptStep, StreamSpec,
    SyntheticFeed, WindowData,
};
pub use spec::{CompositionMix, WorkloadSpec};
pub use streams::{GpsFeed, WeatherFeed};
pub use zipf::Zipf;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::generator::{ContinuousQuery, RequestSequence, WorkloadGenerator};
    pub use crate::runner::{run_pack, run_pack_checked, PackOutcome, PackRun};
    pub use crate::scenario::ScenarioPack;
    pub use crate::spec::{CompositionMix, WorkloadSpec};
    pub use crate::streams::{GpsFeed, WeatherFeed};
    pub use crate::zipf::Zipf;
}
