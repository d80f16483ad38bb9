//! # exacml-dsms — an Aurora-model Data Stream Management System
//!
//! The eXACML+ paper deploys its access-controlled continuous queries on the
//! commercial **StreamBase** engine, which implements the **Aurora** stream
//! model: a data stream is an append-only sequence of tuples sharing a
//! schema, and a continuous query is a directed acyclic graph ("query
//! graph") of operator *boxes* applied to every arriving tuple. The paper
//! uses three boxes — **filter** (selection), **map** (projection) and
//! **window-based aggregation** — plus the StreamSQL textual form of the
//! graphs.
//!
//! StreamBase is proprietary, so this crate is a from-scratch substitute
//! that implements exactly the model surface the paper depends on:
//!
//! * typed schemas, tuples and append-only streams ([`Schema`], [`Tuple`]),
//! * the three operator boxes with tuple- and time-based sliding windows
//!   ([`FilterOp`], [`MapOp`], [`AggregateOp`], [`WindowSpec`]),
//! * query graphs with schema validation and output-schema inference
//!   ([`QueryGraph`]),
//! * a continuous-query engine that registers input streams, deploys and
//!   withdraws query graphs, pushes tuples and delivers derived tuples to
//!   subscribers ([`StreamEngine`]) — internally synchronized and sharded by
//!   stream, so every operation takes `&self` and pushes to different
//!   streams run in parallel,
//! * a StreamSQL dialect writer/parser matching Figure 4(b) of the paper
//!   ([`streamsql`]),
//! * a catalog of stream handles (URIs) that the framework returns to
//!   clients instead of raw data ([`StreamCatalog`]).
//!
//! ```
//! use exacml_dsms::{QueryGraphBuilder, Schema, StreamEngine, Tuple, Value};
//!
//! // The weather schema of the paper's Example 1.
//! let schema = Schema::weather_example();
//! let engine = StreamEngine::new();
//! engine.register_stream("weather", schema.clone()).unwrap();
//!
//! // filter(rainrate > 5) → map(samplingtime, rainrate) on the stream.
//! let graph = QueryGraphBuilder::on_stream("weather")
//!     .filter_str("rainrate > 5").unwrap()
//!     .map(["samplingtime", "rainrate"])
//!     .build();
//! let deployment = engine.deploy(&graph).unwrap();
//! let rx = engine.subscribe(&deployment.output_handle).unwrap();
//!
//! engine.push("weather", Tuple::builder(&schema)
//!     .set("samplingtime", Value::Timestamp(0))
//!     .set("rainrate", Value::Double(9.0))
//!     .finish_with_defaults()).unwrap();
//! let derived = rx.take_all();
//! assert_eq!(derived.len(), 1);
//! assert_eq!(derived[0].get("rainrate").unwrap(), &Value::Double(9.0));
//! ```

#![warn(unreachable_pub)]

mod catalog;
mod compiled;
mod engine;
mod error;
mod graph;
mod ops;
mod schema;
pub mod streamsql;
mod tuple;
mod value;
mod window;

pub use catalog::{StreamCatalog, StreamHandle};
pub use compiled::ResidualSpec;
pub use engine::{Deployment, DeploymentId, StreamEngine, TupleReceiver};
pub use error::DsmsError;
pub use graph::{GraphNode, QueryGraph, QueryGraphBuilder};
pub use ops::aggregate::{AggFunc, AggSpec, AggregateOp};
pub use ops::filter::FilterOp;
pub use ops::map::MapOp;
pub use ops::Operator;
pub use schema::{Field, Schema};
pub use tuple::{Tuple, TupleBuilder};
pub use value::{DataType, Value};
pub use window::{SlidingBuffer, WindowKind, WindowSpec};
