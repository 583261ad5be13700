//! Control-data flow graphs (CDFGs) for behavioral synthesis.
//!
//! This crate is the data-model substrate of the *local watermarks*
//! reproduction. It implements the computational model the paper builds on:
//! homogeneous synchronous data flow (SDF) expressed as a hierarchical
//! control-data flow graph — a DAG of operations connected by data, control,
//! and *temporal* edges (the latter being the constraint carriers used by the
//! scheduling watermark).
//!
//! # Contents
//!
//! * [`Cdfg`] — the graph itself, an arena of [`Node`]s and [`Edge`]s.
//! * [`OpKind`] — operation semantics, each with the unique *functionality
//!   identifier* `f(n)` required by the paper's node-ordering criterion C3.
//! * [`analysis`] — levels, fanin trees, distances and subtree extraction
//!   (the machinery behind criteria C1–C3 and domain selection).
//! * [`designs`] — the DSP designs of the paper's evaluation (4th-order
//!   parallel IIR, 8th-order continued-fraction IIR, wavelet filter, …).
//! * [`generators`] — synthetic MediaBench-scale CDFGs and random DAGs.
//!
//! # Example
//!
//! ```
//! use localwm_cdfg::{Cdfg, OpKind};
//!
//! let mut g = Cdfg::new();
//! let x = g.add_node(OpKind::Input);
//! let c = g.add_node(OpKind::Const);
//! let m = g.add_node(OpKind::Mul);
//! let y = g.add_node(OpKind::Output);
//! g.add_data_edge(x, m)?;
//! g.add_data_edge(c, m)?;
//! g.add_data_edge(m, y)?;
//! assert_eq!(g.node_count(), 4);
//! assert!(g.topo_order().is_ok());
//! # Ok::<(), localwm_cdfg::CdfgError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binfmt;
mod builder;
mod csr;
mod dot;
mod error;
mod graph;
mod id;
mod intern;
mod op;
mod textfmt;
mod topo;
mod unroll;

pub mod analysis;
pub mod designs;
pub mod generators;

pub use binfmt::{read_cdfg_binary, write_cdfg_binary};
pub use builder::CdfgBuilder;
pub use csr::Csr;
pub use error::CdfgError;
pub use graph::{Cdfg, Edge, EdgeKind, Node};
pub use id::{EdgeId, NodeId};
pub use intern::{StrArena, Sym};
pub use op::OpKind;
pub use textfmt::{parse_cdfg, write_cdfg};
pub use topo::{topo_order, TopoError};
pub use unroll::unroll;
