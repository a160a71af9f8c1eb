//! # fairprep-cli
//!
//! The `fairprep` command line as a library: argument parsing
//! ([`args`]), component construction ([`build`]), command dispatch
//! ([`app`]), and the sealed-pipeline scoring service ([`serve`]).
//!
//! The binary (`src/main.rs`) is a one-line shim over
//! [`app::run_main`] so that integration tests, golden-fixture
//! generators, and benchmarks exercise the same code the installed
//! `fairprep` executable runs — including an in-process HTTP server
//! bound to an ephemeral port.

#![warn(missing_docs)]

pub mod app;
pub mod args;
pub mod build;
pub mod golden;
pub mod serve;
pub mod tail;
