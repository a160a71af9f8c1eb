//! # fairprep-datasets
//!
//! Seeded synthetic generators for the benchmark datasets FairPrep
//! integrates (§4): `adult`, `germancredit`, `propublica` (COMPAS), and
//! `ricci`, plus the payment-options dataset from the paper's §1.1 running
//! example.
//!
//! The real datasets are not redistributable/downloadable in this
//! environment; the generators reproduce the *documented* statistical
//! structure the paper's experiments rely on (sizes, group proportions,
//! group-conditional base rates, feature–label correlations, missingness
//! patterns). See DESIGN.md for the substitution rationale and the
//! per-dataset module docs for the exact properties reproduced (each is
//! asserted by tests).

#![warn(missing_docs)]

pub mod adult;
pub mod compas;
pub mod gen;
pub mod german;
pub mod payment;
pub mod ricci;

pub use adult::{generate_adult, AdultProtected, ADULT_FULL_SIZE};
pub use compas::{generate_compas, CompasProtected, COMPAS_FULL_SIZE};
pub use german::{generate_german, generate_german_with, GermanProtected, GERMAN_FULL_SIZE};
pub use payment::generate_payment;
pub use ricci::{generate_ricci, RICCI_FULL_SIZE};
