//! One-shot LDP frequency-estimation protocols and their estimators.
//!
//! This crate reproduces §2.3 of the LOLOHA paper (Arcolezi et al., EDBT
//! 2023): the three classic families of locally differentially private
//! frequency oracles that every longitudinal protocol in this workspace is
//! built from.
//!
//! * [`Grr`] — Generalized Randomized Response over a `k`-ary domain.
//! * [`LhClient`]/[`LhServer`] — Local Hashing (BLH with `g = 2`, OLH with
//!   `g = ⌊e^ε + 1⌉`): hash into a reduced domain, then GRR over it.
//! * [`UeClient`]/[`UeServer`] — Unary Encoding (SUE, the RAPPOR encoding,
//!   and OUE, the optimized variant).
//! * [`HadamardResponse`]/[`HrServer`] — the communication-efficient
//!   Hadamard Response oracle cited as \[2\], with an O(K log K)
//!   Walsh–Hadamard aggregation server (extension).
//!
//! It also hosts the estimator/variance toolbox shared by the longitudinal
//! crates:
//!
//! * Eq. (1): [`estimator::frequency_estimates`] — the unbiased one-round
//!   estimator.
//! * Eq. (3): [`estimator::chained_frequency_estimates`] — the two-round
//!   (PRR ∘ IRR) estimator.
//! * Eq. (4)/(5): [`estimator::chained_variance`] /
//!   [`estimator::chained_variance_approx`].
//!
//! All mechanisms expose their exact transition probabilities so tests can
//! verify the ε-LDP inequality directly on the transition matrix rather
//! than trusting the algebra.
//!
//! Finally, the crate hosts the workspace's single durable-format
//! substrate: [`codec`], the versioned checkpoint container (magic +
//! version + fingerprint header, length-prefixed framing, FNV-1a checksum
//! trailer, atomic file replacement) that `loloha::persist`,
//! `ldp_ingest::store`, and `ldp_client::store` all encode through. The
//! normative byte-level spec is `docs/CHECKPOINT_FORMAT.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitvec;
pub mod codec;
pub mod error;
pub mod estimator;
pub mod grr;
pub mod hadamard;
pub mod lh;
pub mod params;
pub mod ue;

pub use bitvec::{for_each_set_bit, BitVec};
pub use codec::{CodecError, CodecReader, CodecWriter};
pub use error::ParamError;
pub use grr::Grr;
pub use hadamard::{HadamardResponse, HrServer};
pub use lh::{LhClient, LhMode, LhReport, LhServer};
pub use params::PerturbParams;
pub use ue::{UeClient, UeServer};
