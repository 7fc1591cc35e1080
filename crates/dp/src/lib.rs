//! # loki-dp — differential-privacy substrate for the Loki survey platform
//!
//! This crate provides the mathematical machinery behind Loki's at-source
//! obfuscation (Kandappu et al., *Exposing and Mitigating Privacy Loss in
//! Crowdsourced Survey Platforms*, CoNEXT SW'13, §3.1):
//!
//! * **Privacy parameters** — [`params::Epsilon`], [`params::Delta`] and the
//!   combined [`params::PrivacyLoss`], with saturating arithmetic so that a
//!   "no privacy" response is representable as `ε = ∞`.
//! * **Mechanisms** — the Gaussian mechanism (σ-parameterized, with the
//!   analytic Balle–Wang ε(σ, δ) conversion), the Laplace mechanism, k-ary
//!   randomized response and the exponential mechanism ([`mechanisms`]).
//! * **Composition** — basic composition through [`params::PrivacyLoss`]
//!   plus a Rényi-DP accountant for tight Gaussian composition ([`rdp`]).
//! * **Accounting** — a per-user privacy ledger that composes every
//!   obfuscated response into one stored loss at [`DEFAULT_DELTA`],
//!   supporting the paper's goal that "cumulative privacy loss can be
//!   tracked and balanced across the user base" ([`accountant`]).
//! * **Utility analysis** — predicted estimator error as a function of noise
//!   scale and sample size, used to validate the accuracy/privacy trade-off
//!   of Fig. 2 ([`utility`]).
//! * **Sampling** — deterministic, seedable noise sampling built directly on
//!   [`loki_rng`] draws (Box–Muller / inverse-CDF), so experiments replay
//!   exactly ([`sampling`]).
//!
//! All randomness flows through explicitly-passed RNGs; nothing in this
//! crate reads the OS entropy pool on its own.
//!
//! # Example
//!
//! Calibrate the Gaussian mechanism for a 1–5 rating, release a noisy
//! answer, and account for it. The ledger states its tight loss at
//! [`DEFAULT_DELTA`] when it records the release, so reading it converts
//! nothing:
//!
//! ```
//! use loki_dp::mechanisms::gaussian::GaussianMechanism;
//! use loki_dp::mechanisms::Mechanism;
//! use loki_dp::params::Delta;
//! use loki_dp::accountant::{ReleaseKind, UserLedger};
//! use loki_dp::Sensitivity;
//!
//! let mech = GaussianMechanism::from_sigma(
//!     1.0,                                  // the app's "medium" level
//!     Sensitivity::new(4.0),                // the width of a 1–5 scale
//!     Delta::new(loki_dp::DEFAULT_DELTA),
//! );
//! let mut rng = loki_rng::ChaCha20Rng::seed_from_u64(7);
//! let noisy = mech.release(&mut rng, 4.0);
//! assert!(noisy.is_finite());
//!
//! let mut ledger = UserLedger::new();
//! ledger.record(ReleaseKind::Gaussian { sigma: 1.0, sensitivity: 4.0 });
//! let tight = ledger.tight_loss();
//! assert!(tight.is_finite());
//! assert!(tight.epsilon.value() <= ledger.basic_loss().epsilon.value());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accountant;
pub mod mechanisms;
pub mod params;
pub mod rdp;
pub mod sampling;
pub mod sensitivity;
pub mod special;
pub mod utility;

pub use accountant::{Accountant, UserLedger};
pub use mechanisms::gaussian::GaussianMechanism;
pub use mechanisms::laplace::LaplaceMechanism;
pub use mechanisms::randomized_response::RandomizedResponse;
pub use params::{Delta, Epsilon, PrivacyLoss};
pub use sensitivity::Sensitivity;

/// Default δ used by Loki when converting a noise level to an (ε, δ) pair.
///
/// The trial population in the paper is on the order of 10² users; δ = 10⁻⁵
/// keeps the failure probability far below 1/n for any plausible deployment.
pub const DEFAULT_DELTA: f64 = 1e-5;

#[cfg(test)]
mod tests {
    #[test]
    fn default_delta_is_small() {
        let delta = super::DEFAULT_DELTA;
        assert!(delta < 1e-3, "default delta {delta} too large");
    }
}
