//! Per-user privacy ledgers and the platform-wide accountant.
//!
//! The paper (§3.1): "the cumulative privacy loss can be tracked and
//! balanced across the user base". This module is that tracker:
//!
//! * [`UserLedger`] — one user's release count, the totals their loss is
//!   composed from (a conservative basic-composition total and a tight
//!   RDP total), and that loss, stated at [`crate::DEFAULT_DELTA`] and
//!   set once per release;
//! * [`Accountant`] — thread-safe map of ledgers for the whole platform.
//!   Each user's loss lives in their ledger alone: [`Accountant::record`]
//!   only folds into it, and [`Accountant::epsilon_summary`] derives the
//!   platform-wide distribution — and the count of users at or above a
//!   threshold, which the server's near-cap gauge reads — from one walk
//!   over every ledger's stored loss.
//!
//! The ledger keeps no per-release history: which survey a release
//! belonged to is the caller's record (the server's journal has it).

use crate::params::{Delta, Epsilon, PrivacyLoss};
use crate::rdp::RdpAccountant;
use crate::sensitivity::Sensitivity;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::{PoisonError, RwLock};

/// The mechanism class of a recorded release — enough information to
/// account for it tightly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ReleaseKind {
    /// Gaussian noise with this σ on a query of this sensitivity.
    Gaussian {
        /// Noise standard deviation.
        sigma: f64,
        /// Query sensitivity.
        sensitivity: f64,
    },
    /// A pure ε-DP release (Laplace, randomized response, exponential).
    Pure {
        /// The ε of the release.
        epsilon: f64,
    },
    /// An unobfuscated release — unbounded loss.
    Raw,
}

/// A declared release no mechanism can have. The ledger's arithmetic
/// asserts on such values, so they are refused where they enter: a submit
/// body or a journal record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidRelease {
    /// The parameter and the range it must lie in.
    pub reason: &'static str,
}

impl fmt::Display for InvalidRelease {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid release: {}", self.reason)
    }
}

impl std::error::Error for InvalidRelease {}

impl ReleaseKind {
    /// Checks that [`UserLedger::record`] can account for this release:
    /// every value finite, `sigma > 0`, `sensitivity > 0`, `epsilon >= 0`.
    pub fn check(&self) -> Result<(), InvalidRelease> {
        let reason = match *self {
            ReleaseKind::Gaussian { sigma, .. } if !(sigma.is_finite() && sigma > 0.0) => {
                "sigma must be finite and > 0"
            }
            ReleaseKind::Gaussian { sensitivity, .. }
                if !(sensitivity.is_finite() && sensitivity > 0.0) =>
            {
                "sensitivity must be finite and > 0"
            }
            ReleaseKind::Pure { epsilon } if !(epsilon.is_finite() && epsilon >= 0.0) => {
                "epsilon must be finite and >= 0"
            }
            _ => return Ok(()),
        };
        Err(InvalidRelease { reason })
    }
}

/// Privacy ledger for a single user: the release count, the totals the
/// loss is composed from, and the tight loss itself, kept current by
/// [`UserLedger::record`] so that reading it converts nothing.
#[derive(Debug, Clone)]
pub struct UserLedger {
    releases: usize,
    totals: Totals,
    loss: PrivacyLoss,
}

impl Default for UserLedger {
    fn default() -> Self {
        UserLedger::new()
    }
}

impl UserLedger {
    /// Creates an empty ledger.
    pub fn new() -> UserLedger {
        UserLedger {
            releases: 0,
            totals: Totals::new(),
            loss: PrivacyLoss::ZERO,
        }
    }

    /// Records one release and restates the tight loss.
    ///
    /// # Panics
    /// Panics if [`ReleaseKind::check`] rejects `kind`; callers fed from
    /// the wire check first.
    ///
    /// For Gaussian entries, the basic total uses the analytic per-release
    /// ε at [`crate::DEFAULT_DELTA`]; the RDP accountant tracks the exact
    /// divergence for tight composition.
    pub fn record(&mut self, kind: ReleaseKind) {
        self.totals.add(kind);
        self.releases = self.releases.saturating_add(1);
        self.loss = self.totals.tight_loss();
    }

    /// Number of recorded releases.
    pub fn len(&self) -> usize {
        self.releases
    }

    /// Whether the ledger is empty.
    pub fn is_empty(&self) -> bool {
        self.releases == 0
    }

    /// Conservative cumulative loss by basic composition.
    pub fn basic_loss(&self) -> PrivacyLoss {
        self.totals.basic
    }

    /// Tight cumulative loss via the RDP accountant, stated at
    /// [`crate::DEFAULT_DELTA`]. For an empty ledger this is exactly zero
    /// (no conversion overhead).
    pub fn tight_loss(&self) -> PrivacyLoss {
        self.loss
    }
}

/// What a ledger's loss is computed from: the RDP accountant and the
/// basic-composition total. A copy is a `[f64; 20]`, a flag and one loss,
/// so [`Accountant::loss_after`] probes a would-be charge on a copy.
#[derive(Debug, Clone)]
struct Totals {
    rdp: RdpAccountant,
    basic: PrivacyLoss,
}

impl Totals {
    fn new() -> Totals {
        Totals {
            rdp: RdpAccountant::new(),
            basic: PrivacyLoss::ZERO,
        }
    }

    /// Folds in one release, as [`UserLedger::record`] describes.
    fn add(&mut self, kind: ReleaseKind) {
        match kind {
            ReleaseKind::Gaussian { sigma, sensitivity } => {
                let sens = Sensitivity::new(sensitivity);
                self.rdp.add_gaussian(sens, sigma);
                let per = crate::mechanisms::gaussian::GaussianMechanism::from_sigma(
                    sigma,
                    sens,
                    Delta::new(crate::DEFAULT_DELTA),
                );
                self.basic = self.basic.compose(PrivacyLoss {
                    epsilon: per.epsilon(),
                    delta: Delta::new(crate::DEFAULT_DELTA),
                });
            }
            ReleaseKind::Pure { epsilon } => {
                let eps = Epsilon::new(epsilon);
                self.rdp.add_pure(eps);
                self.basic = self.basic.compose(PrivacyLoss {
                    epsilon: eps,
                    delta: Delta::ZERO,
                });
            }
            ReleaseKind::Raw => {
                self.rdp.add_unbounded();
                self.basic = self.basic.compose(PrivacyLoss::unbounded());
            }
        }
    }

    /// Tight cumulative loss of at least one folded-in release, stated at
    /// [`crate::DEFAULT_DELTA`].
    fn tight_loss(&self) -> PrivacyLoss {
        let delta = Delta::new(crate::DEFAULT_DELTA);
        let rdp = self.rdp.to_dp(delta);
        // The tight bound is never worse than basic composition; report the
        // minimum of the two (both are valid bounds at their own δ; we
        // compare conservatively at the larger δ).
        if self.basic.epsilon.value() < rdp.epsilon.value() {
            PrivacyLoss {
                epsilon: self.basic.epsilon,
                delta: self.basic.delta.saturating_add(delta),
            }
        } else {
            rdp
        }
    }
}

/// Number of internal ledger shards. Fixed (not tied to the server's
/// store shard count) so the accountant's concurrency is independent of
/// how the caller partitions surveys; must be a power of two only by
/// convention, the router uses `%` and works for any positive count.
const LEDGER_SHARDS: usize = 16;

/// FNV-1a 64-bit over the user id. Deterministic across processes —
/// unlike `std::collections::hash_map::RandomState` — so shard routing
/// is stable across restart and replay.
fn user_shard(user: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in user.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % LEDGER_SHARDS as u64) as usize
}

/// Thread-safe platform-wide accountant: one ledger per user.
///
/// Internally sharded by `fnv1a(user) % LEDGER_SHARDS` so concurrent
/// `record` calls for unrelated users never contend on one lock; every
/// public method presents the same single-map semantics as before.
#[derive(Debug)]
pub struct Accountant {
    shards: Vec<RwLock<HashMap<String, UserLedger>>>,
}

impl Default for Accountant {
    fn default() -> Self {
        Accountant {
            shards: (0..LEDGER_SHARDS).map(|_| RwLock::default()).collect(),
        }
    }
}

impl Accountant {
    /// Creates an empty accountant.
    pub fn new() -> Accountant {
        Accountant::default()
    }

    fn shard_for(&self, user: &str) -> &RwLock<HashMap<String, UserLedger>> {
        &self.shards[user_shard(user)]
    }

    /// Records a release for a user, creating the ledger on first use.
    pub fn record(&self, user: &str, kind: ReleaseKind) {
        self.shard_for(user)
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(user.to_owned())
            .or_default()
            .record(kind);
    }

    /// The tight cumulative loss of one user (zero if unknown), as stored
    /// by their ledger.
    pub fn loss_of(&self, user: &str) -> PrivacyLoss {
        self.shard_for(user)
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(user)
            .map_or(PrivacyLoss::ZERO, UserLedger::tight_loss)
    }

    /// The tight loss `user` would have after also recording `releases`,
    /// without recording them: the same number, bit for bit, as recording
    /// them on a copy of the ledger and reading
    /// [`UserLedger::tight_loss`]. Only the ledger's totals are copied
    /// under the read lock, and the loss is converted once, not once per
    /// release.
    pub fn loss_after(
        &self,
        user: &str,
        releases: impl IntoIterator<Item = ReleaseKind>,
    ) -> PrivacyLoss {
        let (mut totals, stored) = self
            .shard_for(user)
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(user)
            .map_or_else(
                || (Totals::new(), PrivacyLoss::ZERO),
                |l| (l.totals.clone(), l.loss),
            );
        let mut added = false;
        for kind in releases {
            totals.add(kind);
            added = true;
        }
        if added {
            totals.tight_loss()
        } else {
            stored
        }
    }

    /// Number of releases recorded for one user.
    pub fn releases_of(&self, user: &str) -> usize {
        self.shard_for(user)
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(user)
            .map_or(0, UserLedger::len)
    }

    /// Number of users with a ledger.
    pub fn user_count(&self) -> usize {
        let mut total = 0usize;
        for shard in &self.shards {
            total =
                total.saturating_add(shard.read().unwrap_or_else(PoisonError::into_inner).len());
        }
        total
    }

    /// Counts users per caller-defined bucket (e.g. the server's store
    /// shards) by walking ledger keys only — no loss computation. The
    /// returned vector has `buckets` entries; `bucket_of` values outside
    /// the range are ignored.
    pub fn count_users_by<F: Fn(&str) -> usize>(&self, buckets: usize, bucket_of: F) -> Vec<usize> {
        let mut counts = vec![0usize; buckets];
        for shard in &self.shards {
            for user in shard.read().unwrap_or_else(PoisonError::into_inner).keys() {
                let b = bucket_of(user);
                if let Some(c) = counts.get_mut(b) {
                    *c = c.saturating_add(1);
                }
            }
        }
        counts
    }

    /// Aggregate statistics of cumulative ε across the user base, for
    /// observability scrapes: quantiles and mean are over the finite
    /// ledgers; `max` is `+∞` whenever any user's total is unbounded.
    /// The same walk counts the users whose total is at or above
    /// `threshold`, unbounded users included (`+∞` counts exactly them).
    /// Each ledger's loss is read as stored: the walk converts nothing.
    pub fn epsilon_summary(&self, threshold: f64) -> EpsilonSummary {
        let mut users = 0usize;
        let mut finite: Vec<f64> = Vec::new();
        let mut unbounded = 0usize;
        let mut at_or_above = 0usize;
        for shard in &self.shards {
            let ledgers = shard.read().unwrap_or_else(PoisonError::into_inner);
            users = users.saturating_add(ledgers.len());
            for ledger in ledgers.values() {
                let total = ledger.loss.epsilon.value();
                if total >= threshold {
                    at_or_above = at_or_above.saturating_add(1);
                }
                if total.is_finite() {
                    finite.push(total);
                } else {
                    unbounded = unbounded.saturating_add(1);
                }
            }
        }
        finite.sort_by(f64::total_cmp);
        let mean = if finite.is_empty() {
            0.0
        } else {
            let total: f64 = finite.iter().sum();
            total / finite.len() as f64
        };
        let max = if unbounded > 0 {
            f64::INFINITY
        } else {
            finite.last().copied().unwrap_or(0.0)
        };
        EpsilonSummary {
            users,
            unbounded,
            at_or_above,
            p50: quantile_sorted(&finite, 0.50),
            p90: quantile_sorted(&finite, 0.90),
            p99: quantile_sorted(&finite, 0.99),
            mean,
            max,
        }
    }
}

/// Aggregate cumulative-ε statistics across the user base (§3.1's
/// platform-wide view of tracked loss).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpsilonSummary {
    /// Users with a ledger.
    pub users: usize,
    /// Users whose cumulative loss is unbounded (a raw release recorded).
    pub unbounded: usize,
    /// Users whose cumulative ε is at or above the summary's threshold
    /// (unbounded users included).
    pub at_or_above: usize,
    /// Median cumulative ε over finite ledgers (0 if none).
    pub p50: f64,
    /// 90th-percentile cumulative ε over finite ledgers.
    pub p90: f64,
    /// 99th-percentile cumulative ε over finite ledgers.
    pub p99: f64,
    /// Mean cumulative ε over finite ledgers.
    pub mean: f64,
    /// Maximum cumulative ε; `+∞` when any ledger is unbounded.
    pub max: f64,
}

/// Nearest-rank quantile of an ascending-sorted slice (0 when empty).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    let idx = rank.saturating_sub(1).min(sorted.len().saturating_sub(1));
    sorted.get(idx).copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gaussian_entry() -> ReleaseKind {
        ReleaseKind::Gaussian {
            sigma: 2.0,
            sensitivity: 4.0,
        }
    }

    #[test]
    fn empty_ledger_is_zero() {
        let l = UserLedger::new();
        assert!(l.is_empty());
        assert_eq!(l.basic_loss(), PrivacyLoss::ZERO);
        assert_eq!(l.tight_loss(), PrivacyLoss::ZERO);
    }

    #[test]
    fn record_accumulates() {
        let mut l = UserLedger::new();
        l.record(gaussian_entry());
        l.record(gaussian_entry());
        assert_eq!(l.len(), 2);
        let one = {
            let mut l1 = UserLedger::new();
            l1.record(gaussian_entry());
            l1.basic_loss().epsilon.value()
        };
        assert!((l.basic_loss().epsilon.value() - 2.0 * one).abs() < 1e-9);
    }

    #[test]
    fn tight_never_exceeds_basic_epsilon() {
        let mut l = UserLedger::new();
        for _ in 0..50 {
            l.record(gaussian_entry());
        }
        let basic = l.basic_loss().epsilon.value();
        let tight = l.tight_loss().epsilon.value();
        assert!(tight <= basic, "tight {tight} > basic {basic}");
        // And for 50 releases it should be a lot tighter.
        assert!(tight < basic * 0.7, "tight {tight} vs basic {basic}");
    }

    #[test]
    fn raw_release_is_unbounded() {
        let mut l = UserLedger::new();
        l.record(ReleaseKind::Raw);
        assert!(!l.basic_loss().is_finite());
        assert!(!l.tight_loss().is_finite());
    }

    #[test]
    fn pure_entries_tracked() {
        let mut l = UserLedger::new();
        l.record(ReleaseKind::Pure { epsilon: 0.5 });
        assert!((l.basic_loss().epsilon.value() - 0.5).abs() < 1e-12);
        assert_eq!(l.basic_loss().delta, Delta::ZERO);
    }

    #[test]
    fn loss_after_equals_recording_on_a_cloned_ledger() {
        let gauss = |sigma, sensitivity| ReleaseKind::Gaussian { sigma, sensitivity };
        let pure = |epsilon| ReleaseKind::Pure { epsilon };
        let sets: Vec<Vec<ReleaseKind>> = vec![
            vec![],
            vec![gauss(1.0, 4.0)],
            vec![gauss(2.0, 4.0), gauss(0.5, 1.0)],
            vec![pure(0.5)],
            vec![pure(0.0)],
            vec![gauss(8.0, 4.0), pure(1.5)],
            vec![ReleaseKind::Raw],
            vec![pure(0.25), ReleaseKind::Raw, gauss(1.0, 2.0)],
            vec![gauss(16.0, 4.0); 5],
        ];
        for (h, history) in sets.iter().enumerate() {
            // An empty history leaves the user without a ledger.
            let acc = Accountant::new();
            let mut ledger = UserLedger::new();
            for kind in history {
                acc.record("u", *kind);
                ledger.record(*kind);
            }
            for (r, releases) in sets.iter().enumerate() {
                let mut scratch = ledger.clone();
                for kind in releases {
                    scratch.record(*kind);
                }
                let want = scratch.tight_loss();
                let got = acc.loss_after("u", releases.iter().copied());
                assert_eq!(
                    got.epsilon.value().to_bits(),
                    want.epsilon.value().to_bits(),
                    "ε of history {h} + releases {r}: {got:?} vs {want:?}"
                );
                assert_eq!(
                    got.delta.value().to_bits(),
                    want.delta.value().to_bits(),
                    "δ of history {h} + releases {r}: {got:?} vs {want:?}"
                );
            }
            assert_eq!(
                acc.releases_of("u"),
                history.len(),
                "the probe records nothing"
            );
        }
    }

    /// The stored loss, over a fixed-seed mix of Gaussian (σ ∈ {0.5, 1,
    /// 2}), pure and raw releases, equals bit for bit both a fresh
    /// conversion of the ledger's totals and the conversion every read
    /// used to make: fold each release into an RDP accountant and a basic
    /// total, then state the tighter of the two at the default δ.
    #[test]
    fn stored_loss_equals_fold_then_convert() {
        let delta = Delta::new(crate::DEFAULT_DELTA);
        let mut rng = loki_rng::ChaCha20Rng::seed_from_u64(34);
        let mut raw_sequences = 0;
        for sequence in 0..8 {
            let mut ledger = UserLedger::new();
            let mut rdp = RdpAccountant::new();
            let mut basic = PrivacyLoss::ZERO;
            for step in 0..40 {
                let kind = match rng.gen_range_u32(0..40) {
                    0 => ReleaseKind::Raw,
                    1..=24 => ReleaseKind::Gaussian {
                        sigma: [0.5, 1.0, 2.0][rng.gen_range_usize(..3)],
                        sensitivity: 4.0,
                    },
                    _ => ReleaseKind::Pure {
                        epsilon: rng.gen_range_f64(0.0..1.0),
                    },
                };
                ledger.record(kind);
                let per = match kind {
                    ReleaseKind::Gaussian { sigma, sensitivity } => {
                        let sens = Sensitivity::new(sensitivity);
                        rdp.add_gaussian(sens, sigma);
                        let mech = crate::mechanisms::gaussian::GaussianMechanism::from_sigma(
                            sigma, sens, delta,
                        );
                        PrivacyLoss {
                            epsilon: mech.epsilon(),
                            delta,
                        }
                    }
                    ReleaseKind::Pure { epsilon } => {
                        rdp.add_pure(Epsilon::new(epsilon));
                        PrivacyLoss {
                            epsilon: Epsilon::new(epsilon),
                            delta: Delta::ZERO,
                        }
                    }
                    ReleaseKind::Raw => {
                        rdp.add_unbounded();
                        PrivacyLoss::unbounded()
                    }
                };
                basic = basic.compose(per);
                let converted = rdp.to_dp(delta);
                let reference = if basic.epsilon.value() < converted.epsilon.value() {
                    PrivacyLoss {
                        epsilon: basic.epsilon,
                        delta: basic.delta.saturating_add(delta),
                    }
                } else {
                    converted
                };
                let stored = ledger.tight_loss();
                for (what, want) in [
                    ("fresh conversion", ledger.totals.tight_loss()),
                    ("fold then convert", reference),
                ] {
                    assert_eq!(
                        (
                            stored.epsilon.value().to_bits(),
                            stored.delta.value().to_bits()
                        ),
                        (want.epsilon.value().to_bits(), want.delta.value().to_bits()),
                        "{what}, sequence {sequence} step {step}: {stored:?} vs {want:?}"
                    );
                }
            }
            if !ledger.tight_loss().is_finite() {
                raw_sequences += 1;
            }
        }
        assert!(
            (1..8).contains(&raw_sequences),
            "the mix must leave some sequences finite and turn others unbounded"
        );
    }

    #[test]
    fn accountant_tracks_users_independently() {
        let acc = Accountant::new();
        acc.record("alice", gaussian_entry());
        acc.record("alice", gaussian_entry());
        acc.record("bob", gaussian_entry());
        assert_eq!(acc.user_count(), 2);
        assert_eq!(acc.releases_of("alice"), 2);
        assert_eq!(acc.releases_of("bob"), 1);
        assert_eq!(acc.releases_of("carol"), 0);
        assert!(acc.loss_of("alice").epsilon.value() > acc.loss_of("bob").epsilon.value());
        assert_eq!(acc.loss_of("carol"), PrivacyLoss::ZERO);
    }

    #[test]
    fn epsilon_summary_statistics() {
        let acc = Accountant::new();
        let empty = acc.epsilon_summary(f64::INFINITY);
        assert_eq!(empty.users, 0);
        assert_eq!(empty.max.to_bits(), 0.0f64.to_bits());

        // Ten users with 1..=10 pure releases of ε=0.1 each.
        for (i, n) in (1..=10).enumerate() {
            for _ in 0..n {
                acc.record(&format!("u{i}"), ReleaseKind::Pure { epsilon: 0.1 });
            }
        }
        let s = acc.epsilon_summary(0.75);
        assert_eq!(s.users, 10);
        assert_eq!(s.unbounded, 0);
        assert!((s.mean - 0.55).abs() < 1e-9, "mean = {}", s.mean);
        assert!((s.p50 - 0.5).abs() < 1e-9, "p50 = {}", s.p50);
        assert!((s.p90 - 0.9).abs() < 1e-9, "p90 = {}", s.p90);
        assert!((s.p99 - 1.0).abs() < 1e-9, "p99 = {}", s.p99);
        assert!((s.max - 1.0).abs() < 1e-9, "max = {}", s.max);
        assert_eq!(s.at_or_above, 3, "ε 0.8, 0.9 and 1.0 reach 0.75");

        // One raw release flips max to +inf but leaves quantiles finite.
        acc.record("leaker", ReleaseKind::Raw);
        let s = acc.epsilon_summary(0.75);
        assert_eq!(s.users, 11);
        assert_eq!(s.unbounded, 1);
        assert_eq!(s.at_or_above, 4);
        assert!(s.max.is_infinite());
        assert!(s.p99.is_finite());
    }

    #[test]
    fn quantile_sorted_nearest_rank() {
        assert_eq!(quantile_sorted(&[], 0.5).to_bits(), 0.0f64.to_bits());
        assert_eq!(quantile_sorted(&[3.0], 0.99).to_bits(), 3.0f64.to_bits());
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&xs, 0.0).to_bits(), 1.0f64.to_bits());
        assert_eq!(quantile_sorted(&xs, 0.5).to_bits(), 2.0f64.to_bits());
        assert_eq!(quantile_sorted(&xs, 1.0).to_bits(), 4.0f64.to_bits());
    }

    #[test]
    fn check_refuses_what_record_would_panic_on() {
        let bad = [
            ReleaseKind::Pure { epsilon: -1.0 },
            ReleaseKind::Pure { epsilon: f64::NAN },
            ReleaseKind::Gaussian {
                sigma: 0.0,
                sensitivity: 1.0,
            },
            ReleaseKind::Gaussian {
                sigma: -2.0,
                sensitivity: 1.0,
            },
            ReleaseKind::Gaussian {
                sigma: f64::NAN,
                sensitivity: 1.0,
            },
            ReleaseKind::Gaussian {
                sigma: 1.0,
                sensitivity: 0.0,
            },
            ReleaseKind::Gaussian {
                sigma: 1.0,
                sensitivity: f64::INFINITY,
            },
        ];
        for kind in bad {
            let err = kind.check().expect_err("must be refused");
            assert!(err.to_string().starts_with("invalid release: "), "{err}");
            let recorded = std::panic::catch_unwind(|| UserLedger::new().record(kind));
            assert!(recorded.is_err(), "{kind:?} is refused but records fine");
        }
        // The ledger would take an infinite ε, but an unbounded release
        // is spelled `Raw`: a wire value of ∞ is refused too.
        let infinite = ReleaseKind::Pure {
            epsilon: f64::INFINITY,
        };
        assert!(infinite.check().is_err());
    }

    #[test]
    fn every_checked_release_records_without_panicking() {
        let edges = [f64::MIN_POSITIVE, 1e-300, 1e-3, 1.0, 1e300, f64::MAX];
        let mut kinds = vec![ReleaseKind::Raw, ReleaseKind::Pure { epsilon: 0.0 }];
        for &a in &edges {
            kinds.push(ReleaseKind::Pure { epsilon: a });
            for &b in &edges {
                kinds.push(ReleaseKind::Gaussian {
                    sigma: a,
                    sensitivity: b,
                });
            }
        }
        let mut ledger = UserLedger::new();
        for kind in kinds {
            assert_eq!(kind.check(), Ok(()), "{kind:?}");
            ledger.record(kind);
        }
    }

    #[test]
    fn ledger_shard_routing_is_deterministic() {
        // Same user id must hit the same internal shard in any process
        // (restart/replay stability) — pin a few values so a hash change
        // is a conscious decision, not an accident.
        for user in ["alice", "bob", "t0-u63", ""] {
            let owned = String::from(user);
            assert_eq!(user_shard(user), user_shard(&owned));
            assert!(user_shard(user) < LEDGER_SHARDS);
        }
        assert_eq!(user_shard("alice"), 7);
        assert_eq!(user_shard("bob"), 4);
    }

    #[test]
    fn count_users_by_walks_every_shard() {
        let acc = Accountant::new();
        for i in 0..40 {
            acc.record(&format!("u{i}"), gaussian_entry());
        }
        // Bucket by the same internal router: totals must agree with
        // user_count and out-of-range buckets must be dropped, not panic.
        let counts = acc.count_users_by(LEDGER_SHARDS, user_shard);
        assert_eq!(counts.iter().sum::<usize>(), acc.user_count());
        let none = acc.count_users_by(1, |_| 7);
        assert_eq!(none, vec![0]);
    }

    #[test]
    fn accountant_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Accountant>();
    }

    /// The oracle for `epsilon_summary`'s count: each ledgered user's own
    /// tight ε compared with the threshold, one user at a time.
    fn brute_force_at_or_above(acc: &Accountant, users: &[String], threshold: f64) -> usize {
        users
            .iter()
            .filter(|u| acc.releases_of(u) > 0)
            .filter(|u| acc.loss_of(u).epsilon.value() >= threshold)
            .count()
    }

    #[test]
    fn epsilon_summary_counts_at_or_above_like_brute_force() {
        let acc = Accountant::new();
        let users: Vec<String> = (0..40).map(|i| format!("u{i}")).collect();
        let mut rng = loki_rng::ChaCha20Rng::seed_from_u64(29);
        for _ in 0..300 {
            let user = &users[rng.gen_range_usize(..users.len())];
            let kind = match rng.gen_range_u32(0..40) {
                0 => ReleaseKind::Raw,
                1..=19 => ReleaseKind::Gaussian {
                    sigma: rng.gen_range_f64(0.5..4.0),
                    sensitivity: 4.0,
                },
                _ => ReleaseKind::Pure {
                    epsilon: rng.gen_range_f64(0.0..1.0),
                },
            };
            acc.record(user, kind);
        }
        // Thresholds just below, exactly at and just above every finite
        // user ε, plus 0 and +∞ (which count the unbounded users alone).
        let mut thresholds = vec![0.0, f64::INFINITY];
        let mut unbounded = 0;
        for user in users.iter().filter(|u| acc.releases_of(u) > 0) {
            let eps = acc.loss_of(user).epsilon.value();
            if eps.is_finite() {
                let bits = eps.to_bits();
                thresholds.extend([f64::from_bits(bits - 1), eps, f64::from_bits(bits + 1)]);
            } else {
                unbounded += 1;
            }
        }
        assert!(unbounded > 0, "the mix must include a raw release");
        for threshold in thresholds {
            let summary = acc.epsilon_summary(threshold);
            assert_eq!(
                summary.at_or_above,
                brute_force_at_or_above(&acc, &users, threshold),
                "threshold {threshold}"
            );
        }
        assert_eq!(acc.epsilon_summary(f64::INFINITY).at_or_above, unbounded);
        assert_eq!(acc.epsilon_summary(0.0).at_or_above, acc.user_count());
    }

    #[test]
    fn a_user_who_turns_unbounded_is_counted_once() {
        let acc = Accountant::new();
        acc.record("w", ReleaseKind::Pure { epsilon: 0.1 });
        assert_eq!(acc.epsilon_summary(10.0).at_or_above, 0);
        acc.record("w", ReleaseKind::Raw);
        // Further releases of either kind leave one unbounded user.
        acc.record("w", ReleaseKind::Raw);
        acc.record("w", ReleaseKind::Pure { epsilon: 0.1 });
        for threshold in [0.0, 10.0, f64::INFINITY] {
            let summary = acc.epsilon_summary(threshold);
            assert_eq!(
                (summary.users, summary.unbounded, summary.at_or_above),
                (1, 1, 1),
                "threshold {threshold}"
            );
        }
    }
}
