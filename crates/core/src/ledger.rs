//! Cumulative privacy accounting and budget balancing across the user base.
//!
//! §3.1: the framework ensures "the cumulative privacy loss can be tracked
//! and balanced across the user base, while ensuring sufficient accuracy
//! of the aggregated response". Tracking is [`loki_dp::Accountant`];
//! *balancing* is this module's [`BudgetBalancer`]: when a new survey
//! needs `n` respondents, invite the users who have lost the least so
//! far, rather than whoever shows up — flattening the loss distribution.
//!
//! EXP-6 compares [`AllocationStrategy::LeastLoss`] against
//! [`AllocationStrategy::Uniform`] (status quo: random recruitment).

// The balancer compares composed ε values: exact float equality on them
// is ulp-fragile, so this module takes dp's float_cmp lint.
#![warn(clippy::float_cmp)]

use loki_dp::accountant::{quantile_sorted, Accountant};
use loki_rng::ChaCha20Rng;

/// How respondents are selected for a new survey.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationStrategy {
    /// Uniformly random recruitment (what an open marketplace does).
    Uniform,
    /// Invite the users with the smallest cumulative ε first.
    LeastLoss,
}

/// Selects survey respondents so cumulative loss stays balanced.
#[derive(Debug)]
pub struct BudgetBalancer {
    strategy: AllocationStrategy,
}

impl BudgetBalancer {
    /// Creates a balancer.
    pub fn new(strategy: AllocationStrategy) -> BudgetBalancer {
        BudgetBalancer { strategy }
    }

    /// The strategy in use.
    pub fn strategy(&self) -> AllocationStrategy {
        self.strategy
    }

    /// Picks `n` users (by id) from `users` to invite to the next survey.
    ///
    /// For [`AllocationStrategy::LeastLoss`] users are ranked by current
    /// cumulative ε in `accountant` (ties broken by id for determinism);
    /// for [`AllocationStrategy::Uniform`] the choice is a random sample.
    ///
    /// # Panics
    /// Panics if `n > users.len()`.
    pub fn select(
        &self,
        rng: &mut ChaCha20Rng,
        accountant: &Accountant,
        users: &[String],
        n: usize,
    ) -> Vec<String> {
        assert!(
            n <= users.len(),
            "cannot select {n} of {} users",
            users.len()
        );
        match self.strategy {
            AllocationStrategy::Uniform => {
                let mut pool: Vec<&String> = users.iter().collect();
                rng.shuffle(&mut pool);
                pool.into_iter().take(n).cloned().collect()
            }
            AllocationStrategy::LeastLoss => {
                let mut ranked: Vec<(&String, f64)> = users
                    .iter()
                    .map(|u| (u, accountant.loss_of(u).epsilon.value()))
                    .collect();
                ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(b.0)));
                ranked.into_iter().take(n).map(|(u, _)| u.clone()).collect()
            }
        }
    }

    /// Summary of the current loss distribution (max/mean and the
    /// p50/p95/p99 quantiles) over the given users. Infinite losses
    /// propagate to max/mean.
    pub fn loss_summary(&self, accountant: &Accountant, users: &[String]) -> LossSummary {
        let mut losses: Vec<f64> = users
            .iter()
            .map(|u| accountant.loss_of(u).epsilon.value())
            .collect();
        losses.sort_by(f64::total_cmp);
        let n = losses.len();
        let max = losses.last().copied().unwrap_or(0.0);
        let mean = if n == 0 {
            0.0
        } else {
            losses.iter().sum::<f64>() / n as f64
        };
        LossSummary {
            max,
            mean,
            p50: quantile_sorted(&losses, 0.50),
            p95: quantile_sorted(&losses, 0.95),
            p99: quantile_sorted(&losses, 0.99),
        }
    }
}

/// Distribution summary of cumulative ε across users.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossSummary {
    /// Largest cumulative ε.
    pub max: f64,
    /// Mean cumulative ε.
    pub mean: f64,
    /// Median cumulative ε.
    pub p50: f64,
    /// 95th percentile cumulative ε.
    pub p95: f64,
    /// 99th percentile cumulative ε.
    pub p99: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use loki_dp::accountant::ReleaseKind;

    fn users(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("u{i:03}")).collect()
    }

    fn gaussian() -> ReleaseKind {
        ReleaseKind::Gaussian {
            sigma: 1.0,
            sensitivity: 4.0,
        }
    }

    #[test]
    fn least_loss_prefers_fresh_users() {
        let acc = Accountant::new();
        let us = users(10);
        // Burden the first five users.
        for u in &us[..5] {
            acc.record(u, gaussian());
        }
        let b = BudgetBalancer::new(AllocationStrategy::LeastLoss);
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        let picked = b.select(&mut rng, &acc, &us, 5);
        let expected: Vec<String> = us[5..].to_vec();
        assert_eq!(picked, expected);
    }

    #[test]
    fn least_loss_is_deterministic_on_ties() {
        let acc = Accountant::new();
        let us = users(6);
        let b = BudgetBalancer::new(AllocationStrategy::LeastLoss);
        let mut rng = ChaCha20Rng::seed_from_u64(2);
        let a = b.select(&mut rng, &acc, &us, 3);
        let c = b.select(&mut rng, &acc, &us, 3);
        assert_eq!(a, c);
        assert_eq!(a, vec!["u000", "u001", "u002"]);
    }

    #[test]
    fn uniform_selection_varies_with_rng() {
        let acc = Accountant::new();
        let us = users(50);
        let b = BudgetBalancer::new(AllocationStrategy::Uniform);
        let pick = |seed| {
            let mut rng = ChaCha20Rng::seed_from_u64(seed);
            b.select(&mut rng, &acc, &us, 10)
        };
        assert_ne!(pick(1), pick(2));
        assert_eq!(pick(3), pick(3));
    }

    #[test]
    fn balancing_flattens_the_distribution() {
        // Run 20 rounds of 10-user surveys over 40 users with each
        // strategy; LeastLoss must end with a smaller max ε.
        let run = |strategy| {
            let acc = Accountant::new();
            let us = users(40);
            let b = BudgetBalancer::new(strategy);
            let mut rng = ChaCha20Rng::seed_from_u64(7);
            for _ in 0..20 {
                let picked = b.select(&mut rng, &acc, &us, 10);
                for u in picked {
                    acc.record(&u, gaussian());
                }
            }
            b.loss_summary(&acc, &us).max
        };
        let uniform_max = run(AllocationStrategy::Uniform);
        let balanced_max = run(AllocationStrategy::LeastLoss);
        assert!(
            balanced_max < uniform_max,
            "balanced {balanced_max} !< uniform {uniform_max}"
        );
    }

    #[test]
    fn loss_summary_orders() {
        let acc = Accountant::new();
        let us = users(20);
        for (i, u) in us.iter().enumerate() {
            for _ in 0..i {
                acc.record(u, gaussian());
            }
        }
        let b = BudgetBalancer::new(AllocationStrategy::LeastLoss);
        let s = b.loss_summary(&acc, &us);
        assert!(s.max >= s.p99 && s.p99 >= s.p95 && s.p95 >= s.p50, "{s:?}");
        assert!(s.p95 >= s.mean && s.mean > 0.0);
    }

    #[test]
    fn empty_summary_is_zero() {
        let acc = Accountant::new();
        let b = BudgetBalancer::new(AllocationStrategy::Uniform);
        let s = b.loss_summary(&acc, &[]);
        assert_eq!((s.max, s.mean, s.p50, s.p95, s.p99), (0.0, 0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "cannot select")]
    fn overselection_rejected() {
        let acc = Accountant::new();
        let b = BudgetBalancer::new(AllocationStrategy::Uniform);
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        let _ = b.select(&mut rng, &acc, &users(3), 4);
    }
}
