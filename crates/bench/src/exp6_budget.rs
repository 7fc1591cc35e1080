//! EXP-6 — cumulative privacy loss tracking and balancing (§3.1's claim
//! that loss "can be tracked and balanced across the user base").
//!
//! A 30-survey campaign over 200 users, 60 respondents per survey, one
//! Gaussian release per response. Three views:
//!
//! 1. per-user cumulative ε under uniform recruitment vs the least-loss
//!    balancer;
//! 2. tight (RDP) vs basic-composition accounting for the heaviest user;
//! 3. growth of the maximum cumulative ε over campaign rounds.

use crate::{banner, f, n, render, Table};
use loki_core::ledger::{AllocationStrategy, BudgetBalancer};
use loki_dp::accountant::{Accountant, ReleaseKind, UserLedger};
use loki_rng::ChaCha20Rng;
use std::fmt::Write as _;

const USERS: usize = 200;
const SURVEYS: usize = 30;
const PER_SURVEY: usize = 60;

fn release() -> ReleaseKind {
    // Medium privacy on a 1–5 rating.
    ReleaseKind::Gaussian {
        sigma: 1.0,
        sensitivity: 4.0,
    }
}

fn run(strategy: AllocationStrategy, seed: u64) -> (Accountant, Vec<f64>) {
    let accountant = Accountant::new();
    let users: Vec<String> = (0..USERS).map(|i| format!("u{i:03}")).collect();
    let balancer = BudgetBalancer::new(strategy);
    let mut rng = ChaCha20Rng::seed_from_u64(seed);
    let mut max_by_round = Vec::with_capacity(SURVEYS);
    for _ in 0..SURVEYS {
        let picked = balancer.select(&mut rng, &accountant, &users, PER_SURVEY);
        for user in picked {
            accountant.record(&user, release());
        }
        max_by_round.push(balancer.loss_summary(&accountant, &users).max);
    }
    (accountant, max_by_round)
}

/// Seed of the recorded report in `results/exp6_budget.txt`.
pub const SEED: u64 = 6;

/// Renders the report for `seed`.
pub fn report(seed: u64) -> String {
    render(|out| {
        out.push_str(&banner(
            "EXP-6",
            "cumulative-loss tracking and balancing across the user base",
            "framework tracks per-user loss so it can be balanced across users",
        ));

        let (uniform_acc, uniform_curve) = run(AllocationStrategy::Uniform, seed);
        let (balanced_acc, balanced_curve) = run(AllocationStrategy::LeastLoss, seed);

        let users: Vec<String> = (0..USERS).map(|i| format!("u{i:03}")).collect();
        let b = BudgetBalancer::new(AllocationStrategy::LeastLoss);
        let u_sum = b.loss_summary(&uniform_acc, &users);
        let l_sum = b.loss_summary(&balanced_acc, &users);

        let mut t = Table::new(&["allocation", "max eps", "p95 eps", "mean eps"]);
        t.row(&[
            "uniform (status quo)".into(),
            f(u_sum.max),
            f(u_sum.p95),
            f(u_sum.mean),
        ]);
        t.row(&[
            "least-loss balancer".into(),
            f(l_sum.max),
            f(l_sum.p95),
            f(l_sum.mean),
        ]);
        writeln!(out, "{}", t.render())?;
        writeln!(
            out,
            "balancing cuts the worst-case user's cumulative eps by {:.0}% at identical utility\n\
             (same number of responses per survey).\n",
            (1.0 - l_sum.max / u_sum.max) * 100.0
        )?;

        // Growth curves.
        let mut curve = Table::new(&["round", "max eps (uniform)", "max eps (balanced)"]);
        for r in (4..SURVEYS).step_by(5) {
            curve.row(&[n(r + 1), f(uniform_curve[r]), f(balanced_curve[r])]);
        }
        writeln!(out, "{}", curve.render())?;

        // Accounting ablation: tight (RDP) vs basic composition for a user
        // who answered every survey.
        let mut heavy = UserLedger::new();
        for _ in 0..SURVEYS {
            heavy.record(release());
        }
        let basic = heavy.basic_loss().epsilon.value();
        let tight = heavy.tight_loss().epsilon.value();
        writeln!(
            out,
            "\naccounting ablation ({} releases, sigma=1, delta=1e-5):\n\
             basic composition eps = {:.2}; RDP-tight eps = {:.2} ({:.1}x tighter)",
            SURVEYS,
            basic,
            tight,
            basic / tight
        )?;
        writeln!(
            out,
            "-> tight accounting is what makes long-horizon participation budgets workable."
        )?;
        Ok(())
    })
}
