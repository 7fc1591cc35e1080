//! Cumulative privacy-loss tracking and balancing (§3.1): a semester of
//! surveys over one user base, comparing naive recruitment against
//! Loki's least-loss balancer, and showing the RDP-tight ledger a single
//! heavy user would see in the app.
//!
//! ```sh
//! cargo run --example privacy_budget
//! ```

use loki::core::ledger::{AllocationStrategy, BudgetBalancer};
use loki::core::privacy_level::PrivacyLevel;
use loki::dp::accountant::{Accountant, ReleaseKind, UserLedger};
use loki::rng::ChaCha20Rng;

fn main() {
    let users: Vec<String> = (0..150).map(|i| format!("student-{i:03}")).collect();
    let release = ReleaseKind::Gaussian {
        sigma: PrivacyLevel::Medium.sigma(),
        sensitivity: 4.0,
    };

    println!("a semester: 25 surveys, 50 respondents each, 150-student pool\n");
    for (strategy, label) in [
        (AllocationStrategy::Uniform, "uniform recruitment"),
        (AllocationStrategy::LeastLoss, "least-loss balancer"),
    ] {
        let accountant = Accountant::new();
        let balancer = BudgetBalancer::new(strategy);
        let mut rng = ChaCha20Rng::seed_from_u64(7);
        for _ in 0..25 {
            for user in balancer.select(&mut rng, &accountant, &users, 50) {
                accountant.record(&user, release);
            }
        }
        let s = balancer.loss_summary(&accountant, &users);
        println!(
            "{label:<22} max ε = {:>7.2}   p95 ε = {:>7.2}   mean ε = {:>7.2}",
            s.max, s.p95, s.mean
        );
    }

    println!("\nwhat one heavy user's app shows (40 medium-privacy answers):");
    let mut ledger = UserLedger::new();
    for _ in 0..40 {
        ledger.record(release);
    }
    println!(
        "  naive (basic composition): ε = {:.1}",
        ledger.basic_loss().epsilon.value()
    );
    println!(
        "  Loki ledger (RDP-tight):   ε = {:.1}  at δ = {:.0e}",
        ledger.tight_loss().epsilon.value(),
        loki::dp::DEFAULT_DELTA
    );

    println!("\nper-answer cost of each privacy level (1-5 rating, δ = 1e-5):");
    for level in PrivacyLevel::ALL {
        let loss = level.privacy_loss(4.0);
        let eps = if loss.is_finite() {
            format!("{:.2}", loss.epsilon.value())
        } else {
            "∞ (no protection)".to_string()
        };
        println!("  {:<7} σ = {:<4}  ε = {eps}", level.to_string(), level.sigma());
    }
}
