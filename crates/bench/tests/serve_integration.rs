//! End-to-end acceptance tests for the serving stress campaign.
//!
//! These pin the `report serve` contract CI greps for: a seeded run of
//! the full job-mix x deadline-grid x fault x chaos campaign loses no
//! accepted job (`lost_jobs: 0`), completes no job with a silently
//! wrong answer (`silent_wrong: 0`), resumes a killed all-pairs
//! campaign byte-identically (`resume_byte_identical: true`), and
//! reconciles every per-scenario client-side tally 1:1 against the
//! service's own `serve.*` counters.

use ppa_bench::serve_campaign;

/// Column index helper — fails loudly if the campaign schema drifts.
fn col(table: &ppa_bench::Table, name: &str) -> usize {
    table
        .headers
        .iter()
        .position(|c| c == name)
        .unwrap_or_else(|| panic!("campaign table lost its {name:?} column"))
}

fn note(table: &ppa_bench::Table, prefix: &str) -> String {
    table
        .notes
        .iter()
        .find(|n| n.starts_with(prefix))
        .unwrap_or_else(|| panic!("campaign lost its {prefix:?} note"))
        .clone()
}

#[test]
fn campaign_loses_nothing_and_reconciles_every_scenario() {
    let table = serve_campaign(7);
    assert_eq!(table.rows.len(), 5, "campaign scenario grid changed size");

    // The three greppable invariants CI checks in the .txt artifact.
    assert!(note(&table, "lost_jobs:").starts_with("lost_jobs: 0 "));
    assert!(note(&table, "silent_wrong:").starts_with("silent_wrong: 0 "));
    assert!(note(&table, "resume_byte_identical:").starts_with("resume_byte_identical: true "));

    let reconciled = col(&table, "reconciled");
    let jobs = col(&table, "jobs");
    let accepted = col(&table, "accepted");
    let completed = col(&table, "completed");
    let failed = col(&table, "failed");
    let panics = col(&table, "panics");
    for row in &table.rows {
        // Client tallies match the serve.* metrics counters exactly.
        assert_eq!(row[reconciled], "yes", "unreconciled scenario {row:?}");
        // Every accepted job reported back as completed or failed.
        let acc: u64 = row[accepted].parse().unwrap();
        let done: u64 = row[completed].parse().unwrap();
        let fail: u64 = row[failed].parse().unwrap();
        assert_eq!(acc, done + fail, "job unaccounted for in {row:?}");
        assert!(
            acc <= row[jobs].parse().unwrap(),
            "over-acceptance in {row:?}"
        );
    }

    // The chaos scenarios must actually exercise panic isolation.
    let chaos_panics: u64 = table
        .rows
        .iter()
        .map(|r| r[panics].parse::<u64>().unwrap())
        .sum();
    assert!(
        chaos_panics > 0,
        "no worker ever panicked — chaos path dead"
    );
}

#[test]
fn robustness_invariants_hold_on_a_rerolled_seed() {
    // Per-scenario tallies legitimately vary with thread scheduling
    // (deadline misses are wall-clock dependent),
    // but the robustness invariants must hold for *any* seed: nothing
    // lost, nothing silently wrong, every scenario reconciled.
    let table = serve_campaign(11);
    assert!(note(&table, "lost_jobs:").starts_with("lost_jobs: 0 "));
    assert!(note(&table, "silent_wrong:").starts_with("silent_wrong: 0 "));
    assert!(note(&table, "resume_byte_identical:").starts_with("resume_byte_identical: true "));
    let reconciled = col(&table, "reconciled");
    for row in &table.rows {
        assert_eq!(row[reconciled], "yes", "unreconciled scenario {row:?}");
    }
}
