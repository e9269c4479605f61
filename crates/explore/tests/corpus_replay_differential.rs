//! Cross-backend corpus replay: traces recorded on the simulator are *valid
//! schedules* on the gate loop (the tolerant replayers guarantee it), so a
//! Sim-built corpus can seed gated hunts.
//!
//! Two layers:
//!
//! * healthy corpus entries (recorded by a Sim coverage hunt over the real
//!   election) replay clean on the gate loop, deterministically;
//! * sabotage counterexamples found on Sim replay on the gate loop, and at
//!   least two of them *transfer* (refire `unique-leader` there), which is
//!   what makes a Sim-built corpus worth seeding gated hunts with.

use fle_explore::sabotage::SabotagedElectionScenario;
use fle_explore::{
    replay, CoverageConfig, CoverageExplorer, ElectionScenario, ExploreBackend, Explorer,
    GatedConfig,
};

const GATED: ExploreBackend = ExploreBackend::Gated(GatedConfig {
    preemption_bound: None,
    faults: None,
});

#[test]
fn healthy_sim_corpus_traces_replay_clean_on_the_gate_loop() {
    let scenario = ElectionScenario { n: 4, k: 4 };
    let report = CoverageExplorer::new(&scenario)
        .with_config(CoverageConfig {
            budget: 24,
            batch: 8,
            sim_seeds: vec![0, 1],
            ..CoverageConfig::default()
        })
        .with_threads(4)
        .explore();
    assert!(
        report.corpus.len() >= 2,
        "the hunt retains several healthy traces, got {}",
        report.corpus.len()
    );
    for entry in report.corpus.entries() {
        let first = replay(&scenario, entry.sim_seed, &entry.trace, &GATED);
        assert!(
            first.0.is_none(),
            "healthy corpus trace flagged on the gate loop: {:?}",
            first.0
        );
        let again = replay(&scenario, entry.sim_seed, &entry.trace, &GATED);
        assert_eq!(first, again, "replay on the gate loop is deterministic");
    }
}

#[test]
fn some_sabotage_counterexamples_transfer_to_the_gate_loop() {
    let scenario = SabotagedElectionScenario { n: 4, k: 4 };
    // Sim-side hunt: the DropWrites mutant yields a pile of unique-leader
    // counterexamples across the seed grid.
    let report = Explorer::new(&scenario).with_sim_seeds(0..8).hunt();
    assert!(
        report.violations.len() >= 10,
        "the sabotaged election is easy to kill on the simulator"
    );
    let mut transferred = 0usize;
    for found in &report.violations {
        assert_eq!(found.violation.oracle, "unique-leader");
        let (exec, _) = replay(&scenario, found.plan.sim_seed, &found.decisions, &GATED);
        if exec.as_ref().map(|v| v.oracle) == Some("unique-leader") {
            transferred += 1;
        }
    }
    // Pinned empirically (seeds 0..8, default library): starve@1,
    // split-brain@4 and several weighted walks refire on the gate loop. A
    // regression here means Sim decision indices stopped mapping onto gated
    // grant indices closely enough to transfer.
    assert!(
        transferred >= 2,
        "expected at least two Sim counterexamples to transfer, got {transferred}"
    );
}
