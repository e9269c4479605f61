//! The coverage-guided driver works on every [`ExploreBackend`]: healthy
//! scenarios stay clean while coverage grows, and sabotage mutants get
//! killed.

use fle_explore::sabotage::SabotagedElectionScenario;
use fle_explore::{
    CoverageConfig, CoverageExplorer, ElectionScenario, ExploreBackend, GatedConfig,
};

fn small(budget: usize) -> CoverageConfig {
    CoverageConfig {
        budget,
        batch: 6,
        sim_seeds: vec![0, 1],
        ..CoverageConfig::default()
    }
}

#[test]
fn healthy_elections_stay_clean_while_coverage_grows_on_every_backend() {
    let scenario = ElectionScenario { n: 4, k: 4 };
    let backends = [
        ExploreBackend::Sim,
        ExploreBackend::Gated(GatedConfig::default()),
    ];
    for backend in backends {
        let report = CoverageExplorer::new(&scenario)
            .with_backend(backend)
            .with_config(small(18))
            .with_threads(4)
            .explore();
        assert_eq!(report.episodes, 18, "{backend:?}: full budget spent");
        assert!(
            report.violations.is_empty(),
            "{backend:?}: healthy election flagged: {:?}",
            report.violations.first().map(|v| &v.violation)
        );
        assert!(
            report.distinct_features() > 0,
            "{backend:?}: coverage map stayed empty"
        );
        assert!(
            report.growth_is_monotone(),
            "{backend:?}: coverage growth must be monotone"
        );
        assert!(
            !report.corpus.is_empty(),
            "{backend:?}: interesting traces were retained"
        );
    }
}

#[test]
fn the_guided_hunt_kills_the_mutant_on_the_gate_loop() {
    let scenario = SabotagedElectionScenario { n: 4, k: 4 };
    let report = CoverageExplorer::new(&scenario)
        .with_backend(ExploreBackend::Gated(GatedConfig::default()))
        .with_config(CoverageConfig {
            budget: 64,
            batch: 8,
            sim_seeds: (0..4).collect(),
            stop_on_violation: true,
            ..CoverageConfig::default()
        })
        .with_threads(4)
        .explore();
    let kill = report
        .first_violation_episode
        .expect("the DropWrites mutant must be killed on the gated backend");
    assert!(kill <= report.episodes);
    assert_eq!(report.violations[0].violation.oracle, "unique-leader");
}
