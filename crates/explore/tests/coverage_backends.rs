//! The coverage-guided driver works on every [`ExploreBackend`]: healthy
//! scenarios stay clean while coverage grows, sabotage mutants get killed,
//! and the partitioned backend (whose episodes carry no recorded trace)
//! still participates through installed mutant traces.

use fle_explore::sabotage::SabotagedElectionScenario;
use fle_explore::{
    CoverageConfig, CoverageExplorer, ElectionScenario, ExploreBackend, GatedConfig,
    PartitionedConfig,
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
        ExploreBackend::Partitioned(PartitionedConfig::default()),
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

#[test]
fn coverage_hunts_on_the_partitioned_backend_are_deterministic() {
    // The partitioned backend has no recorded traces (episodes replay by
    // plan); the coverage loop must still be a pure function of the config —
    // including across worker-thread counts of both the engine and the
    // batch runner.
    let scenario = ElectionScenario { n: 8, k: 8 };
    let backend = ExploreBackend::Partitioned(PartitionedConfig {
        partitions: 2,
        workers: 0,
    });
    let a = CoverageExplorer::new(&scenario)
        .with_backend(backend)
        .with_config(small(12))
        .with_threads(1)
        .explore();
    let b = CoverageExplorer::new(&scenario)
        .with_backend(backend)
        .with_config(small(12))
        .with_threads(8)
        .explore();
    assert_eq!(a.episodes, b.episodes);
    assert_eq!(a.growth, b.growth);
    assert_eq!(a.distinct_features(), b.distinct_features());
    assert_eq!(a.corpus.len(), b.corpus.len());
}
