//! The load generator: every input a run uses, derived from its seed.
//!
//! The program under test receives only what these functions produce:
//! election seeds for the simulator workloads and [`InstanceSpec`]s for the
//! service workloads.

use fle_model::splitmix64;
use fle_service::InstanceSpec;

/// System size of every service instance.
pub const SERVICE_N: usize = 16;

/// In the mixed stream, every `RENAMING_EVERY`-th submission is a renaming.
pub const RENAMING_EVERY: u64 = 9;

/// Seed of the `index`-th simulated election of a run seeded `seed`.
///
/// Seed 0 yields 0, 1, 2, … — the seeds `BENCH_baseline.json` records —
/// and other seeds start their own stream 2^20 elections apart.
pub fn election_seed(seed: u64, index: u64) -> u64 {
    (seed << 20).wrapping_add(index)
}

/// The `index`-th service instance of a run seeded `seed`: an n = 16
/// election, or in a `mixed` stream a renaming every
/// [`RENAMING_EVERY`]-th submission. Keys count up from 0, so every key in
/// a run is distinct.
pub fn service_spec(seed: u64, index: u64, mixed: bool) -> InstanceSpec {
    let instance_seed = splitmix64(seed ^ splitmix64(index));
    let spec = if mixed && index % RENAMING_EVERY == RENAMING_EVERY - 1 {
        InstanceSpec::renaming(index, SERVICE_N)
    } else {
        InstanceSpec::election(index, SERVICE_N)
    };
    spec.with_seed(instance_seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fle_service::Workload;

    #[test]
    fn the_same_seed_gives_the_same_specs_and_another_seed_others() {
        let specs = |seed| -> Vec<_> {
            (0..64)
                .map(|index| {
                    let spec = service_spec(seed, index, true);
                    (spec.key, spec.seed, spec.n, spec.workload)
                })
                .collect()
        };
        assert_eq!(specs(5), specs(5));
        let (five, six) = (specs(5), specs(6));
        assert!(five.iter().zip(&six).all(|(a, b)| a.1 != b.1));
        assert!(five
            .iter()
            .zip(&six)
            .all(|(a, b)| (a.0, a.2, a.3) == (b.0, b.2, b.3)));

        let elections: Vec<u64> = (0..8).map(|i| election_seed(3, i)).collect();
        assert_eq!(
            elections,
            (0..8).map(|i| election_seed(3, i)).collect::<Vec<_>>()
        );
        assert!(elections
            .iter()
            .all(|s| (0..8).all(|i| election_seed(4, i) != *s)));
        assert_eq!(
            election_seed(0, 2),
            2,
            "seed 0 replays the recorded baseline"
        );
    }

    #[test]
    fn every_ninth_submission_of_a_mixed_stream_is_a_renaming() {
        let kinds: Vec<Workload> = (0..18).map(|i| service_spec(1, i, true).workload).collect();
        let renamings: Vec<usize> = kinds
            .iter()
            .enumerate()
            .filter(|(_, kind)| **kind == Workload::Renaming)
            .map(|(index, _)| index)
            .collect();
        assert_eq!(renamings, vec![8, 17]);
        assert!((0..18).all(|i| service_spec(1, i, false).workload == Workload::Election));
        assert!((0..18).all(|i| service_spec(1, i, true).key == i));
    }
}
