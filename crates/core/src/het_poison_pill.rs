//! The Heterogeneous PoisonPill sifting phase (Figure 2 of the paper).
//!
//! The plain PoisonPill cannot beat Ω(√n) expected survivors: the fixed coin
//! bias `1/√n` perfectly balances the group that survives by flipping high
//! against the group that survives by flipping low before the first high
//! flip (Section 3.2). The heterogeneous variant breaks the balance by making
//! each processor's bias depend on the set `ℓ` of participants it has
//! observed *after committing*:
//!
//! * `prob = 1` when `|ℓ| = 1`, else `prob = log|ℓ| / |ℓ|`,
//! * the priority propagated to the quorum carries `ℓ`,
//! * a low-priority processor computes `L` — the union of every `ℓ` list it
//!   observed plus every participant it observed directly — and dies if some
//!   processor in `L` is *not* reported as low priority by any view.
//!
//! Claim 3.3 (closure of survivor views), Claim 3.5 (probability of `z`
//! low-flip survivors is O(1/z)), Lemma 3.6 (O(log k) expected low-flip
//! survivors) and Lemma 3.7 (O(log² k) expected high-flip survivors) together
//! bound the expected survivor count by O(log² k) under any schedule.

use fle_model::{
    Action, BitRow, CollectedViews, ElectionContext, InstanceId, Key, LocalStateView, Outcome,
    Priority, ProcId, Protocol, Response, Slot, Status, Value,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Init,
    Committing,
    CollectingParticipants,
    Flipping,
    PropagatingPriority,
    CollectingStatuses,
    Done,
}

/// One Heterogeneous PoisonPill sifting phase (Figure 2).
#[derive(Debug)]
pub struct HeterogeneousPoisonPill {
    me: ProcId,
    instance: InstanceId,
    stage: Stage,
    observed: Vec<ProcId>,
    coin: Option<bool>,
    round: u32,
}

impl HeterogeneousPoisonPill {
    /// A phase for processor `me` in a standalone context, round 1.
    pub fn new(me: ProcId) -> Self {
        Self::for_round(me, ElectionContext::Standalone, 1)
    }

    /// A phase bound to an election context and a round number, so that the
    /// sifting rounds of the full leader election use disjoint registers.
    pub fn for_round(me: ProcId, ctx: ElectionContext, round: u32) -> Self {
        HeterogeneousPoisonPill {
            me,
            instance: InstanceId::status(ctx, round),
            stage: Stage::Init,
            observed: Vec::new(),
            coin: None,
            round,
        }
    }

    /// The heterogeneous bias of Figure 2, lines 18–19: `1` for a single
    /// observed participant, `ln ℓ / ℓ` otherwise.
    pub fn bias_for(observed_participants: usize) -> f64 {
        if observed_participants <= 1 {
            1.0
        } else {
            let l = observed_participants as f64;
            (l.ln() / l).clamp(0.0, 1.0)
        }
    }

    fn my_key(&self) -> Key {
        Key::proc(self.instance, self.me)
    }

    /// The death rule of Figure 2, lines 26–29: build `L` as the union of all
    /// observed `ℓ` lists and all directly observed participants, and die if
    /// some member of `L` is never reported with low priority.
    ///
    /// One pass over every view entry, accumulating `L` and the "reported
    /// low" set as bitmaps. A writer's resolved status reaches every view as
    /// clones of one value, so its spilled `ℓ` list is one shared allocation
    /// however many views hold it. Union is idempotent, so a processor slot
    /// skips a list that is the very allocation it last unioned, and each
    /// distinct list is walked once: O(quorum × slots + Σ distinct |ℓ|)
    /// rather than O(quorum × slots × |ℓ|). The skip compares allocations,
    /// not writers, so it stays exact when a faulty writer's different lists
    /// reach different views. Inline lists (at most one member) are simply
    /// unioned again.
    fn should_die(views: &CollectedViews) -> bool {
        let mut l_set = BitRow::new();
        let mut low = BitRow::new();
        // Per processor slot, the address of the spilled list last unioned
        // from it (0 for none).
        let mut unioned: Vec<usize> = Vec::new();
        for (_, view) in views.responses() {
            view.for_each(|slot, value| {
                let status = value.as_status();
                if let Slot::Proc(j) = slot {
                    l_set.set(j.index());
                    if status.is_some_and(|s| s.priority() == Some(Priority::Low)) {
                        low.set(j.index());
                    }
                }
                let Some(Status::Resolved { list, .. }) = status else {
                    return;
                };
                if let (Slot::Proc(j), Some(addr)) = (slot, list.shared_addr()) {
                    if unioned.len() <= j.index() {
                        unioned.resize(j.index() + 1, 0);
                    }
                    if std::mem::replace(&mut unioned[j.index()], addr) == addr {
                        return;
                    }
                }
                for member in list.iter() {
                    l_set.set(member.index());
                }
            });
        }
        // Bound to a local because the iterator temporary in tail position
        // would otherwise outlive the bitmaps it borrows (E0597).
        let dies = l_set.iter().any(|j| !low.contains(j));
        dies
    }
}

impl Protocol for HeterogeneousPoisonPill {
    fn step(&mut self, response: Response) -> Action {
        match self.stage {
            Stage::Init => {
                debug_assert_eq!(response, Response::Start);
                self.stage = Stage::Committing;
                // Lines 14-15: commit (empty list) and propagate.
                Action::Propagate {
                    entries: vec![(self.my_key(), Value::Status(Status::Commit))],
                }
            }
            Stage::Committing => {
                // Line 16: collect to learn the participant set ℓ.
                self.stage = Stage::CollectingParticipants;
                Action::Collect {
                    instance: self.instance,
                }
            }
            Stage::CollectingParticipants => {
                let views = response.expect_views();
                // Line 17: ℓ ← processors with a non-⊥ status in some view.
                self.observed = views.observed_procs();
                if !self.observed.contains(&self.me) {
                    // The collect always includes the caller's own view, which
                    // already has our Commit; this is only a safeguard.
                    self.observed.push(self.me);
                    self.observed.sort_unstable();
                }
                self.stage = Stage::Flipping;
                // Lines 18-20: bias depends on |ℓ|.
                Action::Flip {
                    prob_one: Self::bias_for(self.observed.len()),
                }
            }
            Stage::Flipping => {
                let coin = response.expect_coin();
                self.coin = Some(coin);
                self.stage = Stage::PropagatingPriority;
                let priority = if coin { Priority::High } else { Priority::Low };
                // Lines 21-23: the propagated priority carries ℓ.
                Action::Propagate {
                    entries: vec![(
                        self.my_key(),
                        Value::Status(Status::resolved_with_list(priority, self.observed.clone())),
                    )],
                }
            }
            Stage::PropagatingPriority => {
                // Line 24: collect statuses from a quorum.
                self.stage = Stage::CollectingStatuses;
                Action::Collect {
                    instance: self.instance,
                }
            }
            Stage::CollectingStatuses => {
                let views = response.expect_views();
                self.stage = Stage::Done;
                let survived = match self.coin {
                    Some(true) => true,
                    // Lines 25-29.
                    _ => !Self::should_die(&views),
                };
                Action::Return(if survived {
                    Outcome::Survive
                } else {
                    Outcome::Die
                })
            }
            Stage::Done => Action::Return(Outcome::Die),
        }
    }

    fn adversary_view(&self) -> LocalStateView {
        let phase = match self.stage {
            Stage::Init => "init",
            Stage::Committing => "committing",
            Stage::CollectingParticipants => "collecting-participants",
            Stage::Flipping => "flipping",
            Stage::PropagatingPriority => "propagating-priority",
            Stage::CollectingStatuses => "collecting-statuses",
            Stage::Done => "done",
        };
        LocalStateView::new("het-poison-pill", phase)
            .with_round(u64::from(self.round))
            .with_coin(self.coin)
            .with_detail("observed", self.observed.len() as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fle_model::{ProcSet, View};
    use fle_sim::{
        Adversary, CoinAwareAdversary, RandomAdversary, SequentialAdversary, SimConfig, Simulator,
    };

    fn run_phase(n: usize, seed: u64, adversary: &mut dyn Adversary) -> fle_sim::ExecutionReport {
        let mut sim = Simulator::new(SimConfig::new(n).with_seed(seed));
        for i in 0..n {
            sim.add_participant(ProcId(i), Box::new(HeterogeneousPoisonPill::new(ProcId(i))));
        }
        sim.run(adversary).expect("phase terminates")
    }

    #[test]
    fn bias_matches_figure_two() {
        assert_eq!(HeterogeneousPoisonPill::bias_for(0), 1.0);
        assert_eq!(HeterogeneousPoisonPill::bias_for(1), 1.0);
        let b2 = HeterogeneousPoisonPill::bias_for(2);
        assert!((b2 - 2f64.ln() / 2.0).abs() < 1e-12);
        let b100 = HeterogeneousPoisonPill::bias_for(100);
        assert!(
            b100 < b2,
            "bias decreases with the number of observed participants"
        );
        assert!(b100 > 0.0);
    }

    #[test]
    fn at_least_one_survivor_under_every_adversary() {
        for n in [1usize, 2, 3, 6, 12] {
            for seed in 0..4u64 {
                let adversaries: Vec<Box<dyn Adversary>> = vec![
                    Box::new(RandomAdversary::with_seed(seed)),
                    Box::new(SequentialAdversary::new()),
                    Box::new(CoinAwareAdversary::with_seed(seed)),
                ];
                for mut adversary in adversaries {
                    let report = run_phase(n, seed, adversary.as_mut());
                    assert!(
                        !report.survivors().is_empty(),
                        "n={n} seed={seed} adversary={}",
                        adversary.name()
                    );
                    assert_eq!(report.outcomes.len(), n);
                }
            }
        }
    }

    #[test]
    fn lone_participant_survives_with_certainty() {
        // |ℓ| = 1 ⇒ bias 1 ⇒ the processor flips high and survives.
        for seed in 0..5 {
            let mut sim = Simulator::new(SimConfig::new(8).with_seed(seed));
            sim.add_participant(ProcId(3), Box::new(HeterogeneousPoisonPill::new(ProcId(3))));
            let report = sim
                .run(&mut RandomAdversary::with_seed(seed))
                .expect("terminates");
            assert_eq!(report.outcome(ProcId(3)), Some(Outcome::Survive));
        }
    }

    #[test]
    fn survivors_scale_sub_polynomially_under_sequential_adversary() {
        // Lemma 3.6 + 3.7: O(log² k) expected survivors. With n = 64 the
        // expectation is ≈ log²(64) ≈ 17 at the very worst; compare with the
        // ≈ 2·√64 = 16 of the plain PoisonPill — on average the heterogeneous
        // sift must do no worse, and for larger n strictly better. Here we
        // only check the phase keeps survivors well below n/2 on average.
        let n = 64;
        let trials = 15;
        let mut total = 0usize;
        for seed in 0..trials {
            let report = run_phase(n, seed, &mut SequentialAdversary::new());
            total += report.survivors().len();
        }
        let average = total as f64 / trials as f64;
        assert!(
            average < n as f64 / 2.0,
            "heterogeneous sifting must eliminate most participants, got {average}"
        );
        assert!(average >= 1.0);
    }

    #[test]
    fn death_rule_uses_observed_lists() {
        // A survivor's view reports only processor 2 (low priority), but
        // processor 2's list mentions processor 7, which nobody reports as
        // low: the current processor must die (line 28).
        let view: View = [(
            Slot::Proc(ProcId(2)),
            Value::Status(Status::resolved_with_list(
                Priority::Low,
                vec![ProcId(2), ProcId(7)],
            )),
        )]
        .into_iter()
        .collect();
        let views = CollectedViews::new(vec![(ProcId(0), view)]);
        assert!(HeterogeneousPoisonPill::should_die(&views));

        // If processor 7 is also reported low somewhere, the rule passes.
        let view2: View = [(
            Slot::Proc(ProcId(7)),
            Value::Status(Status::resolved_with_list(Priority::Low, vec![ProcId(7)])),
        )]
        .into_iter()
        .collect();
        let views = CollectedViews::new(vec![
            (
                ProcId(0),
                [(
                    Slot::Proc(ProcId(2)),
                    Value::Status(Status::resolved_with_list(
                        Priority::Low,
                        vec![ProcId(2), ProcId(7)],
                    )),
                )]
                .into_iter()
                .collect::<View>(),
            ),
            (ProcId(1), view2),
        ]);
        assert!(!HeterogeneousPoisonPill::should_die(&views));
    }

    /// The death rule without the per-list skip: every `ℓ` list of every
    /// view entry is walked. The reference for the differential test of
    /// [`HeterogeneousPoisonPill::should_die`].
    fn should_die_reference(views: &CollectedViews) -> bool {
        let mut l_set = BitRow::new();
        let mut low = BitRow::new();
        for (_, view) in views.responses() {
            view.for_each(|slot, value| {
                if let Slot::Proc(j) = slot {
                    l_set.set(j.index());
                    if value
                        .as_status()
                        .is_some_and(|s| s.priority() == Some(Priority::Low))
                    {
                        low.set(j.index());
                    }
                }
                if let Some(status) = value.as_status() {
                    for member in status.list().iter() {
                        l_set.set(member.index());
                    }
                }
            });
        }
        let dies = l_set.iter().any(|j| !low.contains(j));
        dies
    }

    /// A seeded random stream: splitmix64 over a counter.
    struct Stream(u64);

    impl Stream {
        fn below(&mut self, bound: usize) -> usize {
            self.0 += 1;
            (fle_model::splitmix64(self.0) % bound as u64) as usize
        }

        fn chance(&mut self, percent: usize) -> bool {
            self.below(100) < percent
        }
    }

    /// What the random cases of the death-rule differential test covered.
    #[derive(Debug, Default)]
    struct Coverage {
        dies: usize,
        survives: usize,
        inline_lists: usize,
        spilled_lists: usize,
        commit_and_resolved: usize,
        faulty_split: usize,
        ghost_members: usize,
        name_or_global_statuses: usize,
    }

    /// A seeded random collect result over writers `0..n`.
    ///
    /// Each writer has one resolved status, or two with different lists if
    /// it is faulty, and every view that shows a status shows a clone of
    /// one value, as in a real run, so a spilled list is one allocation
    /// shared across views. Lists may name the processors `n` and `n + 1`,
    /// which have no slot. Every third case is strict: every view reports
    /// every writer low and honest lists name writers only, so only a
    /// faulty writer's second list (which may name `n + 1`) can kill.
    fn random_views(seed: u64, coverage: &mut Coverage) -> CollectedViews {
        let mut rng = Stream(seed << 32);
        let n = 1 + rng.below(9);
        let strict = seed.is_multiple_of(3);
        let list = |rng: &mut Stream, universe: usize| -> ProcSet {
            let size = rng.below(6);
            ProcSet::from_vec((0..size).map(|_| ProcId(rng.below(universe))).collect())
        };
        let resolved = |priority, list| Value::Status(Status::Resolved { priority, list });
        let priority = |rng: &mut Stream| {
            if strict || rng.chance(70) {
                Priority::Low
            } else {
                Priority::High
            }
        };
        let mut writers: Vec<(Value, Option<Value>)> = Vec::new();
        for _ in 0..n {
            let first_list = list(&mut rng, if strict { n } else { n + 1 });
            let second = rng.chance(35).then(|| {
                let extra = if rng.chance(50) { n + 1 } else { rng.below(n) };
                let mut members: Vec<ProcId> = first_list.iter().collect();
                members.push(ProcId(extra));
                resolved(priority(&mut rng), ProcSet::from_vec(members))
            });
            writers.push((resolved(priority(&mut rng), first_list), second));
        }
        // Per writer: shown as Commit, first status, second status.
        let mut shown = vec![[false; 3]; n];
        let mut views = Vec::new();
        for responder in 0..1 + rng.below(5) {
            let mut entries: Vec<(Slot, Value)> = Vec::new();
            for (j, (first, second)) in writers.iter().enumerate() {
                if !strict && rng.chance(25) {
                    continue;
                }
                let value = if !strict && rng.chance(15) {
                    shown[j][0] = true;
                    Value::Status(Status::Commit)
                } else if !strict && rng.chance(5) {
                    Value::Round(1)
                } else if let Some(second) = second.as_ref().filter(|_| rng.chance(50)) {
                    shown[j][2] = true;
                    second.clone()
                } else {
                    shown[j][1] = true;
                    first.clone()
                };
                entries.push((Slot::Proc(ProcId(j)), value));
            }
            if !strict && rng.chance(15) {
                let slot = if rng.chance(50) {
                    Slot::Name(rng.below(4))
                } else {
                    Slot::Global
                };
                let status = resolved(priority(&mut rng), list(&mut rng, n + 2));
                entries.push((slot, status));
                coverage.name_or_global_statuses += 1;
            }
            for (_, value) in &entries {
                let members = value.as_status().map(Status::list).cloned();
                let members = members.unwrap_or_default();
                match members.len() {
                    0 => {}
                    1..=ProcSet::INLINE_CAPACITY => coverage.inline_lists += 1,
                    _ => coverage.spilled_lists += 1,
                }
                if members.iter().any(|p| p.index() >= n) {
                    coverage.ghost_members += 1;
                }
            }
            views.push((ProcId(responder), entries.into_iter().collect::<View>()));
        }
        for (j, (first, second)) in writers.iter().enumerate() {
            if shown[j][0] && (shown[j][1] || shown[j][2]) {
                coverage.commit_and_resolved += 1;
            }
            let split = second.as_ref().is_some_and(|second| {
                second.as_status().map(Status::list) != first.as_status().map(Status::list)
            });
            if split && shown[j][1] && shown[j][2] {
                coverage.faulty_split += 1;
            }
        }
        CollectedViews::new(views)
    }

    #[test]
    fn death_rule_matches_the_reference_on_random_views() {
        let mut coverage = Coverage::default();
        for seed in 0..3000 {
            let views = random_views(seed, &mut coverage);
            let expected = should_die_reference(&views);
            assert_eq!(
                HeterogeneousPoisonPill::should_die(&views),
                expected,
                "seed {seed}: {views:?}"
            );
            if expected {
                coverage.dies += 1;
            } else {
                coverage.survives += 1;
            }
        }
        let Coverage {
            dies,
            survives,
            inline_lists,
            spilled_lists,
            commit_and_resolved,
            faulty_split,
            ghost_members,
            name_or_global_statuses,
        } = coverage;
        for (what, count) in [
            ("dies", dies),
            ("survives", survives),
            ("inline lists", inline_lists),
            ("spilled lists", spilled_lists),
            ("commit and resolved writers", commit_and_resolved),
            ("faulty writers with split lists", faulty_split),
            ("lists naming slotless processors", ghost_members),
            ("name or global statuses", name_or_global_statuses),
        ] {
            assert!(count >= 100, "only {count} cases with {what}");
        }
    }

    #[test]
    fn commit_without_low_report_still_kills() {
        // Same catch-22 as the basic PoisonPill: a Commit with no Low report
        // anywhere is fatal to low-priority observers.
        let view: View = [(Slot::Proc(ProcId(4)), Value::Status(Status::Commit))]
            .into_iter()
            .collect();
        let views = CollectedViews::new(vec![(ProcId(0), view)]);
        assert!(HeterogeneousPoisonPill::should_die(&views));
    }

    #[test]
    fn adversary_view_reports_observed_count() {
        let mut pp = HeterogeneousPoisonPill::new(ProcId(0));
        let _ = pp.step(Response::Start);
        let _ = pp.step(Response::AckQuorum);
        // Simulate a collect response that observed processors 0 and 5.
        let view: View = [
            (Slot::Proc(ProcId(0)), Value::Status(Status::Commit)),
            (Slot::Proc(ProcId(5)), Value::Status(Status::Commit)),
        ]
        .into_iter()
        .collect();
        let action = pp.step(Response::Views(CollectedViews::new(vec![(
            ProcId(0),
            view,
        )])));
        match action {
            Action::Flip { prob_one } => {
                assert!((prob_one - HeterogeneousPoisonPill::bias_for(2)).abs() < 1e-12);
            }
            other => panic!("expected a flip, got {other}"),
        }
        assert_eq!(pp.adversary_view().detail("observed"), Some(2));
    }
}
