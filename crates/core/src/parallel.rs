//! Parallel rule discovery (paper §1: Darwin "supports parallel discovery
//! of rules by asking different annotators to evaluate different rules")
//! and crowd-style answer aggregation (§4.3's cost model: "the oracle
//! considers a majority vote by querying three crowd members").
//!
//! [`Darwin::run_parallel`] rides the wave driver ([`crate::batch`]) at
//! one question per annotator per wave: the first pick comes from the
//! configured traversal, the rest from the diverse refill ranking (maximum
//! gated benefit, skipping rules whose new coverage mostly duplicates a
//! teammate's question), all answers apply, and the classifier retrains
//! once per wave instead of per question — what makes the wall-clock win
//! of parallel annotation real.

use crate::batch::{drive_segment, BatchPolicy, CostModel, CrowdCost};
use crate::oracle::{AsyncOracle, Oracle, QuestionId};
use crate::pipeline::{default_strategy, Darwin, RunResult, Seed};
use crate::snapshot::SessionCounters;
use darwin_grammar::Heuristic;
use darwin_text::Corpus;

/// Majority vote over several independent annotators. One [`Oracle::ask`]
/// call fans the same question out to every member and counts one logical
/// query (the paper prices it as `members × 2¢`).
pub struct MajorityOracle<'a> {
    members: Vec<Box<dyn Oracle + 'a>>,
    queries: usize,
}

impl<'a> MajorityOracle<'a> {
    /// Combine `members` (at least one) by majority vote.
    pub fn new(members: Vec<Box<dyn Oracle + 'a>>) -> Self {
        assert!(
            !members.is_empty(),
            "majority oracle needs at least one member"
        );
        MajorityOracle {
            members,
            queries: 0,
        }
    }

    /// Cost in cents under the paper's crowdsourcing model (2¢ per member
    /// evaluation).
    pub fn cost_cents(&self) -> usize {
        self.queries * self.members.len() * 2
    }
}

impl Oracle for MajorityOracle<'_> {
    fn ask(&mut self, corpus: &Corpus, rule: &Heuristic, coverage: &[u32]) -> bool {
        self.queries += 1;
        let mut yes = 0;
        for m in self.members.iter_mut() {
            if m.ask(corpus, rule, coverage) {
                yes += 1;
            }
        }
        2 * yes > self.members.len()
    }

    fn queries(&self) -> usize {
        self.queries
    }
}

/// The annotator pool as one [`AsyncOracle`]: the i-th submission of
/// each wave goes to annotator i, and a poll (the driver's wave drain)
/// hands back the wave's answers and starts the next wave at annotator 0.
struct Annotators<'o, 'a> {
    members: &'o mut [&'a mut dyn Oracle],
    next: usize,
    answers: Vec<(QuestionId, bool)>,
}

impl AsyncOracle for Annotators<'_, '_> {
    fn submit(&mut self, qid: QuestionId, corpus: &Corpus, rule: &Heuristic, coverage: &[u32]) {
        let member = &mut self.members[self.next % self.members.len()];
        self.next += 1;
        self.answers.push((qid, member.ask(corpus, rule, coverage)));
    }

    fn poll(&mut self) -> Vec<(QuestionId, bool)> {
        self.next = 0;
        std::mem::take(&mut self.answers)
    }

    fn queries(&self) -> usize {
        self.members.iter().map(|m| m.queries()).sum()
    }
}

impl Darwin<'_> {
    /// Interactive discovery with `annotators.len()` annotators working in
    /// parallel for `rounds` rounds — waves of up to one question per
    /// annotator, at most `rounds × annotators` questions.
    /// [`DarwinConfig::budget`](crate::DarwinConfig::budget) and
    /// [`DarwinConfig::batch`](crate::DarwinConfig::batch) are not read.
    /// Returns the same [`RunResult`] shape as [`Darwin::run`]; `trace`
    /// records one step per question in submission order. No annotators or
    /// no rounds return the seed-only result.
    pub fn run_parallel(
        &self,
        seed: Seed,
        annotators: &mut [&mut dyn Oracle],
        rounds: usize,
    ) -> RunResult {
        let k = annotators.len();
        let engine = self.engine(seed);
        let strategy = default_strategy(self.config(), engine.seed_refs());
        let start = SessionCounters::default();
        let oracle = &mut Annotators {
            members: annotators,
            next: 0,
            answers: Vec::new(),
        };
        let (policy, budget) = (&BatchPolicy::Fixed(k), rounds.saturating_mul(k));
        drive_segment(
            engine,
            strategy,
            start,
            oracle,
            policy,
            budget,
            Some(rounds as u64),
        )
        .into_run()
    }

    /// [`Darwin::run_parallel`] plus the paper's §4.3 crowd-cost
    /// accounting: the run result comes back with a [`CrowdCost`] report
    /// pricing every asked question under `model` (each question fans out
    /// to `model.members` paid judgments).
    pub fn run_parallel_costed(
        &self,
        seed: Seed,
        annotators: &mut [&mut dyn Oracle],
        rounds: usize,
        model: &CostModel,
    ) -> (RunResult, CrowdCost) {
        let run = self.run_parallel(seed, annotators, rounds);
        let cost = model.report(run.questions());
        (run, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DarwinConfig;
    use crate::oracle::{GroundTruthOracle, SampledAnnotatorOracle};
    use darwin_index::{IndexConfig, IndexSet};

    fn fixture() -> (Corpus, Vec<bool>) {
        let mut texts = Vec::new();
        let mut labels = Vec::new();
        for i in 0..12 {
            texts.push(format!("is there a shuttle to the airport at {i}"));
            labels.push(true);
            texts.push(format!("is there a bus to the airport at {i}"));
            labels.push(true);
        }
        for i in 0..40 {
            texts.push(format!("order a pizza with {i} toppings to the room"));
            labels.push(false);
            texts.push(format!("the pool opens at {i} for guests"));
            labels.push(false);
        }
        (Corpus::from_texts(texts.iter()), labels)
    }

    #[test]
    fn parallel_run_discovers_positives() {
        let (corpus, labels) = fixture();
        let index = IndexSet::build(&corpus, &IndexConfig::small());
        let darwin = Darwin::new(&corpus, &index, DarwinConfig::fast());
        let seed = Seed::Rule(Heuristic::phrase(&corpus, "shuttle to the airport").unwrap());
        let mut a = GroundTruthOracle::new(&labels, 0.8);
        let mut b = GroundTruthOracle::new(&labels, 0.8);
        let mut c = GroundTruthOracle::new(&labels, 0.8);
        let mut annotators: Vec<&mut dyn Oracle> = vec![&mut a, &mut b, &mut c];
        let run = darwin.run_parallel(seed, &mut annotators, 4);
        assert!(run.questions() <= 12, "3 annotators × 4 rounds");
        assert!(run.positives.len() > 12, "grew beyond the seed family");
        // The per-round batches contain distinct rules.
        let mut seen = std::collections::HashSet::new();
        for t in &run.trace {
            assert!(
                seen.insert(t.rule.clone()),
                "duplicate question {:?}",
                t.rule
            );
        }
    }

    #[test]
    fn diverse_batch_avoids_near_duplicates() {
        let (corpus, labels) = fixture();
        let index = IndexSet::build(&corpus, &IndexConfig::small());
        let darwin = Darwin::new(&corpus, &index, DarwinConfig::fast());
        let seed = Seed::Rule(Heuristic::phrase(&corpus, "shuttle to the airport").unwrap());
        let mut a = GroundTruthOracle::new(&labels, 0.8);
        let mut b = GroundTruthOracle::new(&labels, 0.8);
        let mut annotators: Vec<&mut dyn Oracle> = vec![&mut a, &mut b];
        let run = darwin.run_parallel(seed, &mut annotators, 1);
        // Within the single round, the two questions must cover
        // substantially different new sentences.
        if run.trace.len() == 2 {
            let c0 = run.trace[0].rule.coverage(&corpus);
            let c1 = run.trace[1].rule.coverage(&corpus);
            let shared = c0.iter().filter(|x| c1.contains(x)).count();
            assert!(shared * 2 <= c0.len().max(c1.len()), "near-duplicate batch");
        }
    }

    #[test]
    fn no_annotators_or_no_rounds_return_the_seed_only_result() {
        let (corpus, labels) = fixture();
        let index = IndexSet::build(&corpus, &IndexConfig::small());
        let darwin = Darwin::new(&corpus, &index, DarwinConfig::fast());
        let seed = || Seed::Rule(Heuristic::phrase(&corpus, "shuttle to the airport").unwrap());
        let seed_only = darwin.engine(seed()).finish();
        let mut a = GroundTruthOracle::new(&labels, 0.8);
        let nobody = darwin.run_parallel(seed(), &mut [], 4);
        let no_rounds = darwin.run_parallel(seed(), &mut [&mut a], 0);
        for run in [nobody, no_rounds] {
            assert_eq!(run.questions(), 0);
            assert_eq!(run.positives, seed_only.positives);
            assert_eq!(run.accepted, seed_only.accepted);
            assert_eq!(run.scores, seed_only.scores);
            assert!(run.wire_error.is_none());
        }
        assert_eq!(a.queries(), 0, "no round, no question");
    }

    #[test]
    fn majority_oracle_outvotes_one_bad_member() {
        let (corpus, labels) = fixture();
        // Two reliable members and one error-prone k=2 annotator.
        let m1 = Box::new(GroundTruthOracle::new(&labels, 0.8));
        let m2 = Box::new(GroundTruthOracle::new(&labels, 0.8));
        let m3 = Box::new(SampledAnnotatorOracle::new(&labels, 2, 5));
        let mut crowd = MajorityOracle::new(vec![m1, m2, m3]);
        let rule = Heuristic::phrase(&corpus, "shuttle").unwrap();
        let cov = rule.coverage(&corpus);
        assert!(
            crowd.ask(&corpus, &rule, &cov),
            "precise rule accepted by majority"
        );
        let junk = Heuristic::phrase(&corpus, "the").unwrap();
        let jcov = junk.coverage(&corpus);
        assert!(!crowd.ask(&corpus, &junk, &jcov));
        assert_eq!(crowd.queries(), 2);
        assert_eq!(
            crowd.cost_cents(),
            2 * 3 * 2,
            "paper cost model: 2¢ × 3 members"
        );
    }
}
