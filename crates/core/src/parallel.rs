//! Parallel rule discovery (paper §1: Darwin "supports parallel discovery
//! of rules by asking different annotators to evaluate different rules")
//! and crowd-style answer aggregation (§4.3's cost model: "the oracle
//! considers a majority vote by querying three crowd members").
//!
//! [`Darwin::run_parallel`] proceeds in rounds: each round selects a batch
//! of *diverse* candidate rules (maximum benefit, penalizing coverage
//! overlap within the batch, so annotators never review near-duplicate
//! rules), sends one rule to each annotator, applies all answers at once,
//! and then retrains — one classifier update per round instead of per
//! question, which is what makes the wall-clock win of parallel annotation
//! real.

use crate::batch::{CostModel, CrowdCost};
use crate::engine::{Engine, EngineFlavor};
use crate::oracle::Oracle;
use crate::pipeline::{Darwin, RunResult, Seed};
use crate::traversal::Ctx;
use darwin_grammar::Heuristic;
use darwin_index::{IdSet, RuleRef};
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

impl Darwin<'_> {
    /// Interactive discovery with `annotators.len()` annotators working in
    /// parallel for `rounds` rounds. Returns the same [`RunResult`] shape
    /// as [`Darwin::run`]; `trace` records one step per question in
    /// round-major order.
    pub fn run_parallel(
        &self,
        seed: Seed,
        annotators: &mut [&mut dyn Oracle],
        rounds: usize,
    ) -> RunResult {
        assert!(!annotators.is_empty(), "need at least one annotator");
        let corpus = self.corpus();
        let index = self.index();
        let mut engine = Engine::new(self, seed, EngineFlavor::Parallel);

        for round in 0..rounds {
            // Re-center the candidate pool on the grown positive set at
            // each round boundary (the engine already built the pool for
            // round 0).
            if round > 0 {
                engine.regen_hierarchy();
            }
            let batch = {
                let ctx = engine.ctx();
                select_diverse_batch(&ctx, annotators.len())
            };
            if batch.is_empty() {
                break;
            }
            let mut grew = false;
            for (rule, annotator) in batch.iter().zip(annotators.iter_mut()) {
                engine.state.queried.insert(*rule);
                let h = index.heuristic(*rule);
                let cov = index.coverage(*rule);
                let answer = annotator.ask(corpus, &h, cov);
                grew |= engine.record(*rule, answer);
            }
            if grew {
                // One classifier update per round instead of per question —
                // the wall-clock win of parallel annotation.
                engine.retrain_and_sync();
            }
        }
        engine.finish()
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

/// Rank unqueried pool candidates for batched annotation, with the same
/// gating as the sequential traversals: rules whose benefit per new
/// instance clears the threshold rank first (by total benefit); everything
/// else ranks by expected precision. Without this, batches fill with broad
/// rules the oracle is certain to reject. Benefits come from the engine's
/// delta-maintained aggregates via `ctx`. Returns
/// `(rule, qualified, sum_q, average)` tuples in rank order — consumed by
/// [`select_diverse_batch`] and by the async loop's refill selection
/// ([`crate::engine::Engine::select_refill`]).
pub(crate) fn rank_gated(ctx: &Ctx<'_>) -> Vec<(RuleRef, bool, i64, f64)> {
    let mut scored: Vec<(RuleRef, bool, i64, f64)> = ctx
        .hierarchy
        .rules()
        .iter()
        .copied()
        .filter(|r| !ctx.queried.contains(r))
        .map(|r| {
            let b = ctx.benefit(r);
            (r, b.average() > ctx.benefit_threshold, b.sum_q, b.average())
        })
        .filter(|(_, _, sum_q, _)| *sum_q > 0)
        .collect();
    scored.sort_by(|a, b| {
        b.1.cmp(&a.1)
            .then_with(|| {
                if a.1 {
                    b.2.cmp(&a.2)
                } else {
                    b.3.total_cmp(&a.3)
                }
            })
            .then_with(|| a.0.cmp(&b.0))
    });
    scored
}

/// Greedy diverse batch: repeatedly take the most beneficial rule whose
/// *new* coverage overlaps every already-picked rule's new coverage by at
/// most half — annotators should not be shown near-duplicates. Benefits
/// arrive through [`Ctx::benefit`], i.e. merged across the engine's shard
/// partitions when `DarwinConfig::shards` > 1 — the merge is exact, so
/// batch composition is identical at every shard count (the
/// `engine_equivalence` suite pins this for parallel rounds too).
pub fn select_diverse_batch(ctx: &Ctx<'_>, k: usize) -> Vec<RuleRef> {
    let scored = rank_gated(ctx);
    let mut batch: Vec<RuleRef> = Vec::with_capacity(k);
    let mut covered = IdSet::with_universe(ctx.scores.len());
    for (rule, ..) in scored {
        if batch.len() == k {
            break;
        }
        let new: Vec<u32> = ctx
            .index
            .coverage(rule)
            .iter()
            .copied()
            .filter(|&s| !ctx.p.contains(s))
            .collect();
        if new.is_empty() {
            continue;
        }
        let overlap = covered.count_in(&new);
        if overlap * 2 > new.len() {
            continue; // mostly duplicates what a teammate is already reviewing
        }
        covered.extend_from_slice(&new);
        batch.push(rule);
    }
    batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DarwinConfig;
    use crate::hierarchy::Hierarchy;
    use crate::oracle::{GroundTruthOracle, SampledAnnotatorOracle};
    use darwin_index::fx::FxHashSet;
    use darwin_index::{IndexConfig, IndexSet};

    /// Direct harness for [`select_diverse_batch`]: a hand-built [`Ctx`]
    /// over an explicit rule pool, no engine in the loop.
    struct BatchFixture {
        corpus: Corpus,
        index: IndexSet,
        p: IdSet,
        scores: Vec<f32>,
        queried: FxHashSet<RuleRef>,
    }

    impl BatchFixture {
        fn new() -> BatchFixture {
            let corpus = Corpus::from_texts([
                "the shuttle to the airport leaves hourly",
                "is there a shuttle to the airport tonight",
                "a bus to the airport runs daily",
                "is there a bus downtown tonight",
                "order pizza to the room please",
                "the pool opens at nine daily",
            ]);
            let index = IndexSet::build(&corpus, &IndexConfig::small());
            let p = IdSet::with_universe(corpus.len());
            // Everything looks promising, so gating never empties the pool.
            let scores = vec![0.9; corpus.len()];
            BatchFixture {
                corpus,
                index,
                p,
                scores,
                queried: FxHashSet::default(),
            }
        }

        fn ctx<'a>(&'a self, h: &'a Hierarchy) -> Ctx<'a> {
            Ctx {
                index: &self.index,
                hierarchy: h,
                p: &self.p,
                scores: &self.scores,
                queried: &self.queried,
                benefit_threshold: 0.5,
                store: None,
            }
        }

        fn pool(&self, rules: Vec<RuleRef>) -> Hierarchy {
            Hierarchy::new(rules)
        }
    }

    #[test]
    fn diverse_batch_with_k_beyond_candidate_count_returns_everything_diverse() {
        let f = BatchFixture::new();
        let all: Vec<RuleRef> = f.index.all_rules().collect();
        let h = f.pool(all.clone());
        let batch = select_diverse_batch(&f.ctx(&h), all.len() + 50);
        assert!(!batch.is_empty());
        assert!(
            batch.len() < all.len(),
            "overlap pruning must reject near-duplicates, not return the pool"
        );
        let distinct: std::collections::HashSet<_> = batch.iter().collect();
        assert_eq!(distinct.len(), batch.len(), "no rule proposed twice");
        // Asking for exactly what was returned changes nothing.
        assert_eq!(select_diverse_batch(&f.ctx(&h), batch.len()), batch);
    }

    #[test]
    fn diverse_batch_takes_one_of_identical_coverage_candidates() {
        let f = BatchFixture::new();
        // Find two indexed rules with identical coverage (alias pair).
        let all: Vec<RuleRef> = f.index.all_rules().collect();
        let pair = all
            .iter()
            .enumerate()
            .find_map(|(i, &a)| {
                all[i + 1..]
                    .iter()
                    .find(|&&b| f.index.coverage(a) == f.index.coverage(b))
                    .map(|&b| (a, b))
            })
            .expect("tiny corpus has coverage-duplicate rules");
        let h = f.pool(vec![pair.0, pair.1]);
        let batch = select_diverse_batch(&f.ctx(&h), 2);
        assert_eq!(
            batch.len(),
            1,
            "identical coverage = 100% overlap: exactly one survives"
        );
        assert!(batch[0] == pair.0 || batch[0] == pair.1);
    }

    #[test]
    fn diverse_batch_on_empty_frontier_is_empty() {
        let f = BatchFixture::new();
        let empty = f.pool(Vec::new());
        assert!(select_diverse_batch(&f.ctx(&empty), 3).is_empty());

        // A fully queried pool is as empty as an empty one.
        let mut f = BatchFixture::new();
        let all: Vec<RuleRef> = f.index.all_rules().collect();
        f.queried.extend(all.iter().copied());
        let h = f.pool(all);
        assert!(select_diverse_batch(&f.ctx(&h), 3).is_empty());
    }

    #[test]
    fn diverse_batch_skips_rules_with_no_new_coverage() {
        let mut f = BatchFixture::new();
        // Everything already positive: no rule adds anything.
        for id in 0..f.corpus.len() as u32 {
            f.p.insert(id);
        }
        let all: Vec<RuleRef> = f.index.all_rules().collect();
        let h = f.pool(all);
        assert!(select_diverse_batch(&f.ctx(&h), 4).is_empty());
    }

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
