//! The async batch layer's defining contracts (`darwin_core::batch`):
//!
//! 1. **Synchronous replay.** With `BatchPolicy::Fixed(1)` and the
//!    `Immediate` adapter, `Darwin::run_async` replays the sequential
//!    reference loop (`darwin_testkit::reference`) byte for byte — at
//!    every shard count, thread count and answer-arrival schedule (one
//!    question in flight means a schedule can only delay, never reorder).
//! 2. **Arrival invariance.** For any fixed batch size, the *final* state
//!    (positives, scores, question set, accepted set) is invariant under
//!    the answer-arrival schedule and the S × threads execution matrix:
//!    wave membership is fixed before any of the wave's answers apply,
//!    and everything an answer mutates commutes (`P` union, fixed-point
//!    benefit sums, one retrain per drained wave).
//!
//! `DARWIN_TEST_BATCH` (CI runs 1 and 8) sets the wave size the
//! env-driven check runs with, mirroring `DARWIN_TEST_THREADS`.

use darwin::prelude::*;
use darwin_core::batch::ScriptedArrival;
use darwin_core::AsyncRunResult;
use darwin_testkit::{
    assert_equivalent, assert_same_final, directions_fixture, indexed, run_sequential, test_batch,
    test_threads, transport, NoisyOracle, ScriptedOracle,
};
use proptest::prelude::*;

fn cfg(batch: BatchPolicy, shards: usize, threads: usize) -> DarwinConfig {
    DarwinConfig {
        budget: 15,
        n_candidates: 1200,
        shards,
        threads,
        batch,
        ..DarwinConfig::fast()
    }
}

/// The sequential reference loop (not the wave driver) on the suite
/// fixture.
fn run_sync(n: usize, dseed: u64, shards: usize, threads: usize) -> RunResult {
    let (d, index) = directions_fixture(n, dseed);
    let darwin = Darwin::new(
        &d.corpus,
        &index,
        cfg(BatchPolicy::Fixed(1), shards, threads),
    );
    let seed = Seed::Rule(Heuristic::phrase(&d.corpus, d.seed_rules[0]).unwrap());
    let mut oracle = GroundTruthOracle::new(&d.labels, 0.8);
    run_sequential(&darwin, seed, &mut oracle)
}

fn run_async(
    n: usize,
    dseed: u64,
    batch: BatchPolicy,
    holds: &[usize],
    shards: usize,
    threads: usize,
) -> AsyncRunResult {
    let (d, index) = directions_fixture(n, dseed);
    let darwin = Darwin::new(&d.corpus, &index, cfg(batch, shards, threads));
    let seed = Seed::Rule(Heuristic::phrase(&d.corpus, d.seed_rules[0]).unwrap());
    let mut oracle = ScriptedArrival::new(GroundTruthOracle::new(&d.labels, 0.8), holds.to_vec());
    darwin.run_async(seed, &mut oracle)
}

/// Contract 1, pinned on the suite fixture: batch 1 + immediate answers =
/// the sequential reference loop, byte for byte, across the shard matrix
/// at the env-configured thread count — and so does `Darwin::run`.
#[test]
fn batch1_immediate_replays_synchronous_trace() {
    let threads = test_threads();
    let reference = run_sync(600, 42, 1, threads);
    assert!(reference.questions() > 5, "reference run asked nothing");
    let run = {
        let (d, index) = directions_fixture(600, 42);
        let darwin = Darwin::new(&d.corpus, &index, cfg(BatchPolicy::Fixed(1), 1, threads));
        let seed = Seed::Rule(Heuristic::phrase(&d.corpus, d.seed_rules[0]).unwrap());
        darwin.run(seed, &mut GroundTruthOracle::new(&d.labels, 0.8))
    };
    assert_equivalent(&reference, &run, "Darwin::run vs the reference loop");
    for shards in [1usize, 2, 4] {
        let done = run_async(600, 42, BatchPolicy::Fixed(1), &[], shards, threads);
        assert_equivalent(
            &reference,
            &done.run,
            &format!("batch=1 S={shards} T={threads}"),
        );
        assert_eq!(done.report.peak_in_flight, 1);
        assert_eq!(done.report.submitted, reference.questions());
        assert_eq!(
            done.report.cost.cents,
            reference.questions() * 6,
            "§4.3: 3 members × 2¢ per question"
        );
    }
}

/// Contract 2, adversarial schedule: a wave's first-submitted question is
/// answered last, with the rest arriving staggered — the final state must
/// match the immediate-delivery run of the same batch size exactly.
#[test]
fn adversarial_out_of_order_delivery_matches_immediate() {
    let batch = BatchPolicy::Fixed(4);
    let reference = run_async(600, 42, batch.clone(), &[], 1, 1);
    assert!(
        reference.report.peak_in_flight > 1,
        "fixture must actually pipeline"
    );
    // Submission i held for holds[i % len] polls: within a 4-wave the
    // first submission lands last, the second second-to-last, etc.
    for holds in [vec![3usize, 2, 1, 0], vec![7, 0, 3, 1], vec![1, 5, 0, 2]] {
        let scrambled = run_async(600, 42, batch.clone(), &holds, 1, 1);
        assert_same_final(
            &reference.run,
            &scrambled.run,
            &format!("adversarial schedule {holds:?}"),
        );
        assert_eq!(
            scrambled.report.submitted,
            scrambled.run.questions(),
            "every submitted question answered exactly once"
        );
        assert_eq!(scrambled.report.retrains, reference.report.retrains);
    }
}

/// The env-driven matrix cell (CI: DARWIN_TEST_BATCH ∈ {1, 8} ×
/// DARWIN_TEST_THREADS ∈ {1, 4}): the configured batch size must be
/// schedule-invariant, and at batch 1 equal the synchronous loop.
#[test]
fn env_batch_is_schedule_invariant() {
    let (batch, threads) = (test_batch(), test_threads());
    let policy = BatchPolicy::Fixed(batch);
    let immediate = run_async(600, 42, policy.clone(), &[], 1, threads);
    let scrambled = run_async(600, 42, policy, &[2, 0, 4, 1, 3], 1, threads);
    assert_same_final(
        &immediate.run,
        &scrambled.run,
        &format!("batch={batch} T={threads}"),
    );
    if batch == 1 {
        let sync = run_sync(600, 42, 1, threads);
        assert_equivalent(&sync, &immediate.run, "batch=1 vs synchronous");
    }
}

/// The adaptive policies must complete and actually batch. BenefitDecay is
/// deterministic (no wall-clock input), so it must also be
/// schedule-invariant; LatencyTargeted sizes wave from measurements, so
/// only its outcome sanity is asserted.
#[test]
fn adaptive_policies_drive_the_loop() {
    let decay = BatchPolicy::BenefitDecay {
        max: 8,
        cutoff: 0.5,
    };
    let a = run_async(600, 42, decay.clone(), &[], 1, 1);
    let b = run_async(600, 42, decay, &[1, 3, 0, 2], 1, 1);
    assert_same_final(&a.run, &b.run, "benefit-decay schedule invariance");
    assert!(a.report.peak_in_flight > 1, "decay policy never batched");

    let lat = run_async(600, 42, BatchPolicy::LatencyTargeted { max: 8 }, &[], 1, 1);
    assert!(lat.run.questions() > 5);
    assert!(!lat.run.accepted.is_empty());
    assert!(lat.report.peak_in_flight <= 8);
}

/// Scripted answers are selection-independent, so they hold the question
/// *sequence* fixed across loop flavors: on the transport fixture, a
/// scripted YES/NO interleaving through the async loop at batch 1 must
/// replay the synchronous run byte for byte — including the YES-flood
/// prefix that floods `P` through the out-of-order application path.
#[test]
fn scripted_answers_replay_identically_through_the_async_loop() {
    let (corpus, _labels) = transport();
    let index = indexed(&corpus, 4);
    let script = [true, true, false, true, false, false, true, false];
    let make_cfg = || cfg(BatchPolicy::Fixed(1), 1, 1);
    let seed = || Seed::Rule(Heuristic::phrase(&corpus, "shuttle to the airport").unwrap());

    let sync = {
        let mut oracle = ScriptedOracle::new(script);
        Darwin::new(&corpus, &index, make_cfg()).run(seed(), &mut oracle)
    };
    let done = {
        let mut oracle = Immediate::new(ScriptedOracle::new(script));
        Darwin::new(&corpus, &index, make_cfg()).run_async(seed(), &mut oracle)
    };
    assert!(sync.questions() > 3, "scripted run stalled");
    assert_equivalent(&sync, &done.run, "scripted batch=1 vs synchronous");
}

/// §4.3 accounting against noisy annotators: `run_parallel_costed` prices
/// every asked question at members × 2¢ regardless of answer quality, the
/// question count reconciles with the per-annotator ask counts, and a 10%
/// answer-flip rate doesn't stall discovery.
#[test]
fn noisy_crowd_run_reconciles_with_cost_report() {
    let (d, index) = directions_fixture(600, 42);
    let darwin = Darwin::new(&d.corpus, &index, cfg(BatchPolicy::Fixed(1), 1, 1));
    let seed = Seed::Rule(Heuristic::phrase(&d.corpus, d.seed_rules[0]).unwrap());
    let mut a = NoisyOracle::new(&d.labels, 0.1, 1);
    let mut b = NoisyOracle::new(&d.labels, 0.1, 2);
    let mut c = NoisyOracle::new(&d.labels, 0.1, 3);
    let (run, cost) = {
        let mut annotators: Vec<&mut dyn Oracle> = vec![&mut a, &mut b, &mut c];
        darwin.run_parallel_costed(seed, &mut annotators, 5, &CostModel::paper())
    };
    assert!(run.questions() > 3, "noisy crowd run stalled");
    assert_eq!(cost.questions, run.questions());
    assert_eq!(cost.judgments, run.questions() * 3);
    assert_eq!(cost.cents, run.questions() * 6, "3 members × 2¢ a question");
    assert_eq!(
        a.queries() + b.queries() + c.queries(),
        run.questions(),
        "every question went to exactly one annotator"
    );
    assert!(
        run.positives.len() > run.p_size_after(0),
        "10% flips must not stop P from growing"
    );
}

/// The async loop under a noisy oracle: §4.3 pricing rides the report, and
/// determinism holds (same noise seed ⇒ same trace) even with batching.
#[test]
fn noisy_async_run_is_deterministic_and_priced() {
    let (d, index) = directions_fixture(600, 42);
    let run = || {
        let darwin = Darwin::new(&d.corpus, &index, cfg(BatchPolicy::Fixed(4), 1, 1));
        let seed = Seed::Rule(Heuristic::phrase(&d.corpus, d.seed_rules[0]).unwrap());
        let mut oracle = darwin_core::Immediate::new(NoisyOracle::new(&d.labels, 0.15, 7));
        darwin.run_async_costed(seed, &mut oracle, &CostModel::single())
    };
    let x = run();
    let y = run();
    assert_equivalent(&x.run, &y.run, "noisy async determinism");
    assert_eq!(x.report.cost.cents, x.run.questions() * 2);
    assert_eq!(x.report.cost.judgments, x.run.questions());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 5, ..Default::default() })]

    /// The full (batch, arrival schedule, S, threads) matrix against the
    /// synchronous reference: batch 1 replays it byte for byte; every
    /// batch size is invariant in final state under schedule, shards and
    /// threads.
    #[test]
    fn batch_matrix_against_synchronous_reference(
        n in 220usize..300,
        dseed in 0u64..500,
        batch in prop::sample::select(vec![1usize, 2, 4, 8]),
        holds in prop::collection::vec(0usize..5, 1..8),
        shards in prop::sample::select(vec![1usize, 2, 4]),
        threads in prop::sample::select(vec![1usize, 4]),
    ) {
        let sync = run_sync(n, dseed, 1, 1);
        let policy = BatchPolicy::Fixed(batch);
        // The cell under test: scripted schedule, sharded, threaded.
        let cell = run_async(n, dseed, policy.clone(), &holds, shards, threads);
        // Its immediate-delivery, unsharded sibling.
        let reference = run_async(n, dseed, policy, &[], 1, 1);

        prop_assert_eq!(
            cell.run.positives.clone(),
            reference.run.positives.clone(),
            "batch={} holds={:?} S={} T={}: final P differs from immediate sibling",
            batch, &holds, shards, threads
        );
        prop_assert_eq!(
            cell.run.scores.clone(),
            reference.run.scores.clone(),
            "batch={} S={} T={}: final scores differ from immediate sibling",
            batch, shards, threads
        );
        prop_assert_eq!(cell.run.questions(), reference.run.questions());
        if batch == 1 {
            // One in flight: the async loop IS the synchronous loop.
            prop_assert_eq!(
                cell.run.positives.clone(), sync.positives.clone(),
                "batch=1 must replay the synchronous positives"
            );
            prop_assert_eq!(cell.run.scores.clone(), sync.scores.clone());
            for (x, y) in cell.run.trace.iter().zip(&sync.trace) {
                prop_assert_eq!(&x.rule, &y.rule, "q{}: rule differs from sync", x.question);
                prop_assert_eq!(x.answer, y.answer);
                prop_assert_eq!(&x.new_positive_ids, &y.new_positive_ids);
            }
        }
    }
}
