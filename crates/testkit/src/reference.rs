//! The sequential question loop, spelled out from the engine's public
//! primitives — the reference the wave driver is checked against.
//!
//! Every entry point of `darwin-core` applies answers through one wave
//! driver, so comparing two entry points would compare the driver with
//! itself. This loop is paper Algorithm 1 written once, outside the
//! product: select, ask, record, feed back, and on YES retrain and
//! regenerate the hierarchy. `Darwin::run` must replay it byte for byte.

use darwin_core::traversal::{HybridSearch, LocalSearch, UniversalSearch};
use darwin_core::{Darwin, Engine, Oracle, RunResult, Seed, Strategy, TraversalKind};

/// One sequential question: select, ask, record, feed back, and on YES
/// retrain and regenerate the hierarchy. Returns `false` when the strategy
/// has nothing left to ask. The strategy observes the answer after it was
/// recorded, so its `ctx` already reflects the grown `P`.
pub fn step(
    darwin: &Darwin<'_>,
    engine: &mut Engine<'_>,
    strategy: &mut dyn Strategy,
    oracle: &mut dyn Oracle,
) -> bool {
    let Some(rule) = engine.select(strategy) else {
        return false;
    };
    let index = darwin.index();
    let answer = oracle.ask(
        darwin.corpus(),
        &index.heuristic(rule),
        index.coverage(rule),
    );
    engine.record(rule, answer);
    strategy.feedback(rule, answer, &engine.ctx());
    if answer {
        engine.retrain_and_sync();
        engine.regen_hierarchy();
    }
    true
}

/// The traversal `darwin`'s config selects, seeded like `Darwin::run`
/// seeds it.
fn configured_strategy(darwin: &Darwin<'_>, engine: &Engine<'_>) -> Box<dyn Strategy> {
    let seeds = engine.seed_refs().to_vec();
    match darwin.config().traversal {
        TraversalKind::Local => Box::new(LocalSearch::new(seeds)),
        TraversalKind::Universal => Box::new(UniversalSearch::new()),
        TraversalKind::Hybrid => Box::new(HybridSearch::new(seeds, darwin.config().tau)),
    }
}

/// `Darwin::run` as the sequential reference: the configured traversal,
/// [`step`] by step, up to the configured budget.
pub fn run_sequential(darwin: &Darwin<'_>, seed: Seed, oracle: &mut dyn Oracle) -> RunResult {
    let mut engine = darwin.engine(seed);
    let mut strategy = configured_strategy(darwin, &engine);
    for _ in 0..darwin.config().budget {
        if !step(darwin, &mut engine, &mut *strategy, oracle) {
            break;
        }
    }
    engine.finish()
}
