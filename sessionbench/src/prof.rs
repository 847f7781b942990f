//! Sequential workloads: whole `Darwin::run` sessions over a professions
//! corpus, from raw texts to a spent budget.

use crate::common::{
    build, digest, guarded, quality, rebuild_rates, repeat_sessions, same_run, secs, session_seed,
    Inputs, Quality, Report, SplitMix, TimedOracle, THREADS,
};
use crate::trace::Tracer;
use darwin_classifier::{ClassifierKind, ScoreCache};
use darwin_core::traversal::HybridSearch;
use darwin_core::{Darwin, DarwinConfig, Oracle, RunResult, Seed, Strategy, TraversalKind};
use darwin_index::IndexConfig;
use std::time::Instant;

/// One professions workload.
pub struct Prof {
    pub sentences: usize,
    pub classifier: ClassifierKind,
    /// Sessions every timed run drives at least, and over which the
    /// quality metrics are taken.
    pub quality_sessions: usize,
    /// Bulk-ingest samples each timed session adds after its own build.
    pub ingest_repeats: usize,
}

impl Prof {
    fn config(&self) -> DarwinConfig {
        DarwinConfig {
            budget: 50,
            n_candidates: 4000,
            classifier: self.classifier.clone(),
            threads: THREADS,
            ..Default::default()
        }
    }

    fn index_config() -> IndexConfig {
        IndexConfig {
            max_phrase_len: 4,
            min_count: 3,
            threads: THREADS,
            ..Default::default()
        }
    }
}

/// Timings and outcome of one untraced session.
struct Timed {
    setup_s: f64,
    session_s: f64,
    turnarounds_ms: Vec<f64>,
    /// Mean question cycle: `Darwin::run` is the wave driver at one
    /// question per wave.
    wave_ms: f64,
    /// The session's own analyze + index build, then its rebuilds.
    ingest_rates: Vec<f64>,
    quality: Quality,
    digest: u64,
    questions: usize,
    yes: usize,
    ask_ms: f64,
}

/// Raw texts to a spent budget through plain `Darwin::run`, on the corpus
/// generated from `seed`.
fn timed_session(w: &Prof, seed: u64, report: &mut Report) -> Option<Timed> {
    let cfg = w.config();
    let inputs = Inputs::professions(w.sentences, seed);
    let t0 = Instant::now();
    let built = build(&inputs.texts, &Prof::index_config(), cfg.seed, None);
    let darwin = Darwin::with_embeddings(&built.corpus, &built.index, cfg.clone(), built.emb);
    let seed_rule = Seed::Rule(inputs.seed_heuristic(&built.corpus));
    let mut oracle = TimedOracle::new(&inputs.labels);
    let run = darwin.run(seed_rule, &mut oracle);
    let end = Instant::now();
    let first = oracle.asks.first()?.enter;
    check_session(report, &run, &inputs, &cfg);
    if run.wire_error.is_some() {
        return None;
    }
    let mut ingest_rates = vec![built.corpus.len() as f64 / secs(built.ingest)];
    drop(darwin);
    drop((built.index, built.corpus));
    ingest_rates.extend(rebuild_rates(
        &inputs.texts,
        &Prof::index_config(),
        w.ingest_repeats,
    ));
    Some(Timed {
        setup_s: secs(first - t0),
        session_s: secs(end - first),
        turnarounds_ms: oracle.yes_turnarounds_ms(),
        wave_ms: secs(end - first) * 1e3 / run.questions() as f64,
        ingest_rates,
        quality: quality(&run, &inputs.labels),
        digest: digest(&run),
        questions: run.questions(),
        yes: oracle.yes(),
        ask_ms: oracle.ask_ms(),
    })
}

fn hybrid(cfg: &DarwinConfig, engine: &darwin_core::Engine<'_>) -> HybridSearch {
    assert_eq!(cfg.traversal, TraversalKind::Hybrid, "the default strategy");
    HybridSearch::new(engine.seed_refs().to_vec(), cfg.tau)
}

/// The timed run: whole sessions, each on a corpus of its own, for
/// `seconds` and at least `w.quality_sessions` of them.
pub fn measure(w: &Prof, seed: u64, seconds: f64, report: &mut Report) {
    let sessions = repeat_sessions(report, seed, w.quality_sessions, seconds, |report, s| {
        timed_session(w, s, report)
    });
    if sessions.is_empty() {
        report.check(false, || "no session completed".into());
        return;
    }
    let each = |f: fn(&Timed) -> f64| -> Vec<f64> { sessions.iter().map(f).collect() };
    let pooled = |f: fn(&Timed) -> &Vec<f64>| -> Vec<f64> {
        sessions.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    report.session_metric("setup_s", &each(|s| s.setup_s), "s");
    report.session_metric("session_s", &each(|s| s.session_s), "s");
    report.median_metric(
        "yes_turnaround_ms.p50",
        &pooled(|s| &s.turnarounds_ms),
        "ms",
    );
    report.session_metric("wave_ms.p50", &each(|s| s.wave_ms), "ms");
    report.median_metric(
        "ingest_sentences_per_s",
        &pooled(|s| &s.ingest_rates),
        "1/s",
    );
    let judged = &sessions[..w.quality_sessions.min(sessions.len())];
    quality_metrics(report, judged.iter().map(|s| s.quality).collect());
    for s in judged {
        report.note(format!(
            "session digest {:016x}: {} questions, {} YES, oracle {:.3} ms, recall {:.4}",
            s.digest, s.questions, s.yes, s.ask_ms, s.quality.recall
        ));
    }
    report.note(
        "wave = one question (Darwin::run is the Fixed(1) wave driver), per session mean; \
         ingest = analyze + index build of each session's corpus, \
         the session's own build and its rebuilds"
            .into(),
    );
}

/// Median quality over the sessions that are judged.
pub fn quality_metrics(report: &mut Report, qs: Vec<Quality>) {
    let each = |f: fn(&Quality) -> f64| -> Vec<f64> { qs.iter().map(f).collect() };
    report.median_metric("recall", &each(|q| q.recall), "frac");
    report.median_metric("recall_auc", &each(|q| q.recall_auc), "frac");
    report.median_metric("score_f1", &each(|q| q.score_f1), "frac");
}

/// Sanity of a finished session: it asked questions, found positives and
/// scored every sentence.
fn check_session(report: &mut Report, run: &RunResult, inputs: &Inputs, cfg: &DarwinConfig) {
    report.check(run.questions() > 0 && run.questions() <= cfg.budget, || {
        format!(
            "{} questions asked on a budget of {}",
            run.questions(),
            cfg.budget
        )
    });
    report.check(run.scores.len() == inputs.labels.len(), || {
        format!(
            "{} scores for {} sentences",
            run.scores.len(),
            inputs.labels.len()
        )
    });
    report.check(run.positives.len() > run.p_size_after(0), || {
        "the session never grew P beyond the seed".into()
    });
}

/// Counters and timings of the traced step loop.
struct Traced {
    run: RunResult,
    session_s: f64,
    /// `P` after each retrain, for the classifier replay.
    retrain_positives: Vec<Vec<u32>>,
    rules_rescored: u64,
    full_rebuilds: u64,
    hierarchy_rules: usize,
    ask_ms: f64,
    questions: usize,
    yes: usize,
}

/// `Engine::step`, spelled out so each call into the engine, the strategy
/// and the oracle gets its own span.
fn traced_session(darwin: &Darwin<'_>, seed: Seed, labels: &[bool], tracer: &mut Tracer) -> Traced {
    let cfg = darwin.config();
    let index = darwin.index();
    let corpus = darwin.corpus();
    let mut oracle = TimedOracle::new(labels);
    let mut engine = tracer.span("engine.init", || darwin.engine(seed));
    let mut strategy = hybrid(cfg, &engine);
    let session = tracer.enter("session");
    let mut retrain_positives = Vec::new();
    for _ in 0..cfg.budget {
        let Some(rule) = tracer.span("engine.select", || engine.select(&mut strategy)) else {
            break;
        };
        let h = index.heuristic(rule);
        let answer = tracer.span("oracle.ask", || {
            oracle.ask(corpus, &h, index.coverage(rule))
        });
        tracer.span("engine.record", || engine.record(rule, answer));
        tracer.span("strategy.feedback", || {
            strategy.feedback(rule, answer, &engine.ctx())
        });
        if answer {
            tracer.span("engine.retrain_and_sync", || engine.retrain_and_sync());
            retrain_positives.push(engine.state.p.iter().collect());
            tracer.span("engine.regen_hierarchy", || engine.regen_hierarchy());
        }
    }
    let stats = engine.frontier().map(|f| f.stats()).unwrap_or_default();
    let hierarchy_rules = engine.hierarchy().len();
    let run = engine.finish();
    tracer.exit(session);
    let end = Instant::now();
    let session_s = oracle.asks.first().map_or(0.0, |a| secs(end - a.enter));
    Traced {
        run,
        session_s,
        retrain_positives,
        rules_rescored: stats.rules_rescored,
        full_rebuilds: stats.full_rebuilds,
        hierarchy_rules,
        ask_ms: oracle.ask_ms(),
        questions: oracle.asks.len(),
        yes: oracle.yes(),
    }
}

/// Refit a fresh classifier of the configured kind on each retrain's `P`
/// against a negative sample of the engine's size, and fully re-score the
/// corpus with it. These are replays: the engine's own fit and refresh
/// happen inside `retrain_and_sync`, which has no finer public boundary.
pub fn replay_classifier(darwin: &Darwin<'_>, sets: &[Vec<u32>], seed: u64, tracer: &mut Tracer) {
    let cfg = darwin.config();
    let corpus = darwin.corpus();
    let emb = darwin.embeddings();
    let n = corpus.len();
    let mut rng = SplitMix(seed ^ 0x5E55_10B1);
    for pos in sets {
        // The engine's negative-sample size (`Engine::retrain_and_sync`).
        let want = (pos.len() * cfg.neg_per_pos)
            .max(cfg.min_negatives)
            .min(n / 3)
            .min(n - pos.len());
        let mut in_p = vec![false; n];
        for &id in pos {
            in_p[id as usize] = true;
        }
        let mut neg = Vec::with_capacity(want);
        while neg.len() < want {
            let id = (rng.next() % n as u64) as u32;
            if !in_p[id as usize] {
                neg.push(id);
            }
        }
        let kind = cfg.classifier.clone().with_warm_start(cfg.warm_start);
        let mut clf = kind.build(emb, cfg.seed);
        tracer.span("classifier.fit", || clf.fit(corpus, emb, pos, &neg));
        let mut cache = ScoreCache::new(n)
            .with_shards(cfg.shards)
            .with_threads(cfg.threads);
        tracer.span("classifier.refresh_full", || {
            cache.refresh(&*clf, corpus, emb)
        });
        assert!(
            cache.last_refresh_was_full(),
            "a first refresh scores everything"
        );
    }
}

/// The traced run: a traced set-up, one untraced `Darwin::run` as the
/// reference, the same session through the traced step loop, then the
/// classifier replays.
pub fn trace(w: &Prof, seed: u64, report: &mut Report, tracer: &mut Tracer) {
    let cfg = w.config();
    let inputs = Inputs::professions(w.sentences, session_seed(seed, 0));
    let built = build(&inputs.texts, &Prof::index_config(), cfg.seed, Some(tracer));
    let darwin = Darwin::with_embeddings(&built.corpus, &built.index, cfg.clone(), built.emb);
    let seed_rule = Seed::Rule(inputs.seed_heuristic(&built.corpus));

    report.attempted += 2;
    let mut oracle = TimedOracle::new(&inputs.labels);
    let Some(reference) = guarded(|| darwin.run(seed_rule.clone(), &mut oracle)) else {
        report.failed += 2;
        report.check(false, || "the reference session panicked".into());
        return;
    };
    let end = Instant::now();
    let plain_s = oracle
        .asks
        .first()
        .map_or(f64::NAN, |a| secs(end - a.enter));
    let Some(traced) = guarded(|| traced_session(&darwin, seed_rule, &inputs.labels, tracer))
    else {
        report.failed += 1;
        report.check(false, || "the traced session panicked".into());
        return;
    };
    report.failed += [&reference, &traced.run]
        .iter()
        .filter(|r| r.wire_error.is_some())
        .count();
    report.check(same_run(&traced.run, &reference), || {
        "traced step loop diverged from Darwin::run".into()
    });
    check_session(report, &traced.run, &inputs, &cfg);

    let replay = tracer.enter("replay");
    replay_classifier(&darwin, &traced.retrain_positives, seed, tracer);
    tracer.exit(replay);

    let t = |name| tracer.total_ms(name);
    let fit_ms = t("classifier.fit");
    report.metric("text.analyze_ms", t("text.analyze"), "ms");
    report.metric("index.build_ms", t("index.build"), "ms");
    report.metric("index.rules", built.index.rules() as f64, "count");
    report.metric("text.embed_train_ms", t("text.embed_train"), "ms");
    report.metric("engine.init_ms", t("engine.init"), "ms");
    report.metric("engine.select_ms", t("engine.select"), "ms");
    report.metric("engine.record_ms", t("engine.record"), "ms");
    report.metric("strategy.feedback_ms", t("strategy.feedback"), "ms");
    report.metric(
        "engine.retrain_and_sync_ms",
        t("engine.retrain_and_sync"),
        "ms",
    );
    report.metric(
        "engine.regen_hierarchy_ms",
        t("engine.regen_hierarchy"),
        "ms",
    );
    report.metric(
        "engine.retrains",
        tracer.count("engine.retrain_and_sync") as f64,
        "count",
    );
    report.metric("classifier.fit_ms", fit_ms, "ms");
    report.metric(
        "classifier.refresh_full_ms",
        t("classifier.refresh_full"),
        "ms",
    );
    report.metric("classifier.fit_share", fit_ms / (plain_s * 1e3), "frac");
    report.metric(
        "frontier.rules_rescored",
        traced.rules_rescored as f64,
        "count",
    );
    report.metric(
        "frontier.full_rebuilds",
        traced.full_rebuilds as f64,
        "count",
    );
    report.metric("hierarchy.rules", traced.hierarchy_rules as f64, "count");
    report.metric("oracle.ask_ms", traced.ask_ms, "ms");
    report.metric(
        "oracle.yes_rate",
        traced.yes as f64 / traced.questions.max(1) as f64,
        "frac",
    );
    // `Darwin::run` is the wave driver at `Fixed(1)`: every question is a
    // wave, every YES a retrain barrier.
    report.metric("batch.waves", traced.questions as f64, "count");
    report.metric("batch.retrains", traced.yes as f64, "count");
    report.metric("batch.peak_in_flight", 1.0, "count");
    report.metric(
        "trace.overhead_frac",
        traced.session_s / plain_s - 1.0,
        "frac",
    );

    report.note(format!(
        "session_s untraced {plain_s:.3} s, traced {:.3} s; classifier.fit_ms and \
         classifier.refresh_full_ms are replays of {} retrains ({} of untraced session_s is fit)",
        traced.session_s,
        traced.retrain_positives.len(),
        format_args!("{:.1}%", 100.0 * fit_ms / (plain_s * 1e3))
    ));
    report.note(format!("session digest {:016x}", digest(&traced.run)));
}
