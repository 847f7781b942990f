//! Wave-driven workloads: a `StreamSession` driven one wave per
//! `StreamSession::drive` segment, optionally growing its corpus by a batch
//! of sentences at each of its first barriers.

use crate::common::{
    build, digest, guarded, ms, quality, rebuild_rates, repeat_sessions, same_run, secs,
    session_seed, Built, Inputs, Quality, Report, TimedAsyncOracle, THREADS,
};
use crate::prof::{quality_metrics, replay_classifier};
use crate::trace::{in_span, Tracer};
use darwin_classifier::ClassifierKind;
use darwin_core::{
    AsyncRunResult, BatchPolicy, Darwin, DarwinConfig, Seed, StreamSession, StreamStatus,
};
use darwin_index::{IndexConfig, IndexSet};
use darwin_text::Corpus;
use std::time::{Duration, Instant};

/// One wave-driven workload.
pub struct Waves {
    /// Sentences the session starts from.
    pub base: usize,
    /// Batches appended, one at each of the first barriers.
    pub appends: usize,
    /// Sentences per appended batch.
    pub append_size: usize,
    pub classifier: ClassifierKind,
    /// Index pruning; appends need 1.
    pub min_count: usize,
    /// Sessions every timed run drives at least, and over which the
    /// quality metrics are taken.
    pub quality_sessions: usize,
    /// Without appends, the bulk-ingest samples each timed session adds
    /// after its own build.
    pub ingest_repeats: usize,
}

impl Waves {
    fn config(&self) -> DarwinConfig {
        DarwinConfig {
            budget: 40,
            n_candidates: 4000,
            classifier: self.classifier.clone(),
            batch: BatchPolicy::Fixed(8),
            threads: THREADS,
            ..Default::default()
        }
    }

    fn index_config(&self) -> IndexConfig {
        IndexConfig {
            max_phrase_len: 4,
            min_count: self.min_count,
            enable_tree: true,
            threads: THREADS,
            ..Default::default()
        }
    }

    fn total(&self) -> usize {
        self.base + self.appends * self.append_size
    }

    fn batch<'a>(&self, inputs: &'a Inputs, k: usize) -> &'a [String] {
        let from = self.base + k * self.append_size;
        &inputs.texts[from..from + self.append_size]
    }

    fn inputs(&self, seed: u64) -> Inputs {
        Inputs::professions(self.total(), seed)
    }
}

/// The appends replayed against a corpus and index of their own, so the
/// time inside `StreamSession::append` can be split by layer.
struct Mirror {
    corpus: Corpus,
    index: IndexSet,
}

impl Mirror {
    fn new(w: &Waves, inputs: &Inputs) -> Mirror {
        let corpus = Corpus::from_texts_parallel(&inputs.texts[..w.base], THREADS);
        let index = IndexSet::build(&corpus, &w.index_config());
        // The session's index has its sentence → rules transpose built by
        // the engine, and append extends it; build it here too.
        index.inverted();
        Mirror { corpus, index }
    }
}

/// Timings and outcome of one session.
struct Session {
    setup_s: f64,
    session_s: f64,
    /// Engine start-up up to the first question, inside the first drive.
    init_ms: f64,
    waves_ms: Vec<f64>,
    turnarounds_ms: Vec<f64>,
    /// Appended sentences per second inside `append`, or, without appends,
    /// analyzed and indexed base sentences per second: the session's own
    /// build, then its rebuilds.
    ingest_rates: Vec<f64>,
    appended: usize,
    appends_issued: usize,
    failed_appends: usize,
    /// Questions asked by the end of each wave that retrained (grew `P`).
    retrain_points: Vec<usize>,
    /// Time spent on the mirror between drive segments, left out of
    /// `session_s`.
    mirror_time: Duration,
    corpus_len: usize,
    rules: usize,
    mirror_rules_match: bool,
    ask_ms: f64,
    questions: usize,
    yes: usize,
    quality: Quality,
    digest: u64,
    result: AsyncRunResult,
}

fn session(
    w: &Waves,
    inputs: &Inputs,
    mut tracer: Option<&mut Tracer>,
    mut mirror: Option<&mut Mirror>,
) -> Option<Session> {
    let cfg = w.config();
    let t0 = Instant::now();
    let built = build(
        &inputs.texts[..w.base],
        &w.index_config(),
        cfg.seed,
        tracer.as_deref_mut(),
    );
    let (corpus, index, emb) = (built.corpus, built.index, built.emb);
    let seed = Seed::Rule(inputs.seed_heuristic(&corpus));
    let mut session = StreamSession::with_embeddings(corpus, index, cfg, seed, emb);
    let mut oracle = TimedAsyncOracle::new(&inputs.labels);

    let mut waves_ms = Vec::new();
    let mut retrain_points = Vec::new();
    let mut init_ms = 0.0;
    let mut appended = 0;
    let mut appends = 0;
    let mut failed_appends = 0;
    let mut append_time = Duration::ZERO;
    let mut mirror_time = Duration::ZERO;
    let mut mirror_rules_match = true;
    let mut wave = 0;
    loop {
        wave += 1;
        let (asked, yes) = (oracle.questions, oracle.yes);
        let t = Instant::now();
        let status = in_span(&mut tracer, "stream.drive", || {
            session.drive(&mut oracle, Some(wave))
        });
        let end = Instant::now();
        if wave == 1 {
            let first = oracle.first_submit()?;
            init_ms = ms(first - t);
            waves_ms.push(ms(end - first));
        } else if oracle.questions > asked {
            waves_ms.push(ms(end - t));
        }
        if oracle.yes > yes {
            retrain_points.push(oracle.questions);
        }
        if status == StreamStatus::Finished {
            break;
        }
        if appends < w.appends {
            let texts = w.batch(inputs, appends);
            appends += 1;
            let t = Instant::now();
            let r = in_span(&mut tracer, "stream.append", || session.append(texts));
            let d = t.elapsed();
            append_time += d;
            oracle.pause(d);
            match r {
                Ok(n) => appended += n,
                Err(_) => failed_appends += 1,
            }
            if let (Some(m), Some(tr)) = (mirror.as_deref_mut(), tracer.as_deref_mut()) {
                let t = Instant::now();
                tr.span("text.append_texts", || {
                    m.corpus.append_texts(texts, THREADS)
                });
                let r = tr.span("index.append", || {
                    m.index.append_with_threads(&m.corpus, THREADS)
                });
                mirror_rules_match &= r.is_ok() && m.index.rules() == session.index().rules();
                let d = t.elapsed();
                mirror_time += d;
                oracle.pause(d);
            }
        }
    }
    let end = Instant::now();
    let first = oracle.first_submit()?;
    let corpus_len = session.corpus().len();
    let rules = session.index().rules();
    let result = session.into_result()?;
    let ingest_rates = vec![if w.appends > 0 {
        appended as f64 / secs(append_time)
    } else {
        w.base as f64 / secs(built.ingest)
    }];
    Some(Session {
        setup_s: secs(first - t0),
        session_s: secs(end - first - mirror_time),
        init_ms,
        waves_ms,
        turnarounds_ms: oracle.yes_turnarounds_ms(),
        ingest_rates,
        appended,
        appends_issued: appends,
        failed_appends,
        retrain_points,
        mirror_time,
        corpus_len,
        rules,
        mirror_rules_match,
        ask_ms: oracle.ask_ms(),
        questions: oracle.questions,
        yes: oracle.yes,
        quality: quality(&result.run, &inputs.labels[..corpus_len]),
        digest: digest(&result.run),
        result,
    })
}

/// Count a session's appends and check its outcome; `false` when the
/// session itself failed.
fn tally(w: &Waves, report: &mut Report, s: &Session) -> bool {
    report.attempted += s.appends_issued;
    report.failed += s.failed_appends;
    let run = &s.result.run;
    let expected = w.total();
    report.check(s.corpus_len == expected, || {
        format!(
            "corpus ended at {} sentences, expected {expected}",
            s.corpus_len
        )
    });
    report.check(s.appended == w.appends * w.append_size, || {
        format!("{} sentences appended", s.appended)
    });
    report.check(run.wire_error.is_none(), || {
        format!("wire error: {:?}", run.wire_error)
    });
    report.check(run.scores.len() == s.corpus_len, || {
        format!("{} scores for {} sentences", run.scores.len(), s.corpus_len)
    });
    report.check(run.positives.len() > run.p_size_after(0), || {
        "the session never grew P beyond the seed".into()
    });
    run.wire_error.is_none()
}

/// The timed run: whole sessions, each on a corpus of its own, for
/// `seconds` and at least `w.quality_sessions` of them.
pub fn measure(w: &Waves, seed: u64, seconds: f64, report: &mut Report) {
    let sessions = repeat_sessions(report, seed, w.quality_sessions, seconds, |report, s| {
        let inputs = w.inputs(s);
        let mut s = session(w, &inputs, None, None)?;
        if w.appends == 0 {
            let texts = &inputs.texts[..w.base];
            s.ingest_rates
                .extend(rebuild_rates(texts, &w.index_config(), w.ingest_repeats));
        }
        tally(w, report, &s).then_some(s)
    });
    if sessions.is_empty() {
        report.check(false, || "no session completed".into());
        return;
    }
    let each = |f: fn(&Session) -> f64| -> Vec<f64> { sessions.iter().map(f).collect() };
    let pooled = |f: fn(&Session) -> &Vec<f64>| -> Vec<f64> {
        sessions.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    report.session_metric("setup_s", &each(|s| s.setup_s), "s");
    report.session_metric("session_s", &each(|s| s.session_s), "s");
    report.median_metric(
        "yes_turnaround_ms.p50",
        &pooled(|s| &s.turnarounds_ms),
        "ms",
    );
    report.median_metric("wave_ms.p50", &pooled(|s| &s.waves_ms), "ms");
    report.median_metric(
        "ingest_sentences_per_s",
        &pooled(|s| &s.ingest_rates),
        "1/s",
    );
    let judged = &sessions[..w.quality_sessions.min(sessions.len())];
    quality_metrics(report, judged.iter().map(|s| s.quality).collect());
    for s in judged {
        report.note(format!(
            "session digest {:016x}: {} waves, {} questions, {} YES, {} sentences appended, \
             final corpus {} sentences, {} rules",
            s.digest, s.result.report.waves, s.questions, s.yes, s.appended, s.corpus_len, s.rules
        ));
    }
    if w.appends == 0 {
        report.note(
            "ingest = analyze + index build of each session's corpus, \
             the session's own build and its rebuilds"
                .into(),
        );
    }
}

/// The traced run: one untraced session as the reference, then the same
/// session with spans, plus the ingest mirror when the workload appends,
/// or the `Darwin::run_async` reference and the classifier replay when it
/// does not.
pub fn trace(w: &Waves, seed: u64, report: &mut Report, tracer: &mut Tracer) {
    let inputs = w.inputs(session_seed(seed, 0));
    report.attempted += 2;
    let Some(plain) = guarded(|| session(w, &inputs, None, None)).flatten() else {
        report.failed += 2;
        report.check(false, || "the reference session failed".into());
        return;
    };
    report.failed += usize::from(!tally(w, report, &plain));
    let mut mirror = (w.appends > 0).then(|| Mirror::new(w, &inputs));
    let Some(traced) = guarded(|| session(w, &inputs, Some(tracer), mirror.as_mut())).flatten()
    else {
        report.failed += 1;
        report.check(false, || "the traced session failed".into());
        return;
    };
    report.failed += usize::from(!tally(w, report, &traced));
    report.check(same_run(&traced.result.run, &plain.result.run), || {
        "traced session diverged from the untraced one".into()
    });
    report.check(traced.mirror_rules_match, || {
        "mirror index rule count differs from the session's".into()
    });
    if w.appends == 0 {
        replay(w, &inputs, &traced, seed, report, tracer);
    }

    let t = |name| tracer.total_ms(name);
    let append_ms = t("stream.append");
    let mirror_ms = t("text.append_texts") + t("index.append");
    let fit_ms = t("classifier.fit");
    let r = &traced.result.report;
    report.metric("text.analyze_ms", t("text.analyze"), "ms");
    report.metric("index.build_ms", t("index.build"), "ms");
    report.metric("index.rules", traced.rules as f64, "count");
    report.metric("text.embed_train_ms", t("text.embed_train"), "ms");
    report.metric("engine.init_ms", traced.init_ms, "ms");
    report.metric("engine.retrains", r.retrains as f64, "count");
    report.metric("classifier.fit_ms", fit_ms, "ms");
    report.metric(
        "classifier.refresh_full_ms",
        t("classifier.refresh_full"),
        "ms",
    );
    report.metric(
        "classifier.fit_share",
        fit_ms / (plain.session_s * 1e3),
        "frac",
    );
    report.metric("oracle.ask_ms", traced.ask_ms, "ms");
    report.metric(
        "oracle.yes_rate",
        traced.yes as f64 / traced.questions.max(1) as f64,
        "frac",
    );
    report.metric("batch.waves", r.waves as f64, "count");
    report.metric("batch.retrains", r.retrains as f64, "count");
    report.metric("batch.peak_in_flight", r.peak_in_flight as f64, "count");
    report.metric("stream.append_ms", append_ms, "ms");
    report.metric("text.append_texts_ms", t("text.append_texts"), "ms");
    report.metric("index.append_ms", t("index.append"), "ms");
    report.metric("stream.reconcile_ms", append_ms - mirror_ms, "ms");
    report.metric(
        "trace.overhead_frac",
        traced.session_s / plain.session_s - 1.0,
        "frac",
    );
    let split = if w.appends > 0 {
        format!(
            "text.append_texts_ms and index.append_ms replay the appends on a mirror \
             ({:.3} s, left out of the traced session_s)",
            secs(traced.mirror_time)
        )
    } else {
        format!(
            "classifier.fit_ms and classifier.refresh_full_ms replay {} retrains",
            tracer.count("classifier.fit")
        )
    };
    report.note(format!(
        "session_s untraced {:.3} s, traced {:.3} s; {split}",
        plain.session_s, traced.session_s
    ));
    report.note(format!("session digest {:016x}", traced.digest));
}

/// Without appends the session is `Darwin::run_async` driven one wave at a
/// time: check that against the plain driver, then replay each barrier's
/// retrain on the same corpus.
fn replay(
    w: &Waves,
    inputs: &Inputs,
    traced: &Session,
    seed: u64,
    report: &mut Report,
    tracer: &mut Tracer,
) {
    let cfg = w.config();
    let Built {
        corpus, index, emb, ..
    } = build(&inputs.texts, &w.index_config(), cfg.seed, None);
    let darwin = Darwin::with_embeddings(&corpus, &index, cfg, emb);
    let mut oracle = TimedAsyncOracle::new(&inputs.labels);
    let reference = darwin.run_async(Seed::Rule(inputs.seed_heuristic(&corpus)), &mut oracle);
    report.check(same_run(&reference.run, &traced.result.run), || {
        "wave-by-wave session diverged from Darwin::run_async".into()
    });
    let run = &traced.result.run;
    let sets: Vec<Vec<u32>> = traced
        .retrain_points
        .iter()
        .map(|&q| run.positives_after(q))
        .collect();
    let span = tracer.enter("replay");
    replay_classifier(&darwin, &sets, seed, tracer);
    tracer.exit(span);
}
