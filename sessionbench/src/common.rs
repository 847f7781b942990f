//! What every workload shares: the report, the timed oracles, session
//! quality scoring and the trace digest.

use crate::trace::{fnv64, in_span, median, peak_rss_mb, tail_percentile, trimmed_mean, Tracer};
use darwin_core::{AsyncOracle, GroundTruthOracle, Immediate, Oracle, QuestionId, RunResult};
use darwin_grammar::Heuristic;
use darwin_index::{IndexConfig, IndexSet};
use darwin_text::embed::EmbedConfig;
use darwin_text::{Corpus, Embeddings};
use darwin_wire::Encode;
use std::time::{Duration, Instant};

/// Worker threads used everywhere: analysis, index build, refresh, engine.
pub const THREADS: usize = 2;

/// Oracle precision bar (paper §4.1).
pub const YES_PRECISION: f64 = 0.8;

/// What one workload run produced, printed by `main`.
#[derive(Default)]
pub struct Report {
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines: sample counts, digests, stage splits.
    pub notes: Vec<String>,
    /// Correctness checks that failed.
    pub failures: Vec<String>,
    /// Operations attempted: sessions driven plus appends issued.
    pub attempted: usize,
    /// Failed operations: sessions ending with a wire error or a panic,
    /// appends returning `Err`.
    pub failed: usize,
    /// Peak RSS once the run's judged sessions have ended. The peak moves
    /// by about a fifth from corpus to corpus at 50k, so one corpus would
    /// make it hang on the seed; the judged sessions are a fixed set, where
    /// a peak over all of a run's sessions would depend on its length.
    pub judged_rss_mb: Option<f64>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Report a per-session quantity as the mean of its samples without
    /// the lowest and the highest: sessions run on different corpora, and
    /// one unusual corpus should not move the run's figure.
    pub fn session_metric(&mut self, name: &'static str, samples: &[f64], unit: &'static str) {
        self.metric(name, trimmed_mean(samples), unit);
        self.list(name, samples, "per session, trimmed mean", unit);
    }

    /// Report the median of `samples` as `name`, and note the sample count
    /// and the highest percentile with ten samples beyond it.
    pub fn median_metric(&mut self, name: &'static str, samples: &[f64], unit: &'static str) {
        self.metric(name, median(samples), unit);
        self.list(name, samples, "median", unit);
    }

    fn list(&mut self, name: &str, samples: &[f64], how: &str, unit: &str) {
        let tail = match tail_percentile(samples) {
            Some((p, v)) => format!(", p{p} {v:.4} {unit}"),
            None => ", no tail percentile (fewer than ten samples beyond p75)".into(),
        };
        let listed = if samples.len() <= 64 {
            let v: Vec<String> = samples.iter().map(|x| format!("{x:.4}")).collect();
            format!(" [{}]", v.join(", "))
        } else {
            String::new()
        };
        self.note(format!(
            "{name}: {how} of {} samples{listed}{tail}",
            samples.len()
        ));
    }
}

/// The generated inputs of one workload: raw sentences, ground truth and
/// the seed rule. The program under test only ever sees these.
pub struct Inputs {
    pub texts: Vec<String>,
    pub labels: Vec<bool>,
    pub seed_rule: &'static str,
}

impl Inputs {
    /// Professions sentences from the dataset generator, as raw text.
    pub fn professions(n: usize, seed: u64) -> Inputs {
        let d = darwin_datasets::professions::generate(n, seed);
        Inputs {
            texts: (0..d.corpus.len() as u32)
                .map(|i| d.corpus.text(i))
                .collect(),
            labels: d.labels,
            seed_rule: d.seed_rules[0],
        }
    }

    pub fn seed_heuristic(&self, corpus: &Corpus) -> Heuristic {
        Heuristic::phrase(corpus, self.seed_rule).expect("seed rule parses over the corpus")
    }
}

/// The analyzed corpus, its index and embeddings: what a session is set up
/// from before its engine starts.
pub struct Built {
    pub corpus: Corpus,
    pub index: IndexSet,
    pub emb: Embeddings,
    /// Analyze plus index build: the bulk-ingest time of the corpus.
    pub ingest: Duration,
}

/// Raw texts to an analyzed corpus, its index and the embeddings trained
/// the way `Darwin::new` trains them for `darwin_seed`. When tracing, each
/// stage is a span under one `setup` span.
pub fn build(
    texts: &[String],
    index_cfg: &IndexConfig,
    darwin_seed: u64,
    mut tracer: Option<&mut Tracer>,
) -> Built {
    let setup = tracer.as_deref_mut().map(|t| t.enter("setup"));
    let t = Instant::now();
    let corpus = in_span(&mut tracer, "text.analyze", || {
        Corpus::from_texts_parallel(texts, THREADS)
    });
    let index = in_span(&mut tracer, "index.build", || {
        IndexSet::build(&corpus, index_cfg)
    });
    let ingest = t.elapsed();
    let embed_cfg = EmbedConfig {
        seed: darwin_seed,
        ..Default::default()
    };
    let emb = in_span(&mut tracer, "text.embed_train", || {
        Embeddings::train(&corpus, &embed_cfg)
    });
    if let (Some(t), Some(id)) = (tracer, setup) {
        t.exit(id);
    }
    Built {
        corpus,
        index,
        emb,
        ingest,
    }
}

/// Bulk-ingest rates of `texts` from `repeats` more analyze + index builds,
/// each in sentences per second. One build of a 50k corpus takes about
/// 0.2 s, short enough that the host's drift moves it more than the
/// program does, so the no-append workloads pool these with each session's
/// own build and report the median.
pub fn rebuild_rates(texts: &[String], index_cfg: &IndexConfig, repeats: usize) -> Vec<f64> {
    (0..repeats)
        .map(|_| {
            let t = Instant::now();
            let corpus = Corpus::from_texts_parallel(texts, THREADS);
            let index = IndexSet::build(&corpus, index_cfg);
            let rate = corpus.len() as f64 / secs(t.elapsed());
            drop((index, corpus));
            rate
        })
        .collect()
}

/// One `Oracle::ask` call as the annotator saw it.
pub struct Ask {
    pub enter: Instant,
    pub exit: Instant,
    pub yes: bool,
}

/// A synchronous oracle that timestamps every question, so the timed path
/// stays plain `Darwin::run`.
pub struct TimedOracle<'a> {
    inner: GroundTruthOracle<'a>,
    pub asks: Vec<Ask>,
}

impl<'a> TimedOracle<'a> {
    pub fn new(labels: &'a [bool]) -> TimedOracle<'a> {
        TimedOracle {
            inner: GroundTruthOracle::new(labels, YES_PRECISION),
            asks: Vec::new(),
        }
    }

    pub fn ask_ms(&self) -> f64 {
        self.asks
            .iter()
            .map(|a| (a.exit - a.enter).as_secs_f64() * 1e3)
            .sum()
    }

    pub fn yes(&self) -> usize {
        self.asks.iter().filter(|a| a.yes).count()
    }

    /// Milliseconds from each YES answer to the next question.
    pub fn yes_turnarounds_ms(&self) -> Vec<f64> {
        self.asks
            .windows(2)
            .filter(|w| w[0].yes)
            .map(|w| (w[1].enter - w[0].exit).as_secs_f64() * 1e3)
            .collect()
    }
}

impl Oracle for TimedOracle<'_> {
    fn ask(&mut self, corpus: &Corpus, rule: &Heuristic, coverage: &[u32]) -> bool {
        let enter = Instant::now();
        let yes = self.inner.ask(corpus, rule, coverage);
        self.asks.push(Ask {
            enter,
            exit: Instant::now(),
            yes,
        });
        yes
    }

    fn queries(&self) -> usize {
        self.inner.queries()
    }
}

/// An immediate-answer async oracle that timestamps submissions and the
/// polls delivering a YES. Time the benchmark spends appending between
/// drive segments is reported through [`TimedAsyncOracle::pause`] and
/// left out of the turnarounds.
pub struct TimedAsyncOracle<'a> {
    inner: Immediate<GroundTruthOracle<'a>>,
    /// `(when, pause total then, is a YES delivery)`; submissions otherwise.
    events: Vec<(Instant, Duration, bool)>,
    paused: Duration,
    ask_time: Duration,
    pub questions: usize,
    pub yes: usize,
}

impl<'a> TimedAsyncOracle<'a> {
    pub fn new(labels: &'a [bool]) -> TimedAsyncOracle<'a> {
        TimedAsyncOracle {
            inner: Immediate::new(GroundTruthOracle::new(labels, YES_PRECISION)),
            events: Vec::new(),
            paused: Duration::ZERO,
            ask_time: Duration::ZERO,
            questions: 0,
            yes: 0,
        }
    }

    /// Exclude `d` of wall time from the turnaround in progress.
    pub fn pause(&mut self, d: Duration) {
        self.paused += d;
    }

    pub fn first_submit(&self) -> Option<Instant> {
        self.events.iter().find(|e| !e.2).map(|e| e.0)
    }

    pub fn ask_ms(&self) -> f64 {
        self.ask_time.as_secs_f64() * 1e3
    }

    /// Milliseconds from each poll that delivered a YES to the next
    /// submission, net of paused time.
    pub fn yes_turnarounds_ms(&self) -> Vec<f64> {
        let mut out = Vec::new();
        let mut open: Option<(Instant, Duration)> = None;
        for &(at, paused, is_yes) in &self.events {
            if is_yes {
                open = Some((at, paused));
            } else if let Some((t, p)) = open.take() {
                out.push(((at - t) - (paused - p)).as_secs_f64() * 1e3);
            }
        }
        out
    }
}

impl AsyncOracle for TimedAsyncOracle<'_> {
    fn submit(&mut self, qid: QuestionId, corpus: &Corpus, rule: &Heuristic, coverage: &[u32]) {
        let at = Instant::now();
        self.events.push((at, self.paused, false));
        self.inner.submit(qid, corpus, rule, coverage);
        self.ask_time += at.elapsed();
        self.questions += 1;
    }

    fn poll(&mut self) -> Vec<(QuestionId, bool)> {
        let answers = self.inner.poll();
        let yes = answers.iter().filter(|a| a.1).count();
        if yes > 0 {
            self.yes += yes;
            self.events.push((Instant::now(), self.paused, true));
        }
        answers
    }

    fn queries(&self) -> usize {
        self.inner.queries()
    }
}

/// Paper-quality outcome of one session, deterministic in its inputs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quality {
    /// Share of ground-truth positives in the final `P`.
    pub recall: f64,
    /// Mean recall after questions 1..=q.
    pub recall_auc: f64,
    /// F1 of the final scores thresholded at 0.5.
    pub score_f1: f64,
}

/// Score `run` against `labels` (one label per corpus sentence).
pub fn quality(run: &RunResult, labels: &[bool]) -> Quality {
    let truth = labels.iter().filter(|&&l| l).count().max(1) as f64;
    let is_true = |id: &u32| labels[*id as usize];
    let mut found = run
        .positives_after(0)
        .iter()
        .filter(|id| is_true(id))
        .count();
    let mut curve = 0.0;
    for step in &run.trace {
        found += step
            .new_positive_ids
            .iter()
            .filter(|id| is_true(id))
            .count();
        curve += found as f64 / truth;
    }
    Quality {
        recall: darwin_eval::coverage(&run.positives, labels),
        recall_auc: curve / run.trace.len().max(1) as f64,
        score_f1: darwin_eval::f1_score(&run.scores, labels, 0.5),
    }
}

/// FNV-1a 64 over the encoded trace, the final positive set and the final
/// score bits — the same digest `darwin-worker` prints for a session.
pub fn digest(run: &RunResult) -> u64 {
    let mut bytes = Vec::new();
    run.trace.encode(&mut bytes);
    run.positives.encode(&mut bytes);
    for s in &run.scores {
        bytes.extend_from_slice(&s.to_bits().to_le_bytes());
    }
    fnv64(&bytes)
}

/// Whether two runs agree on trace, positives and score bits.
pub fn same_run(a: &RunResult, b: &RunResult) -> bool {
    a.trace == b.trace
        && a.positives == b.positives
        && a.scores.len() == b.scores.len()
        && a.scores
            .iter()
            .zip(&b.scores)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Run `f`, turning a panic into `None` so a failed session is counted
/// rather than aborting the benchmark.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The seed of a run's `i`-th session. Each session labels a corpus of its
/// own, so a run's medians are taken over several corpora and do not hang
/// on one draw of the generator.
pub fn session_seed(seed: u64, i: usize) -> u64 {
    SplitMix(seed ^ (i as u64).wrapping_mul(0x2545_F491_4F6C_DD1D)).next()
}

/// SplitMix64: seeds and the replay's negative sampling.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Drive `one(report, session_seed(seed, i))` for `i = 0, 1, ...`: at least
/// `min` times (the judged sessions), then while another session of the
/// last one's length still ends within `seconds`. A session that panics or
/// returns `None` counts as a failed operation.
pub fn repeat_sessions<T>(
    report: &mut Report,
    seed: u64,
    min: usize,
    seconds: f64,
    mut one: impl FnMut(&mut Report, u64) -> Option<T>,
) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut last = Duration::ZERO;
    let mut i = 0;
    while i < min || secs(start.elapsed() + last) <= seconds {
        if out.is_empty() && i >= 3 {
            break; // nothing completes: stop rather than spin
        }
        let t = Instant::now();
        report.attempted += 1;
        match guarded(|| one(report, session_seed(seed, i))).flatten() {
            Some(x) => out.push(x),
            None => report.failed += 1,
        }
        if i + 1 == min.max(1) {
            report.judged_rss_mb = peak_rss_mb();
        }
        i += 1;
        last = t.elapsed();
    }
    out
}
