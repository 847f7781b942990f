//! End-to-end benchmark of Darwin labeling sessions.
//!
//! ```text
//! cargo run --release --offline --manifest-path sessionbench/Cargo.toml -- \
//!     --workload prof50k-logreg --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Runs from the repository root. `--trace 0` times whole sessions with
//! tracing off and prints the end-to-end metrics; `--trace 1` runs one
//! traced session and prints the per-layer metrics. Every run checks its
//! outputs; the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod common;
mod prof;
mod trace;
mod waves;

use common::{Report, THREADS};
use darwin_classifier::ClassifierKind;
use prof::Prof;
use std::process::ExitCode;
use trace::Tracer;
use waves::Waves;

/// The per-layer metrics and their units, in report order. A workload
/// without the layer boundary a metric is taken at reports 0 for it: the
/// engine's step spans exist only on the sequential workloads, the append
/// split only where the corpus grows, the classifier replay only without
/// appends.
const PER_LAYER: [(&str, &str); 27] = [
    ("text.analyze_ms", "ms"),
    ("index.build_ms", "ms"),
    ("index.rules", "count"),
    ("text.embed_train_ms", "ms"),
    ("engine.init_ms", "ms"),
    ("engine.select_ms", "ms"),
    ("engine.record_ms", "ms"),
    ("strategy.feedback_ms", "ms"),
    ("engine.retrain_and_sync_ms", "ms"),
    ("engine.regen_hierarchy_ms", "ms"),
    ("engine.retrains", "count"),
    ("classifier.fit_ms", "ms"),
    ("classifier.refresh_full_ms", "ms"),
    ("classifier.fit_share", "frac"),
    ("frontier.rules_rescored", "count"),
    ("frontier.full_rebuilds", "count"),
    ("hierarchy.rules", "count"),
    ("oracle.ask_ms", "ms"),
    ("oracle.yes_rate", "frac"),
    ("batch.waves", "count"),
    ("batch.retrains", "count"),
    ("batch.peak_in_flight", "count"),
    ("stream.append_ms", "ms"),
    ("text.append_texts_ms", "ms"),
    ("index.append_ms", "ms"),
    ("stream.reconcile_ms", "ms"),
    ("trace.overhead_frac", "frac"),
];

struct Args {
    name: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name: String = workload.ok_or("--workload is required")?;
    let workload = workload_named(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    Ok(Args {
        name,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(40.0),
        trace: trace.unwrap_or(false),
    })
}

enum Workload {
    /// Sequential `Darwin::run` sessions.
    Prof(Prof),
    /// Wave-driven `StreamSession` sessions.
    Waves(Waves),
}

fn workload_named(name: &str) -> Option<Workload> {
    Some(match name {
        "prof50k-logreg" => Workload::Prof(Prof {
            sentences: 50_000,
            classifier: ClassifierKind::logreg(),
            quality_sessions: 5,
            ingest_repeats: 3,
        }),
        // The re-anchor row. One session takes ~15 s, too long for a steady
        // figure within a run, so it serves `--trace 1` stage splits only.
        "prof200k-logreg" => Workload::Prof(Prof {
            sentences: 200_000,
            classifier: ClassifierKind::logreg(),
            quality_sessions: 1,
            ingest_repeats: 0,
        }),
        "batch50k-cnn" => Workload::Waves(Waves {
            base: 50_000,
            appends: 0,
            append_size: 0,
            classifier: ClassifierKind::cnn(),
            min_count: 3,
            quality_sessions: 9,
            ingest_repeats: 1,
        }),
        "stream-tree-ingest" => Workload::Waves(Waves {
            base: 20_000,
            appends: 5,
            append_size: 25_000,
            classifier: ClassifierKind::logreg(),
            min_count: 1,
            quality_sessions: 3,
            ingest_repeats: 0,
        }),
        _ => return None,
    })
}

/// The checked-out commit, when run from a git work tree.
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn write_spans(args: &Args, tracer: &Tracer) -> std::io::Result<String> {
    let dir = std::path::Path::new("sessionbench/out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.name, args.seed));
    std::fs::write(&path, tracer.to_jsonl())?;
    Ok(path.display().to_string())
}

fn json_result(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; an unmeasurable value is null.
            let v = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failures.is_empty(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sessionbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host_threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "sessionbench workload={} seed={} seconds={} trace={} host_threads={host_threads} \
         threads={THREADS} commit={}",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit()
    );

    let mut report = Report::default();
    let mut tracer = Tracer::new();
    match (&args.workload, args.trace) {
        (Workload::Prof(w), false) => prof::measure(w, args.seed, args.seconds, &mut report),
        (Workload::Prof(w), true) => prof::trace(w, args.seed, &mut report, &mut tracer),
        (Workload::Waves(w), false) => waves::measure(w, args.seed, args.seconds, &mut report),
        (Workload::Waves(w), true) => waves::trace(w, args.seed, &mut report, &mut tracer),
    }
    if args.trace {
        let measured = std::mem::take(&mut report.metrics);
        for (name, unit) in PER_LAYER {
            let value = measured.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
            report.metric(name, value, unit);
        }
        for (name, _, _) in &measured {
            assert!(
                PER_LAYER.iter().any(|m| m.0 == *name),
                "{name} is not a listed per-layer metric"
            );
        }
    }
    match (report.judged_rss_mb, trace::peak_rss_mb()) {
        (Some(judged), _) => report.metric("peak_rss_mb", judged, "MiB"),
        (None, Some(mb)) => report.note(format!("peak_rss_mb {mb:.1} MiB")),
        (None, None) => report.check(false, || "peak RSS is not readable on this platform".into()),
    }
    if !args.trace {
        let frac = report.failed as f64 / report.attempted.max(1) as f64;
        report.note(format!(
            "failed_frac {frac} ({} of {} operations)",
            report.failed, report.attempted
        ));
    } else {
        for (name, calls, total, own) in tracer.summary() {
            report.note(format!(
                "span {name:<26} calls {calls:>5}  total {total:>11.2} ms  self {own:>11.2} ms"
            ));
        }
        match write_spans(&args, &tracer) {
            Ok(path) => report.note(format!("spans written to {path}")),
            Err(e) => report.note(format!("spans not written: {e}")),
        }
    }

    for line in &report.notes {
        println!("# {line}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name:<28} {value:>16.4} {unit}");
    }
    for failure in &report.failures {
        println!("CHECK FAILED: {failure}");
    }
    println!("{}", json_result(&report));
    ExitCode::SUCCESS
}
