//! One function per paper table/figure; each `exp_*` binary in `src/bin/`
//! runs one of them.

use crate::support::{checkpoints, coverage_curve, prepare, scaled, Prepared};
use darwin_baselines::{ActiveLearning, HighC, HighP, KeywordSampling, Snuba, SnubaConfig};
use darwin_classifier::ClassifierKind;
use darwin_core::{
    Darwin, DarwinConfig, GroundTruthOracle, SampledAnnotatorOracle, Seed, TraversalKind,
};
use darwin_datasets::{cause_effect, directions, musicians, professions, tweets, Dataset};
use darwin_eval::{coverage, write_csv, Curve, Table};
use darwin_grammar::Heuristic;
use darwin_index::{IndexConfig, IndexSet};
use darwin_labelmodel::{GenerativeConfig, GenerativeModel, LfMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Table 1 — dataset statistics.
pub fn table1_datasets() {
    let profession_n = scaled(200_000);
    let mut t = Table::new(
        "Table 1: dataset statistics",
        &["dataset", "#sentences", "%positives", "labeling"],
    );
    for d in [
        cause_effect::generate(scaled(10_700), 42),
        musicians::generate(scaled(15_800), 42),
        directions::generate(scaled(15_300), 42),
        professions::generate(profession_n, 42),
        tweets::generate(scaled(2_130), 42),
    ] {
        let s = d.stats();
        t.row(&[
            s.name.into(),
            s.sentences.to_string(),
            format!("{:.1}", s.positive_pct),
            s.task.name().into(),
        ]);
    }
    println!("{}", t.render());
    t.to_csv(&darwin_eval::csv_path("table1_datasets"))
        .expect("csv");
}

fn snuba_coverage(data: &Dataset, sample: &[u32]) -> f64 {
    let result = Snuba::new(SnubaConfig::default()).run(&data.corpus, sample, &data.labels);
    coverage(&result.positives, &data.labels)
}

fn darwin_from_sample(prep: &Prepared, sample: &[u32], budget: usize) -> f64 {
    // Darwin initialized with the positive instances present in the sample
    // (Figure 7/8 protocol: both systems get the same labeled sentences).
    let pos: Vec<u32> = sample
        .iter()
        .copied()
        .filter(|&i| prep.data.labels[i as usize])
        .collect();
    if pos.is_empty() {
        return 0.0;
    }
    let cfg = DarwinConfig {
        budget,
        n_candidates: 4000,
        ..Default::default()
    };
    let darwin = prep.darwin(cfg);
    let mut oracle = GroundTruthOracle::new(&prep.data.labels, 0.8);
    let run = darwin.run(Seed::Positives(pos), &mut oracle);
    coverage(&run.positives, &prep.data.labels)
}

/// Figure 7 — coverage vs random seed-set size, Snuba vs Darwin(HS).
pub fn fig7_seed_size() {
    let budget = 100;
    let mut curves = Vec::new();
    for (name, prep, sizes) in [
        (
            "directions",
            prepare(directions::generate, scaled(15_300), 42),
            vec![25usize, 50, 125, 250, 500, 1000],
        ),
        (
            "musicians",
            prepare(musicians::generate, scaled(15_800), 42),
            vec![25, 100, 500, 1000, 2000],
        ),
    ] {
        let mut snuba = Curve::new(format!("{name}/Snuba"));
        let mut darwin = Curve::new(format!("{name}/Darwin(HS)"));
        for &s in &sizes {
            // Average over independent samples — tiny samples are high
            // variance (they may contain zero positives).
            let (mut sc, mut dc) = (0.0, 0.0);
            const REPS: usize = 2;
            for rep in 0..REPS as u64 {
                let sample = prep.data.seed_sample(s, 7 + rep);
                sc += snuba_coverage(&prep.data, &sample);
                dc += darwin_from_sample(&prep, &sample, budget);
            }
            snuba.push(s, sc / REPS as f64);
            darwin.push(s, dc / REPS as f64);
        }
        print_curves(
            &format!("Figure 7 ({name}): coverage vs #seed sentences"),
            &[&snuba, &darwin],
        );
        curves.push(snuba);
        curves.push(darwin);
    }
    // Abstract headline: Darwin vs Snuba@1000 labeled instances.
    let s1000: Vec<(f64, f64)> = curves
        .chunks(2)
        .map(|pair| (pair[1].value_at(1000, 0.0), pair[0].value_at(1000, 0.0)))
        .collect();
    let gain: f64 = s1000
        .iter()
        .map(|(d, s)| if *s > 0.0 { (d - s) / s } else { 1.0 })
        .sum::<f64>()
        / s1000.len() as f64;
    println!(
        "headline: Darwin finds {:.0}% more positives than Snuba@1000 labels (avg)\n",
        100.0 * gain
    );
    write_csv("fig7_seed_size", &curves).expect("csv");
}

/// Figure 8 — biased seed sets (no 'shuttle' / 'composer' evidence).
pub fn fig8_biased_seed() {
    let budget = 100;
    let mut curves = Vec::new();
    for (name, prep, excl, sizes) in [
        (
            "directions",
            prepare(directions::generate, scaled(15_300), 42),
            "shuttle",
            vec![25usize, 50, 200, 400, 800, 1600],
        ),
        (
            "musicians",
            prepare(musicians::generate, scaled(15_800), 42),
            "composer",
            vec![20, 100, 500, 1000, 2000],
        ),
    ] {
        let mut snuba = Curve::new(format!("{name}/Snuba"));
        let mut darwin = Curve::new(format!("{name}/Darwin(HS)"));
        for &s in &sizes {
            let (mut sc, mut dc) = (0.0, 0.0);
            const REPS: usize = 2;
            for rep in 0..REPS as u64 {
                let sample = prep.data.biased_seed_sample(s, excl, 7 + rep);
                sc += snuba_coverage(&prep.data, &sample);
                dc += darwin_from_sample(&prep, &sample, budget);
            }
            snuba.push(s, sc / REPS as f64);
            darwin.push(s, dc / REPS as f64);
        }
        print_curves(
            &format!(
                "Figure 8 ({name}, biased seed without {excl:?}): coverage vs #seed sentences"
            ),
            &[&snuba, &darwin],
        );
        curves.push(snuba);
        curves.push(darwin);
    }
    write_csv("fig8_biased_seed", &curves).expect("csv");
}

/// Figure 9 (a–d) — rule coverage vs #questions for the Darwin variants
/// and HighP on four datasets.
pub fn fig9_coverage() {
    let mut all = Vec::new();
    for (name, prep, budget) in [
        (
            "musicians",
            prepare(musicians::generate, scaled(15_800), 42),
            100usize,
        ),
        (
            "cause-effect",
            prepare(cause_effect::generate, scaled(10_700), 42),
            100,
        ),
        (
            "directions",
            prepare(directions::generate, scaled(15_300), 42),
            50,
        ),
        (
            "food-tweets",
            prepare(tweets::generate, scaled(2_130), 42),
            100,
        ),
    ] {
        let mut curves = Vec::new();
        for kind in [
            TraversalKind::Hybrid,
            TraversalKind::Universal,
            TraversalKind::Local,
        ] {
            let cfg = DarwinConfig {
                budget,
                n_candidates: 4000,
                traversal: kind,
                ..Default::default()
            };
            let (_, curve) = prep.run_coverage(cfg, format!("{name}/{}", kind.name()));
            curves.push(curve);
        }
        // HighP baseline.
        let cfg = DarwinConfig {
            budget,
            n_candidates: 4000,
            ..Default::default()
        };
        let darwin = prep.darwin(cfg);
        let seed = Heuristic::phrase(&prep.data.corpus, prep.data.seed_rules[0]).unwrap();
        let mut oracle = GroundTruthOracle::new(&prep.data.labels, 0.8);
        let run = darwin.run_with(Seed::Rule(seed), &mut oracle, |_| Box::new(HighP));
        curves.push(coverage_curve(
            &run,
            &prep.data.labels,
            format!("{name}/highP"),
        ));

        let refs: Vec<&Curve> = curves.iter().collect();
        print_curves(&format!("Figure 9 ({name}): coverage vs #questions"), &refs);
        all.extend(curves);
    }
    write_csv("fig9_coverage", &all).expect("csv");
}

/// Figure 9 (e–h) — classifier F-score vs #questions (Darwin(HS), HighP,
/// Active Learning, Keyword Sampling).
pub fn fig9_fscore() {
    let mut all = Vec::new();
    for (name, prep, budget) in [
        (
            "musicians",
            prepare(musicians::generate, scaled(15_800), 42),
            100usize,
        ),
        (
            "cause-effect",
            prepare(cause_effect::generate, scaled(10_700), 42),
            100,
        ),
        (
            "directions",
            prepare(directions::generate, scaled(15_300), 42),
            50,
        ),
        (
            "food-tweets",
            prepare(tweets::generate, scaled(2_130), 42),
            100,
        ),
    ] {
        let cps = checkpoints(budget);
        let kind = ClassifierKind::logreg();
        let mut curves = Vec::new();

        let cfg = DarwinConfig {
            budget,
            n_candidates: 4000,
            ..Default::default()
        };
        let (run, _) = prep.run_coverage(cfg.clone(), "_");
        curves.push(prep.fscore_curve(&run, format!("{name}/Darwin(HS)"), &cps, &kind));

        let darwin = prep.darwin(cfg);
        let seed = Heuristic::phrase(&prep.data.corpus, prep.data.seed_rules[0]).unwrap();
        let mut oracle = GroundTruthOracle::new(&prep.data.labels, 0.8);
        let hp = darwin.run_with(Seed::Rule(seed), &mut oracle, |_| Box::new(HighP));
        curves.push(prep.fscore_curve(&hp, format!("{name}/highP"), &cps, &kind));

        // AL and KS receive the seed rule's coverage as free initial labels.
        let seed_rule = Heuristic::phrase(&prep.data.corpus, prep.data.seed_rules[0]).unwrap();
        let mut seed_ids = seed_rule.coverage(&prep.data.corpus);
        // plus a few random negatives so the first classifier can train
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..seed_ids.len().max(10) {
            seed_ids.push(rng.gen_range(0..prep.data.len() as u32));
        }
        seed_ids.sort_unstable();
        seed_ids.dedup();
        let al = ActiveLearning::default().run(
            &prep.data.corpus,
            &prep.emb,
            &seed_ids,
            &prep.data.labels,
            budget,
        );
        let mut alc = al.f1_curve.resample(&cps, 0.0);
        alc.label = format!("{name}/AL");
        curves.push(alc);

        let ks = KeywordSampling::default().run(
            &prep.data.corpus,
            &prep.emb,
            &prep.data.keywords,
            &prep.data.labels,
            budget,
        );
        let mut ksc = ks.f1_curve.resample(&cps, 0.0);
        ksc.label = format!("{name}/KS");
        curves.push(ksc);

        let refs: Vec<&Curve> = curves.iter().collect();
        print_curves(&format!("Figure 9 ({name}): F-score vs #questions"), &refs);
        all.extend(curves);
    }
    write_csv("fig9_fscore", &all).expect("csv");
}

/// Figure 10 — professions: heuristic coverage (LS, US) and classifier
/// F-score (HS, AL, HighP, KS).
pub fn fig10_professions() {
    let n = scaled(200_000);
    let prep = prepare(professions::generate, n, 42);
    let budget = 100;
    let mut curves = Vec::new();
    for kind in [TraversalKind::Local, TraversalKind::Universal] {
        let cfg = DarwinConfig {
            budget,
            n_candidates: 4000,
            traversal: kind,
            ..Default::default()
        };
        let (_, curve) = prep.run_coverage(cfg, format!("professions/{}", kind.name()));
        curves.push(curve);
    }
    let refs: Vec<&Curve> = curves.iter().collect();
    print_curves("Figure 10a (professions): coverage vs #questions", &refs);

    let cps = checkpoints(budget);
    let kind = ClassifierKind::logreg();
    let cfg = DarwinConfig {
        budget,
        n_candidates: 4000,
        ..Default::default()
    };
    let (run, _) = prep.run_coverage(cfg.clone(), "_");
    let mut fcurves = vec![prep.fscore_curve(&run, "professions/Darwin(HS)", &cps, &kind)];

    let darwin = prep.darwin(cfg);
    let seed = Heuristic::phrase(&prep.data.corpus, prep.data.seed_rules[0]).unwrap();
    let mut oracle = GroundTruthOracle::new(&prep.data.labels, 0.8);
    let hp = darwin.run_with(Seed::Rule(seed), &mut oracle, |_| Box::new(HighP));
    fcurves.push(prep.fscore_curve(&hp, "professions/highP", &cps, &kind));

    let seed_ids = Heuristic::phrase(&prep.data.corpus, prep.data.seed_rules[0])
        .unwrap()
        .coverage(&prep.data.corpus);
    let al = ActiveLearning::default().run(
        &prep.data.corpus,
        &prep.emb,
        &seed_ids,
        &prep.data.labels,
        budget,
    );
    let mut alc = al.f1_curve.resample(&cps, 0.0);
    alc.label = "professions/AL".into();
    fcurves.push(alc);
    let ks = KeywordSampling::default().run(
        &prep.data.corpus,
        &prep.emb,
        &prep.data.keywords,
        &prep.data.labels,
        budget,
    );
    let mut ksc = ks.f1_curve.resample(&cps, 0.0);
    ksc.label = "professions/KS".into();
    fcurves.push(ksc);

    let refs: Vec<&Curve> = fcurves.iter().collect();
    print_curves("Figure 10b (professions): F-score vs #questions", &refs);
    curves.extend(fcurves);
    write_csv("fig10_professions", &curves).expect("csv");
}

/// Figure 11 — example HybridSearch traversals.
pub fn fig11_traversals() {
    for (name, prep, seed_rule, budget) in [
        (
            "cause-effect",
            prepare(cause_effect::generate, scaled(10_700), 42),
            "has been caused by",
            25usize,
        ),
        (
            "directions",
            prepare(directions::generate, scaled(15_300), 42),
            "best way to get to",
            25,
        ),
    ] {
        let cfg = DarwinConfig {
            budget,
            n_candidates: 4000,
            ..Default::default()
        };
        let darwin = prep.darwin(cfg);
        let seed = Heuristic::phrase(&prep.data.corpus, seed_rule).unwrap();
        let mut oracle = GroundTruthOracle::new(&prep.data.labels, 0.8);
        let run = darwin.run(Seed::Rule(seed), &mut oracle);
        println!("== Figure 11 ({name}): HybridSearch traversal from {seed_rule:?} ==");
        for step in &run.trace {
            println!(
                "  q{:<3} {:<36} -> {}",
                step.question,
                step.rule.display(prep.data.corpus.vocab()),
                if step.answer { "YES" } else { "no" }
            );
        }
        println!(
            "  accepted chain: {:?}\n",
            run.accepted
                .iter()
                .map(|h| h.display(prep.data.corpus.vocab()))
                .collect::<Vec<_>>()
        );
    }
}

/// Table 2 — F-score of Darwin vs Darwin+Snorkel (generative de-noising).
pub fn table2_snorkel() {
    let mut t = Table::new(
        "Table 2: Darwin vs Darwin+Snorkel (classifier F-score)",
        &["dataset", "Darwin", "Darwin+Snorkel"],
    );
    for (name, prep, budget) in [
        (
            "musicians",
            prepare(musicians::generate, scaled(15_800), 42),
            100usize,
        ),
        (
            "cause-effect",
            prepare(cause_effect::generate, scaled(10_700), 42),
            100,
        ),
        (
            "directions",
            prepare(directions::generate, scaled(15_300), 42),
            50,
        ),
        (
            "food-tweets",
            prepare(tweets::generate, scaled(2_130), 42),
            100,
        ),
    ] {
        let cfg = DarwinConfig {
            budget,
            n_candidates: 4000,
            ..Default::default()
        };
        let (run, _) = prep.run_coverage(cfg, "_");
        let kind = ClassifierKind::logreg();
        let cps = [budget];
        // Darwin: classifier trained directly on the discovered labels.
        let raw = prep.fscore_curve(&run, "raw", &cps, &kind).last();

        // Darwin+Snorkel: rules -> generative label model -> probabilistic
        // labels -> classifier.
        let coverages: Vec<Vec<u32>> = run
            .accepted
            .iter()
            .map(|h| h.coverage(&prep.data.corpus))
            .collect();
        let refs: Vec<&[u32]> = coverages.iter().map(|c| c.as_slice()).collect();
        let matrix = LfMatrix::from_coverages(prep.data.len(), &refs);
        // Data-driven prior: with precise positive-only LFs, the covered
        // fraction is a good estimate of the positive rate.
        let covered = matrix.coverage();
        let model = GenerativeModel::fit(
            &matrix,
            &GenerativeConfig {
                init_prior: covered.clamp(0.01, 0.5),
                smoothing: 0.1,
                fix_prior: true,
                ..Default::default()
            },
        );
        // De-noise at the LF level (how Snorkel's de-noising actually
        // bites with positive-only, largely disjoint LFs): keep an item if
        // any LF the model deems reliable voted for it. Item-level EM
        // posteriors are under-determined here — a single reliable vote
        // may not push past 0.5 in absolute terms — but the learned per-LF
        // reliabilities are well identified by the overlaps.
        let reliable: Vec<bool> = (0..matrix.n_lfs())
            .map(|j| model.lf_precision(j) >= 0.5)
            .collect();
        let denoised_pos: Vec<u32> = (0..matrix.n_items())
            .filter(|&i| {
                matrix
                    .row(i)
                    .enumerate()
                    .any(|(j, v)| v == darwin_labelmodel::Vote::Positive && reliable[j])
            })
            .map(|i| i as u32)
            .collect();
        let denoised_run = darwin_core::RunResult {
            accepted: vec![],
            rejected: vec![],
            positives: denoised_pos,
            trace: vec![],
            scores: vec![],
            wire_error: None,
        };
        let snorkel = prep
            .fscore_curve(&denoised_run, "snorkel", &cps, &kind)
            .last();
        t.row(&[name.into(), format!("{raw:.2}"), format!("{snorkel:.2}")]);
    }
    println!("{}", t.render());
    t.to_csv(&darwin_eval::csv_path("table2_snorkel"))
        .expect("csv");
}

/// Figure 12 — sensitivity to HybridSearch's τ and to the seed rule
/// (musicians).
pub fn fig12_sensitivity() {
    let prep = prepare(musicians::generate, scaled(15_800), 42);
    let budget = 100;
    let mut curves = Vec::new();
    for tau in [3usize, 5, 7, 9] {
        let cfg = DarwinConfig {
            budget,
            n_candidates: 4000,
            tau,
            ..Default::default()
        };
        let (_, curve) = prep.run_coverage(cfg, format!("tau={tau}"));
        curves.push(curve);
    }
    let refs: Vec<&Curve> = curves.iter().collect();
    print_curves("Figure 12a (musicians): sensitivity to τ", &refs);

    let mut seed_curves = Vec::new();
    for (i, rule) in prep.data.seed_rules.clone().iter().enumerate() {
        let cfg = DarwinConfig {
            budget,
            n_candidates: 4000,
            ..Default::default()
        };
        let darwin = prep.darwin(cfg);
        let seed = Heuristic::phrase(&prep.data.corpus, rule).unwrap();
        let mut oracle = GroundTruthOracle::new(&prep.data.labels, 0.8);
        let run = darwin.run(Seed::Rule(seed), &mut oracle);
        seed_curves.push(coverage_curve(
            &run,
            &prep.data.labels,
            format!("Rule {}", i + 1),
        ));
    }
    let refs: Vec<&Curve> = seed_curves.iter().collect();
    print_curves(
        "Figure 12b (musicians): sensitivity to the seed rule",
        &refs,
    );
    curves.extend(seed_curves);
    write_csv("fig12_sensitivity", &curves).expect("csv");
}

/// Figure 13 — sensitivity to the number of generated candidates.
pub fn fig13_candidates() {
    let prep = prepare(musicians::generate, scaled(15_800), 42);
    let mut curves = Vec::new();
    for k in [5_000usize, 10_000, 20_000] {
        let cfg = DarwinConfig {
            budget: 100,
            n_candidates: k,
            ..Default::default()
        };
        let (_, curve) = prep.run_coverage(cfg, format!("{}K", k / 1000));
        curves.push(curve);
    }
    let refs: Vec<&Curve> = curves.iter().collect();
    print_curves("Figure 13 (musicians): sensitivity to #candidates", &refs);
    write_csv("fig13_candidates", &curves).expect("csv");
}

/// Figure 14 — #questions to reach 75% coverage vs classifier epochs
/// (musicians, Kim CNN).
pub fn fig14_epochs() {
    let prep = prepare(musicians::generate, scaled(8_000), 42);
    let mut curve = Curve::new("Hybrid(CNN)");
    for epochs in [4usize, 6, 8, 10, 12] {
        let cfg = DarwinConfig {
            budget: 100,
            n_candidates: 3000,
            classifier: ClassifierKind::cnn_with_epochs(epochs),
            ..Default::default()
        };
        let (run, cov) = prep.run_coverage(cfg, "_");
        let q = cov.first_reaching(0.75).unwrap_or(run.questions().max(100));
        curve.push(epochs, q as f64);
        println!("epochs {epochs:>2}: {q} questions to 75% coverage");
    }
    // The logistic-regression comparison point from the ablation list.
    let cfg = DarwinConfig {
        budget: 100,
        n_candidates: 3000,
        ..Default::default()
    };
    let (run, cov) = prep.run_coverage(cfg, "_");
    let q = cov.first_reaching(0.75).unwrap_or(run.questions().max(100));
    println!("logreg    : {q} questions to 75% coverage");
    write_csv("fig14_epochs", &[curve]).expect("csv");
}

/// §4.5 — efficiency: index construction time and end-to-end label
/// collection, with and without the incremental re-scoring optimization.
pub fn efficiency() {
    let full = std::env::var("DARWIN_FULL").is_ok();
    let n = if full { 1_000_000 } else { scaled(200_000) };
    println!("== Efficiency (professions at {n} sentences) ==");
    let t0 = Instant::now();
    let data = professions::generate(n, 42);
    println!("generate + analyze: {:.1}s", t0.elapsed().as_secs_f64());

    let t1 = Instant::now();
    let index = IndexSet::build(
        &data.corpus,
        &IndexConfig {
            max_phrase_len: 4,
            min_count: 3,
            threads: 8,
            ..Default::default()
        },
    );
    println!(
        "index construction: {:.1}s ({} rules) [paper: < 5 min]",
        t1.elapsed().as_secs_f64(),
        index.rules()
    );

    let emb_t = Instant::now();
    let emb = darwin_text::Embeddings::train(&data.corpus, &Default::default());
    println!("embedding training: {:.1}s", emb_t.elapsed().as_secs_f64());

    let mut t = Table::new(
        "label collection (budget 50)",
        &["configuration", "seconds", "recall", "last refresh size"],
    );
    for (label, incremental) in [("incremental re-scoring", true), ("full re-scoring", false)] {
        let cfg = DarwinConfig {
            budget: 50,
            n_candidates: 4000,
            incremental_scoring: incremental,
            ..Default::default()
        };
        let darwin = Darwin::with_embeddings(&data.corpus, &index, cfg, emb.clone());
        let seed = Heuristic::phrase(&data.corpus, data.seed_rules[0]).unwrap();
        let mut oracle = GroundTruthOracle::new(&data.labels, 0.8);
        let t2 = Instant::now();
        let run = darwin.run(Seed::Rule(seed), &mut oracle);
        t.row(&[
            label.into(),
            format!("{:.1}", t2.elapsed().as_secs_f64()),
            format!("{:.2}", coverage(&run.positives, &data.labels)),
            "-".into(),
        ]);
    }
    println!("{}", t.render());
    t.to_csv(&darwin_eval::csv_path("efficiency")).expect("csv");
}

/// §4.5 — human annotator noise: sampled-annotator oracle with k examples
/// per question, plus the benefit-threshold ablation.
pub fn annotator_noise() {
    let prep = prepare(directions::generate, scaled(15_300), 42);
    let budget = 50;
    let mut t = Table::new(
        "Annotator noise (directions, budget 50)",
        &["oracle", "recall", "precision of P", "false YES"],
    );
    // Perfect oracle reference.
    let cfg = DarwinConfig {
        budget,
        n_candidates: 4000,
        ..Default::default()
    };
    let (run, _) = prep.run_coverage(cfg.clone(), "_");
    let p_prec = run
        .positives
        .iter()
        .filter(|&&i| prep.data.labels[i as usize])
        .count() as f64
        / run.positives.len().max(1) as f64;
    t.row(&[
        "ground truth".into(),
        format!("{:.2}", coverage(&run.positives, &prep.data.labels)),
        format!("{p_prec:.2}"),
        "0".into(),
    ]);
    for k in [3usize, 5, 9, 25] {
        let darwin = prep.darwin(cfg.clone());
        let seed = Heuristic::phrase(&prep.data.corpus, prep.data.seed_rules[0]).unwrap();
        let mut oracle = SampledAnnotatorOracle::new(&prep.data.labels, k, 99);
        let run = darwin.run(Seed::Rule(seed), &mut oracle);
        // False YES: accepted rules whose true precision is below 0.8.
        let gt = GroundTruthOracle::new(&prep.data.labels, 0.8);
        let false_yes = run
            .accepted
            .iter()
            .filter(|h| gt.precision(&h.coverage(&prep.data.corpus)) < 0.8)
            .count();
        let prec = run
            .positives
            .iter()
            .filter(|&&i| prep.data.labels[i as usize])
            .count() as f64
            / run.positives.len().max(1) as f64;
        t.row(&[
            format!("annotator k={k}"),
            format!("{:.2}", coverage(&run.positives, &prep.data.labels)),
            format!("{prec:.2}"),
            false_yes.to_string(),
        ]);
    }
    println!("{}", t.render());
    t.to_csv(&darwin_eval::csv_path("annotator_noise"))
        .expect("csv");

    // Benefit-threshold ablation (Algorithm 4 line 8).
    let mut bt = Table::new(
        "Benefit-threshold ablation (directions)",
        &["threshold", "recall"],
    );
    for thr in [0.0f64, 0.25, 0.5, 0.75] {
        let cfg2 = DarwinConfig {
            benefit_threshold: thr,
            ..cfg.clone()
        };
        let (run, _) = prep.run_coverage(cfg2, "_");
        bt.row(&[
            format!("{thr:.2}"),
            format!("{:.2}", coverage(&run.positives, &prep.data.labels)),
        ]);
    }
    println!("{}", bt.render());
    bt.to_csv(&darwin_eval::csv_path("benefit_threshold"))
        .expect("csv");
}

/// Footnote 10 — HighC sanity check: most suggestions are rejected.
pub fn highc_footnote() {
    let prep = prepare(directions::generate, scaled(8_000), 42);
    let cfg = DarwinConfig {
        budget: 30,
        n_candidates: 4000,
        ..Default::default()
    };
    let darwin = prep.darwin(cfg);
    let seed = Heuristic::phrase(&prep.data.corpus, prep.data.seed_rules[0]).unwrap();
    let mut oracle = GroundTruthOracle::new(&prep.data.labels, 0.8);
    let run = darwin.run_with(Seed::Rule(seed), &mut oracle, |_| Box::new(HighC));
    let rejected = run.trace.iter().filter(|s| !s.answer).count();
    println!(
        "== Footnote 10 (HighC): {rejected}/{} suggestions rejected, recall {:.2} ==\n",
        run.questions(),
        coverage(&run.positives, &prep.data.labels)
    );
}

/// Print a set of curves as an aligned table over a shared grid.
fn print_curves(title: &str, curves: &[&Curve]) {
    let mut xs: Vec<usize> = curves.iter().flat_map(|c| c.xs.iter().copied()).collect();
    xs.sort_unstable();
    xs.dedup();
    // Thin the grid for readability.
    let grid: Vec<usize> = if xs.len() > 12 {
        let step = xs.len().div_ceil(12);
        xs.iter()
            .copied()
            .step_by(step)
            .chain(xs.last().copied())
            .collect()
    } else {
        xs
    };
    let mut header: Vec<String> = vec!["x".into()];
    header.extend(curves.iter().map(|c| c.label.clone()));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(title, &header_refs);
    let mut grid = grid;
    grid.dedup();
    for x in grid {
        let mut row = vec![x.to_string()];
        row.extend(curves.iter().map(|c| format!("{:.2}", c.value_at(x, 0.0))));
        t.row(&row);
    }
    println!("{}", t.render());
}
