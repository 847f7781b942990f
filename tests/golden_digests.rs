//! Absolute trace anchors: checked-in digests of whole sessions.
//!
//! Every other equivalence suite is relative — a fast path against its
//! reference, S shards against one, a resumed run against an
//! uninterrupted one — so a change that moves both sides passes them.
//! These digests pin the sessions themselves: FNV-1a 64 over the encoded
//! trace, the final positive set and the final score bits, the digest
//! `darwin-worker` and `sessionbench` print.
//!
//! A digest here changes only when a PR changes behaviour on purpose. Such
//! a PR updates the table and says why in CHANGES.md.

use darwin::baselines::{HighC, HighP};
use darwin::core::Strategy;
use darwin::prelude::*;
use darwin_testkit::test_threads;
use darwin_wire::Encode;

/// FNV-1a 64 over the run's replay surface.
fn digest(run: &RunResult) -> u64 {
    let mut bytes = Vec::new();
    run.trace.encode(&mut bytes);
    run.positives.encode(&mut bytes);
    for s in &run.scores {
        bytes.extend_from_slice(&s.to_bits().to_le_bytes());
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A small professions session with the default (LogReg) classifier:
/// 5k sentences, budget 20, 1,000 candidates per regeneration.
fn professions(seed: u64) -> (Dataset, IndexSet, DarwinConfig) {
    let d = darwin::datasets::professions::generate(5_000, seed);
    let index = IndexSet::build(
        &d.corpus,
        &IndexConfig {
            max_phrase_len: 4,
            min_count: 3,
            ..Default::default()
        },
    );
    let cfg = DarwinConfig {
        budget: 20,
        n_candidates: 1_000,
        threads: test_threads(),
        ..Default::default()
    };
    (d, index, cfg)
}

/// `(dataset seed, Darwin::run digest, run_async Fixed(8) digest)`.
const GOLDEN: [(u64, u64, u64); 2] = [
    (7, 0x48a7_598e_3837_ded6, 0x9a5a_7f7c_25fd_ee5a),
    (11, 0x9943_b1e9_74fa_aa2b, 0x9dbb_cc28_9c49_15de),
];

#[test]
fn professions_sessions_match_golden_digests() {
    let mut got = Vec::new();
    for &(seed, _, _) in &GOLDEN {
        let (d, index, cfg) = professions(seed);
        let rule = || Seed::Rule(Heuristic::phrase(&d.corpus, d.seed_rules[0]).unwrap());
        let sync = Darwin::new(&d.corpus, &index, cfg.clone())
            .run(rule(), &mut GroundTruthOracle::new(&d.labels, 0.8));
        let batched = Darwin::new(
            &d.corpus,
            &index,
            DarwinConfig {
                batch: BatchPolicy::Fixed(8),
                ..cfg
            },
        )
        .run_async(
            rule(),
            &mut Immediate::new(GroundTruthOracle::new(&d.labels, 0.8)),
        );
        assert!(sync.questions() > 0 && batched.run.questions() > 0);
        got.push((seed, digest(&sync), digest(&batched.run)));
    }
    let show = |t: &[(u64, u64, u64)]| -> String {
        t.iter()
            .map(|(s, a, b)| format!("    ({s}, 0x{a:016x}, 0x{b:016x}),\n"))
            .collect()
    };
    assert_eq!(
        got,
        GOLDEN,
        "session digests moved; recorded:\n{}",
        show(&got)
    );
}

/// How a [`VARIANTS`] row drives its session.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Variant {
    /// `Darwin::run` under the given traversal.
    Run(TraversalKind),
    /// `Darwin::run_with` a HighP selector.
    HighP,
    /// `Darwin::run_with` a HighC selector.
    HighC,
    /// `Darwin::run_parallel` with 3 annotators for 4 rounds.
    Parallel,
}

/// `(variant, digest)` on the seed-7 professions session. The first four
/// rows (the other traversals and the §4.3 baseline selectors) were
/// recorded before the sequential loop moved onto the wave driver; the
/// `Parallel` row was recorded after `run_parallel` moved onto it.
const VARIANTS: [(Variant, u64); 5] = [
    (Variant::Run(TraversalKind::Local), 0xca68_c704_1087_906f),
    (
        Variant::Run(TraversalKind::Universal),
        0xd67e_d537_2051_4e75,
    ),
    (Variant::HighP, 0xbfbe_9b2b_a6e4_91ed),
    (Variant::HighC, 0x00fa_d2ce_3916_9d13),
    (Variant::Parallel, 0xb0ed_562c_f849_ed9f),
];

#[test]
fn professions_variants_match_golden_digests() {
    let (d, index, cfg) = professions(7);
    let rule = || Seed::Rule(Heuristic::phrase(&d.corpus, d.seed_rules[0]).unwrap());
    let oracle = || GroundTruthOracle::new(&d.labels, 0.8);
    let mut got = Vec::new();
    for &(variant, _) in &VARIANTS {
        let run = match variant {
            Variant::Run(kind) => Darwin::new(&d.corpus, &index, cfg.clone().with_traversal(kind))
                .run(rule(), &mut oracle()),
            Variant::HighP | Variant::HighC => {
                let make = move |_: &[darwin::index::RuleRef]| -> Box<dyn Strategy> {
                    match variant {
                        Variant::HighP => Box::new(HighP),
                        _ => Box::new(HighC),
                    }
                };
                Darwin::new(&d.corpus, &index, cfg.clone()).run_with(rule(), &mut oracle(), make)
            }
            Variant::Parallel => {
                let (mut a, mut b, mut c) = (oracle(), oracle(), oracle());
                let mut annotators: Vec<&mut dyn Oracle> = vec![&mut a, &mut b, &mut c];
                Darwin::new(&d.corpus, &index, cfg.clone()).run_parallel(rule(), &mut annotators, 4)
            }
        };
        assert!(run.questions() > 0, "{variant:?} asked nothing");
        got.push((variant, digest(&run)));
    }
    let show: String = got
        .iter()
        .map(|(v, h)| format!("    ({v:?}, 0x{h:016x}),\n"))
        .collect();
    assert_eq!(got, VARIANTS, "session digests moved; recorded:\n{show}");
}
