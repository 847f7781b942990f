//! Logistic regression over mean-embedding + hashed bag-of-words features.
//!
//! The cheaper alternative to the Kim CNN, behind the same
//! [`TextClassifier`] contract. Measured with `sessionbench --workload
//! prof50k-logreg --seed 1 --trace 1` (50k professions sentences, 7
//! retrains on 736–2,200 training sentences, 2-vCPU x86-64 host): one fit
//! takes 13–97 ms over three runs, where the dense per-sample Adam it
//! replaced took 219–536 ms. A full refresh of the 50k scores takes about
//! 15 ms.
//!
//! Every prediction path routes through [`FeatureBlock`] scoring — blocks
//! of [`BLOCK_ROWS`] sentences materialized into one contiguous arena and
//! scored by the shared kernels — so per-id, batched, sharded and threaded
//! execution are bit-identical by construction (there is only one scoring
//! arithmetic to diverge from).
//!
//! # Training
//!
//! `fit` is a pure function of `(pos, neg, seed, cfg)`: the RNG is reseeded
//! and the weights re-zeroed on entry. The cold path
//! ([`LogRegConfig::warm_start`] `= false`) is the reference: per-sample
//! Adam over all `emb_dim + BOW_BUCKETS + 1` weights and a dense feature
//! row from [`logreg_features`] per step. The warm path produces the same
//! weights bit for bit at a cost that scales with the coordinates the
//! training set uses:
//!
//! - A refit on the exact training set the model already holds is skipped.
//! - The training rows are materialized once per fit through
//!   [`FeatureBlock::fill`]. The *active* coordinates are the embedding
//!   dims, every bucket some training row lights, and the bias. Compact
//!   `w/m/v` vectors over those alone are trained, then scattered into the
//!   zeroed full vector. A 2,200-sentence training set lights about 180 of
//!   the 4,096 buckets.
//! - **Why skipping is exact.** A coordinate no training row lights has
//!   feature `0.0` at every step, so its gradient is `d·0 + l2·(+0)`, a
//!   zero, and `adam::adam_update` keeps `w`, `m` and `v` at `+0.0` (see
//!   its docs). This needs `d = cw·(p − y)` finite, which holds because
//!   Adam bounds each step to about `lr`, so the weights, and with them
//!   `p`, stay finite.
//! - **The dot.** `p` is accumulated through `kernels::DotLanes` in the
//!   lanes the dense [`crate::kernels::dot_f32`] would use, visiting the
//!   non-zeros in ascending full index: every skipped term is `±0.0`,
//!   which cannot change a lane. Which coordinates fall into the sequential tail
//!   depends on the embedding dim (at 32 it is the bias alone, at 12 also
//!   the last four buckets); the lane map handles both.
//! - **The update.** Gradient and Adam are fused into one pass per step
//!   over the compact vectors, split at `emb_dim` where `l2` becomes
//!   `l2_bow`, through the same per-coordinate `adam::adam_update` that
//!   [`crate::adam::Param::adam_step`] runs.

use crate::adam::{adam_update, bias_corrections, sigmoid, Param};
use crate::block::{FeatureBlock, BLOCK_ROWS};
use crate::features::{logreg_dim, logreg_features, BOW_BUCKETS};
use crate::kernels::{dot_f32, DotLanes};
use crate::model::TextClassifier;
use darwin_text::{Corpus, Embeddings};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Hyper-parameters for [`LogReg`].
#[derive(Clone, Debug, PartialEq)]
pub struct LogRegConfig {
    pub epochs: usize,
    pub lr: f32,
    /// L2 on the dense (mean-embedding) block.
    pub l2: f32,
    /// L2 on the hashed bag-of-words block. Kept much stronger than `l2`:
    /// the BoW block can memorize the exact surface of the training
    /// positives, which would zero out the embedding pathway Darwin needs
    /// for semantic generalization (paper §3, "bus" → "public transport").
    pub l2_bow: f32,
    /// Train only the active coordinates over sparse rows, and skip refits
    /// on an unchanged training set. Bit-identical to the cold path;
    /// `false` keeps the dense from-scratch reference alive.
    pub warm_start: bool,
}

impl Default for LogRegConfig {
    fn default() -> Self {
        LogRegConfig {
            epochs: 12,
            lr: 0.05,
            l2: 1e-4,
            l2_bow: 6e-3,
            warm_start: true,
        }
    }
}

/// Buffers of the warm fit, reused across fits.
struct ActiveFit {
    /// The training rows, `pos` then `neg`.
    rows: FeatureBlock,
    /// Position in `lit` of each bucket, [`UNLIT`] when no training row
    /// lights it.
    slot: Vec<u32>,
    /// The lit buckets, ascending.
    lit: Vec<u32>,
    /// Compact weights and Adam moments: the embedding dims, the lit
    /// buckets in `lit` order, the bias.
    w: Vec<f32>,
    m: Vec<f32>,
    v: Vec<f32>,
    /// The current row's features on the bucket-and-bias segment of `w`.
    f: Vec<f32>,
}

const UNLIT: u32 = u32::MAX;

/// Binary logistic regression trained with Adam.
pub struct LogReg {
    cfg: LogRegConfig,
    /// `emb_dim + BOW_BUCKETS + 1` weights, the bias last.
    w: Vec<f32>,
    seed: u64,
    active: ActiveFit,
    /// The `(pos, neg)` of the last completed fit — the warm-start skip
    /// compares exactly (no hashing), so a skipped refit is provably the
    /// fit it replaces.
    last_data: Option<(Vec<u32>, Vec<u32>)>,
}

impl LogReg {
    pub fn new(emb: &Embeddings, cfg: LogRegConfig, seed: u64) -> LogReg {
        LogReg {
            cfg,
            w: vec![0.0; logreg_dim(emb)],
            seed,
            active: ActiveFit {
                rows: FeatureBlock::new(emb.dim()),
                slot: vec![UNLIT; BOW_BUCKETS],
                lit: Vec::new(),
                w: Vec::new(),
                m: Vec::new(),
                v: Vec::new(),
                f: Vec::new(),
            },
            last_data: None,
        }
    }

    /// Score a block of materialized ids, appending to `out` in id order.
    fn score_block(
        &self,
        block: &mut FeatureBlock,
        corpus: &Corpus,
        emb: &Embeddings,
        ids: &[u32],
        out: &mut Vec<f32>,
    ) {
        for chunk in ids.chunks(BLOCK_ROWS) {
            block.fill(corpus, emb, chunk);
            block.score_into(&self.w, out);
        }
    }

    /// The reference fit: dense features, dense gradient, dense Adam.
    #[allow(clippy::needless_range_loop)] // index math mirrors the tensor strides
    fn fit_dense(&mut self, corpus: &Corpus, emb: &Embeddings, pos: &[u32], neg: &[u32]) {
        let dim = self.w.len();
        let emb_dim = emb.dim();
        let cfg = &self.cfg;
        let mut w = Param::zeros(dim);
        let mut data = labeled(pos, neg);
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0x10C);
        let pos_weight = pos_weight(pos, neg);
        let mut f = vec![0.0f32; dim];
        let mut step = 0;
        for _ in 0..cfg.epochs {
            data.shuffle(&mut rng);
            for &(id, y) in &data {
                logreg_features(corpus, emb, id, &mut f);
                let p = sigmoid(dot_f32(&w.w, &f));
                let cw = if y > 0.5 { pos_weight } else { 1.0 };
                let d = cw * (p - y);
                for i in 0..dim {
                    let l2 = if i < emb_dim { cfg.l2 } else { cfg.l2_bow };
                    w.g[i] = d * f[i] + l2 * w.w[i];
                }
                step += 1;
                w.adam_step(cfg.lr, step);
            }
        }
        self.w = w.w;
    }

    /// The warm fit: the reference's arithmetic restricted to the active
    /// coordinates (see the module docs).
    fn fit_active(&mut self, corpus: &Corpus, emb: &Embeddings, pos: &[u32], neg: &[u32]) {
        let dim = self.w.len();
        let emb_dim = emb.dim();
        let cfg = &self.cfg;
        let a = &mut self.active;
        let ids: Vec<u32> = pos.iter().chain(neg).copied().collect();
        a.rows.fill(corpus, emb, &ids);

        // Unmark the previous fit's buckets, mark this training set's, and
        // number them in ascending order.
        for &b in &a.lit {
            a.slot[b as usize] = UNLIT;
        }
        a.lit.clear();
        for r in 0..a.rows.rows() {
            for &b in a.rows.row(r).1 {
                a.slot[b as usize] = 0;
            }
        }
        a.lit
            .extend((0..BOW_BUCKETS as u32).filter(|&b| a.slot[b as usize] != UNLIT));
        for (s, &b) in (0u32..).zip(&a.lit) {
            a.slot[b as usize] = s;
        }
        let bias = a.lit.len(); // within the bucket-and-bias segment
        for buf in [&mut a.w, &mut a.m, &mut a.v] {
            buf.clear();
            buf.resize(emb_dim + bias + 1, 0.0);
        }
        a.f.clear();
        a.f.resize(bias + 1, 0.0);
        a.f[bias] = 1.0; // the bias feature, as in `logreg_features`

        // Shuffle row positions exactly as the reference shuffles ids.
        let mut data: Vec<(u32, f32)> = (0u32..)
            .zip(labeled(pos, neg))
            .map(|(r, (_, y))| (r, y))
            .collect();
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0x10C);
        let pos_weight = pos_weight(pos, neg);
        let mut step = 0;
        for _ in 0..cfg.epochs {
            data.shuffle(&mut rng);
            for &(r, y) in &data {
                let (dense, buckets, vals) = a.rows.row(r as usize);
                let (we, wb) = a.w.split_at_mut(emb_dim);
                let mut z = DotLanes::new(dim);
                for (i, (&wi, &fi)) in we.iter().zip(dense).enumerate() {
                    z.add(i, wi * fi);
                }
                for (&b, &fb) in buckets.iter().zip(vals) {
                    let s = a.slot[b as usize] as usize;
                    z.add(emb_dim + b as usize, wb[s] * fb);
                    a.f[s] = fb;
                }
                z.add(dim - 1, wb[bias] * a.f[bias]);
                let p = sigmoid(z.finish());
                let cw = if y > 0.5 { pos_weight } else { 1.0 };
                let d = cw * (p - y);
                step += 1;
                let bc = bias_corrections(step);
                let (me, mb) = a.m.split_at_mut(emb_dim);
                let (ve, vb) = a.v.split_at_mut(emb_dim);
                fused_step(we, me, ve, dense, d, cfg.l2, cfg.lr, bc);
                fused_step(wb, mb, vb, &a.f, d, cfg.l2_bow, cfg.lr, bc);
                for &b in buckets {
                    a.f[a.slot[b as usize] as usize] = 0.0;
                }
            }
        }

        self.w.iter_mut().for_each(|x| *x = 0.0);
        let (we, wb) = a.w.split_at(emb_dim);
        self.w[..emb_dim].copy_from_slice(we);
        for (&b, &wk) in a.lit.iter().zip(wb) {
            self.w[emb_dim + b as usize] = wk;
        }
        self.w[dim - 1] = wb[bias];
    }
}

/// `(id, label)` for `pos` then `neg`: the sequence both fits shuffle, so
/// they draw the same permutation from the same RNG stream.
fn labeled(pos: &[u32], neg: &[u32]) -> Vec<(u32, f32)> {
    pos.iter()
        .map(|&i| (i, 1.0))
        .chain(neg.iter().map(|&i| (i, 0.0)))
        .collect()
}

/// Class-balanced loss: Darwin trains on few positives against many
/// sampled negatives; without re-weighting, predicted probabilities
/// collapse below the 0.5 benefit threshold of UniversalSearch.
fn pos_weight(pos: &[u32], neg: &[u32]) -> f32 {
    if pos.is_empty() || neg.is_empty() {
        1.0
    } else {
        (neg.len() as f32 / pos.len() as f32).clamp(0.25, 2.0)
    }
}

/// One fused gradient + Adam pass over a compact segment: per coordinate
/// the reference's gradient `d·f + l2·w`, then `adam::adam_update`.
#[inline]
#[allow(clippy::too_many_arguments)]
fn fused_step(
    w: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    f: &[f32],
    d: f32,
    l2: f32,
    lr: f32,
    bc: (f32, f32),
) {
    let moments = m.iter_mut().zip(v.iter_mut());
    for ((w, (m, v)), &f) in w.iter_mut().zip(moments).zip(f) {
        let g = d * f + l2 * *w;
        adam_update(w, m, v, g, lr, bc);
    }
}

impl TextClassifier for LogReg {
    fn fit(&mut self, corpus: &Corpus, emb: &Embeddings, pos: &[u32], neg: &[u32]) {
        if !self.cfg.warm_start {
            return self.fit_dense(corpus, emb, pos, neg);
        }
        if let Some((lp, ln)) = &self.last_data {
            if lp.as_slice() == pos && ln.as_slice() == neg {
                return; // fit is pure in (pos, neg): nothing would change
            }
        }
        self.last_data = Some((pos.to_vec(), neg.to_vec()));
        self.fit_active(corpus, emb, pos, neg);
    }

    fn predict(&self, corpus: &Corpus, emb: &Embeddings, id: u32) -> f32 {
        let mut block = FeatureBlock::new(emb.dim());
        let mut out = Vec::with_capacity(1);
        self.score_block(&mut block, corpus, emb, &[id], &mut out);
        out[0]
    }

    fn predict_all(&self, corpus: &Corpus, emb: &Embeddings, out: &mut Vec<f32>) {
        out.clear();
        let ids: Vec<u32> = (0..corpus.len() as u32).collect();
        let mut block = FeatureBlock::new(emb.dim());
        self.score_block(&mut block, corpus, emb, &ids, out);
    }

    fn predict_batch(&self, corpus: &Corpus, emb: &Embeddings, ids: &[u32], out: &mut Vec<f32>) {
        let mut block = FeatureBlock::new(emb.dim());
        self.score_block(&mut block, corpus, emb, ids, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darwin_text::embed::EmbedConfig;
    use rand::Rng;
    use std::collections::HashMap;

    fn toy() -> (Corpus, Embeddings) {
        let mut texts = Vec::new();
        for i in 0..50 {
            texts.push(format!("take the shuttle to terminal {}", i % 9));
            texts.push(format!("the pasta with sauce number {}", i % 9));
        }
        let c = Corpus::from_texts(texts.iter());
        let e = Embeddings::train(
            &c,
            &EmbedConfig {
                dim: 12,
                ..Default::default()
            },
        );
        (c, e)
    }

    #[test]
    fn separates_toy_task() {
        let (c, e) = toy();
        let pos: Vec<u32> = (0..100).filter(|i| i % 2 == 0).collect();
        let neg: Vec<u32> = (0..100).filter(|i| i % 2 == 1).collect();
        let mut lr = LogReg::new(&e, LogRegConfig::default(), 7);
        lr.fit(&c, &e, &pos[..25], &neg[..25]);
        let acc: usize = pos[25..]
            .iter()
            .map(|&i| (lr.predict(&c, &e, i) > 0.5) as usize)
            .chain(
                neg[25..]
                    .iter()
                    .map(|&i| (lr.predict(&c, &e, i) <= 0.5) as usize),
            )
            .sum();
        assert!(acc >= 45, "accuracy {acc}/50");
    }

    #[test]
    fn untrained_predicts_half() {
        let (c, e) = toy();
        let lr = LogReg::new(&e, LogRegConfig::default(), 7);
        assert!((lr.predict(&c, &e, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn refit_resets_state() {
        let (c, e) = toy();
        let mut a = LogReg::new(&e, LogRegConfig::default(), 3);
        let mut b = LogReg::new(&e, LogRegConfig::default(), 3);
        // a: fit twice on same data; b: fit once. Final models must agree.
        a.fit(&c, &e, &[0, 2], &[1, 3]);
        a.fit(&c, &e, &[0, 2], &[1, 3]);
        b.fit(&c, &e, &[0, 2], &[1, 3]);
        for id in 0..6u32 {
            let (pa, pb) = (a.predict(&c, &e, id), b.predict(&c, &e, id));
            assert!((pa - pb).abs() < 1e-5, "{pa} vs {pb}");
        }
    }

    /// Warm-start is a buffer-reuse strategy, never an arithmetic change:
    /// a warm model must track a cold model bit for bit through a sequence
    /// of growing (and occasionally repeated) training sets.
    #[test]
    fn warm_start_tracks_cold_start_bit_for_bit() {
        let (c, e) = toy();
        let cold_cfg = LogRegConfig {
            warm_start: false,
            ..Default::default()
        };
        let mut warm = LogReg::new(&e, LogRegConfig::default(), 5);
        let mut cold = LogReg::new(&e, cold_cfg, 5);
        let sets: [(&[u32], &[u32]); 4] = [
            (&[0, 2], &[1, 3]),
            (&[0, 2, 4, 6], &[1, 3, 5]),
            (&[0, 2, 4, 6], &[1, 3, 5]), // repeat: warm skips, cold refits
            (&[0, 2, 4, 6, 8, 10], &[1, 3, 5, 7, 9]),
        ];
        for (round, (pos, neg)) in sets.iter().enumerate() {
            warm.fit(&c, &e, pos, neg);
            cold.fit(&c, &e, pos, neg);
            for id in (0..c.len() as u32).step_by(13) {
                let (pw, pc) = (warm.predict(&c, &e, id), cold.predict(&c, &e, id));
                assert_eq!(
                    pw.to_bits(),
                    pc.to_bits(),
                    "round {round} id {id}: warm {pw} vs cold {pc}"
                );
            }
        }
    }

    /// A random corpus over `vocab` words: a tenth of the sentences empty,
    /// the rest 1–14 tokens, a third of those with a token repeated. The
    /// last sentence holds two distinct words that share a bucket.
    fn random_corpus(rng: &mut SmallRng, n: usize, vocab: usize) -> Corpus {
        use crate::features::bow_bucket;
        let mut texts: Vec<String> = (0..n)
            .map(|_| {
                if rng.gen_bool(0.1) {
                    return String::new();
                }
                let len = rng.gen_range(1..15);
                let mut words: Vec<String> = (0..len)
                    .map(|_| format!("w{}", rng.gen_range(0..vocab)))
                    .collect();
                if rng.gen_bool(0.3) {
                    words.push(words[0].clone());
                    words.push(words[0].clone());
                }
                words.join(" ")
            })
            .collect();
        let words = Corpus::from_texts(texts.iter());
        let mut by_bucket = HashMap::new();
        let pair = words.vocab().iter().find_map(|(sym, tok)| {
            by_bucket
                .insert(bow_bucket(sym), tok.to_string())
                .map(|other| format!("{other} {tok} {other}"))
        });
        texts.push(pair.expect("some two words share a bucket"));
        Corpus::from_texts(texts.iter())
    }

    /// Training sets as the engine draws them: ascending unique positives,
    /// negatives sampled with replacement in draw order.
    fn random_sets(rng: &mut SmallRng, n: u32) -> (Vec<u32>, Vec<u32>) {
        let mut pos: Vec<u32> = (0..rng.gen_range(1..16))
            .map(|_| rng.gen_range(0..n))
            .collect();
        pos.sort_unstable();
        pos.dedup();
        let neg = (0..rng.gen_range(1..3 * pos.len() + 6))
            .map(|_| rng.gen_range(0..n))
            .collect();
        (pos, neg)
    }

    fn assert_same_weights(warm: &LogReg, cold: &LogReg, what: &str) {
        assert_eq!(warm.w.len(), cold.w.len());
        for (i, (a, b)) in warm.w.iter().zip(&cold.w).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: weight {i}: {a} vs {b}");
        }
    }

    /// The active-coordinate fit equals the dense reference on every
    /// weight, bit for bit, at embedding dims whose dot tail is the bias
    /// alone (8, 32) or also holds buckets (12), over random training sets
    /// with duplicate negatives, one-class and empty sets, growing and
    /// repeated sequences, and non-default hyper-parameters. One warm
    /// model carries its buffers through every case.
    #[test]
    fn active_fit_equals_dense_reference_on_every_weight() {
        use crate::features::bow_bucket;
        let mut rng = SmallRng::seed_from_u64(0xF17);
        let c = random_corpus(&mut rng, 400, 4_000);
        let n = c.len() as u32;
        let collides = (0..n).any(|id| {
            let t = &c.sentence(id).tokens;
            t.iter()
                .any(|&a| t.iter().any(|&b| a != b && bow_bucket(a) == bow_bucket(b)))
        });
        assert!(collides, "no sentence holds two tokens of one bucket");
        let tuned = LogRegConfig {
            epochs: 3,
            lr: 0.2,
            l2: 0.0,
            l2_bow: 0.0,
            ..Default::default()
        };
        for dim in [8usize, 12, 32] {
            let e = Embeddings::train(
                &c,
                &EmbedConfig {
                    dim,
                    ..Default::default()
                },
            );
            for cfg in [LogRegConfig::default(), tuned.clone()] {
                let cold_cfg = LogRegConfig {
                    warm_start: false,
                    ..cfg.clone()
                };
                let mut warm = LogReg::new(&e, cfg, 21);
                let mut check = |pos: &[u32], neg: &[u32], what: &str| {
                    let mut cold = LogReg::new(&e, cold_cfg.clone(), 21);
                    warm.fit(&c, &e, pos, neg);
                    cold.fit(&c, &e, pos, neg);
                    assert_same_weights(&warm, &cold, &format!("dim {dim} {what}"));
                };
                for case in 0..4 {
                    let (pos, neg) = random_sets(&mut rng, n);
                    check(&pos, &neg, &format!("random case {case}"));
                }
                check(&[3, 9, n - 1], &[], "pos only, with the shared bucket");
                check(&[], &[5, 5, 17, 200], "neg only");
                check(&[], &[], "empty");
                let (mut pos, mut neg) = random_sets(&mut rng, n);
                for round in 0..3 {
                    check(&pos, &neg, &format!("growing round {round}"));
                    if round == 1 {
                        check(&pos, &neg, "repeated set");
                    }
                    let (more_pos, more_neg) = random_sets(&mut rng, n);
                    pos.extend(more_pos);
                    pos.sort_unstable();
                    pos.dedup();
                    neg.extend(more_neg);
                }
            }
        }
    }

    #[test]
    fn predict_all_fast_path_agrees() {
        let (c, e) = toy();
        let mut lr = LogReg::new(&e, LogRegConfig::default(), 9);
        lr.fit(&c, &e, &[0, 2, 4], &[1, 3, 5]);
        let mut all = Vec::new();
        lr.predict_all(&c, &e, &mut all);
        for id in (0..c.len() as u32).step_by(17) {
            assert_eq!(all[id as usize], lr.predict(&c, &e, id));
        }
        // And the batch path, across a block boundary ordering.
        let ids: Vec<u32> = (0..c.len() as u32).rev().collect();
        let mut batch = Vec::new();
        lr.predict_batch(&c, &e, &ids, &mut batch);
        for (&id, &p) in ids.iter().zip(&batch) {
            assert_eq!(p, all[id as usize]);
        }
    }
}
