//! Synthetic versions of the five Darwin evaluation corpora (paper §4.1,
//! Table 1).
//!
//! The original corpora are internal (directions), licensed (ClueWeb), or
//! large external resources (Wikipedia + NELL); we substitute
//! seeded template generators that reproduce the statistics of Table 1 and
//! — more importantly — the *combinatorial structure* the evaluation
//! exercises: each positive class is a Zipf-weighted mixture of dozens of
//! surface-pattern families, negatives share tokens with positives so that
//! over-general rules are imprecise (e.g. bare `by` in cause-effect, `best
//! way to` in directions), and some precise families share no tokens with
//! the default seed rule (so generalization beyond the seed is required,
//! Figure 8).
//!
//! | dataset | sentences | % positive | task |
//! |---|---|---|---|
//! | [`cause_effect`] | 10.7K | 12.2 | Relations |
//! | [`musicians`] | 15.8K | 10.0 | Entities |
//! | [`directions`] | 15.3K | 3.8 | Intents |
//! | [`professions`] | 1M (default 200K) | 1.1 | Entities |
//! | [`tweets`] | 2130 | 11.4 (Food) | Intents |

pub mod cause_effect;
pub mod directions;
pub mod gen;
pub mod musicians;
pub mod professions;
pub mod tweets;

use darwin_text::Corpus;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Labeling task type (Table 1's "Labeling" column).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Task {
    Relations,
    Entities,
    Intents,
}

impl Task {
    pub fn name(self) -> &'static str {
        match self {
            Task::Relations => "Relations",
            Task::Entities => "Entities",
            Task::Intents => "Intents",
        }
    }
}

/// A generated dataset: analyzed corpus + ground truth + experiment handles.
pub struct Dataset {
    pub name: &'static str,
    pub task: Task,
    pub corpus: Corpus,
    /// Ground-truth label per sentence (used to synthesize oracle answers).
    pub labels: Vec<bool>,
    /// Template-family id per sentence (diagnostics; maps into
    /// [`Dataset::family_names`]).
    pub family: Vec<u16>,
    pub family_names: Vec<&'static str>,
    /// The 10 task keywords given to the Keyword-Sampling baseline.
    pub keywords: Vec<&'static str>,
    /// Candidate seed rules (TokensRegex text); the first is the default.
    pub seed_rules: Vec<&'static str>,
}

/// Summary row for Table 1.
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetStats {
    pub name: &'static str,
    pub sentences: usize,
    pub positive_pct: f64,
    pub task: Task,
}

impl Dataset {
    pub fn len(&self) -> usize {
        self.corpus.len()
    }

    pub fn is_empty(&self) -> bool {
        self.corpus.is_empty()
    }

    /// Number of positive sentences.
    pub fn positives(&self) -> usize {
        self.labels.iter().filter(|&&l| l).count()
    }

    /// Table 1 row.
    pub fn stats(&self) -> DatasetStats {
        DatasetStats {
            name: self.name,
            sentences: self.len(),
            positive_pct: 100.0 * self.positives() as f64 / self.len().max(1) as f64,
            task: self.task,
        }
    }

    /// A random labeled seed subset of `n` sentences (what Snuba is given).
    pub fn seed_sample(&self, n: usize, seed: u64) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids: Vec<u32> = (0..self.len() as u32).collect();
        ids.shuffle(&mut rng);
        ids.truncate(n);
        ids
    }

    /// The biased seed sampler of Figure 8: a random subset that excludes
    /// every sentence containing `exclude_token`.
    pub fn biased_seed_sample(&self, n: usize, exclude_token: &str, seed: u64) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let excl = self.corpus.vocab().get(exclude_token);
        let mut ids: Vec<u32> = (0..self.len() as u32)
            .filter(|&id| match excl {
                Some(sym) => !self.corpus.sentence(id).tokens.contains(&sym),
                None => true,
            })
            .collect();
        ids.shuffle(&mut rng);
        ids.truncate(n);
        ids
    }

    /// A seed sample guaranteed to contain `n_pos` positives (the paper's
    /// "if we employ expert to sample positives" variant).
    pub fn positive_seed_sample(&self, n_pos: usize, seed: u64) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pos: Vec<u32> = (0..self.len() as u32)
            .filter(|&i| self.labels[i as usize])
            .collect();
        pos.shuffle(&mut rng);
        pos.truncate(n_pos);
        pos
    }

    /// Two random positive sentence ids (the "couple of positive sentences"
    /// initialization of Algorithm 1).
    pub fn two_positives(&self, seed: u64) -> Vec<u32> {
        self.positive_seed_sample(2, seed)
    }

    /// Uniformly random sentence ids (the pipeline samples these as
    /// presumed negatives for classifier training).
    pub fn random_negatives(&self, n: usize, seed: u64) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4E47);
        (0..n)
            .map(|_| rng.gen_range(0..self.len() as u32))
            .collect()
    }
}

/// Generate all five datasets at their paper sizes (professions capped at
/// `professions_n`; pass 1_000_000 for the full-paper scale).
pub fn all_datasets(professions_n: usize, seed: u64) -> Vec<Dataset> {
    vec![
        cause_effect::generate(10_700, seed),
        musicians::generate(15_800, seed),
        directions::generate(15_300, seed),
        professions::generate(professions_n, seed),
        tweets::generate(2_130, seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_sample_is_deterministic_and_sized() {
        let d = directions::generate(2000, 7);
        let a = d.seed_sample(50, 1);
        let b = d.seed_sample(50, 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        let c = d.seed_sample(50, 2);
        assert_ne!(a, c);
    }

    #[test]
    fn biased_sample_excludes_token() {
        let d = directions::generate(4000, 7);
        let ids = d.biased_seed_sample(200, "shuttle", 3);
        let shuttle = d.corpus.vocab().get("shuttle").unwrap();
        for id in ids {
            assert!(!d.corpus.sentence(id).tokens.contains(&shuttle));
        }
    }

    #[test]
    fn positive_seed_sample_is_all_positive() {
        let d = musicians::generate(3000, 7);
        for id in d.positive_seed_sample(20, 5) {
            assert!(d.labels[id as usize]);
        }
    }
}
