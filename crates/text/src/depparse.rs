//! Deterministic dependency parsing.
//!
//! Produces the head array consumed by the TreeMatch grammar. The parser is
//! a rule-based head-attachment pass (no learned model): it picks a root
//! verb, attaches modifiers to the nearest plausible head on the correct
//! side, and guarantees the result is a tree (single root, acyclic). This is
//! the stand-in for the paper's SpaCy parser — TreeMatch only consumes
//! `(tag, head)` pairs, so a consistent deterministic parse exercises the
//! same code paths as a learned parse.
//!
//! Attachment rules (applied per token, in order):
//! * `DET`/`ADJ`/`NUM` → next `NOUN`/`PROPN` within 4 tokens, else root.
//! * `ADP` (preposition) → nearest `NOUN`/`VERB`/`PROPN` on the left, else root.
//! * `NOUN`/`PROPN`/`PRON` → preceding `ADP` if adjacent region contains one
//!   (prepositional object), else nearest `VERB` (argument), else root.
//! * `ADV`/`PART` → nearest `VERB`, else root.
//! * non-root `VERB` → root verb.
//! * `PUNCT`, `CONJ`, `X` → root.

#![allow(clippy::needless_range_loop)] // head-attachment rules index neighbors

use crate::pos::PosTag;

/// Compute the head array for a tagged sentence. `heads[i] == i` marks the
/// root. Deterministic for a given `(tokens, tags)` input.
pub fn parse(tags: &[PosTag]) -> Vec<u16> {
    let n = tags.len();
    if n == 0 {
        return Vec::new();
    }
    debug_assert!(n < u16::MAX as usize, "sentence too long to parse");

    let root = pick_root(tags);
    let mut heads: Vec<u16> = vec![root as u16; n];
    heads[root] = root as u16;

    for i in 0..n {
        if i == root {
            continue;
        }
        let h = match tags[i] {
            PosTag::Det | PosTag::Adj | PosTag::Num => {
                next_matching(tags, i, 4, &[PosTag::Noun, PosTag::Propn]).unwrap_or(root)
            }
            PosTag::Adp => prev_matching(tags, i, n, &[PosTag::Noun, PosTag::Propn, PosTag::Verb])
                .unwrap_or(root),
            PosTag::Noun | PosTag::Propn | PosTag::Pron => attach_nominal(tags, i, root),
            PosTag::Adv | PosTag::Part => nearest_verb(tags, i).unwrap_or(root),
            PosTag::Verb => root,
            PosTag::Punct | PosTag::Conj | PosTag::X => root,
        };
        heads[i] = if h == i { root as u16 } else { h as u16 };
    }

    break_cycles(&mut heads, root);
    heads
}

/// Root selection: first main verb; prefer a non-auxiliary-looking verb
/// (one not immediately followed by another verb); fall back to the first
/// verb, then the first content word, then token 0.
fn pick_root(tags: &[PosTag]) -> usize {
    let n = tags.len();
    for i in 0..n {
        if tags[i] == PosTag::Verb && tags.get(i + 1).copied() != Some(PosTag::Verb) {
            return i;
        }
    }
    for i in 0..n {
        if tags[i] == PosTag::Verb {
            return i;
        }
    }
    for i in 0..n {
        if tags[i].is_content() {
            return i;
        }
    }
    0
}

fn next_matching(tags: &[PosTag], from: usize, window: usize, want: &[PosTag]) -> Option<usize> {
    let end = (from + 1 + window).min(tags.len());
    (from + 1..end).find(|&j| want.contains(&tags[j]))
}

fn prev_matching(tags: &[PosTag], from: usize, window: usize, want: &[PosTag]) -> Option<usize> {
    let start = from.saturating_sub(window);
    (start..from).rev().find(|&j| want.contains(&tags[j]))
}

fn nearest_verb(tags: &[PosTag], from: usize) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (j, &t) in tags.iter().enumerate() {
        if t == PosTag::Verb && j != from {
            match best {
                Some(b) if from.abs_diff(b) <= from.abs_diff(j) => {}
                _ => best = Some(j),
            }
        }
    }
    best
}

/// Nominals become prepositional objects when a preposition sits within the
/// two tokens to their left (allowing one determiner/adjective in between);
/// otherwise they attach to the nearest verb.
fn attach_nominal(tags: &[PosTag], i: usize, root: usize) -> usize {
    for back in 1..=3usize {
        let Some(j) = i.checked_sub(back) else { break };
        match tags[j] {
            PosTag::Adp => return j,
            // Determiner-like material between a preposition and its object,
            // including possessive pronouns ("to our hotel").
            PosTag::Det | PosTag::Adj | PosTag::Num | PosTag::Pron => continue,
            _ => break,
        }
    }
    nearest_verb(tags, i).unwrap_or(root)
}

/// The per-token rules can in principle produce small cycles (e.g. an ADP
/// attaching right to a NOUN that attaches left to the same ADP). Any token
/// on a cycle that does not reach the root is re-attached to the root.
fn break_cycles(heads: &mut [u16], root: usize) {
    let n = heads.len();
    for start in 0..n {
        let mut cur = start;
        let mut steps = 0;
        loop {
            let h = heads[cur] as usize;
            if cur == root || h == cur {
                break;
            }
            if steps > n {
                heads[start] = root as u16;
                break;
            }
            cur = h;
            steps += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pos::Tagger;

    fn parse_words(words: &[&str]) -> (Vec<PosTag>, Vec<u16>) {
        let tags = Tagger::tag(words);
        let heads = parse(&tags);
        (tags, heads)
    }

    #[test]
    fn figure3_like_parse() {
        // "uber is the best way to our hotel" — Figure 3 shape: "is" root,
        // "uber" and "way" under it, "the"/"best" under "way", "hotel" under
        // "to", "to" under "way".
        let words = ["uber", "is", "the", "best", "way", "to", "our", "hotel"];
        let (_, heads) = parse_words(&words);
        let is = 1;
        assert_eq!(heads[is] as usize, is, "'is' is root");
        assert_eq!(heads[0] as usize, is, "'uber' attaches to root verb");
        assert_eq!(heads[4] as usize, is, "'way' attaches to root verb");
        assert_eq!(heads[2] as usize, 4, "'the' -> 'way'");
        assert_eq!(heads[3] as usize, 4, "'best' -> 'way'");
        assert_eq!(heads[5] as usize, 4, "'to' -> 'way'");
        assert_eq!(heads[7] as usize, 5, "'hotel' -> 'to'");
    }

    #[test]
    fn always_a_tree() {
        // Every token must reach the root; exactly one self-loop.
        for words in [
            vec![
                "what", "is", "the", "best", "way", "to", "get", "to", "sfo", "airport", "?",
            ],
            vec![
                "is", "there", "a", "bart", "from", "sfo", "to", "the", "hotel", "?",
            ],
            vec!["the"],
            vec!["?", "?", "?"],
            vec!["shuttle", "to", "the", "airport"],
        ] {
            let (_, heads) = parse_words(&words);
            let roots = heads
                .iter()
                .enumerate()
                .filter(|(i, &h)| *i == h as usize)
                .count();
            assert_eq!(roots, 1, "words={words:?} heads={heads:?}");
            for start in 0..heads.len() {
                let mut cur = start;
                for _ in 0..=heads.len() {
                    let h = heads[cur] as usize;
                    if h == cur {
                        break;
                    }
                    cur = h;
                }
                assert_eq!(heads[cur] as usize, cur, "token {start} must reach root");
            }
        }
    }

    #[test]
    fn empty_input() {
        assert!(parse(&[]).is_empty());
    }

    #[test]
    fn prepositional_object_attaches_to_preposition() {
        // "shuttle to the airport": "airport" under "to".
        let words = ["shuttle", "to", "the", "airport"];
        let (tags, heads) = parse_words(&words);
        // "to" here is ADP (followed by DET, not VERB).
        assert_eq!(tags[1], PosTag::Adp);
        assert_eq!(heads[3] as usize, 1);
    }
}
