//! Candidate-heuristic generation (paper Algorithm 2).
//!
//! Greedy best-first search over the index: start from the `*` root, pop
//! the candidate with the highest coverage over the discovered positives
//! `P`, add its children to the frontier, repeat until `k` heuristics are
//! collected. Subtrees with zero overlap with `P` are never expanded —
//! that pruning is what keeps the exponential TreeMatch space tractable.

use crate::frontier::FrontierPool;
use crate::hierarchy::Hierarchy;
use darwin_index::{IdSet, IndexSet, RuleRef};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Heap entry with its whole priority packed into one `u128` — a single
/// integer compare per sift step instead of a three-field lexicographic
/// chain (the walk is heap-bound once posting scans are memoized).
///
/// Layout (high → low): `overlap` ascending, then `!count` (on equal
/// overlap with `P`, prefer the *tighter* rule — fewer total matches ⇒
/// higher expected precision), then `!dense_id` (prefer the smaller rule
/// handle, for determinism; the dense numbering orders exactly like
/// [`RuleRef`]'s derived `Ord`, phrases before trees).
#[derive(PartialEq, Eq)]
struct Entry {
    key: u128,
    rule: RuleRef,
}

impl Entry {
    fn new(overlap: usize, count: usize, dense: u32, rule: RuleRef) -> Entry {
        let key = ((overlap as u128) << 64) | ((!(count as u32) as u128) << 32) | !dense as u128;
        Entry { key, rule }
    }

    fn overlap(&self) -> usize {
        (self.key >> 64) as usize
    }

    fn count(&self) -> usize {
        !((self.key >> 32) as u32) as usize
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A generated candidate with the statistics best-first search already
/// computed for it (`overlap` = `|C_r ∩ P|`, `count` = `|C_r|`). The
/// §3.2.1 hierarchy cleanup decides from these instead of rescanning
/// coverage, and the engine seeds its benefit aggregates from them too
/// (`BenefitStore::track_scored` takes the counts as given instead of
/// re-deriving them with a per-posting membership scan).
#[derive(Clone, Copy, Debug)]
pub struct Candidate {
    /// The generated rule's index handle.
    pub rule: RuleRef,
    /// `|C_r ∩ P|` at generation time.
    pub overlap: usize,
    /// `|C_r|` — the rule's total coverage.
    pub count: usize,
}

/// What the best-first walk asks of its backing state — how nodes are
/// visited and how they expand. [`generate_scored`] answers from the index
/// directly (bitset seen-set, posting scan per node, derivation edges); a
/// [`FrontierPool`] answers from memoized statistics and cached adjacency.
/// One trait with both methods (rather than two closures) because the
/// incremental source backs both out of the same mutable tables.
pub(crate) trait WalkSource {
    /// Visit `r`: `None` when it was already reached in *this* walk (the
    /// expansion's seen-set), its `(overlap, count, dense_id)` statistics
    /// otherwise.
    fn visit(&mut self, r: RuleRef) -> Option<(usize, usize, u32)>;
    /// Append the one-step specializations of `rule` to `buf` (the walk
    /// clears it), in the index's child order.
    fn expand(&mut self, rule: RuleRef, buf: &mut Vec<RuleRef>);
}

/// The best-first expansion of Algorithm 2 over a [`WalkSource`]. Keeping
/// the control flow in one place is what makes the incremental path
/// *structurally* trace-equivalent to the full walk: the two differ only
/// in where the (identical) numbers come from.
pub(crate) fn best_first_walk<S: WalkSource>(
    k: usize,
    max_count: usize,
    src: &mut S,
) -> Vec<Candidate> {
    fn push_children<S: WalkSource>(
        rule: RuleRef,
        heap: &mut BinaryHeap<Entry>,
        buf: &mut Vec<RuleRef>,
        src: &mut S,
    ) {
        buf.clear();
        src.expand(rule, buf);
        for &child in buf.iter() {
            let Some((overlap, count, dense)) = src.visit(child) else {
                continue; // already reached in this walk
            };
            if overlap == 0 {
                continue; // zero overlap ⇒ the whole subtree is useless
            }
            heap.push(Entry::new(overlap, count, dense, child));
        }
    }

    let mut out = Vec::with_capacity(k.min(1024));
    let mut heap = BinaryHeap::new();
    let mut buf: Vec<RuleRef> = Vec::new();

    push_children(RuleRef::Root, &mut heap, &mut buf, src);
    while out.len() < k {
        let Some(best) = heap.pop() else { break };
        // Over-broad rules are expanded (children may qualify) but not
        // offered as candidates themselves.
        if best.count() <= max_count {
            out.push(Candidate {
                rule: best.rule,
                overlap: best.overlap(),
                count: best.count(),
            });
        }
        push_children(best.rule, &mut heap, &mut buf, src);
    }
    out
}

/// The from-scratch [`WalkSource`]: a bitset seen-set over the dense rule
/// numbering and a posting scan per visited node.
struct ScratchSource<'a> {
    index: &'a IndexSet,
    p: &'a IdSet,
    seen: IdSet,
}

impl WalkSource for ScratchSource<'_> {
    fn visit(&mut self, r: RuleRef) -> Option<(usize, usize, u32)> {
        let dense = self.index.dense_id(r);
        if !self.seen.insert(dense) {
            return None;
        }
        let postings = self.index.coverage(r);
        Some((self.p.count_in(postings), postings.len(), dense))
    }

    fn expand(&mut self, rule: RuleRef, buf: &mut Vec<RuleRef>) {
        self.index.for_each_child(rule, |c| buf.push(c));
    }
}

/// Generate up to `k` candidate heuristics with high coverage over `p`
/// (Algorithm 2), with their search statistics. The returned list is in
/// pop order (best first) and never contains the root. Rules covering more
/// than `max_count` sentences are skipped (their subtrees are still
/// explored — children are tighter).
pub fn generate_scored(index: &IndexSet, p: &IdSet, k: usize, max_count: usize) -> Vec<Candidate> {
    let mut src = ScratchSource {
        index,
        p,
        seen: IdSet::with_universe(index.dense_rules()),
    };
    best_first_walk(k, max_count, &mut src)
}

/// [`generate_scored`] stripped to the rule handles.
pub fn generate(index: &IndexSet, p: &IdSet, k: usize, max_count: usize) -> Vec<RuleRef> {
    generate_scored(index, p, k, max_count)
        .into_iter()
        .map(|c| c.rule)
        .collect()
}

/// Generate candidates and arrange them into a [`Hierarchy`], applying the
/// cleanup of §3.2.1: candidates whose coverage adds no new positive
/// sentences beyond `p` are dropped (decided from the search's own
/// statistics — no second coverage scan). Returns the surviving candidates
/// alongside the hierarchy, in pool order, so the engine can seed benefit
/// aggregates from the same statistics.
pub fn generate_hierarchy_scored(
    index: &IndexSet,
    p: &IdSet,
    k: usize,
    max_count: usize,
) -> (Hierarchy, Vec<Candidate>) {
    finish_hierarchy(generate_scored(index, p, k, max_count))
}

/// [`generate_hierarchy_scored`] driven by a persistent [`FrontierPool`]
/// instead of a from-scratch walk: the pool replays the best-first
/// expansion from its memoized per-rule statistics (kept exact across YES
/// answers by [`FrontierPool::note_positives`] deltas), paying posting
/// scans only for rules the frontier reaches for the first time. Output is
/// byte-for-byte identical to the from-scratch variant.
pub fn generate_hierarchy_pooled(
    index: &IndexSet,
    p: &IdSet,
    k: usize,
    max_count: usize,
    pool: &mut FrontierPool,
) -> (Hierarchy, Vec<Candidate>) {
    finish_hierarchy(pool.generate_scored(index, p, k, max_count))
}

/// The §3.2.1 cleanup + hierarchy assembly shared by the full-walk and
/// frontier-pooled regeneration paths.
fn finish_hierarchy(cands: Vec<Candidate>) -> (Hierarchy, Vec<Candidate>) {
    let cleaned: Vec<Candidate> = cands.into_iter().filter(|c| c.count > c.overlap).collect();
    let rules: Vec<RuleRef> = cleaned.iter().map(|c| c.rule).collect();
    (Hierarchy::new(rules), cleaned)
}

/// [`generate_hierarchy_scored`] stripped to the hierarchy.
pub fn generate_hierarchy(index: &IndexSet, p: &IdSet, k: usize, max_count: usize) -> Hierarchy {
    generate_hierarchy_scored(index, p, k, max_count).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use darwin_grammar::Heuristic;
    use darwin_index::IndexConfig;
    use darwin_text::Corpus;

    fn setup() -> (Corpus, IndexSet) {
        let texts = [
            "the shuttle to the airport leaves hourly",
            "is there a shuttle to the airport tonight",
            "the shuttle to downtown is free",
            "order a pizza to the room",
            "the pool opens at nine",
            "is there a bus to the airport",
        ];
        let c = Corpus::from_texts(texts);
        let idx = IndexSet::build(&c, &IndexConfig::small());
        (c, idx)
    }

    #[test]
    fn candidates_overlap_positives() {
        let (c, idx) = setup();
        // Positives: the two airport-shuttle sentences.
        let p = IdSet::from_ids(&[0, 1], c.len());
        let cands = generate(&idx, &p, 50, usize::MAX);
        assert!(!cands.is_empty());
        for &r in &cands {
            assert!(
                p.count_in(idx.coverage(r)) > 0,
                "{:?}",
                idx.heuristic(r).display(c.vocab())
            );
        }
        // "shuttle" ranks near the top (overlap 2; bare "the" has overlap 2
        // as well but that's fine — both cover P).
        let shuttle = idx
            .resolve(&Heuristic::phrase(&c, "shuttle").unwrap())
            .unwrap();
        assert!(cands.contains(&shuttle));
    }

    #[test]
    fn best_first_order_is_nonincreasing_overlap() {
        let (c, idx) = setup();
        let p = IdSet::from_ids(&[0, 1, 2], c.len());
        let cands = generate(&idx, &p, 100, usize::MAX);
        // Because children are only injected after their parent pops, the
        // sequence isn't globally sorted; but the first candidate must have
        // the maximum overlap among all root children.
        let first_overlap = p.count_in(idx.coverage(cands[0]));
        assert_eq!(
            first_overlap, 3,
            "a unigram covering all three positives pops first"
        );
    }

    #[test]
    fn respects_k() {
        let (c, idx) = setup();
        let p = IdSet::from_ids(&[0, 1, 2], c.len());
        assert!(generate(&idx, &p, 5, usize::MAX).len() <= 5);
        let all = generate(&idx, &p, 10_000, usize::MAX);
        assert!(all.len() < 10_000, "pool exhausts on a tiny corpus");
    }

    #[test]
    fn empty_p_yields_nothing() {
        let (c, idx) = setup();
        let p = IdSet::with_universe(c.len());
        assert!(generate(&idx, &p, 10, usize::MAX).is_empty());
    }

    #[test]
    fn cleanup_drops_fully_covered_rules() {
        let (c, idx) = setup();
        // All shuttle sentences already positive: rules covering only them
        // add nothing and must be cleaned; "airport" still adds sentence 5.
        let p = IdSet::from_ids(&[0, 1, 2], c.len());
        let h = generate_hierarchy(&idx, &p, 200, usize::MAX);
        let shuttle = idx
            .resolve(&Heuristic::phrase(&c, "shuttle").unwrap())
            .unwrap();
        assert!(!h.contains(shuttle), "'shuttle' adds no new positives");
        let airport = idx
            .resolve(&Heuristic::phrase(&c, "airport").unwrap())
            .unwrap();
        assert!(h.contains(airport), "'airport' still adds sentence 5");
    }
}
