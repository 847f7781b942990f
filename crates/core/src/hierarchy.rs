//! The heuristic hierarchy (paper §3.2).
//!
//! Candidates are organized by the subset/superset relation the index
//! already captures (a child is one derivation step stricter than its
//! parent, hence covers a subset). The hierarchy is the unit the traversal
//! strategies operate over; it is regenerated whenever the positive set
//! grows (Algorithm 1 line 6).

use darwin_index::fx::FxHashSet;
use darwin_index::{IndexSet, RuleRef};

/// A candidate pool with membership tests and edge queries restricted to
/// the pool.
pub struct Hierarchy {
    rules: Vec<RuleRef>,
    set: FxHashSet<RuleRef>,
}

impl Hierarchy {
    /// A pool over `rules` (edges are resolved through the index on
    /// demand, so construction is just the membership set).
    pub fn new(rules: Vec<RuleRef>) -> Hierarchy {
        let set = rules.iter().copied().collect();
        Hierarchy { rules, set }
    }

    /// Number of candidate rules in the pool.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The pool, in generation (pop) order.
    pub fn rules(&self) -> &[RuleRef] {
        &self.rules
    }

    /// Whether `r` made the pool.
    pub fn contains(&self, r: RuleRef) -> bool {
        self.set.contains(&r)
    }

    /// Parents of `r` *within the hierarchy* (falling back to all index
    /// parents if none made the pool — LocalSearch may walk off-pool,
    /// expanding the hierarchy on the fly as §3.4 describes).
    pub fn parents(&self, index: &IndexSet, r: RuleRef) -> Vec<RuleRef> {
        let all = index.parents(r);
        let inside: Vec<RuleRef> = all
            .iter()
            .copied()
            .filter(|p| self.set.contains(p))
            .collect();
        if inside.is_empty() {
            all
        } else {
            inside
        }
    }

    /// Children of `r`, same fallback policy as [`Hierarchy::parents`].
    ///
    /// Streams over [`IndexSet::for_each_child`] rather than materializing
    /// the full child list: only the single result `Vec` is allocated, and
    /// the (rare) off-pool fallback re-walks the adjacency instead of
    /// holding a second list.
    pub fn children(&self, index: &IndexSet, r: RuleRef) -> Vec<RuleRef> {
        let mut out = Vec::new();
        index.for_each_child(r, |c| {
            if self.set.contains(&c) {
                out.push(c);
            }
        });
        if out.is_empty() {
            index.for_each_child(r, |c| out.push(c));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darwin_grammar::Heuristic;
    use darwin_index::{IdSet, IndexConfig};
    use darwin_text::Corpus;

    fn setup() -> (Corpus, IndexSet) {
        let c = Corpus::from_texts([
            "the shuttle to the airport leaves hourly",
            "is there a shuttle to the airport tonight",
            "a shuttle to downtown runs daily",
            "order pizza to the room",
        ]);
        let idx = IndexSet::build(&c, &IndexConfig::small());
        (c, idx)
    }

    #[test]
    fn membership_and_edges() {
        let (c, idx) = setup();
        let p = IdSet::from_ids(&[0, 1, 2], c.len());
        let h = crate::candidates::generate_hierarchy(&idx, &p, 1000, usize::MAX);
        assert!(!h.is_empty());
        let shuttle_to = idx
            .resolve(&Heuristic::phrase(&c, "shuttle to").unwrap())
            .unwrap();
        if h.contains(shuttle_to) {
            // Its parent "shuttle" covers a superset.
            let parents = h.parents(&idx, shuttle_to);
            assert!(!parents.is_empty());
            for par in parents {
                let pc = idx.coverage(par);
                for s in idx.coverage(shuttle_to) {
                    assert!(par == RuleRef::Root || pc.contains(s));
                }
            }
        }
    }

    #[test]
    fn off_pool_fallback_returns_index_edges() {
        let (c, idx) = setup();
        let h = Hierarchy::new(vec![]);
        let shuttle = idx
            .resolve(&Heuristic::phrase(&c, "shuttle").unwrap())
            .unwrap();
        // Pool is empty, so edges fall back to the index.
        assert!(!h.children(&idx, RuleRef::Root).is_empty());
        assert_eq!(h.parents(&idx, shuttle), vec![RuleRef::Root]);
    }
}
