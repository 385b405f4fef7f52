//! Selection of entity pairs needing coherence computation (§4.6.4).
//!
//! AIDA computes coherence weights only between candidate entities that can
//! co-occur in a solution: entities that are candidates of *different*
//! mentions. Two entities that share only a single common mention are
//! mutually exclusive alternatives and never need a coherence edge. The
//! number of selected pairs is the "comparisons" column of Table 4.4.

use ned_kb::EntityId;

/// The mentions an entity is a candidate of, as far as pair selection
/// needs to know: none, exactly one, or several.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MentionSet {
    /// A candidate of no mention.
    #[default]
    Empty,
    /// A candidate of this mention only.
    One(usize),
    /// A candidate of two or more mentions.
    Many,
}

impl MentionSet {
    /// The set with mention `m` added.
    #[must_use]
    pub fn with(self, m: usize) -> Self {
        match self {
            MentionSet::Empty => MentionSet::One(m),
            MentionSet::One(x) if x == m => self,
            _ => MentionSet::Many,
        }
    }

    /// True when some mention of `self` differs from some mention of
    /// `other`, i.e. an entity of each can be chosen together.
    pub fn crosses(self, other: MentionSet) -> bool {
        match (self, other) {
            (MentionSet::Empty, _) | (_, MentionSet::Empty) => false,
            (MentionSet::One(a), MentionSet::One(b)) => a != b,
            _ => true,
        }
    }
}

/// Computes the unordered entity pairs that require a relatedness value,
/// given the candidate list of every mention. Pairs are deduplicated and
/// returned with `a < b`, in ascending order.
pub fn coherence_pairs(candidates_per_mention: &[Vec<EntityId>]) -> Vec<(EntityId, EntityId)> {
    let mut pairs = Vec::new();
    for (mi, cands) in candidates_per_mention.iter().enumerate() {
        for other_cands in candidates_per_mention.iter().skip(mi + 1) {
            for &a in cands {
                for &b in other_cands {
                    if a != b {
                        pairs.push(if a < b { (a, b) } else { (b, a) });
                    }
                }
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Number of coherence pairs, in closed form without materializing them
/// (cheap counting for large candidate spaces): see
/// [`cross_mention_pair_count`].
pub fn coherence_pair_count(candidates_per_mention: &[Vec<EntityId>]) -> usize {
    let mut memberships: Vec<(EntityId, usize)> = candidates_per_mention
        .iter()
        .enumerate()
        .flat_map(|(m, cands)| cands.iter().map(move |&e| (e, m)))
        .collect();
    memberships.sort_unstable();
    let mut sets: Vec<MentionSet> = Vec::new();
    let mut last = None;
    for &(e, m) in &memberships {
        match sets.last_mut() {
            Some(set) if last == Some(e) => *set = set.with(m),
            _ => sets.push(MentionSet::One(m)),
        }
        last = Some(e);
    }
    cross_mention_pair_count(&sets)
}

/// The number of pairs of distinct entities that are candidates of
/// different mentions, given each entity's [`MentionSet`]:
/// `C(n, 2) − Σₘ C(sₘ, 2)`, where `n` counts the entities that are
/// candidates at all and `sₘ` those that are candidates of mention `m`
/// only. Two entities fail to cross exactly when both belong to one same
/// mention and to no other.
pub fn cross_mention_pair_count(sets: &[MentionSet]) -> usize {
    let choose2 = |k: usize| k * k.saturating_sub(1) / 2;
    let n = sets.iter().filter(|&&s| s != MentionSet::Empty).count();
    let mut sole: Vec<usize> = sets
        .iter()
        .filter_map(|&s| match s {
            MentionSet::One(m) => Some(m),
            _ => None,
        })
        .collect();
    sole.sort_unstable();
    let mut same_mention = 0;
    let mut rest = sole.as_slice();
    while let Some(&m) = rest.first() {
        let (run, tail) = rest.split_at(rest.iter().take_while(|&&x| x == m).count());
        same_mention += choose2(run.len());
        rest = tail;
    }
    choose2(n) - same_mention
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    #[test]
    fn pairs_span_different_mentions_only() {
        // Mention 0: {1, 2}; mention 1: {3}.
        let pairs = coherence_pairs(&[vec![e(1), e(2)], vec![e(3)]]);
        assert_eq!(pairs, vec![(e(1), e(3)), (e(2), e(3))]);
    }

    #[test]
    fn mutually_exclusive_candidates_have_no_pair() {
        // Entities 1 and 2 are candidates of the same single mention.
        let pairs = coherence_pairs(&[vec![e(1), e(2)]]);
        assert!(pairs.is_empty());
    }

    #[test]
    fn shared_candidate_across_mentions() {
        // Entity 1 is a candidate of both mentions: pairs with the other
        // mention's candidates exist, but never a self pair.
        let pairs = coherence_pairs(&[vec![e(1), e(2)], vec![e(1), e(3)]]);
        assert!(pairs.contains(&(e(1), e(3))));
        assert!(pairs.contains(&(e(1), e(2))));
        assert!(pairs.contains(&(e(2), e(3))));
        assert!(!pairs.iter().any(|&(a, b)| a == b));
        assert_eq!(pairs.len(), 3);
    }

    #[test]
    fn count_matches_pairs() {
        let cands = vec![vec![e(1), e(2), e(3)], vec![e(4), e(5)], vec![e(6)]];
        assert_eq!(coherence_pair_count(&cands), coherence_pairs(&cands).len());
        // 3·2 + 3·1 + 2·1 = 11 distinct cross-mention pairs.
        assert_eq!(coherence_pair_count(&cands), 11);
    }

    #[test]
    fn empty_input() {
        assert!(coherence_pairs(&[]).is_empty());
        assert!(coherence_pairs(&[vec![]]).is_empty());
        assert_eq!(coherence_pair_count(&[]), 0);
        assert_eq!(coherence_pair_count(&[vec![]]), 0);
    }

    #[test]
    fn mention_sets_cross_only_across_mentions() {
        let one = MentionSet::Empty.with(0);
        assert_eq!(one, MentionSet::One(0));
        assert_eq!(one.with(0), MentionSet::One(0));
        assert_eq!(one.with(1), MentionSet::Many);
        assert!(!one.crosses(MentionSet::One(0)));
        assert!(one.crosses(MentionSet::One(1)));
        assert!(one.crosses(MentionSet::Many));
        assert!(MentionSet::Many.crosses(MentionSet::Many));
        assert!(!MentionSet::Many.crosses(MentionSet::Empty));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The closed form counts exactly the pairs `coherence_pairs`
        /// lists. A pool of 10 entities over up to 8 mentions makes
        /// candidates shared across mentions and repeated within one.
        #[test]
        fn closed_form_count_matches_enumeration(
            mentions in proptest::collection::vec(
                proptest::collection::vec(0u32..10, 0..6), 0..8),
        ) {
            let cands: Vec<Vec<EntityId>> =
                mentions.iter().map(|m| m.iter().map(|&i| e(i)).collect()).collect();
            prop_assert_eq!(coherence_pair_count(&cands), coherence_pairs(&cands).len());
        }
    }
}
