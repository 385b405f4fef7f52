//! Selection of entity pairs needing coherence computation (§4.6.4).
//!
//! AIDA computes coherence weights only between candidate entities that can
//! co-occur in a solution: entities that are candidates of *different*
//! mentions. Two entities that share only a single common mention are
//! mutually exclusive alternatives and never need a coherence edge. The
//! number of selected pairs is the "comparisons" column of Table 4.4.
//!
//! Within those pairs a measure evaluates only the ones where it can be
//! nonzero ([`crate::Relatedness::nonzero_pairs`]). MW, KORE, KWCS, KPCS
//! and KORE-LSH are each zero unless two entities share a dimension (an
//! in-link, a keyword, a keyphrase, a bucket key), so one join,
//! [`shared_dimension_pairs`], lists the pairs for all five.

use ned_kb::EntityId;

use crate::traits::Relatedness;

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

/// Replaces `out` with the index pairs `(i, j)`, `i <= j`, of `entities`
/// that share a dimension, plus `(i, i)` for every entity with at least
/// one dimension; sorted and deduplicated. `dims(e)` yields the dimensions
/// of `e`, each once, in ascending order.
///
/// This is a postings join: after a sort by dimension, the entities of
/// each dimension pair up among themselves. It is the
/// [`nonzero_pairs`](crate::Relatedness::nonzero_pairs) of every measure
/// that is `+0.0` unless two entities share a dimension.
pub fn shared_dimension_pairs<D, I>(
    entities: &[EntityId],
    dims: impl Fn(EntityId) -> I,
    out: &mut Vec<(u32, u32)>,
) where
    D: Ord + Copy,
    I: IntoIterator<Item = D>,
{
    out.clear();
    // (dimension, entity index), grouped by dimension after the sort.
    let mut postings: Vec<(D, u32)> = Vec::new();
    for (i, &e) in (0u32..).zip(entities) {
        let before = postings.len();
        postings.extend(dims(e).into_iter().map(|d| (d, i)));
        if postings.len() > before {
            out.push((i, i));
        }
    }
    postings.sort_unstable();
    let mut rest = postings.as_slice();
    while let Some(&(d, _)) = rest.first() {
        let (group, tail) = rest.split_at(rest.iter().take_while(|p| p.0 == d).count());
        // Within a group the indexes ascend, so every pair has i <= j.
        let mut members = group;
        while let Some((&(_, i), later)) = members.split_first() {
            out.extend(later.iter().map(|&(_, j)| (i, j)));
            members = later;
        }
        rest = tail;
    }
    out.sort_unstable();
    out.dedup();
}

/// The entity pairs `(entities[i], entities[j])`, `i < j`, that
/// `measure` lists over `entities` ([`Relatedness::nonzero_pairs`] off
/// the diagonal), in its order: every pair of distinct positions that may
/// score nonzero. For KORE-LSH these are the pairs that survive pruning
/// (§4.4.2). Over sorted, distinct `entities` each pair has `a < b`, and
/// the pairs ascend.
pub fn off_diagonal_pairs<R: Relatedness + ?Sized>(
    measure: &R,
    entities: &[EntityId],
) -> Vec<(EntityId, EntityId)> {
    let mut listed = Vec::new();
    measure.nonzero_pairs(entities, &mut listed);
    listed
        .into_iter()
        .filter(|&(i, j)| i != j)
        .filter_map(|(i, j)| Some((*entities.get(i as usize)?, *entities.get(j as usize)?)))
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use super::*;
    use crate::{
        KeyphraseCosine, KeywordCosine, Kore, KoreLsh, MilneWitten, Relatedness, TwoStageConfig,
    };
    use ned_kb::{DeltaKb, EntityKind, FrozenKb, KbBuilder, KbMutation, KbView};
    use proptest::prelude::*;

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    /// Each distinct candidate's mention set, in entity order.
    fn mention_sets(cands: &[Vec<EntityId>]) -> Vec<MentionSet> {
        let mut sets: BTreeMap<EntityId, MentionSet> = BTreeMap::new();
        for (m, list) in cands.iter().enumerate() {
            for &entity in list {
                let set = sets.entry(entity).or_default();
                *set = set.with(m);
            }
        }
        sets.into_values().collect()
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
        let count = cross_mention_pair_count(&mention_sets(&cands));
        assert_eq!(count, coherence_pairs(&cands).len());
        // 3·2 + 3·1 + 2·1 = 11 distinct cross-mention pairs.
        assert_eq!(count, 11);
    }

    #[test]
    fn empty_input() {
        assert!(coherence_pairs(&[]).is_empty());
        assert!(coherence_pairs(&[vec![]]).is_empty());
        assert_eq!(cross_mention_pair_count(&mention_sets(&[])), 0);
        assert_eq!(cross_mention_pair_count(&mention_sets(&[vec![]])), 0);
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

        /// The closed form the graph uses counts exactly the pairs
        /// `coherence_pairs` lists. A pool of 10 entities over up to 8
        /// mentions makes candidates shared across mentions and repeated
        /// within one.
        #[test]
        fn closed_form_count_matches_enumeration(
            mentions in proptest::collection::vec(
                proptest::collection::vec(0u32..10, 0..6), 0..8),
        ) {
            let cands: Vec<Vec<EntityId>> =
                mentions.iter().map(|m| m.iter().map(|&i| e(i)).collect()).collect();
            prop_assert_eq!(
                cross_mention_pair_count(&mention_sets(&cands)),
                coherence_pairs(&cands).len()
            );
        }
    }

    #[test]
    fn join_pairs_entities_that_share_a_dimension() {
        // Entity k has the dimensions dims[k]; entity 3 has none.
        let dims: [&[u8]; 4] = [&[1, 4], &[2], &[4, 7], &[]];
        let of = |x: EntityId| dims.get(x.index()).copied().unwrap_or_default().iter().copied();
        let mut out = vec![(9, 9)];
        // Indexes refer to positions; entity 0 appears twice.
        shared_dimension_pairs(&[e(2), e(3), e(0), e(1), e(0)], of, &mut out);
        // 2–0 share 4, the repeated 0 pairs with itself, 3 has no
        // diagonal and 1 shares nothing.
        assert_eq!(out, vec![(0, 0), (0, 2), (0, 4), (2, 2), (2, 4), (3, 3), (4, 4)]);
        shared_dimension_pairs(&[], of, &mut out);
        assert!(out.is_empty());
    }

    /// The same KB two ways: frozen from a builder that applies `ops` in
    /// order, and an overlay that applies `ops[split..]` as
    /// [`KbMutation`]s over a frozen base built from `ops[..split]`. The
    /// order keeps word, phrase and entity ids equal in both.
    pub(crate) fn two_backends(ops: &[KbMutation], split: usize) -> (FrozenKb, DeltaKb) {
        let build = |ops: &[KbMutation]| {
            let mut b = KbBuilder::new();
            let mut ids: BTreeMap<&str, EntityId> = BTreeMap::new();
            for op in ops {
                match op {
                    KbMutation::AddEntity { canonical_name, kind } => {
                        ids.insert(canonical_name, b.add_entity(canonical_name, *kind));
                    }
                    KbMutation::AddLink { src, dst } => b.add_link(ids[src.as_str()], ids[dst.as_str()]),
                    KbMutation::AddKeyphrase { entity, surface, count } => {
                        b.add_keyphrase(ids[entity.as_str()], surface, *count);
                    }
                    other => panic!("no builder mirror for {other:?}"),
                }
            }
            FrozenKb::freeze(&b.build())
        };
        let (base, late) = ops.split_at(split);
        let delta = DeltaKb::build(Arc::new(build(base)), late.to_vec()).unwrap();
        (build(ops), delta)
    }

    /// Operations over `n` entities `E0..`: entity `n − 1`, `late_links` of
    /// the links and `late_phrases` of the keyphrases come after the split,
    /// and so reach the overlay as mutations. Each keyphrase is one to
    /// three words of a small vocabulary, so entities share keywords and
    /// whole phrases.
    pub(crate) fn ops_strategy() -> impl Strategy<Value = (Vec<KbMutation>, usize)> {
        (
            2usize..12,
            proptest::collection::vec((0usize..64, 0usize..64), 0..24),
            proptest::collection::vec(
                (0usize..64, proptest::collection::vec(0u8..8, 1..4), 1u64..4),
                0..24,
            ),
        )
            .prop_map(|(n, links, phrases)| {
                let name = |i: usize| format!("E{}", i % n);
                let entity =
                    |i: usize| KbMutation::AddEntity { canonical_name: name(i), kind: EntityKind::Other };
                let link = |&(s, d): &(usize, usize)| KbMutation::AddLink { src: name(s), dst: name(d) };
                let phrase = |(who, words, count): &(usize, Vec<u8>, u64)| {
                    let words: Vec<String> = words.iter().map(|w| format!("w{w}")).collect();
                    KbMutation::AddKeyphrase { entity: name(*who), surface: words.join(" "), count: *count }
                };
                // Early operations may only name the base's entities.
                let early = |&(s, d): &(usize, usize)| s % n < n - 1 && d % n < n - 1;
                let mut ops: Vec<KbMutation> = (0..n - 1).map(entity).collect();
                ops.extend(links.iter().step_by(2).filter(|l| early(l)).map(link));
                ops.extend(phrases.iter().step_by(2).filter(|p| early(&(p.0, 0))).map(phrase));
                let split = ops.len();
                ops.push(entity(n - 1));
                ops.extend(links.iter().enumerate().filter(|(k, l)| k % 2 == 1 || !early(l)).map(|(_, l)| link(l)));
                ops.extend(
                    phrases.iter().enumerate().filter(|(k, p)| k % 2 == 1 || !early(&(p.0, 0))).map(|(_, p)| phrase(p)),
                );
                (ops, split)
            })
    }

    /// Checks the [`Relatedness::nonzero_pairs`] contract of one measure
    /// and returns its pairs: sorted, deduplicated, `i <= j`, in range, and
    /// every pair left out scores exactly `+0.0`.
    fn checked_pairs<M: Relatedness>(measure: &M, entities: &[EntityId]) -> Vec<(u32, u32)> {
        let mut out = vec![(7, 7)];
        measure.nonzero_pairs(entities, &mut out);
        let name = measure.name();
        assert!(out.windows(2).all(|w| w[0] < w[1]), "{name}: sorted and deduplicated: {out:?}");
        let len = entities.len() as u32;
        assert!(out.iter().all(|&(i, j)| i <= j && j < len), "{name}: in range: {out:?}");
        for i in 0..len {
            for j in i..len {
                if out.binary_search(&(i, j)).is_err() {
                    let v = measure.relatedness(entities[i as usize], entities[j as usize]);
                    assert_eq!(v.to_bits(), 0.0f64.to_bits(), "{name}: omitted ({i}, {j}) scores {v}");
                }
            }
        }
        out
    }

    /// The checked pairs of every measure that lists its own, on one KB.
    fn all_measures<K: KbView>(kb: &K, entities: &[EntityId]) -> Vec<Vec<(u32, u32)>> {
        vec![
            checked_pairs(&MilneWitten::new(kb), entities),
            checked_pairs(&Kore::new(kb), entities),
            checked_pairs(&KeywordCosine::new(kb), entities),
            checked_pairs(&KeyphraseCosine::new(kb), entities),
            checked_pairs(&KoreLsh::new(kb, TwoStageConfig::lsh_g()), entities),
            checked_pairs(&KoreLsh::new(kb, TwoStageConfig::lsh_f()), entities),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// For MW, KORE, KWCS, KPCS and both KORE-LSH variants, every pair
        /// `nonzero_pairs` omits scores exactly +0.0, on the frozen KB and
        /// on the overlay, and both backends list the same pairs. Random
        /// links and keyphrases leave some entities without in-links or
        /// keyphrases; queries repeat entities, so the diagonal and self
        /// pairs are covered.
        #[test]
        fn omitted_pairs_score_zero_on_every_backend(
            case in ops_strategy(),
            query in proptest::collection::vec(0u32..64, 0..12),
        ) {
            let (frozen, delta) = two_backends(&case.0, case.1);
            let n = frozen.entity_count() as u32;
            let entities: Vec<EntityId> = query.iter().map(|&q| e(q % n)).collect();
            prop_assert_eq!(all_measures(&delta, &entities), all_measures(&frozen, &entities));
        }
    }
}
