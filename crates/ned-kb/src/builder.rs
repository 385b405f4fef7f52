//! Incremental construction of a [`KnowledgeBase`].

use crate::entity::{Entity, EntityKind};
use crate::fx::FxHashMap;
use crate::ids::{EntityId, PhraseId};
use crate::keyphrase::KeyphraseStore;
use crate::links::LinkGraph;
use crate::store::KnowledgeBase;
use crate::vocab::{PhraseInterner, WordInterner};
use crate::weights::WeightModel;

/// Builder accumulating entities, names, links, and keyphrases, then
/// computing the weight model in [`KbBuilder::build`].
///
/// Mirrors how the original system harvests Wikipedia: every article becomes
/// an entity; titles, redirects, and link anchors populate the dictionary;
/// page links populate the link graph; anchor texts, categories, and citation
/// titles populate the keyphrase store.
#[derive(Debug, Default)]
pub struct KbBuilder {
    entities: Vec<Entity>,
    by_name: FxHashMap<String, EntityId>,
    words: WordInterner,
    phrases: PhraseInterner,
    dictionary: crate::dictionary::Dictionary,
    link_pairs: Vec<(EntityId, EntityId)>,
    phrase_adds: Vec<(EntityId, PhraseId, u64)>,
}

impl KbBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an entity with a unique canonical name.
    ///
    /// The canonical name is automatically added to the dictionary with an
    /// anchor count of 1 (the "title" observation).
    ///
    /// # Panics
    /// Panics if the canonical name is already taken.
    pub fn add_entity(&mut self, canonical_name: &str, kind: EntityKind) -> EntityId {
        assert!(
            !self.by_name.contains_key(canonical_name),
            "duplicate canonical name: {canonical_name}"
        );
        let id = EntityId::from_index(self.entities.len());
        self.entities.push(Entity::new(canonical_name, kind));
        self.by_name.insert(canonical_name.to_string(), id);
        self.dictionary.add(canonical_name, id, 1);
        id
    }

    /// Number of entities registered so far.
    pub fn entity_count(&self) -> usize {
        self.entities.len()
    }

    /// Adds a surface name observation (redirect, disambiguation page entry,
    /// or link anchor) for `entity` with the given anchor `count`.
    pub fn add_name(&mut self, entity: EntityId, name: &str, count: u64) {
        self.dictionary.add(name, entity, count);
    }

    /// Adds a directed link between entities (like a Wikipedia page link).
    pub fn add_link(&mut self, src: EntityId, dst: EntityId) {
        self.link_pairs.push((src, dst));
    }

    /// Adds `count` observations of keyphrase `surface` for `entity`.
    pub fn add_keyphrase(&mut self, entity: EntityId, surface: &str, count: u64) -> PhraseId {
        let p = self.phrases.intern(surface, &mut self.words);
        self.phrase_adds.push((entity, p, count));
        p
    }

    /// Finalizes all stores, computes the weight model, and returns the
    /// immutable knowledge base.
    pub fn build(self) -> KnowledgeBase {
        let n = self.entities.len();
        let mut links = LinkGraph::new(n);
        for (src, dst) in self.link_pairs {
            links.add_link(src, dst);
        }
        links.finalize();

        let mut keyphrases = KeyphraseStore::new(n);
        for (e, p, c) in self.phrase_adds {
            keyphrases.add(e, p, c);
        }
        keyphrases.finalize();

        let mut dictionary = self.dictionary;
        dictionary.finalize();

        let weights = WeightModel::compute(&keyphrases, &links, &self.phrases, self.words.len());

        KnowledgeBase {
            entities: self.entities,
            words: self.words,
            phrases: self.phrases,
            dictionary,
            links,
            keyphrases,
            weights,
            by_name: self.by_name,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Builds the running example of the thesis: Jimmy Page, Kashmir (song),
    /// Kashmir (region), Robert Plant.
    pub(crate) fn example_kb() -> KnowledgeBase {
        let mut b = KbBuilder::new();
        let page = b.add_entity("Jimmy Page", EntityKind::Person);
        let song = b.add_entity("Kashmir (song)", EntityKind::Work);
        let region = b.add_entity("Kashmir (region)", EntityKind::Location);
        let plant = b.add_entity("Robert Plant", EntityKind::Person);

        b.add_name(page, "Page", 70);
        b.add_name(song, "Kashmir", 6);
        b.add_name(region, "Kashmir", 94);
        b.add_name(plant, "Plant", 60);

        b.add_keyphrase(page, "hard rock", 3);
        b.add_keyphrase(page, "Led Zeppelin", 5);
        b.add_keyphrase(page, "Gibson guitar", 2);
        b.add_keyphrase(song, "Led Zeppelin", 4);
        b.add_keyphrase(song, "hard rock", 2);
        b.add_keyphrase(region, "Himalaya mountains", 5);
        b.add_keyphrase(region, "disputed territory", 3);
        b.add_keyphrase(plant, "Led Zeppelin", 5);
        b.add_keyphrase(plant, "rock singer", 3);

        b.add_link(page, song);
        b.add_link(song, page);
        b.add_link(plant, song);
        b.add_link(plant, page);
        b.add_link(page, plant);

        b.build()
    }

    #[test]
    fn build_produces_consistent_kb() {
        let kb = example_kb();
        assert_eq!(kb.entity_count(), 4);
        let page = kb.entity_by_name("Jimmy Page").unwrap();
        assert_eq!(kb.entity(page).canonical_name, "Jimmy Page");
        assert_eq!(kb.keyphrases(page).len(), 3);
        assert!(kb.links().inlinks(page).len() >= 2);
    }

    #[test]
    fn canonical_name_is_in_dictionary() {
        let kb = example_kb();
        let cands = kb.candidates("Jimmy Page");
        assert_eq!(cands.len(), 1);
    }

    #[test]
    fn ambiguous_name_has_multiple_candidates_sorted_by_count() {
        let kb = example_kb();
        let cands = kb.candidates("Kashmir");
        assert_eq!(cands.len(), 2);
        assert!(cands[0].count > cands[1].count);
        let region = kb.entity_by_name("Kashmir (region)").unwrap();
        assert_eq!(cands[0].entity, region);
        assert!(kb.prior("Kashmir", region) > 0.9);
    }

    #[test]
    fn weights_are_computed() {
        let kb = example_kb();
        let page = kb.entity_by_name("Jimmy Page").unwrap();
        let zeppelin = kb.word_id("zeppelin").unwrap();
        assert!(kb.weights().keyword_npmi(page, zeppelin) > 0.0);
    }

    #[test]
    #[should_panic(expected = "duplicate canonical name")]
    fn duplicate_canonical_name_panics() {
        let mut b = KbBuilder::new();
        b.add_entity("X", EntityKind::Other);
        b.add_entity("X", EntityKind::Other);
    }

    #[test]
    fn empty_builder_builds_empty_kb() {
        let kb = KbBuilder::new().build();
        assert_eq!(kb.entity_count(), 0);
        assert!(kb.candidates("anything").is_empty());
    }
}
