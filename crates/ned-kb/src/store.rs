//! The assembled knowledge base.

use crate::dictionary::{Candidate, Dictionary};
use crate::entity::Entity;
use crate::fx::FxHashMap;
use crate::ids::{EntityId, PhraseId, WordId};
use crate::keyphrase::{EntityPhrase, KeyphraseStore};
use crate::links::LinkGraph;
use crate::vocab::{PhraseInterner, WordInterner};
use crate::weights::WeightModel;

/// The build-time knowledge base: entity repository, name dictionary, link
/// graph, keyphrase store, and precomputed statistical weights.
///
/// Construct via [`crate::builder::KbBuilder`]. It is neither a read view
/// nor a file format: consumers read the [`FrozenKb`](crate::FrozenKb)
/// that [`FrozenKb::freeze`](crate::FrozenKb::freeze) makes of it, which
/// builds the read indexes the store does not carry, and snapshots
/// ([`crate::snapshot`]) hold the frozen form.
#[derive(Debug, Default, Clone)]
pub struct KnowledgeBase {
    pub(crate) entities: Vec<Entity>,
    pub(crate) words: WordInterner,
    pub(crate) phrases: PhraseInterner,
    pub(crate) dictionary: Dictionary,
    pub(crate) links: LinkGraph,
    pub(crate) keyphrases: KeyphraseStore,
    pub(crate) weights: WeightModel,
    pub(crate) by_name: FxHashMap<String, EntityId>,
}

impl KnowledgeBase {
    /// Number of entities N in the repository.
    pub fn entity_count(&self) -> usize {
        self.entities.len()
    }

    /// The entity record for `e`.
    pub fn entity(&self, e: EntityId) -> &Entity {
        &self.entities[e.index()]
    }

    /// Iterates over all entity ids.
    pub fn entity_ids(&self) -> impl Iterator<Item = EntityId> {
        (0..self.entities.len()).map(EntityId::from_index)
    }

    /// Looks up an entity by its canonical name.
    pub fn entity_by_name(&self, canonical_name: &str) -> Option<EntityId> {
        self.by_name.get(canonical_name).copied()
    }

    /// Candidate entities for a mention surface (dictionary lookup with the
    /// §3.3.2 case rules). Empty when the surface is out-of-dictionary.
    pub fn candidates(&self, surface: &str) -> &[Candidate] {
        self.dictionary.candidates(surface)
    }

    /// Popularity prior p(e | surface) (§3.3.3).
    pub fn prior(&self, surface: &str, e: EntityId) -> f64 {
        self.dictionary.prior(surface, e)
    }

    /// The name dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dictionary
    }

    /// The link graph.
    pub fn links(&self) -> &LinkGraph {
        &self.links
    }

    /// The keyphrase set KP(e).
    pub fn keyphrases(&self, e: EntityId) -> &[EntityPhrase] {
        self.keyphrases.phrases(e)
    }

    /// The raw keyphrase store.
    pub fn keyphrase_store(&self) -> &KeyphraseStore {
        &self.keyphrases
    }

    /// Word-id sequence of a keyphrase.
    pub fn phrase_words(&self, p: PhraseId) -> &[WordId] {
        self.phrases.words(p)
    }

    /// Display surface of a keyphrase.
    pub fn phrase_surface(&self, p: PhraseId) -> &str {
        self.phrases.surface(p)
    }

    /// Lowercased text of a keyword.
    pub fn word_text(&self, w: WordId) -> &str {
        self.words.text(w)
    }

    /// Looks up an interned keyword by text.
    pub fn word_id(&self, text: &str) -> Option<WordId> {
        self.words.get(text)
    }

    /// The word interner.
    pub fn word_interner(&self) -> &WordInterner {
        &self.words
    }

    /// The phrase interner.
    pub fn phrase_interner(&self) -> &PhraseInterner {
        &self.phrases
    }

    /// The precomputed weight model.
    pub fn weights(&self) -> &WeightModel {
        &self.weights
    }
}
