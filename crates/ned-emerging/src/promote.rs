//! Promoting a discovered emerging entity into the knowledge base (the KB
//! maintenance life-cycle of §5.6: "Once we have identified a new EE, it
//! should be added to the knowledge base in a representation that is strong
//! enough to distinguish it from further EEs with the same name. At some
//! point … it should be promoted … to a canonicalized entity").

use ned_kb::{EntityId, EntityKind, FrozenKb, KbBuilder, KbView};

use crate::ee_model::EeModel;

/// Promotes an EE model to a first-class entity: the enlarged KB contains
/// a new entity under `canonical_name`, registered in the dictionary under
/// the model's ambiguous name, carrying the model's keyphrases.
///
/// Returns the rebuilt KB, frozen for reading, and the new entity's id.
/// Existing entity ids are preserved (rebuilds are id-stable), so gold
/// labels and indexes remain valid.
///
/// # Panics
/// Panics when `canonical_name` is already taken or the model is empty.
pub fn promote_entity<K: KbView + ?Sized>(
    kb: &K,
    model: &EeModel,
    canonical_name: &str,
    kind: EntityKind,
    initial_anchor_count: u64,
) -> (FrozenKb, EntityId) {
    assert!(!model.is_empty(), "cannot promote an entity without keyphrases");
    let mut builder = KbBuilder::from_kb(kb);
    let id = builder.add_entity(canonical_name, kind);
    builder.add_name(id, &model.name, initial_anchor_count.max(1));
    for phrase in &model.phrases {
        // Scale the [0,1] salience back into a small integer count.
        let count = (phrase.weight * 5.0).ceil() as u64;
        builder.add_keyphrase(id, &phrase.surface, count.max(1));
    }
    (FrozenKb::freeze(&builder.build()), id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ee_model::EePhrase;
    use ned_aida::{AidaConfig, Disambiguator, NedMethod};
    use ned_relatedness::MilneWitten;
    use ned_text::{tokenize, Mention};

    fn kb() -> FrozenKb {
        let mut b = KbBuilder::new();
        let band = b.add_entity("Prism (band)", EntityKind::Organization);
        b.add_name(band, "Prism", 10);
        b.add_keyphrase(band, "progressive rock band", 5);
        let pad = b.add_entity("Pad", EntityKind::Other);
        b.add_keyphrase(pad, "secret surveillance program", 1);
        FrozenKb::freeze(&b.build())
    }

    fn model(kb: &FrozenKb) -> EeModel {
        let words = |s: &str| {
            let mut w: Vec<_> = s.split_whitespace().filter_map(|x| kb.word_id(x)).collect();
            w.sort_unstable();
            w.dedup();
            w
        };
        EeModel {
            name: "Prism".into(),
            phrases: vec![
                EePhrase {
                    surface: "secret surveillance program".into(),
                    words: words("secret surveillance program"),
                    weight: 1.0,
                },
            ],
            occurrences: 7,
        }
    }

    #[test]
    fn promotion_creates_a_disambiguatable_entity() {
        let kb = kb();
        let model = model(&kb);
        let (enlarged, new_id) =
            promote_entity(&kb, &model, "PRISM (program)", EntityKind::Other, 3);
        assert_eq!(enlarged.entity_count(), kb.entity_count() + 1);
        assert_eq!(enlarged.entity(new_id).canonical_name, "PRISM (program)");
        // The ambiguous name now has both candidates.
        assert_eq!(enlarged.candidates("Prism").len(), 2);
        // The regular disambiguator resolves the program reading to the new
        // entity — no EE machinery needed anymore.
        let aida =
            Disambiguator::new(&enlarged, MilneWitten::new(&enlarged), AidaConfig::sim_only());
        let tokens = tokenize("the secret surveillance program Prism was debated");
        let labels = aida.disambiguate(&tokens, &[Mention::new("Prism", 3, 4)]).labels();
        assert_eq!(labels[0], Some(new_id));
        // ... while the band reading still resolves to the band.
        let tokens = tokenize("the progressive rock band Prism played");
        let labels = aida.disambiguate(&tokens, &[Mention::new("Prism", 4, 5)]).labels();
        assert_eq!(labels[0], enlarged.entity_by_name("Prism (band)"));
    }

    #[test]
    fn existing_ids_survive_promotion() {
        let kb = kb();
        let band = kb.entity_by_name("Prism (band)").unwrap();
        let (enlarged, _) =
            promote_entity(&kb, &model(&kb), "PRISM (program)", EntityKind::Other, 1);
        assert_eq!(enlarged.entity_by_name("Prism (band)"), Some(band));
        assert_eq!(enlarged.entity(band).canonical_name, "Prism (band)");
    }

    #[test]
    #[should_panic(expected = "without keyphrases")]
    fn empty_model_cannot_be_promoted() {
        let kb = kb();
        let empty = EeModel { name: "X".into(), phrases: vec![], occurrences: 0 };
        promote_entity(&kb, &empty, "X (new)", EntityKind::Other, 1);
    }

    #[test]
    #[should_panic(expected = "duplicate canonical name")]
    fn duplicate_canonical_name_is_rejected() {
        let kb = kb();
        promote_entity(&kb, &model(&kb), "Prism (band)", EntityKind::Other, 1);
    }
}
