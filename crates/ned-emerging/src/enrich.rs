//! KB maintenance: harvesting additional keyphrases for *existing* entities
//! from high-confidence disambiguations (§5.5.1).
//!
//! The same update lag that keeps emerging entities out of Wikipedia also
//! keeps recent facts out of existing articles ("Theresa May" example,
//! §5.7.3). Phrases harvested around mentions that were disambiguated with
//! confidence ≥ 95% are accurate for ~98% of mentions (Table 5.1), so they
//! can be added to the entity's keyphrase model with little noise.
//!
//! The enriched KB is a [`DeltaKb`] overlay: one
//! [`KbMutation::AddKeyphrase`] per harvested phrase over the shared
//! frozen base, the same write path live promotion uses
//! ([`crate::policy`]).

use std::collections::HashMap;
use std::sync::Arc;

use ned_aida::Disambiguator;
use ned_core::NedError;
use ned_eval::gold::GoldDoc;
use ned_kb::{DeltaKb, EntityId, FrozenKb, KbMutation, KbView};
use ned_relatedness::Relatedness;

use crate::confidence::ConfAssessor;
use crate::harvest::harvest_window;

/// Result of a harvesting pass.
#[derive(Debug, Default)]
pub struct EnrichmentReport {
    /// Phrases collected per entity.
    pub harvested: HashMap<EntityId, HashMap<String, u64>>,
    /// Mentions that passed the confidence bar.
    pub confident_mentions: usize,
    /// All mentions seen.
    pub total_mentions: usize,
}

impl EnrichmentReport {
    /// Total number of (entity, phrase) observations harvested.
    pub fn phrase_observations(&self) -> u64 {
        self.harvested.values().flat_map(|m| m.values()).sum()
    }
}

/// Harvests keyphrases for in-KB entities from high-confidence mentions in
/// `docs`.
pub fn harvest_confident<K: KbView, R: Relatedness>(
    aida: &Disambiguator<K, R>,
    assessor: &ConfAssessor,
    docs: &[&GoldDoc],
    min_confidence: f64,
) -> EnrichmentReport {
    let mut report = EnrichmentReport::default();
    for doc in docs {
        let mentions = doc.bare_mentions();
        let (_, features) = aida.features(&doc.tokens, &mentions);
        let result = aida.disambiguate_features(&features);
        let confidences = assessor.assess(aida, &features, &result);
        report.total_mentions += mentions.len();
        let assessed = mentions.iter().zip(&result.assignments).zip(&confidences);
        for ((mention, assignment), &confidence) in assessed {
            let Some(entity) = assignment.entity else { continue };
            if confidence < min_confidence {
                continue;
            }
            report.confident_mentions += 1;
            let phrases = harvest_window(doc, mention);
            let slot = report.harvested.entry(entity).or_default();
            for (p, c) in phrases {
                *slot.entry(p).or_insert(0) += c;
            }
        }
    }
    report
}

/// Adds the harvested phrases to the knowledge base: one
/// [`KbMutation::AddKeyphrase`] per (entity, phrase), applied through a
/// [`DeltaKb`] overlay over `base`, so the weights are recomputed over the
/// enriched KB without copying the base. A harvested entity the base does
/// not hold, or an empty phrase, is a typed error.
pub fn enrich_kb(base: Arc<FrozenKb>, report: &EnrichmentReport) -> Result<DeltaKb, NedError> {
    // Emit in sorted (entity, surface) order: keyphrase ids are assigned in
    // insertion order, so hash-map iteration order here would otherwise
    // leak into the enriched KB's id space and its snapshots.
    let mut by_entity: Vec<(&EntityId, &HashMap<String, u64>)> =
        report.harvested.iter().collect();
    by_entity.sort_unstable_by_key(|&(&entity, _)| entity);
    let mut mutations = Vec::new();
    for (&entity, phrases) in by_entity {
        if entity.index() >= base.entity_count() {
            return Err(NedError::Lookup { what: "entity id", key: entity.index().to_string() });
        }
        let name = base.entity(entity).canonical_name.clone();
        let mut surfaces: Vec<(&String, &u64)> = phrases.iter().collect();
        surfaces.sort_unstable();
        mutations.extend(surfaces.into_iter().map(|(surface, &count)| {
            KbMutation::AddKeyphrase { entity: name.clone(), surface: surface.clone(), count }
        }));
    }
    DeltaKb::build(base, mutations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confidence::{ConfAssessor, ConfidenceMethod};
    use ned_aida::AidaConfig;
    use ned_eval::gold::LabeledMention;
    use ned_kb::{EntityKind, KbBuilder};
    use ned_relatedness::MilneWitten;
    use ned_text::{tokenize, Mention};

    fn kb() -> Arc<FrozenKb> {
        let mut b = KbBuilder::new();
        let may = b.add_entity("Theresa May", EntityKind::Person);
        b.add_name(may, "May", 10);
        b.add_keyphrase(may, "british home secretary", 4);
        // Vocabulary for the harvested phrases, plus a third entity so no
        // keyword is ubiquitous (NPMI of a word present in every
        // superdocument is 0).
        let pad = b.add_entity("Pad", EntityKind::Other);
        b.add_keyphrase(pad, "chief suspect investigation", 1);
        let other = b.add_entity("Other", EntityKind::Other);
        b.add_keyphrase(other, "completely unrelated affairs", 1);
        Arc::new(FrozenKb::freeze(&b.build()))
    }

    fn docs() -> Vec<GoldDoc> {
        let make = |id: &str, text: &str| {
            let tokens = tokenize(text);
            let pos = tokens.iter().position(|t| t.text == "May").unwrap();
            GoldDoc::new(
                id,
                tokens,
                vec![LabeledMention { mention: Mention::new("May", pos, pos + 1), label: None }],
                0,
            )
        };
        vec![
            make("d1", "british home secretary May named the chief suspect investigation"),
            make("d2", "the chief suspect investigation was opened by home secretary May"),
        ]
    }

    #[test]
    fn harvests_only_confident_mentions() {
        let kb = kb();
        let aida = Disambiguator::new(&kb, MilneWitten::new(&kb), AidaConfig::sim_only());
        let assessor = ConfAssessor::new(ConfidenceMethod::Normalized);
        let docs = docs();
        let refs: Vec<&GoldDoc> = docs.iter().collect();
        // "May" is unambiguous in this KB → confidence 1.
        let report = harvest_confident(&aida, &assessor, &refs, 0.95);
        assert_eq!(report.total_mentions, 2);
        assert_eq!(report.confident_mentions, 2);
        assert!(report.phrase_observations() > 0);
        // An impossible bar harvests nothing.
        let none = harvest_confident(&aida, &assessor, &refs, 1.01);
        assert_eq!(none.confident_mentions, 0);
        assert_eq!(none.phrase_observations(), 0);
    }

    #[test]
    fn enrichment_extends_the_entity_model() {
        let kb = kb();
        let may = kb.entity_by_name("Theresa May").unwrap();
        let aida = Disambiguator::new(&kb, MilneWitten::new(&kb), AidaConfig::sim_only());
        let assessor = ConfAssessor::new(ConfidenceMethod::Normalized);
        let docs = docs();
        let refs: Vec<&GoldDoc> = docs.iter().collect();
        let report = harvest_confident(&aida, &assessor, &refs, 0.95);
        let enriched = enrich_kb(Arc::clone(&kb), &report).unwrap();
        assert!(Arc::ptr_eq(enriched.base(), &kb), "the overlay shares the base");
        assert!(enriched.keyphrases(may).len() > kb.keyphrases(may).len());
        // The new phrases participate in similarity: "chief suspect" words
        // now belong to the entity.
        let suspect = enriched.word_id("suspect").unwrap();
        assert!(enriched.weights().keyword_npmi(may, suspect) > 0.0);
    }

    #[test]
    fn enrichment_preserves_existing_content() {
        let kb = kb();
        let may = kb.entity_by_name("Theresa May").unwrap();
        let report = EnrichmentReport::default();
        let enriched = enrich_kb(Arc::clone(&kb), &report).unwrap();
        assert_eq!(enriched.entity_count(), kb.entity_count());
        assert_eq!(enriched.keyphrases(may).len(), kb.keyphrases(may).len());
        assert_eq!(enriched.candidates("May").len(), 1);
    }

    #[test]
    fn harvest_for_an_entity_outside_the_base_is_a_typed_error() {
        let mut report = EnrichmentReport::default();
        report.harvested.entry(EntityId(99)).or_default().insert("chief suspect".into(), 1);
        let err = enrich_kb(kb(), &report).unwrap_err();
        assert!(matches!(err, NedError::Lookup { what: "entity id", .. }), "{err}");
    }
}
