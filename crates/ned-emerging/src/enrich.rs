//! KB maintenance: harvesting additional keyphrases for *existing* entities
//! from high-confidence disambiguations (§5.5.1).
//!
//! The same update lag that keeps emerging entities out of Wikipedia also
//! keeps recent facts out of existing articles ("Theresa May" example,
//! §5.7.3). Phrases harvested around mentions that were disambiguated with
//! confidence ≥ 95% are accurate for ~98% of mentions (Table 5.1), so they
//! can be added to the entity's keyphrase model with little noise.

use std::collections::HashMap;

use ned_aida::Disambiguator;
use ned_eval::gold::GoldDoc;
use ned_kb::{EntityId, FrozenKb, KbBuilder, KbView};
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
        let features = aida.features(&doc.tokens, &mentions);
        let result = aida.disambiguate_features(&features);
        let confidences = assessor.assess(aida, &features, &result);
        for (i, mention) in mentions.iter().enumerate() {
            report.total_mentions += 1;
            let Some(entity) = result.assignments[i].entity else { continue };
            if confidences[i] < min_confidence {
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

/// Rebuilds the knowledge base with the harvested phrases added (weights
/// are recomputed), returning the enriched KB frozen for reading. Accepts
/// any [`KbView`] (a frozen KB or an overlay).
pub fn enrich_kb<K: KbView + ?Sized>(kb: &K, report: &EnrichmentReport) -> FrozenKb {
    let mut builder = KbBuilder::from_kb(kb);
    // Insert in sorted (entity, surface) order: keyphrase ids are assigned
    // in insertion order, so hash-map iteration order here would otherwise
    // leak into the enriched KB's id space and its snapshots.
    let mut entities: Vec<&EntityId> = report.harvested.keys().collect();
    entities.sort_unstable();
    for &entity in entities {
        let Some(phrases) = report.harvested.get(&entity) else { continue };
        let mut surfaces: Vec<&String> = phrases.keys().collect();
        surfaces.sort_unstable();
        for surface in surfaces {
            let Some(&count) = phrases.get(surface) else { continue };
            builder.add_keyphrase(entity, surface, count);
        }
    }
    FrozenKb::freeze(&builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confidence::{ConfAssessor, ConfidenceMethod};
    use ned_aida::AidaConfig;
    use ned_eval::gold::LabeledMention;
    use ned_kb::EntityKind;
    use ned_relatedness::MilneWitten;
    use ned_text::{tokenize, Mention};

    fn kb() -> FrozenKb {
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
        FrozenKb::freeze(&b.build())
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
        let enriched = enrich_kb(&kb, &report);
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
        let enriched = enrich_kb(&kb, &report);
        assert_eq!(enriched.entity_count(), kb.entity_count());
        assert_eq!(enriched.keyphrases(may).len(), kb.keyphrases(may).len());
        assert_eq!(enriched.candidates("May").len(), 1);
    }
}
