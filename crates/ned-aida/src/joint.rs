//! Joint entity recognition and disambiguation (the §7.2.1 outlook, in the
//! spirit of Milne & Witten's "disambiguation confidence decides whether a
//! phrase is a mention", §2.2.2).
//!
//! The plain pipeline recognizes mentions first and disambiguates second —
//! so a spurious NER span ("Record" at sentence start) gets force-mapped to
//! some entity. The joint annotator instead treats recognition as
//! *tentative*: candidate spans come from the rule NER plus a
//! dictionary-driven gazetteer, everything is disambiguated jointly, and
//! spans whose best assignment is weak are dropped again.

use ned_core::DegradationLevel;
use ned_kb::{EntityId, KbView};
use ned_relatedness::Relatedness;
use ned_text::{tokenize, Mention, NerConfig, Recognizer, Token};

use crate::disambiguator::Disambiguator;
use crate::method::NedMethod;
use crate::result::MentionAssignment;

/// One accepted annotation: a mention span, its entity, and the
/// annotator's confidence.
#[derive(Debug, Clone, PartialEq)]
pub struct Annotation {
    /// The recognized mention.
    pub mention: Mention,
    /// The linked entity (annotations are only emitted for linkable spans).
    pub entity: EntityId,
    /// Normalized confidence of the assignment.
    pub confidence: f64,
}

/// Configuration of the joint annotator.
#[derive(Debug, Clone)]
pub struct JointConfig {
    /// Recognition rules.
    pub ner: NerConfig,
    /// Minimum normalized confidence for a span to survive.
    pub min_confidence: f64,
    /// Also propose spans found only via the dictionary gazetteer.
    pub use_gazetteer: bool,
}

impl Default for JointConfig {
    fn default() -> Self {
        JointConfig { ner: NerConfig::default(), min_confidence: 0.35, use_gazetteer: true }
    }
}

impl JointConfig {
    /// Builds the tentative-span recognizer this config describes: the rule
    /// NER plus (when `use_gazetteer` is set) every dictionary surface as a
    /// recognition hint.
    ///
    /// Building the gazetteer walks the whole dictionary, so callers that
    /// serve many requests (the `ned-serve` worker loop) build one
    /// recognizer up front and reuse it across requests.
    pub fn build_recognizer<K: KbView>(&self, kb: &K) -> Recognizer {
        let mut recognizer = Recognizer::new(self.ner.clone());
        if self.use_gazetteer {
            for (surface, _) in kb.dictionary().iter() {
                recognizer.add_gazetteer_entry(surface);
            }
        }
        recognizer
    }

    /// The acceptance filter: keeps a span when it is linkable and either
    /// unambiguous or confident enough (§2.2.2's recognize-via-
    /// disambiguation idea).
    fn accept(&self, mention: Mention, assignment: MentionAssignment) -> Option<Annotation> {
        let entity = assignment.entity?;
        let confidence = assignment.normalized_score();
        if assignment.candidate_scores.len() > 1 && confidence < self.min_confidence {
            return None;
        }
        Some(Annotation { mention, entity, confidence })
    }

    /// The joint step after recognition: disambiguates the tentative
    /// `mentions` of `tokens` together and keeps the accepted ones.
    /// Returns the annotations and the degradation level the disambiguator
    /// reported ([`DegradationLevel::None`], without disambiguating, when
    /// there are no mentions).
    ///
    /// [`JointAnnotator`] calls it with its own disambiguator; the serving
    /// layer calls it with a disambiguator rebuilt per request under the
    /// request's deadline plan, sharing one recognizer across requests.
    pub fn link<K: KbView, R: Relatedness>(
        &self,
        disambiguator: &Disambiguator<K, R>,
        tokens: &[Token],
        mentions: Vec<Mention>,
    ) -> (Vec<Annotation>, DegradationLevel) {
        if mentions.is_empty() {
            return (Vec::new(), DegradationLevel::None);
        }
        let result = disambiguator.disambiguate(tokens, &mentions);
        let annotations = mentions
            .into_iter()
            .zip(result.assignments)
            .filter_map(|(mention, assignment)| self.accept(mention, assignment))
            .collect();
        (annotations, result.degradation)
    }
}

/// End-to-end annotator: raw text in, linked entity annotations out.
pub struct JointAnnotator<'a, K, R> {
    disambiguator: &'a Disambiguator<K, R>,
    recognizer: Recognizer,
    config: JointConfig,
}

// Manual Debug: `R` need not be Debug.
impl<K, R> std::fmt::Debug for JointAnnotator<'_, K, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JointAnnotator")
            .field("recognizer", &self.recognizer)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl<'a, K: KbView, R: Relatedness> JointAnnotator<'a, K, R> {
    /// Creates an annotator; when `use_gazetteer` is set, every dictionary
    /// surface becomes a recognition hint.
    pub fn new(disambiguator: &'a Disambiguator<K, R>, config: JointConfig) -> Self {
        let recognizer = config.build_recognizer(disambiguator.kb());
        JointAnnotator { disambiguator, recognizer, config }
    }

    /// The knowledge base handle in use.
    pub fn kb(&self) -> &K {
        self.disambiguator.kb()
    }

    /// Annotates raw text: tokenize → recognize tentative spans →
    /// disambiguate jointly → keep confident, linkable spans.
    pub fn annotate(&self, text: &str) -> (Vec<Token>, Vec<Annotation>) {
        let tokens = tokenize(text);
        let annotations = self.annotate_tokens(&tokens);
        (tokens, annotations)
    }

    /// Annotates a pre-tokenized document.
    pub fn annotate_tokens(&self, tokens: &[Token]) -> Vec<Annotation> {
        let mentions = self.recognizer.recognize(tokens);
        self.config.link(self.disambiguator, tokens, mentions).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AidaConfig;
    use ned_kb::{EntityKind, FrozenKb, KbBuilder};
    use ned_relatedness::MilneWitten;

    fn kb() -> FrozenKb {
        let mut b = KbBuilder::new();
        let song = b.add_entity("Kashmir (song)", EntityKind::Work);
        let jimmy = b.add_entity("Jimmy Page", EntityKind::Person);
        let larry = b.add_entity("Larry Page", EntityKind::Person);
        b.add_name(song, "Kashmir", 10);
        b.add_name(jimmy, "Page", 50);
        b.add_name(larry, "Page", 50);
        b.add_keyphrase(song, "unusual chords", 3);
        b.add_keyphrase(jimmy, "unusual chords", 2);
        b.add_keyphrase(jimmy, "session guitarist", 2);
        b.add_keyphrase(larry, "search engine", 3);
        b.add_link(jimmy, song);
        b.add_link(song, jimmy);
        FrozenKb::freeze(&b.build())
    }

    #[test]
    fn annotates_linkable_spans_end_to_end() {
        let kb = kb();
        let aida = Disambiguator::new(&kb, MilneWitten::new(&kb), AidaConfig::sim_only());
        let annotator = JointAnnotator::new(&aida, JointConfig::default());
        let (_tokens, annotations) =
            annotator.annotate("They performed Kashmir with unusual chords, said Page.");
        let surfaces: Vec<&str> =
            annotations.iter().map(|a| a.mention.surface.as_str()).collect();
        assert!(surfaces.contains(&"Kashmir"), "{surfaces:?}");
        assert!(surfaces.contains(&"Page"), "{surfaces:?}");
        let page = annotations.iter().find(|a| a.mention.surface == "Page").unwrap();
        assert_eq!(kb.entity(page.entity).canonical_name, "Jimmy Page");
    }

    #[test]
    fn unlinkable_spans_are_dropped() {
        let kb = kb();
        let aida = Disambiguator::new(&kb, MilneWitten::new(&kb), AidaConfig::sim_only());
        let annotator = JointAnnotator::new(&aida, JointConfig::default());
        // "Snowden" is recognized by the NER but has no dictionary entry.
        let (_t, annotations) = annotator.annotate("Kashmir was revealed by Wulkor Snowden.");
        assert!(annotations.iter().all(|a| a.mention.surface != "Wulkor Snowden"));
    }

    #[test]
    fn weak_ambiguous_spans_are_dropped_by_confidence() {
        let kb = kb();
        let aida = Disambiguator::new(&kb, MilneWitten::new(&kb), AidaConfig::sim_only());
        let strict = JointConfig { min_confidence: 0.99, ..JointConfig::default() };
        let annotator = JointAnnotator::new(&aida, strict);
        // No context at all: "Page" is a 50/50 coin flip → dropped.
        let (_t, annotations) = annotator.annotate("We met Page yesterday.");
        assert!(annotations.iter().all(|a| a.mention.surface != "Page"), "{annotations:?}");
    }

    #[test]
    fn gazetteer_recovers_uncapitalized_context_spans() {
        let kb = kb();
        let aida = Disambiguator::new(&kb, MilneWitten::new(&kb), AidaConfig::sim_only());
        let annotator = JointAnnotator::new(&aida, JointConfig::default());
        // Sentence-initial "Kashmir" would need NER evidence; the gazetteer
        // proposes it and disambiguation confirms it.
        let (_t, annotations) = annotator.annotate("Kashmir has unusual chords throughout.");
        assert!(annotations.iter().any(|a| a.mention.surface == "Kashmir"));
    }

    #[test]
    fn empty_text() {
        let kb = kb();
        let aida = Disambiguator::new(&kb, MilneWitten::new(&kb), AidaConfig::sim_only());
        let annotator = JointAnnotator::new(&aida, JointConfig::default());
        let (tokens, annotations) = annotator.annotate("");
        assert!(tokens.is_empty());
        assert!(annotations.is_empty());
    }
}
