//! Entity-centric search: strings, things, and cats (§6.1).
//!
//! Documents are indexed along three dimensions:
//! - **strings**: their (non-stopword) words, scored tf·idf;
//! - **things**: the canonical entities a disambiguator assigned to their
//!   mentions — a query for the entity `Kashmir (song)` matches documents
//!   about the song regardless of the surface form used;
//! - **cats**: the semantic classes of those entities, so "all documents
//!   mentioning a *location* called Kashmir" is expressible.
//!
//! Scoring sums idf-weighted string matches with entity and category match
//! boosts; all query dimensions are conjunctive filters when marked
//! required.

use std::collections::HashMap;

use ned_kb::fx::FxHashMap;
use ned_kb::{EntityId, EntityKind, KbView};
use ned_obs::{names, Counter, Metrics};
use ned_text::stopwords::is_stopword;
use ned_text::{Token, TokenKind};

/// A search query mixing the three dimensions.
#[derive(Debug, Clone, Default)]
pub struct Query {
    /// Words that should occur ("strings").
    pub terms: Vec<String>,
    /// Entities that must have been disambiguated in the document
    /// ("things").
    pub entities: Vec<EntityId>,
    /// Entity classes at least one disambiguated entity must carry
    /// ("cats").
    pub kinds: Vec<EntityKind>,
}

impl Query {
    /// A pure string query.
    pub fn strings(terms: &[&str]) -> Self {
        Query { terms: terms.iter().map(|s| s.to_string()).collect(), ..Default::default() }
    }

    /// A pure entity query.
    pub fn things(entities: &[EntityId]) -> Self {
        Query { entities: entities.to_vec(), ..Default::default() }
    }
}

/// One ranked result.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// The document id given at indexing time.
    pub doc_id: String,
    /// Relevance score.
    pub score: f64,
}

#[derive(Debug, Default)]
struct DocRecord {
    id: String,
    /// Term frequencies over lowercased non-stopword words.
    term_freqs: FxHashMap<String, u32>,
    /// Disambiguated entity mention counts.
    entity_freqs: FxHashMap<EntityId, u32>,
    token_count: usize,
}

/// An entity suggestion for query auto-completion (§6.1.3).
#[derive(Debug, Clone, PartialEq)]
pub struct Suggestion {
    /// The suggested entity.
    pub entity: EntityId,
    /// Canonical display name.
    pub name: String,
    /// How many indexed documents mention the entity.
    pub document_count: u32,
}

/// The index over disambiguated documents.
///
/// Generic over the KB handle: pass `&FrozenKb` (or `&DeltaKb`) for the
/// borrowed style or (a clone of) an `Arc<FrozenKb>` for a fully owned
/// index that can move across threads.
pub struct EntityIndex<K> {
    kb: K,
    docs: Vec<DocRecord>,
    /// term → document indexes (for df).
    term_df: HashMap<String, u32>,
    queries: Counter,
    docs_returned: Counter,
}

// Manual Debug: the KB handle and per-document term maps would dump the
// whole collection.
impl<K> std::fmt::Debug for EntityIndex<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EntityIndex")
            .field("docs", &self.docs.len())
            .field("distinct_terms", &self.term_df.len())
            .finish_non_exhaustive()
    }
}

impl<K: KbView> EntityIndex<K> {
    /// Creates an empty index over `kb`.
    pub fn new(kb: K) -> Self {
        EntityIndex {
            kb,
            docs: Vec::new(),
            term_df: HashMap::new(),
            queries: Counter::disabled(),
            docs_returned: Counter::disabled(),
        }
    }

    /// Records query/result counters into `metrics` (builder style).
    #[must_use]
    pub fn with_metrics(mut self, metrics: &Metrics) -> Self {
        self.queries = metrics.counter(names::SEARCH_QUERIES);
        self.docs_returned = metrics.counter(names::SEARCH_DOCS_RETURNED);
        self
    }

    /// Number of indexed documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Indexes one document: its tokens plus the labels a disambiguator
    /// produced for its mentions (`None` labels — out-of-KB — are skipped).
    pub fn add_document(
        &mut self,
        doc_id: impl Into<String>,
        tokens: &[Token],
        labels: &[Option<EntityId>],
    ) {
        let mut record = DocRecord { id: doc_id.into(), token_count: tokens.len(), ..Default::default() };
        for t in tokens {
            let text = t.text.as_str();
            if t.kind != TokenKind::Word || is_stopword(text) {
                continue;
            }
            *record.term_freqs.entry(text.to_lowercase()).or_insert(0) += 1;
        }
        for term in record.term_freqs.keys() {
            *self.term_df.entry(term.clone()).or_insert(0) += 1;
        }
        for label in labels.iter().flatten() {
            *record.entity_freqs.entry(*label).or_insert(0) += 1;
        }
        self.docs.push(record);
    }

    /// Inverse document frequency of a term in the indexed collection.
    fn idf(&self, term: &str) -> f64 {
        let df = self.term_df.get(term).copied().unwrap_or(0);
        if df == 0 {
            return 0.0;
        }
        ((self.docs.len() as f64 + 1.0) / (df as f64)).ln()
    }

    /// Entity auto-completion: the `k` indexed entities whose canonical
    /// name or any dictionary surface starts with `prefix`
    /// (case-insensitively), ranked by how many documents mention them —
    /// the search application's query-completion use case (§6.1.3).
    pub fn suggest(&self, prefix: &str, k: usize) -> Vec<Suggestion> {
        if prefix.is_empty() {
            return Vec::new();
        }
        let prefix = prefix.to_lowercase();
        // Document counts per entity across the index.
        let mut doc_counts: FxHashMap<EntityId, u32> = FxHashMap::default();
        for doc in &self.docs {
            for &e in doc.entity_freqs.keys() {
                *doc_counts.entry(e).or_insert(0) += 1;
            }
        }
        // Candidate entities by name prefix (canonical names + surfaces).
        let mut matched: FxHashMap<EntityId, ()> = FxHashMap::default();
        for (surface, cands) in self.kb.dictionary().iter() {
            if surface.to_lowercase().starts_with(&prefix) {
                for c in cands {
                    matched.insert(c.entity, ());
                }
            }
        }
        let mut out: Vec<Suggestion> = matched
            .into_keys()
            .filter_map(|e| {
                let count = doc_counts.get(&e).copied().unwrap_or(0);
                (count > 0).then(|| Suggestion {
                    entity: e,
                    name: self.kb.entity(e).canonical_name.clone(),
                    document_count: count,
                })
            })
            .collect();
        out.sort_by(|a, b| b.document_count.cmp(&a.document_count).then(a.name.cmp(&b.name)));
        out.truncate(k);
        out
    }

    /// Runs a query, returning the top `k` hits by descending score.
    ///
    /// Entity and kind constraints are conjunctive filters; string terms
    /// contribute tf·idf scores (documents matching no term at all still
    /// qualify if entity/kind constraints matched).
    pub fn search(&self, query: &Query, k: usize) -> Vec<SearchHit> {
        self.queries.inc();
        let mut hits: Vec<SearchHit> = self
            .docs
            .iter()
            .filter_map(|doc| {
                // Things: every requested entity must be present.
                if !query.entities.iter().all(|e| doc.entity_freqs.contains_key(e)) {
                    return None;
                }
                // Cats: at least one entity of each requested kind.
                for kind in &query.kinds {
                    let any = doc
                        .entity_freqs
                        .keys()
                        .any(|&e| self.kb.entity(e).kind == *kind);
                    if !any {
                        return None;
                    }
                }
                let mut score = 0.0;
                let mut matched_any_term = query.terms.is_empty();
                for term in &query.terms {
                    let term = term.to_lowercase();
                    if let Some(&tf) = doc.term_freqs.get(&term) {
                        matched_any_term = true;
                        let norm = (doc.token_count.max(1)) as f64;
                        score += (1.0 + f64::from(tf).ln()) * self.idf(&term)
                            / norm.ln().max(1.0);
                    }
                }
                if !matched_any_term && query.entities.is_empty() && query.kinds.is_empty() {
                    return None;
                }
                if !matched_any_term {
                    // Pure entity/kind query: score by entity mention mass.
                    score = 0.0;
                }
                // Entity boost: mentions of requested entities.
                for e in &query.entities {
                    let freq = doc.entity_freqs.get(e).copied().unwrap_or(0);
                    score += 2.0 * f64::from(freq);
                }
                (score > 0.0 || !query.entities.is_empty() || !query.kinds.is_empty())
                    .then(|| SearchHit { doc_id: doc.id.clone(), score })
            })
            .collect();
        hits.sort_by(|a, b| {
            b.score.total_cmp(&a.score).then(a.doc_id.cmp(&b.doc_id))
        });
        hits.truncate(k);
        self.docs_returned.add(hits.len() as u64);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ned_kb::{EntityKind, FrozenKb, KbBuilder};
    use ned_text::tokenize;

    fn kb() -> FrozenKb {
        let mut b = KbBuilder::new();
        let song = b.add_entity("Kashmir (song)", EntityKind::Work);
        let region = b.add_entity("Kashmir (region)", EntityKind::Location);
        b.add_name(song, "Kashmir", 1);
        b.add_name(region, "Kashmir", 1);
        FrozenKb::freeze(&b.build())
    }

    fn index(kb: &FrozenKb) -> EntityIndex<&FrozenKb> {
        let song = kb.entity_by_name("Kashmir (song)").unwrap();
        let region = kb.entity_by_name("Kashmir (region)").unwrap();
        let mut idx = EntityIndex::new(kb);
        let t1 = tokenize("the band performed Kashmir live with heavy guitars");
        idx.add_document("music-doc", &t1, &[Some(song)]);
        let t2 = tokenize("tensions rose in the Kashmir valley region today");
        idx.add_document("news-doc", &t2, &[Some(region)]);
        let t3 = tokenize("a travel guide without any entities mentioning guitars");
        idx.add_document("other-doc", &t3, &[None]);
        idx
    }

    #[test]
    fn string_query_ranks_by_tfidf() {
        let kb = kb();
        let idx = index(&kb);
        let hits = idx.search(&Query::strings(&["guitars"]), 10);
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().any(|h| h.doc_id == "music-doc"));
    }

    #[test]
    fn thing_query_disambiguates_the_surface() {
        let kb = kb();
        let idx = index(&kb);
        // Both documents contain the word "Kashmir", but only one contains
        // the *song* entity.
        let song = kb.entity_by_name("Kashmir (song)").unwrap();
        let hits = idx.search(&Query::things(&[song]), 10);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc_id, "music-doc");
    }

    #[test]
    fn cat_query_filters_by_kind() {
        let kb = kb();
        let idx = index(&kb);
        let hits = idx.search(
            &Query { kinds: vec![EntityKind::Location], ..Default::default() },
            10,
        );
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc_id, "news-doc");
    }

    #[test]
    fn combined_query_is_conjunctive() {
        let kb = kb();
        let idx = index(&kb);
        let song = kb.entity_by_name("Kashmir (song)").unwrap();
        let q = Query {
            terms: vec!["guitars".into()],
            entities: vec![song],
            kinds: vec![],
        };
        let hits = idx.search(&q, 10);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc_id, "music-doc");
        // Conflicting constraints match nothing.
        let q = Query { entities: vec![song], kinds: vec![EntityKind::Location], ..Default::default() };
        assert!(idx.search(&q, 10).is_empty());
    }

    #[test]
    fn suggestions_complete_prefixes() {
        let kb = kb();
        let idx = index(&kb);
        // "Kash" completes to both Kashmir senses, but only the mentioned
        // ones are suggested, ranked by document count.
        let suggestions = idx.suggest("Kash", 10);
        assert_eq!(suggestions.len(), 2, "{suggestions:?}");
        for s in &suggestions {
            assert!(s.name.starts_with("Kashmir"));
            assert_eq!(s.document_count, 1);
        }
        // Case-insensitive; empty prefix suggests nothing.
        assert_eq!(idx.suggest("kashm", 10).len(), 2);
        assert!(idx.suggest("", 10).is_empty());
        assert!(idx.suggest("Zzz", 10).is_empty());
        // Truncation.
        assert_eq!(idx.suggest("Kash", 1).len(), 1);
    }

    #[test]
    fn empty_query_matches_nothing() {
        let kb = kb();
        let idx = index(&kb);
        assert!(idx.search(&Query::default(), 10).is_empty());
    }

    #[test]
    fn query_counters_accumulate() {
        use ned_obs::{names, Metrics};
        let kb = kb();
        let metrics = Metrics::new();
        let song = kb.entity_by_name("Kashmir (song)").unwrap();
        let idx = {
            let mut idx = EntityIndex::new(&kb).with_metrics(&metrics);
            let t1 = tokenize("the band performed Kashmir live with heavy guitars");
            idx.add_document("music-doc", &t1, &[Some(song)]);
            idx
        };
        idx.search(&Query::strings(&["guitars"]), 10);
        idx.search(&Query::strings(&["nothing-matches-this"]), 10);
        assert_eq!(metrics.counter_value(names::SEARCH_QUERIES), 2);
        assert_eq!(metrics.counter_value(names::SEARCH_DOCS_RETURNED), 1);
    }

    #[test]
    fn top_k_truncation() {
        let kb = kb();
        let idx = index(&kb);
        let hits = idx.search(&Query::strings(&["guitars"]), 1);
        assert_eq!(hits.len(), 1);
    }
}
