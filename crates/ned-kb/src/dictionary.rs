//! The name dictionary D ⊂ (N × E) of §2.2.1.
//!
//! For each surface name the dictionary stores the candidate entities it can
//! refer to, together with anchor counts: how often the name was observed
//! linking to that entity. Anchor counts induce the popularity prior of
//! §3.3.3. Lookup follows the case rules of §3.3.2 via
//! [`ned_text::normalize::match_key`].

use ned_text::normalize::{match_key, squash_whitespace};

use crate::fx::FxHashMap;
use crate::ids::EntityId;

/// A candidate entity for a name, with its anchor count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The candidate entity.
    pub entity: EntityId,
    /// How often the name was observed referring to this entity.
    pub count: u64,
}

/// Name → candidate-set dictionary with popularity priors.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    /// Keyed by `match_key` of the squashed surface form.
    entries: FxHashMap<String, Vec<Candidate>>,
    /// Total number of (name, entity) pairs.
    pair_count: usize,
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or increments) a name → entity observation.
    pub fn add(&mut self, name: &str, entity: EntityId, count: u64) {
        let key = match_key(&squash_whitespace(name));
        let list = self.entries.entry(key).or_default();
        match list.iter_mut().find(|c| c.entity == entity) {
            Some(c) => c.count += count,
            None => {
                list.push(Candidate { entity, count });
                self.pair_count += 1;
            }
        }
    }

    /// Candidate entities for a mention surface, or an empty slice when the
    /// name is unknown (the mention is then trivially out-of-KB, §2.2.1).
    pub fn candidates(&self, surface: &str) -> &[Candidate] {
        let key = match_key(&squash_whitespace(surface));
        self.entries.get(&key).map_or(&[], |v| v.as_slice())
    }

    /// Popularity prior p(e | name): the candidate's share of the name's
    /// total anchor count (§3.3.3). Returns 0 if the pair is unknown.
    pub fn prior(&self, surface: &str, entity: EntityId) -> f64 {
        let cands = self.candidates(surface);
        let total: u64 = cands.iter().map(|c| c.count).sum();
        if total == 0 {
            return 0.0;
        }
        cands
            .iter()
            .find(|c| c.entity == entity)
            .map_or(0.0, |c| c.count as f64 / total as f64)
    }

    /// Number of distinct names.
    pub fn name_count(&self) -> usize {
        self.entries.len()
    }

    /// Number of (name, entity) pairs.
    pub fn pair_count(&self) -> usize {
        self.pair_count
    }

    /// Iterates over all (name-key, candidates) entries in ascending key
    /// order, so downstream consumers (snapshot writer, index builder,
    /// autocomplete) observe the same sequence on every run regardless of
    /// the hasher's bucket layout.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[Candidate])> {
        let mut keys: Vec<&String> = self.entries.keys().collect();
        keys.sort_unstable();
        keys.into_iter().filter_map(|k| {
            self.entries.get(k).map(|v| (k.as_str(), v.as_slice()))
        })
    }

    /// Inserts a full candidate row under an **already-normalized** key
    /// (the thaw of the test-only reference in `crate::delta`): frozen
    /// dictionary keys went through `match_key` once at build time and must
    /// not be re-normalized.
    #[cfg(test)]
    pub(crate) fn insert_row(&mut self, key: String, cands: Vec<Candidate>) {
        self.pair_count += cands.len();
        self.entries.insert(key, cands);
    }

    /// Sorts every candidate list by descending count (stable order for
    /// deterministic iteration). Called once at build time.
    pub(crate) fn finalize(&mut self) {
        for list in self.entries.values_mut() {
            list.sort_by(|a, b| b.count.cmp(&a.count).then(a.entity.cmp(&b.entity)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    #[test]
    fn add_and_lookup() {
        let mut d = Dictionary::new();
        d.add("Kashmir", e(0), 50);
        d.add("Kashmir", e(1), 3);
        let c = d.candidates("Kashmir");
        assert_eq!(c.len(), 2);
        assert_eq!(d.pair_count(), 2);
    }

    #[test]
    fn lookup_follows_case_rules() {
        let mut d = Dictionary::new();
        d.add("Apple", e(0), 10);
        d.add("US", e(1), 10);
        // Long names: case-insensitive.
        assert_eq!(d.candidates("APPLE").len(), 1);
        assert_eq!(d.candidates("apple").len(), 1);
        // Short names: case-sensitive.
        assert_eq!(d.candidates("US").len(), 1);
        assert!(d.candidates("us").is_empty());
    }

    #[test]
    fn duplicate_adds_accumulate() {
        let mut d = Dictionary::new();
        d.add("Page", e(0), 5);
        d.add("Page", e(0), 7);
        assert_eq!(d.candidates("Page")[0].count, 12);
        assert_eq!(d.pair_count(), 1);
    }

    #[test]
    fn prior_is_normalized() {
        let mut d = Dictionary::new();
        d.add("Kashmir", e(0), 90);
        d.add("Kashmir", e(1), 10);
        assert!((d.prior("Kashmir", e(0)) - 0.9).abs() < 1e-12);
        assert!((d.prior("Kashmir", e(1)) - 0.1).abs() < 1e-12);
        assert_eq!(d.prior("Kashmir", e(2)), 0.0);
        assert_eq!(d.prior("Unknown", e(0)), 0.0);
        let frozen = crate::frozen::FrozenDictionary::from_rows(d.iter(), d.pair_count());
        let dist = frozen.prior_distribution("Kashmir");
        let sum: f64 = dist.iter().map(|(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn whitespace_is_squashed() {
        let mut d = Dictionary::new();
        d.add("New  York", e(0), 1);
        assert_eq!(d.candidates("New York").len(), 1);
    }

    #[test]
    fn finalize_sorts_by_count_desc() {
        let mut d = Dictionary::new();
        d.add("Page", e(0), 1);
        d.add("Page", e(1), 100);
        d.finalize();
        assert_eq!(d.candidates("Page")[0].entity, e(1));
    }
}
