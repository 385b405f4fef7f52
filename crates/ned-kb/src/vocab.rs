//! String interning for keywords and keyphrases.
//!
//! Keyphrases (§4.3.1) are sequences of keywords; both are interned so that
//! all downstream computation works on dense `u32` ids. Interning is
//! case-insensitive for keywords: "Guitarist" and "guitarist" are the same
//! keyword, matching how the paper compares keyphrase tokens against input
//! text tokens.

use ned_core::NedError;

use crate::fx::FxHashMap;
use crate::ids::{PhraseId, WordId};

/// Interner for single keywords.
#[derive(Debug, Default, Clone)]
pub struct WordInterner {
    words: Vec<String>,
    index: FxHashMap<String, WordId>,
}

impl WordInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `word` (lowercased) and returns its id.
    pub fn intern(&mut self, word: &str) -> WordId {
        let key = word.to_lowercase();
        if let Some(&id) = self.index.get(&key) {
            return id;
        }
        let id = WordId::from_index(self.words.len());
        self.words.push(key.clone());
        self.index.insert(key, id);
        id
    }

    /// Looks up an already-interned word without inserting.
    pub fn get(&self, word: &str) -> Option<WordId> {
        let key = word.to_lowercase();
        self.index.get(&key).copied()
    }

    /// Returns the lowercased text of an interned word, or `""` for an id
    /// this interner never issued (total — use [`WordInterner::try_text`]
    /// to surface unknown ids as errors).
    pub fn text(&self, id: WordId) -> &str {
        self.words.get(id.index()).map_or("", String::as_str)
    }

    /// Returns the lowercased text of an interned word, reporting an id
    /// this interner never issued as [`NedError::Lookup`].
    pub fn try_text(&self, id: WordId) -> Result<&str, NedError> {
        self.words.get(id.index()).map(String::as_str).ok_or_else(|| NedError::Lookup {
            what: "word id",
            key: id.index().to_string(),
        })
    }

    /// Number of distinct words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if no words are interned.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Reconstructs an interner from already-lowercased words in id order
    /// (the thaw of the test-only reference in `crate::delta`): word `i`
    /// keeps id `i`.
    #[cfg(test)]
    pub(crate) fn from_words(words: Vec<String>) -> Self {
        let index = words.iter().enumerate().map(|(i, w)| (w.clone(), WordId::from_index(i)));
        WordInterner { index: index.collect(), words }
    }
}

/// Interner for keyphrases (word-id sequences).
///
/// Two phrases with the same word sequence share a [`PhraseId`]; the original
/// surface string of the first occurrence is kept for display.
#[derive(Debug, Default, Clone)]
pub struct PhraseInterner {
    phrases: Vec<Vec<WordId>>,
    surfaces: Vec<String>,
    index: FxHashMap<Vec<WordId>, PhraseId>,
}

impl PhraseInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a phrase given as a surface string; words are split on
    /// whitespace and interned through `words`.
    pub fn intern(&mut self, surface: &str, words: &mut WordInterner) -> PhraseId {
        let word_ids: Vec<WordId> = surface.split_whitespace().map(|w| words.intern(w)).collect();
        assert!(!word_ids.is_empty(), "keyphrase must contain at least one word");
        if let Some(&id) = self.index.get(&word_ids) {
            return id;
        }
        let id = PhraseId::from_index(self.phrases.len());
        self.index.insert(word_ids.clone(), id);
        self.phrases.push(word_ids);
        self.surfaces.push(surface.to_string());
        id
    }

    /// Looks up a phrase without inserting.
    pub fn get(&self, surface: &str, words: &WordInterner) -> Option<PhraseId> {
        let word_ids: Option<Vec<WordId>> =
            surface.split_whitespace().map(|w| words.get(w)).collect();
        self.index.get(&word_ids?).copied()
    }

    /// Word-id sequence of the phrase, or `&[]` for an id this interner
    /// never issued (total — use [`PhraseInterner::try_words`] to surface
    /// unknown ids as errors).
    pub fn words(&self, id: PhraseId) -> &[WordId] {
        self.phrases.get(id.index()).map_or(&[], Vec::as_slice)
    }

    /// Word-id sequence of the phrase, reporting an id this interner never
    /// issued as [`NedError::Lookup`].
    pub fn try_words(&self, id: PhraseId) -> Result<&[WordId], NedError> {
        self.phrases.get(id.index()).map(Vec::as_slice).ok_or_else(|| NedError::Lookup {
            what: "phrase id",
            key: id.index().to_string(),
        })
    }

    /// Original surface text of the phrase, or `""` for an id this
    /// interner never issued (total — use [`PhraseInterner::try_surface`]
    /// to surface unknown ids as errors).
    pub fn surface(&self, id: PhraseId) -> &str {
        self.surfaces.get(id.index()).map_or("", String::as_str)
    }

    /// Original surface text of the phrase, reporting an id this interner
    /// never issued as [`NedError::Lookup`].
    pub fn try_surface(&self, id: PhraseId) -> Result<&str, NedError> {
        self.surfaces.get(id.index()).map(String::as_str).ok_or_else(|| NedError::Lookup {
            what: "phrase id",
            key: id.index().to_string(),
        })
    }

    /// Number of distinct phrases.
    pub fn len(&self) -> usize {
        self.phrases.len()
    }

    /// True if no phrases are interned.
    pub fn is_empty(&self) -> bool {
        self.phrases.is_empty()
    }

    /// Reconstructs an interner from parallel phrase/surface rows in id
    /// order (the thaw of the test-only reference in `crate::delta`):
    /// phrase `i` keeps id `i`.
    #[cfg(test)]
    pub(crate) fn from_parts(phrases: Vec<Vec<WordId>>, surfaces: Vec<String>) -> Self {
        let index = phrases.iter().enumerate().map(|(i, p)| (p.clone(), PhraseId::from_index(i)));
        PhraseInterner { index: index.collect(), phrases, surfaces }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_interning_is_case_insensitive() {
        let mut w = WordInterner::new();
        let a = w.intern("Guitarist");
        let b = w.intern("guitarist");
        assert_eq!(a, b);
        assert_eq!(w.text(a), "guitarist");
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn distinct_words_get_distinct_ids() {
        let mut w = WordInterner::new();
        assert_ne!(w.intern("rock"), w.intern("guitarist"));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn phrase_interning_dedupes_by_word_sequence() {
        let mut w = WordInterner::new();
        let mut p = PhraseInterner::new();
        let a = p.intern("English rock guitarist", &mut w);
        let b = p.intern("english ROCK guitarist", &mut w);
        assert_eq!(a, b);
        assert_eq!(p.words(a).len(), 3);
        assert_eq!(p.surface(a), "English rock guitarist");
    }

    #[test]
    fn phrase_get_without_insert() {
        let mut w = WordInterner::new();
        let mut p = PhraseInterner::new();
        let id = p.intern("hard rock", &mut w);
        assert_eq!(p.get("hard rock", &w), Some(id));
        assert_eq!(p.get("soft rock", &w), None);
        assert_eq!(p.len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one word")]
    fn empty_phrase_panics() {
        let mut w = WordInterner::new();
        let mut p = PhraseInterner::new();
        p.intern("   ", &mut w);
    }

    #[test]
    fn accessors_are_total_on_unknown_ids() {
        let mut w = WordInterner::new();
        let mut p = PhraseInterner::new();
        w.intern("rock");
        p.intern("hard rock", &mut w);
        let bad_word = WordId::from_index(99);
        let bad_phrase = PhraseId::from_index(99);
        assert_eq!(w.text(bad_word), "");
        assert_eq!(p.words(bad_phrase), &[] as &[WordId]);
        assert_eq!(p.surface(bad_phrase), "");
    }

    #[test]
    fn try_accessors_report_typed_lookup_errors() {
        let mut w = WordInterner::new();
        let mut p = PhraseInterner::new();
        let wid = w.intern("rock");
        let pid = p.intern("hard rock", &mut w);
        assert_eq!(w.try_text(wid).unwrap(), "rock");
        assert_eq!(p.try_words(pid).unwrap().len(), 2);
        assert_eq!(p.try_surface(pid).unwrap(), "hard rock");
        let err = w.try_text(WordId::from_index(99)).unwrap_err();
        assert!(matches!(err, NedError::Lookup { what: "word id", .. }), "{err}");
        let err = p.try_words(PhraseId::from_index(99)).unwrap_err();
        assert!(matches!(err, NedError::Lookup { what: "phrase id", .. }), "{err}");
        let err = p.try_surface(PhraseId::from_index(99)).unwrap_err();
        assert!(err.to_string().contains("phrase id"), "{err}");
    }

    #[test]
    fn thawed_interners_restore_lookup() {
        let mut w = WordInterner::new();
        let mut p = PhraseInterner::new();
        let id = p.intern("session guitarist", &mut w);
        let w2 = WordInterner::from_words(w.words.clone());
        let p2 = PhraseInterner::from_parts(p.phrases.clone(), p.surfaces.clone());
        assert_eq!(w2.get("session"), w.get("session"));
        assert_eq!(p2.get("session guitarist", &w2), Some(id));
    }
}
