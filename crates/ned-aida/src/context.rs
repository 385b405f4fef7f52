//! Mention-context extraction (§3.3.4).
//!
//! "On the mention side, we use all tokens in the entire input text (except
//! stopwords and the mention itself) as context." The context is interned
//! against the knowledge base's keyword vocabulary; tokens unknown to the KB
//! cannot match any keyphrase and are dropped.

use ned_kb::{KbView, WordId};
use ned_text::stopwords::is_stopword;
use ned_text::{Mention, Token, TokenKind};

/// The document context: every non-stopword word token with its position,
/// interned as KB keywords.
#[derive(Debug, Clone, Default)]
pub struct DocumentContext {
    /// (token position, keyword id), sorted by position.
    pub words: Vec<(usize, WordId)>,
}

impl DocumentContext {
    /// Builds the context of a whole document.
    pub fn build<K: KbView + ?Sized>(kb: &K, tokens: &[Token]) -> Self {
        let words = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind == TokenKind::Word && !is_stopword(&t.text))
            .filter_map(|(i, t)| kb.word_id(&t.text).map(|w| (i, w)))
            .collect();
        DocumentContext { words }
    }

    /// The context of one mention: the document context minus the mention's
    /// own tokens.
    pub fn for_mention(&self, mention: &Mention) -> Vec<(usize, WordId)> {
        self.words
            .iter()
            .copied()
            .filter(|&(pos, _)| !mention.covers(pos))
            .collect()
    }

    /// Number of context words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when the document has no usable context.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ned_kb::{EntityKind, FrozenKb, KbBuilder};
    use ned_text::tokenize;

    fn kb() -> FrozenKb {
        let mut b = KbBuilder::new();
        let e = b.add_entity("Jimmy Page", EntityKind::Person);
        b.add_keyphrase(e, "hard rock chords", 1);
        b.add_keyphrase(e, "Gibson guitar", 1);
        FrozenKb::freeze(&b.build())
    }

    #[test]
    fn keeps_known_content_words_with_positions() {
        let kb = kb();
        let tokens = tokenize("Page played unusual chords on his Gibson.");
        let ctx = DocumentContext::build(&kb, &tokens);
        let words: Vec<&str> = ctx.words.iter().map(|&(_, w)| kb.word_text(w)).collect();
        assert_eq!(words, vec!["chords", "gibson"]);
        // Positions point at the original tokens.
        assert_eq!(tokens[ctx.words[0].0].text, "chords");
    }

    #[test]
    fn drops_stopwords_and_unknown_words() {
        let kb = kb();
        let tokens = tokenize("on his the unusual");
        let ctx = DocumentContext::build(&kb, &tokens);
        assert!(ctx.is_empty());
    }

    #[test]
    fn mention_tokens_are_excluded_from_its_context() {
        let kb = kb();
        let tokens = tokenize("Gibson chords Gibson");
        let ctx = DocumentContext::build(&kb, &tokens);
        assert_eq!(ctx.len(), 3);
        let m = Mention::new("Gibson", 0, 1);
        let mention_ctx = ctx.for_mention(&m);
        assert_eq!(mention_ctx.len(), 2);
        assert!(mention_ctx.iter().all(|&(pos, _)| pos != 0));
    }
}
