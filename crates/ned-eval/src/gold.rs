//! Gold-standard document types shared by the corpus generator, the
//! disambiguators, and the evaluation measures.

use std::fmt;

use ned_kb::EntityId;
use ned_text::{Mention, Token};

/// The label of a mention: a knowledge-base entity, or `None` for an
/// out-of-knowledge-base (emerging) entity (§2.2.1: "OOE").
pub type Label = Option<EntityId>;

/// A mention together with its gold or predicted label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledMention {
    /// The mention span and surface.
    pub mention: Mention,
    /// The label; `None` means out-of-KB.
    pub label: Label,
}

/// A gold-annotated document: tokens plus labeled mentions, with an
/// optional timestamp (day index) for news-stream experiments (Ch. 5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldDoc {
    /// Stable document identifier.
    pub id: String,
    /// Tokenized text.
    pub tokens: Vec<Token>,
    /// Gold-labeled mentions, sorted by position, non-overlapping.
    pub mentions: Vec<LabeledMention>,
    /// Day index within a news stream; 0 for timeless corpora.
    pub day: u32,
}

/// A mention span that breaks the invariants of a [`GoldDoc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanError {
    /// Mention `index` starts before the previous mention ends.
    Unsorted {
        /// Position of the mention in the document's mention list.
        index: usize,
    },
    /// Mention `index` covers no token (`token_start >= token_end`).
    Empty {
        /// Position of the mention in the document's mention list.
        index: usize,
    },
    /// Mention `index` ends past the document's last token.
    OutOfRange {
        /// Position of the mention in the document's mention list.
        index: usize,
    },
}

impl fmt::Display for SpanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanError::Unsorted { index } => {
                write!(f, "mentions must be sorted and non-overlapping (mention {index})")
            }
            SpanError::Empty { index } => write!(f, "mention {index} covers no token"),
            SpanError::OutOfRange { index } => write!(f, "mention {index} out of token range"),
        }
    }
}

impl std::error::Error for SpanError {}

impl GoldDoc {
    /// Creates a document and checks its mention spans.
    ///
    /// # Panics
    /// Panics when [`GoldDoc::validate`] rejects the spans.
    pub fn new(
        id: impl Into<String>,
        tokens: Vec<Token>,
        mentions: Vec<LabeledMention>,
        day: u32,
    ) -> Self {
        let doc = GoldDoc { id: id.into(), tokens, mentions, day };
        if let Err(e) = doc.validate() {
            panic!("{e}");
        }
        doc
    }

    /// Checks the mention spans: each covers at least one token inside the
    /// document, and they are sorted and non-overlapping. Documents built
    /// with [`GoldDoc::new`] pass; decoded ones must be checked.
    pub fn validate(&self) -> Result<(), SpanError> {
        let mut prev_end = 0;
        for (index, lm) in self.mentions.iter().enumerate() {
            let m = &lm.mention;
            if m.token_start < prev_end {
                return Err(SpanError::Unsorted { index });
            }
            if m.token_start >= m.token_end {
                return Err(SpanError::Empty { index });
            }
            if m.token_end > self.tokens.len() {
                return Err(SpanError::OutOfRange { index });
            }
            prev_end = m.token_end;
        }
        Ok(())
    }

    /// The bare mentions, without labels (input to a disambiguator).
    pub fn bare_mentions(&self) -> Vec<Mention> {
        self.mentions.iter().map(|m| m.mention.clone()).collect()
    }

    /// The gold labels, parallel to [`Self::bare_mentions`].
    pub fn gold_labels(&self) -> Vec<Label> {
        self.mentions.iter().map(|m| m.label).collect()
    }

    /// Number of mentions whose gold label is out-of-KB.
    pub fn out_of_kb_count(&self) -> usize {
        self.mentions.iter().filter(|m| m.label.is_none()).count()
    }

    /// Reconstructs a plain-text rendering from the tokens (spaces between
    /// tokens; good enough for display and debugging).
    pub fn text(&self) -> String {
        let mut s = String::new();
        for (i, t) in self.tokens.iter().enumerate() {
            if i > 0 {
                s.push(' ');
            }
            s.push_str(&t.text);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ned_text::tokenize;

    fn doc() -> GoldDoc {
        let tokens = tokenize("Kashmir was performed by Page .");
        GoldDoc::new(
            "d1",
            tokens,
            vec![
                LabeledMention {
                    mention: Mention::new("Kashmir", 0, 1),
                    label: Some(EntityId(1)),
                },
                LabeledMention { mention: Mention::new("Page", 4, 5), label: None },
            ],
            0,
        )
    }

    #[test]
    fn accessors() {
        let d = doc();
        assert_eq!(d.bare_mentions().len(), 2);
        assert_eq!(d.gold_labels(), vec![Some(EntityId(1)), None]);
        assert_eq!(d.out_of_kb_count(), 1);
        assert!(d.text().starts_with("Kashmir was"));
    }

    #[test]
    #[should_panic(expected = "sorted and non-overlapping")]
    fn overlapping_mentions_panic() {
        let tokens = tokenize("a b c");
        GoldDoc::new(
            "bad",
            tokens,
            vec![
                LabeledMention { mention: Mention::new("a b", 0, 2), label: None },
                LabeledMention { mention: Mention::new("b c", 1, 3), label: None },
            ],
            0,
        );
    }

    #[test]
    #[should_panic(expected = "out of token range")]
    fn mention_beyond_tokens_panics() {
        let tokens = tokenize("a");
        GoldDoc::new(
            "bad",
            tokens,
            vec![LabeledMention { mention: Mention::new("a b", 0, 2), label: None }],
            0,
        );
    }
}
