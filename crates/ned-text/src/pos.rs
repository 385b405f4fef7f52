//! Lightweight part-of-speech tagging.
//!
//! The thesis uses the Stanford POS tagger only to drive the keyphrase
//! extraction patterns of Appendix A, which distinguish nouns, proper nouns,
//! adjectives, and the preposition "of". This tagger reproduces that
//! distinction with a closed-class lexicon, suffix heuristics, and
//! capitalization, which is sufficient for pattern extraction on both the
//! synthetic corpora and ordinary English.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::OnceLock;

use crate::normalize::with_lowercase;
use crate::sentence::split_sentences;
use crate::stopwords::is_stopword;
use crate::token::{Token, TokenKind};

/// Part-of-speech tag set, deliberately coarse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PosTag {
    /// Common noun.
    Noun,
    /// Proper noun (capitalized non-initial word, or any all-caps acronym).
    ProperNoun,
    /// Adjective.
    Adjective,
    /// Verb (incl. auxiliaries).
    Verb,
    /// Determiner or pronoun.
    Determiner,
    /// Preposition or conjunction.
    Preposition,
    /// Numeric literal.
    Number,
    /// Punctuation.
    Punctuation,
    /// Anything else (adverbs, interjections, ...).
    Other,
}

impl PosTag {
    /// True for tags that can appear inside a keyphrase pattern body.
    pub fn is_nominal(self) -> bool {
        matches!(self, PosTag::Noun | PosTag::ProperNoun)
    }
}

const PREPOSITIONS: &[&str] = &[
    "of", "in", "on", "at", "by", "for", "with", "from", "to", "into", "over", "under",
    "between", "against", "about", "and", "or", "but",
];

const DETERMINERS: &[&str] = &[
    "the", "a", "an", "this", "that", "these", "those", "his", "her", "its", "their", "our",
    "my", "your", "he", "she", "it", "they", "we", "i", "you", "who", "which", "what", "all",
    "some", "any", "no", "each", "every",
];

const VERBS: &[&str] = &[
    "is", "are", "was", "were", "be", "been", "being", "am", "has", "have", "had", "having",
    "do", "does", "did", "will", "would", "can", "could", "may", "might", "shall", "should",
    "must", "said", "says", "say", "made", "make", "makes", "played", "plays",
    "performed", "performs", "perform", "wrote", "writes", "write", "written", "recorded",
    "released", "releases", "release", "won", "wins", "signed",
    "signs", "announced", "announces", "announce", "revealed", "reveals", "reveal",
    "founded", "created", "creates", "create", "became", "becomes",
    "become", "joined", "joins", "join", "leads", "scored", "scores",
    "defeated", "defeats", "defeat", "beats", "ended", "ends", "went", "goes", "go",
];

const ADJECTIVE_SUFFIXES: &[&str] =
    &["ous", "ful", "ish", "ive", "less", "able", "ible", "ic", "al", "ary", "ian", "ese"];

const ADVERB_SUFFIX: &str = "ly";

const VERB_SUFFIXES: &[&str] = &["ized", "izes", "ising", "izing", "ated", "ates", "ating", "ed"];

/// The closed-class lexicon: every word of [`DETERMINERS`],
/// [`PREPOSITIONS`] and [`VERBS`] with its tag. A word in several lists
/// takes the tag of the first one in that order: the lists are inserted in
/// reverse, so the earlier list's tag overwrites.
fn lexicon() -> &'static HashMap<&'static str, PosTag> {
    static LEXICON: OnceLock<HashMap<&'static str, PosTag>> = OnceLock::new();
    LEXICON.get_or_init(|| {
        let lists = [
            (VERBS, PosTag::Verb),
            (PREPOSITIONS, PosTag::Preposition),
            (DETERMINERS, PosTag::Determiner),
        ];
        lists.iter().flat_map(|&(words, tag)| words.iter().map(move |&w| (w, tag))).collect()
    })
}

/// Deterministic rule-based POS tagger.
#[derive(Debug, Default, Clone)]
pub struct PosTagger {
    _private: (),
}

impl PosTagger {
    /// Creates a tagger.
    pub fn new() -> Self {
        PosTagger { _private: () }
    }

    /// Tags every token; `sentence_starts[i]` must be true when token `i`
    /// begins a sentence (sentence-initial capitalization is not evidence of
    /// a proper noun).
    pub fn tag(&self, tokens: &[Token], sentence_starts: &[bool]) -> Vec<PosTag> {
        assert_eq!(tokens.len(), sentence_starts.len(), "one flag per token");
        tokens
            .iter()
            .zip(sentence_starts)
            .map(|(tok, &at_start)| self.tag_one(tok, at_start))
            .collect()
    }

    /// Tags a whole document, with the sentence starts [`split_sentences`]
    /// finds in it.
    pub fn tag_document(&self, tokens: &[Token]) -> Vec<PosTag> {
        let starts = sentence_start_flags(tokens.len(), &split_sentences(tokens));
        self.tag(tokens, &starts)
    }

    /// The tags of the window `tokens[window]` tagged on its own, from the
    /// [`PosTagger::tag_document`] tags of all of `tokens`. Only the
    /// window's first two tokens can start a sentence differently than in
    /// the document — its first token always starts one, and a `.` there
    /// ends one even after an abbreviation the window cut off — so only
    /// they are re-tagged. Empty when `window` is out of range.
    pub fn window_tags(
        &self,
        tokens: &[Token],
        doc_tags: &[PosTag],
        window: Range<usize>,
    ) -> Vec<PosTag> {
        let (Some(tokens), Some(tags)) = (tokens.get(window.clone()), doc_tags.get(window)) else {
            return Vec::new();
        };
        let mut tags = tags.to_vec();
        let head = tokens.get(..2).unwrap_or(tokens);
        let starts = sentence_start_flags(head.len(), &split_sentences(head));
        for ((tag, tok), at_start) in tags.iter_mut().zip(head).zip(starts) {
            *tag = self.tag_one(tok, at_start);
        }
        tags
    }

    /// Tags a single token given whether it starts a sentence.
    pub fn tag_one(&self, tok: &Token, at_sentence_start: bool) -> PosTag {
        match tok.kind {
            TokenKind::Number => PosTag::Number,
            TokenKind::Punct => PosTag::Punctuation,
            TokenKind::Word => self.tag_word(tok, at_sentence_start),
        }
    }

    fn tag_word(&self, tok: &Token, at_sentence_start: bool) -> PosTag {
        with_lowercase(&tok.text, |l| tag_lowered(tok, l, at_sentence_start))
    }
}

/// The tag of the word token `tok`, whose lowercased text is `l`.
fn tag_lowered(tok: &Token, l: &str, at_sentence_start: bool) -> PosTag {
    if let Some(&tag) = lexicon().get(l) {
        return tag;
    }
    if tok.is_all_uppercase() && tok.text.chars().count() >= 2 {
        return PosTag::ProperNoun;
    }
    if tok.is_capitalized() && !at_sentence_start {
        return PosTag::ProperNoun;
    }
    if l.ends_with(ADVERB_SUFFIX) && l.len() > 3 {
        return PosTag::Other;
    }
    if VERB_SUFFIXES.iter().any(|s| l.ends_with(s) && l.len() > s.len() + 2) {
        return PosTag::Verb;
    }
    if ADJECTIVE_SUFFIXES.iter().any(|s| l.ends_with(s) && l.len() > s.len() + 2) {
        return PosTag::Adjective;
    }
    // A sentence-initial capitalized content word could be either a noun
    // or a proper noun; the keyphrase patterns accept both, so it is a
    // Noun like any other content word.
    if is_stopword(l) {
        PosTag::Other
    } else {
        PosTag::Noun
    }
}

/// Computes the `sentence_starts` flag vector from sentence ranges produced
/// by [`crate::sentence::split_sentences`].
pub fn sentence_start_flags(n_tokens: usize, sentences: &[crate::sentence::Sentence]) -> Vec<bool> {
    let mut flags = vec![false; n_tokens];
    for s in sentences {
        if let Some(flag) = flags.get_mut(s.start) {
            *flag = true;
        }
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;
    use proptest::prelude::*;

    fn tag_text(input: &str) -> Vec<(String, PosTag)> {
        let tokens = tokenize(input);
        let sentences = split_sentences(&tokens);
        let starts = sentence_start_flags(tokens.len(), &sentences);
        let tags = PosTagger::new().tag(&tokens, &starts);
        tokens.into_iter().map(|t| t.text).zip(tags).collect()
    }

    fn tag_of(tagged: &[(String, PosTag)], word: &str) -> PosTag {
        tagged.iter().find(|(w, _)| w == word).unwrap_or_else(|| panic!("{word} missing")).1
    }

    #[test]
    fn capitalized_mid_sentence_is_proper_noun() {
        let t = tag_text("They performed Kashmir on stage.");
        assert_eq!(tag_of(&t, "Kashmir"), PosTag::ProperNoun);
    }

    #[test]
    fn sentence_initial_capital_is_not_proper() {
        let t = tag_text("Record sales went up.");
        assert_eq!(tag_of(&t, "Record"), PosTag::Noun);
    }

    #[test]
    fn acronyms_are_proper_nouns() {
        let t = tag_text("the NSA program");
        assert_eq!(tag_of(&t, "NSA"), PosTag::ProperNoun);
    }

    #[test]
    fn closed_classes() {
        let t = tag_text("the singer of the band was famous");
        assert_eq!(tag_of(&t, "the"), PosTag::Determiner);
        assert_eq!(tag_of(&t, "of"), PosTag::Preposition);
        assert_eq!(tag_of(&t, "was"), PosTag::Verb);
        assert_eq!(tag_of(&t, "famous"), PosTag::Adjective);
        assert_eq!(tag_of(&t, "singer"), PosTag::Noun);
    }

    #[test]
    fn numbers_and_punct() {
        let t = tag_text("In 1976, yes.");
        assert_eq!(tag_of(&t, "1976"), PosTag::Number);
        assert_eq!(tag_of(&t, ","), PosTag::Punctuation);
    }

    #[test]
    fn adverb_is_other() {
        let t = tag_text("he ran quickly home");
        assert_eq!(tag_of(&t, "quickly"), PosTag::Other);
    }

    #[test]
    #[should_panic(expected = "one flag per token")]
    fn mismatched_flags_panic() {
        let tokens = tokenize("a b");
        PosTagger::new().tag(&tokens, &[true]);
    }

    /// Tokens that start sentences (`.`/`!`/`?`), that keep a following `.`
    /// from ending one (`Dr`, `J`), and whose tag depends on starting one.
    const BOUNDARY: &[&str] = &["Dr", "J", "Mr", ".", "!", "?", "Record", "Kashmir"];
    /// Everything else a window may hold.
    const FILLER: &[&str] =
        &["the", "NSA", "famous", "program", "quickly", "1976", "of", "was", ",", "Rock"];

    fn token(text: &str, start: usize) -> Token {
        let kind = if text.chars().all(|c| c.is_ascii_digit()) {
            TokenKind::Number
        } else if text.chars().all(|c| c.is_ascii_punctuation()) {
            TokenKind::Punct
        } else {
            TokenKind::Word
        };
        Token::new(text, start, kind)
    }

    /// Document tags, turned into the tags of `window`.
    fn window_tags(doc: &[Token], window: std::ops::Range<usize>) -> Vec<PosTag> {
        let tagger = PosTagger::new();
        tagger.window_tags(doc, &tagger.tag_document(doc), window)
    }

    /// The reference: the window tagged on its own.
    fn own_tags(window: &[Token]) -> Vec<PosTag> {
        let starts = sentence_start_flags(window.len(), &split_sentences(window));
        PosTagger::new().tag(window, &starts)
    }

    #[test]
    fn window_start_after_an_abbreviation_is_retagged() {
        // In the document "Dr ." does not end a sentence, so "Record" is
        // mid-sentence; a window starting at "." ends a sentence there.
        let doc = tokenize("the Dr. Record sales");
        let tags = window_tags(&doc, 2..doc.len());
        assert_eq!(tags, own_tags(&doc[2..]));
        assert_eq!(tags[1], PosTag::Noun);
        assert_eq!(PosTagger::new().tag_document(&doc)[3], PosTag::ProperNoun);
    }

    /// The tagger before its lexicon map and stack-buffer lowercasing: the
    /// reference `tag_word` the proptest below holds the tagger to.
    fn reference_tag_word(tok: &Token, at_sentence_start: bool) -> PosTag {
        let lower = tok.lower();
        let l = lower.as_str();
        if DETERMINERS.contains(&l) {
            return PosTag::Determiner;
        }
        if PREPOSITIONS.contains(&l) {
            return PosTag::Preposition;
        }
        if VERBS.contains(&l) {
            return PosTag::Verb;
        }
        if tok.is_all_uppercase() && tok.text.chars().count() >= 2 {
            return PosTag::ProperNoun;
        }
        if tok.is_capitalized() && !at_sentence_start {
            return PosTag::ProperNoun;
        }
        if l.ends_with(ADVERB_SUFFIX) && l.len() > 3 {
            return PosTag::Other;
        }
        if VERB_SUFFIXES.iter().any(|s| l.ends_with(s) && l.len() > s.len() + 2) {
            return PosTag::Verb;
        }
        if ADJECTIVE_SUFFIXES.iter().any(|s| l.ends_with(s) && l.len() > s.len() + 2) {
            return PosTag::Adjective;
        }
        if at_sentence_start && tok.is_capitalized() && !is_stopword(l) {
            return PosTag::Noun;
        }
        if is_stopword(l) {
            return PosTag::Other;
        }
        PosTag::Noun
    }

    fn reference_tag(tokens: &[Token], sentence_starts: &[bool]) -> Vec<PosTag> {
        tokens
            .iter()
            .zip(sentence_starts)
            .map(|(tok, &at_start)| match tok.kind {
                TokenKind::Number => PosTag::Number,
                TokenKind::Punct => PosTag::Punctuation,
                TokenKind::Word => reference_tag_word(tok, at_start),
            })
            .collect()
    }

    /// Words whose tag depends on the lexicon, the stopword list, a suffix
    /// or capitalization, plus non-ASCII words (one lowercases to ASCII:
    /// the Kelvin sign) and words longer than the stack buffer.
    const WORDS: &[&str] = &[
        "nor", "because", "until", "once", "here", "few", "own", "than", "n't", "'s", "also",
        "new", "quickly", "ly", "only", "famous", "national", "organized", "created", "rated",
        "program", "record", "band", "Straße", "ΟΔΟΣ", "İzmir", "\u{212a}elvin", "Élan", "ÉTÉ",
        "naïve", "über", "o\u{308}f", "Supercalifragilisticexpialidocious", "abcdefghijklmnopqrstuvwxyzabcdef",
        "abcdefghijklmnopqrstuvwxyzabcdefg", "THE-WAS-OF-AND-AN-EXTREMELY-LONG-HYPHENATED-WORD",
    ];

    /// The word `i` of the lexicon, the stopword list and [`WORDS`], in the
    /// case `case` selects: as written, lower, upper, or capitalized.
    fn word(i: usize, case: usize) -> String {
        let lists = [DETERMINERS, PREPOSITIONS, VERBS, crate::stopwords::STOPWORDS, WORDS];
        let all: Vec<&str> = lists.iter().flat_map(|l| l.iter().copied()).collect();
        let w = all[i % all.len()];
        match case % 4 {
            0 => w.to_string(),
            1 => w.to_lowercase(),
            2 => w.to_uppercase(),
            _ => {
                let mut chars = w.chars();
                chars.next().map_or(String::new(), |c| c.to_uppercase().chain(chars).collect())
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The tagger equals the reference `tag_word` on every token, at and
        /// after sentence starts, and so `phrase_spans` over its tags equals
        /// the spans over the reference tags.
        #[test]
        fn tagger_matches_the_reference_tag_word(
            slots in proptest::collection::vec((0usize..8, 0usize..400, 0usize..4), 0..40),
            flags in proptest::collection::vec(any::<bool>(), 40..41),
        ) {
            let tokens: Vec<Token> = slots
                .iter()
                .enumerate()
                .map(|(i, &(kind, w, case))| match kind {
                    0 => token([".", "!", "?", ","][w % 4], i * 8),
                    1 => token(["Dr", "J", "Mr", "1976"][w % 4], i * 8),
                    _ => Token::new(word(w, case), i * 8, TokenKind::Word),
                })
                .collect();
            let tagger = PosTagger::new();
            let starts = sentence_start_flags(tokens.len(), &split_sentences(&tokens));
            let tags = tagger.tag(&tokens, &starts);
            prop_assert_eq!(&tags, &reference_tag(&tokens, &starts));
            prop_assert_eq!(
                crate::patterns::phrase_spans(&tokens, &tags),
                crate::patterns::phrase_spans(&tokens, &reference_tag(&tokens, &starts))
            );
            // Arbitrary sentence starts, so every word is tagged both at and
            // after one.
            let starts = &flags[..tokens.len()];
            prop_assert_eq!(tagger.tag(&tokens, starts), reference_tag(&tokens, starts));
        }
    }

    #[test]
    fn out_of_range_window_has_no_tags() {
        let doc = tokenize("a b c");
        let tagger = PosTagger::new();
        assert!(tagger.window_tags(&doc, &tagger.tag_document(&doc), 2..5).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn retagged_window_matches_tagging_the_window_alone(
            left in proptest::collection::vec(0usize..BOUNDARY.len() + FILLER.len(), 0..6),
            head in (0usize..BOUNDARY.len(), 0usize..BOUNDARY.len()),
            right in proptest::collection::vec(0usize..BOUNDARY.len() + FILLER.len(), 0..12),
            cut in 0usize..14,
        ) {
            let word = |i: usize| BOUNDARY.get(i).or_else(|| FILLER.get(i - BOUNDARY.len()));
            let texts: Vec<&str> = left
                .iter()
                .chain([&head.0, &head.1])
                .chain(&right)
                .filter_map(|&i| word(i).copied())
                .collect();
            let doc: Vec<Token> =
                texts.iter().enumerate().map(|(i, t)| token(t, i * 8)).collect();
            // The window puts the two boundary tokens at positions 0 and 1.
            let start = left.len();
            let end = (start + 2 + cut).min(doc.len());
            prop_assert_eq!(window_tags(&doc, start..end), own_tags(&doc[start..end]));
        }
    }
}
