//! Property-based tests over the core data structures and invariants
//! (proptest), spanning crate boundaries.

use proptest::prelude::*;

use aida_ned::eval::map::{interpolated_map, RankedItem};
use aida_ned::eval::spearman::spearman;
use aida_ned::kb::{EntityKind, FrozenKb, KbBuilder};
use aida_ned::relatedness::minhash::{exact_jaccard, MinHasher};
use aida_ned::relatedness::{Kore, MilneWitten, Relatedness};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use aida_ned::text::normalize::{match_key, names_match};
use aida_ned::text::{tokenize, TokenText};

/// Text pieces that exercise the tokenizer's special cases: curly and
/// straight apostrophes, the possessive clitic, number separators,
/// acronym periods, hyphenated words, non-ASCII digits and letters,
/// combining marks, joiners, and every Unicode `White_Space` character.
const TOKENIZER_PIECES: &[&str] = &[
    "’", "'s", "'", "Dylan's", "Dylan’s", "s'", "34,956", "82.03", "1976.", "1,", "U.S.",
    "U.S", "rock-and-roll", "-", ".", ",", "(", ")", "٣٤", "١٢,٥", "१२३", "𝟙𝟚", "Ⅻ", "½",
    "ß", "İ", "Σς", "日本語", "é", "e\u{301}", "\u{301}", "\u{20dd}", "a\u{200d}b", "😀",
    "\u{feff}", "\u{200b}", "\t", "\n", "\u{b}", "\u{c}", "\r", " ", "\u{85}", "\u{a0}",
    "\u{1680}", "\u{2000}", "\u{2001}", "\u{2002}", "\u{2003}", "\u{2004}", "\u{2005}",
    "\u{2006}", "\u{2007}", "\u{2008}", "\u{2009}", "\u{200a}", "\u{2028}", "\u{2029}",
    "\u{202f}", "\u{205f}", "\u{3000}",
];

/// Builds a text from `(kind, value)` draws: a special piece, an ASCII
/// character, a BMP character, or any Unicode scalar value. Draws that are
/// not scalar values (surrogates) are skipped.
fn unicode_text(draws: &[(u32, u32)]) -> String {
    let mut text = String::new();
    for &(kind, value) in draws {
        let code = match kind {
            0 | 1 => {
                text.push_str(TOKENIZER_PIECES[value as usize % TOKENIZER_PIECES.len()]);
                continue;
            }
            2 => value % 0x80,
            3 => value % 0x1_0000,
            _ => value,
        };
        text.extend(char::from_u32(code));
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The tokenizer's documented guarantees hold on arbitrary Unicode:
    /// it does not panic, spans are non-empty, strictly increasing and
    /// non-overlapping, and every token's text is its span of the input.
    /// The tokens split on whitespace only: together they hold every
    /// non-whitespace character of the input, in order, and nothing else.
    #[test]
    fn tokenizer_spans_hold_on_arbitrary_unicode(
        draws in proptest::collection::vec((0u32..5, 0u32..0x11_0000), 0..80),
    ) {
        let input = unicode_text(&draws);
        let tokens = tokenize(&input);
        for t in &tokens {
            prop_assert!(t.start < t.end, "empty span {:?} in {:?}", t, input);
            prop_assert_eq!(input.get(t.start..t.end), Some(t.text.as_str()), "{:?}", input);
        }
        for w in tokens.windows(2) {
            prop_assert!(w[0].end <= w[1].start, "overlap {:?} {:?} in {:?}", w[0], w[1], input);
        }
        let joined: String = tokens.iter().map(|t| t.text.as_str()).collect();
        let kept: String = input.chars().filter(|c| !c.is_whitespace()).collect();
        prop_assert_eq!(joined, kept, "{:?}", input);
    }
}

fn sip<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// `TokenText` against the `String` it replaced, on `text` (and `other`
/// for the two-sided comparisons): built from `&str` and from `String`, it
/// round-trips through `as_str` and `Deref`, is inline exactly up to the
/// limit, compares equal with `str`, `&str` and `String` both ways, orders,
/// hashes and prints as the string does.
fn token_text_holds_to_string(text: &str, other: &str) -> Result<(), TestCaseError> {
    let owned = text.to_string();
    let o = TokenText::from(other);
    for t in [TokenText::from(text), TokenText::from(owned.clone())] {
        prop_assert_eq!(t.as_str(), text);
        prop_assert_eq!(&*t, text);
        prop_assert_eq!(t.is_inline(), text.len() <= TokenText::INLINE_BYTES);
        prop_assert!(t == *text && t == text && t == owned);
        prop_assert!(*text == t && text == t && owned == t);
        prop_assert_eq!(t == o, text == other);
        prop_assert_eq!(t.cmp(&o), text.cmp(other));
        prop_assert_eq!(t.partial_cmp(&o), text.partial_cmp(other));
        prop_assert_eq!(sip(&t), sip(&owned));
        prop_assert_eq!(format!("{t:?}"), format!("{owned:?}"));
        prop_assert_eq!(format!("{t}"), owned.clone());
    }
    Ok(())
}

/// The empty text, texts of 22 and 23 bytes (the inline limit and one past
/// it), a two-byte character that straddles byte 22, and multi-byte text.
#[test]
fn token_text_boundary_cases_hold_to_string() {
    let limit = TokenText::INLINE_BYTES;
    let straddle = format!("{}é", "a".repeat(limit - 1));
    assert!(straddle.len() == limit + 1 && !straddle.is_char_boundary(limit));
    let cases = ["", &"b".repeat(limit), &"c".repeat(limit + 1), &straddle, "日本語", "\u{0}"];
    for text in cases {
        for other in cases {
            let held = token_text_holds_to_string(text, other);
            assert!(held.is_ok(), "{text:?} against {other:?}: {held:?}");
        }
    }
}

/// One, two, three and four-byte characters and any scalar value, glued
/// from `(kind, value)` draws, so texts end on both sides of the limit.
fn sized_text(draws: &[(u32, u32)]) -> String {
    draws
        .iter()
        .filter_map(|&(kind, value)| match kind {
            0 => char::from_u32(0x20 + value % 0x5f),
            1 => char::from_u32(0x80 + value % 0x780),
            2 => char::from_u32(0x800 + value % 0xd000),
            3 => char::from_u32(0x1_0000 + value % 0x10_0000),
            _ => char::from_u32(value),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `TokenText` is indistinguishable from `String` on arbitrary Unicode
    /// of up to 64 bytes.
    #[test]
    fn token_text_is_indistinguishable_from_string(
        a in proptest::collection::vec((0u32..5, 0u32..0x11_0000), 0..17),
        b in proptest::collection::vec((0u32..5, 0u32..0x11_0000), 0..17),
    ) {
        let (a, b) = (sized_text(&a), sized_text(&b));
        token_text_holds_to_string(&a, &b)?;
        token_text_holds_to_string(&b, &a)?;
        token_text_holds_to_string(&a, &a)?;
    }
}

proptest! {
    /// Token spans always slice back to the token text.
    #[test]
    fn tokenizer_spans_roundtrip(input in "[ a-zA-Z0-9,.'()-]{0,120}") {
        let tokens = tokenize(&input);
        for t in &tokens {
            prop_assert!(t.start <= t.end && t.end <= input.len());
            prop_assert_eq!(&input[t.start..t.end], t.text.as_str());
        }
        // Spans are strictly increasing.
        for w in tokens.windows(2) {
            prop_assert!(w[0].end <= w[1].start);
        }
    }

    /// Name matching is an equivalence relation on the match key.
    #[test]
    fn name_matching_is_consistent(a in "[a-zA-Z]{1,10}", b in "[a-zA-Z]{1,10}") {
        prop_assert!(names_match(&a, &a));
        prop_assert_eq!(names_match(&a, &b), names_match(&b, &a));
        prop_assert_eq!(names_match(&a, &b), match_key(&a) == match_key(&b));
    }

    /// Min-hash estimates converge toward exact Jaccard.
    #[test]
    fn minhash_estimates_jaccard(
        xs in proptest::collection::hash_set(0u64..500, 1..60),
        ys in proptest::collection::hash_set(0u64..500, 1..60),
    ) {
        let hasher = MinHasher::new(256, 7);
        let sa = hasher.sketch(xs.iter().copied());
        let sb = hasher.sketch(ys.iter().copied());
        let estimate = MinHasher::estimate_jaccard(&sa, &sb);
        let mut va: Vec<u64> = xs.into_iter().collect();
        let mut vb: Vec<u64> = ys.into_iter().collect();
        va.sort_unstable();
        vb.sort_unstable();
        let exact = exact_jaccard(&va, &vb);
        prop_assert!((estimate - exact).abs() < 0.25, "est {estimate} vs exact {exact}");
    }

    /// MAP is bounded and monotone under a perfect ranking.
    #[test]
    fn map_bounds(flags in proptest::collection::vec(any::<bool>(), 1..60)) {
        let n = flags.len();
        let items: Vec<RankedItem> = flags
            .iter()
            .enumerate()
            .map(|(i, &correct)| RankedItem { confidence: 1.0 - i as f64 / n as f64, correct })
            .collect();
        let map = interpolated_map(&items);
        prop_assert!((0.0..=1.0).contains(&map));
        // A perfect ranking of the same labels scores at least as high.
        let mut sorted = items.clone();
        sorted.sort_by_key(|i| !i.correct);
        for (rank, item) in sorted.iter_mut().enumerate() {
            item.confidence = 1.0 - rank as f64 / n as f64;
        }
        prop_assert!(interpolated_map(&sorted) + 1e-9 >= map);
    }

    /// Spearman is bounded and equal to 1 against itself for distinct values.
    #[test]
    fn spearman_bounds(values in proptest::collection::vec(-100.0f64..100.0, 2..40)) {
        let other: Vec<f64> = values.iter().rev().copied().collect();
        let rho = spearman(&values, &other);
        prop_assert!((-1.0..=1.0).contains(&rho), "{rho}");
    }

    /// KB relatedness measures stay within bounds on arbitrary small KBs.
    #[test]
    fn relatedness_invariants(
        phrase_picks in proptest::collection::vec(
            (0usize..6, 0usize..8, 1u64..4), 4..30,
        ),
        links in proptest::collection::vec((0usize..6, 0usize..6), 0..20),
    ) {
        const WORDS: [&str; 8] =
            ["rock", "guitar", "river", "valley", "election", "senate", "album", "tour"];
        let mut b = KbBuilder::new();
        let ids: Vec<_> =
            (0..6).map(|i| b.add_entity(&format!("E{i}"), EntityKind::Other)).collect();
        for (e, w, count) in phrase_picks {
            let phrase = format!("{} {}", WORDS[w], WORDS[(w + 3) % WORDS.len()]);
            b.add_keyphrase(ids[e], &phrase, count);
        }
        for (src, dst) in links {
            b.add_link(ids[src], ids[dst]);
        }
        let kb = FrozenKb::freeze(&b.build());
        let mw = MilneWitten::new(&kb);
        let kore = Kore::new(&kb);
        for &a in &ids {
            for &bb in &ids {
                let m = mw.relatedness(a, bb);
                prop_assert!((0.0..=1.0).contains(&m), "MW {m}");
                prop_assert!((m - mw.relatedness(bb, a)).abs() < 1e-12);
                let k = kore.relatedness(a, bb);
                prop_assert!(k >= 0.0);
                prop_assert!((k - kore.relatedness(bb, a)).abs() < 1e-12);
            }
        }
    }
}
