//! Table 3.1: properties of the CoNLL-style corpus and its knowledge base.

use std::collections::HashSet;

use ned_eval::report::{num, Table};
use ned_kb::stats::KbStats;

use crate::setup::{Env, Scale};

/// Prints the corpus/KB property table.
pub fn run(scale: &Scale) {
    let env = Env::build(scale);
    let corpus = env.conll(scale);
    let kb = &env.frozen;

    let articles = corpus.docs.len();
    let mentions: usize = corpus.docs.iter().map(|d| d.mentions.len()).sum();
    let no_entity: usize = corpus.docs.iter().map(|d| d.out_of_kb_count()).sum();
    let words: usize = corpus.docs.iter().map(|d| d.tokens.len()).sum();
    let distinct_mentions: usize = corpus
        .docs
        .iter()
        .map(|d| {
            d.mentions.iter().map(|m| m.mention.surface.as_str()).collect::<HashSet<_>>().len()
        })
        .sum();
    let with_candidates: usize = corpus
        .docs
        .iter()
        .flat_map(|d| d.mentions.iter())
        .filter(|m| !kb.candidates(&m.mention.surface).is_empty())
        .count();
    let candidate_total: usize = corpus
        .docs
        .iter()
        .flat_map(|d| d.mentions.iter())
        .map(|m| kb.candidates(&m.mention.surface).len())
        .sum();

    let mut t = Table::new("Table 3.1 — corpus properties (CoNLL-like)", &["property", "value"]);
    t.add_row(vec!["articles".into(), articles.to_string()]);
    t.add_row(vec!["mentions (total)".into(), mentions.to_string()]);
    t.add_row(vec!["mentions with no entity".into(), no_entity.to_string()]);
    t.add_row(vec!["words per article (avg.)".into(), num(words as f64 / articles as f64, 1)]);
    t.add_row(vec![
        "mentions per article (avg.)".into(),
        num(mentions as f64 / articles as f64, 1),
    ]);
    t.add_row(vec![
        "distinct mentions per article (avg.)".into(),
        num(distinct_mentions as f64 / articles as f64, 1),
    ]);
    t.add_row(vec![
        "mentions with candidate in KB".into(),
        num(with_candidates as f64 / articles as f64, 1),
    ]);
    t.add_row(vec![
        "entities per mention (avg.)".into(),
        num(candidate_total as f64 / mentions.max(1) as f64, 1),
    ]);
    print!("{}", t.render());

    let stats = KbStats::of(&**kb);
    let mut k = Table::new("Knowledge base properties", &["property", "value"]);
    k.add_row(vec!["entities".into(), stats.entities.to_string()]);
    k.add_row(vec!["names".into(), stats.names.to_string()]);
    k.add_row(vec!["name-entity pairs".into(), stats.name_entity_pairs.to_string()]);
    k.add_row(vec![
        "mean candidates per name".into(),
        num(stats.mean_candidates_per_name, 2),
    ]);
    k.add_row(vec!["max candidates per name".into(), stats.max_candidates_per_name.to_string()]);
    k.add_row(vec!["links".into(), stats.links.to_string()]);
    k.add_row(vec!["mean in-links".into(), num(stats.mean_inlinks, 2)]);
    k.add_row(vec!["distinct keyphrases".into(), stats.distinct_keyphrases.to_string()]);
    k.add_row(vec![
        "mean keyphrases per entity".into(),
        num(stats.mean_keyphrases_per_entity, 2),
    ]);
    print!("{}", k.render());
}
