//! Comparing entity-relatedness measures (Chapter 4): the link-based
//! Milne–Witten measure against keyphrase-based KORE, and the two-stage
//! LSH acceleration.
//!
//! The "Cash performed Jackson" example of §4.1: at the surface level the
//! names are unrelated; at the entity level the singer and his song are
//! strongly related — and KORE captures it even when the song has no links.
//!
//! Run with: `cargo run --example kore_relatedness`

use aida_ned::kb::{EntityKind, FrozenKb, KbBuilder};
use aida_ned::relatedness::pair_selection::off_diagonal_pairs;
use aida_ned::relatedness::{Kore, KoreLsh, MilneWitten, Relatedness, TwoStageConfig};

fn main() {
    let mut b = KbBuilder::new();
    let cash = b.add_entity("Johnny Cash", EntityKind::Person);
    let song = b.add_entity("Jackson (song)", EntityKind::Work);
    let city = b.add_entity("Jackson (city)", EntityKind::Location);
    let cave = b.add_entity("Nick Cave", EntityKind::Person);
    let hallelujah = b.add_entity("Hallelujah (Nick Cave song)", EntityKind::Work);

    b.add_keyphrase(cash, "country singer", 5);
    b.add_keyphrase(cash, "June Carter duet", 3);
    b.add_keyphrase(cash, "man in black", 3);
    b.add_keyphrase(song, "June Carter duet", 2);
    b.add_keyphrase(song, "country singer classic", 2);
    b.add_keyphrase(city, "state capital", 4);
    b.add_keyphrase(city, "river harbor", 2);
    b.add_keyphrase(cave, "Australian singer", 4);
    b.add_keyphrase(cave, "Bad Seeds", 5);
    b.add_keyphrase(hallelujah, "Australian male singer", 2);
    b.add_keyphrase(hallelujah, "Bad Seeds", 3);
    b.add_keyphrase(hallelujah, "eerie cello", 1);

    // Links exist only in the popular corner of the KB: Cash and his song
    // are interlinked; Nick Cave's song is "out of Wikipedia" — no links.
    let fan1 = b.add_entity("Fan page 1", EntityKind::Other);
    let fan2 = b.add_entity("Fan page 2", EntityKind::Other);
    for f in [fan1, fan2] {
        b.add_link(f, cash);
        b.add_link(f, song);
    }
    let kb = FrozenKb::freeze(&b.build());

    let mw = MilneWitten::new(&kb);
    let kore = Kore::new(&kb);

    println!("{:<44} {:>6} {:>6}", "entity pair", "MW", "KORE");
    let pairs = [
        ("Johnny Cash ↔ Jackson (song)", cash, song),
        ("Johnny Cash ↔ Jackson (city)", cash, city),
        ("Nick Cave ↔ Hallelujah (his song)", cave, hallelujah),
        ("Nick Cave ↔ Johnny Cash", cave, cash),
    ];
    for (label, a, bb) in pairs {
        println!(
            "{:<44} {:>6.3} {:>6.3}",
            label,
            mw.relatedness(a, bb),
            kore.relatedness(a, bb)
        );
    }
    println!(
        "\nMW sees Cash↔Jackson (they share in-linkers) but is blind to the\n\
         link-poor Nick Cave song; KORE scores both from keyphrase overlap."
    );
    assert_eq!(mw.relatedness(cave, hallelujah), 0.0);
    assert!(kore.relatedness(cave, hallelujah) > 0.0);

    // The LSH acceleration prunes unrelated pairs before exact computation:
    // KORE-LSH lists only the pairs that share a stage-2 bucket key.
    let lsh = KoreLsh::new(&kb, TwoStageConfig::lsh_g());
    let everyone = [cash, song, city, cave, hallelujah];
    let surviving = off_diagonal_pairs(&lsh, &everyone);
    let all_pairs = everyone.len() * (everyone.len() - 1) / 2;
    println!(
        "\ntwo-stage LSH: {} of {all_pairs} pairs survive pruning; the rest\n\
         score 0 without computing exact KORE (§4.4.2).",
        surviving.len()
    );
    // Nick Cave and his song survive, with exact KORE.
    assert!(surviving.contains(&(cave, hallelujah)));
    assert_eq!(lsh.relatedness(cave, hallelujah), kore.relatedness(cave, hallelujah));
}
