//! Export of a [`World`] into a [`KnowledgeBase`].
//!
//! Emerging entities and "recent" keyphrases are withheld — they exist in
//! the world (and its documents) but not in the KB, which is exactly the
//! incompleteness the Chapter-5 methods must cope with. Anchor counts for
//! base names are proportional to entity popularity, which yields realistic
//! popularity priors (§3.3.3).

use ned_kb::taxonomy::{kind_name, Taxonomy};
use ned_kb::{EntityId, KbBuilder, KnowledgeBase};

use crate::world::World;
use crate::zipf::popularity_weight;

/// A knowledge base exported from a world, with the index mappings.
#[derive(Debug)]
pub struct ExportedKb {
    /// The knowledge base (emerging entities excluded).
    pub kb: KnowledgeBase,
    /// World index → KB entity id (`None` for emerging entities).
    pub entity_ids: Vec<Option<EntityId>>,
    /// KB entity index → world index.
    pub world_index: Vec<usize>,
    /// YAGO-style type taxonomy: a coarse class per entity kind plus a
    /// domain-specific subclass per (kind, topic) pair — e.g. a "dom2
    /// person" is a person of topic 2.
    pub taxonomy: Taxonomy,
}

/// Anchor-count scale: the most popular entity gets this many anchor
/// observations for its base name.
const ANCHOR_SCALE: f64 = 10_000.0;

impl ExportedKb {
    /// Exports `world` into a knowledge base.
    pub fn build(world: &World) -> Self {
        let mut builder = KbBuilder::new();
        let mut entity_ids: Vec<Option<EntityId>> = vec![None; world.len()];
        let mut world_index = Vec::new();
        let top = popularity_weight(0, world.config.zipf_exponent);

        for e in &world.entities {
            if e.emerging {
                continue;
            }
            let id = builder.add_entity(&e.canonical, e.kind);
            entity_ids[e.index] = Some(id);
            world_index.push(e.index);
            // Base-name anchor count ∝ popularity.
            let share = e.popularity(world.config.zipf_exponent) / top;
            let count = (ANCHOR_SCALE * share).ceil() as u64;
            builder.add_name(id, &e.base_name, count.max(1));
            for (phrase, count) in &e.keyphrases {
                builder.add_keyphrase(id, phrase, *count);
            }
        }
        // Links among in-KB entities.
        for e in &world.entities {
            let Some(src) = entity_ids[e.index] else { continue };
            for &t in &e.outlinks {
                if let Some(dst) = entity_ids[t] {
                    builder.add_link(src, dst);
                }
            }
        }
        // Noisy dictionary entries.
        for (surface, victim) in &world.dictionary_noise {
            if let Some(id) = entity_ids[*victim] {
                builder.add_name(id, surface, 1);
            }
        }
        let kb = builder.build();
        // Taxonomy: root → kind classes → per-domain subclasses.
        let mut taxonomy = Taxonomy::new(kb.entity_count());
        let root = taxonomy.add_type("entity");
        for e in &world.entities {
            let Some(id) = entity_ids[e.index] else { continue };
            let kind_ty = taxonomy.add_type(kind_name(e.kind));
            let domain_ty = taxonomy.add_type(&format!("dom{} {}", e.topic, kind_name(e.kind)));
            // Types from `add_type`, a fixed three-level tree and an entity
            // the taxonomy covers: none of these can be refused.
            let typed = taxonomy
                .add_subclass(kind_ty, root)
                .and_then(|()| taxonomy.add_subclass(domain_ty, kind_ty))
                .and_then(|()| taxonomy.assign(id, domain_ty));
            debug_assert!(typed.is_ok(), "{typed:?}");
        }
        ExportedKb { kb, entity_ids, world_index, taxonomy }
    }

    /// The gold label of a world entity: its KB id, or `None` when
    /// emerging/out-of-KB.
    pub fn label_of(&self, world_idx: usize) -> Option<EntityId> {
        self.entity_ids[world_idx]
    }

    /// The world index backing a KB entity.
    pub fn world_of(&self, id: EntityId) -> usize {
        self.world_index[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;

    fn exported() -> (World, ExportedKb) {
        let world = World::generate(WorldConfig::tiny(3));
        let kb = ExportedKb::build(&world);
        (world, kb)
    }

    #[test]
    fn emerging_entities_are_excluded() {
        let (world, ex) = exported();
        let emerging = world.emerging_indices();
        assert!(!emerging.is_empty());
        assert_eq!(ex.kb.entity_count(), world.len() - emerging.len());
        for &i in &emerging {
            assert_eq!(ex.label_of(i), None);
        }
    }

    #[test]
    fn mappings_roundtrip() {
        let (world, ex) = exported();
        for &i in &world.in_kb_indices() {
            let id = ex.label_of(i).expect("in-KB entity has an id");
            assert_eq!(ex.world_of(id), i);
            assert_eq!(ex.kb.entity(id).canonical_name, world.entities[i].canonical);
        }
    }

    #[test]
    fn priors_follow_popularity() {
        let (world, ex) = exported();
        // Find a base name shared by ≥2 in-KB entities with different ranks.
        let groups = world.name_groups();
        let group = groups
            .values()
            .find(|g| {
                g.len() >= 2 && g.iter().all(|&i| !world.entities[i].emerging)
            })
            .expect("a shared in-KB name");
        let most_popular = *group
            .iter()
            .min_by_key(|&&i| world.entities[i].popularity_rank)
            .unwrap();
        let least_popular = *group
            .iter()
            .max_by_key(|&&i| world.entities[i].popularity_rank)
            .unwrap();
        if most_popular == least_popular {
            return;
        }
        let name = &world.entities[most_popular].base_name;
        let p_most = ex.kb.prior(name, ex.label_of(most_popular).unwrap());
        let p_least = ex.kb.prior(name, ex.label_of(least_popular).unwrap());
        assert!(p_most >= p_least, "{p_most} vs {p_least}");
    }

    #[test]
    fn recent_phrases_are_not_exported() {
        let (world, ex) = exported();
        let with_recent = world
            .entities
            .iter()
            .find(|e| !e.emerging && !e.recent_phrases.is_empty())
            .expect("an entity with recent phrases");
        let id = ex.label_of(with_recent.index).unwrap();
        let kb_phrases: Vec<&str> = ex
            .kb
            .keyphrases(id)
            .iter()
            .map(|ep| ex.kb.phrase_surface(ep.phrase))
            .collect();
        for (p, _) in &with_recent.recent_phrases {
            // A recent phrase may coincide with an exported one by accident
            // of generation, but the specific phrase strings are fresh draws
            // so collisions are practically impossible.
            assert!(!kb_phrases.contains(&p.as_str()), "recent phrase {p} leaked into KB");
        }
    }

    #[test]
    fn taxonomy_covers_all_entities() {
        let (world, ex) = exported();
        let root = ex.taxonomy.type_by_name("entity").unwrap();
        for &i in &world.in_kb_indices() {
            let id = ex.label_of(i).unwrap();
            assert!(ex.taxonomy.is_instance_of(id, root), "entity {i} untyped");
            // The direct type is the domain-specific subclass.
            let direct = ex.taxonomy.direct_types(id);
            assert_eq!(direct.len(), 1);
            let kind_ty = ex
                .taxonomy
                .type_by_name(ned_kb::taxonomy::kind_name(world.entities[i].kind))
                .unwrap();
            assert!(ex.taxonomy.is_subtype_of(direct[0], kind_ty));
        }
    }

    #[test]
    fn ambiguous_names_have_multiple_candidates() {
        let (world, ex) = exported();
        let groups = world.name_groups();
        let (name, _) = groups
            .iter()
            .find(|(_, g)| g.iter().filter(|&&i| !world.entities[i].emerging).count() >= 2)
            .expect("ambiguous in-KB name");
        assert!(ex.kb.candidates(name).len() >= 2);
    }
}
