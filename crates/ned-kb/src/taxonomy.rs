//! A YAGO-style type taxonomy (§2.3.3).
//!
//! YAGO's key design choice is a clean separation between individual
//! entities and *classes*, with a WordNet-like taxonomic backbone: every
//! entity is an instance of one or more types, and types form a
//! subclass-of DAG ("songwriters are musicians, musicians are humans").
//! The taxonomy powers named-entity classification (§2.4.4) and type-aware
//! retrieval ("cats" in the Chapter-6 search application).

use ned_core::NedError;

use crate::entity::EntityKind;
use crate::fx::FxHashMap;
use crate::ids::EntityId;

/// Identifier of a type (class) in the taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TypeId(pub u32);

impl TypeId {
    /// Index form.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The type taxonomy: a DAG of classes plus entity → type assignments.
#[derive(Debug, Default, Clone)]
pub struct Taxonomy {
    names: Vec<String>,
    /// Direct super-types per type.
    supertypes: Vec<Vec<TypeId>>,
    /// Direct types per entity (indexed by entity id).
    entity_types: Vec<Vec<TypeId>>,
    by_name: FxHashMap<String, TypeId>,
}

impl Taxonomy {
    /// Creates an empty taxonomy covering `n_entities` entities.
    pub fn new(n_entities: usize) -> Self {
        Taxonomy {
            names: Vec::new(),
            supertypes: Vec::new(),
            entity_types: vec![Vec::new(); n_entities],
            by_name: FxHashMap::default(),
        }
    }

    /// Registers (or returns) a type by name.
    pub fn add_type(&mut self, name: &str) -> TypeId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        assert!(self.names.len() <= u32::MAX as usize, "type id overflow");
        let id = TypeId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.supertypes.push(Vec::new());
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Declares `sub` a subclass of `sup`.
    ///
    /// A type id the taxonomy does not hold is a [`NedError::Lookup`]. An
    /// edge from a type to itself, or one that would close a cycle (the
    /// taxonomy is a DAG), is a [`NedError::Config`].
    pub fn add_subclass(&mut self, sub: TypeId, sup: TypeId) -> Result<(), NedError> {
        let sup_name = self.name(sup).ok_or_else(|| unknown_type(sup))?;
        let sub_name = self.name(sub).ok_or_else(|| unknown_type(sub))?;
        if sub == sup {
            return Err(refused_edge(format!("a type cannot subclass itself: {sub_name}")));
        }
        if self.is_subtype_of(sup, sub) {
            return Err(refused_edge(format!(
                "subclass edge {sub_name} → {sup_name} would create a cycle"
            )));
        }
        if let Some(supers) = self.supertypes.get_mut(sub.index()) {
            if !supers.contains(&sup) {
                supers.push(sup);
            }
        }
        Ok(())
    }

    /// Assigns a (direct) type to an entity. A type the taxonomy does not
    /// hold, or an entity it does not cover, is a [`NedError::Lookup`].
    pub fn assign(&mut self, entity: EntityId, ty: TypeId) -> Result<(), NedError> {
        if self.name(ty).is_none() {
            return Err(unknown_type(ty));
        }
        let slot = self.entity_types.get_mut(entity.index()).ok_or_else(|| {
            NedError::Lookup { what: "taxonomy entity", key: entity.index().to_string() }
        })?;
        if !slot.contains(&ty) {
            slot.push(ty);
        }
        Ok(())
    }

    /// Type name, or `None` for a type id the taxonomy does not hold.
    pub fn name(&self, ty: TypeId) -> Option<&str> {
        self.names.get(ty.index()).map(String::as_str)
    }

    /// Direct super-types of `ty`; none for a type the taxonomy does not
    /// hold.
    fn supertypes_of(&self, ty: TypeId) -> &[TypeId] {
        self.supertypes.get(ty.index()).map_or(&[], Vec::as_slice)
    }

    /// Looks up a type by name.
    pub fn type_by_name(&self, name: &str) -> Option<TypeId> {
        self.by_name.get(name).copied()
    }

    /// Number of types.
    pub fn type_count(&self) -> usize {
        self.names.len()
    }

    /// Direct types of an entity. An entity the taxonomy does not cover
    /// (one promoted into the KB after the taxonomy was built) has none.
    pub fn direct_types(&self, entity: EntityId) -> &[TypeId] {
        self.entity_types.get(entity.index()).map_or(&[], Vec::as_slice)
    }

    /// All types of an entity, including transitive super-types, sorted.
    pub fn all_types(&self, entity: EntityId) -> Vec<TypeId> {
        let mut out = Vec::new();
        let mut stack: Vec<TypeId> = self.direct_types(entity).to_vec();
        while let Some(t) = stack.pop() {
            if out.contains(&t) {
                continue;
            }
            out.push(t);
            stack.extend_from_slice(self.supertypes_of(t));
        }
        out.sort_unstable();
        out
    }

    /// True when `sub` is (transitively) a subtype of `sup`, or equal. A
    /// type the taxonomy does not hold has no super-types.
    pub fn is_subtype_of(&self, sub: TypeId, sup: TypeId) -> bool {
        if sub == sup {
            return true;
        }
        let mut stack = vec![sub];
        let mut seen = vec![false; self.names.len()];
        while let Some(t) = stack.pop() {
            if t == sup {
                return true;
            }
            let Some(seen) = seen.get_mut(t.index()) else { continue };
            if std::mem::replace(seen, true) {
                continue;
            }
            stack.extend_from_slice(self.supertypes_of(t));
        }
        false
    }

    /// True when the entity is an instance of `ty` (directly or through the
    /// hierarchy).
    pub fn is_instance_of(&self, entity: EntityId, ty: TypeId) -> bool {
        self.direct_types(entity).iter().any(|&t| self.is_subtype_of(t, ty))
    }

    /// Builds the canonical coarse taxonomy over the [`EntityKind`]s of a
    /// repository: `entity` at the root, one class per kind beneath it. An
    /// entity id of `n_entities` or more is a [`NedError::Lookup`].
    pub fn coarse_from_kinds<'a>(
        kinds: impl IntoIterator<Item = (EntityId, &'a EntityKind)>,
        n_entities: usize,
    ) -> Result<Self, NedError> {
        let mut tax = Taxonomy::new(n_entities);
        let root = tax.add_type("entity");
        for kind in EntityKind::ALL {
            let ty = tax.add_type(kind_name(kind));
            tax.add_subclass(ty, root)?;
        }
        for (e, kind) in kinds {
            // `add_type` returns the class registered above.
            let ty = tax.add_type(kind_name(*kind));
            tax.assign(e, ty)?;
        }
        Ok(tax)
    }
}

fn unknown_type(ty: TypeId) -> NedError {
    NedError::Lookup { what: "type id", key: ty.0.to_string() }
}

fn refused_edge(message: String) -> NedError {
    NedError::Config { what: "taxonomy", message }
}

/// Canonical class name of a coarse kind.
pub fn kind_name(kind: EntityKind) -> &'static str {
    match kind {
        EntityKind::Person => "person",
        EntityKind::Organization => "organization",
        EntityKind::Location => "location",
        EntityKind::Work => "work",
        EntityKind::Event => "event",
        EntityKind::Other => "artifact",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn music_taxonomy() -> (Taxonomy, TypeId, TypeId, TypeId, TypeId) {
        let mut t = Taxonomy::new(3);
        let person = t.add_type("person");
        let musician = t.add_type("musician");
        let songwriter = t.add_type("songwriter");
        let city = t.add_type("city");
        t.add_subclass(musician, person).unwrap();
        t.add_subclass(songwriter, musician).unwrap();
        (t, person, musician, songwriter, city)
    }

    #[test]
    fn subtype_transitivity() {
        let (t, person, musician, songwriter, city) = music_taxonomy();
        assert!(t.is_subtype_of(songwriter, person));
        assert!(t.is_subtype_of(songwriter, musician));
        assert!(t.is_subtype_of(musician, person));
        assert!(!t.is_subtype_of(person, songwriter));
        assert!(!t.is_subtype_of(city, person));
        assert!(t.is_subtype_of(city, city));
    }

    #[test]
    fn entity_instances_respect_hierarchy() {
        let (mut t, person, _musician, songwriter, city) = music_taxonomy();
        let dylan = EntityId(0);
        let duluth = EntityId(1);
        t.assign(dylan, songwriter).unwrap();
        t.assign(duluth, city).unwrap();
        assert!(t.is_instance_of(dylan, person));
        assert!(t.is_instance_of(dylan, songwriter));
        assert!(!t.is_instance_of(duluth, person));
        // all_types includes the full chain.
        let all = t.all_types(dylan);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn add_type_is_idempotent() {
        let mut t = Taxonomy::new(0);
        let a = t.add_type("person");
        let b = t.add_type("person");
        assert_eq!(a, b);
        assert_eq!(t.type_count(), 1);
        assert_eq!(t.type_by_name("person"), Some(a));
        assert_eq!(t.type_by_name("missing"), None);
    }

    #[test]
    fn cycles_are_rejected() {
        let mut t = Taxonomy::new(0);
        let a = t.add_type("a");
        let b = t.add_type("b");
        t.add_subclass(a, b).unwrap();
        let err = t.add_subclass(b, a).unwrap_err();
        assert!(matches!(&err, NedError::Config { message, .. } if message.contains("cycle")));
        assert!(!t.is_subtype_of(b, a));
    }

    #[test]
    fn self_subclass_rejected() {
        let mut t = Taxonomy::new(0);
        let a = t.add_type("a");
        let err = t.add_subclass(a, a).unwrap_err();
        assert!(matches!(&err, NedError::Config { message, .. } if message.contains("itself")));
    }

    #[test]
    fn type_ids_the_taxonomy_does_not_hold_are_answered_without_panic() {
        let (mut t, person, _musician, songwriter, _city) = music_taxonomy();
        let unknown = TypeId(99);
        assert!(!t.is_subtype_of(unknown, person));
        assert!(!t.is_subtype_of(songwriter, unknown));
        assert_eq!(t.name(unknown), None);
        assert_eq!(t.name(person), Some("person"));
        let lookup = |r: Result<(), NedError>| matches!(r, Err(NedError::Lookup { .. }));
        assert!(lookup(t.add_subclass(unknown, person)));
        assert!(lookup(t.add_subclass(person, unknown)));
        assert!(lookup(t.assign(EntityId(0), unknown)));
        // An entity the taxonomy does not cover cannot be typed either.
        assert!(lookup(t.assign(EntityId(3), person)));
        t.assign(EntityId(0), songwriter).unwrap();
        assert!(!t.is_instance_of(EntityId(0), unknown));
        assert_eq!(t.all_types(EntityId(0)).len(), 3);
    }

    #[test]
    fn coarse_taxonomy_from_kinds() {
        let kinds = [EntityKind::Person, EntityKind::Location];
        let pairs: Vec<(EntityId, &EntityKind)> =
            kinds.iter().enumerate().map(|(i, k)| (EntityId(i as u32), k)).collect();
        let t = Taxonomy::coarse_from_kinds(pairs, 2).unwrap();
        let root = t.type_by_name("entity").unwrap();
        let person = t.type_by_name("person").unwrap();
        assert!(t.is_instance_of(EntityId(0), person));
        assert!(t.is_instance_of(EntityId(0), root));
        assert!(t.is_instance_of(EntityId(1), root));
        assert!(!t.is_instance_of(EntityId(1), person));
    }

    #[test]
    fn uncovered_entity_has_no_types() {
        let (t, person, ..) = music_taxonomy();
        let promoted = EntityId(3);
        assert!(t.direct_types(promoted).is_empty());
        assert!(t.all_types(promoted).is_empty());
        assert!(!t.is_instance_of(promoted, person));
    }
}
