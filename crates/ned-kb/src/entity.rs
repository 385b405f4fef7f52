//! Entity repository types.

use crate::codec::{CodecError, Reader, Writer};

/// Coarse semantic class of an entity, mirroring the classic NER type system
/// (person / organization / location / ...) extended with works and events,
/// which the thesis' examples use heavily (songs, albums, sports events).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntityKind {
    /// A person ("Bob Dylan", "Jimmy Page").
    Person,
    /// An organization ("Apple Inc.", "FC Barcelona").
    Organization,
    /// A location ("Kashmir", "Washington, D.C.").
    Location,
    /// A creative work ("Desire", "Kashmir (song)").
    Work,
    /// An event ("1996 AFC Asian Cup").
    Event,
    /// Anything else ("Prism (software)").
    Other,
}

impl EntityKind {
    /// All kinds, in declaration order.
    pub const ALL: [EntityKind; 6] = [
        EntityKind::Person,
        EntityKind::Organization,
        EntityKind::Location,
        EntityKind::Work,
        EntityKind::Event,
        EntityKind::Other,
    ];

    /// Writes the kind as its declaration index.
    pub(crate) fn encode(self, w: &mut Writer) {
        w.u64(self as u64);
    }

    /// Reads what [`EntityKind::encode`] writes.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.variant("entity kind", &Self::ALL)
    }
}

/// A canonical entity registered in the knowledge base.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entity {
    /// Unique canonical name (like a Wikipedia page title), e.g.
    /// "Kashmir (song)".
    pub canonical_name: String,
    /// Coarse semantic class.
    pub kind: EntityKind,
}

impl Entity {
    /// Creates an entity.
    pub fn new(canonical_name: impl Into<String>, kind: EntityKind) -> Self {
        Entity { canonical_name: canonical_name.into(), kind }
    }

    /// Writes one entity of a snapshot's entities section: the canonical
    /// name, then the kind.
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.str(&self.canonical_name);
        self.kind.encode(w);
    }

    /// Reads what [`Entity::encode`] writes.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Entity { canonical_name: r.string()?, kind: EntityKind::decode(r)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let e = Entity::new("Jimmy Page", EntityKind::Person);
        assert_eq!(e.canonical_name, "Jimmy Page");
        assert_eq!(e.kind, EntityKind::Person);
    }

    #[test]
    fn all_kinds_distinct() {
        let mut seen = std::collections::HashSet::new();
        for k in EntityKind::ALL {
            assert!(seen.insert(k));
        }
    }
}
