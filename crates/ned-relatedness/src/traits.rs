//! The common interface of all relatedness measures.

use ned_kb::EntityId;

/// A symmetric semantic-relatedness measure between knowledge-base entities.
///
/// Implementations must be symmetric (`relatedness(a, b) ==
/// relatedness(b, a)`, bit for bit) and non-negative; most measures are
/// bounded by 1.
///
/// `Sync` is a supertrait because one measure is shared by the documents
/// that rayon workers and service threads disambiguate concurrently; all
/// measures are immutable views over the knowledge base (or internally
/// synchronized, like the pair cache).
pub trait Relatedness: Sync {
    /// Short identifier used in experiment tables ("MW", "KORE", ...).
    fn name(&self) -> &'static str;

    /// Relatedness of entities `a` and `b`.
    fn relatedness(&self, a: EntityId, b: EntityId) -> f64;

    /// Replaces `out` with the index pairs `(i, j)`, `i <= j`, into
    /// `entities` whose relatedness may be nonzero, sorted and
    /// deduplicated. Every pair left out scores exactly `+0.0`.
    ///
    /// The default lists every pair, the diagonal included; a measure
    /// that knows where it vanishes overrides it. MW, KORE, KWCS, KPCS and
    /// KORE-LSH each vanish unless two entities share a dimension (an
    /// in-link, a keyword, a keyphrase, a stage-2 bucket key), and list
    /// their pairs with one join,
    /// [`shared_dimension_pairs`](crate::pair_selection::shared_dimension_pairs).
    fn nonzero_pairs(&self, entities: &[EntityId], out: &mut Vec<(u32, u32)>) {
        out.clear();
        let n = u32::try_from(entities.len()).unwrap_or(u32::MAX);
        for i in 0..n {
            out.extend((i..n).map(|j| (i, j)));
        }
    }
}

impl<T: Relatedness + ?Sized> Relatedness for &T {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn relatedness(&self, a: EntityId, b: EntityId) -> f64 {
        (**self).relatedness(a, b)
    }

    fn nonzero_pairs(&self, entities: &[EntityId], out: &mut Vec<(u32, u32)>) {
        (**self).nonzero_pairs(entities, out);
    }
}

impl<T: Relatedness + Send + ?Sized> Relatedness for std::sync::Arc<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn relatedness(&self, a: EntityId, b: EntityId) -> f64 {
        (**self).relatedness(a, b)
    }

    fn nonzero_pairs(&self, entities: &[EntityId], out: &mut Vec<(u32, u32)>) {
        (**self).nonzero_pairs(entities, out);
    }
}

impl<T: Relatedness + ?Sized> Relatedness for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn relatedness(&self, a: EntityId, b: EntityId) -> f64 {
        (**self).relatedness(a, b)
    }

    fn nonzero_pairs(&self, entities: &[EntityId], out: &mut Vec<(u32, u32)>) {
        (**self).nonzero_pairs(entities, out);
    }
}
