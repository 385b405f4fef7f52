//! Module-path symbol resolution: turning call sites into call-graph edges.
//!
//! Resolution is deliberately conservative — ambiguity produces **no edge**
//! rather than a guess:
//!
//! * a bare call `foo(…)` resolves to the free fn `foo` in the caller's own
//!   module, else to the *unique* free fn named `foo` anywhere in the
//!   workspace (imports are not tracked);
//! * a path call `a::b::foo(…)` resolves by unique suffix match over
//!   qualified names, after substituting `Self` → the caller's self type
//!   and `crate` → the caller's crate root (`self`/`super` path prefixes
//!   are dropped and the remainder suffix-matched);
//! * a method call `.foo(…)` resolves only when exactly one method named
//!   `foo` exists workspace-wide — with one precise exception: `self.foo(…)`
//!   prefers the unique `foo` on the caller's own self type. Trait required
//!   methods count as candidates, so any trait-declared method with an impl
//!   has ≥ 2 candidates and stays unresolved (dynamic dispatch is never
//!   guessed). A call on any other receiver whose name is also a
//!   standard-library method that once bound wrongly (`STD_METHOD_NAMES`:
//!   `xs.contains(…)`, `it.chain(…)`, `v.clone()`) is ambiguous: the
//!   receiver's type is not known, and it is far more often a std type
//!   than the one first-party method of that name.
//!
//! Unresolved and ambiguous calls terminate chains; they never suppress a
//! finding inside a function that *is* reachable.

use std::collections::BTreeMap;

use crate::items::{Call, CallKind, FileItems, FnItem};

/// One function known to the resolver (flattened from [`FileItems`]).
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Repo-relative file path.
    pub path: String,
    /// Crate name as on disk (hyphens preserved).
    pub crate_name: String,
    /// The extracted item (name, self type, body, markers).
    pub item: FnItem,
}

impl FnInfo {
    /// Fully qualified display name: `module::Type::name`.
    pub fn qual(&self) -> String {
        let mut segs: Vec<&str> = self.item.module.iter().map(|s| s.as_str()).collect();
        if let Some(ty) = &self.item.self_ty {
            segs.push(ty);
        }
        segs.push(&self.item.name);
        segs.join("::")
    }

    fn qual_segments(&self) -> Vec<String> {
        let mut segs = self.item.module.clone();
        if let Some(ty) = &self.item.self_ty {
            segs.push(ty.clone());
        }
        segs.push(self.item.name.clone());
        segs
    }
}

/// Standard-library method names that bound std calls to the one
/// first-party method sharing the name (`.contains` to the cache policy's,
/// `.take` to the snapshot decoder's, `.clone` to ned-serve's `Clone`
/// impl, `.chain` to `CallGraph::chain`), sorted. A call of one of them on
/// a receiver other than `self` resolves as [`Resolution::Ambiguous`].
/// Add a name here when such a wrong edge is found, not before: every
/// name also hides the calls that do reach the first-party method.
const STD_METHOD_NAMES: &[&str] = &["chain", "clone", "contains", "take"];

/// Outcome of resolving one call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Unique target: an edge in the call graph.
    Edge(usize),
    /// More than one candidate — conservatively no edge.
    Ambiguous,
    /// No first-party candidate (std, vendored, macro, or unknown).
    Unresolved,
}

/// The workspace symbol table.
#[derive(Debug, Default)]
pub struct Symbols {
    /// All extracted functions; indices are stable fn ids.
    pub fns: Vec<FnInfo>,
    /// Per-file metadata kept for rules that need file-level context
    /// (consts and joined code text for the metric-name rule).
    pub files: Vec<FileItems>,
    free_by_name: BTreeMap<String, Vec<usize>>,
    method_by_name: BTreeMap<String, Vec<usize>>,
    by_qual: BTreeMap<String, Vec<usize>>,
}

impl Symbols {
    /// Builds the table from per-file extraction results. Test-only
    /// functions are kept (for stats) but never act as resolution targets.
    pub fn build(mut files: Vec<FileItems>) -> Symbols {
        let mut sym = Symbols::default();
        for file in &mut files {
            for item in file.fns.drain(..) {
                sym.fns.push(FnInfo {
                    path: file.path.clone(),
                    crate_name: file.crate_name.clone(),
                    item,
                });
            }
        }
        sym.files = files;
        for (id, f) in sym.fns.iter().enumerate() {
            if f.item.in_test {
                continue;
            }
            if f.item.has_self {
                sym.method_by_name.entry(f.item.name.clone()).or_default().push(id);
            } else if f.item.self_ty.is_none() {
                sym.free_by_name.entry(f.item.name.clone()).or_default().push(id);
            }
            sym.by_qual.entry(f.qual_segments().join("::")).or_default().push(id);
        }
        sym
    }

    /// Resolves one call site made from `caller` (a fn id).
    pub fn resolve(&self, caller: usize, call: &Call) -> Resolution {
        let Some(from) = self.fns.get(caller) else { return Resolution::Unresolved };
        match call.kind {
            CallKind::Bare => {
                let Some(name) = call.segments.first() else {
                    return Resolution::Unresolved;
                };
                // Same-module free fn wins outright.
                let mut local = from.item.module.clone();
                local.push(name.clone());
                if let Some(ids) = self.by_qual.get(&local.join("::")) {
                    if let [only] = ids.as_slice() {
                        return Resolution::Edge(*only);
                    }
                }
                match self.free_by_name.get(name).map(|v| v.as_slice()) {
                    Some([only]) => Resolution::Edge(*only),
                    Some([]) | None => Resolution::Unresolved,
                    Some(_) => Resolution::Ambiguous,
                }
            }
            CallKind::Method => {
                let Some(name) = call.segments.first() else {
                    return Resolution::Unresolved;
                };
                let candidates = self.method_by_name.get(name).map(|v| v.as_slice()).unwrap_or(&[]);
                // `self.foo(…)`: prefer the unique method on the caller's
                // own self type (and crate, to dodge name collisions).
                if call.receiver.as_deref() == Some("self") {
                    if let Some(ty) = &from.item.self_ty {
                        let own: Vec<usize> = candidates
                            .iter()
                            .copied()
                            .filter(|&id| {
                                self.fns.get(id).map(|f| {
                                    f.item.self_ty.as_ref() == Some(ty)
                                        && f.crate_name == from.crate_name
                                }) == Some(true)
                            })
                            .collect();
                        if let [only] = own.as_slice() {
                            return Resolution::Edge(*only);
                        }
                    }
                }
                let on_self = call.receiver.as_deref() == Some("self");
                if !on_self && !candidates.is_empty() && is_std_method(name) {
                    return Resolution::Ambiguous;
                }
                match candidates {
                    [only] => Resolution::Edge(*only),
                    [] => Resolution::Unresolved,
                    _ => Resolution::Ambiguous,
                }
            }
            CallKind::Path => {
                // Substitute Self/crate, drop self/super, suffix-match.
                let mut segs: Vec<String> = Vec::new();
                for (i, seg) in call.segments.iter().enumerate() {
                    match seg.as_str() {
                        "Self" => match &from.item.self_ty {
                            Some(ty) => segs.push(ty.clone()),
                            None => return Resolution::Unresolved,
                        },
                        "crate" if i == 0 => {
                            if let Some(root) = from.item.module.first() {
                                segs.push(root.clone());
                            }
                        }
                        "self" | "super" if i == 0 => {}
                        _ => segs.push(seg.clone()),
                    }
                }
                if segs.is_empty() {
                    return Resolution::Unresolved;
                }
                let matches: Vec<usize> = self
                    .fns
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| !f.item.in_test && ends_with(&f.qual_segments(), &segs))
                    .map(|(id, _)| id)
                    .collect();
                match matches.as_slice() {
                    [only] => Resolution::Edge(*only),
                    [] => Resolution::Unresolved,
                    _ => Resolution::Ambiguous,
                }
            }
        }
    }
}

fn is_std_method(name: &str) -> bool {
    STD_METHOD_NAMES.binary_search(&name).is_ok()
}

fn ends_with(haystack: &[String], suffix: &[String]) -> bool {
    suffix.len() <= haystack.len()
        && haystack
            .iter()
            .rev()
            .zip(suffix.iter().rev())
            .all(|(a, b)| a == b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::extract;
    use crate::rules::FileContext;
    use crate::scanner::scan;

    fn file(path: &str, crate_name: &str, src: &str) -> FileItems {
        let ctx = FileContext {
            path: path.into(),
            crate_name: crate_name.into(),
            is_vendor: false,
            is_bin: false,
            is_harness: false,
        };
        extract(&ctx, &scan(src))
    }

    fn id_of(sym: &Symbols, qual: &str) -> usize {
        sym.fns
            .iter()
            .position(|f| f.qual() == qual)
            .unwrap_or_else(|| panic!("no fn {qual}"))
    }

    #[test]
    fn bare_call_prefers_same_module_then_unique_workspace() {
        let a = file("crates/a/src/lib.rs", "a", "pub fn go() { helper() }\nfn helper() {}\n");
        let b = file("crates/b/src/lib.rs", "b", "pub fn solo() {}\nfn helper() {}\n");
        let sym = Symbols::build(vec![a, b]);
        let go = id_of(&sym, "a::go");
        let call = &sym.fns[go].item.stmts[0].calls[0];
        assert_eq!(sym.resolve(go, call), Resolution::Edge(id_of(&sym, "a::helper")));
    }

    #[test]
    fn ambiguous_bare_call_yields_no_edge() {
        let a = file("crates/a/src/lib.rs", "a", "pub fn go() { helper() }\n");
        let b = file("crates/b/src/lib.rs", "b", "pub fn helper() {}\n");
        let c = file("crates/c/src/lib.rs", "c", "pub fn helper() {}\n");
        let sym = Symbols::build(vec![a, b, c]);
        let go = id_of(&sym, "a::go");
        let call = sym.fns[go].item.stmts[0].calls[0].clone();
        assert_eq!(sym.resolve(go, &call), Resolution::Ambiguous);
    }

    #[test]
    fn path_call_suffix_matches() {
        let a = file("crates/a/src/util.rs", "a", "pub fn thing() {}\n");
        let b =
            file("crates/b/src/lib.rs", "b", "pub fn go() { util::thing(); a::util::thing(); }\n");
        let sym = Symbols::build(vec![a, b]);
        let go = id_of(&sym, "b::go");
        let target = id_of(&sym, "a::util::thing");
        let calls: Vec<Call> =
            sym.fns[go].item.stmts.iter().flat_map(|s| s.calls.clone()).collect();
        assert_eq!(calls.len(), 2);
        for call in &calls {
            assert_eq!(sym.resolve(go, call), Resolution::Edge(target));
        }
    }

    #[test]
    fn self_method_call_prefers_own_impl() {
        let a = file(
            "crates/a/src/lib.rs",
            "a",
            "pub struct X;\nimpl X {\n    pub fn run(&self) { self.step() }\n    fn step(&self) {}\n}\n",
        );
        // Another `step` method elsewhere makes the global lookup ambiguous.
        let b = file("crates/b/src/lib.rs", "b", "pub struct Y;\nimpl Y {\n    pub fn step(&self) {}\n}\n");
        let sym = Symbols::build(vec![a, b]);
        let run = id_of(&sym, "a::X::run");
        let call = sym.fns[run].item.stmts[0].calls[0].clone();
        assert_eq!(sym.resolve(run, &call), Resolution::Edge(id_of(&sym, "a::X::step")));
    }

    #[test]
    fn std_method_names_on_other_receivers_stay_ambiguous() {
        // One first-party `contains` and one `chain`: without the rule,
        // every `.contains(…)` and `.chain(…)` call would bind to them.
        let a = file(
            "crates/a/src/lib.rs",
            "a",
            "pub struct Set;\nimpl Set {\n    pub fn contains(&self) -> bool { true }\n    pub fn probe(&self) -> bool { self.contains() }\n}\npub struct Graph;\nimpl Graph {\n    pub fn chain(&self) {}\n}\n",
        );
        let b = file(
            "crates/b/src/lib.rs",
            "b",
            "pub fn go(xs: &[u32], g: &Graph) -> bool { xs.contains(&1); g.chain(); xs.iter().chain(xs).count() > 0 }\n",
        );
        let sym = Symbols::build(vec![a, b]);
        let go = id_of(&sym, "b::go");
        let calls: Vec<Call> =
            sym.fns[go].item.stmts.iter().flat_map(|s| s.calls.clone()).collect();
        let std_named: Vec<&Call> = calls
            .iter()
            .filter(|c| matches!(c.kind, CallKind::Method))
            .filter(|c| matches!(c.segments.first().map(String::as_str), Some("contains" | "chain")))
            .collect();
        // `xs.contains`, `g.chain` and the chained `.chain`.
        assert_eq!(std_named.len(), 3, "{calls:?}");
        for call in std_named {
            assert_eq!(sym.resolve(go, call), Resolution::Ambiguous, "{call:?}");
        }
        // `self.contains()` still binds to the caller's own method.
        let probe = id_of(&sym, "a::Set::probe");
        let call = sym.fns[probe].item.stmts[0].calls[0].clone();
        assert_eq!(sym.resolve(probe, &call), Resolution::Edge(id_of(&sym, "a::Set::contains")));
        assert!(STD_METHOD_NAMES.windows(2).all(|w| w[0] < w[1]), "sorted for binary search");
    }

    #[test]
    fn trait_declared_methods_stay_ambiguous() {
        let a = file(
            "crates/a/src/lib.rs",
            "a",
            "pub trait T {\n    fn work(&self);\n}\npub struct X;\nimpl T for X {\n    fn work(&self) {}\n}\npub fn go(t: &X) { t.work() }\n",
        );
        let sym = Symbols::build(vec![a]);
        let go = id_of(&sym, "a::go");
        let call = sym.fns[go].item.stmts[0].calls[0].clone();
        // Trait decl + impl = two candidates; dynamic dispatch is never guessed.
        assert_eq!(sym.resolve(go, &call), Resolution::Ambiguous);
    }

    #[test]
    fn self_path_call_resolves_to_assoc_fn() {
        let a = file(
            "crates/a/src/lib.rs",
            "a",
            "pub struct X;\nimpl X {\n    pub fn run(&self) { Self::make() }\n    fn make() {}\n}\n",
        );
        let sym = Symbols::build(vec![a]);
        let run = id_of(&sym, "a::X::run");
        let call = sym.fns[run].item.stmts[0].calls[0].clone();
        assert_eq!(sym.resolve(run, &call), Resolution::Edge(id_of(&sym, "a::X::make")));
    }

    #[test]
    fn test_fns_are_not_targets() {
        let a = file(
            "crates/a/src/lib.rs",
            "a",
            "pub fn go() { helper() }\n#[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n",
        );
        let sym = Symbols::build(vec![a]);
        let go = id_of(&sym, "a::go");
        let call = sym.fns[go].item.stmts[0].calls[0].clone();
        assert_eq!(sym.resolve(go, &call), Resolution::Unresolved);
    }
}
