//! The item-level AST produced by [`crate::parse`].
//!
//! The tree is deliberately *item-shaped*, not expression-shaped: lints
//! need to know where functions, impls, traits, and modules live (and
//! which attributes gate them), but expression-level facts (calls,
//! operators, indexing) are extracted by token scans *within* a
//! function's body span. That keeps the parser small enough to be
//! obviously total — it can consume any token stream, well-formed or
//! not, without panicking — while still giving the coverage and
//! dataflow lints (L2/L11, L9, L10) real structure to hang resolution
//! and reachability on.
//!
//! # Span discipline
//!
//! Every [`Item`] carries a [`Span`] of **token indices** `[lo, hi)`
//! into the file's lexed token stream. The parser maintains a tiling
//! invariant that the property tests pin:
//!
//! * the top-level items of a file tile `[0, tokens.len())` exactly —
//!   every token is covered by exactly one top-level item;
//! * child items (inside `mod`/`impl`/`trait` bodies) are strictly
//!   contained in their parent's span, are mutually disjoint, and
//!   appear in source order.
//!
//! [`check_tiling`] verifies both properties and is used by the golden
//! and property tests in `crates/analysis/tests/`.

use crate::lexer::Token;

/// A half-open range `[lo, hi)` of token indices into a file's token
/// stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First token index covered.
    pub lo: usize,
    /// One past the last token index covered.
    pub hi: usize,
}

impl Span {
    /// True if `idx` falls inside the span.
    #[must_use]
    pub fn contains(&self, idx: usize) -> bool {
        self.lo <= idx && idx < self.hi
    }

    /// True if `other` is entirely inside `self`.
    #[must_use]
    pub fn encloses(&self, other: &Span) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// 1-based line of the span's first token (`0` for empty spans on
    /// an empty stream).
    #[must_use]
    pub fn line(&self, tokens: &[Token]) -> u32 {
        tokens.get(self.lo).map_or(0, |t| t.line)
    }
}

/// One parsed attribute, e.g. `#[cfg(feature = "debug_invariants")]`.
///
/// `args` is the token-rendered interior after the attribute path
/// (parenthesised arguments or `= value`), normalised to single-space
/// separation so lints can substring-match on e.g.
/// `feature = "debug_invariants"` without caring about formatting.
#[derive(Debug, Clone)]
pub struct Attr {
    /// Attribute path with `::` separators (`cfg`, `cfg_attr`,
    /// `deprecated`, …).
    pub path: String,
    /// Rendered arguments (empty for bare `#[path]`).
    pub args: String,
    /// True for inner attributes (`#![…]`).
    pub inner: bool,
    /// 1-based source line of the `#` token.
    pub line: u32,
}

impl Attr {
    /// True if this is `cfg(...)`/`cfg_attr(...)` whose arguments
    /// mention the bare `test` predicate.
    #[must_use]
    pub fn is_cfg_test(&self) -> bool {
        (self.path == "cfg" || self.path == "cfg_attr") && mentions_word(&self.args, "test")
    }

    /// True if this is `cfg(...)` gating on `feature = "<feature>"`.
    #[must_use]
    pub fn is_cfg_feature(&self, feature: &str) -> bool {
        (self.path == "cfg" || self.path == "cfg_attr")
            && self.args.contains(&format!("feature = \"{feature}\""))
    }
}

/// Whole-word search (identifier boundaries) used by attribute
/// predicate checks, so `feature = "testing"` does not count as the
/// bare `test` predicate.
fn mentions_word(haystack: &str, word: &str) -> bool {
    let bytes = haystack.as_bytes();
    let mut start = 0usize;
    while let Some(found) = haystack[start..].find(word) {
        let at = start + found;
        let before_ok = at == 0
            || !(bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_');
        let end = at + word.len();
        let after_ok = end >= bytes.len()
            || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
        // Inside a string literal (`feature = "test"`) is not the bare
        // cfg predicate; require the match not be directly quoted.
        let quoted = at > 0 && bytes[at - 1] == b'"';
        if before_ok && after_ok && !quoted {
            return true;
        }
        start = at + 1;
    }
    false
}

/// One function parameter (or receiver).
///
/// Tuple/struct patterns bind several names to one type, so `names`
/// is a list: `(a, b): (u64, u64)` yields `names = [a, b]`.
#[derive(Debug, Clone)]
pub struct Param {
    /// Identifiers bound by the parameter pattern (`self` for
    /// receivers).
    pub names: Vec<String>,
    /// Rendered type (normalised token text; `Self` for receivers).
    pub ty: String,
}

/// A parsed `fn` (free function, inherent/trait-impl method, or trait
/// signature).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Parameters in order, receivers first.
    pub params: Vec<Param>,
    /// Rendered return type (`None` for `()`).
    pub ret: Option<String>,
    /// Token span of the body's brace block, braces included
    /// (`None` for bodiless trait signatures).
    pub body: Option<Span>,
}

/// A parsed `impl` block.
#[derive(Debug, Clone)]
pub struct ImplDef {
    /// Trait being implemented (last path segment), `None` for
    /// inherent impls.
    pub trait_name: Option<String>,
    /// The implementing type's head identifier (`Sharded` for
    /// `Sharded<E, T>`).
    pub self_ty: String,
    /// Associated items (fns, consts, types).
    pub items: Vec<Item>,
}

/// A parsed `trait` declaration.
#[derive(Debug, Clone)]
pub struct TraitDef {
    /// Trait name.
    pub name: String,
    /// Associated items (signatures and default methods).
    pub items: Vec<Item>,
}

/// One named field of a struct.
#[derive(Debug, Clone)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Rendered field type.
    pub ty: String,
}

/// A parsed `struct` (fields recorded for named-field structs only;
/// tuple and unit structs have an empty field list).
#[derive(Debug, Clone)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// Named fields, in declaration order.
    pub fields: Vec<Field>,
}

/// What kind of item a node is.
#[derive(Debug, Clone)]
pub enum ItemKind {
    /// `use a::b::{c, d};` — all identifiers appearing in the tree.
    Use {
        /// Every path segment / leaf identifier in the use tree.
        segments: Vec<String>,
    },
    /// `mod name;`
    ModDecl {
        /// Module name.
        name: String,
    },
    /// `mod name { … }`
    Mod {
        /// Module name.
        name: String,
        /// The module's items.
        items: Vec<Item>,
    },
    /// A function.
    Fn(FnDef),
    /// An impl block.
    Impl(ImplDef),
    /// A trait declaration.
    Trait(TraitDef),
    /// A struct declaration.
    Struct(StructDef),
    /// An enum declaration.
    Enum {
        /// Enum name.
        name: String,
    },
    /// A union declaration.
    Union {
        /// Union name.
        name: String,
    },
    /// A `const` item.
    Const {
        /// Constant name.
        name: String,
    },
    /// A `static` item.
    Static {
        /// Static name.
        name: String,
    },
    /// A `type` alias.
    TypeAlias {
        /// Alias name.
        name: String,
    },
    /// `macro_rules! name { … }`
    MacroDef {
        /// Macro name.
        name: String,
    },
    /// An item-position macro invocation (`proptest::proptest! { … }`).
    MacroCall {
        /// Invocation path segments.
        segments: Vec<String>,
    },
    /// `extern crate name;`
    ExternCrate {
        /// Crate name.
        name: String,
    },
    /// `extern "C" { … }` foreign module.
    ForeignMod,
    /// A standalone inner attribute (`#![forbid(unsafe_code)]`).
    InnerAttr(Attr),
    /// Tokens the parser could not classify; consumed conservatively
    /// so the tiling invariant holds on arbitrary input.
    Verbatim,
}

/// One node of the item tree.
#[derive(Debug, Clone)]
pub struct Item {
    /// Outer attributes (`#[…]`) attached to the item.
    pub attrs: Vec<Attr>,
    /// Token span, attributes included.
    pub span: Span,
    /// The parsed payload.
    pub kind: ItemKind,
}

impl Item {
    /// Child items, for kinds that have them.
    #[must_use]
    pub fn children(&self) -> &[Item] {
        match &self.kind {
            ItemKind::Mod { items, .. } => items,
            ItemKind::Impl(i) => &i.items,
            ItemKind::Trait(t) => &t.items,
            _ => &[],
        }
    }

    /// True if any attribute (on this item) is `cfg(test)`-like.
    #[must_use]
    pub fn is_cfg_test(&self) -> bool {
        self.attrs.iter().any(Attr::is_cfg_test)
    }

    /// True if any attribute gates on the given cargo feature.
    #[must_use]
    pub fn is_cfg_feature(&self, feature: &str) -> bool {
        self.attrs.iter().any(|a| a.is_cfg_feature(feature))
    }
}

/// Verifies the span tiling invariant (see module docs): top-level
/// items tile `[0, token_count)` exactly, and descendants are ordered,
/// disjoint, and contained in their parent. Returns a description of
/// the first violation.
pub fn check_tiling(items: &[Item], token_count: usize) -> Result<(), String> {
    let mut cursor = 0usize;
    for (idx, item) in items.iter().enumerate() {
        if item.span.lo != cursor {
            return Err(format!(
                "top-level item #{idx} starts at token {} but previous coverage ends at {cursor}",
                item.span.lo
            ));
        }
        if item.span.hi < item.span.lo {
            return Err(format!("item #{idx} has inverted span {:?}", item.span));
        }
        check_children(item)?;
        cursor = item.span.hi;
    }
    if cursor != token_count {
        return Err(format!(
            "top-level items cover [0, {cursor}) but the file has {token_count} tokens"
        ));
    }
    Ok(())
}

fn check_children(parent: &Item) -> Result<(), String> {
    let mut prev_hi = parent.span.lo;
    for child in parent.children() {
        if !parent.span.encloses(&child.span) {
            return Err(format!(
                "child span {:?} escapes parent span {:?}",
                child.span, parent.span
            ));
        }
        if child.span.lo < prev_hi {
            return Err(format!(
                "child span {:?} overlaps its predecessor (ends at {prev_hi})",
                child.span
            ));
        }
        check_children(child)?;
        prev_hi = child.span.hi;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_attr_predicates() {
        let test_attr = Attr {
            path: "cfg".into(),
            args: "( all ( test , feature = \"slow\" ) )".into(),
            inner: false,
            line: 1,
        };
        assert!(test_attr.is_cfg_test());
        assert!(test_attr.is_cfg_feature("slow"));
        assert!(!test_attr.is_cfg_feature("debug_invariants"));

        let feature_only = Attr {
            path: "cfg".into(),
            args: "( feature = \"test\" )".into(),
            inner: false,
            line: 1,
        };
        // `feature = "test"` is not the bare `test` predicate.
        assert!(!feature_only.is_cfg_test());

        let testing = Attr {
            path: "cfg".into(),
            args: "( feature = \"testing\" )".into(),
            inner: false,
            line: 1,
        };
        assert!(!testing.is_cfg_test());
    }

    #[test]
    fn tiling_detects_gaps_and_overruns() {
        let item = |lo, hi| Item {
            attrs: Vec::new(),
            span: Span { lo, hi },
            kind: ItemKind::Verbatim,
        };
        assert!(check_tiling(&[item(0, 3), item(3, 5)], 5).is_ok());
        assert!(check_tiling(&[item(0, 3), item(4, 5)], 5).is_err());
        assert!(check_tiling(&[item(0, 3)], 5).is_err());
        assert!(check_tiling(&[item(0, 6)], 5).is_err());
    }
}
