//! Workspace-wide symbol resolution over the parsed item trees.
//!
//! Flattens every file's item tree into indexed tables — functions,
//! impl blocks, struct layouts — with enough ownership context
//! (inherent impl, trait impl, trait declaration, free) for the call
//! graph to dispatch method calls by receiver type and for the
//! coverage lints (L2, L11) to correlate impls with test files.
//!
//! Resolution is *name-based and conservative*: the tool has no type
//! inference, so a method call whose receiver type cannot be pinned
//! down resolves to every method of that name in the workspace. For
//! reachability-style lints, over-approximation is the sound
//! direction.

use crate::ast::{Field, FnDef, Item, ItemKind};
use crate::workspace::{SourceFile, Workspace};
use std::collections::HashMap;

/// Who owns a function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Owner {
    /// A free function at module scope.
    Free,
    /// A method in an inherent impl: `impl Ty { fn … }`.
    Inherent(String),
    /// A method in a trait impl: `impl Tr for Ty { fn … }`.
    TraitImpl {
        /// The implemented trait (last path segment).
        trait_name: String,
        /// The implementing type's head identifier.
        self_ty: String,
    },
    /// A signature or default method in a trait declaration.
    TraitDecl(String),
}

impl Owner {
    /// The self type this function is a method of, if any.
    #[must_use]
    pub fn self_ty(&self) -> Option<&str> {
        match self {
            Owner::Inherent(ty) | Owner::TraitImpl { self_ty: ty, .. } => Some(ty),
            _ => None,
        }
    }
}

/// One resolved function.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Index of the containing file in `ws.files`.
    pub file: usize,
    /// Function name.
    pub name: String,
    /// Ownership context.
    pub owner: Owner,
    /// The parsed signature.
    pub def: FnDef,
    /// 1-based line of the item (first token, attributes included).
    pub line: u32,
    /// True if the fn lives under `#[test]`/`#[cfg(test)]` (directly
    /// or via an enclosing module). Whole test files are told apart by
    /// [`crate::workspace::SourceFile::library`] instead.
    pub in_test: bool,
    /// True if the fn is gated behind
    /// `#[cfg(feature = "debug_invariants")]` (directly or enclosing).
    pub gated: bool,
}

/// One resolved impl block.
#[derive(Debug, Clone)]
pub struct ImplInfo {
    /// Index of the containing file in `ws.files`.
    pub file: usize,
    /// Implemented trait (last path segment), `None` for inherent.
    pub trait_name: Option<String>,
    /// Implementing type's head identifier.
    pub self_ty: String,
    /// 1-based line of the impl item.
    pub line: u32,
    /// True if under test cfg.
    pub in_test: bool,
    /// Function ids (into [`Resolver::fns`]) of the impl's methods.
    pub fn_ids: Vec<usize>,
}

/// The flattened symbol tables for one workspace.
pub struct Resolver {
    /// Every function in the workspace, in file/source order.
    pub fns: Vec<FnInfo>,
    /// Every impl block in the workspace.
    pub impls: Vec<ImplInfo>,
    /// Struct name → fields (named-field structs only).
    pub structs: HashMap<String, Vec<Field>>,
    by_name: HashMap<String, Vec<usize>>,
    by_method: HashMap<(String, String), Vec<usize>>,
}

struct Ctx {
    file: usize,
    in_test: bool,
    gated: bool,
    owner: Owner,
}

impl Resolver {
    /// Builds the symbol tables from every parsed file in `ws`.
    #[must_use]
    pub fn build(ws: &Workspace) -> Self {
        let mut r = Resolver {
            fns: Vec::new(),
            impls: Vec::new(),
            structs: HashMap::new(),
            by_name: HashMap::new(),
            by_method: HashMap::new(),
        };
        for (file_idx, file) in ws.files.iter().enumerate() {
            let ctx = Ctx {
                file: file_idx,
                in_test: false,
                gated: false,
                owner: Owner::Free,
            };
            r.visit(file, &file.items, &ctx);
        }
        for (id, f) in r.fns.iter().enumerate() {
            r.by_name.entry(f.name.clone()).or_default().push(id);
            if let Some(ty) = f.owner.self_ty() {
                r.by_method
                    .entry((ty.to_string(), f.name.clone()))
                    .or_default()
                    .push(id);
            }
        }
        r
    }

    fn visit(&mut self, file: &SourceFile, items: &[Item], ctx: &Ctx) {
        for item in items {
            let in_test = ctx.in_test
                || item.is_cfg_test()
                || item.attrs.iter().any(|a| a.path == "test");
            let gated = ctx.gated || item.is_cfg_feature("debug_invariants");
            let line = item.span.line(&file.tokens);
            match &item.kind {
                ItemKind::Fn(def) => {
                    self.fns.push(FnInfo {
                        file: ctx.file,
                        name: def.name.clone(),
                        owner: ctx.owner.clone(),
                        def: def.clone(),
                        line,
                        in_test,
                        gated,
                    });
                }
                ItemKind::Impl(imp) => {
                    let owner = match &imp.trait_name {
                        Some(t) => Owner::TraitImpl {
                            trait_name: t.clone(),
                            self_ty: imp.self_ty.clone(),
                        },
                        None => Owner::Inherent(imp.self_ty.clone()),
                    };
                    let first_fn = self.fns.len();
                    let inner = Ctx {
                        file: ctx.file,
                        in_test,
                        gated,
                        owner,
                    };
                    self.visit(file, &imp.items, &inner);
                    let fn_ids = (first_fn..self.fns.len())
                        .filter(|&id| self.fns[id].file == ctx.file)
                        .collect();
                    self.impls.push(ImplInfo {
                        file: ctx.file,
                        trait_name: imp.trait_name.clone(),
                        self_ty: imp.self_ty.clone(),
                        line,
                        in_test,
                        fn_ids,
                    });
                }
                ItemKind::Trait(tr) => {
                    let inner = Ctx {
                        file: ctx.file,
                        in_test,
                        gated,
                        owner: Owner::TraitDecl(tr.name.clone()),
                    };
                    self.visit(file, &tr.items, &inner);
                }
                ItemKind::Struct(s) if !s.fields.is_empty() => {
                    self.structs
                        .entry(s.name.clone())
                        .or_insert_with(|| s.fields.clone());
                }
                ItemKind::Mod { items, .. } => {
                    let inner = Ctx {
                        file: ctx.file,
                        in_test,
                        gated,
                        owner: Owner::Free,
                    };
                    self.visit(file, items, &inner);
                }
                _ => {}
            }
        }
    }

    /// All function ids with the given name, any owner.
    #[must_use]
    pub fn fns_named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Function ids for `ty::name` — methods of the named type (from
    /// inherent and trait impls).
    #[must_use]
    pub fn methods_of(&self, ty: &str, name: &str) -> &[usize] {
        self.by_method
            .get(&(ty.to_string(), name.to_string()))
            .map_or(&[], Vec::as_slice)
    }

    /// Head identifiers appearing in a rendered type string —
    /// candidates for receiver-type dispatch. `"Vec < Reservoir < T > >"`
    /// yields `["Vec", "Reservoir", "T"]`.
    #[must_use]
    pub fn type_idents(ty: &str) -> Vec<&str> {
        ty.split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .filter(|s| {
                !s.is_empty()
                    && !matches!(
                        *s,
                        "mut" | "dyn" | "impl" | "const" | "where" | "as" | "ref" | "static"
                    )
                    && !s.chars().next().is_some_and(|c| c.is_ascii_digit())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(srcs: &[(&str, &str)]) -> Workspace {
        Workspace::from_sources(
            srcs.iter()
                .map(|(p, c)| ((*p).to_string(), (*c).to_string()))
                .collect(),
        )
    }

    #[test]
    fn resolves_owners_and_methods() {
        let ws = ws(&[(
            "crates/core/src/x.rs",
            "pub struct Foo { a: u64 }\n\
             impl Foo { pub fn new() -> Self { Foo { a: 0 } } }\n\
             impl Merge for Foo { fn merge(&mut self, o: &Self) {} }\n\
             pub trait Merge { fn merge(&mut self, o: &Self); }\n\
             fn free() {}\n\
             #[cfg(test)] mod tests { fn helper() {} }\n",
        )]);
        let r = Resolver::build(&ws);
        let new_ids = r.fns_named("new");
        assert_eq!(new_ids.len(), 1);
        assert_eq!(r.fns[new_ids[0]].owner, Owner::Inherent("Foo".into()));
        let merges = r.fns_named("merge");
        assert_eq!(merges.len(), 2); // impl + trait decl
        assert_eq!(r.methods_of("Foo", "merge").len(), 1);
        let free = &r.fns[r.fns_named("free")[0]];
        assert_eq!(free.owner, Owner::Free);
        assert!(!free.in_test);
        let helper = &r.fns[r.fns_named("helper")[0]];
        assert!(helper.in_test);
        assert_eq!(r.structs["Foo"].len(), 1);
        assert_eq!(r.impls.len(), 2);
    }

    #[test]
    fn feature_gates_propagate_from_enclosing_items() {
        let ws = ws(&[(
            "crates/core/src/x.rs",
            "impl Foo {\n\
               #[cfg(feature = \"debug_invariants\")]\n\
               pub fn state_digest(&self) -> u64 { 0 }\n\
               pub fn plain(&self) -> u64 { 1 }\n\
             }\n",
        )]);
        let r = Resolver::build(&ws);
        assert!(r.fns[r.fns_named("state_digest")[0]].gated);
        assert!(!r.fns[r.fns_named("plain")[0]].gated);
    }

    #[test]
    fn type_idents_extract_heads() {
        assert_eq!(
            Resolver::type_idents("Vec < Reservoir < Rc < [ AuthorId ] > > >"),
            vec!["Vec", "Reservoir", "Rc", "AuthorId"]
        );
        assert_eq!(Resolver::type_idents("& mut u64"), vec!["u64"]);
    }
}
