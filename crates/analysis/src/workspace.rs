//! Workspace discovery: walks the repository, lexes **and parses**
//! every `.rs` file, and flags the library files the lints hold to
//! the estimator stack's rules.
//!
//! A [`SourceFile`] carries three synchronized views of the same
//! source: raw token stream (expression-level scans), item tree
//! (structure: fns/impls/traits with spans), and the `#[test]` line
//! ranges (exemption policy).

use crate::ast::Item;
use crate::lexer::{lex, test_ranges, Token};
use crate::parse::parse;
use std::fs;
use std::io;
use std::path::Path;

/// The workspace's library crates: code that ships in the estimator
/// stack and is held to every lint.
pub const LIBRARY_CRATES: &[&str] = &[
    "common", "hashing", "sketch", "stream", "core", "baseline", "engine", "obs",
];

/// One lexed, parsed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Repository-relative path with `/` separators.
    pub path: String,
    /// True for library source: the `src/` of a [`LIBRARY_CRATES`]
    /// member or of the root `hindex` facade. Tests, benches,
    /// examples, tooling (`cli`, `bench`, this crate) and the vendored
    /// `rand`/`proptest` shims are exempt from every lint; the
    /// coverage lints read some test files as the *reference* suites.
    pub library: bool,
    /// The full token stream.
    pub tokens: Vec<Token>,
    /// The parsed item tree (tiles the token stream; see
    /// [`crate::ast::check_tiling`]).
    pub items: Vec<Item>,
    /// 1-based line ranges covered by `#[test]` / `#[cfg(test)]` items.
    pub test_ranges: Vec<(u32, u32)>,
}

impl SourceFile {
    /// Builds a file from its repo-relative path and contents.
    #[must_use]
    pub fn parse(path: String, contents: &str) -> Self {
        let tokens = lex(contents);
        let items = parse(&tokens);
        let test_ranges = test_ranges(&tokens);
        Self {
            library: is_library(&path),
            path,
            tokens,
            items,
            test_ranges,
        }
    }

    /// True if `line` falls inside a `#[cfg(test)]`/`#[test]` item.
    #[must_use]
    pub fn in_test_code(&self, line: u32) -> bool {
        self.test_ranges.iter().any(|&(s, e)| s <= line && line <= e)
    }
}

fn is_library(path: &str) -> bool {
    let in_dir = |d: &str| path.starts_with(&format!("{d}/")) || path.contains(&format!("/{d}/"));
    if in_dir("tests") || in_dir("benches") || in_dir("examples") {
        return false;
    }
    path.starts_with("src/")
        || LIBRARY_CRATES
            .iter()
            .any(|c| path.starts_with(&format!("crates/{c}/src/")))
}

/// The whole lexed-and-parsed workspace: inputs to every lint.
#[derive(Debug)]
pub struct Workspace {
    /// All discovered source files, sorted by path.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Builds a workspace from in-memory `(path, contents)` pairs.
    /// Used by the fixture tests; [`Workspace::load`] is the real path.
    #[must_use]
    pub fn from_sources(sources: Vec<(String, String)>) -> Self {
        let mut files: Vec<SourceFile> = sources
            .into_iter()
            .map(|(path, contents)| SourceFile::parse(path, &contents))
            .collect();
        files.sort_by(|a, b| a.path.cmp(&b.path));
        Self { files }
    }

    /// Walks `root` and lexes/parses every `.rs` file outside
    /// `target/` and dot-directories.
    pub fn load(root: &Path) -> io::Result<Self> {
        let mut sources = Vec::new();
        walk(root, root, &mut sources)?;
        Ok(Self::from_sources(sources))
    }

    /// Looks up a file by its repo-relative path.
    #[must_use]
    pub fn file(&self, path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.path == path)
    }
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_flag_matches_policy() {
        for lib in [
            "crates/sketch/src/l0.rs",
            "src/lib.rs",
            "crates/engine/src/lib.rs",
            "crates/obs/src/metrics.rs",
        ] {
            assert!(is_library(lib), "{lib}");
        }
        for exempt in [
            "crates/cli/src/main.rs",
            "crates/analysis/src/lib.rs",
            "tests/space_contracts.rs",
            "crates/sketch/tests/extra.rs",
            "examples/quickstart.rs",
            "crates/rand/src/lib.rs",
            "perfbench/src/main.rs",
        ] {
            assert!(!is_library(exempt), "{exempt}");
        }
    }
}
