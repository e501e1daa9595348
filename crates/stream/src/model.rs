//! The author / paper / citation data model of §2.2.

/// Identifier of an author (`a ∈ A`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AuthorId(pub u64);

/// Identifier of a paper (`p ∈ P`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PaperId(pub u64);

impl std::fmt::Display for AuthorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "a{}", self.0)
    }
}

impl std::fmt::Display for PaperId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A paper tuple `(p, a₁, …, a_y, c_p)`: id, authors and aggregate
/// citation count.
///
/// The paper assumes a bound `x` on the number of authors per paper
/// (`|A_p| ≤ x`); generators enforce their configured bound, and the
/// heavy-hitter algorithms handle any `y ≥ 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Paper {
    /// Paper id.
    pub id: PaperId,
    /// Authors (non-empty; at most the corpus's author bound).
    pub authors: Vec<AuthorId>,
    /// Aggregate citation count `c_p`.
    pub citations: u64,
}

impl Paper {
    /// Builds a single-author paper — the simplification §2.3 uses for
    /// the per-user algorithms of §3.
    #[must_use]
    pub fn solo(id: u64, author: u64, citations: u64) -> Self {
        Self {
            id: PaperId(id),
            authors: vec![AuthorId(author)],
            citations,
        }
    }

    /// Builds a multi-author paper.
    ///
    /// # Panics
    ///
    /// Panics if `authors` is empty (the model requires `y ≥ 1`).
    #[must_use]
    pub fn with_authors(id: u64, authors: &[u64], citations: u64) -> Self {
        assert!(!authors.is_empty(), "a paper needs at least one author");
        Self {
            id: PaperId(id),
            authors: authors.iter().copied().map(AuthorId).collect(),
            citations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_constructor() {
        let p = Paper::solo(3, 7, 12);
        assert_eq!(p.id, PaperId(3));
        assert_eq!(p.authors, vec![AuthorId(7)]);
        assert_eq!(p.citations, 12);
        assert!(p.authors.contains(&AuthorId(7)));
        assert!(!p.authors.contains(&AuthorId(8)));
    }

    #[test]
    fn multi_author_constructor() {
        let p = Paper::with_authors(1, &[2, 3, 5], 9);
        assert_eq!(p.authors.len(), 3);
        assert!(p.authors.contains(&AuthorId(5)));
    }

    #[test]
    #[should_panic(expected = "at least one author")]
    fn empty_authors_panics() {
        let _ = Paper::with_authors(1, &[], 9);
    }

    #[test]
    fn display_forms() {
        assert_eq!(AuthorId(4).to_string(), "a4");
        assert_eq!(PaperId(9).to_string(), "p9");
    }
}
