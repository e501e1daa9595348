//! Stream-file parsing: whitespace-separated records, `#` comments and
//! blank lines ignored.

use hindex_stream::Paper;
use std::io::{BufRead, BufReader, Read};

/// Iterates the meaningful lines of a reader.
fn lines(input: &mut dyn Read) -> impl Iterator<Item = Result<(usize, String), String>> + '_ {
    BufReader::new(input)
        .lines()
        .enumerate()
        .filter_map(|(no, line)| match line {
            Err(e) => Some(Err(format!("I/O error on line {}: {e}", no + 1))),
            Ok(l) => {
                let trimmed = l.split('#').next().unwrap_or("").trim().to_string();
                if trimmed.is_empty() {
                    None
                } else {
                    Some(Ok((no + 1, trimmed)))
                }
            }
        })
}

/// Parses an aggregate stream: one citation count per line.
///
/// # Errors
///
/// Reports the offending line number on malformed input.
pub(crate) fn read_counts(input: &mut dyn Read) -> Result<Vec<u64>, String> {
    let mut out = Vec::new();
    for item in lines(input) {
        let (no, line) = item?;
        let v: u64 = line
            .parse()
            .map_err(|_| format!("line {no}: expected a count, got `{line}`"))?;
        out.push(v);
    }
    Ok(out)
}

/// Parses a cash-register stream: `paper_id delta` per line (delta may
/// be negative — those lines are rejected by the non-turnstile path at
/// command level).
///
/// # Errors
///
/// Reports the offending line number on malformed input.
pub fn read_updates(input: &mut dyn Read) -> Result<Vec<(u64, i64)>, String> {
    let mut out = Vec::new();
    for item in lines(input) {
        let (no, line) = item?;
        let mut parts = line.split_whitespace();
        let paper: u64 = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("line {no}: expected `paper delta`, got `{line}`"))?;
        let delta: i64 = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("line {no}: expected `paper delta`, got `{line}`"))?;
        if parts.next().is_some() {
            return Err(format!("line {no}: trailing tokens in `{line}`"));
        }
        out.push((paper, delta));
    }
    Ok(out)
}

/// Parses a paper stream: `paper_id author[,author…] citations` per
/// line.
///
/// # Errors
///
/// Reports the offending line number on malformed input.
pub(crate) fn read_papers(input: &mut dyn Read) -> Result<Vec<Paper>, String> {
    let mut out = Vec::new();
    for item in lines(input) {
        let (no, line) = item?;
        let mut parts = line.split_whitespace();
        let bad = || format!("line {no}: expected `paper authors citations`, got `{line}`");
        let paper: u64 = parts.next().and_then(|p| p.parse().ok()).ok_or_else(bad)?;
        let authors_field = parts.next().ok_or_else(bad)?;
        let citations: u64 = parts.next().and_then(|p| p.parse().ok()).ok_or_else(bad)?;
        if parts.next().is_some() {
            return Err(format!("line {no}: trailing tokens in `{line}`"));
        }
        let authors: Result<Vec<u64>, String> = authors_field
            .split(',')
            .map(|a| {
                a.parse::<u64>()
                    .map_err(|_| format!("line {no}: bad author id `{a}`"))
            })
            .collect();
        let authors = authors?;
        if authors.is_empty() {
            return Err(format!("line {no}: a paper needs at least one author"));
        }
        out.push(Paper::with_authors(paper, &authors, citations));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hindex_stream::AuthorId;

    fn cursor(s: &str) -> std::io::Cursor<Vec<u8>> {
        std::io::Cursor::new(s.as_bytes().to_vec())
    }

    #[test]
    fn counts_with_comments_and_blanks() {
        let mut input = cursor("10\n\n# header\n20 # trailing\n0\n");
        assert_eq!(read_counts(&mut input).unwrap(), vec![10, 20, 0]);
    }

    #[test]
    fn counts_bad_line_reports_number() {
        let mut input = cursor("1\nnope\n");
        let err = read_counts(&mut input).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn updates_parse() {
        let mut input = cursor("5 1\n5 3\n9 -2\n");
        assert_eq!(
            read_updates(&mut input).unwrap(),
            vec![(5, 1), (5, 3), (9, -2)]
        );
    }

    #[test]
    fn updates_trailing_tokens_rejected() {
        let mut input = cursor("5 1 7\n");
        assert!(read_updates(&mut input).unwrap_err().contains("trailing"));
    }

    #[test]
    fn papers_parse_multi_author() {
        let mut input = cursor("0 3 10\n1 4,5 7\n");
        let papers = read_papers(&mut input).unwrap();
        assert_eq!(papers.len(), 2);
        assert_eq!(papers[1].authors, vec![AuthorId(4), AuthorId(5)]);
        assert_eq!(papers[1].citations, 7);
    }

    #[test]
    fn papers_bad_author_rejected() {
        let mut input = cursor("0 x,2 5\n");
        assert!(read_papers(&mut input).unwrap_err().contains("bad author id"));
    }
}
