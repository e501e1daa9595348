//! Stream-file parsing.
//!
//! # Line grammar
//!
//! Every reader here accepts the same lines:
//!
//! * a line ends at `\n`; the last line may lack it;
//! * everything from the first `#` on is a comment;
//! * what is left, with leading and trailing whitespace removed, is
//!   either empty (the line is skipped) or a record of fields separated
//!   by whitespace. Whitespace is Unicode `White_Space`, so `\r`,
//!   `\x0b`, `\x0c`, NBSP and U+3000 count, and CRLF files read like LF
//!   files;
//! * a number is what `str::parse` takes: ASCII decimal digits with an
//!   optional leading `+` (or `-` for a signed field), within `u64`
//!   (`i64` for a delta);
//! * line numbers in error messages count every line, blank and
//!   comment lines included. A line that is not valid UTF-8 is an
//!   error, even inside a comment.
//!
//! The records are:
//!
//! * counts (`read_counts`, `hindex agg`): `count`;
//! * updates ([`read_updates`]; `cash`, `engine`, `metrics`,
//!   `snapshot`, `restore`): `paper_id delta`;
//! * papers (`read_papers`, `hindex hh`):
//!   `paper_id author[,author…] citations`.
//!
//! Lines are read in place from the reader's buffer: one walker hands
//! each line out as a borrowed byte slice and copies only a line that
//! straddles a refill. [`read_updates`] takes the plain shape
//! `[ \t]*digits[ \t]+-?digits[ \t\r]*` in one pass over the bytes;
//! every other line goes through the general `&str` path above, so
//! both give the same values, line numbers and messages.

use hindex_stream::Paper;
use std::io::{BufRead, BufReader, ErrorKind, Read};

/// Reads `input` to its end and calls `f(line_no, line)` on every
/// line, without its `\n`. The line borrows the read buffer; only a
/// line that straddles a refill is assembled in a carry buffer. Stops
/// at the first error, from the reader or from `f`.
fn for_each_line(
    input: &mut dyn Read,
    mut f: impl FnMut(usize, &[u8]) -> Result<(), String>,
) -> Result<(), String> {
    let mut reader = BufReader::new(input);
    let mut carry: Vec<u8> = Vec::new();
    let mut no = 0;
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("I/O error on line {}: {e}", no + 1)),
        };
        if buf.is_empty() {
            return if carry.is_empty() { Ok(()) } else { f(no + 1, &carry) };
        }
        let mut rest = buf;
        while let Some(end) = find_newline(rest) {
            no += 1;
            if carry.is_empty() {
                f(no, &rest[..end])?;
            } else {
                carry.extend_from_slice(&rest[..end]);
                f(no, &carry)?;
                carry.clear();
            }
            rest = &rest[end + 1..];
        }
        carry.extend_from_slice(rest);
        let used = buf.len();
        reader.consume(used);
    }
}

/// The index of the first `\n` in `s`. Lines are short, so it tests
/// eight bytes at a time: a byte loop's exit branch would mispredict on
/// almost every line.
fn find_newline(s: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_ne_bytes([b'\n'; 8]);
    let mut words = s.chunks_exact(8);
    for (k, chunk) in words.by_ref().enumerate() {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        // `\n` bytes become zero bytes. Through its borrow, the zero-byte
        // test can also flag a byte after a zero byte, never one before
        // it, so its lowest flag (the first in memory) is exact.
        let x = u64::from_le_bytes(word) ^ NEWLINES;
        let zeros = x.wrapping_sub(ONES) & !x & HIGHS;
        if zeros != 0 {
            return Some(8 * k + zeros.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let at = s.len() - tail.len();
    tail.iter().position(|&b| b == b'\n').map(|i| at + i)
}

/// The record on line `no`: the text before any `#`, trimmed, or
/// `None` for a blank or comment-only line.
///
/// # Errors
///
/// A line that is not valid UTF-8.
fn record(no: usize, line: &[u8]) -> Result<Option<&str>, String> {
    let text = std::str::from_utf8(line)
        .map_err(|_| format!("I/O error on line {no}: stream did not contain valid UTF-8"))?;
    let record = text.split('#').next().unwrap_or("").trim();
    Ok((!record.is_empty()).then_some(record))
}

/// Parses an aggregate stream: one citation count per line.
///
/// # Errors
///
/// Reports the offending line number on malformed input.
pub(crate) fn read_counts(input: &mut dyn Read) -> Result<Vec<u64>, String> {
    let mut out = Vec::new();
    for_each_line(input, |no, line| {
        if let Some(line) = record(no, line)? {
            let v: u64 = line
                .parse()
                .map_err(|_| format!("line {no}: expected a count, got `{line}`"))?;
            out.push(v);
        }
        Ok(())
    })?;
    Ok(out)
}

/// Parses a cash-register stream: `paper_id delta` per line (delta may
/// be negative — those lines are rejected by the non-turnstile path at
/// command level). See the module doc for the line grammar.
///
/// # Errors
///
/// Reports the offending line number on malformed input.
pub fn read_updates(input: &mut dyn Read) -> Result<Vec<(u64, i64)>, String> {
    let mut out = Vec::new();
    for_each_line(input, |no, line| {
        if let Some(update) = plain_update(line) {
            out.push(update);
        } else if let Some(line) = record(no, line)? {
            out.push(parse_update(no, line)?);
        }
        Ok(())
    })?;
    Ok(out)
}

/// Parses a cash-register stream for `command`, which ingests no
/// retractions, as `(paper_id, delta)` with unsigned deltas.
///
/// # Errors
///
/// Malformed input, or a negative delta.
pub(crate) fn read_cash_register(
    input: &mut dyn Read,
    command: &str,
) -> Result<Vec<(u64, u64)>, String> {
    // Same element size, so the collect reuses the parsed vector.
    read_updates(input)?
        .into_iter()
        .map(|(paper, delta)| u64::try_from(delta).map(|delta| (paper, delta)))
        .collect::<Result<_, _>>()
        .map_err(|_| {
            format!(
                "{command} ingests cash-register streams only (no negative deltas); \
                 use `hindex cash` for turnstile data"
            )
        })
}

/// The byte fast path of [`read_updates`]: one pass over a line of the
/// shape `[ \t]*digits[ \t]+-?digits[ \t\r]*`, with checked arithmetic.
/// `None` (another shape, or a number that does not fit) sends the line
/// to the general path, which parses every line this accepts to the
/// same update.
fn plain_update(line: &[u8]) -> Option<(u64, i64)> {
    let blank = |b: &u8| *b == b' ' || *b == b'\t';
    let mut bytes = line.iter().copied();
    let first = bytes.find(|b| !blank(b))?;
    let (paper, after) = digit_run(first, &mut bytes)?;
    if !blank(&after?) {
        return None;
    }
    let mut next = bytes.find(|b| !blank(b))?;
    let negative = next == b'-';
    if negative {
        next = bytes.next()?;
    }
    let (magnitude, after) = digit_run(next, &mut bytes)?;
    let delta = if negative {
        0i64.checked_sub_unsigned(magnitude)?
    } else {
        i64::try_from(magnitude).ok()?
    };
    after
        .into_iter()
        .chain(bytes)
        .all(|b| matches!(b, b' ' | b'\t' | b'\r'))
        .then_some((paper, delta))
}

/// The run of ASCII digits that starts with `first` and continues in
/// `bytes`, as a `u64`, and the byte that ends it (`None` at the end of
/// the line). `None` when `first` is not a digit or the run overflows.
fn digit_run(first: u8, bytes: &mut impl Iterator<Item = u8>) -> Option<(u64, Option<u8>)> {
    if !first.is_ascii_digit() {
        return None;
    }
    let mut v = u64::from(first - b'0');
    for b in bytes.by_ref() {
        if !b.is_ascii_digit() {
            return Some((v, Some(b)));
        }
        v = v.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
    }
    Some((v, None))
}

/// The general path of [`read_updates`], on a trimmed record.
fn parse_update(no: usize, line: &str) -> Result<(u64, i64), String> {
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
    Ok((paper, delta))
}

/// Parses a paper stream: `paper_id author[,author…] citations` per
/// line.
///
/// # Errors
///
/// Reports the offending line number on malformed input.
pub(crate) fn read_papers(input: &mut dyn Read) -> Result<Vec<Paper>, String> {
    let mut out = Vec::new();
    for_each_line(input, |no, line| {
        let Some(line) = record(no, line)? else {
            return Ok(());
        };
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
        Ok(())
    })?;
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

    /// The readers as they were before the in-place walker:
    /// `BufRead::lines`, then the `&str` logic on every line. The
    /// property tests below hold the walker to them.
    mod reference {
        use hindex_stream::Paper;
        use std::io::{BufRead, BufReader, Read};

        fn lines(
            input: &mut dyn Read,
        ) -> impl Iterator<Item = Result<(usize, String), String>> + '_ {
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

        pub(super) fn read_counts(input: &mut dyn Read) -> Result<Vec<u64>, String> {
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

        pub(super) fn read_updates(input: &mut dyn Read) -> Result<Vec<(u64, i64)>, String> {
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

        pub(super) fn read_papers(input: &mut dyn Read) -> Result<Vec<Paper>, String> {
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
    }

    /// A reader that hands out 1–7 bytes per call, sometimes reports
    /// `Interrupted` first, and fails with a non-retryable error once
    /// it has handed out `fail_at` bytes.
    struct Trickle<'a> {
        data: &'a [u8],
        at: usize,
        state: u64,
        fail_at: Option<usize>,
    }

    impl<'a> Trickle<'a> {
        fn new(data: &'a [u8], seed: u64) -> Self {
            Self { data, at: 0, state: seed, fail_at: None }
        }

        fn failing_at(data: &'a [u8], seed: u64, fail_at: usize) -> Self {
            Self { fail_at: Some(fail_at), ..Self::new(data, seed) }
        }
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            // SplitMix64 step: the size of this read.
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            if z.is_multiple_of(8) {
                return Err(ErrorKind::Interrupted.into());
            }
            let mut end = self.data.len().min(self.at + (z % 7) as usize + 1);
            if let Some(fail_at) = self.fail_at {
                if self.at >= fail_at {
                    return Err(std::io::Error::other("device went away"));
                }
                end = end.min(fail_at);
            }
            let n = (end - self.at).min(buf.len());
            buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    /// Every reader gives exactly the reference's result on the bytes
    /// `make` reads.
    fn assert_readers_agree<R: Read>(make: impl Fn() -> R) {
        assert_eq!(read_counts(&mut make()), reference::read_counts(&mut make()));
        assert_eq!(read_updates(&mut make()), reference::read_updates(&mut make()));
        assert_eq!(read_papers(&mut make()), reference::read_papers(&mut make()));
    }

    /// A field: mostly a small number, sometimes an extreme, a sign, a
    /// comma list or junk.
    fn field(choice: u8, value: u64, out: &mut Vec<u8>) {
        let text = match choice {
            0..=149 => (value % 1000).to_string(),
            150..=169 => value.to_string(),
            170..=174 => format!("{},{}", value % 50, value % 7),
            175 => u64::MAX.to_string(),
            176 => "18446744073709551616".into(),
            177 => i64::MAX.to_string(),
            178 => "9223372036854775808".into(),
            179 => i64::MIN.to_string(),
            180 => "-9223372036854775809".into(),
            181..=190 => format!("-{}", value % 1000),
            191..=195 => format!("+{}", value % 1000),
            196 => "-".into(),
            197 => "+".into(),
            198 => "-0".into(),
            199 => "007".into(),
            200 => "123456789012345678901234567890".into(),
            201 => "x".into(),
            202 => "4,".into(),
            203 => ",".into(),
            204 => {
                out.push(0xff);
                return;
            }
            205 => {
                out.extend_from_slice(b"1\xc3");
                return;
            }
            _ => format!("{}", value % 100),
        };
        out.extend_from_slice(text.as_bytes());
    }

    /// A gap between fields: mostly spaces and tabs, sometimes other
    /// whitespace, a comment or nothing.
    fn gap(choice: u8, out: &mut Vec<u8>) {
        let piece: &[u8] = match choice {
            0..=119 => b" ",
            120..=159 => b"\t",
            160..=179 => b" \t  ",
            180..=184 => b"\x0b",
            185..=189 => b"\x0c",
            190..=194 => b"\r",
            195..=199 => "\u{a0}".as_bytes(),
            200..=204 => "\u{3000}".as_bytes(),
            205..=209 => b" # note ",
            210..=214 => b"#",
            215..=219 => b"",
            _ => b"  ",
        };
        out.extend_from_slice(piece);
    }

    /// Leading or trailing whitespace of a line: mostly none.
    fn edge(choice: u8, out: &mut Vec<u8>) {
        if choice >= 160 {
            gap(choice, out);
        }
    }

    /// Builds a stream from drawn `(choice, value)` slots, nine per
    /// line: shape, leading edge, three fields with two gaps, trailing
    /// edge, line end. Most lines have `arity` fields, so each reader
    /// sees long runs it accepts before a line it rejects.
    fn stream(arity: usize, lines: &[Vec<(u8, u64)>], final_newline: bool) -> Vec<u8> {
        let mut out = Vec::new();
        for (k, slots) in lines.iter().enumerate() {
            let slot = |i: usize| slots.get(i).copied().unwrap_or((0, 0));
            let (shape, _) = slot(0);
            let fields = match shape {
                0..=214 => arity,
                215..=224 => 0,
                225..=234 => {
                    out.extend_from_slice(b"# comment only");
                    0
                }
                235..=244 => {
                    out.extend_from_slice(b" \t\r");
                    0
                }
                _ => 1 + usize::from(shape % 3),
            };
            if fields > 0 {
                edge(slot(1).0, &mut out);
                for i in 0..fields {
                    if i > 0 {
                        gap(slot(2 + 2 * i).0, &mut out);
                    }
                    let (choice, value) = slot(3 + 2 * i);
                    // The middle field of a paper line is its authors.
                    let choice = if arity == 3 && i == 1 && choice < 150 { 170 } else { choice };
                    field(choice, value, &mut out);
                }
                edge(slot(7).0, &mut out);
            }
            if k + 1 < lines.len() || final_newline {
                let end: &[u8] = if slot(8).0 < 224 { b"\n" } else { b"\r\n" };
                out.extend_from_slice(end);
            }
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]

        #[test]
        fn prop_readers_match_the_reference(
            arity in 1usize..4,
            lines in proptest::collection::vec(
                proptest::collection::vec((proptest::num::u8::ANY, proptest::num::u64::ANY), 9..10),
                0..24,
            ),
            final_newline in proptest::bool::ANY,
            seed in proptest::num::u64::ANY,
        ) {
            let bytes = stream(arity, &lines, final_newline);
            assert_readers_agree(|| Trickle::new(&bytes, seed));
            assert_readers_agree(|| &bytes[..]);
        }

        #[test]
        fn prop_find_newline_matches_position(
            picks in proptest::collection::vec(0usize..8, 0..40),
        ) {
            // Bytes next to `\n` in value, and the zero-byte test's
            // borrow cases.
            let bytes: Vec<u8> =
                picks.iter().map(|&k| [b'\n', 0x0b, 0x09, 0x8a, 0x00, 0x01, 0xff, b'7'][k]).collect();
            proptest::prop_assert_eq!(
                find_newline(&bytes),
                bytes.iter().position(|&b| b == b'\n')
            );
        }
    }

    #[test]
    fn reader_error_mid_stream_matches_the_reference() {
        let text = b"1 5\n2 -4\n# note\n\n3\t3\r\n4 2 # two\n5 1";
        for fail_at in 0..=text.len() {
            for seed in 0..4 {
                assert_readers_agree(|| Trickle::failing_at(text, seed, fail_at));
            }
        }
    }
}
