//! The committed baseline of grandfathered findings.
//!
//! Format (one entry per line, `#`-lines and blanks ignored):
//!
//! ```text
//! L9|crates/engine/src/faults.rs|panic!  # the injected kill is the product
//! ```
//!
//! The part before ` # ` is a [`crate::Finding::key`]; the part after
//! is a **mandatory justification**. Keys are content-derived (no line
//! numbers), so entries survive edits elsewhere in the file; a key that
//! no longer matches any finding is reported as *stale* and fails the
//! run, so the file cannot silently rot — fixing a finding and deleting
//! its suppression are one change, not two.

use crate::Finding;

/// One parsed baseline entry.
#[derive(Debug, Clone)]
pub struct Entry {
    /// The finding key this entry silences.
    pub key: String,
    /// Why the finding is accepted (empty = unjustified, an error).
    pub justification: String,
    /// 1-based line in the baseline file, for diagnostics.
    pub line: u32,
}

/// A parsed baseline file.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    /// All entries in file order.
    pub entries: Vec<Entry>,
}

impl Baseline {
    /// Parses baseline text. Never fails: malformed lines become
    /// unjustified entries, which the run then rejects loudly.
    #[must_use]
    pub fn parse(text: &str) -> Self {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, justification) = match line.split_once(" # ") {
                Some((k, j)) => (k.trim_end(), j.trim()),
                None => (line, ""),
            };
            entries.push(Entry {
                key: key.to_string(),
                justification: justification.to_string(),
                line: (idx + 1) as u32,
            });
        }
        Self { entries }
    }
}

/// The result of subtracting a baseline from a finding list.
#[derive(Debug)]
pub struct Applied {
    /// Findings not covered by the baseline — these fail the run.
    pub new: Vec<Finding>,
    /// Number of findings silenced by baseline entries.
    pub silenced: usize,
    /// Baseline entries whose key matched no finding (fail the run).
    pub stale: Vec<Entry>,
    /// Baseline entries with an empty justification (fail the run).
    pub unjustified: Vec<Entry>,
}

/// Splits `findings` into new vs baselined and audits the baseline
/// itself for stale or unjustified entries.
#[must_use]
pub fn apply(baseline: &Baseline, findings: Vec<Finding>) -> Applied {
    let mut used = vec![false; baseline.entries.len()];
    let mut new = Vec::new();
    let mut silenced = 0usize;
    for finding in findings {
        let key = finding.key();
        match baseline.entries.iter().position(|e| e.key == key) {
            Some(i) => {
                used[i] = true;
                silenced += 1;
            }
            None => new.push(finding),
        }
    }
    let stale = baseline
        .entries
        .iter()
        .zip(&used)
        .filter(|(_, &u)| !u)
        .map(|(e, _)| e.clone())
        .collect();
    let unjustified = baseline
        .entries
        .iter()
        .filter(|e| e.justification.is_empty())
        .cloned()
        .collect();
    Applied {
        new,
        silenced,
        stale,
        unjustified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(lint: &'static str, file: &str, snippet: &str) -> Finding {
        Finding::new(lint, file, 10, snippet, "msg".into(), None)
    }

    #[test]
    fn parse_skips_comments_and_requires_justification() {
        let b = Baseline::parse(
            "# header comment\n\
             \n\
             L9|a.rs|unwrap()  # legacy, tracked in ROADMAP\n\
             L1|b.rs|x * MERSENNE_P\n",
        );
        assert_eq!(b.entries.len(), 2);
        assert_eq!(b.entries[0].key, "L9|a.rs|unwrap()");
        assert_eq!(b.entries[0].justification, "legacy, tracked in ROADMAP");
        assert!(b.entries[1].justification.is_empty());
    }

    #[test]
    fn apply_partitions_and_flags_stale() {
        let b = Baseline::parse(
            "L9|a.rs|unwrap()  # ok\n\
             L9|gone.rs|expect(\"old\")  # fixed long ago\n",
        );
        let applied = apply(
            &b,
            vec![finding("L9", "a.rs", "unwrap()"), finding("L9", "c.rs", "panic!")],
        );
        assert_eq!(applied.silenced, 1);
        assert_eq!(applied.new.len(), 1);
        assert_eq!(applied.new[0].file, "c.rs");
        assert_eq!(applied.stale.len(), 1);
        assert_eq!(applied.stale[0].key, "L9|gone.rs|expect(\"old\")");
        assert!(applied.unjustified.is_empty());
    }

    #[test]
    fn keys_are_line_number_free() {
        let a = Finding::new("L9", "a.rs", 10, "unwrap()", "m".into(), None);
        let b = Finding::new("L9", "a.rs", 99, "unwrap()", "m".into(), None);
        assert_eq!(a.key(), b.key());
    }
}
