//! Output: host facts, peak memory, and the hand-written JSON the
//! benchmark prints (the workspace builds offline, without serde).

use std::fmt::Write;
use std::process::Command;

/// A JSON object under construction, keys in insertion order.
#[derive(Default)]
pub struct Obj {
    body: String,
}

impl Obj {
    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        self.body.push_str(&string(key));
        self.body.push_str(": ");
    }

    /// Adds a number; non-finite values become `null`.
    pub fn num(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        if value.is_finite() {
            write!(self.body, "{value}").expect("writing to a String cannot fail");
        } else {
            self.body.push_str("null");
        }
        self
    }

    /// Adds a string.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.body.push_str(&string(value));
        self
    }

    /// Adds already-encoded JSON.
    pub fn raw(mut self, key: &str, json: &str) -> Self {
        self.key(key);
        self.body.push_str(json);
        self
    }

    /// The finished object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON array of already-encoded values.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(", "))
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The first line a command prints, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit; a checkout without `.git` has none (and
/// git is not asked, so it cannot find an enclosing repository).
fn git_commit() -> String {
    if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".into()
    }
}

/// Host facts every result records.
pub fn host(seed: u64) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Obj::default()
        .num("nproc", cores() as f64)
        .str("cpu", &cpu)
        .str("rustc", &command_line("rustc", &["--version"]))
        .str("git_commit", &git_commit())
        .raw("seed", &seed.to_string())
        .finish()
}

/// The process's peak resident set so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_and_escapes() {
        let o = Obj::default()
            .num("a", 1.5)
            .str("b", "x\"y")
            .num("c", f64::NAN)
            .finish();
        assert_eq!(o, r#"{"a": 1.5, "b": "x\"y", "c": null}"#);
        assert_eq!(array(["1".to_string(), "2".to_string()]), "[1, 2]");
    }
}
