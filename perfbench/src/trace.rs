//! Spans: the benchmark's own, recorded in memory around each call it
//! makes into the program, and the serving tier's, read back from its
//! journals. Self time is a span's duration minus the part of it that its
//! children cover.

use sms_harness::json::{self, Json};
use std::collections::HashMap;
use std::path::Path;

/// One span on the wall-clock microsecond timebase the serving tier's
/// journals use.
#[derive(Debug, Clone)]
pub struct Span {
    pub span: String,
    pub parent: Option<String>,
    pub name: String,
    pub start_us: u64,
    pub dur_us: u64,
    pub attrs: Vec<(String, String)>,
}

impl Span {
    pub fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }

    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// Microseconds since the Unix epoch (the journals' span timebase).
pub fn wall_us() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_micros() as u64)
}

/// The part of `[start, end)` covered by the union of `intervals`.
pub fn covered_us(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        intervals.iter().map(|&(s, e)| (s.max(start), e.min(end))).filter(|(s, e)| s < e).collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match &mut cur {
            Some((_, ce)) if s <= *ce => *ce = (*ce).max(e),
            _ => {
                if let Some((cs, ce)) = cur {
                    total += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// A span's self time: its duration minus what its children cover.
pub fn self_us(span: &Span, children: &[&Span]) -> u64 {
    let iv: Vec<(u64, u64)> = children.iter().map(|c| (c.start_us, c.end_us())).collect();
    span.dur_us - covered_us(span.start_us, span.end_us(), &iv)
}

/// Reads every `span` event from a JSONL journal. Unreadable files and
/// non-span lines are skipped; a malformed span line is an error.
pub fn read_spans(path: &Path) -> Result<Vec<Span>, String> {
    let Ok(text) = std::fs::read_to_string(path) else { return Ok(Vec::new()) };
    let mut out = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let doc = json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
        let s = |k: &str| doc.get(k).and_then(Json::as_str).map(str::to_owned);
        if s("event").as_deref() != Some("span") {
            continue;
        }
        let bad = || format!("{}: malformed span line `{line}`", path.display());
        let attrs = match doc.get("attrs") {
            Some(Json::Obj(kv)) => kv
                .iter()
                .filter_map(|(k, v)| v.as_str().map(|v| (k.clone(), v.to_owned())))
                .collect(),
            _ => Vec::new(),
        };
        out.push(Span {
            span: s("span").ok_or_else(bad)?,
            parent: s("parent"),
            name: s("name").ok_or_else(bad)?,
            start_us: doc.u64_field("start_us").ok_or_else(bad)?,
            dur_us: doc.u64_field("dur_us").ok_or_else(bad)?,
            attrs,
        });
    }
    Ok(out)
}

/// Spans indexed by parent span id.
pub struct Tree<'a> {
    children: HashMap<&'a str, Vec<&'a Span>>,
}

impl<'a> Tree<'a> {
    pub fn new(spans: &'a [Span]) -> Self {
        let mut children: HashMap<&str, Vec<&Span>> = HashMap::new();
        for s in spans {
            if let Some(p) = &s.parent {
                children.entry(p.as_str()).or_default().push(s);
            }
        }
        Tree { children }
    }

    /// The children of span id `parent` named `name`.
    pub fn children(&self, parent: &str, name: &str) -> Vec<&'a Span> {
        self.children
            .get(parent)
            .map(|v| v.iter().copied().filter(|s| s.name == name).collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: &str, parent: Option<&str>, start: u64, dur: u64) -> Span {
        Span {
            span: id.to_owned(),
            parent: parent.map(str::to_owned),
            name: "x".to_owned(),
            start_us: start,
            dur_us: dur,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn covered_merges_overlaps_and_clips() {
        assert_eq!(covered_us(0, 100, &[(10, 20), (15, 30), (50, 60)]), 30);
        assert_eq!(covered_us(0, 100, &[(90, 150), (0, 5)]), 15);
        assert_eq!(covered_us(0, 100, &[]), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let parent = span("p", None, 100, 100);
        let a = span("a", Some("p"), 110, 30);
        let b = span("b", Some("p"), 120, 50);
        assert_eq!(self_us(&parent, &[&a, &b]), 40);
        let spans = vec![parent.clone(), a, b];
        let tree = Tree::new(&spans);
        assert_eq!(tree.children("p", "x").len(), 2);
        assert!(tree.children("a", "x").is_empty());
    }
}
