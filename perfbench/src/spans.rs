//! Span trees from recorded begin/end events, and self time per span
//! name.
//!
//! A span's self time is its duration minus the part of it that its
//! direct children cover. Summing self time over every span of a tree
//! gives the root's duration exactly, so a layer's time is never
//! counted twice, even when a span nests inside another span of the
//! same name or layer (`pablo.gravity` inside `pablo.cluster`, say).

use std::collections::BTreeMap;

/// One begin (`B`) or end (`E`) event, as the trace buffer records it.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Span name.
    pub name: String,
    /// `'B'` or `'E'`; anything else is ignored.
    pub ph: char,
    /// Microseconds from an arbitrary per-run origin.
    pub ts_us: f64,
    /// Recording thread.
    pub tid: u64,
}

/// A closed span with its position in the tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name.
    pub name: String,
    /// Start, microseconds.
    pub start_us: f64,
    /// End, microseconds.
    pub end_us: f64,
    /// Index of the enclosing span in the same list, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in microseconds.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Pairs begin and end events per thread into closed spans, in
/// begin order. An end without a matching begin, or a begin never
/// closed, is an error: the recording is incomplete.
pub fn build(events: &[Event]) -> Result<Vec<Span>, String> {
    let mut spans: Vec<Span> = Vec::new();
    let mut open: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for e in events {
        let stack = open.entry(e.tid).or_default();
        match e.ph {
            'B' => {
                spans.push(Span {
                    name: e.name.clone(),
                    start_us: e.ts_us,
                    end_us: f64::NAN,
                    parent: stack.last().copied(),
                });
                stack.push(spans.len() - 1);
            }
            'E' => {
                let i = stack
                    .pop()
                    .ok_or_else(|| format!("span `{}` ends but never began", e.name))?;
                if spans[i].name != e.name {
                    return Err(format!("span `{}` ends inside `{}`", e.name, spans[i].name));
                }
                spans[i].end_us = e.ts_us;
            }
            _ => {}
        }
    }
    match open.values().flatten().next() {
        Some(&i) => Err(format!("span `{}` never ended", spans[i].name)),
        None => Ok(spans),
    }
}

/// Time accounted to one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTime {
    /// Spans of this name.
    pub count: usize,
    /// Sum of self time, microseconds.
    pub self_us: f64,
    /// Wall time covered by spans of this name, microseconds: spans
    /// nested inside a span of the same name are not added again.
    pub total_us: f64,
}

/// Self and covered time per span name.
pub fn times_by_name(spans: &[Span]) -> BTreeMap<String, NameTime> {
    let mut child_us = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_us[p] += s.dur_us();
        }
    }
    let mut out: BTreeMap<String, NameTime> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let t = out.entry(s.name.clone()).or_default();
        t.count += 1;
        t.self_us += s.dur_us() - child_us[i];
        if !has_ancestor_named(spans, i, &s.name) {
            t.total_us += s.dur_us();
        }
    }
    out
}

fn has_ancestor_named(spans: &[Span], mut i: usize, name: &str) -> bool {
    while let Some(p) = spans[i].parent {
        if spans[p].name == name {
            return true;
        }
        i = p;
    }
    false
}

/// Durations in microseconds of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_us)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, ph: char, ts: f64) -> Event {
        Event {
            name: name.to_owned(),
            ph,
            ts_us: ts,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        // place [0, 100] > cluster [10, 60] > gravity [20, 50];
        // place > terminal [70, 80].
        let spans = build(&[
            ev("place", 'B', 0.0),
            ev("cluster", 'B', 10.0),
            ev("gravity", 'B', 20.0),
            ev("gravity", 'E', 50.0),
            ev("cluster", 'E', 60.0),
            ev("terminal", 'B', 70.0),
            ev("terminal", 'E', 80.0),
            ev("place", 'E', 100.0),
        ])
        .unwrap();
        let t = times_by_name(&spans);
        assert_eq!(t["place"].self_us, 100.0 - 50.0 - 10.0);
        assert_eq!(t["cluster"].self_us, 50.0 - 30.0);
        assert_eq!(t["gravity"].self_us, 30.0);
        assert_eq!(t["terminal"].self_us, 10.0);
        let sum: f64 = t.values().map(|x| x.self_us).sum();
        assert_eq!(sum, 100.0, "self times partition the root");
    }

    #[test]
    fn same_name_nesting_is_not_counted_twice() {
        // gravity [0, 40] > gravity [5, 25] > gravity [10, 15], then a
        // sibling gravity [50, 60].
        let spans = build(&[
            ev("gravity", 'B', 0.0),
            ev("gravity", 'B', 5.0),
            ev("gravity", 'B', 10.0),
            ev("gravity", 'E', 15.0),
            ev("gravity", 'E', 25.0),
            ev("gravity", 'E', 40.0),
            ev("gravity", 'B', 50.0),
            ev("gravity", 'E', 60.0),
        ])
        .unwrap();
        let t = times_by_name(&spans)["gravity"];
        assert_eq!(t.count, 4);
        assert_eq!(t.self_us, 50.0);
        assert_eq!(t.total_us, 50.0);
        assert_eq!(durations(&spans, "gravity"), vec![40.0, 20.0, 5.0, 10.0]);
    }

    #[test]
    fn threads_nest_independently() {
        let mut other = ev("b", 'B', 5.0);
        other.tid = 2;
        let mut other_end = ev("b", 'E', 500.0);
        other_end.tid = 2;
        let spans = build(&[ev("a", 'B', 0.0), other, ev("a", 'E', 10.0), other_end]).unwrap();
        assert_eq!(
            spans[1].parent, None,
            "a span on another thread is no child"
        );
        let t = times_by_name(&spans);
        assert_eq!(t["a"].self_us, 10.0);
        assert_eq!(t["b"].self_us, 495.0);
    }

    #[test]
    fn unbalanced_recordings_are_rejected() {
        assert!(build(&[ev("a", 'B', 0.0)]).is_err());
        assert!(build(&[ev("a", 'E', 0.0)]).is_err());
        assert!(build(&[ev("a", 'B', 0.0), ev("b", 'B', 1.0), ev("a", 'E', 2.0)]).is_err());
    }
}
