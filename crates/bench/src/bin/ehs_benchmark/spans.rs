//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name (the layer and call, e.g. `sim.run`), an op id
//! (the program, point set or figure it worked on), start and end times
//! relative to the recorder's creation, and the span that was open when
//! it began. Spans are kept in memory and written out once, at the end
//! of a traced run. Only the thread driving the workload records spans,
//! so children of a span never overlap each other, and a span's self
//! time is its duration minus its children's durations.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::{Content, Serialize};

/// One closed (or still open) span.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub op: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The recorder. Disabled, `enter`/`exit` cost one branch each.
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that starts disabled.
    pub fn new() -> Spans {
        Spans {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off between root spans.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled tracing inside a span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: &str) {
        if !self.on {
            return;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            op: op.to_owned(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Self time of every span, indexed by span id.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Total self time per span name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut by = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            *by.entry(s.name).or_insert(0) += own;
        }
        by
    }

    /// Share of the root spans' time that no child span accounts for:
    /// the part of a measured unit the trace leaves unexplained. Zero
    /// when nothing was recorded.
    pub fn unattributed_share(&self) -> f64 {
        let own = self.self_ns();
        let (mut root_total, mut root_self) = (0u64, 0u64);
        for s in self.spans.iter().filter(|s| s.parent.is_none()) {
            root_total += s.dur_ns();
            root_self += own[s.id];
        }
        if root_total == 0 {
            0.0
        } else {
            root_self as f64 / root_total as f64
        }
    }

    /// The trace file: every span with its self time, plus self time
    /// per span name.
    pub fn to_json(&self, workload: &str) -> String {
        let rows = self
            .spans
            .iter()
            .zip(self.self_ns())
            .map(|(span, self_ns)| {
                let mut row = span.to_content();
                if let Content::Map(fields) = &mut row {
                    fields.push(("self_ns".to_owned(), self_ns.to_content()));
                }
                row
            })
            .collect();
        let file = Content::Map(vec![
            ("workload".to_owned(), workload.to_content()),
            (
                "unattributed_share".to_owned(),
                self.unattributed_share().to_content(),
            ),
            (
                "self_ns_by_name".to_owned(),
                self.self_by_name().to_content(),
            ),
            ("spans".to_owned(), Content::Seq(rows)),
        ]);
        serde_json::to_string_pretty(&file).expect("trace serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new();
        s.enter("a", "x");
        s.exit();
        assert!(s.spans.is_empty());
        assert_eq!(s.unattributed_share(), 0.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new();
        s.set_on(true);
        s.enter("root", "r");
        s.enter("child", "c1");
        s.exit();
        s.enter("child", "c2");
        s.enter("grandchild", "g");
        s.exit();
        s.exit();
        s.exit();
        let spans = s.spans.clone();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        let own = s.self_ns();
        assert_eq!(
            own[0],
            spans[0].dur_ns() - spans[1].dur_ns() - spans[2].dur_ns()
        );
        assert_eq!(own[2], spans[2].dur_ns() - spans[3].dur_ns());
        let total: u64 = own.iter().sum();
        assert_eq!(total, spans[0].dur_ns(), "self times partition the root");
        let share = s.unattributed_share();
        assert!((0.0..=1.0).contains(&share));
        assert!(s.to_json("w").contains("\"grandchild\""));
    }
}
