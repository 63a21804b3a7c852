//! Wall-clock spans recorded around the calls into each layer.
//!
//! A span has a layer name, a start and an end (ns since the recorder
//! was created), the span that caused it, and the op it belongs to.
//! Spans stay in memory during the run; [`Recorder::write_tsv`] writes
//! them out at the end. A span's *self time* is its duration minus the
//! part of its interval that its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Recorder`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer (or phase) name, e.g. `engine`.
    pub name: &'static str,
    /// The op this span belongs to.
    pub op: u64,
    /// The span that caused this one; `None` for a root.
    pub parent: Option<SpanId>,
    /// Start, ns since the recorder's epoch.
    pub start: u64,
    /// End, ns since the recorder's epoch (equal to `start` while open).
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty log whose epoch is now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// ns since the epoch.
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span starting now.
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<SpanId>) -> SpanId {
        let now = self.now();
        self.push(name, op, parent, now, now)
    }

    /// Closes `id` now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end = self.now();
    }

    /// Records a span whose bounds were taken elsewhere.
    pub fn push(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        start: u64,
        end: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            op,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Every span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as tab-separated lines:
    /// `id parent op name start_ns end_ns`, parent `-` for roots.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating or writing `path`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                span.op, span.name, span.start, span.end
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, in ns, indexed like `spans`: its duration
/// minus the union of its children's intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration() - covered
        })
        .collect()
}

/// Total self time and span count per name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Sum of self times, ns.
    pub self_ns: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Number of spans.
    pub spans: u64,
}

/// [`LayerTime`] per span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let selfs = self_times(spans);
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (span, own) in spans.iter().zip(selfs) {
        let entry = layers.entry(span.name).or_default();
        entry.self_ns += own;
        entry.total_ns += span.duration();
        entry.spans += 1;
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100] > session [10,90] > traffic [20,30], engine [40,70]
        let spans = vec![
            span("op", None, 0, 100),
            span("session", Some(0), 10, 90),
            span("traffic", Some(1), 20, 30),
            span("engine", Some(1), 40, 70),
        ];
        assert_eq!(self_times(&spans), vec![20, 40, 10, 30]);
        let layers = by_name(&spans);
        assert_eq!(layers["session"].self_ns, 40);
        assert_eq!(layers["session"].total_ns, 80);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children overlap each other ([10,40] and [30,50]) and one
        // overhangs the parent's end ([90,120]).
        let spans = vec![
            span("op", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 50),
            span("c", Some(0), 90, 120),
        ];
        // Covered: [10,50] + [90,100] = 50.
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn aggregates_repeated_names() {
        let spans = vec![
            span("op", None, 0, 50),
            span("engine", Some(0), 0, 10),
            span("engine", Some(0), 20, 25),
            span("op", None, 60, 70),
        ];
        let layers = by_name(&spans);
        assert_eq!(
            layers["engine"],
            LayerTime {
                self_ns: 15,
                total_ns: 15,
                spans: 2
            }
        );
        assert_eq!(layers["op"].self_ns, 35 + 10);
        assert_eq!(layers["op"].spans, 2);
    }

    #[test]
    fn recorder_nests_and_writes() {
        let mut rec = Recorder::new();
        let op = rec.open("op", 3, None);
        let child = rec.open("engine", 3, Some(op));
        rec.close(child);
        rec.close(op);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let dir = std::env::temp_dir().join(format!("simbench-span-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.tsv");
        rec.write_tsv(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text
            .lines()
            .nth(2)
            .unwrap()
            .starts_with("1\t0\t3\tengine\t"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
