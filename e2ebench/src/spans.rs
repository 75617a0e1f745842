//! The benchmark's own in-memory span recorder.
//!
//! Spans are taken around calls into each layer from the benchmark's code
//! (never inside the program), kept in memory and written out once the
//! run ends. A disabled recorder costs one branch per span.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary name (`page`, `render`, `hook.inspect_batch`, …).
    pub name: &'static str,
    /// Page or request id shared by every span of one operation.
    pub id: u64,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds (0 while open).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A thread-safe span recorder; disabled recorders record nothing.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the recorder's origin to `t`.
    pub fn at_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting now; returns its index (`None` when disabled).
    pub fn open(&self, name: &'static str, id: u64, parent: Option<usize>) -> Option<usize> {
        self.enabled
            .then(|| self.push(name, id, self.now_ns(), 0, parent))
    }

    /// Closes an open span at the current time.
    pub fn close(&self, index: Option<usize>) {
        if let Some(i) = index {
            let end = self.now_ns();
            self.spans.lock().expect("span recorder")[i].end_ns = end;
        }
    }

    /// Records a finished span with explicit bounds.
    pub fn record(
        &self,
        name: &'static str,
        id: u64,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> Option<usize> {
        self.enabled
            .then(|| self.push(name, id, start_ns, end_ns, parent))
    }

    fn push(
        &self,
        name: &'static str,
        id: u64,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        let mut spans = self.spans.lock().expect("span recorder");
        spans.push(Span {
            name,
            id,
            start_ns,
            end_ns,
            parent,
        });
        spans.len() - 1
    }

    /// A copy of every recorded span.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder").clone()
    }

    /// Writes every span as one JSON array to `path`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.snapshot();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"i\":{i},\"name\":\"{}\",\"id\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}{sep}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Self time of a span: its duration minus the part of its interval that
/// the union of its children's intervals covers. Children may overlap each
/// other (concurrent raster workers) or stick out of the parent.
pub fn self_time_ns(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (ps, pe) = parent;
    if pe <= ps {
        return 0;
    }
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(ps), e.min(pe)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (pe - ps) - covered
}

/// The `(start, end)` intervals of each span's direct children, indexed
/// like `spans`.
pub fn children(spans: &[Span]) -> Vec<Vec<(u64, u64)>> {
    let mut children = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    children
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time_ns((0, 100), &[]), 100);
        assert_eq!(self_time_ns((0, 100), &[(10, 20), (30, 50)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time_ns((0, 100), &[(10, 40), (20, 50), (45, 60)]), 50);
        // Nested children count once.
        assert_eq!(self_time_ns((0, 100), &[(10, 90), (20, 30)]), 20);
        // Children are clipped to the parent.
        assert_eq!(self_time_ns((10, 20), &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time_ns((10, 20), &[(30, 40)]), 10);
        // Fully covered parent.
        assert_eq!(self_time_ns((10, 20), &[(0, 40)]), 0);
        // Touching children merge without double counting.
        assert_eq!(self_time_ns((0, 10), &[(0, 5), (5, 10)]), 0);
        // Degenerate parent.
        assert_eq!(self_time_ns((5, 5), &[(0, 10)]), 0);
    }

    #[test]
    fn self_times_follow_parent_links() {
        let rec = Spans::new(true);
        let page = rec.record("page", 1, 0, 100, None).unwrap();
        let render = rec.record("render", 1, 10, 90, Some(page)).unwrap();
        rec.record("hook.inspect_batch", 1, 20, 40, Some(render));
        rec.record("hook.inspect", 1, 30, 50, Some(render));
        let spans = rec.snapshot();
        let kids = children(&spans);
        let self_of = |i: usize| self_time_ns((spans[i].start_ns, spans[i].end_ns), &kids[i]);
        // The render's children overlap: 20..50 is covered once.
        assert_eq!(self_of(render), 50);
        // The page only subtracts its direct child, the render.
        assert_eq!(self_of(page), 20);
        assert_eq!(spans[render].duration_ns(), 80);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Spans::new(false);
        let s = rec.open("page", 1, None);
        assert_eq!(s, None);
        rec.close(s);
        assert!(rec.record("x", 1, 0, 1, None).is_none());
        assert!(rec.snapshot().is_empty());
    }
}
