//! ASCII rendering of grids, placements, and the paths held in one slot — for
//! examples, debugging, and documentation.
//!
//! Tiles render as a 2-character cell (`q7`, `..` when empty); channel
//! vertices render as `+` (free) or the path label occupying them.

use crate::metrics::Interval;
use crate::report::Table;
use autobraid_lattice::{Grid, Vertex};
use autobraid_placement::Placement;
use autobraid_telemetry::TelemetrySnapshot;
use std::collections::HashMap;

/// Renders the tile grid with its qubit placement.
///
/// # Examples
///
/// ```
/// use autobraid_lattice::Grid;
/// use autobraid_placement::Placement;
/// use autobraid::render::render_placement;
///
/// let grid = Grid::with_capacity_for(4);
/// let p = Placement::row_major(&grid, 4);
/// let art = render_placement(&grid, &p);
/// assert!(art.contains("q0"));
/// assert!(art.contains("q3"));
/// ```
pub fn render_placement(grid: &Grid, placement: &Placement) -> String {
    render(grid, placement, &HashMap::new())
}

/// Renders the paths held in `slot`: qubit tiles plus the vertices of
/// every interval running in that slot that holds a path, marked with a
/// label (`a`, `b`, … in record order).
pub fn render_slot(
    grid: &Grid,
    placement: &Placement,
    intervals: &[Interval],
    slot: u64,
) -> String {
    let mut occupied: HashMap<Vertex, char> = HashMap::new();
    let held = intervals
        .iter()
        .filter(|i| i.start_slot <= slot && slot < i.finish_slot())
        .filter_map(Interval::path);
    for (i, path) in held.enumerate() {
        for &v in path.vertices() {
            occupied.insert(v, label_for(i));
        }
    }
    render(grid, placement, &occupied)
}

fn label_for(i: usize) -> char {
    let letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
    letters
        .chars()
        .nth(i % letters.len())
        .expect("alphabet is non-empty")
}

fn render(grid: &Grid, placement: &Placement, occupied: &HashMap<Vertex, char>) -> String {
    let l = grid.cells_per_side();
    let mut out = String::new();
    for vr in 0..=l {
        // Vertex row: vertices and horizontal channel segments.
        for vc in 0..=l {
            let v = Vertex::new(vr, vc);
            match occupied.get(&v) {
                Some(&label) => out.push(label),
                None => out.push('+'),
            }
            if vc < l {
                out.push_str("----");
            }
        }
        out.push('\n');
        // Cell row: tiles between vertical channel segments.
        if vr < l {
            for vc in 0..=l {
                out.push('|');
                if vc < l {
                    let cell = autobraid_lattice::Cell::new(vr, vc);
                    match placement.qubit_at(grid, cell) {
                        Some(q) if q < 100 => {
                            let text = format!("q{q:<3}");
                            out.push_str(&text[..4.min(text.len())]);
                        }
                        Some(_) => out.push_str("q.. "),
                        None => out.push_str(" .. "),
                    }
                }
            }
            out.push('\n');
        }
    }
    out
}

/// Renders a [`TelemetrySnapshot`] as aligned plain-text tables —
/// spans, then counters, then histograms — for terminal output. Metric
/// meanings are documented in `docs/METRICS.md`.
pub fn render_telemetry(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    if !snapshot.spans.is_empty() {
        let mut t = Table::new(["span", "count", "total (ms)"]);
        for s in &snapshot.spans {
            t.add_row([
                s.path.clone(),
                s.count.to_string(),
                format!("{:.3}", s.total_seconds * 1e3),
            ]);
        }
        out.push_str(&t.render());
    }
    if !snapshot.counters.is_empty() {
        if !out.is_empty() {
            out.push('\n');
        }
        let mut t = Table::new(["counter", "value"]);
        for (name, value) in &snapshot.counters {
            t.add_row([name.clone(), value.to_string()]);
        }
        out.push_str(&t.render());
    }
    if !snapshot.histograms.is_empty() {
        if !out.is_empty() {
            out.push('\n');
        }
        let mut t = Table::new(["histogram", "count", "mean", "p50", "p90", "p99", "max"]);
        for (name, h) in &snapshot.histograms {
            t.add_row([
                name.clone(),
                h.count.to_string(),
                format!("{:.2}", h.mean),
                format!("{:.2}", h.p50),
                format!("{:.2}", h.p90),
                format!("{:.2}", h.p99),
                format!("{:.2}", h.max),
            ]);
        }
        out.push_str(&t.render());
    }
    if out.is_empty() {
        out.push_str("(no telemetry recorded)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Op;
    use autobraid_lattice::Cell;
    use autobraid_router::BraidPath;

    #[test]
    fn placement_render_shows_qubits_and_structure() {
        let grid = Grid::new(3).unwrap();
        let p = Placement::row_major(&grid, 5);
        let art = render_placement(&grid, &p);
        assert!(art.contains("q0"));
        assert!(art.contains("q4"));
        assert!(art.contains(" .. "), "empty tiles shown");
        assert_eq!(art.lines().count(), 2 * 3 + 1);
        // All grid rows are equally wide.
        let widths: Vec<usize> = art.lines().map(|l| l.chars().count()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{art}");
    }

    #[test]
    fn step_render_marks_paths() {
        let grid = Grid::new(3).unwrap();
        let p = Placement::row_major(&grid, 9);
        let path = BraidPath::new(
            &grid,
            Cell::new(0, 0),
            Cell::new(0, 2),
            vec![Vertex::new(0, 1), Vertex::new(0, 2)],
        )
        .unwrap();
        let intervals = [Interval {
            start_slot: 2,
            slots: 2,
            op: Op::Gate {
                gate: 0,
                path: Some(path),
            },
        }];
        let art = render_slot(&grid, &p, &intervals, 3);
        assert_eq!(art.matches('a').count(), 2, "{art}");
        let idle = render_slot(&grid, &p, &intervals, 4);
        assert_eq!(idle.matches('a').count(), 0, "{idle}");
    }

    #[test]
    fn labels_cycle_safely() {
        assert_eq!(label_for(0), 'a');
        assert_eq!(label_for(25), 'z');
        assert_eq!(label_for(26), 'A');
        assert_eq!(label_for(52), 'a');
    }

    #[test]
    fn telemetry_summary_renders_all_sections() {
        use autobraid_telemetry::{MemoryRecorder, Recorder};
        let recorder = MemoryRecorder::new();
        recorder.add("scheduler.steps.braid", 4);
        recorder.observe("router.llg.size", 2.0);
        recorder.record_span("schedule", std::time::Duration::from_millis(5));
        let text = render_telemetry(&recorder.snapshot());
        assert!(text.contains("scheduler.steps.braid"), "{text}");
        assert!(text.contains("router.llg.size"), "{text}");
        assert!(text.contains("schedule"), "{text}");
        let empty = render_telemetry(&Default::default());
        assert!(empty.contains("no telemetry"), "{empty}");
    }
}
