//! Layer closure: a parent's wall time equals the sum of its child
//! spans plus a remainder, and the remainder is reported, not dropped.

use llp::{SpanKind, SpanNode};

/// Per-kernel totals accumulated over the kernel spans of some ops.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelTotals {
    /// Wall seconds in this kernel's spans.
    pub seconds: f64,
    /// Parallel regions (sync events) under this kernel.
    pub sync_events: u64,
    /// Sum of the parallel-loop extents of those regions.
    pub iterations: u64,
}

/// One op's split into its kernel spans and the unattributed rest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Closure {
    /// The parent's wall seconds (the benchmark's own timer).
    pub parent_s: f64,
    /// Seconds covered by child spans.
    pub children_s: f64,
}

impl Closure {
    /// `parent - children`: what no child span accounts for. Negative
    /// when the children overlap or outlast the parent's timer.
    #[must_use]
    pub fn unattributed_s(&self) -> f64 {
        self.parent_s - self.children_s
    }

    /// Add another op's closure.
    pub fn add(&mut self, other: &Closure) {
        self.parent_s += other.parent_s;
        self.children_s += other.children_s;
    }

    /// Unattributed share of the parent (0 for an empty closure).
    #[must_use]
    pub fn unattributed_share(&self) -> f64 {
        if self.parent_s > 0.0 {
            self.unattributed_s() / self.parent_s
        } else {
            0.0
        }
    }
}

/// Walk a span forest, folding every kernel span into `totals` (keyed
/// by kernel name) and returning the seconds the kernel spans cover.
/// Kernels are not nested, so a kernel's own children (its regions) add
/// to its counts but not to the covered time.
pub fn fold_kernels(spans: &[SpanNode], totals: &mut Vec<(String, KernelTotals)>) -> f64 {
    let mut covered = 0.0;
    for span in spans {
        if span.kind == SpanKind::Kernel {
            let entry = match totals.iter().position(|(n, _)| *n == span.name) {
                Some(i) => &mut totals[i].1,
                None => {
                    totals.push((span.name.clone(), KernelTotals::default()));
                    &mut totals.last_mut().expect("just pushed").1
                }
            };
            entry.seconds += span.seconds;
            entry.sync_events += span.total_sync_events();
            entry.iterations += region_iterations(&span.children);
            covered += span.seconds;
        } else {
            covered += fold_kernels(&span.children, totals);
        }
    }
    covered
}

fn region_iterations(spans: &[SpanNode]) -> u64 {
    spans
        .iter()
        .map(|s| {
            let own = if s.kind == SpanKind::Region {
                s.iterations
            } else {
                0
            };
            own + region_iterations(&s.children)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &str, kind: SpanKind, seconds: f64, children: Vec<SpanNode>) -> SpanNode {
        let mut n = SpanNode::new(name, kind);
        n.seconds = seconds;
        n.children = children;
        if kind == SpanKind::Region {
            n.sync_events = 1;
            n.iterations = 12;
        }
        n
    }

    #[test]
    fn closure_on_a_synthetic_step() {
        // step(10) -> zone1(6) -> rhs(4: 2 regions) + bc(1)
        //          -> zone2(3) -> rhs(2: 1 region)
        //          -> inject(0.5)
        let region = || node("region", SpanKind::Region, 0.5, vec![]);
        let step = node(
            "step",
            SpanKind::Step,
            10.0,
            vec![
                node(
                    "zone1",
                    SpanKind::Zone,
                    6.0,
                    vec![
                        node("rhs", SpanKind::Kernel, 4.0, vec![region(), region()]),
                        node("bc", SpanKind::Kernel, 1.0, vec![]),
                    ],
                ),
                node(
                    "zone2",
                    SpanKind::Zone,
                    3.0,
                    vec![node("rhs", SpanKind::Kernel, 2.0, vec![region()])],
                ),
                node("inject", SpanKind::Kernel, 0.5, vec![]),
            ],
        );
        let mut totals = Vec::new();
        let covered = fold_kernels(&[step], &mut totals);
        assert_eq!(covered, 7.5);
        let rhs = &totals.iter().find(|(n, _)| n == "rhs").unwrap().1;
        assert_eq!((rhs.seconds, rhs.sync_events, rhs.iterations), (6.0, 3, 36));
        assert_eq!(totals.len(), 3);

        // The op timer read 10.25 s around a 10 s step span.
        let mut c = Closure {
            parent_s: 10.25,
            children_s: covered,
        };
        assert_eq!(c.unattributed_s(), 2.75);
        c.add(&Closure {
            parent_s: 1.75,
            children_s: 1.5,
        });
        assert_eq!((c.parent_s, c.children_s), (12.0, 9.0));
        assert_eq!(c.unattributed_share(), 0.25);
        // A remainder can be negative and is kept as such.
        let late = Closure {
            parent_s: 0.010,
            children_s: 0.012,
        };
        assert_eq!(late.unattributed_s(), 0.010 - 0.012);
        assert_eq!(Closure::default().unattributed_share(), 0.0);
    }
}
