use netart_geom::{Axis, Point, Segment};

/// The routed geometry of one net: a set of axis-aligned segments that
/// together form the net's wires.
///
/// All metrics are *defined* on the unit-edge graph covered by the
/// segments — every grid step covered by some segment is an edge, every
/// covered point a node — which makes them robust against overlapping,
/// duplicated or touching segment representations of the same wire.
/// They are *computed* from the k segments alone, in time polynomial in
/// k and independent of the wire length: a point's incident edges are
/// read off the segments through it, and only segment endpoints and
/// perpendicular crossings can be bends or branch points.
///
/// # Examples
///
/// ```
/// use netart_diagram::NetPath;
/// use netart_geom::{Point, Segment};
///
/// // An L from (0,0) to (3,2).
/// let path = NetPath::from_segments(vec![
///     Segment::horizontal(0, 0, 3),
///     Segment::vertical(3, 0, 2),
/// ]);
/// assert_eq!(path.length(), 5);
/// assert_eq!(path.bends(), 1);
/// assert_eq!(path.branch_points().len(), 0);
/// assert!(path.connects(&[Point::new(0, 0), Point::new(3, 2)]));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetPath {
    segments: Vec<Segment>,
}

/// Direction bits of a [`NetPath::dirs_at`] mask.
const LEFT: u8 = 1;
const RIGHT: u8 = 2;
const UP: u8 = 4;
const DOWN: u8 = 8;
const HORIZONTAL: u8 = LEFT | RIGHT;
const VERTICAL: u8 = UP | DOWN;

impl NetPath {
    /// An empty path (an unrouted net).
    pub fn new() -> Self {
        NetPath::default()
    }

    /// Wraps a list of segments. Degenerate (zero-length) segments are
    /// kept; they can carry a terminal that coincides with a wire end.
    pub fn from_segments(segments: Vec<Segment>) -> Self {
        NetPath { segments }
    }

    /// The raw segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Appends a segment.
    pub fn push(&mut self, seg: Segment) {
        self.segments.push(seg);
    }

    /// `true` when the path has no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The directions in which a unit edge of the path leaves `p`, as a
    /// mask of the `LEFT`/`RIGHT`/`UP`/`DOWN` bits: a point's degree in
    /// the unit-edge graph is the mask's popcount.
    fn dirs_at(&self, p: Point) -> u8 {
        let mut mask = 0;
        for seg in &self.segments {
            let (along, across, neg, pos) = match seg.axis() {
                Axis::Horizontal => (p.x, p.y, LEFT, RIGHT),
                Axis::Vertical => (p.y, p.x, DOWN, UP),
            };
            if seg.track() != across {
                continue;
            }
            let span = seg.span();
            if span.lo() < along && along <= span.hi() {
                mask |= neg;
            }
            if span.lo() <= along && along < span.hi() {
                mask |= pos;
            }
        }
        mask
    }

    /// The distinct segment endpoints, sorted. A point strictly inside a
    /// segment has both of that axis's edges, so every node of degree
    /// one, every bend and every joint of collinear pieces is among
    /// these.
    fn endpoints(&self) -> Vec<Point> {
        let mut pts: Vec<Point> = self
            .segments
            .iter()
            .flat_map(|s| {
                let (a, b) = s.endpoints();
                [a, b]
            })
            .collect();
        pts.sort_unstable();
        pts.dedup();
        pts
    }

    /// Total wire length: the number of distinct unit edges covered.
    pub fn length(&self) -> u32 {
        runs(&self.segments).iter().map(Segment::len).sum()
    }

    /// Number of bends: points where the wire turns a corner (degree-2
    /// points whose two incident edges are perpendicular).
    ///
    /// Rule 6 of the paper asks to keep this low; the line-expansion
    /// router minimises it per net.
    pub fn bends(&self) -> u32 {
        self.endpoints()
            .into_iter()
            .filter(|&p| {
                let mask = self.dirs_at(p);
                (mask & HORIZONTAL).count_ones() == 1 && (mask & VERTICAL).count_ones() == 1
            })
            .count() as u32
    }

    /// Points where the net branches (degree ≥ 3): the paper's
    /// "branching nodes", kept low by Rule 6.
    pub fn branch_points(&self) -> Vec<Point> {
        // A branch point that is no segment endpoint lies strictly
        // inside a horizontal and a vertical segment.
        let mut pts = self.endpoints();
        for (i, a) in self.segments.iter().enumerate() {
            for b in &self.segments[i + 1..] {
                if a.crosses_interior(b) {
                    pts.extend(a.crossing(b));
                }
            }
        }
        pts.sort_unstable();
        pts.dedup();
        pts.retain(|&p| self.dirs_at(p).count_ones() >= 3);
        pts
    }

    /// `true` when `p` lies on the path.
    pub fn contains(&self, p: Point) -> bool {
        self.segments.iter().any(|s| s.contains(p))
    }

    /// `true` when the covered geometry is connected and touches every
    /// point of `terminals`.
    ///
    /// This is the electrical soundness check: a routed net must be one
    /// connected tree through all its pins.
    pub fn connects(&self, terminals: &[Point]) -> bool {
        let Some(&first) = terminals.first() else {
            return true;
        };
        let cover = Cover::of(&self.segments);
        let Some(component) = cover.component_of(first) else {
            return false;
        };
        terminals[1..]
            .iter()
            .all(|&t| cover.component_of(t) == Some(component))
    }

    /// `true` when the covered geometry contains a cycle, in any
    /// connected component. Partial preroutes may be disconnected (the
    /// router completes them) but Appendix F forbids cycles.
    pub fn has_cycle(&self) -> bool {
        let cover = Cover::of(&self.segments);
        cover.edges + cover.components() != cover.nodes
    }

    /// `true` when the covered geometry is a tree (connected and without
    /// cycles). An empty path is trivially a tree.
    pub fn is_tree(&self) -> bool {
        let cover = Cover::of(&self.segments);
        cover.nodes == 0 || (cover.edges + 1 == cover.nodes && cover.components() == 1)
    }

    /// Interior crossing points between this path and another net's
    /// path: the "crossovers" of Rule 6. Each geometric point is
    /// reported once.
    pub fn crossings_with(&self, other: &NetPath) -> Vec<Point> {
        let mut pts = Vec::new();
        for a in &self.segments {
            for b in &other.segments {
                if a.crosses_interior(b) {
                    pts.extend(a.crossing(b));
                }
            }
        }
        pts.sort_unstable();
        pts.dedup();
        pts
    }

    /// Points shared with another path that are *not* legal perpendicular
    /// crossings — i.e. overlaps or T-touches between different nets,
    /// which the routing postcondition forbids ("the only common points
    /// of different nets are crossing points", §5.3).
    pub fn illegal_contacts_with(&self, other: &NetPath) -> Vec<Point> {
        let mut shared = Vec::new();
        for a in &self.segments {
            for b in &other.segments {
                if let Some(p) = a.crossing(b) {
                    shared.push(p);
                } else if let Some(o) = a.overlap(b) {
                    shared.extend(o.span().iter().map(|v| o.point_at(v)));
                }
            }
        }
        shared.sort_unstable();
        shared.dedup();
        // A legal crossing: this net passes straight through on one
        // axis, the other net straight through on the other.
        shared.retain(|&p| {
            !matches!(
                (self.dirs_at(p), other.dirs_at(p)),
                (HORIZONTAL, VERTICAL) | (VERTICAL, HORIZONTAL)
            )
        });
        shared
    }
}

/// `segments` merged per (axis, track) wherever their spans share a
/// point: pairwise disjoint maximal runs, sorted (horizontal first).
fn runs(segments: &[Segment]) -> Vec<Segment> {
    let mut sorted = segments.to_vec();
    sorted.sort_unstable();
    let mut runs: Vec<Segment> = Vec::with_capacity(sorted.len());
    for seg in sorted {
        match runs.last_mut() {
            Some(run)
                if run.axis() == seg.axis()
                    && run.track() == seg.track()
                    && seg.span().lo() <= run.span().hi() =>
            {
                *run = Segment::on_axis(run.axis(), run.track(), run.span().hull(seg.span()));
            }
            _ => runs.push(seg),
        }
    }
    runs
}

/// The unit-edge graph of a path counted from its runs: each run is a
/// connected chain of `len + 1` nodes, and two runs share a node only
/// where a horizontal run meets a vertical one.
struct Cover {
    runs: Vec<Segment>,
    /// Union-find parent links over `runs`.
    parent: Vec<usize>,
    /// Distinct covered points.
    nodes: usize,
    /// Distinct covered unit edges.
    edges: usize,
}

impl Cover {
    fn of(segments: &[Segment]) -> Cover {
        let runs = runs(segments);
        let mut cover = Cover {
            parent: (0..runs.len()).collect(),
            nodes: runs.iter().map(|r| r.len() as usize + 1).sum(),
            edges: runs.iter().map(|r| r.len() as usize).sum(),
            runs,
        };
        let verticals = cover.runs.partition_point(|r| r.axis() == Axis::Horizontal);
        for h in 0..verticals {
            for v in verticals..cover.runs.len() {
                if cover.runs[h].crossing(&cover.runs[v]).is_some() {
                    cover.nodes -= 1;
                    let (a, b) = (cover.find(h), cover.find(v));
                    cover.parent[a] = b;
                }
            }
        }
        cover
    }

    fn find(&self, mut i: usize) -> usize {
        while self.parent[i] != i {
            i = self.parent[i];
        }
        i
    }

    /// The component holding `p`, or `None` when `p` is not covered.
    fn component_of(&self, p: Point) -> Option<usize> {
        let run = self.runs.iter().position(|r| r.contains(p))?;
        Some(self.find(run))
    }

    fn components(&self) -> usize {
        (0..self.runs.len()).filter(|&i| self.find(i) == i).count()
    }
}

impl FromIterator<Segment> for NetPath {
    fn from_iter<I: IntoIterator<Item = Segment>>(iter: I) -> Self {
        NetPath::from_segments(iter.into_iter().collect())
    }
}

impl Extend<Segment> for NetPath {
    fn extend<I: IntoIterator<Item = Segment>>(&mut self, iter: I) {
        self.segments.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_path() -> NetPath {
        NetPath::from_segments(vec![
            Segment::horizontal(0, 0, 3),
            Segment::vertical(3, 0, 2),
        ])
    }

    #[test]
    fn length_dedups_overlaps() {
        let p = NetPath::from_segments(vec![
            Segment::horizontal(0, 0, 4),
            Segment::horizontal(0, 2, 6), // overlaps [2,4]
        ]);
        assert_eq!(p.length(), 6);
    }

    #[test]
    fn bends_on_l_and_z() {
        assert_eq!(l_path().bends(), 1);
        let z = NetPath::from_segments(vec![
            Segment::horizontal(0, 0, 2),
            Segment::vertical(2, 0, 2),
            Segment::horizontal(2, 2, 4),
        ]);
        assert_eq!(z.bends(), 2);
        let straight = NetPath::from_segments(vec![Segment::horizontal(0, 0, 9)]);
        assert_eq!(straight.bends(), 0);
    }

    #[test]
    fn branch_points_on_t() {
        let t = NetPath::from_segments(vec![
            Segment::horizontal(0, 0, 4),
            Segment::vertical(2, 0, 3),
        ]);
        assert_eq!(t.branch_points(), vec![Point::new(2, 0)]);
        assert_eq!(t.bends(), 0);
    }

    #[test]
    fn connectivity() {
        let p = l_path();
        assert!(p.connects(&[Point::new(0, 0), Point::new(3, 2)]));
        assert!(p.connects(&[Point::new(2, 0)])); // mid point on the wire
        assert!(!p.connects(&[Point::new(0, 0), Point::new(5, 5)]));
        let disconnected = NetPath::from_segments(vec![
            Segment::horizontal(0, 0, 1),
            Segment::horizontal(5, 0, 1),
        ]);
        assert!(!disconnected.connects(&[Point::new(0, 0), Point::new(0, 5)]));
    }

    #[test]
    fn tree_detection() {
        assert!(l_path().is_tree());
        assert!(NetPath::new().is_tree());
        let cycle = NetPath::from_segments(vec![
            Segment::horizontal(0, 0, 2),
            Segment::horizontal(2, 0, 2),
            Segment::vertical(0, 0, 2),
            Segment::vertical(2, 0, 2),
        ]);
        assert!(!cycle.is_tree());
        let forest = NetPath::from_segments(vec![
            Segment::horizontal(0, 0, 1),
            Segment::horizontal(5, 0, 1),
        ]);
        assert!(!forest.is_tree());
    }

    #[test]
    fn cycle_detection_distinguishes_forests() {
        assert!(!l_path().has_cycle());
        assert!(!NetPath::new().has_cycle());
        // A disconnected forest is cycle-free (a legal partial preroute).
        let forest = NetPath::from_segments(vec![
            Segment::horizontal(0, 0, 1),
            Segment::horizontal(5, 0, 1),
        ]);
        assert!(!forest.has_cycle());
        // A square is a cycle.
        let cycle = NetPath::from_segments(vec![
            Segment::horizontal(0, 0, 2),
            Segment::horizontal(2, 0, 2),
            Segment::vertical(0, 0, 2),
            Segment::vertical(2, 0, 2),
        ]);
        assert!(cycle.has_cycle());
        // A forest with one cyclic component is still cyclic.
        let mixed = NetPath::from_segments(vec![
            Segment::horizontal(0, 0, 2),
            Segment::horizontal(2, 0, 2),
            Segment::vertical(0, 0, 2),
            Segment::vertical(2, 0, 2),
            Segment::horizontal(9, 0, 3),
        ]);
        assert!(mixed.has_cycle());
    }

    #[test]
    fn crossings_between_nets() {
        let h = NetPath::from_segments(vec![Segment::horizontal(1, 0, 4)]);
        let v = NetPath::from_segments(vec![Segment::vertical(2, 0, 3)]);
        assert_eq!(h.crossings_with(&v), vec![Point::new(2, 1)]);
        assert_eq!(v.crossings_with(&h), vec![Point::new(2, 1)]);
        // Touch at an endpoint is not a crossing.
        let touch = NetPath::from_segments(vec![Segment::vertical(0, 0, 3)]);
        assert!(h.crossings_with(&touch).is_empty());
    }

    #[test]
    fn illegal_contacts() {
        let h = NetPath::from_segments(vec![Segment::horizontal(1, 0, 4)]);
        let v = NetPath::from_segments(vec![Segment::vertical(2, 0, 3)]);
        // A clean perpendicular crossing is legal.
        assert!(h.illegal_contacts_with(&v).is_empty());
        // A T-touch is illegal.
        let t = NetPath::from_segments(vec![Segment::vertical(2, 1, 3)]);
        assert_eq!(h.illegal_contacts_with(&t), vec![Point::new(2, 1)]);
        // Overlap along a track is illegal.
        let along = NetPath::from_segments(vec![Segment::horizontal(1, 2, 6)]);
        assert!(!h.illegal_contacts_with(&along).is_empty());
    }

    #[test]
    fn degenerate_segment_keeps_terminal_point() {
        let p = NetPath::from_segments(vec![Segment::point(Axis::Horizontal, Point::new(3, 3))]);
        assert_eq!(p.length(), 0);
        assert!(p.connects(&[Point::new(3, 3)]));
    }

    #[test]
    fn collect_and_extend() {
        let mut p: NetPath = vec![Segment::horizontal(0, 0, 1)].into_iter().collect();
        p.extend(vec![Segment::vertical(1, 0, 1)]);
        assert_eq!(p.segments().len(), 2);
        assert_eq!(p.bends(), 1);
    }
}
