//! Property-based tests for the path metrics. `NetPath` defines every
//! metric on the unit-edge graph its segments cover but computes it
//! from the segments alone; the tests check that the results are stable
//! under segment representation changes and, differentially, that they
//! equal a direct computation on the unit-edge graph (`reference`).

use proptest::prelude::*;

use netart_diagram::NetPath;
use netart_geom::{Axis, Interval, Point, Segment};

/// The metrics computed literally on the unit-edge graph: every covered
/// grid step hashed as an edge, every covered point as a node. Slow (it
/// grows with wire length) but obviously right, so it is the oracle the
/// segment-based `NetPath` metrics are compared against.
mod reference {
    use std::collections::{HashMap, HashSet};

    use netart_geom::{Axis, Dir, Point, Segment};

    /// The covered unit edges, as (point, axis) pairs stepping right or
    /// up from the point.
    pub fn unit_edges(segments: &[Segment]) -> HashSet<(Point, Axis)> {
        let mut edges = HashSet::new();
        for seg in segments {
            let span = seg.span();
            for v in span.lo()..span.hi() {
                edges.insert((seg.point_at(v), seg.axis()));
            }
        }
        edges
    }

    /// Every covered point mapped to the directions in which a unit edge
    /// leaves it.
    pub fn adjacency(segments: &[Segment]) -> HashMap<Point, Vec<Dir>> {
        let mut adj: HashMap<Point, Vec<Dir>> = HashMap::new();
        let mut connect = |p: Point, d: Dir| {
            let dirs = adj.entry(p).or_default();
            if !dirs.contains(&d) {
                dirs.push(d);
            }
        };
        for (p, axis) in unit_edges(segments) {
            match axis {
                Axis::Horizontal => {
                    connect(p, Dir::Right);
                    connect(p.step(Dir::Right), Dir::Left);
                }
                Axis::Vertical => {
                    connect(p, Dir::Up);
                    connect(p.step(Dir::Up), Dir::Down);
                }
            }
        }
        // Degenerate segments contribute isolated points.
        for seg in segments {
            if seg.is_point() {
                adj.entry(seg.endpoints().0).or_default();
            }
        }
        adj
    }

    /// The points reachable from `start` over unit edges.
    fn reach(adj: &HashMap<Point, Vec<Dir>>, start: Point) -> HashSet<Point> {
        let mut seen = HashSet::from([start]);
        let mut queue = vec![start];
        while let Some(p) = queue.pop() {
            for &d in &adj[&p] {
                let q = p.step(d);
                if seen.insert(q) {
                    queue.push(q);
                }
            }
        }
        seen
    }

    pub fn length(segments: &[Segment]) -> u32 {
        unit_edges(segments).len() as u32
    }

    pub fn bends(segments: &[Segment]) -> u32 {
        adjacency(segments)
            .values()
            .filter(|dirs| dirs.len() == 2 && dirs[0].axis() != dirs[1].axis())
            .count() as u32
    }

    pub fn branch_points(segments: &[Segment]) -> Vec<Point> {
        let mut pts: Vec<Point> = adjacency(segments)
            .into_iter()
            .filter(|(_, dirs)| dirs.len() >= 3)
            .map(|(p, _)| p)
            .collect();
        pts.sort_unstable();
        pts
    }

    pub fn connects(segments: &[Segment], terminals: &[Point]) -> bool {
        let Some(&first) = terminals.first() else {
            return true;
        };
        let adj = adjacency(segments);
        if terminals.iter().any(|t| !adj.contains_key(t)) {
            return false;
        }
        let seen = reach(&adj, first);
        terminals.iter().all(|t| seen.contains(t))
    }

    pub fn has_cycle(segments: &[Segment]) -> bool {
        let adj = adjacency(segments);
        let edges = unit_edges(segments).len();
        let mut seen: HashSet<Point> = HashSet::new();
        let mut components = 0;
        for &start in adj.keys() {
            if !seen.contains(&start) {
                components += 1;
                seen.extend(reach(&adj, start));
            }
        }
        edges + components != adj.len()
    }

    pub fn is_tree(segments: &[Segment]) -> bool {
        let adj = adjacency(segments);
        let Some(&start) = adj.keys().next() else {
            return true;
        };
        let nodes = adj.len();
        if unit_edges(segments).len() + 1 != nodes {
            return false;
        }
        reach(&adj, start).len() == nodes
    }

    pub fn illegal_contacts(mine: &[Segment], theirs: &[Segment]) -> Vec<Point> {
        let my_adj = adjacency(mine);
        let their_adj = adjacency(theirs);
        let straight = |dirs: &[Dir]| -> Option<Axis> {
            (dirs.len() == 2 && dirs[0].axis() == dirs[1].axis()).then(|| dirs[0].axis())
        };
        let mut bad: Vec<Point> = my_adj
            .iter()
            .filter_map(|(p, my_dirs)| {
                let their_dirs = their_adj.get(p)?;
                match (straight(my_dirs), straight(their_dirs)) {
                    (Some(a), Some(b)) if a != b => None,
                    _ => Some(*p),
                }
            })
            .collect();
        bad.sort_unstable();
        bad
    }
}

fn segment_strategy() -> impl Strategy<Value = Segment> {
    (
        prop::sample::select(vec![Axis::Horizontal, Axis::Vertical]),
        -20i32..20,
        -20i32..20,
        0i32..10,
    )
        .prop_map(|(axis, track, lo, len)| {
            Segment::on_axis(axis, track, Interval::new(lo, lo + len))
        })
}

fn path_strategy() -> impl Strategy<Value = Vec<Segment>> {
    prop::collection::vec(segment_strategy(), 1..10)
}

/// A segment on a small grid, so that random segments often coincide.
fn small_segment() -> impl Strategy<Value = Segment> {
    (
        prop::sample::select(vec![Axis::Horizontal, Axis::Vertical]),
        0i32..8,
        0i32..8,
        0i32..6,
    )
        .prop_map(|(axis, track, lo, len)| {
            Segment::on_axis(axis, track, Interval::new(lo, lo + len))
        })
}

/// One way of deriving a new segment from one already in a soup: the
/// kind, the index of the source segment (taken modulo the pool size)
/// and three small parameters.
type Derivation = (u8, usize, i32, i32, i32);

fn derivation() -> impl Strategy<Value = Derivation> {
    (0u8..8, any::<usize>(), 0i32..6, 0i32..6, 0i32..6)
}

/// A segment through `p` across `axis`'s perpendicular, reaching `neg`
/// steps back and `pos` steps forward (a crossing, a T, an L or a
/// point, depending on where `p` sits and on the reaches).
fn across(axis: Axis, p: Point, neg: i32, pos: i32) -> Segment {
    let (along, track) = match axis {
        Axis::Horizontal => (p.x, p.y),
        Axis::Vertical => (p.y, p.x),
    };
    Segment::on_axis(
        axis.perpendicular(),
        along,
        Interval::new(track - neg, track + pos),
    )
}

fn derive(s: Segment, (kind, _, a, b, c): Derivation) -> Segment {
    let (lo, hi) = (s.span().lo(), s.span().hi());
    let on = |v: i32| s.point_at(v.clamp(lo, hi));
    let collinear = |from: i32, to: i32| {
        Segment::on_axis(
            s.axis(),
            s.track(),
            Interval::new(from.min(to), from.max(to)),
        )
    };
    match kind {
        // A duplicate.
        0 => s,
        // A collinear piece that overlaps, touches or leaves a gap.
        1 => collinear(lo + a - 3, hi + b - 3),
        // A collinear extension touching an end.
        2 if b % 2 == 0 => collinear(hi, hi + a),
        2 => collinear(lo - a, lo),
        // A perpendicular through an end: an L, a T or a crossing.
        3 => across(s.axis(), if b % 2 == 0 { on(lo) } else { on(hi) }, a, c),
        // A perpendicular through any point of the segment.
        4 => across(s.axis(), on(lo + a), b, c),
        // A zero-length segment on the segment.
        5 => Segment::point(
            if b % 2 == 0 {
                s.axis()
            } else {
                s.axis().perpendicular()
            },
            on(lo + a),
        ),
        // A piece of the segment.
        6 => collinear((lo + a).min(hi), (hi - b).max(lo)),
        // A fresh segment anywhere nearby.
        _ => {
            let axis = if c % 2 == 0 {
                Axis::Horizontal
            } else {
                Axis::Vertical
            };
            Segment::on_axis(axis, a, Interval::new(b, b + c))
        }
    }
}

/// Appends one derived segment per op to `soup`, each from a segment of
/// `from`, or of the soup itself when `from` is `None`.
fn apply(soup: &mut Vec<Segment>, from: Option<&[Segment]>, ops: &[Derivation]) {
    for &op in ops {
        let pool = from.unwrap_or(&soup[..]);
        let s = pool[op.1 % pool.len()];
        soup.push(derive(s, op));
    }
}

/// A segment soup: a few random segments plus segments derived from
/// them — duplicates, overlaps, collinear touches, Ls, T-junctions,
/// crossings and zero-length segments.
fn soup_strategy() -> impl Strategy<Value = Vec<Segment>> {
    (
        prop::collection::vec(small_segment(), 1..4),
        prop::collection::vec(derivation(), 0..12),
    )
        .prop_map(|(mut soup, ops)| {
            apply(&mut soup, None, &ops);
            soup
        })
}

/// Two soups, the second partly derived from the first so that they
/// touch, overlap and cross often.
fn soup_pair_strategy() -> impl Strategy<Value = (Vec<Segment>, Vec<Segment>)> {
    (
        soup_strategy(),
        soup_strategy(),
        prop::collection::vec(derivation(), 0..6),
    )
        .prop_map(|(a, mut b, ops)| {
            apply(&mut b, Some(&a), &ops);
            (a, b)
        })
}

/// Terminal picks: a point on a chosen segment, or anywhere on (and
/// just around) the grid.
fn terminal_picks() -> impl Strategy<Value = Vec<(bool, usize, i32, Point)>> {
    prop::collection::vec(
        (
            any::<bool>(),
            any::<usize>(),
            0i32..6,
            (-1i32..10, -1i32..10).prop_map(|(x, y)| Point::new(x, y)),
        ),
        0..5,
    )
}

fn terminals(soup: &[Segment], picks: &[(bool, usize, i32, Point)]) -> Vec<Point> {
    picks
        .iter()
        .map(|&(on_wire, idx, offset, anywhere)| {
            if on_wire {
                let s = soup[idx % soup.len()];
                s.point_at((s.span().lo() + offset).min(s.span().hi()))
            } else {
                anywhere
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Metrics are invariant under segment order.
    #[test]
    fn metrics_are_order_independent(mut segs in path_strategy()) {
        let a = NetPath::from_segments(segs.clone());
        segs.reverse();
        let b = NetPath::from_segments(segs);
        prop_assert_eq!(a.length(), b.length());
        prop_assert_eq!(a.bends(), b.bends());
        prop_assert_eq!(a.branch_points(), b.branch_points());
        prop_assert_eq!(a.is_tree(), b.is_tree());
    }

    /// Metrics are invariant under duplicating a segment (the
    /// unit-edge graph deduplicates).
    #[test]
    fn metrics_ignore_duplicates(segs in path_strategy()) {
        let a = NetPath::from_segments(segs.clone());
        let mut doubled = segs.clone();
        doubled.extend(segs);
        let b = NetPath::from_segments(doubled);
        prop_assert_eq!(a.length(), b.length());
        prop_assert_eq!(a.bends(), b.bends());
        prop_assert_eq!(a.branch_points(), b.branch_points());
    }

    /// Splitting a segment in two never changes any metric.
    #[test]
    fn metrics_survive_splitting(seg in segment_strategy(), cut in 0i32..10) {
        let span = seg.span();
        let whole = NetPath::from_segments(vec![seg]);
        let cut = span.lo() + cut.min(span.len() as i32);
        let halves = NetPath::from_segments(vec![
            Segment::on_axis(seg.axis(), seg.track(), Interval::new(span.lo(), cut)),
            Segment::on_axis(seg.axis(), seg.track(), Interval::new(cut, span.hi())),
        ]);
        prop_assert_eq!(whole.length(), halves.length());
        prop_assert_eq!(whole.bends(), halves.bends());
        prop_assert_eq!(whole.branch_points(), halves.branch_points());
    }

    /// Crossing detection is symmetric, and crossing points lie on both
    /// paths.
    #[test]
    fn crossings_symmetric(a in path_strategy(), b in path_strategy()) {
        let pa = NetPath::from_segments(a);
        let pb = NetPath::from_segments(b);
        let xab = pa.crossings_with(&pb);
        let xba = pb.crossings_with(&pa);
        prop_assert_eq!(xab.clone(), xba);
        for p in xab {
            prop_assert!(pa.contains(p));
            prop_assert!(pb.contains(p));
        }
    }

    /// A connected single segment is always a tree connecting its
    /// endpoints.
    #[test]
    fn single_segment_is_a_tree(seg in segment_strategy()) {
        let p = NetPath::from_segments(vec![seg]);
        let (a, b) = seg.endpoints();
        prop_assert!(p.is_tree());
        prop_assert!(p.connects(&[a, b]));
        prop_assert_eq!(p.length(), seg.len());
        prop_assert_eq!(p.bends(), 0);
    }

    /// An L of two touching perpendicular segments has exactly one bend
    /// (or zero when either leg is degenerate).
    #[test]
    fn l_shape_bend_count(x in -10i32..10, y in -10i32..10, dx in 0i32..8, dy in 0i32..8) {
        let h = Segment::horizontal(y, x, x + dx);
        let v = Segment::vertical(x + dx, y, y + dy);
        let p = NetPath::from_segments(vec![h, v]);
        let expected = u32::from(dx > 0 && dy > 0);
        prop_assert_eq!(p.bends(), expected, "{:?}", p.segments());
        prop_assert!(p.connects(&[Point::new(x, y), Point::new(x + dx, y + dy)]));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Differential: length equals the unit-edge count.
    #[test]
    fn length_matches_reference(soup in soup_strategy()) {
        let got = NetPath::from_segments(soup.clone()).length();
        prop_assert_eq!(got, reference::length(&soup), "{:?}", soup);
    }

    /// Differential: bends equal the unit-edge graph's corners.
    #[test]
    fn bends_match_reference(soup in soup_strategy()) {
        let got = NetPath::from_segments(soup.clone()).bends();
        prop_assert_eq!(got, reference::bends(&soup), "{:?}", soup);
    }

    /// Differential: branch points equal the unit-edge graph's nodes of
    /// degree at least three, in the same order.
    #[test]
    fn branch_points_match_reference(soup in soup_strategy()) {
        let got = NetPath::from_segments(soup.clone()).branch_points();
        prop_assert_eq!(got, reference::branch_points(&soup), "{:?}", soup);
    }

    /// Differential: connectivity over terminal sets on and off the wire.
    #[test]
    fn connects_matches_reference(soup in soup_strategy(), picks in terminal_picks()) {
        let pins = terminals(&soup, &picks);
        let got = NetPath::from_segments(soup.clone()).connects(&pins);
        prop_assert_eq!(got, reference::connects(&soup, &pins), "{:?} {:?}", soup, pins);
    }

    /// Differential: tree and cycle detection.
    #[test]
    fn tree_and_cycle_match_reference(soup in soup_strategy()) {
        let path = NetPath::from_segments(soup.clone());
        prop_assert_eq!(path.is_tree(), reference::is_tree(&soup), "{:?}", soup);
        prop_assert_eq!(path.has_cycle(), reference::has_cycle(&soup), "{:?}", soup);
    }

    /// Differential: illegal contacts between two nets, both ways round.
    #[test]
    fn illegal_contacts_match_reference((a, b) in soup_pair_strategy()) {
        let (pa, pb) = (NetPath::from_segments(a.clone()), NetPath::from_segments(b.clone()));
        prop_assert_eq!(pa.illegal_contacts_with(&pb), reference::illegal_contacts(&a, &b), "{:?} / {:?}", a, b);
        prop_assert_eq!(pb.illegal_contacts_with(&pa), reference::illegal_contacts(&b, &a), "{:?} / {:?}", b, a);
    }
}
