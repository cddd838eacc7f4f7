//! Centre-of-gravity placement of rectangular clusters (§4.6.5/§4.6.6).
//!
//! `PLACE_BOX` and `PLACE_PARTITION` both solve the same sub-problem:
//! given already-placed rectangles, put a new rectangle at the free
//! position minimising the squared distance between two gravity centres.
//! [`GravityField`] implements that search. The paper quantifies over
//! *all* integer positions; we exploit that the quadratic objective over
//! the free region attains its minimum either at the unconstrained
//! optimum or on the boundary of an inflated obstacle, where it is found
//! by clamping: twelve candidates per obstacle.
//!
//! The search is exact but does not look at every obstacle. The placed
//! rectangles sit in a uniform bucket grid, so a collision test reads
//! only the buckets the tested rectangle covers. Every candidate of an
//! obstacle lies in one box around it, so the distance from the desired
//! origin to that box bounds all twelve from below. Obstacles are
//! visited in order of that bound, gathered ring by ring of grid cells
//! around the desired origin, and the search stops once every bound
//! left is strictly greater than the best squared distance found. The
//! winner is the least `(dist2, origin)` among the free candidates,
//! which does not depend on the order of the visits.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use netart_geom::{Point, Rect};

/// A rectangle covering more than this many grid cells is kept out of
/// the buckets and tested directly, so one huge obstacle (a preplaced
/// part) cannot flood the grid.
const MAX_CELLS_PER_RECT: i64 = 256;

/// Incremental occupancy map for gravity placement.
#[derive(Debug, Clone)]
pub struct GravityField {
    /// Every occupied rectangle, inflated by the spacing.
    placed: Vec<Rect>,
    spacing: i32,
    /// Hull of `placed`.
    bounding: Option<Rect>,
    grid: BucketGrid,
    /// Per-rectangle visit stamps for the ring search.
    seen: Vec<u32>,
    stamp: u32,
    /// Number of rectangle overlap tests made so far.
    probes: Cell<u64>,
}

impl GravityField {
    /// An empty field where every rectangle keeps `spacing` extra
    /// tracks around itself.
    pub fn new(spacing: i32) -> Self {
        GravityField {
            placed: Vec::new(),
            spacing: spacing.max(0),
            bounding: None,
            grid: BucketGrid::default(),
            seen: Vec::new(),
            stamp: 0,
            probes: Cell::new(0),
        }
    }

    /// Marks a rectangle as occupied without searching (used for the
    /// first, anchor cluster and for preplaced parts).
    pub fn occupy(&mut self, rect: Rect) {
        let rect = rect.inflate(self.spacing);
        self.bounding = Some(self.bounding.map_or(rect, |b| b.hull(&rect)));
        self.placed.push(rect);
        self.seen.push(0);
        let n = self.placed.len();
        if n.is_power_of_two() {
            // The cell size follows the mean rectangle size; refitting
            // at every doubling keeps the total cost linear.
            self.grid = BucketGrid::fit(&self.placed);
        } else {
            self.grid.insert(n - 1, &rect);
        }
    }

    /// Number of rectangle overlap tests made so far (the field's work
    /// counter).
    pub fn probes(&self) -> u64 {
        self.probes.get()
    }

    fn collides(&self, rect: &Rect) -> bool {
        let hit = |i: &u32| {
            self.probes.set(self.probes.get() + 1);
            self.placed[*i as usize].overlaps_strictly(rect)
        };
        if self.grid.large.iter().any(hit) {
            return true;
        }
        let (x0, x1, y0, y1) = self.grid.cell_span(rect);
        (y0..=y1).any(|cy| {
            (x0..=x1).any(|cx| self.grid.bucket(cx, cy).is_some_and(|b| b.iter().any(hit)))
        })
    }

    fn effective(&self, origin: Point, size: (i32, i32)) -> Rect {
        Rect::new(
            origin - Point::new(self.spacing, self.spacing),
            size.0 + 2 * self.spacing,
            size.1 + 2 * self.spacing,
        )
    }

    /// Finds the free origin for a `size` rectangle closest (squared
    /// Euclidean) to `desired`, marks it occupied, and returns it.
    pub fn place(&mut self, size: (i32, i32), desired: Point) -> Point {
        let origin = self.best_position(size, desired);
        self.occupy(Rect::new(origin, size.0, size.1));
        origin
    }

    fn best_position(&mut self, size: (i32, i32), desired: Point) -> Point {
        if !self.collides(&self.effective(desired, size)) {
            return desired;
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen.fill(0);
            self.stamp = 1;
        }
        let s = self.spacing;
        let (w, h) = (size.0 + 2 * s, size.1 + 2 * s);
        // Every candidate origin of an obstacle lies in this box.
        let candidate_box = |r: &Rect| {
            let (ll, ur) = (r.lower_left(), r.upper_right());
            (ll.x - w + s, ur.x + s, ll.y - h + s, ur.y + s)
        };
        let lower_bound = |r: &Rect| {
            let (x0, x1, y0, y1) = candidate_box(r);
            Point::new(desired.x.clamp(x0, x1), desired.y.clamp(y0, y1)).dist2(desired)
        };
        let mut best: Option<(i64, Point)> = None;

        let mut queue: BinaryHeap<Reverse<(i64, u32)>> = self
            .grid
            .large
            .iter()
            .map(|&i| Reverse((lower_bound(&self.placed[i as usize]), i)))
            .collect();
        let centre = (
            i64::from(self.grid.cell_of(desired.x)),
            i64::from(self.grid.cell_of(desired.y)),
        );
        // An obstacle bucketed outside the rings 0..=r keeps all its
        // candidates at least `r * cell - reach` from `desired` on one
        // axis: the candidate box sticks out of the obstacle by up to
        // `spacing + size`, and `desired` may sit anywhere in its cell.
        let reach = i64::from(s) + i64::from(size.0.max(size.1)) - 1;
        let extent = self.grid.extent;
        let mut r = extent.map_or(0, |e| e.chebyshev_from(centre));
        loop {
            let covered = extent.is_none_or(|e| e.within(centre, r));
            if let Some(e) = extent {
                for (cx, cy) in e.ring(centre, r) {
                    let Some(bucket) = self.grid.bucket(cx, cy) else {
                        continue;
                    };
                    for &i in bucket {
                        if self.seen[i as usize] != self.stamp {
                            self.seen[i as usize] = self.stamp;
                            queue.push(Reverse((lower_bound(&self.placed[i as usize]), i)));
                        }
                    }
                }
            }
            let outside = if covered {
                i64::MAX
            } else {
                let gap = (r * i64::from(self.grid.cell) - reach).max(0);
                gap.saturating_mul(gap)
            };
            while let Some(&Reverse((bound, i))) = queue.peek() {
                if bound > outside || best.is_some_and(|(d, _)| bound > d) {
                    break;
                }
                queue.pop();
                let (x0, x1, y0, y1) = candidate_box(&self.placed[i as usize]);
                // Touch from the left / right: the sliding coordinate's
                // optimum is the clamp of the desired coordinate;
                // corners cover configurations blocked by neighbours.
                for x in [x0, x1] {
                    for y in [desired.y.clamp(y0, y1), y0, y1] {
                        self.consider(Point::new(x, y), size, desired, &mut best);
                    }
                }
                // Touch from below / above.
                for y in [y0, y1] {
                    for x in [desired.x.clamp(x0, x1), x0, x1] {
                        self.consider(Point::new(x, y), size, desired, &mut best);
                    }
                }
            }
            let next = queue.peek().map_or(outside, |&Reverse((b, _))| b.min(outside));
            if best.is_some_and(|(d, _)| next > d) || (covered && queue.is_empty()) {
                break;
            }
            r += 1;
        }
        if let Some((_, origin)) = best {
            return origin;
        }
        // Dense corner cases (every touching position blocked by a
        // neighbour): fall back to the first free spot right of
        // everything, which always exists on the open plane.
        let hull = self.bounding.expect("a colliding field is not empty");
        Point::new(hull.upper_right().x + self.spacing, desired.y)
    }

    /// Keeps `origin` in `best` when it beats it under `(dist2, origin)`
    /// and is free; a candidate that cannot win is never tested.
    fn consider(
        &self,
        origin: Point,
        size: (i32, i32),
        desired: Point,
        best: &mut Option<(i64, Point)>,
    ) {
        let score = (origin.dist2(desired), origin);
        if best.is_some_and(|b| b <= score) {
            return;
        }
        if !self.collides(&self.effective(origin, size)) {
            *best = Some(score);
        }
    }

    /// The bounding rectangle over everything placed (including
    /// spacing), if anything is placed.
    pub fn bounding(&self) -> Option<Rect> {
        self.bounding
    }
}

/// A uniform grid of square cells, each listing the placed rectangles
/// whose closed extent touches it.
#[derive(Debug, Clone, Default)]
struct BucketGrid {
    /// Cell side length (at least 1).
    cell: i32,
    buckets: HashMap<(i32, i32), Vec<u32>>,
    /// Rectangles too large for the buckets.
    large: Vec<u32>,
    /// Cell-coordinate hull of all bucketed rectangles.
    extent: Option<CellBox>,
}

impl BucketGrid {
    /// A grid sized to the mean rectangle of `rects`, holding them all.
    fn fit(rects: &[Rect]) -> Self {
        let total: i64 = rects
            .iter()
            .map(|r| i64::from(r.width().max(r.height())))
            .sum();
        let mean = total / rects.len().max(1) as i64;
        let mut grid = BucketGrid {
            cell: i32::try_from(mean.max(1)).unwrap_or(i32::MAX),
            ..BucketGrid::default()
        };
        for (i, r) in rects.iter().enumerate() {
            grid.insert(i, r);
        }
        grid
    }

    fn cell_of(&self, v: i32) -> i32 {
        v.div_euclid(self.cell.max(1))
    }

    /// The cells a rectangle's closed extent touches, as inclusive
    /// `(x0, x1, y0, y1)` ranges.
    fn cell_span(&self, r: &Rect) -> (i32, i32, i32, i32) {
        let (ll, ur) = (r.lower_left(), r.upper_right());
        (
            self.cell_of(ll.x),
            self.cell_of(ur.x),
            self.cell_of(ll.y),
            self.cell_of(ur.y),
        )
    }

    fn insert(&mut self, index: usize, r: &Rect) {
        let index = u32::try_from(index).expect("fewer than 2^32 rectangles");
        let (x0, x1, y0, y1) = self.cell_span(r);
        let cells = (i64::from(x1) - i64::from(x0) + 1) * (i64::from(y1) - i64::from(y0) + 1);
        if cells > MAX_CELLS_PER_RECT {
            self.large.push(index);
            return;
        }
        let span = CellBox { x0, x1, y0, y1 };
        self.extent = Some(self.extent.map_or(span, |e| e.hull(span)));
        for cy in y0..=y1 {
            for cx in x0..=x1 {
                self.buckets.entry((cx, cy)).or_default().push(index);
            }
        }
    }

    fn bucket(&self, cx: i32, cy: i32) -> Option<&Vec<u32>> {
        self.buckets.get(&(cx, cy))
    }
}

/// An inclusive block of grid cells.
#[derive(Debug, Clone, Copy)]
struct CellBox {
    x0: i32,
    x1: i32,
    y0: i32,
    y1: i32,
}

impl CellBox {
    fn hull(self, o: CellBox) -> CellBox {
        CellBox {
            x0: self.x0.min(o.x0),
            x1: self.x1.max(o.x1),
            y0: self.y0.min(o.y0),
            y1: self.y1.max(o.y1),
        }
    }

    /// Chebyshev distance in cells from `c` to the block (0 inside).
    fn chebyshev_from(self, (cx, cy): (i64, i64)) -> i64 {
        let gap = |v: i64, lo: i32, hi: i32| (i64::from(lo) - v).max(v - i64::from(hi)).max(0);
        gap(cx, self.x0, self.x1).max(gap(cy, self.y0, self.y1))
    }

    /// `true` when the block lies within Chebyshev distance `r` of `c`.
    fn within(self, (cx, cy): (i64, i64), r: i64) -> bool {
        cx - r <= i64::from(self.x0)
            && cx + r >= i64::from(self.x1)
            && cy - r <= i64::from(self.y0)
            && cy + r >= i64::from(self.y1)
    }

    /// The cells at Chebyshev distance exactly `r` from `c` that lie in
    /// the block.
    fn ring(self, (cx, cy): (i64, i64), r: i64) -> impl Iterator<Item = (i32, i32)> {
        let (bx0, bx1) = (i64::from(self.x0), i64::from(self.x1));
        let (by0, by1) = (i64::from(self.y0), i64::from(self.y1));
        let (xs, xe) = ((cx - r).max(bx0), (cx + r).min(bx1));
        let rows = [cy - r, cy + r]
            .into_iter()
            .take(if r == 0 { 1 } else { 2 })
            .filter(move |y| (by0..=by1).contains(y))
            .flat_map(move |y| (xs..=xe).map(move |x| (x, y)));
        let (ys, ye) = ((cy - r + 1).max(by0), (cy + r - 1).min(by1));
        let cols = [cx - r, cx + r]
            .into_iter()
            .take(if r == 0 { 0 } else { 2 })
            .filter(move |x| (bx0..=bx1).contains(x))
            .flat_map(move |x| (ys..=ye).map(move |y| (x, y)));
        // Both ends lie inside the block, which has i32 corners.
        rows.chain(cols).map(|(x, y)| (x as i32, y as i32))
    }
}

/// Integer centroid of a set of points; `None` when empty.
pub(crate) fn centroid(points: &[Point]) -> Option<Point> {
    if points.is_empty() {
        return None;
    }
    let n = points.len() as i64;
    let sx: i64 = points.iter().map(|p| i64::from(p.x)).sum();
    let sy: i64 = points.iter().map(|p| i64::from(p.y)).sum();
    Some(Point::new(
        (sx.div_euclid(n)) as i32,
        (sy.div_euclid(n)) as i32,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_desired_position_is_taken() {
        let mut f = GravityField::new(0);
        f.occupy(Rect::new(Point::new(0, 0), 4, 4));
        let p = f.place((2, 2), Point::new(10, 10));
        assert_eq!(p, Point::new(10, 10));
    }

    #[test]
    fn blocked_position_slides_to_touching() {
        let mut f = GravityField::new(0);
        f.occupy(Rect::new(Point::new(0, 0), 4, 4));
        // Desired right in the middle of the obstacle.
        let p = f.place((2, 2), Point::new(1, 1));
        let placed = Rect::new(p, 2, 2);
        assert!(!placed.overlaps_strictly(&Rect::new(Point::new(0, 0), 4, 4)));
        // The result touches the obstacle (as close as possible).
        assert!(placed.overlaps(&Rect::new(Point::new(0, 0), 4, 4)));
    }

    #[test]
    fn spacing_keeps_gap() {
        let mut f = GravityField::new(2);
        f.occupy(Rect::new(Point::new(0, 0), 4, 4));
        let p = f.place((2, 2), Point::new(1, 1));
        let placed = Rect::new(p, 2, 2);
        // Gap of at least 2 tracks on the approach axis... measured as
        // no strict overlap even after inflating both by 2.
        assert!(!placed
            .inflate(2)
            .overlaps_strictly(&Rect::new(Point::new(0, 0), 4, 4).inflate(2)));
    }

    #[test]
    fn successive_placements_do_not_overlap() {
        let mut f = GravityField::new(0);
        f.occupy(Rect::new(Point::new(0, 0), 6, 6));
        let mut rects = vec![Rect::new(Point::new(0, 0), 6, 6)];
        for _ in 0..12 {
            let p = f.place((5, 3), Point::new(3, 3));
            let r = Rect::new(p, 5, 3);
            for existing in &rects {
                assert!(!r.overlaps_strictly(existing), "{r} vs {existing}");
            }
            rects.push(r);
        }
    }

    #[test]
    fn placements_stay_near_gravity() {
        let mut f = GravityField::new(0);
        f.occupy(Rect::new(Point::new(0, 0), 4, 4));
        let p = f.place((2, 2), Point::new(5, 1));
        // Best free spot at the right edge of the obstacle.
        assert_eq!(p, Point::new(5, 1));
        let q = f.place((2, 2), Point::new(5, 1));
        // Next one can't take the same spot; it must touch either rect.
        assert_ne!(q, p);
        assert!(q.dist2(Point::new(5, 1)) <= 25, "{q} too far from gravity");
    }

    #[test]
    fn bounding_covers_all() {
        let mut f = GravityField::new(1);
        assert!(f.bounding().is_none());
        f.occupy(Rect::new(Point::new(0, 0), 2, 2));
        f.occupy(Rect::new(Point::new(10, 10), 2, 2));
        let b = f.bounding().unwrap();
        assert!(b.contains(Point::new(-1, -1)));
        assert!(b.contains(Point::new(13, 13)));
    }

    /// The work bound: rectangles packed around one gravity point cost
    /// at most `K` overlap tests per rectangle already placed, in every
    /// call. Testing every candidate against every rectangle, as a
    /// linear scan does, costs about `6n²` tests for the `n`-th call.
    #[test]
    fn probes_per_call_stay_linear_in_placed() {
        const K: u64 = 64;
        let mut f = GravityField::new(0);
        f.occupy(Rect::new(Point::new(0, 0), 6, 4));
        let target = Point::new(0, 0);
        for i in 1..2000u64 {
            let before = f.probes();
            let size = if i % 3 == 0 { (4, 6) } else { (6, 4) };
            f.place(size, target);
            let spent = f.probes() - before;
            assert!(spent <= K * i, "call {i} made {spent} probes (bound {})", K * i);
        }
    }

    /// A chain grown the way PABLO grows one (each rectangle aimed next
    /// to the one before) costs a bounded number of overlap tests per
    /// rectangle overall.
    #[test]
    fn probes_for_a_growing_chain_stay_linear() {
        const K: u64 = 200;
        let n = 2000u64;
        let mut f = GravityField::new(1);
        let mut last = f.place((6, 4), Point::ORIGIN);
        for i in 1..n {
            let turn = (i / 40) % 4;
            let step = [(7, 0), (0, 5), (-7, 0), (0, -5)][turn as usize];
            last = f.place((6, 4), last + Point::new(step.0, step.1));
        }
        assert!(f.probes() <= K * n, "{} probes for {n} rectangles", f.probes());
    }

    #[test]
    fn centroid_basics() {
        assert_eq!(centroid(&[]), None);
        assert_eq!(centroid(&[Point::new(2, 4)]), Some(Point::new(2, 4)));
        assert_eq!(
            centroid(&[Point::new(0, 0), Point::new(4, 2)]),
            Some(Point::new(2, 1))
        );
        assert_eq!(
            centroid(&[Point::new(-3, -3), Point::new(0, 0)]),
            Some(Point::new(-2, -2)) // floor division keeps determinism
        );
    }
}
