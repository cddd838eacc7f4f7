//! Generic centre-of-gravity cluster placement.
//!
//! Box placement inside a partition (§4.6.5) and partition placement
//! (§4.6.6) run the very same procedure at two levels: pick the
//! heaviest cluster as the anchor, then repeatedly place the cluster
//! most connected to the placed ones at the free position minimising
//! the distance between the two gravity centres.

use std::collections::BinaryHeap;

use netart_geom::{Point, Rect};
use netart_netlist::NetId;

use crate::gravity::{centroid, GravityField};

/// One rectangle to place, with the net-connected terminal points it
/// contains (in cluster-local coordinates).
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Bounding size.
    pub size: (i32, i32),
    /// `(net, local position)` for every connected terminal inside.
    pub terms: Vec<(NetId, Point)>,
    /// Number of modules inside — the paper picks the largest cluster
    /// as the anchor.
    pub weight: usize,
}

/// What the placed clusters contribute to one net: whether any of them
/// has a terminal on it, and the exact coordinate sums of those
/// terminals.
#[derive(Debug, Clone, Copy, Default)]
struct NetSum {
    placed: bool,
    x: i64,
    y: i64,
    count: i64,
}

/// The state of the placement loop.
///
/// Each step places the unplaced cluster sharing the most distinct nets
/// with the placed ones (ties: heavier, then lower index). A cluster's
/// shared-net count is bumped when one of its nets is first placed,
/// and the pick comes from a lazy max-heap on `(shared, weight, MAX -
/// index)`: an entry is stale once its cluster is placed or its count
/// has grown past it.
struct Progress<'a> {
    clusters: &'a [Cluster],
    positions: Vec<Option<Point>>,
    /// The distinct nets of all clusters, sorted: a net's slot in the
    /// per-net tables below is its index here.
    nets: Vec<NetId>,
    /// The clusters with a terminal on each net.
    on_net: Vec<Vec<usize>>,
    sums: Vec<NetSum>,
    shared: Vec<usize>,
    queue: BinaryHeap<(usize, usize, usize)>,
}

impl<'a> Progress<'a> {
    fn new(clusters: &'a [Cluster]) -> Self {
        let mut nets: Vec<NetId> = clusters.iter().flat_map(|c| &c.terms).map(|&(n, _)| n).collect();
        nets.sort_unstable();
        nets.dedup();
        let mut progress = Progress {
            clusters,
            positions: vec![None; clusters.len()],
            on_net: vec![Vec::new(); nets.len()],
            sums: vec![NetSum::default(); nets.len()],
            nets,
            shared: vec![0; clusters.len()],
            queue: BinaryHeap::new(),
        };
        for (i, c) in clusters.iter().enumerate() {
            for &(n, _) in &c.terms {
                let slot = progress.slot(n);
                let list = &mut progress.on_net[slot];
                if list.last() != Some(&i) {
                    list.push(i);
                }
            }
        }
        progress.queue = (0..clusters.len()).map(|i| progress.key(i)).collect();
        progress
    }

    fn slot(&self, n: NetId) -> usize {
        self.nets.binary_search(&n).expect("net of a cluster")
    }

    fn key(&self, i: usize) -> (usize, usize, usize) {
        (self.shared[i], self.clusters[i].weight, usize::MAX - i)
    }

    /// The unplaced cluster to place next.
    fn next(&mut self) -> usize {
        while let Some(top) = self.queue.pop() {
            let i = usize::MAX - top.2;
            if self.positions[i].is_none() && top == self.key(i) {
                return i;
            }
        }
        unreachable!("unplaced cluster remains")
    }

    /// Records cluster `i` at `pos`.
    fn settle(&mut self, i: usize, pos: Point) {
        self.positions[i] = Some(pos);
        for &(n, p) in &self.clusters[i].terms {
            let slot = self.slot(n);
            let at = pos + p;
            let sum = &mut self.sums[slot];
            sum.x += i64::from(at.x);
            sum.y += i64::from(at.y);
            sum.count += 1;
            if !std::mem::replace(&mut sum.placed, true) {
                for k in 0..self.on_net[slot].len() {
                    let j = self.on_net[slot][k];
                    if self.positions[j].is_none() {
                        self.shared[j] += 1;
                        let key = self.key(j);
                        self.queue.push(key);
                    }
                }
            }
        }
    }

    /// The gravity pair of cluster `i`: the centroid of its terminals on
    /// nets shared with the placed clusters, and the centroid of the
    /// placed terminals on those nets. `None` without shared nets.
    fn gravity_pair(&self, i: usize) -> Option<(Point, Point)> {
        let terms = &self.clusters[i].terms;
        let mut shared: Vec<usize> = terms
            .iter()
            .map(|&(n, _)| self.slot(n))
            .filter(|&s| self.sums[s].placed)
            .collect();
        let g0 = centroid(
            &terms
                .iter()
                .filter(|&&(n, _)| self.sums[self.slot(n)].placed)
                .map(|&(_, p)| p)
                .collect::<Vec<_>>(),
        )?;
        shared.sort_unstable();
        shared.dedup();
        let (mut x, mut y, mut count) = (0i64, 0i64, 0i64);
        for s in shared {
            let sum = &self.sums[s];
            (x, y, count) = (x + sum.x, y + sum.y, count + sum.count);
        }
        let g1 = Point::new(x.div_euclid(count) as i32, y.div_euclid(count) as i32);
        Some((g0, g1))
    }
}

/// Places all clusters; returns their origins, index-aligned with the
/// input.
///
/// `anchored` optionally pins one cluster at a fixed origin (used for a
/// preplaced part, Appendix E `-g`); otherwise the heaviest cluster
/// anchors at the origin.
pub fn place_clusters(
    clusters: &[Cluster],
    spacing: i32,
    anchored: Option<(usize, Point)>,
) -> Vec<Point> {
    assert!(!clusters.is_empty(), "nothing to place");
    let gravity_span = tracing::span!(
        tracing::Level::DEBUG,
        "pablo.gravity",
        clusters = clusters.len() as u64,
    );
    let _gravity_guard = gravity_span.enter();
    netart_fault::fire_hard(netart_fault::sites::PLACE_GRAVITY);
    let mut progress = Progress::new(clusters);
    let mut field = GravityField::new(spacing);

    let (first, first_pos) = anchored.unwrap_or_else(|| {
        // Heaviest cluster first; ties by lowest index.
        let first = (0..clusters.len())
            .max_by_key(|&i| (clusters[i].weight, usize::MAX - i))
            .expect("non-empty");
        (first, Point::ORIGIN)
    });
    field.occupy(Rect::new(first_pos, clusters[first].size.0, clusters[first].size.1));
    progress.settle(first, first_pos);

    for _ in 1..clusters.len() {
        let next = progress.next();
        let size = clusters[next].size;
        let desired = match progress.gravity_pair(next) {
            Some((g0, g1)) => g1 - g0,
            // No shared nets: aim at the centre of what is placed.
            None => {
                let b = field.bounding().expect("anchor placed");
                b.center() - Point::new(size.0 / 2, size.1 / 2)
            }
        };
        let pos = field.place(size, desired);
        progress.settle(next, pos);
    }

    progress
        .positions
        .into_iter()
        .map(|p| p.expect("all placed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(size: (i32, i32), weight: usize, terms: &[(usize, (i32, i32))]) -> Cluster {
        Cluster {
            size,
            weight,
            terms: terms
                .iter()
                .map(|&(n, (x, y))| (NetId::from_index(n), Point::new(x, y)))
                .collect(),
        }
    }

    #[test]
    fn heaviest_anchors_at_origin() {
        let clusters = vec![
            c((4, 4), 1, &[(0, (4, 2))]),
            c((6, 6), 3, &[(0, (0, 3))]),
        ];
        let pos = place_clusters(&clusters, 0, None);
        assert_eq!(pos[1], Point::ORIGIN);
    }

    #[test]
    fn connected_clusters_placed_adjacent() {
        let clusters = vec![
            c((4, 4), 2, &[(0, (4, 2))]),          // net 0 exits on the right
            c((4, 4), 1, &[(0, (0, 2))]),          // net 0 enters on the left
            c((4, 4), 1, &[(1, (0, 0)), (0, (0, 3))]),
        ];
        let pos = place_clusters(&clusters, 0, None);
        // No overlaps.
        let rects: Vec<Rect> = pos
            .iter()
            .zip(&clusters)
            .map(|(&p, c)| Rect::new(p, c.size.0, c.size.1))
            .collect();
        for (i, a) in rects.iter().enumerate() {
            for b in &rects[i + 1..] {
                assert!(!a.overlaps_strictly(b), "{a} vs {b}");
            }
        }
        // Cluster 1's left terminal ends up near cluster 0's right one.
        let t0 = pos[0] + Point::new(4, 2);
        let t1 = pos[1] + Point::new(0, 2);
        assert!(t0.manhattan(t1) <= 6, "terminals {t0} and {t1} too far");
    }

    #[test]
    fn anchored_cluster_stays_fixed() {
        let clusters = vec![
            c((4, 4), 1, &[(0, (4, 2))]),
            c((4, 4), 5, &[(0, (0, 2))]),
        ];
        let pin = Point::new(100, 50);
        let pos = place_clusters(&clusters, 0, Some((0, pin)));
        assert_eq!(pos[0], pin);
        // The other cluster lands near the anchor despite being heavier.
        assert!(pos[1].manhattan(pin) < 30);
    }

    #[test]
    fn unconnected_cluster_still_lands_nearby() {
        let clusters = vec![
            c((8, 8), 4, &[(0, (4, 4))]),
            c((2, 2), 1, &[]), // no nets at all
        ];
        let pos = place_clusters(&clusters, 1, None);
        assert!(pos[1].manhattan(pos[0]) < 20, "{:?}", pos);
    }

    #[test]
    fn spacing_respected_between_clusters() {
        let clusters = vec![
            c((4, 4), 2, &[(0, (4, 2))]),
            c((4, 4), 1, &[(0, (0, 2))]),
        ];
        let pos = place_clusters(&clusters, 3, None);
        let a = Rect::new(pos[0], 4, 4);
        let b = Rect::new(pos[1], 4, 4);
        assert!(!a.inflate(3).overlaps_strictly(&b.inflate(3)), "{a} {b}");
    }

    #[test]
    fn many_clusters_all_disjoint() {
        let clusters: Vec<Cluster> = (0..10)
            .map(|i| c((3, 3), 1, &[(i % 3, (1, 1))]))
            .collect();
        let pos = place_clusters(&clusters, 1, None);
        for i in 0..pos.len() {
            for j in i + 1..pos.len() {
                let a = Rect::new(pos[i], 3, 3);
                let b = Rect::new(pos[j], 3, 3);
                assert!(!a.overlaps_strictly(&b));
            }
        }
    }
}
