//! Differential tests: PABLO's indexed gravity search, incremental
//! cluster loop and incremental partitioning against the direct
//! implementations they replaced (`reference`). The direct ones rescan
//! every placed rectangle, cluster and free module at every step, so
//! they are slow but plainly follow the paper; every result of the
//! fast ones must equal theirs exactly.

use proptest::prelude::*;

use netart_diagram::Placement;
use netart_geom::{Point, Rect};
use netart_netlist::{ModuleId, NetId, Network};
use netart_place::internals::{place_clusters, Cluster, GravityField};
use netart_place::{partition, Pablo, PlaceConfig};
use netart_workloads::{random_network, RandomSpec};

/// The direct implementations: one linear scan per collision test, a
/// full rescan of the clusters per placement step and of the free pool
/// per partitioning pick.
mod reference {
    use netart_diagram::{Placement, PlacementStructure};
    use netart_geom::{Point, Rect, Rotation};
    use netart_netlist::{ModuleId, NetId, Network, Pin};
    use netart_place::internals::{place_system_terminals, Cluster};
    use netart_place::{form_boxes, layout_box, PlaceConfig, Partitioning};

    /// Occupancy map searched by scanning every placed rectangle for
    /// every candidate of every obstacle.
    #[derive(Debug, Clone)]
    pub struct GravityField {
        placed: Vec<Rect>,
        spacing: i32,
    }

    impl GravityField {
        pub fn new(spacing: i32) -> Self {
            GravityField {
                placed: Vec::new(),
                spacing: spacing.max(0),
            }
        }

        pub fn occupy(&mut self, rect: Rect) {
            self.placed.push(rect.inflate(self.spacing));
        }

        fn collides(&self, rect: &Rect) -> bool {
            self.placed.iter().any(|p| p.overlaps_strictly(rect))
        }

        fn effective(&self, origin: Point, size: (i32, i32)) -> Rect {
            Rect::new(
                origin - Point::new(self.spacing, self.spacing),
                size.0 + 2 * self.spacing,
                size.1 + 2 * self.spacing,
            )
        }

        pub fn place(&mut self, size: (i32, i32), desired: Point) -> Point {
            let origin = self.best_position(size, desired);
            self.occupy(Rect::new(origin, size.0, size.1));
            origin
        }

        fn best_position(&self, size: (i32, i32), desired: Point) -> Point {
            if !self.collides(&self.effective(desired, size)) {
                return desired;
            }
            let (w, h) = (size.0 + 2 * self.spacing, size.1 + 2 * self.spacing);
            let mut best: Option<(i64, Point)> = None;
            let mut consider = |origin: Point| {
                let rect = self.effective(origin, size);
                if self.collides(&rect) {
                    return;
                }
                let score = (origin.dist2(desired), origin);
                match &mut best {
                    Some((s, b)) if (*s, *b) <= (score.0, origin) => {}
                    _ => best = Some(score),
                }
            };
            for obstacle in &self.placed {
                let ll = obstacle.lower_left();
                let ur = obstacle.upper_right();
                for x in [ll.x - w, ur.x] {
                    let x = x + self.spacing;
                    for y in [
                        desired.y.clamp(ll.y - h + self.spacing, ur.y + self.spacing),
                        ll.y - h + self.spacing,
                        ur.y + self.spacing,
                    ] {
                        consider(Point::new(x, y));
                    }
                }
                for y in [ll.y - h, ur.y] {
                    let y = y + self.spacing;
                    for x in [
                        desired.x.clamp(ll.x - w + self.spacing, ur.x + self.spacing),
                        ll.x - w + self.spacing,
                        ur.x + self.spacing,
                    ] {
                        consider(Point::new(x, y));
                    }
                }
            }
            if let Some((_, origin)) = best {
                return origin;
            }
            let hull = self
                .placed
                .iter()
                .skip(1)
                .fold(self.placed[0], |acc, r| acc.hull(r));
            Point::new(hull.upper_right().x + self.spacing, desired.y)
        }

        pub fn bounding(&self) -> Option<Rect> {
            let mut it = self.placed.iter();
            let first = *it.next()?;
            Some(it.fold(first, |acc, r| acc.hull(r)))
        }
    }

    fn centroid(points: &[Point]) -> Option<Point> {
        if points.is_empty() {
            return None;
        }
        let n = points.len() as i64;
        let sx: i64 = points.iter().map(|p| i64::from(p.x)).sum();
        let sy: i64 = points.iter().map(|p| i64::from(p.y)).sum();
        Some(Point::new(sx.div_euclid(n) as i32, sy.div_euclid(n) as i32))
    }

    fn nets(c: &Cluster) -> impl Iterator<Item = NetId> + '_ {
        c.terms.iter().map(|&(n, _)| n)
    }

    fn shared_net_count(c: &Cluster, placed_nets: &[NetId]) -> usize {
        let mut nets: Vec<NetId> = nets(c)
            .filter(|n| placed_nets.binary_search(n).is_ok())
            .collect();
        nets.sort_unstable();
        nets.dedup();
        nets.len()
    }

    /// Cluster placement rescanning every unplaced cluster and every
    /// placed terminal at each step.
    pub fn place_clusters(
        clusters: &[Cluster],
        spacing: i32,
        anchored: Option<(usize, Point)>,
    ) -> Vec<Point> {
        let mut positions: Vec<Option<Point>> = vec![None; clusters.len()];
        let mut field = GravityField::new(spacing);
        let (first, first_pos) = anchored.unwrap_or_else(|| {
            let first = (0..clusters.len())
                .max_by_key(|&i| (clusters[i].weight, usize::MAX - i))
                .expect("non-empty");
            (first, Point::ORIGIN)
        });
        positions[first] = Some(first_pos);
        field.occupy(Rect::new(first_pos, clusters[first].size.0, clusters[first].size.1));
        let mut placed_nets: Vec<NetId> = nets(&clusters[first]).collect();
        placed_nets.sort_unstable();
        placed_nets.dedup();

        for _ in 1..clusters.len() {
            let next = (0..clusters.len())
                .filter(|&i| positions[i].is_none())
                .max_by_key(|&i| {
                    (
                        shared_net_count(&clusters[i], &placed_nets),
                        clusters[i].weight,
                        usize::MAX - i,
                    )
                })
                .expect("unplaced cluster remains");
            let shared: Vec<NetId> = nets(&clusters[next])
                .filter(|n| placed_nets.binary_search(n).is_ok())
                .collect();
            let is_shared = |n: NetId| shared.contains(&n);
            let g0 = centroid(
                &clusters[next]
                    .terms
                    .iter()
                    .filter(|&&(n, _)| is_shared(n))
                    .map(|&(_, p)| p)
                    .collect::<Vec<_>>(),
            );
            let g1_points: Vec<Point> = positions
                .iter()
                .enumerate()
                .filter_map(|(i, pos)| pos.map(|p| (i, p)))
                .flat_map(|(i, pos)| {
                    clusters[i]
                        .terms
                        .iter()
                        .filter(|&&(n, _)| is_shared(n))
                        .map(move |&(_, p)| pos + p)
                })
                .collect();
            let g1 = centroid(&g1_points);
            let desired = match (g0, g1) {
                (Some(g0), Some(g1)) => g1 - g0,
                _ => {
                    let b = field.bounding().expect("anchor placed");
                    b.center()
                        - Point::new(clusters[next].size.0 / 2, clusters[next].size.1 / 2)
                }
            };
            let pos = field.place(clusters[next].size, desired);
            positions[next] = Some(pos);
            placed_nets.extend(nets(&clusters[next]));
            placed_nets.sort_unstable();
            placed_nets.dedup();
        }
        positions.into_iter().map(|p| p.expect("all placed")).collect()
    }

    fn take_a_seed(network: &Network, free: &[ModuleId]) -> ModuleId {
        let is_free = |m: ModuleId| free.contains(&m);
        *free
            .iter()
            .min_by_key(|&&m| {
                let to_free = network.connection_count_to_set(m, is_free);
                let to_placed = network.connection_count_to_set(m, |o| !is_free(o));
                (usize::MAX - to_free, to_placed, m)
            })
            .expect("take_a_seed requires at least one free module")
    }

    fn external_connections(network: &Network, partition: &[ModuleId]) -> usize {
        let mut nets: Vec<_> = partition
            .iter()
            .flat_map(|&m| network.module_nets(m).iter().copied())
            .collect();
        nets.sort_unstable();
        nets.dedup();
        nets.into_iter()
            .filter(|&n| {
                network
                    .net_modules(n)
                    .iter()
                    .any(|m| !partition.contains(m))
            })
            .count()
    }

    fn form_partition(
        network: &Network,
        free: &mut Vec<ModuleId>,
        seed: ModuleId,
        config: &PlaceConfig,
    ) -> Vec<ModuleId> {
        let mut partition = vec![seed];
        loop {
            if free.is_empty() || partition.len() >= config.max_part_size {
                break;
            }
            if external_connections(network, &partition) >= config.max_connections {
                break;
            }
            let (idx, best) = free
                .iter()
                .enumerate()
                .min_by_key(|&(_, &m)| {
                    let inward = network.connection_count_to_set(m, |o| partition.contains(&o));
                    let outward =
                        network.connection_count_to_set(m, |o| !partition.contains(&o));
                    (usize::MAX - inward, outward, m)
                })
                .map(|(i, &m)| (i, m))
                .expect("free checked non-empty");
            if config.stop_on_zero_affinity
                && network.connection_count_to_set(best, |o| partition.contains(&o)) == 0
            {
                break;
            }
            free.swap_remove(idx);
            partition.push(best);
        }
        partition
    }

    /// Partitioning rescanning the free pool for every pick.
    pub fn partition(
        network: &Network,
        modules: impl IntoIterator<Item = ModuleId>,
        config: &PlaceConfig,
    ) -> Partitioning {
        let mut free: Vec<ModuleId> = modules.into_iter().collect();
        free.sort_unstable();
        free.dedup();
        let mut partitions = Vec::new();
        while !free.is_empty() {
            let seed = take_a_seed(network, &free);
            free.retain(|&m| m != seed);
            partitions.push(form_partition(network, &mut free, seed, config));
        }
        Partitioning { partitions }
    }

    struct PartitionLayout {
        modules: Vec<(ModuleId, Point, Rotation)>,
        size: (i32, i32),
        terms: Vec<(NetId, Point)>,
        boxes: Vec<Vec<ModuleId>>,
    }

    /// The PABLO pipeline of `Pablo::place_with_preplaced`, running the
    /// reference partitioning and cluster placement.
    pub fn pablo(network: &Network, preplaced: Placement, cfg: &PlaceConfig) -> Placement {
        let fixed: Vec<ModuleId> = network
            .modules()
            .filter(|&m| preplaced.module(m).is_some())
            .collect();
        let free: Vec<ModuleId> = network
            .modules()
            .filter(|&m| preplaced.module(m).is_none())
            .collect();
        let parts = partition(network, free.iter().copied(), cfg);
        let mut layouts: Vec<PartitionLayout> = parts
            .partitions
            .iter()
            .map(|p| layout_partition(network, p, cfg))
            .collect();

        let mut structure_boxes: Vec<Vec<Vec<ModuleId>>> = Vec::new();
        let mut anchored = None;
        if !fixed.is_empty() {
            let hull = fixed
                .iter()
                .map(|&m| preplaced.module_rect(network, m))
                .reduce(|a, b| a.hull(&b))
                .expect("non-empty fixed set");
            let origin = hull.lower_left();
            let modules: Vec<_> = fixed
                .iter()
                .map(|&m| {
                    let placed = preplaced.module(m).expect("fixed is placed");
                    (m, placed.position - origin, placed.rotation)
                })
                .collect();
            let layout = PartitionLayout {
                terms: partition_terms(network, &fixed, &modules),
                modules,
                size: (hull.width(), hull.height()),
                boxes: vec![fixed.clone()],
            };
            anchored = Some((layouts.len(), origin));
            layouts.push(layout);
        }

        let mut placement = preplaced;
        if !layouts.is_empty() {
            let clusters: Vec<Cluster> = layouts
                .iter()
                .map(|l| Cluster {
                    size: l.size,
                    terms: l.terms.clone(),
                    weight: l.modules.len(),
                })
                .collect();
            let positions = place_clusters(&clusters, cfg.part_spacing, anchored);
            for (layout, pos) in layouts.iter().zip(&positions) {
                for &(m, local, rot) in &layout.modules {
                    placement.place_module(m, *pos + local, rot);
                }
                structure_boxes.push(layout.boxes.clone());
            }
        }
        placement.set_structure(PlacementStructure {
            partitions: structure_boxes,
        });
        place_system_terminals(network, &mut placement);
        placement
    }

    fn layout_partition(network: &Network, part: &[ModuleId], cfg: &PlaceConfig) -> PartitionLayout {
        let boxes = form_boxes(network, part, cfg);
        let box_layouts: Vec<_> = boxes.iter().map(|b| layout_box(network, b, cfg)).collect();
        let clusters: Vec<Cluster> = box_layouts
            .iter()
            .map(|l| Cluster {
                size: l.size(),
                weight: l.entries().len(),
                terms: l
                    .entries()
                    .iter()
                    .flat_map(|&(m, _, _)| {
                        let tpl = network.template_of(m);
                        (0..tpl.terminal_count()).filter_map(move |t| {
                            network
                                .pin_net(Pin::Sub { module: m, term: t })
                                .map(|n| (n, l.terminal_pos(network, m, t)))
                        })
                    })
                    .collect(),
            })
            .collect();
        let positions = place_clusters(&clusters, cfg.box_spacing, None);
        let hull = positions
            .iter()
            .zip(&box_layouts)
            .map(|(&p, l)| Rect::new(p, l.size().0, l.size().1))
            .reduce(|a, b| a.hull(&b))
            .expect("partition has at least one box");
        let delta = Point::ORIGIN - hull.lower_left();
        let mut modules = Vec::new();
        for (layout, &box_pos) in box_layouts.iter().zip(&positions) {
            for &(m, local, rot) in layout.entries() {
                modules.push((m, box_pos + delta + local, rot));
            }
        }
        let terms = partition_terms(network, part, &modules);
        PartitionLayout {
            modules,
            size: (hull.width(), hull.height()),
            terms,
            boxes,
        }
    }

    fn partition_terms(
        network: &Network,
        part: &[ModuleId],
        modules: &[(ModuleId, Point, Rotation)],
    ) -> Vec<(NetId, Point)> {
        let mut terms = Vec::new();
        for &m in part {
            let &(_, pos, rot) = modules
                .iter()
                .find(|(x, _, _)| *x == m)
                .expect("module laid out");
            let tpl = network.template_of(m);
            for t in 0..tpl.terminal_count() {
                if let Some(n) = network.pin_net(Pin::Sub { module: m, term: t }) {
                    let local = rot.apply_point(tpl.terminals()[t].offset(), tpl.size());
                    terms.push((n, pos + local));
                }
            }
        }
        terms
    }
}

/// A rectangle of a soup: mostly small, sometimes degenerate, now and
/// then large enough to cover hundreds of grid cells.
fn rect_strategy() -> impl Strategy<Value = Rect> {
    let small = (-40i32..40, -40i32..40, 0i32..12, 0i32..12);
    let large = (-80i32..40, -80i32..40, 40i32..300, 0i32..300);
    (0u8..9, small, large).prop_map(|(pick, small, large)| {
        let (x, y, w, h) = if pick == 0 { large } else { small };
        Rect::new(Point::new(x, y), w, h)
    })
}

/// One step on a field: occupy a rectangle outright, or search a
/// position for a size.
#[derive(Debug, Clone)]
enum Op {
    Occupy(Rect),
    Place((i32, i32), Point),
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    let search = (0i32..10, 0i32..10, -50i32..50, -50i32..50);
    let op = (0u8..5, rect_strategy(), search).prop_map(|(pick, rect, (w, h, x, y))| {
        if pick == 0 {
            Op::Occupy(rect)
        } else {
            Op::Place((w, h), Point::new(x, y))
        }
    });
    proptest::collection::vec(op, 1..60)
}

/// Repeats some of the ops, so the soup holds duplicate rectangles and
/// searches aimed at the same point with the same size.
fn with_duplicates(ops: Vec<Op>, picks: &[usize]) -> Vec<Op> {
    let mut out = ops.clone();
    for &p in picks {
        out.push(ops[p % ops.len()].clone());
    }
    out
}

fn spec_strategy() -> impl Strategy<Value = RandomSpec> {
    (2usize..40, 1usize..60, 2usize..6, 0usize..4, 0u64..10_000).prop_map(
        |(modules, nets, fanout, terms, seed)| RandomSpec {
            modules,
            nets,
            max_fanout: fanout,
            system_terminals: terms,
            seed,
        },
    )
}

fn config_strategy() -> impl Strategy<Value = PlaceConfig> {
    (1usize..9, 1usize..7, 0i32..3, 0i32..3, 0i32..3).prop_map(|(p, b, e, i, s)| {
        PlaceConfig::new()
            .with_max_part_size(p)
            .with_max_box_size(b)
            .with_part_spacing(e)
            .with_box_spacing(i)
            .with_module_spacing(s)
    })
}

fn partition_config_strategy() -> impl Strategy<Value = PlaceConfig> {
    (1usize..12, 0usize..12, any::<bool>()).prop_map(
        |(p, c, stop)| {
            // Limits of 8 and up stand for "unlimited".
            let mut cfg = PlaceConfig::new()
                .with_max_part_size(p)
                .with_max_connections(if c < 8 { c } else { usize::MAX });
            cfg.stop_on_zero_affinity = stop;
            cfg
        },
    )
}

fn cluster_strategy() -> impl Strategy<Value = Cluster> {
    (
        (0i32..12, 0i32..12),
        1usize..6,
        proptest::collection::vec((0usize..12, 0i32..12, 0i32..12), 0..6),
    )
        .prop_map(|(size, weight, terms)| Cluster {
            size,
            weight,
            terms: terms
                .into_iter()
                .map(|(n, x, y)| (NetId::from_index(n), Point::new(x.min(size.0), y.min(size.1))))
                .collect(),
        })
}

/// Asserts two placements agree on every module, system terminal and
/// the partition/box structure.
fn assert_same_placement(net: &Network, got: &Placement, want: &Placement) -> Result<(), TestCaseError> {
    for m in net.modules() {
        prop_assert_eq!(got.module(m), want.module(m), "module {}", m);
    }
    for st in net.system_terms() {
        prop_assert_eq!(got.system_term(st), want.system_term(st));
    }
    prop_assert_eq!(got.structure(), want.structure());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every search on a rectangle soup lands where the linear scan
    /// lands, from empty or anchored starts, under any spacing.
    #[test]
    fn field_matches_reference(
        ops in ops_strategy(),
        picks in proptest::collection::vec(0usize..64, 0..8),
        spacing in 0i32..4,
    ) {
        let ops = with_duplicates(ops, &picks);
        let mut fast = GravityField::new(spacing);
        let mut slow = reference::GravityField::new(spacing);
        for op in &ops {
            match *op {
                Op::Occupy(r) => {
                    fast.occupy(r);
                    slow.occupy(r);
                }
                Op::Place(size, desired) => {
                    prop_assert_eq!(fast.place(size, desired), slow.place(size, desired), "{:?}", op);
                }
            }
            prop_assert_eq!(fast.bounding(), slow.bounding());
        }
    }

    /// Ties on a lattice: equal squared distances are common there, and
    /// obstacles line up with the grid cells, so the search's ring
    /// bound is often met exactly. The least origin must still win.
    #[test]
    fn lattice_field_matches_reference(
        cells in proptest::collection::vec((-6i32..6, -6i32..6), 1..40),
        searches in proptest::collection::vec((0i32..3, -12i32..12, -12i32..12), 1..20),
    ) {
        let mut fast = GravityField::new(0);
        let mut slow = reference::GravityField::new(0);
        for &(x, y) in &cells {
            let r = Rect::new(Point::new(2 * x, 2 * y), 2, 2);
            fast.occupy(r);
            slow.occupy(r);
        }
        for &(side, x, y) in &searches {
            let size = (side.min(1), side.min(1));
            let desired = Point::new(x, y);
            prop_assert_eq!(fast.place(size, desired), slow.place(size, desired), "{:?}", (size, desired));
        }
    }

    /// Placing clusters in a crowd: every step matches the reference,
    /// free or anchored.
    #[test]
    fn clusters_match_reference(
        clusters in proptest::collection::vec(cluster_strategy(), 1..40),
        spacing in 0i32..3,
        anchor in (any::<bool>(), 0usize..40, -20i32..20, -20i32..20),
    ) {
        let (pinned, i, x, y) = anchor;
        let anchored = pinned.then(|| (i % clusters.len(), Point::new(x, y)));
        prop_assert_eq!(
            place_clusters(&clusters, spacing, anchored),
            reference::place_clusters(&clusters, spacing, anchored)
        );
    }

    /// Partitioning equals the rescanning reference, with and without
    /// the zero-affinity stop, under connection limits and on subsets.
    #[test]
    fn partitioning_matches_reference(
        spec in spec_strategy(),
        cfg in partition_config_strategy(),
        skip in 0usize..5,
    ) {
        let net = random_network(&spec);
        let modules: Vec<ModuleId> = net.modules().filter(|m| skip == 0 || m.index() % 5 != skip).collect();
        prop_assert_eq!(
            partition(&net, modules.iter().copied(), &cfg),
            reference::partition(&net, modules.iter().copied(), &cfg)
        );
    }

    /// Whole placements equal the reference pipeline's under any
    /// options and under the paper presets.
    #[test]
    fn pablo_matches_reference(spec in spec_strategy(), cfg in config_strategy(), preset in 0usize..4) {
        let net = random_network(&spec);
        let cfg = match preset {
            0 => PlaceConfig::default(),
            1 => PlaceConfig::clusters(),
            2 => PlaceConfig::strings(),
            _ => cfg,
        };
        let got = Pablo::new(cfg.clone()).place(&net);
        let want = reference::pablo(&net, Placement::new(&net), &cfg);
        assert_same_placement(&net, &got, &want)?;
    }

    /// Placing around a preplaced part (Appendix E `-g`) equals the
    /// reference too.
    #[test]
    fn preplaced_pablo_matches_reference(spec in spec_strategy(), cfg in config_strategy(), keep in 2usize..5) {
        let net = random_network(&spec);
        let seed = Pablo::new(cfg.clone()).place(&net);
        let mut pre = Placement::new(&net);
        for m in net.modules().filter(|m| m.index() % keep == 0) {
            let placed = seed.module(m).expect("complete placement");
            pre.place_module(m, placed.position, placed.rotation);
        }
        let got = Pablo::new(cfg.clone()).place_with_preplaced(&net, pre.clone());
        let want = reference::pablo(&net, pre, &cfg);
        assert_same_placement(&net, &got, &want)?;
    }
}
