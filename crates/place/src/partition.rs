//! Partitioning the design into functional parts (§4.6.3).
//!
//! The process repeatedly selects a *seed* — the free module most
//! heavily connected to the remaining free modules — and grows a cluster
//! around it by absorbing the free module with the strongest affinity to
//! the cluster, until the partition size limit or the outgoing-net limit
//! is exceeded.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use netart_netlist::{ModuleId, NetId, Network};

use crate::PlaceConfig;

/// The result of partitioning: disjoint module sets covering all
/// requested modules, in formation order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    /// The partitions, each a list of modules in absorption order
    /// (seed first).
    pub partitions: Vec<Vec<ModuleId>>,
}

impl Partitioning {
    /// Number of partitions formed.
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// `true` when no partitions were formed.
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// The partition index a module belongs to.
    pub fn partition_of(&self, m: ModuleId) -> Option<usize> {
        self.partitions.iter().position(|p| p.contains(&m))
    }
}

/// The free pool and the bookkeeping that makes every pick of
/// `TAKE_A_SEED` and `FORM_PARTITION` incremental.
///
/// A module's connection counts change only when a net's membership
/// crosses a threshold, so each count is kept per module and updated
/// when a module leaves the free pool or joins the growing partition.
/// Picks come from lazy min-heaps keyed exactly as the paper's
/// tie-breaks: an entry is stale once its module has left the pool or
/// its counts have moved.
struct Pool<'a> {
    network: &'a Network,
    free: Vec<bool>,
    free_left: usize,
    /// Free modules on each net.
    free_on_net: Vec<usize>,
    /// Nets of a module with another free module on them.
    to_free: Vec<usize>,
    /// Nets of a module with a module on them that is not free.
    to_placed: Vec<usize>,
    /// `(usize::MAX - to_free, to_placed, m)`, least first.
    seeds: BinaryHeap<Reverse<(usize, usize, ModuleId)>>,
    /// Free modules by `(nets with another module, id)`: the pick of
    /// `FORM_PARTITION` when nothing free touches the partition.
    unrelated: Option<BTreeSet<(usize, ModuleId)>>,
    growth: Growth,
}

/// The partition being formed.
#[derive(Default)]
struct Growth {
    members: Vec<bool>,
    /// Partition members on each net.
    on_net: Vec<usize>,
    /// Nets with a member and a module outside the partition.
    external: usize,
    /// Nets of a free module with a member on them.
    inward: Vec<usize>,
    /// Nets of a free module with another module outside the partition.
    outward: Vec<usize>,
    /// `(usize::MAX - inward, outward, m)` over free modules with
    /// `inward > 0`, least first.
    candidates: BinaryHeap<Reverse<(usize, usize, ModuleId)>>,
    touched_nets: Vec<NetId>,
    touched_modules: Vec<ModuleId>,
}

/// Nets of `m` shared with at least one other module.
fn linked_nets(network: &Network, m: ModuleId) -> usize {
    network
        .module_nets(m)
        .iter()
        .filter(|&&n| network.net_modules(n).len() > 1)
        .count()
}

impl<'a> Pool<'a> {
    fn new(network: &'a Network, free: &[ModuleId], config: &PlaceConfig) -> Self {
        let (modules, nets) = (network.module_count(), network.net_count());
        let mut pool = Pool {
            network,
            free: vec![false; modules],
            free_left: free.len(),
            free_on_net: vec![0; nets],
            to_free: vec![0; modules],
            to_placed: vec![0; modules],
            seeds: BinaryHeap::new(),
            unrelated: (!config.stop_on_zero_affinity).then(BTreeSet::new),
            growth: Growth {
                members: vec![false; modules],
                on_net: vec![0; nets],
                inward: vec![0; modules],
                outward: vec![0; modules],
                ..Growth::default()
            },
        };
        for &m in free {
            pool.free[m.index()] = true;
            for &n in network.module_nets(m) {
                pool.free_on_net[n.index()] += 1;
            }
        }
        for &m in free {
            for &n in network.module_nets(m) {
                let on = pool.free_on_net[n.index()];
                pool.to_free[m.index()] += usize::from(on > 1);
                pool.to_placed[m.index()] += usize::from(network.net_modules(n).len() > on);
            }
            pool.push_seed(m);
            if let Some(set) = &mut pool.unrelated {
                set.insert((linked_nets(network, m), m));
            }
        }
        pool
    }

    fn seed_key(&self, m: ModuleId) -> (usize, usize, ModuleId) {
        (usize::MAX - self.to_free[m.index()], self.to_placed[m.index()], m)
    }

    fn push_seed(&mut self, m: ModuleId) {
        let key = self.seed_key(m);
        self.seeds.push(Reverse(key));
    }

    /// `TAKE_A_SEED`: the free module with the most connections to the
    /// other free modules; ties broken by fewest connections to modules
    /// already absorbed into partitions (or not being partitioned),
    /// then by lowest id (the paper's "arbitrary choice", made
    /// deterministic).
    fn take_a_seed(&mut self) -> ModuleId {
        while let Some(Reverse(key)) = self.seeds.pop() {
            let m = key.2;
            if self.free[m.index()] && key == self.seed_key(m) {
                return m;
            }
        }
        unreachable!("take_a_seed requires at least one free module")
    }

    /// Removes `x` from the free pool.
    fn take(&mut self, x: ModuleId) {
        let network = self.network;
        self.free[x.index()] = false;
        self.free_left -= 1;
        if let Some(set) = &mut self.unrelated {
            set.remove(&(linked_nets(network, x), x));
        }
        for &n in network.module_nets(x) {
            let ms = network.net_modules(n);
            let was = self.free_on_net[n.index()];
            self.free_on_net[n.index()] = was - 1;
            let lost_partner = was == 2;
            let first_taken = was == ms.len();
            if !(lost_partner || first_taken) {
                continue;
            }
            for &o in ms {
                if !self.free[o.index()] {
                    continue;
                }
                self.to_free[o.index()] -= usize::from(lost_partner);
                self.to_placed[o.index()] += usize::from(first_taken);
                self.push_seed(o);
            }
        }
    }

    fn candidate_key(&self, m: ModuleId) -> (usize, usize, ModuleId) {
        let g = &self.growth;
        (usize::MAX - g.inward[m.index()], g.outward[m.index()], m)
    }

    fn push_candidate(&mut self, m: ModuleId) {
        let key = self.candidate_key(m);
        self.growth.candidates.push(Reverse(key));
    }

    /// Adds `x` (no longer free) to the partition being formed.
    fn absorb(&mut self, x: ModuleId) {
        let network = self.network;
        self.growth.members[x.index()] = true;
        for &n in network.module_nets(x) {
            let ms = network.net_modules(n);
            let g = &mut self.growth;
            g.on_net[n.index()] += 1;
            let on = g.on_net[n.index()];
            if on == 1 {
                g.touched_nets.push(n);
                g.external += usize::from(ms.len() > 1);
                for &o in ms {
                    if !self.free[o.index()] {
                        continue;
                    }
                    let g = &mut self.growth;
                    if g.inward[o.index()] == 0 {
                        g.outward[o.index()] = linked_nets(network, o);
                        g.touched_modules.push(o);
                    }
                    g.inward[o.index()] += 1;
                    self.push_candidate(o);
                }
            }
            let g = &mut self.growth;
            if on == ms.len() && on > 1 {
                g.external -= 1;
            }
            if on + 1 == ms.len() {
                // One module is left outside: the net no longer links
                // it to anything outside.
                let last = *ms
                    .iter()
                    .find(|o| !g.members[o.index()])
                    .expect("one module outside");
                if self.free[last.index()] {
                    self.growth.outward[last.index()] -= 1;
                    self.push_candidate(last);
                }
            }
        }
    }

    /// The free module with the most connections into the partition;
    /// ties broken by fewest connections to the outside, then by lowest
    /// id. `None` when no free module touches the partition.
    fn best_candidate(&mut self) -> Option<ModuleId> {
        while let Some(&Reverse(key)) = self.growth.candidates.peek() {
            let m = key.2;
            if self.free[m.index()] && key == self.candidate_key(m) {
                return Some(m);
            }
            self.growth.candidates.pop();
        }
        None
    }

    /// Clears the partition bookkeeping for the next one.
    fn reset_growth(&mut self, partition: &[ModuleId]) {
        let g = &mut self.growth;
        for &m in partition {
            g.members[m.index()] = false;
        }
        for n in g.touched_nets.drain(..) {
            g.on_net[n.index()] = 0;
        }
        for m in g.touched_modules.drain(..) {
            g.inward[m.index()] = 0;
            g.outward[m.index()] = 0;
        }
        g.external = 0;
        g.candidates.clear();
    }

    /// `FORM_PARTITION`: grows a cluster around `seed` (already taken
    /// from the pool), absorbing free modules until the size limit or
    /// the outgoing-net limit is reached.
    fn form_partition(&mut self, seed: ModuleId, config: &PlaceConfig) -> Vec<ModuleId> {
        let mut partition = vec![seed];
        loop {
            if self.free_left == 0 || partition.len() >= config.max_part_size {
                break;
            }
            if partition.len() == 1 {
                self.absorb(seed);
            }
            if self.growth.external >= config.max_connections {
                break;
            }
            let best = match self.best_candidate() {
                Some(m) => m,
                // Nothing free touches the partition.
                None if config.stop_on_zero_affinity => break,
                None => {
                    self.unrelated
                        .as_ref()
                        .and_then(|set| set.first())
                        .expect("a free module remains")
                        .1
                }
            };
            self.take(best);
            self.absorb(best);
            partition.push(best);
        }
        self.reset_growth(&partition);
        partition
    }
}

/// Partitions the given modules of a network into functional parts.
///
/// Every module of `modules` ends up in exactly one partition. The
/// order of `modules` does not influence the result beyond tie-breaking
/// by module id.
pub fn partition(
    network: &Network,
    modules: impl IntoIterator<Item = ModuleId>,
    config: &PlaceConfig,
) -> Partitioning {
    let mut free: Vec<ModuleId> = modules.into_iter().collect();
    free.sort_unstable();
    free.dedup();
    let mut pool = Pool::new(network, &free, config);
    let mut partitions = Vec::new();
    while pool.free_left > 0 {
        let seed = pool.take_a_seed();
        pool.take(seed);
        partitions.push(pool.form_partition(seed, config));
    }
    Partitioning { partitions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netart_netlist::{Library, NetworkBuilder, Template, TermType};

    /// Two 3-module cliques joined by a single bridge net.
    fn two_cliques() -> Network {
        let mut lib = Library::new();
        let t = lib
            .add_template(
                Template::new("m", (2, 6))
                    .unwrap()
                    .with_terminal("a", (0, 1), TermType::In)
                    .unwrap()
                    .with_terminal("b", (0, 3), TermType::In)
                    .unwrap()
                    .with_terminal("c", (0, 5), TermType::In)
                    .unwrap()
                    .with_terminal("x", (2, 1), TermType::Out)
                    .unwrap()
                    .with_terminal("y", (2, 3), TermType::Out)
                    .unwrap()
                    .with_terminal("z", (2, 5), TermType::Out)
                    .unwrap(),
            )
            .unwrap();
        let mut b = NetworkBuilder::new(lib);
        let ms: Vec<ModuleId> = (0..6)
            .map(|i| b.add_instance(format!("u{i}"), t).unwrap())
            .collect();
        // clique 0: u0,u1,u2 fully pairwise connected
        let pairs = [(0, 1, "x", "a"), (1, 2, "y", "b"), (2, 0, "z", "c")];
        for (i, (s, d, o, t)) in pairs.iter().enumerate() {
            let name = format!("c0_{i}");
            b.connect_pin(&name, ms[*s], o).unwrap();
            b.connect_pin(&name, ms[*d], t).unwrap();
        }
        for (i, (s, d, o, t)) in pairs.iter().enumerate() {
            let name = format!("c1_{i}");
            b.connect_pin(&name, ms[s + 3], o).unwrap();
            b.connect_pin(&name, ms[d + 3], t).unwrap();
        }
        // bridge u2 -> u3
        b.connect_pin("bridge", ms[2], "x").unwrap();
        b.connect_pin("bridge", ms[3], "a").unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn partition_size_one_yields_singletons() {
        let net = two_cliques();
        let p = partition(&net, net.modules(), &PlaceConfig::default());
        assert_eq!(p.len(), 6);
        assert!(p.partitions.iter().all(|p| p.len() == 1));
    }

    #[test]
    fn cliques_stay_together() {
        let net = two_cliques();
        let cfg = PlaceConfig::default().with_max_part_size(3);
        let p = partition(&net, net.modules(), &cfg);
        assert_eq!(p.len(), 2, "{p:?}");
        for part in &p.partitions {
            assert_eq!(part.len(), 3);
            // All members of a partition belong to the same clique.
            let first_clique = part[0].index() / 3;
            assert!(part.iter().all(|m| m.index() / 3 == first_clique), "{p:?}");
        }
    }

    #[test]
    fn every_module_in_exactly_one_partition() {
        let net = two_cliques();
        for size in [1, 2, 3, 4, 10] {
            let cfg = PlaceConfig::default().with_max_part_size(size);
            let p = partition(&net, net.modules(), &cfg);
            let mut all: Vec<ModuleId> = p.partitions.iter().flatten().copied().collect();
            all.sort_unstable();
            let expected: Vec<ModuleId> = net.modules().collect();
            assert_eq!(all, expected, "size {size}");
        }
    }

    #[test]
    fn connection_limit_closes_partitions() {
        let net = two_cliques();
        // With the limit at 1 outgoing net, partitions close as soon as
        // they have any external connection, keeping them small.
        let cfg = PlaceConfig::default()
            .with_max_part_size(6)
            .with_max_connections(1);
        let p = partition(&net, net.modules(), &cfg);
        assert!(p.len() >= 2, "{p:?}");
    }

    #[test]
    fn partition_of_lookup() {
        let net = two_cliques();
        let cfg = PlaceConfig::default().with_max_part_size(3);
        let p = partition(&net, net.modules(), &cfg);
        for m in net.modules() {
            assert!(p.partition_of(m).is_some());
        }
        assert!(!p.is_empty());
    }

    #[test]
    fn subset_partitioning_ignores_other_modules() {
        let net = two_cliques();
        let subset: Vec<ModuleId> = net.modules().take(3).collect();
        let cfg = PlaceConfig::default().with_max_part_size(3);
        let p = partition(&net, subset.iter().copied(), &cfg);
        let placed: Vec<ModuleId> = p.partitions.iter().flatten().copied().collect();
        assert_eq!(placed.len(), 3);
        assert!(placed.iter().all(|m| subset.contains(m)));
    }

    #[test]
    fn zero_affinity_split_vs_paper_mode() {
        let net = two_cliques();
        // Big enough limit to hold everything.
        let strict = PlaceConfig::default().with_max_part_size(6);
        let p = partition(&net, net.modules(), &strict);
        // The bridge net gives the cliques affinity, so one partition.
        assert_eq!(p.len(), 1);

        let mut paper_mode = strict.clone();
        paper_mode.stop_on_zero_affinity = false;
        let p2 = partition(&net, net.modules(), &paper_mode);
        assert_eq!(p2.len(), 1);
    }
}
