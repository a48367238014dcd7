//! Size-stratified sampling of generated loops.
//!
//! Compile and scheduling cost grows faster than linearly with loop
//! size, and the generators draw sizes from a long-tailed distribution,
//! so two seeds' corpora differ in cost mostly through how many large
//! loops they happen to contain. To keep the benchmark's numbers
//! comparable across seeds, every seed's corpus is drawn to the same
//! size profile: the profile of the corpus at the default seed. A
//! [`Quotas`] counts that corpus's loops per (class, size bucket); for
//! another seed, loops are drawn from the generator in order and kept
//! while their bucket still has room. At the default seed the first
//! draws already match the profile, so the sample is exactly the
//! generator's own corpus.

use clasp::ddg::Ddg;
use std::collections::{BTreeMap, VecDeque};

/// Draws after which a sample stops waiting for its rarest buckets and
/// keeps whatever comes: a bound on set-up time, never reached by the
/// generators' size distributions in practice.
const MAX_DRAWS_PER_LOOP: usize = 400;

/// Node-count bucket: exact below 16, then ranges whose width grows
/// with size (at most 1/8 of it), so large loops are matched closely.
pub fn size_bucket(nodes: usize) -> usize {
    if nodes < 16 {
        return nodes;
    }
    let width = (1usize << (nodes / 8).ilog2()).min(16);
    nodes / width * width
}

/// How many loops of each (class, bucket) a sample must hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quotas {
    want: BTreeMap<(u8, usize), usize>,
    total: usize,
    /// Bucket by exact node count rather than by [`size_bucket`].
    exact: bool,
}

impl Quotas {
    /// The profile of `template`, each loop tagged with a class, in
    /// [`size_bucket`]s.
    pub fn of(template: impl IntoIterator<Item = (u8, usize)>) -> Quotas {
        Quotas::with_buckets(template, false)
    }

    /// The profile of `template` by exact node count: for small samples
    /// whose few largest loops set a tail percentile.
    pub fn exact(template: impl IntoIterator<Item = (u8, usize)>) -> Quotas {
        Quotas::with_buckets(template, true)
    }

    fn with_buckets(template: impl IntoIterator<Item = (u8, usize)>, exact: bool) -> Quotas {
        let mut q = Quotas {
            want: BTreeMap::new(),
            total: 0,
            exact,
        };
        for (class, nodes) in template {
            *q.want.entry((class, q.bucket(nodes))).or_insert(0) += 1;
            q.total += 1;
        }
        q
    }

    fn bucket(&self, nodes: usize) -> usize {
        if self.exact {
            nodes
        } else {
            size_bucket(nodes)
        }
    }

    /// Draw `(class, loop)` pairs from `next` until every bucket is
    /// full, keeping accepted loops in draw order.
    pub fn fill(&self, mut next: impl FnMut() -> (u8, Ddg)) -> Vec<Ddg> {
        let mut left = self.want.clone();
        let mut out = Vec::with_capacity(self.total);
        let mut draws = 0;
        while out.len() < self.total {
            let (class, g) = next();
            draws += 1;
            let key = (class, self.bucket(g.node_count()));
            match left.get_mut(&key) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    out.push(g);
                }
                _ if draws > MAX_DRAWS_PER_LOOP * self.total => out.push(g),
                _ => {}
            }
        }
        out
    }
}

/// Lay `loops` out in the order of `sizes`: slot `j` gets the next loop
/// with `sizes[j]` nodes, or, when none is left, the next leftover. When
/// `loops` came from [`Quotas::exact`] over `sizes`, every slot gets its
/// size; at the template's own seed the order is unchanged.
pub fn arrange_like(sizes: &[usize], loops: Vec<Ddg>) -> Vec<Ddg> {
    let mut by_size: BTreeMap<usize, VecDeque<Ddg>> = BTreeMap::new();
    for g in loops {
        by_size.entry(g.node_count()).or_default().push_back(g);
    }
    let mut out: Vec<Option<Ddg>> = sizes
        .iter()
        .map(|n| by_size.get_mut(n).and_then(VecDeque::pop_front))
        .collect();
    let mut leftovers = by_size.into_values().flatten();
    for slot in out.iter_mut().filter(|s| s.is_none()) {
        *slot = leftovers.next();
    }
    out.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clasp::loopgen::{fingerprint, LoopStream, Stratum};

    #[test]
    fn buckets_are_exact_when_small_and_narrow_when_large() {
        assert_eq!(
            (2..16).map(size_bucket).collect::<Vec<_>>(),
            (2..16).collect::<Vec<_>>()
        );
        assert_eq!(size_bucket(17), 16);
        assert_eq!(size_bucket(33), 32);
        assert_eq!(size_bucket(71), 64);
        assert_eq!(size_bucket(161), 160);
        for n in 16..=161 {
            let b = size_bucket(n);
            assert!(b <= n && n - b < n / 8 + 1, "{n} -> {b}");
        }
    }

    #[test]
    fn the_template_seed_reproduces_its_own_corpus() {
        let draw = |seed| {
            let mut s = LoopStream::new(Stratum::CopyBound, seed, "t");
            move || (0u8, s.next_loop())
        };
        let template: Vec<Ddg> = LoopStream::new(Stratum::CopyBound, 1, "t")
            .take(50)
            .collect();
        let q = Quotas::of(template.iter().map(|g| (0, g.node_count())));
        let fp = |v: &[Ddg]| v.iter().map(fingerprint).collect::<Vec<_>>();
        assert_eq!(fp(&q.fill(draw(1))), fp(&template));
        let other = q.fill(draw(2));
        let profile = |v: &[Ddg]| Quotas::of(v.iter().map(|g| (0, g.node_count())));
        assert_eq!(profile(&other), q);
        assert_ne!(fp(&other), fp(&template));
        // Laid out like the template, every slot has the template's size.
        let sizes: Vec<usize> = template.iter().map(Ddg::node_count).collect();
        let exact = Quotas::exact(sizes.iter().map(|&n| (0, n)));
        let arranged = arrange_like(&sizes, exact.fill(draw(2)));
        assert_eq!(
            arranged.iter().map(Ddg::node_count).collect::<Vec<_>>(),
            sizes
        );
        assert_eq!(
            fp(&arrange_like(&sizes, exact.fill(draw(1)))),
            fp(&template)
        );
    }
}
