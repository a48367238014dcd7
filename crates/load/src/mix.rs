//! Synthetic request mixes: the deterministic schedule of wire requests
//! a load run replays.
//!
//! A schedule is built from four request classes:
//!
//! - **hot** — repeats drawn from a small fixed pool of loops, so a
//!   warmed cache answers them from memory (the cache-hit latency
//!   floor);
//! - **cold** — unique loops from the `loopgen` synthetic stream, each
//!   compiled exactly once (the full-pipeline latency);
//! - **hard** — fuzz-mined pathological loop/machine pairs from the
//!   committed `results/hard/` corpus, compiled with the heuristic
//!   backend;
//! - **exact** — the same hard pairs compiled with `--backend exact`,
//!   whose CDCL solve times are heavy-tailed — exactly the traffic that
//!   makes percentiles, not medians, the right metric.
//!
//! Everything about a schedule — which loops, which classes, in which
//!   order — is a pure function of the [`MixConfig`], so two runs with
//! the same config replay byte-identical request streams. Wire
//! rendering is injected (see [`CaseSpec`] and the `render` parameter):
//! the harness never depends on the root crate's `ServiceRequest`.

use clasp_loopgen::rng::{fold_seed, Rng};
use clasp_loopgen::{generate_corpus, CorpusConfig, LoopStream, Stratum};
use std::path::{Path, PathBuf};

/// The class of one request in a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqClass {
    /// Repeat of a pooled loop (cache hit once warmed).
    Hot,
    /// Unique loop, compiled exactly once.
    Cold,
    /// Fuzz-mined pathological pair, heuristic backend.
    Hard,
    /// Fuzz-mined pathological pair, exact SAT backend.
    Exact,
}

impl ReqClass {
    /// All classes, in reporting order.
    pub const ALL: [ReqClass; 4] = [
        ReqClass::Hot,
        ReqClass::Cold,
        ReqClass::Hard,
        ReqClass::Exact,
    ];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            ReqClass::Hot => "hot",
            ReqClass::Cold => "cold",
            ReqClass::Hard => "hard",
            ReqClass::Exact => "exact",
        }
    }

    /// Index into per-class arrays.
    pub fn index(self) -> usize {
        match self {
            ReqClass::Hot => 0,
            ReqClass::Cold => 1,
            ReqClass::Hard => 2,
            ReqClass::Exact => 3,
        }
    }
}

/// Named mixes — the benchmark matrix's third axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 100% hot repeats: the cache-hit latency floor.
    Hot,
    /// 100% cold uniques: full-pipeline compile latency.
    Cold,
    /// 70% hot, 20% cold, 6% hard, 4% exact: traffic-shaped.
    Mixed,
}

impl Mix {
    /// Stable lowercase name (the cell-name component).
    pub fn name(self) -> &'static str {
        match self {
            Mix::Hot => "hot",
            Mix::Cold => "cold",
            Mix::Mixed => "mixed",
        }
    }

    /// Parse a mix name.
    pub fn parse(s: &str) -> Option<Mix> {
        match s {
            "hot" => Some(Mix::Hot),
            "cold" => Some(Mix::Cold),
            "mixed" => Some(Mix::Mixed),
            _ => None,
        }
    }
}

/// One compile case, ready for wire rendering: the two canonical texts
/// plus the backend choice. The injected renderer turns this into the
/// actual frame body.
#[derive(Debug, Clone)]
pub struct CaseSpec {
    /// `.clasp` loop text.
    pub loop_text: String,
    /// `.machine` machine text.
    pub machine_text: String,
    /// Compile with the exact SAT backend instead of the heuristic.
    pub exact: bool,
}

/// One scheduled request: the pre-rendered wire body and its class.
#[derive(Debug, Clone)]
pub struct LoadRequest {
    /// Request class (for per-class accounting).
    pub class: ReqClass,
    /// Frame body to send.
    pub wire: String,
}

/// How to build a schedule.
#[derive(Debug, Clone)]
pub struct MixConfig {
    /// Which mix to draw from.
    pub mix: Mix,
    /// Number of requests in the schedule.
    pub requests: usize,
    /// Seed for the hot pool — shared across cells so every cell's hot
    /// requests hit the same loops.
    pub pool_seed: u64,
    /// Seed for the cold stream and the class draw — unique per cell so
    /// no two cells share a "cold" loop.
    pub cell_seed: u64,
    /// Directory of fuzz-mined `hard-*.clasp`/`.machine` pairs; `None`
    /// (or an empty/missing directory) degrades hard/exact draws to hot.
    pub hard_dir: Option<PathBuf>,
}

/// Loops in the hot pool. Small enough that every pool member recurs
/// many times in a few hundred requests, large enough to exercise more
/// than one cache line of the memory tier.
pub const HOT_POOL_LOOPS: usize = 12;

/// A built schedule: the request stream plus the distinct hot wires
/// (for cache pre-warming) and per-class counts.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// The request stream, in replay order.
    pub requests: Vec<LoadRequest>,
    /// Every distinct hot wire (issue once, untimed, to warm the cache
    /// before a hot or mixed run).
    pub hot_wires: Vec<String>,
    /// Number of hard pairs found on disk (0 = hard/exact degraded to
    /// hot).
    pub hard_pool: usize,
    /// Requests per class, indexed by [`ReqClass::index`].
    pub class_counts: [usize; 4],
}

/// Read the committed hard-instance corpus: sorted `*.clasp` files with
/// a sibling `*.machine`. Missing directory or no pairs is an empty
/// pool, not an error — the schedule degrades deterministically.
fn read_hard_pairs(dir: &Path) -> Vec<(String, String)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "clasp"))
        .collect();
    paths.sort();
    let mut pairs = Vec::new();
    for p in paths {
        let machine = p.with_extension("machine");
        if let (Ok(l), Ok(m)) = (
            std::fs::read_to_string(&p),
            std::fs::read_to_string(&machine),
        ) {
            pairs.push((l, m));
        }
    }
    pairs
}

/// Build the deterministic request schedule for one cell.
///
/// `render` turns a [`CaseSpec`] into the wire frame body (the root
/// crate binds this to `ServiceRequest::render`).
pub fn build_schedule(config: &MixConfig, render: impl Fn(&CaseSpec) -> String) -> Schedule {
    let machine_text = clasp_text::write_machine(&clasp_machine::presets::four_cluster_gp(4, 2));
    let case = |loop_text: String, exact: bool| CaseSpec {
        loop_text,
        machine_text: machine_text.clone(),
        exact,
    };

    // Hot pool: a small corpus from the pool seed, rendered once.
    let pool = generate_corpus(CorpusConfig {
        loops: HOT_POOL_LOOPS,
        scc_loops: HOT_POOL_LOOPS / 4,
        seed: config.pool_seed,
    });
    let hot_wires: Vec<String> = pool
        .iter()
        .map(|g| render(&case(clasp_text::write_loop(g), false)))
        .collect();

    // Hard pairs: committed corpus, rendered for both backends.
    let hard_pairs = config
        .hard_dir
        .as_deref()
        .map(read_hard_pairs)
        .unwrap_or_default();
    let hard_wires: Vec<String> = hard_pairs
        .iter()
        .map(|(l, m)| {
            render(&CaseSpec {
                loop_text: l.clone(),
                machine_text: m.clone(),
                exact: false,
            })
        })
        .collect();
    let exact_wires: Vec<String> = hard_pairs
        .iter()
        .map(|(l, m)| {
            render(&CaseSpec {
                loop_text: l.clone(),
                machine_text: m.clone(),
                exact: true,
            })
        })
        .collect();

    // Cold stream: unique loops from the stratified stream API, drawn
    // from the cell's own stratum. The stream seed FNV-folds the cell
    // seed, the "cold" role, *and* the stratum name — the old
    // `cell_seed ^ CONST` derivation let a cold stream alias another
    // role's stream whenever two cell seeds differed by the XOR of the
    // role constants, and folded no stratum at all.
    let stratum = Stratum::SYNTHETIC
        [(fold_seed(config.cell_seed, "cold-stratum") % Stratum::SYNTHETIC.len() as u64) as usize];
    let mut cold = LoopStream::new(stratum, config.cell_seed, "cold");
    let mut next_cold = move || render(&case(clasp_text::write_loop(&cold.next_loop()), false));

    let mut draw_rng = Rng::seed_from_u64(fold_seed(config.cell_seed, "draw"));
    let mut requests = Vec::with_capacity(config.requests);
    let mut class_counts = [0usize; 4];
    for _ in 0..config.requests {
        let class = match config.mix {
            Mix::Hot => ReqClass::Hot,
            Mix::Cold => ReqClass::Cold,
            Mix::Mixed => match draw_rng.below(100) {
                0..=69 => ReqClass::Hot,
                70..=89 => ReqClass::Cold,
                90..=95 => ReqClass::Hard,
                _ => ReqClass::Exact,
            },
        };
        // Hard/exact degrade to hot when the corpus is absent, keeping
        // the schedule total (and determinism) intact.
        let (class, wire) = match class {
            ReqClass::Hot => (
                ReqClass::Hot,
                hot_wires[draw_rng.below(hot_wires.len())].clone(),
            ),
            ReqClass::Cold => (ReqClass::Cold, next_cold()),
            ReqClass::Hard if !hard_wires.is_empty() => (
                ReqClass::Hard,
                hard_wires[draw_rng.below(hard_wires.len())].clone(),
            ),
            ReqClass::Exact if !exact_wires.is_empty() => (
                ReqClass::Exact,
                exact_wires[draw_rng.below(exact_wires.len())].clone(),
            ),
            _ => (
                ReqClass::Hot,
                hot_wires[draw_rng.below(hot_wires.len())].clone(),
            ),
        };
        class_counts[class.index()] += 1;
        requests.push(LoadRequest { class, wire });
    }

    Schedule {
        requests,
        hot_wires,
        hard_pool: hard_pairs.len(),
        class_counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(case: &CaseSpec) -> String {
        format!(
            "exact={} machine={} loop={}",
            case.exact,
            case.machine_text.len(),
            case.loop_text
        )
    }

    fn config(mix: Mix) -> MixConfig {
        MixConfig {
            mix,
            requests: 200,
            pool_seed: 7,
            cell_seed: 11,
            hard_dir: None,
        }
    }

    #[test]
    fn schedules_are_deterministic() {
        let a = build_schedule(&config(Mix::Mixed), render);
        let b = build_schedule(&config(Mix::Mixed), render);
        assert_eq!(a.requests.len(), 200);
        for (x, y) in a.requests.iter().zip(&b.requests) {
            assert_eq!(x.class, y.class);
            assert_eq!(x.wire, y.wire);
        }
        assert_eq!(a.class_counts, b.class_counts);
    }

    #[test]
    fn hot_mix_draws_only_from_the_pool() {
        let s = build_schedule(&config(Mix::Hot), render);
        assert_eq!(s.class_counts, [200, 0, 0, 0]);
        for r in &s.requests {
            assert!(s.hot_wires.contains(&r.wire));
        }
    }

    #[test]
    fn cold_mix_never_repeats_a_wire() {
        let s = build_schedule(&config(Mix::Cold), render);
        assert_eq!(s.class_counts, [0, 200, 0, 0]);
        let mut seen = std::collections::HashSet::new();
        for r in &s.requests {
            assert!(seen.insert(r.wire.clone()), "cold wire repeated");
        }
    }

    #[test]
    fn different_cell_seeds_produce_disjoint_cold_streams() {
        let a = build_schedule(&config(Mix::Cold), render);
        let mut cfg = config(Mix::Cold);
        cfg.cell_seed = 12;
        let b = build_schedule(&cfg, render);
        let a_set: std::collections::HashSet<_> = a.requests.iter().map(|r| &r.wire).collect();
        assert!(b.requests.iter().all(|r| !a_set.contains(&r.wire)));
        // Same pool seed: identical hot pools either way.
        assert_eq!(a.hot_wires, b.hot_wires);
    }

    #[test]
    fn xor_colliding_cell_seeds_stay_disjoint() {
        // Under the old `cell_seed ^ CONST` derivation these two cells
        // aliased: their seeds differ by exactly the XOR of the cold and
        // draw role constants, so one cell's cold stream replayed the
        // other's class-draw stream. The FNV fold keeps every stream of
        // both cells disjoint.
        let mut ca = config(Mix::Cold);
        ca.cell_seed = 0x1111;
        let mut cb = config(Mix::Cold);
        cb.cell_seed = 0x1111 ^ 0xC01D_C01D_C01D_C01D ^ 0xD4A3_D4A3_D4A3_D4A3;
        let a = build_schedule(&ca, render);
        let b = build_schedule(&cb, render);
        let a_set: std::collections::HashSet<_> = a.requests.iter().map(|r| &r.wire).collect();
        assert!(b.requests.iter().all(|r| !a_set.contains(&r.wire)));
    }

    #[test]
    fn mixed_degrades_hard_to_hot_without_a_corpus() {
        let s = build_schedule(&config(Mix::Mixed), render);
        assert_eq!(s.hard_pool, 0);
        assert_eq!(s.class_counts[ReqClass::Hard.index()], 0);
        assert_eq!(s.class_counts[ReqClass::Exact.index()], 0);
        assert!(s.class_counts[ReqClass::Hot.index()] > 100);
        assert!(s.class_counts[ReqClass::Cold.index()] > 20);
    }

    #[test]
    fn mixed_uses_the_hard_corpus_when_present() {
        let _fds = crate::resources::fd_window();
        let dir = std::env::temp_dir().join(format!("clasp-load-hard-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("hard-0001.clasp"), "loop h\n\nop n0 alu\n").unwrap();
        std::fs::write(dir.join("hard-0001.machine"), "machine m\ncluster 1gp\n").unwrap();
        // A .clasp without its .machine sibling is skipped.
        std::fs::write(dir.join("hard-0002.clasp"), "loop orphan\n\nop n0 alu\n").unwrap();
        let mut cfg = config(Mix::Mixed);
        cfg.hard_dir = Some(dir.clone());
        let s = build_schedule(&cfg, render);
        assert_eq!(s.hard_pool, 1);
        assert!(s.class_counts[ReqClass::Hard.index()] > 0);
        assert!(s.class_counts[ReqClass::Exact.index()] > 0);
        let exact = s
            .requests
            .iter()
            .find(|r| r.class == ReqClass::Exact)
            .unwrap();
        assert!(exact.wire.starts_with("exact=true"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
