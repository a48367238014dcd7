//! Inputs shared by several integration tests.

use clasp_ddg::Ddg;
use clasp_loopgen::{generate_corpus, CorpusConfig};

/// The bench corpus: 150 generated loops, 35 of them with recurrences
/// (the figures corpus's 301/1327 share), seed `0x1998C1A5`. Its per-loop
/// results on `4c-gp` are pinned by `results/bench-corpus-kernels.txt`.
pub fn bench_corpus() -> Vec<Ddg> {
    const LOOPS: usize = 150;
    generate_corpus(CorpusConfig {
        loops: LOOPS,
        scc_loops: (LOOPS * 301).div_ceil(1327),
        seed: 0x1998_C1A5,
    })
}
