//! Strata sweep determinism on the mesh presets: 50 loops from every
//! stratum compiled on `mesh3x3`, with the per-loop (clustered II,
//! unified II) pairs bit-identical at 1 vs 4 executor workers and across
//! a cache-warm rerun.

use clasp::obs::Obs;
use clasp::{CompileRequest, CompileService};
use clasp_ddg::Ddg;
use clasp_loopgen::{generate_stratum, Stratum};
use clasp_machine::{presets, MachineSpec};

/// Per-loop (clustered II, unified II) pairs for one machine, compiled
/// through `service` on `threads` executor workers; `None` marks a loop
/// either compile refused.
fn sweep_pair_iis(
    service: &CompileService,
    machine: &MachineSpec,
    loops: &[Ddg],
    threads: usize,
    req: &CompileRequest,
) -> Vec<Option<(u32, u32)>> {
    let unified = machine.unified_equivalent();
    clasp_exec::sweep(
        threads,
        loops,
        |_, g: &Ddg| format!("{} on {}", g.name(), machine.name()),
        |_, g| {
            let clustered = service.compile_artifact(g, machine, req, &Obs::disabled());
            let baseline = service.compile_artifact(g, &unified, req, &Obs::disabled());
            match (clustered.as_ref(), baseline.as_ref()) {
                (Ok(c), Ok(u)) => Some((c.ii(), u.ii())),
                _ => None,
            }
        },
    )
    .expect("no compile panics")
}

#[test]
fn mesh_strata_iis_are_thread_and_cache_invariant() {
    let machine = presets::mesh(3, 3);
    let req = CompileRequest::default();
    let seed = 0x1998_C1A5;

    for stratum in Stratum::ALL {
        let loops = generate_stratum(stratum, 50, seed);

        // Two cold services, different worker counts: the executor must
        // return the serial results regardless of interleaving.
        let cold_1 = CompileService::in_memory();
        let cold_4 = CompileService::in_memory();
        let at_1 = sweep_pair_iis(&cold_1, &machine, &loops, 1, &req);
        let at_4 = sweep_pair_iis(&cold_4, &machine, &loops, 4, &req);
        assert_eq!(
            at_1, at_4,
            "{stratum}: IIs diverged between 1 and 4 workers"
        );

        // Warm rerun on the same service: every request a cache hit, and
        // the decoded IIs still bit-identical to the cold compile.
        let warm = sweep_pair_iis(&cold_4, &machine, &loops, 4, &req);
        assert_eq!(at_4, warm, "{stratum}: IIs changed on a cache-warm rerun");

        // The sweep must actually compile the stratum, not skip it.
        let compiled = at_1.iter().flatten().count();
        assert!(
            compiled == loops.len(),
            "{stratum}: only {compiled}/{} loops compiled on mesh3x3",
            loops.len()
        );
    }
}
