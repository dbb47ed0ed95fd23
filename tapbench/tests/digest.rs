//! The simulated outputs of a run are a function of the workload and the
//! seed alone: two runs agree, tracing does not perturb them, and another
//! seed gives other outputs.

use tapbench::{RunConfig, Size, WorkloadKind};

/// Small instances of each workload, so the test runs in a debug build.
fn small(workload: WorkloadKind) -> Size {
    let paper = workload.paper_size();
    match workload {
        WorkloadKind::Fig6Transit => Size {
            nodes: 300,
            sim_ops: 20,
            ..paper
        },
        WorkloadKind::Fig5Churn => Size {
            nodes: 300,
            sim_ops: 4,
            tunnels: 100,
            churn: 15,
            ..paper
        },
        WorkloadKind::StripedLossy => Size {
            nodes: 200,
            sim_ops: 24,
            payload: 4096,
            ..paper
        },
    }
}

fn digest(workload: WorkloadKind, seed: u64, trace: bool) -> String {
    let result = workload.run(&RunConfig {
        seed,
        seconds: 0.0,
        trace,
        size: small(workload),
    });
    assert!(result.correct(), "{}: {:?}", workload.name(), result.errors);
    // Traced runs make an untraced and a traced pass; every pass must
    // reproduce the first one's digest.
    let passes = if trace { 2 } else { 1 };
    assert_eq!(result.passes.len(), passes, "{}", workload.name());
    assert_eq!(
        result.passes.iter().filter(|p| p.traced).count(),
        passes - 1
    );
    assert_eq!(
        result.attempted(),
        (passes * small(workload).sim_ops) as u64
    );
    let digest = result.sim.digest().to_string();
    for pass in &result.passes {
        assert_eq!(pass.digest, digest, "{} pass", workload.name());
    }
    digest
}

#[test]
fn simulated_outputs_depend_on_the_seed_alone() {
    for workload in WorkloadKind::ALL {
        let first = digest(workload, 7, false);
        assert_eq!(first.len(), 16, "{}", workload.name());
        assert_eq!(
            first,
            digest(workload, 7, false),
            "{} rerun",
            workload.name()
        );
        assert_eq!(
            first,
            digest(workload, 7, true),
            "{} traced",
            workload.name()
        );
        assert_ne!(
            first,
            digest(workload, 8, false),
            "{} other seed",
            workload.name()
        );
    }
}
