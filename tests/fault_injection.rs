//! Fault-injection acceptance suite: on a solved FIG6-scale scenario,
//! killing any single UAV (and harsher faults) must yield a repaired,
//! validate-clean solution or a *typed* error — never a panic.

use uavnet::channel::UavRadio;
use uavnet::core::{
    approx_alg, approx_alg_sharded, inject_and_repair, ApproxConfig, CoreError, Fault, Instance,
    ShardConfig, Solution, User,
};
use uavnet::geom::{AreaSpec, GridSpec, Point2};
use uavnet::workload::ScenarioSpec;

fn fig6_scale() -> (Instance, Solution) {
    // The paper's §IV-A environment at reduced scale: 40 users, 8
    // heterogeneous UAVs.
    let spec = ScenarioSpec::paper_figure(40, 8, 11).expect("valid spec");
    let instance = spec.instantiate().expect("instantiable scenario");
    let solution = approx_alg(&instance, &ApproxConfig::with_s(2)).expect("solvable scenario");
    solution.validate(&instance).expect("clean solve");
    (instance, solution)
}

#[test]
fn any_single_uav_loss_is_survivable() {
    let (instance, solution) = fig6_scale();
    assert!(solution.served_users() > 0, "degenerate scenario");
    for uav in 0..instance.num_uavs() {
        let report = inject_and_repair(&instance, &solution, &[Fault::KillUavs(vec![uav])])
            .unwrap_or_else(|e| panic!("killing UAV {uav} must be repairable, got {e}"));
        report
            .solution
            .validate(&report.instance)
            .unwrap_or_else(|e| panic!("repair after killing UAV {uav} is invalid: {e}"));
        assert!(
            report
                .solution
                .deployment()
                .placements()
                .iter()
                .all(|&(u, _)| u != uav),
            "killed UAV {uav} still deployed"
        );
        assert!(report.served_after_repair <= report.served_before);
    }
}

#[test]
fn repair_recovers_at_least_the_post_fault_service() {
    // The repair may relocate nothing (survivors already connected),
    // but it must never end below what the raw survivors served.
    let (instance, solution) = fig6_scale();
    for uav in 0..instance.num_uavs() {
        let report =
            inject_and_repair(&instance, &solution, &[Fault::KillUavs(vec![uav])]).unwrap();
        assert!(
            report.served_after_repair >= report.served_after_fault
                || report.dropped_placements > 0,
            "killing UAV {uav}: repair served {} < post-fault {} without dropping anyone",
            report.served_after_repair,
            report.served_after_fault
        );
    }
}

#[test]
fn pair_losses_and_link_cuts_never_panic() {
    let (instance, solution) = fig6_scale();
    let links: Vec<(usize, usize)> = instance.location_graph().edges().collect();
    for a in 0..instance.num_uavs() {
        for b in (a + 1)..instance.num_uavs() {
            let report =
                inject_and_repair(&instance, &solution, &[Fault::KillUavs(vec![a, b])]).unwrap();
            report.solution.validate(&report.instance).unwrap();
        }
    }
    // Sample link cuts across the graph (every 7th edge keeps the
    // suite fast while touching all regions).
    for chunk in links.chunks(7) {
        let report =
            inject_and_repair(&instance, &solution, &[Fault::SeverLinks(chunk.to_vec())]).unwrap();
        report.solution.validate(&report.instance).unwrap();
    }
}

#[test]
fn surge_plus_loss_compound_fault_is_survivable() {
    let (instance, solution) = fig6_scale();
    let surge: Vec<User> = (0..10)
        .map(|i| User {
            pos: Point2::new(200.0 + 30.0 * i as f64, 300.0),
            min_rate_bps: 2_000.0,
        })
        .collect();
    let report = inject_and_repair(
        &instance,
        &solution,
        &[Fault::KillUavs(vec![0]), Fault::UserSurge(surge)],
    )
    .unwrap();
    assert_eq!(report.surged_users, 10);
    assert_eq!(report.instance.num_users(), instance.num_users() + 10);
    report.solution.validate(&report.instance).unwrap();
}

#[test]
fn gateway_scenarios_repair_or_fail_typed() {
    // With a gateway pinned at a corner, repairs must keep the relay
    // chain to it — or fail with a typed connect error, never panic.
    let spec = ScenarioSpec::builder()
        .users(40)
        .uavs(8)
        .gateway_m(50.0, 50.0)
        .seed(11)
        .build()
        .expect("valid spec");
    let instance = spec.instantiate().expect("instantiable scenario");
    let solution = match approx_alg(&instance, &ApproxConfig::with_s(2)) {
        Ok(s) => s,
        // A gateway the fleet cannot reach at all is a legitimate
        // typed outcome for the *solver*; nothing left to fault.
        Err(CoreError::Connect(_)) => return,
        Err(e) => panic!("unexpected solver error: {e}"),
    };
    for uav in 0..instance.num_uavs() {
        match inject_and_repair(&instance, &solution, &[Fault::KillUavs(vec![uav])]) {
            Ok(report) => report.solution.validate(&report.instance).unwrap(),
            Err(CoreError::Connect(_)) | Err(CoreError::InvalidParameters(_)) => {}
            Err(e) => panic!("killing UAV {uav}: untyped failure {e}"),
        }
    }
}

#[test]
fn sweep_worker_panic_is_a_typed_error_not_an_abort() {
    // A panicking worker thread must not take the process down (the
    // old join().expect() re-raised it): every remaining worker is
    // joined and the panic surfaces as CoreError::Sweep carrying the
    // original payload.
    // The monolithic and the sharded sweep share one worker loop, so
    // the hook fires on reaching the rank in both.
    let (instance, _) = fig6_scale();
    for threads in [1usize, 2, 4] {
        let config = ApproxConfig::with_s(2)
            .threads(threads)
            .inject_worker_panic_at(0);
        let runs = [
            ("monolithic", approx_alg(&instance, &config)),
            (
                "tile_cells(1)",
                approx_alg_sharded(&instance, &config, &ShardConfig::new().tile_cells(1))
                    .map(|(sol, _)| sol),
            ),
            (
                "tile_cells(4)",
                approx_alg_sharded(&instance, &config, &ShardConfig::new().tile_cells(4))
                    .map(|(sol, _)| sol),
            ),
        ];
        for (path, result) in runs {
            match result {
                Err(CoreError::Sweep(msg)) => assert!(
                    msg.contains("injected worker panic"),
                    "{path}: payload lost: {msg:?}"
                ),
                Ok(_) => panic!("{path}, threads={threads}: injected panic was swallowed"),
                Err(e) => panic!("{path}, threads={threads}: wrong error type {e}"),
            }
        }
    }
    // A rank past the enumeration never fires: the sweep completes.
    let config = ApproxConfig::with_s(2).inject_worker_panic_at(u64::MAX);
    approx_alg(&instance, &config).expect("unreached injection rank must be harmless");
}

#[test]
fn oversized_location_grid_is_a_typed_substrate_error() {
    // 256 × 256 = 65 536 candidate cells — one past what the u16 hop
    // matrix can address. The solver must refuse with a typed error
    // before attempting the multi-gigabyte substrate allocation.
    let grid = GridSpec::new(
        AreaSpec::new(12_800.0, 12_800.0, 500.0).unwrap(),
        50.0,
        500.0,
    )
    .unwrap()
    .build();
    assert!(grid.num_cells() >= u16::MAX as usize);
    let mut builder = Instance::builder(grid, 75.0);
    builder.add_user(Point2::new(100.0, 100.0), 2_000.0);
    builder.add_uav(4, UavRadio::new(30.0, 5.0, 500.0));
    let instance = builder.build().expect("oversized grid still builds");
    match approx_alg(&instance, &ApproxConfig::with_s(1)) {
        Err(CoreError::Substrate(e)) => {
            assert!(e.to_string().contains("at most"), "{e}");
        }
        Ok(_) => panic!("65 536-cell sweep cannot have succeeded"),
        Err(e) => panic!("wrong error type: {e}"),
    }
}

#[test]
fn repair_is_idempotent_under_empty_reinjection() {
    // Regression: a second repair pass over an already-repaired
    // scenario used to double-count spare relays (UAVs spent as
    // relays re-entered the spare pool as "undeployed"). Reinjecting
    // zero faults must be a fixed point: identical placements, same
    // service, no fresh relays spent.
    let (instance, solution) = fig6_scale();
    let first = inject_and_repair(&instance, &solution, &[Fault::KillUavs(vec![0])]).unwrap();
    let second = first.reinject(&[]).unwrap();
    let mut a = first.solution.deployment().placements().to_vec();
    let mut b = second.solution.deployment().placements().to_vec();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "empty reinjection moved the fleet");
    assert_eq!(second.served_after_repair, first.served_after_repair);
    assert_eq!(second.relays_spent, 0, "idle repair spent spare relays");
    assert_eq!(second.dropped_placements, 0);
    assert_eq!(second.killed_uavs, first.killed_uavs);
}

#[test]
fn chained_repairs_never_resurrect_dead_uavs() {
    // Regression: repairing kill(a) then kill(b) through the plain
    // inject_and_repair lost the memory that `a` was dead, so the
    // second repair could re-deploy `a` as a relay (a zombie relay the
    // real fleet no longer has). `reinject` carries the casualty list.
    let (instance, solution) = fig6_scale();
    for a in 0..instance.num_uavs() {
        let first = match inject_and_repair(&instance, &solution, &[Fault::KillUavs(vec![a])]) {
            Ok(r) => r,
            Err(CoreError::Connect(_)) => continue,
            Err(e) => panic!("killing UAV {a}: {e}"),
        };
        for b in 0..instance.num_uavs() {
            if b == a {
                continue;
            }
            let second = match first.reinject(&[Fault::KillUavs(vec![b])]) {
                Ok(r) => r,
                Err(CoreError::Connect(_)) => continue,
                Err(e) => panic!("killing UAV {b} after {a}: {e}"),
            };
            assert!(
                second.killed_uavs.contains(&a) && second.killed_uavs.contains(&b),
                "casualty list lost a kill: {:?}",
                second.killed_uavs
            );
            for &(uav, _) in second.solution.deployment().placements() {
                assert!(
                    uav != a && uav != b,
                    "dead UAV {uav} resurrected after chained kills ({a}, {b})"
                );
            }
            second.solution.validate(&second.instance).unwrap();
        }
    }
}

#[test]
fn malformed_faults_are_rejected_not_panicked() {
    let (instance, solution) = fig6_scale();
    assert!(matches!(
        inject_and_repair(
            &instance,
            &solution,
            &[Fault::KillUavs(vec![instance.num_uavs()])]
        ),
        Err(CoreError::InvalidParameters(_))
    ));
    assert!(matches!(
        inject_and_repair(
            &instance,
            &solution,
            &[Fault::SeverLinks(vec![(0, instance.num_locations())])]
        ),
        Err(CoreError::InvalidParameters(_))
    ));
}
