//! Fault-injection acceptance suite. A fault is a [`Delta`] applied to
//! a [`SolverLoop`] stood up on a solved scenario: on a FIG6-scale
//! scenario, killing any single UAV (and harsher faults) must yield a
//! repaired, validate-clean solution or a *typed* error — never a
//! panic. Under `debug-validate` every `apply` also checks oracle 7
//! (incremental == cold rescore) inline.

use uavnet::channel::UavRadio;
use uavnet::core::{
    approx_alg, assign_users, try_score_deployment, ApproxConfig, CoreError, Delta, DeltaOutcome,
    Instance, LoopConfig, Solution, SolverLoop, User, ValidationError,
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

/// A `side × side` grid of 300 m cells with four users and one UAV per
/// entry of `caps`.
fn small_instance(side: usize, uav_range: f64, caps: &[u32]) -> Instance {
    let side_m = 300.0 * side as f64;
    let grid = GridSpec::new(AreaSpec::new(side_m, side_m, 500.0).unwrap(), 300.0, 300.0)
        .unwrap()
        .build();
    let mut b = Instance::builder(grid, uav_range);
    b.add_user(Point2::new(150.0, 150.0), 2_000.0);
    b.add_user(Point2::new(160.0, 150.0), 2_000.0);
    b.add_user(Point2::new(450.0, 450.0), 2_000.0);
    b.add_user(Point2::new(750.0, 750.0), 2_000.0);
    for &c in caps {
        b.add_uav(c, UavRadio::new(30.0, 5.0, 350.0));
    }
    b.build().unwrap()
}

/// A solver loop standing on `solution`, whose cold fallback solves
/// with the same `s`.
fn standing(instance: &Instance, solution: &Solution, s: usize) -> SolverLoop {
    let config = LoopConfig::new(ApproxConfig::with_s(s).threads(1));
    SolverLoop::from_solution(instance.clone(), solution, config).expect("solution fits")
}

/// A copy of `solver` with `fault` applied, and what the repair did.
fn inject(solver: &SolverLoop, fault: Delta) -> Result<(SolverLoop, DeltaOutcome), CoreError> {
    let mut faulted = solver.clone();
    let outcome = faulted.apply(fault)?;
    Ok((faulted, outcome))
}

/// The standing solution validates against the loop's own (degraded)
/// instance.
fn assert_valid(solver: &SolverLoop) {
    if let Err(e) = solver.solution().validate(solver.instance()) {
        panic!("repaired solution is invalid: {e}");
    }
}

#[test]
fn any_single_uav_loss_is_survivable() {
    let (instance, solution) = fig6_scale();
    assert!(solution.served_users() > 0, "degenerate scenario");
    let solver = standing(&instance, &solution, 2);
    for uav in 0..instance.num_uavs() {
        let (repaired, outcome) = inject(&solver, Delta::KillUavs(vec![uav]))
            .unwrap_or_else(|e| panic!("killing UAV {uav} must be repairable, got {e}"));
        repaired
            .solution()
            .validate(repaired.instance())
            .unwrap_or_else(|e| panic!("repair after killing UAV {uav} is invalid: {e}"));
        assert!(
            repaired.placements().iter().all(|&(u, _)| u != uav),
            "killed UAV {uav} still deployed"
        );
        assert!(outcome.served <= solution.served_users());
    }
}

#[test]
fn repair_recovers_at_least_the_post_fault_service() {
    // The repair may relocate nothing (survivors already connected),
    // but it must never end below what the raw survivors served.
    let (instance, solution) = fig6_scale();
    let solver = standing(&instance, &solution, 2);
    for uav in 0..instance.num_uavs() {
        let survivors: Vec<(usize, usize)> = solution
            .deployment()
            .placements()
            .iter()
            .copied()
            .filter(|&(u, _)| u != uav)
            .collect();
        let served_after_fault = assign_users(&instance, &survivors).served;
        let (_, outcome) = inject(&solver, Delta::KillUavs(vec![uav])).unwrap();
        assert!(
            outcome.served >= served_after_fault || outcome.dropped_placements > 0,
            "killing UAV {uav}: repair served {} < post-fault {served_after_fault} \
             without dropping anyone",
            outcome.served,
        );
    }
}

#[test]
fn pair_losses_and_link_cuts_never_panic() {
    let (instance, solution) = fig6_scale();
    let solver = standing(&instance, &solution, 2);
    let links: Vec<(usize, usize)> = instance.location_graph().edges().collect();
    for a in 0..instance.num_uavs() {
        for b in (a + 1)..instance.num_uavs() {
            let (repaired, _) = inject(&solver, Delta::KillUavs(vec![a, b])).unwrap();
            assert_valid(&repaired);
        }
    }
    // Sample link cuts across the graph (every 7th edge keeps the
    // suite fast while touching all regions).
    for chunk in links.chunks(7) {
        let (repaired, _) = inject(&solver, Delta::SeverLinks(chunk.to_vec())).unwrap();
        assert_valid(&repaired);
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
    let mut solver = standing(&instance, &solution, 2);
    solver.apply(Delta::KillUavs(vec![0])).unwrap();
    solver.apply(Delta::UserSurge(surge)).unwrap();
    assert_eq!(solver.instance().num_users(), instance.num_users() + 10);
    assert_valid(&solver);
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
    let solver = standing(&instance, &solution, 2);
    for uav in 0..instance.num_uavs() {
        match inject(&solver, Delta::KillUavs(vec![uav])) {
            Ok((repaired, _)) => assert_valid(&repaired),
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
    let (instance, _) = fig6_scale();
    for threads in [1usize, 2, 4] {
        let config = ApproxConfig::with_s(2)
            .threads(threads)
            .inject_worker_panic_at(0);
        match approx_alg(&instance, &config) {
            Err(CoreError::Sweep(msg)) => assert!(
                msg.contains("injected worker panic"),
                "threads={threads}: payload lost: {msg:?}"
            ),
            Ok(_) => panic!("threads={threads}: injected panic was swallowed"),
            Err(e) => panic!("threads={threads}: wrong error type {e}"),
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
    // relays re-entered the spare pool as "undeployed"). A repair
    // with no new fault (severing no links) must be a fixed point:
    // identical placements, same service, no fresh relays spent.
    let (instance, solution) = fig6_scale();
    let mut solver = standing(&instance, &solution, 2);
    let first = solver.apply(Delta::KillUavs(vec![0])).unwrap();
    let mut a = solver.placements().to_vec();
    let dead = solver.dead_uavs();
    let second = solver.apply(Delta::SeverLinks(vec![])).unwrap();
    let mut b = solver.placements().to_vec();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "empty reinjection moved the fleet");
    assert_eq!(second.served, first.served);
    assert_eq!(second.relays_spent, 0, "idle repair spent spare relays");
    assert_eq!(second.dropped_placements, 0);
    assert_eq!(solver.dead_uavs(), dead);
}

#[test]
fn chained_repairs_never_resurrect_dead_uavs() {
    // Regression: repairing kill(a) then kill(b) as two independent
    // repairs lost the memory that `a` was dead, so the second repair
    // could re-deploy `a` as a relay (a zombie relay the real fleet no
    // longer has). The loop's dead set carries the casualty list.
    let (instance, solution) = fig6_scale();
    let solver = standing(&instance, &solution, 2);
    for a in 0..instance.num_uavs() {
        let first = match inject(&solver, Delta::KillUavs(vec![a])) {
            Ok((first, _)) => first,
            Err(CoreError::Connect(_)) => continue,
            Err(e) => panic!("killing UAV {a}: {e}"),
        };
        for b in 0..instance.num_uavs() {
            if b == a {
                continue;
            }
            let second = match inject(&first, Delta::KillUavs(vec![b])) {
                Ok((second, _)) => second,
                Err(CoreError::Connect(_)) => continue,
                Err(e) => panic!("killing UAV {b} after {a}: {e}"),
            };
            let dead = second.dead_uavs();
            assert!(
                dead.contains(&a) && dead.contains(&b),
                "casualty list lost a kill: {dead:?}"
            );
            for &(uav, _) in second.placements() {
                assert!(
                    uav != a && uav != b,
                    "dead UAV {uav} resurrected after chained kills ({a}, {b})"
                );
            }
            assert_valid(&second);
        }
    }
}

#[test]
fn malformed_faults_are_rejected_not_panicked() {
    let (instance, solution) = fig6_scale();
    // A rejected delta leaves the loop as it was, so one loop takes
    // every malformed fault in turn.
    let mut solver = standing(&instance, &solution, 2);
    assert!(matches!(
        solver.apply(Delta::KillUavs(vec![instance.num_uavs()])),
        Err(CoreError::InvalidParameters(_))
    ));
    assert!(matches!(
        solver.apply(Delta::SeverLinks(vec![(0, instance.num_locations())])),
        Err(CoreError::InvalidParameters(_))
    ));
    assert!(matches!(
        solver.apply(Delta::UserSurge(vec![User {
            pos: Point2::new(-10.0, 0.0),
            min_rate_bps: 2_000.0,
        }])),
        Err(CoreError::InvalidInstance(_))
    ));
}

#[test]
fn from_solution_rejects_a_solution_of_a_larger_instance() {
    // A solution scored on a bigger fleet or grid is refused with a
    // typed error instead of indexing past the smaller instance.
    let small = small_instance(3, 450.0, &[2, 1]);
    let config = || LoopConfig::new(ApproxConfig::with_s(1));
    let more_uavs = small_instance(3, 450.0, &[2, 1, 1]);
    let sol = try_score_deployment(&more_uavs, vec![(2, 4)]).unwrap();
    assert!(matches!(
        SolverLoop::from_solution(small.clone(), &sol, config()),
        Err(CoreError::Validation(ValidationError::BadUavIndex {
            uav: 2
        }))
    ));
    let more_cells = small_instance(4, 450.0, &[2, 1]);
    let sol = try_score_deployment(&more_cells, vec![(0, 15)]).unwrap();
    assert!(matches!(
        SolverLoop::from_solution(small, &sol, config()),
        Err(CoreError::Validation(ValidationError::BadLocationIndex {
            loc: 15
        }))
    ));
}

#[test]
fn kill_fault_repairs_to_a_valid_solution() {
    let inst = small_instance(3, 450.0, &[2, 2, 1]);
    let sol = approx_alg(&inst, &ApproxConfig::with_s(1).threads(1)).unwrap();
    sol.validate(&inst).unwrap();
    let solver = standing(&inst, &sol, 1);
    for &(uav, _) in sol.deployment().placements() {
        let (repaired, outcome) = inject(&solver, Delta::KillUavs(vec![uav])).unwrap();
        assert_valid(&repaired);
        assert!(repaired.placements().iter().all(|&(u, _)| u != uav));
        assert!(outcome.served <= sol.served_users());
        assert_eq!(repaired.dead_uavs(), vec![uav]);
    }
}

#[test]
fn severed_link_fault_triages_the_best_component() {
    // Chain deployment across the diagonal; cutting a middle link
    // must keep the component serving more users.
    let inst = small_instance(3, 450.0, &[2, 2, 1]);
    let sol = approx_alg(&inst, &ApproxConfig::with_s(1).threads(1)).unwrap();
    let solver = standing(&inst, &sol, 1);
    let links: Vec<(usize, usize)> = inst.location_graph().edges().collect();
    for &link in links.iter().take(6) {
        let (repaired, _) = inject(&solver, Delta::SeverLinks(vec![link])).unwrap();
        assert_valid(&repaired);
    }
}

#[test]
fn user_surge_fault_reassigns() {
    let inst = small_instance(3, 450.0, &[2, 2, 1]);
    let sol = approx_alg(&inst, &ApproxConfig::with_s(1).threads(1)).unwrap();
    let surge: Vec<User> = (0..3)
        .map(|i| User {
            pos: Point2::new(150.0 + 5.0 * i as f64, 160.0),
            min_rate_bps: 2_000.0,
        })
        .collect();
    let (repaired, outcome) = inject(&standing(&inst, &sol, 1), Delta::UserSurge(surge)).unwrap();
    assert_eq!(repaired.instance().num_users(), inst.num_users() + 3);
    assert_valid(&repaired);
    // More demand can only help the served count.
    assert!(outcome.served >= sol.served_users().min(1));
}

#[test]
fn combined_faults_and_whole_fleet_loss_degrade_gracefully() {
    let inst = small_instance(3, 450.0, &[2, 2, 1]);
    let sol = approx_alg(&inst, &ApproxConfig::with_s(1).threads(1)).unwrap();
    let solver = standing(&inst, &sol, 1);
    // Everything at once, one delta after another on the same loop.
    let mut combined = solver.clone();
    for fault in [
        Delta::KillUavs(vec![0]),
        Delta::SeverLinks(vec![(0, 1)]),
        Delta::UserSurge(vec![User {
            pos: Point2::new(450.0, 460.0),
            min_rate_bps: 2_000.0,
        }]),
    ] {
        combined.apply(fault).unwrap();
    }
    assert_valid(&combined);
    // The whole fleet gone: empty but valid.
    let (gone, outcome) = inject(&solver, Delta::KillUavs(vec![0, 1, 2])).unwrap();
    assert_eq!(outcome.served, 0);
    assert!(gone.placements().is_empty());
    assert_valid(&gone);
}
