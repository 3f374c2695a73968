//! Mobility & re-deployment: users drift between epochs; the
//! dispatcher compares "stay put" against a full `approAlg` re-plan
//! each epoch (§II-C of the paper).
//!
//! A `SolverLoop` holds the standing deployment. Each epoch's moves
//! reach it as one `UserMoved` delta, which re-scores the fleet where it
//! hovers; the re-plan solves the patched instance from scratch and is
//! adopted as the next standing deployment.
//!
//! ```text
//! cargo run --release --example mobility_redeploy
//! ```

use uavnet::channel::UavRadio;
use uavnet::core::{
    approx_alg, diff_deployments, ApproxConfig, Delta, Instance, LoopConfig, SolverLoop,
};
use uavnet::geom::{AreaSpec, GridSpec};
use uavnet::workload::{sample_users, MobilityModel, MobilitySimulator, UserDistribution};

use rand::rngs::SmallRng;
use rand::SeedableRng;

fn build_instance(area: AreaSpec, users: &[uavnet::geom::Point2]) -> Instance {
    let grid = GridSpec::new(area, 300.0, 300.0).unwrap().build();
    let mut b = Instance::builder(grid, 600.0);
    for &p in users {
        b.add_user(p, 2_000.0);
    }
    for cap in [40u32, 30, 20, 15, 12, 10] {
        b.add_uav(cap, UavRadio::new(30.0, 5.0, 450.0));
    }
    b.build().expect("valid instance")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let area = AreaSpec::new(2_100.0, 2_100.0, 500.0)?;
    let mut rng = SmallRng::seed_from_u64(2);
    let start = sample_users(
        &mut rng,
        area,
        160,
        UserDistribution::FatTailed {
            clusters: 4,
            zipf_exponent: 1.3,
        },
    );
    // Evacuees walking toward assembly points at ~1.4 m/s; an epoch is
    // five minutes → ~420 m per epoch.
    let mut sim = MobilitySimulator::new(
        area,
        start,
        MobilityModel::RandomWaypoint {
            speed_m_per_step: 420.0,
        },
        9,
    );

    let config = LoopConfig::new(ApproxConfig::with_s(2));
    let mut solver = SolverLoop::new(build_instance(area, sim.positions()), config.clone())?;
    solver.solution().validate(solver.instance())?;
    println!(
        "epoch 0: deployed {} UAVs, serving {}/{} users",
        solver.placements().len(),
        solver.served_users(),
        solver.instance().num_users()
    );

    for epoch in 1..=4 {
        // A zero threshold reports every user, so the patched instance
        // equals a fresh build at the new positions.
        let stay = solver.apply(Delta::UserMoved(sim.step_deltas(0.0)))?.served;
        let instance = solver.instance();
        let plan = approx_alg(instance, &config.approx)?;
        plan.validate(instance)?;
        // A UAV in both halves of the diff changed cells; one only in
        // `added` took off, one only in `removed` landed.
        let diff = diff_deployments(solver.placements(), plan.deployment().placements());
        let (mut moved, mut total_m, mut grounded) = (0, 0.0, 0);
        for &(uav, from) in &diff.removed {
            match diff.added.iter().find(|&&(u, _)| u == uav) {
                Some(&(_, to)) => {
                    moved += 1;
                    total_m += instance
                        .grid()
                        .cell_center(from)
                        .distance(instance.grid().cell_center(to));
                }
                None => grounded += 1,
            }
        }
        let launched = diff.added.len() - moved;
        println!(
            "epoch {epoch}: stay-put serves {stay:>3}, re-plan serves {:>3} \
             (+{:>3}); {moved} UAVs moved {total_m:>6.0} m total, {launched} launched, \
             {grounded} grounded",
            plan.served_users(),
            plan.served_users().saturating_sub(stay),
        );
        solver = SolverLoop::from_solution(instance.clone(), &plan, config.clone())?;
    }
    Ok(())
}
