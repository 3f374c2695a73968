//! Input generation: seeded randomness, the delta mix of the live
//! workload, and the open-loop send schedule.

use crate::table::DeltaMix;
use std::time::{Duration, Instant};
use uavnet_core::{Delta, Instance, User};
use uavnet_geom::{AreaSpec, CellIndex, Point2};

/// SplitMix64: a tiny seeded generator, so the inputs depend only on
/// `--seed` and this file.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label, so independent input
    /// streams of one run do not share draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// One standard-normal draw (Box–Muller).
    pub fn gaussian(&mut self) -> f64 {
        let u1 = self.unit().max(f64::MIN_POSITIVE);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// The kind of a generated delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// A mobility batch.
    Move,
    /// Extra users.
    Surge,
    /// One severed inter-UAV link.
    Sever,
    /// One lost UAV.
    Kill,
}

impl Kind {
    /// Short label for tables and spans.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Move => "move",
            Kind::Surge => "surge",
            Kind::Sever => "sever",
            Kind::Kill => "kill",
        }
    }

    /// The kind of a delta.
    pub fn of(delta: &Delta) -> Kind {
        match delta {
            Delta::UserSurge(_) => Kind::Surge,
            Delta::SeverLinks(_) => Kind::Sever,
            Delta::KillUavs(_) => Kind::Kill,
            _ => Kind::Move,
        }
    }
}

/// Generates the live delta stream against the generator's own model
/// of the scenario: current user positions, remaining links and the
/// UAVs still alive.
#[derive(Debug)]
pub struct DeltaGen {
    rng: Rng,
    mix: DeltaMix,
    area: AreaSpec,
    min_rate_bps: f64,
    positions: Vec<Point2>,
    links: Vec<(CellIndex, CellIndex)>,
    alive: Vec<usize>,
    generated: u64,
}

impl DeltaGen {
    /// A generator starting from `instance`'s users, links and fleet.
    pub fn new(instance: &Instance, mix: DeltaMix, rng: Rng) -> Self {
        DeltaGen {
            rng,
            mix,
            area: instance.grid().spec().area(),
            min_rate_bps: instance.users().first().map_or(2_000.0, |u| u.min_rate_bps),
            positions: instance.users().iter().map(|u| u.pos).collect(),
            links: instance.location_graph().edges().collect(),
            alive: (0..instance.num_uavs()).collect(),
            generated: 0,
        }
    }

    /// The next delta of the mix: every `fault_every`-th is a fault,
    /// cycling through the mix's fault kinds; the rest move users.
    pub fn next_delta(&mut self) -> Delta {
        self.generated += 1;
        let faults = self.mix.faults;
        let kind = if self.generated.is_multiple_of(self.mix.fault_every) && !faults.is_empty() {
            faults[((self.generated / self.mix.fault_every - 1) % faults.len() as u64) as usize]
        } else {
            Kind::Move
        };
        self.make(kind)
    }

    /// A delta of `kind`. A sever with no links left or a kill with one
    /// UAV left becomes a move.
    pub fn make(&mut self, kind: Kind) -> Delta {
        match kind {
            Kind::Sever if !self.links.is_empty() => {
                let link = self.links.swap_remove(self.rng.below(self.links.len()));
                Delta::SeverLinks(vec![link])
            }
            Kind::Kill if self.alive.len() > 1 => {
                let uav = self.alive.swap_remove(self.rng.below(self.alive.len()));
                Delta::KillUavs(vec![uav])
            }
            Kind::Surge => {
                let hub = self.positions[self.rng.below(self.positions.len())];
                let users: Vec<User> = (0..self.mix.surge_users)
                    .map(|_| User {
                        pos: self.step(hub, 4.0 * self.mix.sigma_m),
                        min_rate_bps: self.min_rate_bps,
                    })
                    .collect();
                self.positions.extend(users.iter().map(|u| u.pos));
                Delta::UserSurge(users)
            }
            _ => {
                let count = ((self.positions.len() as f64 * self.mix.move_share).round() as usize)
                    .clamp(1, self.positions.len());
                let moves = (0..count)
                    .map(|_| {
                        let id = self.rng.below(self.positions.len());
                        let to = self.step(self.positions[id], self.mix.sigma_m);
                        self.positions[id] = to;
                        (id as u32, to)
                    })
                    .collect();
                Delta::UserMoved(moves)
            }
        }
    }

    fn step(&mut self, from: Point2, sigma_m: f64) -> Point2 {
        let dx = sigma_m * self.rng.gaussian();
        let dy = sigma_m * self.rng.gaussian();
        self.area.clamp(Point2::new(from.x + dx, from.y + dy))
    }
}

/// A time source the open loop waits on; the real one sleeps, a test
/// one advances a counter.
pub trait Clock {
    /// The current instant.
    fn now(&self) -> Instant;
    /// Blocks until `t` (returns at once when `t` has passed).
    fn sleep_until(&self, t: Instant);
}

/// The wall clock.
pub struct WallClock;

impl Clock for WallClock {
    fn now(&self) -> Instant {
        Instant::now()
    }

    fn sleep_until(&self, t: Instant) {
        let now = Instant::now();
        if t > now {
            std::thread::sleep(t - now);
        }
    }
}

/// Drives an open loop: request `i` is due at `start + i / rate`
/// whatever happened to earlier requests, and is sent as soon as the
/// sender is free after that. `send(i, due)` sends one request and
/// returns `false` to stop. Returns how late each send began.
pub fn open_loop(
    clock: &impl Clock,
    start: Instant,
    rate_per_s: f64,
    until: Instant,
    mut send: impl FnMut(u64, Instant) -> bool,
) -> Vec<Duration> {
    let mut lags = Vec::new();
    for i in 0u64.. {
        let due = start + Duration::from_secs_f64(i as f64 / rate_per_s);
        if due >= until {
            break;
        }
        clock.sleep_until(due);
        lags.push(clock.now().saturating_duration_since(due));
        if !send(i, due) {
            break;
        }
    }
    lags
}

/// Latency of an open-loop request: from when it was *due*, so a stall
/// that delays later sends counts against every request it delayed.
pub fn latency_from_due(due: Instant, completed: Instant) -> Duration {
    completed.saturating_duration_since(due)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to.
    struct FakeClock {
        base: Instant,
        offset: Cell<Duration>,
    }

    impl Clock for FakeClock {
        fn now(&self) -> Instant {
            self.base + self.offset.get()
        }

        fn sleep_until(&self, t: Instant) {
            if t > self.now() {
                self.offset.set(t - self.base);
            }
        }
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let clock = FakeClock {
            base: Instant::now(),
            offset: Cell::new(Duration::ZERO),
        };
        let start = clock.now();
        let until = start + Duration::from_secs(1);
        // 4/s is one send every 250 ms; each send takes 300 ms, so the
        // loop falls 50 ms further behind with every request.
        let mut latencies = Vec::new();
        let lags = open_loop(&clock, start, 4.0, until, |_, due| {
            clock
                .offset
                .set(clock.offset.get() + Duration::from_millis(300));
            latencies.push(latency_from_due(due, clock.now()));
            true
        });
        let ms = |d: &Duration| d.as_millis();
        assert_eq!(lags.iter().map(ms).collect::<Vec<_>>(), [0, 50, 100, 150]);
        assert_eq!(
            latencies.iter().map(ms).collect::<Vec<_>>(),
            [300, 350, 400, 450]
        );
    }

    #[test]
    fn open_loop_is_paced_when_the_sender_keeps_up() {
        let clock = FakeClock {
            base: Instant::now(),
            offset: Cell::new(Duration::ZERO),
        };
        let start = clock.now();
        let mut due_times = Vec::new();
        let lags = open_loop(
            &clock,
            start,
            10.0,
            start + Duration::from_millis(350),
            |_, due| {
                due_times.push(due - start);
                true
            },
        );
        assert!(lags.iter().all(Duration::is_zero));
        assert_eq!(
            due_times,
            [0, 100, 200, 300].map(Duration::from_millis).to_vec()
        );
    }

    #[test]
    fn delta_mix_cycles_faults_and_stays_in_the_zone() {
        let spec = crate::table::scenario(1_500.0, 200, 4, (10, 40), 3).unwrap();
        let instance = spec.instantiate().unwrap();
        use Kind::*;
        let mix = DeltaMix {
            fault_every: 2,
            faults: &[Sever, Surge, Kill],
            ..crate::table::MIX
        };
        let mut gen = DeltaGen::new(&instance, mix, Rng::new(9, 1));
        let kinds: Vec<Kind> = (0..8).map(|_| Kind::of(&gen.next_delta())).collect();
        assert_eq!(kinds, [Move, Sever, Move, Surge, Move, Kill, Move, Sever]);
        let area = instance.grid().spec().area();
        for _ in 0..20 {
            match gen.make(Kind::Move) {
                Delta::UserMoved(moves) => {
                    assert_eq!(moves.len(), 3); // 1% of 250 users, rounded
                    assert!(moves.iter().all(|&(_, p)| area.contains(p)));
                }
                other => panic!("expected a move, got {other:?}"),
            }
        }
        let mut again = DeltaGen::new(&instance, mix, Rng::new(9, 1));
        let mut first = DeltaGen::new(&instance, mix, Rng::new(9, 1));
        assert_eq!(
            again.next_delta(),
            first.next_delta(),
            "same seed, same inputs"
        );
    }
}
