//! Seeded inputs of the `sweep` and `serve` workloads: warm-up-ladder
//! batches of one app, with late governor/fault bindings.
//!
//! Every batch, binding and schedule is derived from the `--seed`
//! argument; the program under test only ever receives the generated
//! scenarios. Batches come in three classes, in equal shares:
//!
//! * `Build`: a trunk (app, seed) never seen before, so the engine
//!   simulates the ladder once and publishes its rungs (writes);
//! * `Hydrate`: fresh late bindings on a trunk an earlier batch
//!   published, so the rungs are loaded from the snapshot store (reads);
//! * `Repeat`: an earlier batch verbatim, so every result is a cache hit
//!   in `sweep` and a journal replay in `serve` (reads).

use biglittle::{LateBindings, Scenario, StopWhen, SystemConfig};
use bl_governor::GovernorConfig;
use bl_simcore::fault::{FaultKind, FaultPlan};
use bl_simcore::time::{SimDuration, SimTime};
use bl_workloads::apps::app_by_name;

/// Warm-up rungs of every ladder, in simulated milliseconds.
pub const RUNGS_MS: [u64; 3] = [800, 1600, 2400];

/// Simulated time each scenario runs past its warm-up point.
pub const TAIL_MS: u64 = 250;

/// Apps the trunks are drawn from: the interactive ones whose ladders
/// cost about the same, so batches of one class are equal-shaped.
pub const APPS: [&str; 6] = [
    "Angry Bird",
    "Video Player",
    "Youtube",
    "PDF Reader",
    "Photo Editor",
    "FIFA 15",
];

/// SplitMix64: the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_0000_0001)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A warm-up trunk: everything before the late-binding point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trunk {
    /// Index into [`APPS`].
    pub app: usize,
    /// The simulation seed.
    pub seed: u64,
}

/// Late bindings applied at a rung's warm-up point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Binding {
    /// 0 keeps the prefix governors, 1 performance, 2 powersave, 3 a
    /// fixed frequency of `khz`.
    pub governor: u8,
    /// Fixed frequency for `governor == 3`.
    pub khz: u32,
    /// 0 none, 1 thermal spike of `amount` tenths of a degree, 2 outage
    /// of the LITTLE CPU 1 for `amount` ms, 3 governor stall of `amount`
    /// samples.
    pub fault: u8,
    /// Fault parameter (see `fault`).
    pub amount: u32,
    /// Fault onset after the warm-up point, in ms.
    pub onset_ms: u64,
}

impl Binding {
    fn random(rng: &mut Rng) -> Binding {
        let fault = rng.below(4) as u8;
        Binding {
            governor: rng.below(4) as u8,
            khz: [800_000, 1_000_000, 1_200_000, 1_300_000][rng.below(4)],
            fault,
            amount: match fault {
                1 => 40 + rng.below(80) as u32,
                2 => 20 + rng.below(60) as u32,
                3 => 1 + rng.below(5) as u32,
                _ => 0,
            },
            onset_ms: rng.below(40) as u64,
        }
    }

    fn late(&self, warmup: SimDuration) -> LateBindings {
        let governors = match self.governor {
            1 => Some(vec![GovernorConfig::Performance; 2]),
            2 => Some(vec![GovernorConfig::Powersave; 2]),
            3 => Some(vec![GovernorConfig::Userspace(self.khz); 2]),
            _ => None,
        };
        let at = SimTime::ZERO + warmup + SimDuration::from_millis(self.onset_ms);
        let faults = match self.fault {
            1 => FaultPlan::new().with(
                at,
                FaultKind::ThermalSpike {
                    cluster: 0,
                    delta_c: f64::from(self.amount) / 10.0,
                },
            ),
            2 => FaultPlan::new().with_outage(
                at,
                SimDuration::from_millis(u64::from(self.amount)),
                &[1],
            ),
            3 => FaultPlan::new().with(
                at,
                FaultKind::GovernorStall {
                    cluster: 1,
                    missed_samples: self.amount,
                },
            ),
            _ => FaultPlan::new(),
        };
        LateBindings { governors, faults }
    }
}

/// What a batch does to the durable layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// New trunk: simulate and publish.
    Build,
    /// New bindings on a published trunk: hydrate.
    Hydrate,
    /// Verbatim repeat of an earlier batch.
    Repeat,
}

impl Class {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Class::Build => "build",
            Class::Hydrate => "hydrate",
            Class::Repeat => "repeat",
        }
    }
}

/// One batch (a `sweep` call or a `serve` request).
#[derive(Debug, Clone)]
pub struct Batch {
    /// Its class.
    pub class: Class,
    /// For `Repeat`, the index of the batch it repeats (itself otherwise).
    pub origin: usize,
    /// The trunk every scenario warms up on.
    pub trunk: Trunk,
    /// Ladder depth: rungs `RUNGS_MS[..levels]`.
    pub levels: usize,
    /// One scenario per binding per rung.
    pub bindings: Vec<Binding>,
}

impl Batch {
    /// The batch's scenarios, rung-major. Labels depend only on the batch
    /// content, so a repeat is byte-identical to its origin.
    pub fn scenarios(&self) -> Vec<Scenario> {
        let app = app_by_name(APPS[self.trunk.app]).expect("benchmark apps are in the catalog");
        let mut out = Vec::with_capacity(self.levels * self.bindings.len());
        for level in 0..self.levels {
            let warmup = SimDuration::from_millis(RUNGS_MS[level]);
            let via: Vec<SimDuration> = RUNGS_MS[..level]
                .iter()
                .map(|&ms| SimDuration::from_millis(ms))
                .collect();
            for (b, binding) in self.bindings.iter().enumerate() {
                out.push(
                    Scenario::app(
                        format!(
                            "pb-{}-{:016x}-l{level}-b{b}-g{}k{}f{}a{}o{}",
                            self.trunk.app,
                            self.trunk.seed,
                            binding.governor,
                            binding.khz,
                            binding.fault,
                            binding.amount,
                            binding.onset_ms
                        ),
                        app.clone(),
                        SystemConfig::baseline().with_seed(self.trunk.seed),
                    )
                    .with_stop(StopWhen::Deadline(
                        warmup + SimDuration::from_millis(TAIL_MS),
                    ))
                    .with_warmup(warmup)
                    .with_warmup_via(via.clone())
                    .with_late(binding.late(warmup)),
                );
            }
        }
        out
    }
}

/// A seeded sequence of `n` batches with `levels` rungs and `per`
/// bindings each, cycling the three classes in shuffled order (after an
/// opening `Build`). `eligible(i, j)` says whether batch `i` may refer
/// back to batch `j` (for `serve`: only batches due long enough before,
/// so their trunk is published and their run complete); a batch with no
/// eligible predecessor is a `Build`.
pub fn sequence(
    seed: u64,
    n: usize,
    levels: usize,
    per: usize,
    eligible: impl Fn(usize, usize) -> bool,
) -> Vec<Batch> {
    let mut rng = Rng::new(seed);
    let mut out: Vec<Batch> = Vec::with_capacity(n);
    let mut cycle: Vec<Class> = Vec::new();
    let bindings = |rng: &mut Rng| (0..per).map(|_| Binding::random(rng)).collect();
    while out.len() < n {
        let i = out.len();
        if cycle.is_empty() {
            cycle = vec![Class::Build, Class::Hydrate, Class::Repeat];
            // Shuffle (Fisher-Yates); the very first batch is a build
            // (batches are popped from the back).
            for k in (1..cycle.len()).rev() {
                cycle.swap(k, rng.below(k + 1));
            }
            if i == 0 {
                cycle.sort_by_key(|c| *c == Class::Build);
            }
        }
        let want = cycle.pop().expect("cycle refilled above");
        let earlier: Vec<usize> = (0..i).filter(|&j| eligible(i, j)).collect();
        let builds: Vec<usize> = earlier
            .iter()
            .copied()
            .filter(|&j| out[j].class == Class::Build)
            .collect();
        let batch = match want {
            Class::Hydrate if !builds.is_empty() => {
                let from = &out[builds[rng.below(builds.len())]];
                Batch {
                    class: Class::Hydrate,
                    origin: i,
                    trunk: from.trunk,
                    levels,
                    bindings: bindings(&mut rng),
                }
            }
            Class::Repeat if !earlier.is_empty() => {
                let j = earlier[rng.below(earlier.len())];
                Batch {
                    class: Class::Repeat,
                    origin: out[j].origin,
                    ..out[j].clone()
                }
            }
            _ => Batch {
                class: Class::Build,
                origin: i,
                trunk: Trunk {
                    app: rng.below(APPS.len()),
                    seed: rng.next_u64(),
                },
                levels,
                bindings: bindings(&mut rng),
            },
        };
        out.push(batch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_and_classes_in_thirds() {
        let a = sequence(7, 300, 3, 4, |_, _| true);
        let b = sequence(7, 300, 3, 4, |_, _| true);
        let labels = |s: &[Batch]| -> Vec<String> {
            s.iter()
                .flat_map(|b| b.scenarios().into_iter().map(|sc| sc.label))
                .collect()
        };
        assert_eq!(labels(&a), labels(&b));
        for class in [Class::Build, Class::Hydrate, Class::Repeat] {
            assert_eq!(a.iter().filter(|b| b.class == class).count(), 100);
        }
        assert_ne!(labels(&a), labels(&sequence(8, 300, 3, 4, |_, _| true)));
    }

    #[test]
    fn repeats_are_verbatim_and_hydrates_reuse_a_built_trunk() {
        let s = sequence(3, 60, 2, 2, |_, _| true);
        for b in &s {
            match b.class {
                Class::Repeat => {
                    let labels = |x: &Batch| -> Vec<String> {
                        x.scenarios().into_iter().map(|sc| sc.label).collect()
                    };
                    assert_eq!(labels(b), labels(&s[b.origin]));
                }
                Class::Hydrate => assert!(s
                    .iter()
                    .any(|o| o.class == Class::Build && o.trunk == b.trunk)),
                Class::Build => {}
            }
        }
    }
}
