//! Analytic CPI-stack performance model.
//!
//! A task's code is characterized by a [`WorkProfile`]; the [`PerfModel`]
//! turns that profile plus a core kind, L2 cache and clock frequency into an
//! instruction throughput. The model is:
//!
//! `CPI(core, f) = cpi_core + mlp_core × mpki(L2)/1000 × t_mem × f`
//!
//! where `t_mem` is the (frequency-independent) memory latency in
//! nanoseconds, so the *cycle* cost of a miss grows linearly with frequency.
//! This yields the two behaviors the paper's Figure 2 hinges on:
//!
//! * sub-linear frequency scaling for memory-bound code, and
//! * a big-core advantage that grows with cache sensitivity because the big
//!   cluster's L2 is 4× larger (2 MB vs 512 KB).
//!
//! The `mlp` factor models memory-level parallelism: the out-of-order big
//! core overlaps a fraction of miss latency, the in-order little core
//! stalls for all of it.

use crate::cache::CacheModel;
use crate::ids::CoreKind;
use bl_simcore::time::SimDuration;
use core::ops::{Add, AddAssign, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// An amount of computational work, in instructions.
///
/// Fractional instructions are allowed; the scheduler drains work
/// continuously between events.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Work(f64);

impl Work {
    /// No work.
    pub const ZERO: Work = Work(0.0);

    /// Creates a quantity of work from an instruction count.
    pub fn from_instructions(n: f64) -> Self {
        debug_assert!(n >= 0.0, "Work cannot be negative");
        Work(n.max(0.0))
    }

    /// Creates work from mega-instructions.
    pub fn from_mega(n: f64) -> Self {
        Work::from_instructions(n * 1e6)
    }

    /// The work in instructions.
    pub fn instructions(self) -> f64 {
        self.0
    }

    /// True if no work remains (within float tolerance).
    pub fn is_done(self) -> bool {
        self.0 <= 1e-9
    }

    /// Subtracts up to `amount`, clamping at zero.
    pub fn saturating_sub(self, amount: Work) -> Work {
        Work((self.0 - amount.0).max(0.0))
    }
}

impl Add for Work {
    type Output = Work;
    fn add(self, rhs: Work) -> Work {
        Work(self.0 + rhs.0)
    }
}
impl AddAssign for Work {
    fn add_assign(&mut self, rhs: Work) {
        self.0 += rhs.0;
    }
}
impl Sub for Work {
    type Output = Work;
    fn sub(self, rhs: Work) -> Work {
        Work((self.0 - rhs.0).max(0.0))
    }
}
impl SubAssign for Work {
    fn sub_assign(&mut self, rhs: Work) {
        self.0 = (self.0 - rhs.0).max(0.0);
    }
}

/// Architectural character of a piece of code, independent of which core
/// runs it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkProfile {
    /// Base (cache-hit) cycles per instruction on the little in-order core.
    pub cpi_little: f64,
    /// Base (cache-hit) cycles per instruction on the big out-of-order core.
    pub cpi_big: f64,
    /// L2 misses per kilo-instruction at the 512 KB reference capacity.
    pub mpki_ref: f64,
    /// Cache-sensitivity exponent for the power-law miss curve (0 =
    /// capacity-insensitive).
    pub cache_beta: f64,
    /// Relative switching activity while running (1.0 = typical code).
    /// ILP-rich code toggles more datapath per cycle (>1); memory-stalled
    /// code draws less (<1). Scales the dynamic power term, giving the
    /// small per-benchmark power differences of the paper's Figure 3.
    #[serde(default = "default_energy_intensity")]
    pub energy_intensity: f64,
}

fn default_energy_intensity() -> f64 {
    1.0
}

impl WorkProfile {
    /// A compute-bound profile with the default microarchitectural gap and
    /// no memory traffic — the common case for short interactive bursts.
    pub fn compute_bound() -> Self {
        WorkProfile {
            cpi_little: 1.6,
            cpi_big: 0.85,
            mpki_ref: 0.0,
            cache_beta: 0.0,
            energy_intensity: 1.0,
        }
    }

    /// Base CPI on the given core kind (no memory component).
    pub fn base_cpi(&self, kind: CoreKind) -> f64 {
        match kind {
            CoreKind::Little => self.cpi_little,
            CoreKind::Big => self.cpi_big,
        }
    }
}

impl Default for WorkProfile {
    fn default() -> Self {
        WorkProfile::compute_bound()
    }
}

/// The platform-wide performance model constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerfModel {
    /// DRAM access latency in nanoseconds (frequency independent).
    pub mem_latency_ns: f64,
    /// Fraction of miss latency exposed on the little in-order core.
    pub mlp_little: f64,
    /// Fraction of miss latency exposed on the big out-of-order core
    /// (smaller: OoO overlaps misses).
    pub mlp_big: f64,
}

impl PerfModel {
    /// Memory-level-parallelism exposure factor for a core kind.
    pub fn mlp(&self, kind: CoreKind) -> f64 {
        match kind {
            CoreKind::Little => self.mlp_little,
            CoreKind::Big => self.mlp_big,
        }
    }

    /// Effective cycles per instruction for `profile` on a `kind` core with
    /// cache `l2` at `freq_ghz`.
    pub fn cpi(
        &self,
        profile: &WorkProfile,
        kind: CoreKind,
        l2: &CacheModel,
        freq_ghz: f64,
    ) -> f64 {
        debug_assert!(freq_ghz > 0.0, "cpi: non-positive frequency");
        let miss_cycles = self.mem_latency_ns * freq_ghz;
        profile.base_cpi(kind) + self.mlp(kind) * profile.mpki_ref_curve(l2) / 1000.0 * miss_cycles
    }

    /// Instruction throughput (instructions per second) for `profile` on a
    /// `kind` core with cache `l2` at `freq_ghz`.
    pub fn ips(
        &self,
        profile: &WorkProfile,
        kind: CoreKind,
        l2: &CacheModel,
        freq_ghz: f64,
    ) -> f64 {
        freq_ghz * 1e9 / self.cpi(profile, kind, l2, freq_ghz)
    }

    /// The work executed by running `profile` for `dur` on the given
    /// configuration — used to express demands as "time on a reference
    /// core".
    pub fn work_for(
        &self,
        profile: &WorkProfile,
        kind: CoreKind,
        l2: &CacheModel,
        freq_ghz: f64,
        dur: SimDuration,
    ) -> Work {
        Work::from_instructions(self.ips(profile, kind, l2, freq_ghz) * dur.as_secs_f64())
    }

    /// Iso-frequency speedup of big over little for `profile` given each
    /// cluster's L2.
    pub fn iso_freq_speedup(
        &self,
        profile: &WorkProfile,
        little_l2: &CacheModel,
        big_l2: &CacheModel,
        freq_ghz: f64,
    ) -> f64 {
        self.ips(profile, CoreKind::Big, big_l2, freq_ghz)
            / self.ips(profile, CoreKind::Little, little_l2, freq_ghz)
    }
}

impl Default for PerfModel {
    fn default() -> Self {
        PerfModel {
            mem_latency_ns: 100.0,
            mlp_little: 1.0,
            mlp_big: 0.45,
        }
    }
}

impl WorkProfile {
    /// MPKI of this profile in cache `l2` via the power-law miss curve.
    pub fn mpki_ref_curve(&self, l2: &CacheModel) -> f64 {
        l2.mpki(self.mpki_ref, self.cache_beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn little_l2() -> CacheModel {
        CacheModel::new(512, 8, 64)
    }
    fn big_l2() -> CacheModel {
        CacheModel::new(2048, 16, 64)
    }

    #[test]
    fn work_arithmetic() {
        let a = Work::from_mega(2.0);
        let b = Work::from_mega(0.5);
        assert_eq!((a + b).instructions(), 2.5e6);
        assert_eq!((b - a), Work::ZERO); // clamped
        let mut c = a;
        c -= b;
        assert_eq!(c.instructions(), 1.5e6);
        assert!(Work::ZERO.is_done());
        assert!(!a.is_done());
        assert_eq!(a.saturating_sub(Work::from_mega(5.0)), Work::ZERO);
    }

    #[test]
    fn compute_bound_speedup_is_microarchitectural() {
        let m = PerfModel::default();
        let p = WorkProfile::compute_bound();
        let s = m.iso_freq_speedup(&p, &little_l2(), &big_l2(), 1.3);
        // Pure CPI ratio: 1.6 / 0.85
        assert!((s - 1.6 / 0.85).abs() < 1e-9, "speedup = {s}");
    }

    #[test]
    fn cache_sensitive_speedup_exceeds_microarchitectural() {
        let m = PerfModel::default();
        let cache_sensitive = WorkProfile {
            cpi_little: 1.8,
            cpi_big: 1.0,
            mpki_ref: 35.0,
            cache_beta: 1.0,
            energy_intensity: 1.0,
        };
        let s = m.iso_freq_speedup(&cache_sensitive, &little_l2(), &big_l2(), 1.3);
        let micro = 1.8 / 1.0;
        assert!(s > micro * 1.5, "speedup {s} should be amplified by L2 gap");
        assert!(s < 6.0, "speedup {s} should stay physical");
    }

    #[test]
    fn memory_bound_scales_sublinearly_with_frequency() {
        let m = PerfModel::default();
        let memory_bound = WorkProfile {
            cpi_little: 1.6,
            cpi_big: 0.9,
            mpki_ref: 20.0,
            cache_beta: 0.1, // streaming: capacity doesn't help
            energy_intensity: 1.0,
        };
        let ips_low = m.ips(&memory_bound, CoreKind::Big, &big_l2(), 0.8);
        let ips_high = m.ips(&memory_bound, CoreKind::Big, &big_l2(), 1.9);
        let scaling = ips_high / ips_low;
        assert!(
            scaling < 1.9 / 0.8 * 0.9,
            "freq scaling {scaling} should be sub-linear"
        );
        assert!(scaling > 1.0);
    }

    #[test]
    fn work_for_round_trips_duration() {
        let m = PerfModel::default();
        let p = WorkProfile::compute_bound();
        let w = m.work_for(
            &p,
            CoreKind::Little,
            &little_l2(),
            1.3,
            SimDuration::from_millis(10),
        );
        let rate = m.ips(&p, CoreKind::Little, &little_l2(), 1.3);
        let t = w.instructions() / rate;
        assert!((t - 0.010).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn ips_positive_and_monotone_in_freq(
            cpi_l in 1.0f64..3.0, cpi_b in 0.5f64..1.5,
            mpki in 0.0f64..40.0, beta in 0.0f64..1.5,
            f1 in 0.5f64..2.0, f2 in 0.5f64..2.0)
        {
            let m = PerfModel::default();
            let p = WorkProfile {
                cpi_little: cpi_l,
                cpi_big: cpi_b,
                mpki_ref: mpki,
                cache_beta: beta,
                energy_intensity: 1.0,
            };
            let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
            for kind in CoreKind::ALL {
                let l2 = if kind.is_big() { big_l2() } else { little_l2() };
                let a = m.ips(&p, kind, &l2, lo);
                let b = m.ips(&p, kind, &l2, hi);
                prop_assert!(a > 0.0);
                prop_assert!(b >= a - 1e-6, "ips must not decrease with frequency");
            }
        }

        #[test]
        fn big_always_at_least_as_fast_iso_freq(
            mpki in 0.0f64..40.0, beta in 0.0f64..1.5, f in 0.8f64..1.3)
        {
            // With the default model (big base CPI < little base CPI, bigger L2,
            // more MLP) the big core wins at iso-frequency — the paper observes
            // exactly this for all SPEC applications on this platform.
            let m = PerfModel::default();
            let p = WorkProfile {
                cpi_little: 1.6,
                cpi_big: 0.85,
                mpki_ref: mpki,
                cache_beta: beta,
                energy_intensity: 1.0,
            };
            let s = m.iso_freq_speedup(&p, &little_l2(), &big_l2(), f);
            prop_assert!(s >= 1.0);
        }
    }
}
