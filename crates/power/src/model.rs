//! The analytic full-system power model.

use bl_platform::ids::{ClusterId, CoreKind};
use bl_platform::state::PlatformState;
use bl_platform::topology::Topology;
use serde::{Deserialize, Serialize};

/// Calibration constants of the power model. All power values in milliwatts;
/// dynamic coefficients in mW / (GHz · V²).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerParams {
    /// System floor with screen and radios off (SoC uncore, DRAM refresh,
    /// rails).
    pub base_mw: f64,
    /// Additional draw when the display is on (mobile-app experiments).
    pub screen_mw: f64,
    /// Switching-capacitance coefficient per core kind [little, big].
    pub dyn_coeff_mw_per_ghz_v2: [f64; 2],
    /// Per-cluster leakage per volt when the cluster has any online core
    /// [little, big]. Includes the cluster's L2.
    pub cluster_leak_mw_per_v: [f64; 2],
    /// Per-online-core idle leakage per volt [little, big].
    pub core_idle_leak_mw_per_v: [f64; 2],
}

impl PowerParams {
    /// Constants calibrated to the paper's full-system measurements on the
    /// Galaxy S5 (see crate docs for the pinned ratios).
    pub fn galaxy_s5() -> Self {
        PowerParams {
            base_mw: 350.0,
            screen_mw: 420.0,
            dyn_coeff_mw_per_ghz_v2: [200.0, 660.0],
            cluster_leak_mw_per_v: [15.0, 150.0],
            core_idle_leak_mw_per_v: [3.0, 10.0],
        }
    }

    fn kind_idx(kind: CoreKind) -> usize {
        match kind {
            CoreKind::Little => 0,
            CoreKind::Big => 1,
        }
    }
}

impl Default for PowerParams {
    fn default() -> Self {
        PowerParams::galaxy_s5()
    }
}

/// Computes instantaneous full-system power for a platform state and
/// per-CPU activity levels.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Calibration constants.
    pub params: PowerParams,
    /// Whether the display contributes (`true` for interactive-app
    /// experiments, `false` for the SPEC/microbenchmark runs where "the
    /// screen and networks are turned off", paper §III.A).
    pub screen_on: bool,
}

impl PowerModel {
    /// Model with Galaxy-S5 calibration and the screen off.
    pub fn screen_off() -> Self {
        PowerModel {
            params: PowerParams::galaxy_s5(),
            screen_on: false,
        }
    }

    /// Model with Galaxy-S5 calibration and the screen on.
    pub fn screen_on() -> Self {
        PowerModel {
            params: PowerParams::galaxy_s5(),
            screen_on: true,
        }
    }

    /// Power of one cluster given its frequency and the per-online-core
    /// activity levels (each in `[0,1]`).
    pub fn cluster_mw(
        &self,
        topo: &Topology,
        cluster: ClusterId,
        freq_khz: u32,
        online_activities: &[f64],
    ) -> f64 {
        if online_activities.is_empty() {
            return 0.0; // cluster fully hotplugged off
        }
        let c = topo.cluster(cluster);
        let k = PowerParams::kind_idx(c.core.kind);
        let opp = c.core.opps.opp_at(freq_khz);
        let v = opp.voltage_v();
        let f = opp.freq_ghz();
        let leak = self.params.cluster_leak_mw_per_v[k] * v
            + self.params.core_idle_leak_mw_per_v[k] * v * online_activities.len() as f64;
        // Activity is busy-fraction × energy intensity; intensities
        // slightly above 1 model ILP-rich code (paper Fig 3 shows
        // small per-benchmark power differences).
        #[cfg(debug_assertions)]
        for a in online_activities {
            debug_assert!((0.0..=1.5).contains(a), "activity out of range: {a}");
        }
        let dvvf = self.params.dyn_coeff_mw_per_ghz_v2[k] * v * v * f;
        let mut dynamic = 0.0;
        for &a in online_activities {
            dynamic += dvvf * a.max(0.0);
        }
        leak + dynamic
    }

    /// Instantaneous full-system power in mW.
    ///
    /// `activity[cpu]` is the current busy level of each CPU in `[0,1]`
    /// (for the event-driven simulator this is 0 or 1; utilization emerges
    /// from time-averaging). Offline CPUs' entries are ignored.
    pub fn instant_mw(&self, topo: &Topology, state: &PlatformState, activity: &[f64]) -> f64 {
        self.instant_mw_with_idle(topo, state, activity, None)
    }

    /// Instantaneous full-system power with per-CPU idle-leak scales from
    /// the cpuidle subsystem (`None` = all cores at nominal idle leakage).
    /// When every online core of a cluster is below a 0.2 leak scale (deep
    /// idle), the cluster's shared leakage is gated to 25%.
    pub fn instant_mw_with_idle(
        &self,
        topo: &Topology,
        state: &PlatformState,
        activity: &[f64],
        idle_scales: Option<&[f64]>,
    ) -> f64 {
        debug_assert_eq!(activity.len(), topo.n_cpus(), "activity len mismatch");
        if let Some(scales) = idle_scales {
            debug_assert_eq!(scales.len(), topo.n_cpus(), "idle scales len mismatch");
        }
        let mut total = self.params.base_mw
            + if self.screen_on {
                self.params.screen_mw
            } else {
                0.0
            };
        for c in topo.clusters() {
            let k = PowerParams::kind_idx(c.core.kind);
            let opp = c.core.opps.opp_at(state.cluster_freq_khz(c.id));
            let v = opp.voltage_v();
            let f = opp.freq_ghz();
            let mut cluster = 0.0;
            let mut all_deep = true;
            let mut any_online = false;
            for cpu in state.online_in(topo, c.id).map(|cpu| cpu.0) {
                any_online = true;
                let a = activity[cpu];
                let idle_scale = idle_scales.map_or(1.0, |s| s[cpu]);
                if a > 0.0 {
                    all_deep = false;
                    cluster += self.params.core_idle_leak_mw_per_v[k] * v
                        + self.params.dyn_coeff_mw_per_ghz_v2[k] * v * v * f * a.max(0.0);
                } else {
                    if idle_scale >= 0.2 {
                        all_deep = false;
                    }
                    cluster += self.params.core_idle_leak_mw_per_v[k] * v * idle_scale;
                }
            }
            if !any_online {
                continue;
            }
            let cluster_leak = self.params.cluster_leak_mw_per_v[k] * v;
            cluster += if all_deep && idle_scales.is_some() {
                cluster_leak * 0.25
            } else {
                cluster_leak
            };
            total += cluster;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bl_platform::config::CoreConfig;
    use bl_platform::exynos::{exynos5422, BIG_CLUSTER, LITTLE_CLUSTER};

    /// Full-system power with a single core of `kind` fully busy at
    /// `freq_khz`, minimal companion configuration (L1 or L1+B1).
    fn single_core_full_load(kind: CoreKind, freq_khz: u32) -> f64 {
        let p = exynos5422();
        let model = PowerModel::screen_off();
        let mut state = PlatformState::new(&p.topology);
        let config = match kind {
            CoreKind::Little => CoreConfig::new(1, 0),
            CoreKind::Big => CoreConfig::new(1, 1),
        };
        state.apply_core_config(&p.topology, config).unwrap();
        let mut activity = vec![0.0; p.topology.n_cpus()];
        match kind {
            CoreKind::Little => {
                state.set_cluster_freq(&p.topology, LITTLE_CLUSTER, freq_khz);
                activity[0] = 1.0;
            }
            CoreKind::Big => {
                // companion little core idles at its minimum frequency
                state.set_cluster_freq(&p.topology, BIG_CLUSTER, freq_khz);
                activity[4] = 1.0;
            }
        }
        model.instant_mw(&p.topology, &state, &activity)
    }

    #[test]
    fn calibration_big13_over_little13_near_2_3() {
        let little = single_core_full_load(CoreKind::Little, 1_300_000);
        let big = single_core_full_load(CoreKind::Big, 1_300_000);
        let ratio = big / little;
        assert!(
            (2.0..=2.6).contains(&ratio),
            "big@1.3/little@1.3 = {ratio:.2}, expected ~2.3 (paper §III.A)"
        );
    }

    #[test]
    fn calibration_big08_over_little13_near_1_5() {
        let little = single_core_full_load(CoreKind::Little, 1_300_000);
        let big = single_core_full_load(CoreKind::Big, 800_000);
        let ratio = big / little;
        assert!(
            (1.3..=1.7).contains(&ratio),
            "big@0.8/little@1.3 = {ratio:.2}, expected ~1.5 (paper §III.A)"
        );
    }

    #[test]
    fn slope_grows_with_frequency_fig6() {
        // Power-vs-utilization slope must be steeper at higher frequency.
        let p = exynos5422();
        let model = PowerModel::screen_off();
        for cluster in [LITTLE_CLUSTER, BIG_CLUSTER] {
            let c = p.topology.cluster(cluster);
            let fmin = c.core.opps.min_khz();
            let fmax = c.core.opps.max_khz();
            let slope = |f: u32| {
                model.cluster_mw(&p.topology, cluster, f, &[1.0])
                    - model.cluster_mw(&p.topology, cluster, f, &[0.0])
            };
            assert!(
                slope(fmax) > slope(fmin) * 1.5,
                "{cluster}: slope should grow with f"
            );
        }
    }

    #[test]
    fn big_and_little_cover_disjoint_power_ranges_fig6() {
        // At full utilization, even the lowest big OPP draws more than the
        // highest little OPP (paper Fig 6: "clearly different ranges").
        let little_max = single_core_full_load(CoreKind::Little, 1_300_000);
        let big_min = single_core_full_load(CoreKind::Big, 800_000);
        assert!(big_min > little_max);
    }

    #[test]
    fn linear_in_utilization() {
        let p = exynos5422();
        let model = PowerModel::screen_off();
        let at = |u: f64| model.cluster_mw(&p.topology, LITTLE_CLUSTER, 1_300_000, &[u]);
        let half = at(0.5);
        assert!((half - (at(0.0) + at(1.0)) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn screen_adds_constant() {
        let p = exynos5422();
        let state = PlatformState::new(&p.topology);
        let act = vec![0.0; 8];
        let off = PowerModel::screen_off().instant_mw(&p.topology, &state, &act);
        let on = PowerModel::screen_on().instant_mw(&p.topology, &state, &act);
        assert!((on - off - PowerParams::galaxy_s5().screen_mw).abs() < 1e-9);
    }

    #[test]
    fn deep_idle_gates_cluster_leak_to_a_quarter() {
        let p = exynos5422();
        let model = PowerModel::screen_off();
        let state = PlatformState::new(&p.topology);
        let idle = vec![0.0; p.topology.n_cpus()];
        let mut scales = vec![0.1; p.topology.n_cpus()];
        let deep = model.instant_mw_with_idle(&p.topology, &state, &idle, Some(&scales));
        // One little core at the 0.2 threshold counts as shallow, so the
        // little cluster's shared leakage is no longer gated.
        scales[0] = 0.2;
        let shallow = model.instant_mw_with_idle(&p.topology, &state, &idle, Some(&scales));
        let opps = &p.topology.cluster(LITTLE_CLUSTER).core.opps;
        let v = opps
            .opp_at(state.cluster_freq_khz(LITTLE_CLUSTER))
            .voltage_v();
        let core_step = model.params.core_idle_leak_mw_per_v[0] * v * 0.1;
        let ungated = 0.75 * model.params.cluster_leak_mw_per_v[0] * v;
        assert!(
            (shallow - deep - core_step - ungated).abs() < 1e-9,
            "deep {deep} mW, shallow {shallow} mW"
        );
    }

    #[test]
    fn hotplugged_cluster_draws_nothing() {
        let p = exynos5422();
        let model = PowerModel::screen_off();
        assert_eq!(
            model.cluster_mw(&p.topology, BIG_CLUSTER, 800_000, &[]),
            0.0
        );
    }

    #[test]
    fn more_online_cores_more_idle_leak() {
        let p = exynos5422();
        let model = PowerModel::screen_off();
        let one = model.cluster_mw(&p.topology, LITTLE_CLUSTER, 500_000, &[0.0]);
        let four = model.cluster_mw(&p.topology, LITTLE_CLUSTER, 500_000, &[0.0; 4]);
        assert!(four > one);
    }
}
