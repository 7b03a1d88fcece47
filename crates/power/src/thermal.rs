//! First-order RC thermal model with trip/release hysteresis.
//!
//! Each frequency domain (cluster) gets one thermal node: a lumped heat
//! capacity `C` behind a thermal resistance `R` to ambient. With cluster
//! power `P` held constant over a step `dt`, the junction temperature
//! relaxes exponentially toward the steady state `T∞ = ambient + P·R`:
//!
//! `T(t+dt) = T∞ + (T(t) − T∞) · exp(−dt / (R·C))`
//!
//! which is the exact solution of `dT/dt = (P·R + ambient − T)/(R·C)`, so
//! the model is step-size independent and deterministic.
//!
//! Throttling uses two thresholds: the cluster *trips* when `T ≥ trip_c`
//! and only *releases* when `T ≤ release_c` (hysteresis prevents the
//! governor fighting the thermal driver at the boundary). While tripped the
//! cluster's OPP ladder is capped at [`ThermalParams::cap_khz`]; the
//! platform layer clamps every frequency request through that ceiling.

use serde::{Deserialize, Serialize};

use bl_simcore::time::SimDuration;

/// Calibration constants for one cluster's thermal node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalParams {
    /// Ambient (and initial) temperature in °C.
    pub ambient_c: f64,
    /// Thermal resistance junction→ambient in °C/W.
    pub r_c_per_w: f64,
    /// Lumped heat capacity in J/°C.
    pub c_j_per_c: f64,
    /// Throttle entry threshold in °C.
    pub trip_c: f64,
    /// Throttle exit threshold in °C (must be below `trip_c`).
    pub release_c: f64,
    /// OPP ceiling in kHz while throttled.
    pub cap_khz: u32,
}

impl ThermalParams {
    /// The Exynos 5422 big (A15) cluster: the small phone chassis gives a
    /// high thermal resistance, so sustained full-frequency operation trips
    /// throttling within tens of seconds — the behaviour Odroid/Galaxy
    /// firmwares exhibit.
    pub fn exynos5422_big() -> Self {
        ThermalParams {
            ambient_c: 25.0,
            r_c_per_w: 14.0,
            c_j_per_c: 0.6,
            trip_c: 85.0,
            release_c: 75.0,
            cap_khz: 1_200_000,
        }
    }

    /// The little (A7) cluster: low power density means it effectively
    /// never throttles, but the node still tracks temperature so thermal
    /// spikes injected by a fault plan behave consistently.
    pub fn exynos5422_little() -> Self {
        ThermalParams {
            ambient_c: 25.0,
            r_c_per_w: 18.0,
            c_j_per_c: 0.5,
            trip_c: 95.0,
            release_c: 85.0,
            cap_khz: 1_000_000,
        }
    }

    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns a message when thresholds are inverted or constants are
    /// non-positive/non-finite.
    pub fn validate(&self) -> Result<(), String> {
        let finite = [
            self.ambient_c,
            self.r_c_per_w,
            self.c_j_per_c,
            self.trip_c,
            self.release_c,
        ]
        .iter()
        .all(|x| x.is_finite());
        if !finite {
            return Err("thermal parameters must be finite".into());
        }
        if self.r_c_per_w <= 0.0 || self.c_j_per_c <= 0.0 {
            return Err("thermal R and C must be positive".into());
        }
        if self.release_c >= self.trip_c {
            return Err(format!(
                "release temperature {} must be below trip temperature {}",
                self.release_c, self.trip_c
            ));
        }
        Ok(())
    }
}

/// Live thermal state of one cluster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterThermal {
    /// The calibration constants in use.
    pub params: ThermalParams,
    temp_c: f64,
    throttled: bool,
}

impl ClusterThermal {
    /// A node at ambient temperature, not throttled.
    pub fn new(params: ThermalParams) -> Self {
        ClusterThermal {
            params,
            temp_c: params.ambient_c,
            throttled: false,
        }
    }

    /// Current junction temperature in °C.
    pub fn temp_c(&self) -> f64 {
        self.temp_c
    }

    /// Whether the cluster is currently throttled.
    pub fn is_throttled(&self) -> bool {
        self.throttled
    }

    /// The frequency ceiling currently in force, if any.
    pub fn cap_khz(&self) -> Option<u32> {
        self.throttled.then_some(self.params.cap_khz)
    }

    /// Advances the node by `dt` with the cluster dissipating `power_w`
    /// watts, then re-evaluates the throttle with hysteresis. Returns
    /// `true` when the throttle state *changed*.
    pub fn advance(&mut self, dt: SimDuration, power_w: f64) -> bool {
        debug_assert!(power_w >= 0.0, "negative cluster power");
        let tau = self.params.r_c_per_w * self.params.c_j_per_c;
        let t_inf = self.params.ambient_c + power_w.max(0.0) * self.params.r_c_per_w;
        let decay = (-dt.as_secs_f64() / tau).exp();
        self.temp_c = t_inf + (self.temp_c - t_inf) * decay;
        self.update_throttle()
    }

    /// Applies an instantaneous temperature step (fault injection), then
    /// re-evaluates the throttle. Returns `true` on a state change.
    pub fn inject(&mut self, delta_c: f64) -> bool {
        debug_assert!(delta_c.is_finite(), "non-finite thermal spike");
        self.temp_c += delta_c;
        self.update_throttle()
    }

    fn update_throttle(&mut self) -> bool {
        let before = self.throttled;
        if self.throttled {
            if self.temp_c <= self.params.release_c {
                self.throttled = false;
            }
        } else if self.temp_c >= self.params.trip_c {
            self.throttled = true;
        }
        self.throttled != before
    }
}

/// Structure-of-arrays thermal state for all clusters of a platform.
///
/// Semantically a `Vec<ClusterThermal>` (identical RC math, identical
/// hysteresis), but the per-cluster temperatures and throttle flags live
/// in parallel vectors so the per-sample batch advance walks contiguous
/// memory and a snapshot clone is a handful of `memcpy`s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThermalBank {
    params: Vec<ThermalParams>,
    temp_c: Vec<f64>,
    throttled: Vec<bool>,
}

impl ThermalBank {
    /// One node per parameter set, each starting at its ambient
    /// temperature, unthrottled.
    pub fn new(params: Vec<ThermalParams>) -> Self {
        let temp_c = params.iter().map(|p| p.ambient_c).collect();
        let throttled = vec![false; params.len()];
        ThermalBank {
            params,
            temp_c,
            throttled,
        }
    }

    /// Number of thermal nodes.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when the bank tracks no nodes (thermal model disabled).
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Calibration constants of node `idx`.
    pub fn params(&self, idx: usize) -> &ThermalParams {
        &self.params[idx]
    }

    /// Current junction temperature of node `idx` in °C.
    pub fn temp_c(&self, idx: usize) -> f64 {
        self.temp_c[idx]
    }

    /// All junction temperatures, in cluster order.
    pub fn temps(&self) -> &[f64] {
        &self.temp_c
    }

    /// Whether node `idx` is currently throttled.
    pub fn is_throttled(&self, idx: usize) -> bool {
        self.throttled[idx]
    }

    /// The frequency ceiling node `idx` currently imposes, if any.
    pub fn cap_khz(&self, idx: usize) -> Option<u32> {
        self.throttled[idx].then_some(self.params[idx].cap_khz)
    }

    /// Advances every node by `dt` with per-cluster powers `power_w`
    /// (indexed like the nodes), re-evaluating each throttle with
    /// hysteresis — the batch form of [`ClusterThermal::advance`].
    ///
    /// **Buffer contract:** indices of nodes whose throttle state
    /// *changed* are appended to `changed` in ascending node order; the
    /// buffer is **not cleared first** and is never reallocated beyond
    /// the bank size, so a caller that reuses one buffer across samples
    /// (clearing it between reads) pays no allocation on the steady-state
    /// hot path — the common case appends nothing.
    ///
    /// Each node integrates with the expression of
    /// [`ClusterThermal::advance`], term for term, in the same pass that
    /// re-evaluates its throttle. `bank_matches_scalar_nodes_step_for_step`
    /// and `thermal_bank_matches_scalar_nodes` check bit-identity against
    /// [`ClusterThermal`] every step.
    pub fn advance_all(&mut self, dt: SimDuration, power_w: &[f64], changed: &mut Vec<usize>) {
        debug_assert_eq!(power_w.len(), self.params.len());
        let dt_s = dt.as_secs_f64();
        // Zipped iteration (not indexing) so the per-lane loads and
        // stores compile without bounds checks.
        let lanes = self
            .params
            .iter()
            .zip(self.temp_c.iter_mut())
            .zip(self.throttled.iter_mut())
            .zip(power_w);
        for (i, (((p, t), th), &pw)) in lanes.enumerate() {
            debug_assert!(pw >= 0.0, "negative cluster power");
            let tau = p.r_c_per_w * p.c_j_per_c;
            let t_inf = p.ambient_c + pw.max(0.0) * p.r_c_per_w;
            let decay = (-dt_s / tau).exp();
            *t = t_inf + (*t - t_inf) * decay;
            if step_throttle(th, *t, p) {
                changed.push(i);
            }
        }
    }

    /// Applies an instantaneous temperature step to node `idx` (fault
    /// injection), then re-evaluates its throttle. Returns `true` on a
    /// throttle state change — the batch-layout form of
    /// [`ClusterThermal::inject`].
    pub fn inject(&mut self, idx: usize, delta_c: f64) -> bool {
        debug_assert!(delta_c.is_finite(), "non-finite thermal spike");
        self.temp_c[idx] += delta_c;
        self.update_throttle(idx)
    }

    fn update_throttle(&mut self, idx: usize) -> bool {
        step_throttle(
            &mut self.throttled[idx],
            self.temp_c[idx],
            &self.params[idx],
        )
    }
}

/// Re-evaluates one node's throttle with hysteresis against its current
/// temperature; returns `true` when the state changed. Shared by the
/// banked batch advance and the per-node injection path.
fn step_throttle(throttled: &mut bool, temp_c: f64, p: &ThermalParams) -> bool {
    let before = *throttled;
    if *throttled {
        if temp_c <= p.release_c {
            *throttled = false;
        }
    } else if temp_c >= p.trip_c {
        *throttled = true;
    }
    *throttled != before
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hot_node() -> ClusterThermal {
        ClusterThermal::new(ThermalParams::exynos5422_big())
    }

    #[test]
    fn starts_at_ambient_unthrottled() {
        let n = hot_node();
        assert_eq!(n.temp_c(), 25.0);
        assert!(!n.is_throttled());
        assert_eq!(n.cap_khz(), None);
    }

    #[test]
    fn relaxes_toward_steady_state() {
        let mut n = hot_node();
        // 5 W steady: T∞ = 25 + 5·14 = 95 °C.
        for _ in 0..600 {
            n.advance(SimDuration::from_millis(100), 5.0);
        }
        assert!((n.temp_c() - 95.0).abs() < 1.0, "T = {}", n.temp_c());
        assert!(n.is_throttled());
        assert_eq!(n.cap_khz(), Some(1_200_000));
    }

    #[test]
    fn step_size_independent() {
        // The exponential update must give the same temperature whether the
        // interval is taken in one step or many.
        let mut coarse = hot_node();
        coarse.advance(SimDuration::from_secs(4), 3.0);
        let mut fine = hot_node();
        for _ in 0..4000 {
            fine.advance(SimDuration::from_millis(1), 3.0);
        }
        assert!((coarse.temp_c() - fine.temp_c()).abs() < 1e-6);
    }

    #[test]
    fn hysteresis_requires_release_threshold() {
        let mut n = hot_node();
        n.inject(61.0); // 86 °C: above trip
        assert!(n.is_throttled());
        // Cooling to between release and trip keeps the throttle.
        n.inject(-6.0); // 80 °C
        assert!(n.is_throttled());
        n.inject(-6.0); // 74 °C: below release
        assert!(!n.is_throttled());
    }

    #[test]
    fn advance_reports_transitions() {
        let mut n = hot_node();
        assert!(!n.advance(SimDuration::from_secs(1), 0.0));
        assert!(n.inject(100.0));
        assert!(!n.inject(1.0)); // already throttled: no change
    }

    #[test]
    fn cooling_with_zero_power_returns_to_ambient() {
        let mut n = hot_node();
        n.inject(40.0);
        for _ in 0..600 {
            n.advance(SimDuration::from_secs(1), 0.0);
        }
        assert!((n.temp_c() - 25.0).abs() < 0.1);
    }

    #[test]
    fn bank_matches_scalar_nodes_step_for_step() {
        let params = vec![
            ThermalParams::exynos5422_little(),
            ThermalParams::exynos5422_big(),
        ];
        let mut scalar: Vec<ClusterThermal> =
            params.iter().map(|p| ClusterThermal::new(*p)).collect();
        let mut bank = ThermalBank::new(params);
        let mut changed = Vec::new();
        // A power trajectory that heats the big cluster through its trip
        // point and back down through release.
        let phases = [(6.0, 200), (0.5, 400), (6.0, 100)];
        for (big_w, steps) in phases {
            for _ in 0..steps {
                let powers = [0.3, big_w];
                changed.clear();
                let mut scalar_changed = Vec::new();
                for (i, n) in scalar.iter_mut().enumerate() {
                    if n.advance(SimDuration::from_millis(100), powers[i]) {
                        scalar_changed.push(i);
                    }
                }
                bank.advance_all(SimDuration::from_millis(100), &powers, &mut changed);
                assert_eq!(changed, scalar_changed);
                for (i, n) in scalar.iter().enumerate() {
                    assert_eq!(bank.temp_c(i), n.temp_c(), "node {i} temperature");
                    assert_eq!(bank.is_throttled(i), n.is_throttled(), "node {i} throttle");
                    assert_eq!(bank.cap_khz(i), n.cap_khz(), "node {i} cap");
                }
            }
        }
        // Injection parity too.
        for (i, n) in scalar.iter_mut().enumerate() {
            assert_eq!(bank.inject(i, 30.0), n.inject(30.0));
            assert_eq!(bank.temp_c(i), n.temp_c());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // The bank must track a vector of `ClusterThermal` nodes
        // bit-for-bit through heating, trips, hysteresis release and
        // cooldown.
        #[test]
        fn thermal_bank_matches_scalar_nodes(
            n_nodes in 1usize..6,
            steps in proptest::collection::vec(
                (1u64..500, proptest::collection::vec(0.0f64..8.0, 6..7)),
                1..80,
            ),
        ) {
            let params: Vec<ThermalParams> = (0..n_nodes)
                .map(|i| {
                    if i % 2 == 0 {
                        ThermalParams::exynos5422_big()
                    } else {
                        ThermalParams::exynos5422_little()
                    }
                })
                .collect();
            let mut scalar: Vec<ClusterThermal> =
                params.iter().map(|p| ClusterThermal::new(*p)).collect();
            let mut bank = ThermalBank::new(params);
            let mut changed = Vec::new();
            for (dt_ms, powers) in &steps {
                let dt = SimDuration::from_millis(*dt_ms);
                let powers = &powers[..n_nodes];
                let mut scalar_changed = Vec::new();
                for (i, node) in scalar.iter_mut().enumerate() {
                    if node.advance(dt, powers[i]) {
                        scalar_changed.push(i);
                    }
                }
                changed.clear();
                bank.advance_all(dt, powers, &mut changed);
                prop_assert_eq!(&changed, &scalar_changed);
                for (i, node) in scalar.iter().enumerate() {
                    prop_assert_eq!(
                        bank.temp_c(i).to_bits(),
                        node.temp_c().to_bits(),
                        "node {} temperature diverged",
                        i
                    );
                    prop_assert_eq!(bank.is_throttled(i), node.is_throttled());
                    prop_assert_eq!(bank.cap_khz(i), node.cap_khz());
                }
            }
        }
    }

    #[test]
    fn params_validate() {
        assert!(ThermalParams::exynos5422_big().validate().is_ok());
        assert!(ThermalParams::exynos5422_little().validate().is_ok());
        let mut bad = ThermalParams::exynos5422_big();
        bad.release_c = bad.trip_c + 1.0;
        assert!(bad.validate().is_err());
        let mut bad = ThermalParams::exynos5422_big();
        bad.c_j_per_c = 0.0;
        assert!(bad.validate().is_err());
    }
}
