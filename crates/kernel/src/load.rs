//! HMP-style time-weighted task load tracking.
//!
//! The Linaro HMP scheduler tracks each task's load as a geometric series
//! over 1 ms contribution windows; the paper states the decay such that "the
//! 1ms-period load generated 32ms ago will be weighted by 50%". We implement
//! the continuous-time equivalent: an exponentially weighted moving average
//! with a configurable half-life,
//!
//! `load(t+dt) = load(t)·d + SCALE·r·(1−d)`, with `d = 0.5^(dt/halflife)`
//!
//! where `r ∈ [0,1]` is the task's contribution level over the elapsed
//! interval: its runnable fraction scaled by `f_cur/f_max` of the CPU it
//! occupies (the paper: "the CPU load should be normalized by the current
//! clock frequency"). Loads are frozen while the task sleeps (paper §IV.B).

use bl_simcore::time::SimTime;

/// Full-scale load value (a task continuously runnable at max frequency).
pub const LOAD_SCALE: f64 = 1024.0;

/// The per-millisecond EWMA decay rate for a half-life, `-ln 2 /
/// halflife_ms`, so that `exp(dt_ms · rate)` is the decay factor over
/// `dt_ms`. Computed once per tracker (the half-life never changes), so
/// an update is one `exp` instead of a `powf` re-deriving the logarithm.
fn ewma_rate_per_ms(halflife_ms: f64) -> f64 {
    -core::f64::consts::LN_2 / halflife_ms
}

/// One-entry memo for [`f64::exp`] keyed on the argument's bit pattern.
///
/// The batch path's decay factor `exp(dt · rate)` recurs with the same
/// argument lane after lane and tick after tick whenever the sampling
/// cadence is periodic; one slot removes the transcendental from that
/// steady state without any table or tolerance, and returns exactly the
/// bits `exp` would.
#[derive(Debug, Clone, Copy)]
struct ExpMemo {
    key: u64,
    value: f64,
}

impl ExpMemo {
    fn new() -> Self {
        // NaN bits as the sentinel key: exp(NaN) = NaN, so even a lookup
        // with a NaN argument returns the right value.
        ExpMemo {
            key: f64::NAN.to_bits(),
            value: f64::NAN,
        }
    }

    /// `x.exp()`, memoised on the exact bit pattern of `x`.
    fn exp(&mut self, x: f64) -> f64 {
        let bits = x.to_bits();
        if bits != self.key {
            self.key = bits;
            self.value = x.exp();
        }
        self.value
    }
}

/// Per-task exponentially decayed load average on the 0–1024 scale.
#[derive(Debug, Clone)]
pub struct LoadTracker {
    load: f64,
    halflife_ms: f64,
    /// `-ln 2 / halflife_ms`, precomputed at construction so the per-update
    /// decay is one `exp` instead of a `powf` re-deriving the logarithm.
    rate_per_ms: f64,
    last_update: SimTime,
}

impl LoadTracker {
    /// Creates a tracker with zero load and the given half-life.
    ///
    /// # Panics
    ///
    /// Panics if `halflife_ms` is not positive.
    pub fn new(start: SimTime, halflife_ms: f64) -> Self {
        assert!(halflife_ms > 0.0, "half-life must be positive");
        LoadTracker {
            load: 0.0,
            halflife_ms,
            rate_per_ms: ewma_rate_per_ms(halflife_ms),
            last_update: start,
        }
    }

    /// Current load in `[0, 1024]`.
    pub fn value(&self) -> f64 {
        self.load
    }

    /// The configured half-life in milliseconds.
    pub fn halflife_ms(&self) -> f64 {
        self.halflife_ms
    }

    /// Folds in the contribution level `r` (runnable fraction × frequency
    /// ratio, in `[0,1]`) held over `[last_update, now]`, then advances the
    /// update point.
    pub fn update(&mut self, now: SimTime, r: f64) {
        debug_assert!(
            (0.0..=1.0 + 1e-9).contains(&r),
            "contribution out of range: {r}"
        );
        if now <= self.last_update {
            return;
        }
        let dt_ms = now.duration_since(self.last_update).as_millis_f64();
        let d = (dt_ms * self.rate_per_ms).exp();
        self.load = self.load * d + LOAD_SCALE * r.clamp(0.0, 1.0) * (1.0 - d);
        self.last_update = now;
    }

    /// Freezes the load across a sleep: moves the update point to `now`
    /// without decaying (HMP does not update sleeping tasks' loads).
    pub fn skip_to(&mut self, now: SimTime) {
        if now > self.last_update {
            self.last_update = now;
        }
    }
}

/// Structure-of-arrays load tracking for a whole task population.
///
/// Semantically one [`LoadTracker`] per task (identical EWMA formula,
/// identical freeze-on-sleep rule), but the values and update points live
/// in two parallel vectors sharing one half-life. The kernel's per-advance
/// batch loop then walks contiguous `f64`s instead of hopping across
/// per-task control blocks, and snapshotting the whole population is two
/// `memcpy`s.
#[derive(Debug, Clone)]
pub struct LoadSet {
    values: Vec<f64>,
    last_update: Vec<SimTime>,
    halflife_ms: f64,
    /// `-ln 2 / halflife_ms`, precomputed once (see [`LoadTracker`]).
    rate_per_ms: f64,
    /// Memo for the batch path's decay `exp`: consecutive lanes (and
    /// consecutive ticks) overwhelmingly share the same elapsed interval.
    memo: ExpMemo,
}

impl LoadSet {
    /// Creates an empty set whose trackers share `halflife_ms`.
    ///
    /// # Panics
    ///
    /// Panics if `halflife_ms` is not positive.
    pub fn new(halflife_ms: f64) -> Self {
        assert!(halflife_ms > 0.0, "half-life must be positive");
        LoadSet {
            values: Vec::new(),
            last_update: Vec::new(),
            halflife_ms,
            rate_per_ms: ewma_rate_per_ms(halflife_ms),
            memo: ExpMemo::new(),
        }
    }

    /// Adds a tracker with zero load whose decay starts at `start`;
    /// returns its index (dense from 0 in push order).
    pub fn push(&mut self, start: SimTime) -> usize {
        self.values.push(0.0);
        self.last_update.push(start);
        self.values.len() - 1
    }

    /// Number of tracked tasks.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no task is tracked.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Current load of tracker `idx` in `[0, 1024]`.
    pub fn value(&self, idx: usize) -> f64 {
        self.values[idx]
    }

    /// The shared half-life in milliseconds.
    pub fn halflife_ms(&self) -> f64 {
        self.halflife_ms
    }

    /// Folds contribution `r` held over `[last_update, now]` into tracker
    /// `idx` — exactly [`LoadTracker::update`].
    pub fn update(&mut self, idx: usize, now: SimTime, r: f64) {
        debug_assert!(
            (0.0..=1.0 + 1e-9).contains(&r),
            "contribution out of range: {r}"
        );
        if now <= self.last_update[idx] {
            return;
        }
        let dt_ms = now.duration_since(self.last_update[idx]).as_millis_f64();
        let d = (dt_ms * self.rate_per_ms).exp();
        self.values[idx] = self.values[idx] * d + LOAD_SCALE * r.clamp(0.0, 1.0) * (1.0 - d);
        self.last_update[idx] = now;
    }

    /// Batch form of [`LoadSet::update`]: one pass over the whole
    /// population at instant `now`.
    ///
    /// `contribution(idx)` returns `Some(r)` to fold contribution `r`
    /// into tracker `idx` (exactly as `update(idx, now, r)` would) or
    /// `None` to leave it untouched (sleeping/blocked tasks). One pass
    /// over the contiguous lanes applies the `update` recurrence per
    /// active lane, with the decay `exp` memoised: all lanes share the
    /// tick's `now`, so every lane updated on the previous tick shares
    /// one elapsed interval — and one transcendental — per tick. The memo
    /// returns the exact bits `exp` would, so results are bit-identical
    /// to calling `update` per index.
    pub fn update_batch_with(
        &mut self,
        now: SimTime,
        mut contribution: impl FnMut(usize) -> Option<f64>,
    ) {
        for idx in 0..self.values.len() {
            let Some(r) = contribution(idx) else { continue };
            debug_assert!(
                (0.0..=1.0 + 1e-9).contains(&r),
                "contribution out of range: {r}"
            );
            if now <= self.last_update[idx] {
                continue;
            }
            let dt_ms = now.duration_since(self.last_update[idx]).as_millis_f64();
            let d = self.memo.exp(dt_ms * self.rate_per_ms);
            self.values[idx] = self.values[idx] * d + LOAD_SCALE * r.clamp(0.0, 1.0) * (1.0 - d);
            self.last_update[idx] = now;
        }
    }

    /// Freezes tracker `idx` across a sleep — exactly
    /// [`LoadTracker::skip_to`].
    pub fn skip_to(&mut self, idx: usize, now: SimTime) {
        if now > self.last_update[idx] {
            self.last_update[idx] = now;
        }
    }

    /// The raw load values, in task order — the batch read path for
    /// observers (reports, fingerprints) that want the whole population.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Captures the set's persistent state: the per-task lanes plus the
    /// shared half-life. Derived quantities (the precomputed decay rate
    /// and the `exp` memo) are rebuilt on restore; the memo is
    /// bit-transparent, so the restored set's future updates are
    /// bit-identical to the original's.
    pub fn state_save(&self) -> LoadSetSaved {
        LoadSetSaved {
            values: self.values.clone(),
            last_update: self.last_update.clone(),
            halflife_ms: self.halflife_ms,
        }
    }

    /// Rebuilds a set from [`LoadSet::state_save`] output.
    ///
    /// # Panics
    ///
    /// Panics if the saved half-life is not positive or the lane vectors
    /// disagree in length (possible only for hand-forged input — stored
    /// snapshots are checksummed).
    pub fn state_restore(saved: &LoadSetSaved) -> Self {
        assert_eq!(
            saved.values.len(),
            saved.last_update.len(),
            "load lanes must be parallel"
        );
        let mut set = LoadSet::new(saved.halflife_ms);
        set.values = saved.values.clone();
        set.last_update = saved.last_update.clone();
        set
    }
}

/// Serialized form of a [`LoadSet`], produced by [`LoadSet::state_save`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LoadSetSaved {
    values: Vec<f64>,
    last_update: Vec<SimTime>,
    halflife_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bl_simcore::time::SimDuration;
    use proptest::prelude::*;

    #[test]
    fn exp_memo_matches_exp() {
        let mut memo = ExpMemo::new();
        for x in [-3.0, -0.5, 0.0, 0.25, -0.5, -0.5] {
            assert_eq!(memo.exp(x).to_bits(), x.exp().to_bits());
        }
    }

    #[test]
    fn ewma_rate_inverts_halflife() {
        let rate = ewma_rate_per_ms(32.0);
        // One half-life of decay halves the value (within float rounding).
        assert!(((32.0 * rate).exp() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rises_toward_scale_under_full_load() {
        let mut t = LoadTracker::new(SimTime::ZERO, 32.0);
        let mut now = SimTime::ZERO;
        for _ in 0..100 {
            now += SimDuration::from_millis(4);
            t.update(now, 1.0);
        }
        assert!(t.value() > 1000.0, "load = {}", t.value());
        assert!(t.value() <= LOAD_SCALE + 1e-9);
    }

    #[test]
    fn halflife_semantics() {
        // A task fully loaded long enough to saturate, then idle for exactly
        // one half-life, retains half its load.
        let mut t = LoadTracker::new(SimTime::ZERO, 32.0);
        t.update(SimTime::from_secs(10), 1.0); // long interval saturates
        let full = t.value();
        assert!((full - LOAD_SCALE).abs() < 1.0);
        t.update(SimTime::from_secs(10) + SimDuration::from_millis(32), 0.0);
        assert!((t.value() - full / 2.0).abs() < 1.0, "load = {}", t.value());
    }

    #[test]
    fn frequency_ratio_caps_steady_state() {
        // A task continuously runnable on a core at half max frequency
        // converges to ~512.
        let mut t = LoadTracker::new(SimTime::ZERO, 32.0);
        t.update(SimTime::from_secs(5), 0.5);
        assert!((t.value() - 512.0).abs() < 1.0, "load = {}", t.value());
    }

    #[test]
    fn sleep_freezes_load() {
        let mut t = LoadTracker::new(SimTime::ZERO, 32.0);
        t.update(SimTime::from_secs(1), 1.0);
        let before = t.value();
        t.skip_to(SimTime::from_secs(60)); // long sleep, load untouched
        assert_eq!(t.value(), before);
        // And the next update decays only from the skip point onward.
        t.update(SimTime::from_secs(60) + SimDuration::from_millis(32), 0.0);
        assert!((t.value() - before / 2.0).abs() < 1.0);
    }

    #[test]
    fn non_monotonic_time_is_ignored() {
        let mut t = LoadTracker::new(SimTime::from_secs(1), 32.0);
        t.update(SimTime::from_secs(2), 1.0);
        let v = t.value();
        t.update(SimTime::from_secs(2), 1.0); // same instant: no-op
        assert_eq!(t.value(), v);
    }

    #[test]
    fn shorter_halflife_reacts_faster() {
        let mut fast = LoadTracker::new(SimTime::ZERO, 16.0);
        let mut slow = LoadTracker::new(SimTime::ZERO, 64.0);
        let now = SimTime::from_millis(16);
        fast.update(now, 1.0);
        slow.update(now, 1.0);
        assert!(fast.value() > slow.value());
    }

    #[test]
    fn load_set_matches_trackers_step_for_step() {
        let mut trackers = [
            LoadTracker::new(SimTime::ZERO, 32.0),
            LoadTracker::new(SimTime::from_millis(7), 32.0),
        ];
        let mut set = LoadSet::new(32.0);
        set.push(SimTime::ZERO);
        set.push(SimTime::from_millis(7));
        let mut now = SimTime::ZERO;
        for step in 0..200u64 {
            now += SimDuration::from_millis(1 + step % 5);
            let r0 = (step % 7) as f64 / 7.0;
            trackers[0].update(now, r0);
            set.update(0, now, r0);
            if step % 3 == 0 {
                trackers[1].update(now, 1.0);
                set.update(1, now, 1.0);
            } else {
                trackers[1].skip_to(now);
                set.skip_to(1, now);
            }
            for (i, t) in trackers.iter().enumerate() {
                assert_eq!(set.value(i), t.value(), "tracker {i} at step {step}");
            }
        }
        assert_eq!(set.values(), &[trackers[0].value(), trackers[1].value()]);
    }

    #[test]
    fn batch_update_matches_per_index_updates() {
        let mut a = LoadSet::new(32.0);
        let mut b = LoadSet::new(32.0);
        for i in 0..5 {
            a.push(SimTime::from_millis(i));
            b.push(SimTime::from_millis(i));
        }
        let mut now = SimTime::from_millis(4);
        for step in 0..300u64 {
            now += SimDuration::from_millis(1 + step % 4);
            let r_of = |idx: usize| -> Option<f64> {
                if (step + idx as u64).is_multiple_of(3) {
                    None // "sleeping": untouched in both sets
                } else {
                    Some(((step + idx as u64) % 5) as f64 / 5.0)
                }
            };
            for idx in 0..a.len() {
                if let Some(r) = r_of(idx) {
                    a.update(idx, now, r);
                }
            }
            b.update_batch_with(now, r_of);
            for idx in 0..a.len() {
                assert_eq!(
                    a.value(idx).to_bits(),
                    b.value(idx).to_bits(),
                    "lane {idx} diverged at step {step}"
                );
            }
        }
    }

    #[test]
    fn state_save_restore_is_bit_transparent() {
        let mut orig = LoadSet::new(32.0);
        for i in 0..4 {
            orig.push(SimTime::from_millis(i));
        }
        let mut now = SimTime::from_millis(3);
        for step in 0..50u64 {
            now += SimDuration::from_millis(1 + step % 3);
            orig.update_batch_with(now, |idx| {
                (idx as u64 != step % 4).then_some(((step + idx as u64) % 5) as f64 / 5.0)
            });
        }
        let saved = orig.state_save();
        let mut restored = LoadSet::state_restore(&saved);
        assert_eq!(restored.values(), orig.values());
        assert_eq!(restored.halflife_ms(), orig.halflife_ms());
        // Future updates must match bit-for-bit despite the fresh memo.
        for step in 0..50u64 {
            now += SimDuration::from_millis(1 + step % 3);
            let r_of = |idx: usize| (idx as u64 != step % 3).then_some((step % 7) as f64 / 7.0);
            orig.update_batch_with(now, r_of);
            restored.update_batch_with(now, r_of);
            for idx in 0..orig.len() {
                assert_eq!(orig.value(idx).to_bits(), restored.value(idx).to_bits());
            }
        }
    }

    #[test]
    fn batch_update_ignores_stale_lanes() {
        let mut s = LoadSet::new(32.0);
        s.push(SimTime::ZERO);
        s.push(SimTime::from_millis(50)); // starts in the future
        s.update_batch_with(SimTime::from_millis(10), |_| Some(1.0));
        assert!(s.value(0) > 0.0);
        assert_eq!(s.value(1), 0.0, "stale-time lane must not move");
        // The stale lane's update point is untouched: decay later spans
        // its full configured interval.
        s.update_batch_with(SimTime::from_millis(60), |i| (i == 1).then_some(1.0));
        let mut reference = LoadTracker::new(SimTime::from_millis(50), 32.0);
        reference.update(SimTime::from_millis(60), 1.0);
        assert_eq!(s.value(1).to_bits(), reference.value().to_bits());
    }

    proptest! {
        #[test]
        fn load_stays_in_range(updates in proptest::collection::vec((1u64..100, 0.0f64..1.0), 1..100)) {
            let mut t = LoadTracker::new(SimTime::ZERO, 32.0);
            let mut now = SimTime::ZERO;
            for (dt_ms, r) in updates {
                now += SimDuration::from_millis(dt_ms);
                t.update(now, r);
                prop_assert!(t.value() >= -1e-9);
                prop_assert!(t.value() <= LOAD_SCALE + 1e-9);
            }
        }

        // Driving a LoadSet through `update_batch_with` must leave every
        // lane bit-equal to per-index `update` calls with the same
        // schedule, including lanes skipped on some steps.
        #[test]
        fn loadset_batch_matches_per_index(
            n_lanes in 1usize..12,
            halflife in 8.0f64..128.0,
            steps in proptest::collection::vec(
                (1u64..40, proptest::collection::vec(proptest::option::of(0.0f64..1.0), 12..13)),
                1..60,
            ),
        ) {
            let mut batch = LoadSet::new(halflife);
            let mut scalar = LoadSet::new(halflife);
            for _ in 0..n_lanes {
                batch.push(SimTime::ZERO);
                scalar.push(SimTime::ZERO);
            }
            let mut now = SimTime::ZERO;
            for (dt_ms, contribs) in &steps {
                now += SimDuration::from_millis(*dt_ms);
                for (idx, c) in contribs.iter().enumerate().take(n_lanes) {
                    if let Some(r) = c {
                        scalar.update(idx, now, *r);
                    }
                }
                batch.update_batch_with(now, |idx| contribs[idx]);
                for (b, s) in batch.values().iter().zip(scalar.values()) {
                    prop_assert_eq!(b.to_bits(), s.to_bits());
                }
            }
        }

        #[test]
        fn constant_input_converges_to_scaled_value(r in 0.0f64..1.0) {
            let mut t = LoadTracker::new(SimTime::ZERO, 32.0);
            let mut now = SimTime::ZERO;
            for _ in 0..2000 {
                now += SimDuration::from_millis(1);
                t.update(now, r);
            }
            prop_assert!((t.value() - LOAD_SCALE * r).abs() < 2.0);
        }
    }
}
