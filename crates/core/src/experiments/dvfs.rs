//! Scheduler/governor experiments (paper §VI, Figures 9–13 and Table V).

use crate::result::RunResult;
use crate::scenario::Scenario;
use crate::sweep::{self, SweepOptions};
use crate::SystemConfig;
use bl_governor::{GovernorConfig, InteractiveParams};
use bl_kernel::hmp::HmpParams;
use bl_metrics::report::{fnum, pct, TextTable};
use bl_platform::exynos::exynos5422;
use bl_platform::ids::CoreKind;
use bl_workloads::apps::{mobile_apps, AppModel};
use bl_workloads::PerfMetric;
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Figures 9 & 10: frequency residency (from the default runs)
// ---------------------------------------------------------------------------

/// Renders a frequency-residency table for one core kind from default runs.
pub fn render_residency(runs: &[(AppModel, RunResult)], kind: CoreKind) -> String {
    let platform = exynos5422();
    let cluster = platform.topology.cluster_of_kind(kind).expect("cluster");
    let freqs: Vec<String> = cluster
        .core
        .opps
        .iter()
        .map(|o| format!("{:.1}G", o.freq_ghz()))
        .collect();
    let mut headers = vec!["App".to_string()];
    headers.extend(freqs);
    let (title, figure) = match kind {
        CoreKind::Little => (
            "Figure 9: little core frequency distribution (% of active time)",
            9,
        ),
        CoreKind::Big => (
            "Figure 10: big core frequency distribution (% of active time)",
            10,
        ),
    };
    let _ = figure;
    let mut t = TextTable::new(headers).with_title(title);
    for (app, r) in runs {
        let shares = match kind {
            CoreKind::Little => &r.little_residency,
            CoreKind::Big => &r.big_residency,
        };
        let mut cells = vec![app.name.to_string()];
        cells.extend(shares.iter().map(|s| pct(s * 100.0)));
        t.row(cells);
    }
    t.render()
}

/// Renders Table V from default runs.
pub fn render_table5(runs: &[(AppModel, RunResult)]) -> String {
    let mut t = TextTable::new(vec![
        "App Name".into(),
        "Min".into(),
        "<50%".into(),
        "<70%".into(),
        "70-95%".into(),
        ">95%".into(),
        "Full".into(),
    ])
    .with_title("Table V: efficiency decomposition (% of active core-samples)");
    for (app, r) in runs {
        let mut cells = vec![app.name.to_string()];
        cells.extend(r.efficiency_pct.iter().map(|v| pct(*v)));
        t.row(cells);
    }
    t.render()
}

// ---------------------------------------------------------------------------
// Figures 11–13: the eight governor/HMP parameter variants
// ---------------------------------------------------------------------------

/// The paper's eight §VI.C configurations, in figure order: four governor
/// variants then four HMP variants.
pub fn paper_param_variants() -> Vec<(&'static str, SystemConfig)> {
    let gov = |p: InteractiveParams| {
        SystemConfig::baseline().with_governor(GovernorConfig::Interactive(p))
    };
    let hmp = |h: HmpParams| SystemConfig::baseline().with_hmp(h);
    vec![
        ("sampling 60ms", gov(InteractiveParams::sampling_60ms())),
        ("sampling 100ms", gov(InteractiveParams::sampling_100ms())),
        (
            "target high (80)",
            gov(InteractiveParams::target_load_high()),
        ),
        ("target low (60)", gov(InteractiveParams::target_load_low())),
        ("HMP conservative (850,400)", hmp(HmpParams::conservative())),
        ("HMP aggressive (550,100)", hmp(HmpParams::aggressive())),
        ("2x history weight", hmp(HmpParams::double_history())),
        ("1/2 history weight", hmp(HmpParams::half_history())),
    ]
}

/// Results of the parameter sweep: per variant, per app.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParamSweep {
    /// Baseline results per app.
    pub baseline: Vec<(String, PerfMetric, RunResult)>,
    /// Variant name → per-app results (same app order as baseline).
    pub variants: Vec<(String, Vec<RunResult>)>,
}

/// Aggregate (avg, min, max) helper.
fn agg(values: &[f64]) -> (f64, f64, f64) {
    let avg = values.iter().sum::<f64>() / values.len().max(1) as f64;
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    (avg, min, max)
}

impl ParamSweep {
    /// Power savings of variant `v` across apps, percent (positive =
    /// saving).
    pub fn power_savings(&self, v: usize) -> Vec<f64> {
        self.variants[v]
            .1
            .iter()
            .zip(&self.baseline)
            .map(|(r, (_, _, b))| (1.0 - r.avg_power_mw / b.avg_power_mw) * 100.0)
            .collect()
    }

    /// Latency changes of variant `v` over the latency apps, percent
    /// (positive = slower).
    pub fn latency_changes(&self, v: usize) -> Vec<(String, f64)> {
        self.variants[v]
            .1
            .iter()
            .zip(&self.baseline)
            .filter(|(_, (_, m, _))| *m == PerfMetric::Latency)
            .filter_map(|(r, (name, _, b))| {
                let (rb, bb) = (r.latency?, b.latency?);
                Some((
                    name.clone(),
                    (rb.as_secs_f64() / bb.as_secs_f64() - 1.0) * 100.0,
                ))
            })
            .collect()
    }

    /// Average-FPS changes of variant `v` over the FPS apps, percent
    /// (positive = faster).
    pub fn fps_changes(&self, v: usize) -> Vec<(String, f64)> {
        self.variants[v]
            .1
            .iter()
            .zip(&self.baseline)
            .filter(|(_, (_, m, _))| *m == PerfMetric::Fps)
            .filter_map(|(r, (name, _, b))| {
                let (rf, bf) = (r.fps?, b.fps?);
                Some((name.clone(), (rf.avg_fps / bf.avg_fps - 1.0) * 100.0))
            })
            .collect()
    }
}

/// Runs the full §VI.C parameter sweep over `apps` (pass
/// [`mobile_apps()`] for paper scale).
pub fn run_param_sweep(apps: Vec<AppModel>, seed: u64, opts: &SweepOptions) -> ParamSweep {
    let param_variants = paper_param_variants();
    let mut scenarios = Vec::with_capacity(apps.len() * (1 + param_variants.len()));
    for app in &apps {
        scenarios.push(Scenario::app(
            format!("param/baseline/{}", app.name),
            app.clone(),
            SystemConfig::baseline().with_seed(seed),
        ));
    }
    for (name, cfg) in &param_variants {
        for app in &apps {
            scenarios.push(Scenario::app(
                format!("param/{name}/{}", app.name),
                app.clone(),
                cfg.clone().with_seed(seed),
            ));
        }
    }
    let results = sweep::run_all(&scenarios, opts);
    let baseline: Vec<(String, PerfMetric, RunResult)> = apps
        .iter()
        .zip(&results)
        .map(|(app, r)| (app.name.to_string(), app.metric, r.clone()))
        .collect();
    let variants = param_variants
        .iter()
        .zip(results[apps.len()..].chunks_exact(apps.len()))
        .map(|((name, _), chunk)| (name.to_string(), chunk.to_vec()))
        .collect();
    ParamSweep { baseline, variants }
}

/// Figures 11–13 all share the sweep.
pub fn fig11_12_13_parameter_sweep(seed: u64, opts: &SweepOptions) -> ParamSweep {
    run_param_sweep(mobile_apps(), seed, opts)
}

/// Renders Figure 11 (power saving avg + min–max per variant).
pub fn render_fig11(s: &ParamSweep) -> String {
    let mut t = TextTable::new(vec![
        "Configuration".into(),
        "Avg saving %".into(),
        "Min %".into(),
        "Max %".into(),
    ])
    .with_title("Figure 11: power saving vs baseline, 8 governor/HMP variants (all apps)");
    for (v, (name, _)) in s.variants.iter().enumerate() {
        let (avg, min, max) = agg(&s.power_savings(v));
        t.row(vec![name.clone(), fnum(avg, 2), fnum(min, 2), fnum(max, 2)]);
    }
    t.render()
}

/// Renders Figure 12 (latency change avg + min–max per variant).
pub fn render_fig12(s: &ParamSweep) -> String {
    let mut t = TextTable::new(vec![
        "Configuration".into(),
        "Avg latency +%".into(),
        "Min %".into(),
        "Max %".into(),
    ])
    .with_title("Figure 12: latency change vs baseline (latency apps; positive = slower)");
    for (v, (name, _)) in s.variants.iter().enumerate() {
        let vals: Vec<f64> = s.latency_changes(v).into_iter().map(|(_, x)| x).collect();
        let (avg, min, max) = agg(&vals);
        t.row(vec![name.clone(), fnum(avg, 2), fnum(min, 2), fnum(max, 2)]);
    }
    t.render()
}

/// Renders Figure 13 (average-FPS change avg + min–max per variant).
pub fn render_fig13(s: &ParamSweep) -> String {
    let mut t = TextTable::new(vec![
        "Configuration".into(),
        "Avg FPS +%".into(),
        "Min %".into(),
        "Max %".into(),
    ])
    .with_title("Figure 13: average FPS change vs baseline (FPS apps)");
    for (v, (name, _)) in s.variants.iter().enumerate() {
        let vals: Vec<f64> = s.fps_changes(v).into_iter().map(|(_, x)| x).collect();
        let (avg, min, max) = agg(&vals);
        t.row(vec![name.clone(), fnum(avg, 2), fnum(min, 2), fnum(max, 2)]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_variants_in_paper_order() {
        let v = paper_param_variants();
        assert_eq!(v.len(), 8);
        assert!(v[0].0.contains("60ms"));
        assert!(v[4].0.contains("conservative"));
        assert!(v[7].0.contains("1/2 history"));
    }

    #[test]
    fn aggregate_helper() {
        let (avg, min, max) = agg(&[1.0, 2.0, 3.0]);
        assert_eq!((avg, min, max), (2.0, 1.0, 3.0));
    }
}
