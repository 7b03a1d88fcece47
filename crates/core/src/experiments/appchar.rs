//! Application characterization experiments (paper §V, Figures 4–5,
//! Tables III–IV).

use crate::result::RunResult;
use crate::scenario::Scenario;
use crate::sweep::{self, SweepOptions};
use crate::SystemConfig;
use bl_kernel::task::Affinity;
use bl_metrics::report::{fnum, pct, TextTable};
use bl_platform::config::CoreConfig;
use bl_platform::ids::CoreKind;
use bl_workloads::apps::{fps_apps, latency_apps, mobile_apps, AppModel};
use serde::{Deserialize, Serialize};

/// Runs every app on the default system (L4+B4, HMP, interactive) —
/// the shared input of Tables III–V and Figures 9–10.
pub fn default_runs(seed: u64, opts: &SweepOptions) -> Vec<(AppModel, RunResult)> {
    let apps = mobile_apps();
    let scenarios: Vec<Scenario> = apps
        .iter()
        .map(|app| {
            Scenario::app(
                format!("default/{}", app.name),
                app.clone(),
                SystemConfig::baseline().with_seed(seed),
            )
        })
        .collect();
    apps.into_iter()
        .zip(sweep::run_all(&scenarios, opts))
        .collect()
}

/// The paper's published Table III rows: (app, idle %, big %, TLP).
/// Used by [`render_table3_comparison`] to score the reproduction.
pub const PAPER_TABLE3: [(&str, f64, f64, f64); 12] = [
    ("PDF Reader", 16.14, 13.05, 2.06),
    ("Video Editor", 19.44, 10.44, 2.25),
    ("Photo Editor", 9.06, 7.50, 1.40),
    ("BBench", 0.10, 47.83, 3.95),
    ("Virus Scanner", 2.93, 22.74, 2.44),
    ("Browser", 52.94, 5.41, 1.86),
    ("Encoder", 0.55, 62.19, 1.78),
    ("Angry Bird", 4.41, 0.11, 2.34),
    ("Eternity Warriors 2", 3.65, 27.35, 2.85),
    ("FIFA 15", 9.27, 14.37, 2.37),
    ("Video Player", 14.22, 0.61, 2.29),
    ("Youtube", 12.72, 0.07, 2.29),
];

/// Renders Table III with the paper's values side by side, including the
/// rank correlation of the TLP and big-usage orderings — the quantitative
/// summary of how well the app models reproduce the characterization.
pub fn render_table3_comparison(runs: &[(AppModel, RunResult)]) -> String {
    let mut t = TextTable::new(vec![
        "App Name".into(),
        "Idle p/m".into(),
        "Big p/m".into(),
        "TLP p/m".into(),
    ])
    .with_title("Table III comparison: paper / measured");
    let mut paper_tlp = Vec::new();
    let mut meas_tlp = Vec::new();
    let mut paper_big = Vec::new();
    let mut meas_big = Vec::new();
    for (app, r) in runs {
        let Some((_, p_idle, p_big, p_tlp)) =
            PAPER_TABLE3.iter().find(|(n, _, _, _)| *n == app.name)
        else {
            continue;
        };
        paper_tlp.push(*p_tlp);
        meas_tlp.push(r.tlp.tlp);
        paper_big.push(*p_big);
        meas_big.push(r.tlp.big_pct);
        t.row(vec![
            app.name.to_string(),
            format!("{:.1}/{:.1}", p_idle, r.tlp.idle_pct),
            format!("{:.1}/{:.1}", p_big, r.tlp.big_pct),
            format!("{:.2}/{:.2}", p_tlp, r.tlp.tlp),
        ]);
    }
    let mut out = t.render();
    out.push_str(&format!(
        "
Spearman rank correlation: TLP {:.2}, big-usage {:.2}
",
        spearman(&paper_tlp, &meas_tlp),
        spearman(&paper_big, &meas_big),
    ));
    out
}

/// Spearman rank correlation between two equal-length samples.
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let rank = |xs: &[f64]| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..xs.len()).collect();
        idx.sort_by(|i, j| xs[*i].total_cmp(&xs[*j]));
        let mut ranks = vec![0.0; xs.len()];
        for (r, i) in idx.into_iter().enumerate() {
            ranks[i] = r as f64;
        }
        ranks
    };
    let (ra, rb) = (rank(a), rank(b));
    let d2: f64 = ra.iter().zip(&rb).map(|(x, y)| (x - y).powi(2)).sum();
    1.0 - 6.0 * d2 / (n as f64 * (n as f64 * n as f64 - 1.0))
}

/// Renders Table III from default runs.
pub fn render_table3(runs: &[(AppModel, RunResult)]) -> String {
    let mut t = TextTable::new(vec![
        "App Name".into(),
        "Idle".into(),
        "Little".into(),
        "Big".into(),
        "TLP".into(),
    ])
    .with_title("Table III: thread-level parallelism with 8 cores");
    for (app, r) in runs {
        t.row(vec![
            app.name.to_string(),
            pct(r.tlp.idle_pct),
            pct(r.tlp.little_pct),
            pct(r.tlp.big_pct),
            fnum(r.tlp.tlp, 2),
        ]);
    }
    t.render()
}

/// Renders one Table IV matrix.
pub fn render_table4_matrix(app: &str, r: &RunResult) -> String {
    let mut headers = vec![format!("{app} (big\\little)")];
    headers.extend((0..r.matrix_pct[0].len()).map(|l| format!("C{l}")));
    let mut t = TextTable::new(headers);
    for (b, row) in r.matrix_pct.iter().enumerate() {
        let mut cells = vec![format!("C{b}")];
        cells.extend(row.iter().map(|v| pct(*v)));
        t.row(cells);
    }
    t.render()
}

/// Renders every Table IV matrix.
pub fn render_table4(runs: &[(AppModel, RunResult)]) -> String {
    let mut out = String::from("Table IV: TLP distributions by core type (% of samples)\n\n");
    for (app, r) in runs {
        out.push_str(&render_table4_matrix(&app.name, r));
        out.push('\n');
    }
    out
}

/// One app's big-vs-little comparison (Figures 4 and 5).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BigVsLittleRow {
    /// App name.
    pub name: String,
    /// Run restricted to the four little cores.
    pub little: RunResult,
    /// Run restricted to the four big cores.
    pub big: RunResult,
}

impl BigVsLittleRow {
    /// Power increase of big over little, percent.
    pub fn power_increase_pct(&self) -> f64 {
        (self.big.avg_power_mw / self.little.avg_power_mw - 1.0) * 100.0
    }

    /// Latency reduction of big over little, percent (latency apps).
    pub fn latency_reduction_pct(&self) -> Option<f64> {
        let (l, b) = (self.little.latency?, self.big.latency?);
        Some((1.0 - b.as_secs_f64() / l.as_secs_f64()) * 100.0)
    }

    /// Average-FPS improvement of big over little, percent (FPS apps).
    pub fn avg_fps_improvement_pct(&self) -> Option<f64> {
        let (l, b) = (self.little.fps?, self.big.fps?);
        Some((b.avg_fps / l.avg_fps - 1.0) * 100.0)
    }

    /// Minimum-FPS improvement of big over little, percent (FPS apps).
    pub fn min_fps_improvement_pct(&self) -> Option<f64> {
        let (l, b) = (self.little.fps?, self.big.fps?);
        if l.min_fps <= 0.0 {
            return None;
        }
        Some((b.min_fps / l.min_fps - 1.0) * 100.0)
    }
}

fn big_vs_little(apps: Vec<AppModel>, seed: u64, opts: &SweepOptions) -> Vec<BigVsLittleRow> {
    let mut scenarios = Vec::with_capacity(apps.len() * 2);
    for app in &apps {
        let little_cfg = SystemConfig::baseline()
            .with_core_config(CoreConfig::new(4, 0))
            .with_seed(seed);
        scenarios.push(Scenario::app_with_affinity(
            format!("little/{}", app.name),
            app.clone(),
            Affinity::Kind(CoreKind::Little),
            little_cfg,
        ));
        // "4 big cores": one little core must stay online (hardware
        // rule) but the app is pinned to the big side; the idle little
        // core contributes only leakage.
        let big_cfg = SystemConfig::baseline()
            .with_core_config(CoreConfig::new(1, 4))
            .with_seed(seed);
        scenarios.push(Scenario::app_with_affinity(
            format!("big/{}", app.name),
            app.clone(),
            Affinity::Kind(CoreKind::Big),
            big_cfg,
        ));
    }
    let results = sweep::run_all(&scenarios, opts);
    apps.iter()
        .zip(results.chunks_exact(2))
        .map(|(app, pair)| BigVsLittleRow {
            name: app.name.to_string(),
            little: pair[0].clone(),
            big: pair[1].clone(),
        })
        .collect()
}

/// Figure 4: power and latency for 4 big cores vs 4 little cores
/// (latency-oriented applications).
pub fn fig4_latency_big_vs_little(seed: u64, opts: &SweepOptions) -> Vec<BigVsLittleRow> {
    big_vs_little(latency_apps(), seed, opts)
}

/// Figure 5: power and FPS for 4 big cores vs 4 little cores
/// (FPS-oriented applications).
pub fn fig5_fps_big_vs_little(seed: u64, opts: &SweepOptions) -> Vec<BigVsLittleRow> {
    big_vs_little(fps_apps(), seed, opts)
}

/// Renders the Figure 4 table.
pub fn render_fig4(rows: &[BigVsLittleRow]) -> String {
    let mut t = TextTable::new(vec!["App".into(), "Power +%".into(), "Latency -%".into()])
        .with_title("Figure 4: 4 big cores vs 4 little cores (latency apps)");
    for r in rows {
        t.row(vec![
            r.name.clone(),
            fnum(r.power_increase_pct(), 1),
            fnum(r.latency_reduction_pct().unwrap_or(f64::NAN), 1),
        ]);
    }
    t.render()
}

/// Renders the Figure 5 table.
pub fn render_fig5(rows: &[BigVsLittleRow]) -> String {
    let mut t = TextTable::new(vec![
        "App".into(),
        "Power +%".into(),
        "Avg FPS +%".into(),
        "Min FPS +%".into(),
    ])
    .with_title("Figure 5: 4 big cores vs 4 little cores (FPS apps)");
    for r in rows {
        t.row(vec![
            r.name.clone(),
            fnum(r.power_increase_pct(), 1),
            fnum(r.avg_fps_improvement_pct().unwrap_or(f64::NAN), 1),
            fnum(r.min_fps_improvement_pct().unwrap_or(f64::NAN), 1),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table3_covers_all_twelve_apps() {
        let apps = mobile_apps();
        for app in &apps {
            assert!(
                PAPER_TABLE3.iter().any(|(n, _, _, _)| *n == app.name),
                "missing paper row for {}",
                app.name
            );
        }
        assert_eq!(PAPER_TABLE3.len(), apps.len());
    }

    #[test]
    fn spearman_basics() {
        assert!((spearman(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]) - 1.0).abs() < 1e-12);
        assert!((spearman(&[1.0, 2.0, 3.0], &[30.0, 20.0, 10.0]) + 1.0).abs() < 1e-12);
        assert_eq!(spearman(&[1.0], &[2.0]), 1.0);
    }

    #[test]
    fn reproduction_rank_correlations_are_high() {
        // The headline calibration requirement: the ordering of apps by TLP
        // and by big-core usage must track the paper. Pinned to the values
        // the model measures at seed 42 (125/143 and 134/143 over the 12
        // apps), within ±0.03: a few swapped neighbours, not a reordering.
        let runs = default_runs(42, &SweepOptions::default());
        let mut paper = Vec::new();
        let mut meas = Vec::new();
        let mut paper_big = Vec::new();
        let mut meas_big = Vec::new();
        for (app, r) in &runs {
            let (_, _, p_big, p_tlp) = PAPER_TABLE3
                .iter()
                .find(|(n, _, _, _)| *n == app.name)
                .unwrap();
            paper.push(*p_tlp);
            meas.push(r.tlp.tlp);
            paper_big.push(*p_big);
            meas_big.push(r.tlp.big_pct);
        }
        let rho_tlp = spearman(&paper, &meas);
        let rho_big = spearman(&paper_big, &meas_big);
        assert!(
            (rho_tlp - 0.874).abs() <= 0.03,
            "TLP rank correlation moved: {rho_tlp:.3}"
        );
        assert!(
            (rho_big - 0.937).abs() <= 0.03,
            "big-usage rank correlation moved: {rho_big:.3}"
        );
    }
}
