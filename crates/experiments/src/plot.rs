//! The `plot` command: turns previously generated CSV series into SVG
//! figures (`results/*.svg`), visually comparable to the paper's plots.

use crate::svg::{write_svg, Chart, Series};
use crate::Ctx;
use std::path::Path;

const MEASURED_A: &str = "#d62728"; // fcfs baseline
const MEASURED_B: &str = "#1f77b4"; // priority star
const MEASURED_C: &str = "#2ca02c"; // third scheme
const REF: &str = "#999999";

/// Parses one of our own CSV files into (header, rows).
fn read_csv(path: &Path) -> Option<(Vec<String>, Vec<Vec<String>>)> {
    let body = std::fs::read_to_string(path).ok()?;
    let mut lines = body.lines();
    let header: Vec<String> = lines.next()?.split(',').map(str::to_string).collect();
    let rows = lines
        .map(|l| l.split(',').map(str::to_string).collect())
        .collect();
    Some((header, rows))
}

fn col(header: &[String], name: &str) -> Option<usize> {
    header.iter().position(|h| h == name)
}

fn series_from(
    header: &[String],
    rows: &[Vec<String>],
    x: &str,
    y: &str,
    label: &str,
    color: &str,
    dashed: bool,
) -> Option<Series> {
    let xi = col(header, x)?;
    let yi = col(header, y)?;
    let points: Vec<(f64, f64)> = rows
        .iter()
        .filter_map(|r| {
            let x = r.get(xi)?.parse().ok()?;
            let y = r.get(yi)?.parse().ok()?;
            Some((x, y))
        })
        .collect();
    (!points.is_empty()).then(|| Series {
        label: label.to_string(),
        points,
        color: color.to_string(),
        dashed,
    })
}

fn plot_delay_figure(ctx: &Ctx, name: &str, metric: &str, network: &str) {
    let Some((header, rows)) = read_csv(&ctx.out.join(format!("{name}.csv"))) else {
        eprintln!("[plot] {name}.csv missing — run `experiments {name}` first");
        return;
    };
    let fcfs = format!("fcfs_{metric}");
    let pstar = format!("pstar_{metric}");
    let mut series = Vec::new();
    series.extend(series_from(
        &header,
        &rows,
        "rho",
        &fcfs,
        "FCFS direct [12]",
        MEASURED_A,
        false,
    ));
    series.extend(series_from(
        &header,
        &rows,
        "rho",
        &pstar,
        "priority STAR",
        MEASURED_B,
        false,
    ));
    series.extend(series_from(
        &header,
        &rows,
        "rho",
        "lower_bound",
        "oblivious lower bound",
        REF,
        true,
    ));
    series.extend(series_from(
        &header,
        &rows,
        "rho",
        "fcfs_predicted",
        "FCFS analytic",
        "#e8a0a0",
        true,
    ));
    series.extend(series_from(
        &header,
        &rows,
        "rho",
        "pstar_predicted",
        "pSTAR analytic",
        "#9ec9e8",
        true,
    ));
    let chart = Chart {
        title: format!("{name}: average {metric} delay, {network}"),
        x_label: "throughput factor ρ".into(),
        y_label: format!("average {metric} delay (slots)"),
        series,
    };
    write_svg(ctx, name, &chart);
}

fn plot_fig8(ctx: &Ctx) {
    let Some((header, rows)) = read_csv(&ctx.out.join("fig8.csv")) else {
        eprintln!("[plot] fig8.csv missing — run `experiments fig8` first");
        return;
    };
    let (Some(ti), Some(ri), Some(si), Some(ui)) = (
        col(&header, "topology"),
        col(&header, "rho"),
        col(&header, "scheme"),
        col(&header, "concurrent_unicasts"),
    ) else {
        eprintln!("[plot] fig8.csv has unexpected columns");
        return;
    };
    let mut topos: Vec<String> = rows.iter().map(|r| r[ti].clone()).collect();
    topos.sort();
    topos.dedup();
    for topo in topos {
        let mut series = Vec::new();
        for (scheme, color) in [("fcfs-direct", MEASURED_A), ("priority-star", MEASURED_B)] {
            let points: Vec<(f64, f64)> = rows
                .iter()
                .filter(|r| r[ti] == topo && r[si] == scheme)
                .filter_map(|r| Some((r[ri].parse().ok()?, r[ui].parse().ok()?)))
                .collect();
            if !points.is_empty() {
                series.push(Series {
                    label: scheme.to_string(),
                    points,
                    color: color.to_string(),
                    dashed: false,
                });
            }
        }
        if series.is_empty() {
            continue;
        }
        let slug = topo.replace(['(', ')'], "_");
        let chart = Chart {
            title: format!("fig8: concurrent unicast tasks, {topo}, 50/50 mix"),
            x_label: "throughput factor ρ".into(),
            y_label: "avg concurrent unicast tasks".into(),
            series,
        };
        write_svg(ctx, &format!("fig8_{slug}"), &chart);
    }
}

fn plot_table3(ctx: &Ctx) {
    let Some((header, rows)) = read_csv(&ctx.out.join("table3.csv")) else {
        eprintln!("[plot] table3.csv missing — run `experiments table3` first");
        return;
    };
    let Some(ti) = col(&header, "topology") else {
        return;
    };
    let mut topos: Vec<String> = rows.iter().map(|r| r[ti].clone()).collect();
    topos.sort();
    topos.dedup();
    for topo in topos {
        let sub: Vec<Vec<String>> = rows.iter().filter(|r| r[ti] == topo).cloned().collect();
        let mut series = Vec::new();
        series.extend(series_from(
            &header,
            &sub,
            "rho",
            "fcfs_unicast",
            "FCFS",
            MEASURED_A,
            false,
        ));
        series.extend(series_from(
            &header,
            &sub,
            "rho",
            "pstar_unicast",
            "priority STAR",
            MEASURED_B,
            false,
        ));
        series.extend(series_from(
            &header,
            &sub,
            "rho",
            "three_class_unicast",
            "three-class",
            MEASURED_C,
            false,
        ));
        series.extend(series_from(
            &header,
            &sub,
            "rho",
            "avg_distance",
            "avg distance (zero load)",
            REF,
            true,
        ));
        if series.is_empty() {
            continue;
        }
        let slug = topo.replace(['(', ')'], "_");
        let chart = Chart {
            title: format!("T3: unicast delay under 50/50 mix, {topo}"),
            x_label: "throughput factor ρ".into(),
            y_label: "average unicast delay (slots)".into(),
            series,
        };
        write_svg(ctx, &format!("table3_{slug}"), &chart);
    }
}

fn plot_saturation(ctx: &Ctx) {
    let Some((header, rows)) = read_csv(&ctx.out.join("saturation_trace.csv")) else {
        eprintln!("[plot] saturation_trace.csv missing — run `experiments saturation_trace` first");
        return;
    };
    let mut series = Vec::new();
    for (colname, label, color) in [
        ("queued_rho090", "ρ = 0.90 (stable)", MEASURED_B),
        ("queued_rho100", "ρ = 1.00 (critical)", MEASURED_C),
        ("queued_rho110", "ρ = 1.10 (overload)", MEASURED_A),
    ] {
        series.extend(series_from(
            &header, &rows, "slot", colname, label, color, false,
        ));
    }
    if series.is_empty() {
        return;
    }
    let chart = Chart {
        title: "queue population vs time around saturation (8x8)".into(),
        x_label: "slot".into(),
        y_label: "queued packets (network total)".into(),
        series,
    };
    write_svg(ctx, "saturation_trace", &chart);
}

fn plot_resilience(ctx: &Ctx) {
    let Some((header, rows)) = read_csv(&ctx.out.join("resilience.csv")) else {
        eprintln!("[plot] resilience.csv missing — run `experiments resilience` first");
        return;
    };
    let (Some(si), Some(ri)) = (col(&header, "scheme"), col(&header, "rho")) else {
        eprintln!("[plot] resilience.csv has unexpected columns");
        return;
    };
    let mut rhos: Vec<String> = rows.iter().map(|r| r[ri].clone()).collect();
    rhos.sort();
    rhos.dedup();
    let palette = [
        ("priority-star", MEASURED_B),
        ("three-class", MEASURED_C),
        ("fcfs-direct", MEASURED_A),
        ("fcfs-balanced", "#9467bd"),
        ("dim-ordered", "#ff7f0e"),
    ];
    for rho in rhos {
        let sub: Vec<Vec<String>> = rows.iter().filter(|r| r[ri] == rho).cloned().collect();
        let mut series = Vec::new();
        for (scheme, color) in palette {
            let mine: Vec<Vec<String>> = sub.iter().filter(|r| r[si] == scheme).cloned().collect();
            series.extend(series_from(
                &header,
                &mine,
                "fault_rate",
                "delivered_fraction",
                scheme,
                color,
                false,
            ));
        }
        if series.is_empty() {
            continue;
        }
        let slug = rho.replace('.', "");
        let chart = Chart {
            title: format!("resilience: delivered reception fraction, ρ = {rho}"),
            x_label: "fault rate (fraction of links down mid-run)".into(),
            y_label: "delivered reception fraction".into(),
            series,
        };
        write_svg(ctx, &format!("resilience_rho{slug}"), &chart);
    }
}

fn plot_recovery(ctx: &Ctx) {
    // Part A: delivered fraction vs fault rate per recovery arm
    // (priority STAR; the ARQ arms should pin to 1.0).
    if let Some((header, rows)) = read_csv(&ctx.out.join("recovery.csv")) {
        let (Some(si), Some(ri), Some(ai)) = (
            col(&header, "scheme"),
            col(&header, "rho"),
            col(&header, "arm"),
        ) else {
            eprintln!("[plot] recovery.csv has unexpected columns");
            return;
        };
        let mut rhos: Vec<String> = rows.iter().map(|r| r[ri].clone()).collect();
        rhos.sort();
        rhos.dedup();
        let arms = [
            ("no-arq", MEASURED_A),
            ("arq-drop-tail", MEASURED_B),
            ("arq-drop-lowest", MEASURED_C),
            ("arq-backpressure", "#9467bd"),
        ];
        for rho in rhos {
            let sub: Vec<Vec<String>> = rows
                .iter()
                .filter(|r| r[ri] == rho && r[si] == "priority-star")
                .cloned()
                .collect();
            let mut series = Vec::new();
            for (arm, color) in arms {
                let mine: Vec<Vec<String>> = sub.iter().filter(|r| r[ai] == arm).cloned().collect();
                series.extend(series_from(
                    &header,
                    &mine,
                    "fault_rate",
                    "delivered_fraction",
                    arm,
                    color,
                    arm == "no-arq",
                ));
            }
            if series.is_empty() {
                continue;
            }
            let slug = rho.replace('.', "");
            let chart = Chart {
                title: format!("recovery: ARQ delivered fraction, priority STAR, ρ = {rho}"),
                x_label: "fault rate (fraction of links down mid-run)".into(),
                y_label: "delivered reception fraction".into(),
                series,
            };
            write_svg(ctx, &format!("recovery_rho{slug}"), &chart);
        }
    } else {
        eprintln!("[plot] recovery.csv missing — run `experiments recovery` first");
    }

    // Part B: goodput vs offered load with and without admission control.
    let Some((header, rows)) = read_csv(&ctx.out.join("recovery_overload.csv")) else {
        eprintln!("[plot] recovery_overload.csv missing — run `experiments recovery` first");
        return;
    };
    let (Some(si), Some(ai)) = (col(&header, "scheme"), col(&header, "admission")) else {
        eprintln!("[plot] recovery_overload.csv has unexpected columns");
        return;
    };
    let mut series = Vec::new();
    for (adm, label, color) in [
        ("false", "open loop", MEASURED_A),
        ("true", "token-bucket admission", MEASURED_B),
    ] {
        let mine: Vec<Vec<String>> = rows
            .iter()
            .filter(|r| r[si] == "priority-star" && r[ai] == adm)
            .cloned()
            .collect();
        series.extend(series_from(
            &header,
            &mine,
            "rho",
            "goodput_fraction",
            label,
            color,
            adm == "false",
        ));
    }
    if series.is_empty() {
        return;
    }
    let chart = Chart {
        title: "recovery: goodput vs offered load, priority STAR".into(),
        x_label: "offered throughput factor ρ".into(),
        y_label: "goodput fraction".into(),
        series,
    };
    write_svg(ctx, "recovery_goodput", &chart);
}

/// Plots every figure whose CSV exists in the output directory.
pub fn plot_all(ctx: &Ctx) {
    plot_delay_figure(ctx, "fig2", "reception", "8x8 torus");
    plot_delay_figure(ctx, "fig3", "reception", "16x16 torus");
    plot_delay_figure(ctx, "fig4", "reception", "8x8x8 torus");
    plot_delay_figure(ctx, "fig5", "broadcast", "8x8 torus");
    plot_delay_figure(ctx, "fig6", "broadcast", "16x16 torus");
    plot_delay_figure(ctx, "fig7", "broadcast", "8x8x8 torus");
    plot_fig8(ctx);
    plot_table3(ctx);
    plot_saturation(ctx);
    plot_resilience(ctx);
    plot_recovery(ctx);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_roundtrip_parses() {
        let dir = std::env::temp_dir().join("pstar-plot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("x.csv");
        std::fs::write(&p, "a,b\n1,2\n3,4\n").unwrap();
        let (h, rows) = read_csv(&p).unwrap();
        assert_eq!(h, vec!["a", "b"]);
        assert_eq!(rows.len(), 2);
        assert_eq!(col(&h, "b"), Some(1));
        assert_eq!(col(&h, "z"), None);
    }

    #[test]
    fn series_extraction_skips_bad_cells() {
        let h: Vec<String> = vec!["x".into(), "y".into()];
        let rows = vec![
            vec!["0.1".to_string(), "5".to_string()],
            vec!["bad".to_string(), "6".to_string()],
            vec!["0.3".to_string(), "7".to_string()],
        ];
        let s = series_from(&h, &rows, "x", "y", "l", "red", false).unwrap();
        assert_eq!(s.points, vec![(0.1, 5.0), (0.3, 7.0)]);
    }

    #[test]
    fn missing_column_yields_none() {
        let h: Vec<String> = vec!["x".into()];
        assert!(series_from(&h, &[], "x", "nope", "l", "red", false).is_none());
    }
}
