//! Minimal dependency-free SVG line charts, used by the `plot` command to
//! turn the regenerated figure series into actual figure images
//! (`results/fig*.svg`) comparable to the paper's plots.

/// One polyline of a chart.
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, y)` samples, in x order.
    pub points: Vec<(f64, f64)>,
    /// Stroke color (any SVG color string).
    pub color: String,
    /// Dashed stroke (used for analytic reference curves).
    pub dashed: bool,
}

/// A simple 2-D line chart.
pub struct Chart {
    /// Title above the plot area.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The plotted series.
    pub series: Vec<Series>,
}

const W: f64 = 640.0;
const H: f64 = 440.0;
const ML: f64 = 62.0; // left margin
const MR: f64 = 18.0;
const MT: f64 = 42.0;
const MB: f64 = 52.0;

/// "Nice" tick step covering `span` with roughly `target` intervals.
fn nice_step(span: f64, target: usize) -> f64 {
    assert!(span > 0.0 && target > 0);
    let raw = span / target as f64;
    let mag = 10f64.powf(raw.log10().floor());
    let norm = raw / mag;
    let nice = if norm <= 1.0 {
        1.0
    } else if norm <= 2.0 {
        2.0
    } else if norm <= 5.0 {
        5.0
    } else {
        10.0
    };
    nice * mag
}

/// Tick positions from `lo` to `hi` using a nice step.
fn ticks(lo: f64, hi: f64, target: usize) -> Vec<f64> {
    let step = nice_step(hi - lo, target);
    let first = (lo / step).ceil() * step;
    let mut out = Vec::new();
    let mut t = first;
    while t <= hi + step * 1e-9 {
        out.push(t);
        t += step;
    }
    out
}

fn fmt_tick(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100.0 || v.fract().abs() < 1e-9 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

impl Chart {
    /// Renders the chart to an SVG document.
    pub fn render(&self) -> String {
        let pts: Vec<(f64, f64)> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().copied())
            .filter(|(x, y)| x.is_finite() && y.is_finite())
            .collect();
        assert!(!pts.is_empty(), "chart has no finite points");
        let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut y1,) = (f64::NEG_INFINITY,);
        for &(x, y) in &pts {
            x0 = x0.min(x);
            x1 = x1.max(x);
            y1 = y1.max(y);
        }
        let y0 = 0.0; // delay axes start at zero, like the paper's
        if x1 == x0 {
            x1 = x0 + 1.0;
        }
        let y1 = if y1 <= y0 { y0 + 1.0 } else { y1 * 1.05 };

        let sx = |x: f64| ML + (x - x0) / (x1 - x0) * (W - ML - MR);
        let sy = |y: f64| H - MB - (y - y0) / (y1 - y0) * (H - MT - MB);

        let mut svg = String::new();
        svg.push_str(&format!(
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" viewBox="0 0 {W} {H}">"#
        ));
        svg.push_str(r#"<rect width="100%" height="100%" fill="white"/>"#);
        svg.push_str(&format!(
            r#"<text x="{:.1}" y="24" font-family="sans-serif" font-size="16" text-anchor="middle">{}</text>"#,
            W / 2.0,
            xml_escape(&self.title)
        ));

        // Gridlines + ticks.
        for t in ticks(y0, y1, 6) {
            let y = sy(t);
            svg.push_str(&format!(
                r##"<line x1="{ML}" y1="{y:.1}" x2="{:.1}" y2="{y:.1}" stroke="#ddd"/>"##,
                W - MR
            ));
            svg.push_str(&format!(
                r#"<text x="{:.1}" y="{:.1}" font-family="sans-serif" font-size="11" text-anchor="end">{}</text>"#,
                ML - 6.0,
                y + 4.0,
                fmt_tick(t)
            ));
        }
        for t in ticks(x0, x1, 8) {
            let x = sx(t);
            svg.push_str(&format!(
                r##"<line x1="{x:.1}" y1="{MT}" x2="{x:.1}" y2="{:.1}" stroke="#eee"/>"##,
                H - MB
            ));
            svg.push_str(&format!(
                r#"<text x="{x:.1}" y="{:.1}" font-family="sans-serif" font-size="11" text-anchor="middle">{}</text>"#,
                H - MB + 16.0,
                fmt_tick(t)
            ));
        }
        // Axes.
        svg.push_str(&format!(
            r#"<line x1="{ML}" y1="{MT}" x2="{ML}" y2="{:.1}" stroke="black"/>"#,
            H - MB
        ));
        svg.push_str(&format!(
            r#"<line x1="{ML}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="black"/>"#,
            H - MB,
            W - MR,
            H - MB
        ));
        svg.push_str(&format!(
            r#"<text x="{:.1}" y="{:.1}" font-family="sans-serif" font-size="13" text-anchor="middle">{}</text>"#,
            (ML + W - MR) / 2.0,
            H - 12.0,
            xml_escape(&self.x_label)
        ));
        svg.push_str(&format!(
            r#"<text x="16" y="{:.1}" font-family="sans-serif" font-size="13" text-anchor="middle" transform="rotate(-90 16 {:.1})">{}</text>"#,
            (MT + H - MB) / 2.0,
            (MT + H - MB) / 2.0,
            xml_escape(&self.y_label)
        ));

        // Series.
        for s in &self.series {
            let path: Vec<String> = s
                .points
                .iter()
                .filter(|(x, y)| x.is_finite() && y.is_finite())
                .map(|&(x, y)| format!("{:.1},{:.1}", sx(x), sy(y)))
                .collect();
            let dash = if s.dashed {
                r#" stroke-dasharray="6,4""#
            } else {
                ""
            };
            svg.push_str(&format!(
                r#"<polyline points="{}" fill="none" stroke="{}" stroke-width="2"{dash}/>"#,
                path.join(" "),
                s.color
            ));
            if !s.dashed {
                for &(x, y) in s
                    .points
                    .iter()
                    .filter(|(x, y)| x.is_finite() && y.is_finite())
                {
                    svg.push_str(&format!(
                        r#"<circle cx="{:.1}" cy="{:.1}" r="3" fill="{}"/>"#,
                        sx(x),
                        sy(y),
                        s.color
                    ));
                }
            }
        }

        // Legend (top-left inside the plot area).
        for (i, s) in self.series.iter().enumerate() {
            let ly = MT + 14.0 + i as f64 * 16.0;
            svg.push_str(&format!(
                r#"<line x1="{:.1}" y1="{ly:.1}" x2="{:.1}" y2="{ly:.1}" stroke="{}" stroke-width="2"{}/>"#,
                ML + 10.0,
                ML + 34.0,
                s.color,
                if s.dashed { r#" stroke-dasharray="6,4""# } else { "" }
            ));
            svg.push_str(&format!(
                r#"<text x="{:.1}" y="{:.1}" font-family="sans-serif" font-size="12">{}</text>"#,
                ML + 40.0,
                ly + 4.0,
                xml_escape(&s.label)
            ));
        }
        svg.push_str("</svg>");
        svg
    }
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Renders `chart` to `<out>/<name>.svg`; exits loudly if the write fails.
pub fn write_svg(ctx: &crate::Ctx, name: &str, chart: &Chart) {
    let path = ctx.out.join(format!("{name}.svg"));
    if let Err(e) = std::fs::write(&path, chart.render()) {
        crate::fatal(&format!("writing {}", path.display()), &e);
    }
    println!("plotted {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chart() -> Chart {
        Chart {
            title: "t".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![Series {
                label: "a<b".into(),
                points: vec![(0.0, 1.0), (0.5, 2.0), (1.0, 8.0)],
                color: "#d62728".into(),
                dashed: false,
            }],
        }
    }

    #[test]
    fn renders_wellformed_svg() {
        let svg = chart().render();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert!(svg.contains("polyline"));
        assert_eq!(svg.matches("<circle").count(), 3);
        // Labels are escaped.
        assert!(svg.contains("a&lt;b"));
    }

    #[test]
    fn nice_steps_are_nice() {
        assert_eq!(nice_step(10.0, 5), 2.0);
        assert_eq!(nice_step(1.0, 5), 0.2);
        assert_eq!(nice_step(7.3, 5), 2.0);
        assert_eq!(nice_step(100.0, 4), 50.0); // 25 is not on the 1/2/5 ladder
    }

    #[test]
    fn ticks_cover_range() {
        let t = ticks(0.0, 1.0, 5);
        assert_eq!(t.first().copied(), Some(0.0));
        assert!((t.last().unwrap() - 1.0).abs() < 1e-9);
        assert!(t.len() >= 4 && t.len() <= 8);
    }

    #[test]
    fn dashed_series_have_no_markers() {
        let mut c = chart();
        c.series[0].dashed = true;
        let svg = c.render();
        assert_eq!(svg.matches("<circle").count(), 0);
        assert!(svg.contains("stroke-dasharray"));
    }

    #[test]
    #[should_panic(expected = "no finite points")]
    fn rejects_empty_chart() {
        Chart {
            title: String::new(),
            x_label: String::new(),
            y_label: String::new(),
            series: vec![],
        }
        .render();
    }
}
