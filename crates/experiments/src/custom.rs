//! The `custom` command: run an arbitrary scenario from the command line.
//!
//! ```text
//! experiments custom --dims 4,4,8 --scheme priority-star --rho 0.8 \
//!     --broadcast-fraction 0.5 --lengths geometric:3 --hotspot 27:8 \
//!     --replications 5
//! ```

use crate::csvout::Table;
use crate::Ctx;
use priority_star::prelude::*;
use pstar_traffic::SourceDistribution;

/// Parsed `custom` arguments.
#[derive(Debug)]
pub struct CustomArgs {
    dims: Vec<u32>,
    spec: ScenarioSpec,
    replications: usize,
}

/// Parses the argument list following `custom`.
///
/// Returns `Err(message)` on malformed or out-of-range input so `main`
/// can print usage: these values come from outside the program, and
/// every one the simulator would refuse with a panic, or turn into an
/// unbounded arrival rate, is refused here.
pub fn parse_args(args: &[String]) -> Result<CustomArgs, String> {
    let mut dims = vec![8, 8];
    let mut spec = ScenarioSpec::default();
    let mut replications = 1usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--dims" => {
                dims = value("--dims")?
                    .split(',')
                    .map(|p| p.parse::<u32>().map_err(|e| format!("bad dims: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--scheme" => {
                let v = value("--scheme")?;
                spec.scheme = SchemeKind::all()
                    .into_iter()
                    .find(|k| k.label() == v)
                    .ok_or_else(|| format!("unknown scheme `{v}`"))?;
            }
            "--rho" => {
                spec.rho = value("--rho")?
                    .parse()
                    .map_err(|e| format!("bad rho: {e}"))?;
            }
            "--broadcast-fraction" => {
                spec.broadcast_load_fraction = value("--broadcast-fraction")?
                    .parse()
                    .map_err(|e| format!("bad fraction: {e}"))?;
            }
            "--lengths" => {
                let v = value("--lengths")?;
                spec.lengths = parse_lengths(&v)?;
            }
            "--bernoulli" => spec.bernoulli = true,
            "--hotspot" => {
                let v = value("--hotspot")?;
                let (node, weight) = v.split_once(':').ok_or("hotspot format is NODE:WEIGHT")?;
                spec.sources = SourceDistribution::HotSpot {
                    node: node.parse().map_err(|e| format!("bad node: {e}"))?,
                    weight: weight.parse().map_err(|e| format!("bad weight: {e}"))?,
                };
            }
            "--replications" => {
                replications = value("--replications")?
                    .parse()
                    .map_err(|e| format!("bad replications: {e}"))?;
            }
            other => return Err(format!("unknown custom option `{other}`")),
        }
    }
    if dims.is_empty() || dims.iter().any(|&k| k < 2) {
        return Err(format!("every extent of --dims must be >= 2, got {dims:?}"));
    }
    let nodes: u64 = dims.iter().map(|&k| u64::from(k)).product();
    if nodes > u64::from(u32::MAX) {
        return Err(format!("--dims {dims:?} has more than 2^32 - 1 nodes"));
    }
    if let SourceDistribution::HotSpot { node, weight } = spec.sources {
        if u64::from(node) >= nodes {
            return Err(format!(
                "hot-spot node {node} is not below the node count {nodes}"
            ));
        }
        if !(weight >= 0.0 && weight.is_finite()) {
            return Err(format!(
                "hot-spot weight must be finite and >= 0, got {weight}"
            ));
        }
    }
    if !(spec.rho >= 0.0 && spec.rho.is_finite()) {
        return Err(format!("--rho must be finite and >= 0, got {}", spec.rho));
    }
    if !(0.0..=1.0).contains(&spec.broadcast_load_fraction) {
        return Err(format!(
            "--broadcast-fraction must lie in [0, 1], got {}",
            spec.broadcast_load_fraction
        ));
    }
    Ok(CustomArgs {
        dims,
        spec,
        replications,
    })
}

/// Parses a length law; every length it can draw is at least one slot.
fn parse_lengths(v: &str) -> Result<WorkloadSpec, String> {
    let law = if let Some(rest) = v.strip_prefix("fixed:") {
        WorkloadSpec::Fixed(rest.parse().map_err(|e| format!("bad length: {e}"))?)
    } else if let Some(rest) = v.strip_prefix("geometric:") {
        WorkloadSpec::Geometric(rest.parse().map_err(|e| format!("bad mean: {e}"))?)
    } else if let Some(rest) = v.strip_prefix("uniform:") {
        let (a, b) = rest.split_once(':').ok_or("uniform format is MIN:MAX")?;
        WorkloadSpec::Uniform(
            a.parse().map_err(|e| format!("bad min: {e}"))?,
            b.parse().map_err(|e| format!("bad max: {e}"))?,
        )
    } else {
        return Err(format!(
            "unknown length law `{v}` (fixed:L | geometric:M | uniform:A:B)"
        ));
    };
    let valid = match law {
        WorkloadSpec::Fixed(l) => l >= 1,
        WorkloadSpec::Geometric(mean) => mean >= 1.0 && mean.is_finite(),
        WorkloadSpec::Uniform(min, max) => 1 <= min && min <= max,
    };
    if valid {
        Ok(law)
    } else {
        Err(format!(
            "length law `{v}` must draw lengths >= 1 (fixed:L >= 1, geometric:M >= 1, \
             uniform:A:B with 1 <= A <= B)"
        ))
    }
}

/// Runs the custom scenario and prints a one-row (or replicated) table.
pub fn run(ctx: &Ctx, args: &[String]) {
    let parsed = match parse_args(args) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("custom: {msg}");
            std::process::exit(2);
        }
    };
    let topo = Torus::new(&parsed.dims);
    println!(
        "running {} on {topo} at rho={} (broadcast fraction {})",
        parsed.spec.scheme.label(),
        parsed.spec.rho,
        parsed.spec.broadcast_load_fraction
    );
    let mut table = Table::new(&[
        "run",
        "ok",
        "reception",
        "broadcast",
        "unicast",
        "mean_util",
        "max_util",
        "p99_reception",
    ]);
    for i in 0..parsed.replications.max(1) {
        let mut cfg = ctx.cfg;
        cfg.seed = ctx.seed("custom", i);
        let rep = run_scenario(&topo, &parsed.spec, cfg);
        table.row(vec![
            i.to_string(),
            rep.ok().to_string(),
            Table::f(rep.reception_delay.mean),
            Table::f(rep.broadcast_delay.mean),
            Table::f(rep.unicast_delay.mean),
            Table::f(rep.mean_link_utilization),
            Table::f(rep.max_link_utilization),
            rep.reception_quantiles.2.to_string(),
        ]);
    }
    table.emit(&ctx.out, "custom");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_full_argument_set() {
        let a = parse_args(&strs(&[
            "--dims",
            "4,4,8",
            "--scheme",
            "three-class",
            "--rho",
            "0.75",
            "--broadcast-fraction",
            "0.5",
            "--lengths",
            "geometric:3",
            "--hotspot",
            "27:8",
            "--replications",
            "4",
        ]))
        .unwrap();
        assert_eq!(a.dims, vec![4, 4, 8]);
        assert_eq!(a.spec.scheme, SchemeKind::ThreeClass);
        assert_eq!(a.spec.rho, 0.75);
        assert_eq!(a.spec.lengths, WorkloadSpec::Geometric(3.0));
        assert!(matches!(
            a.spec.sources,
            SourceDistribution::HotSpot { node: 27, .. }
        ));
        assert_eq!(a.replications, 4);
    }

    #[test]
    fn defaults_are_sane() {
        let a = parse_args(&[]).unwrap();
        assert_eq!(a.dims, vec![8, 8]);
        assert_eq!(a.spec.scheme, SchemeKind::PriorityStar);
        assert_eq!(a.replications, 1);
    }

    #[test]
    fn rejects_unknown_scheme_and_options() {
        assert!(parse_args(&strs(&["--scheme", "nope"])).is_err());
        assert!(parse_args(&strs(&["--frobnicate"])).is_err());
        assert!(parse_args(&strs(&["--rho"])).is_err());
        // Out-of-range values from the command line are refused, not run
        // into an assert or an unbounded arrival rate.
        for bad in [
            &["--hotspot", "99:8", "--dims", "4,4"][..],
            &["--hotspot", "3:-1"],
            &["--lengths", "fixed:0"],
            &["--lengths", "uniform:5:1"],
            &["--lengths", "uniform:0:3"],
            &["--lengths", "geometric:0"],
            &["--lengths", "geometric:inf"],
            &["--rho", "inf"],
            &["--rho", "-1"],
            &["--rho", "nan"],
            &["--broadcast-fraction", "2"],
            &["--broadcast-fraction", "nan"],
            &["--dims", "4,0"],
            &["--dims", "1"],
            &["--dims", "65536,65536"],
        ] {
            let err = parse_args(&strs(bad)).expect_err(&format!("{bad:?} must be refused"));
            assert!(!err.is_empty());
        }
        assert!(parse_args(&strs(&["--hotspot", "15:8", "--dims", "4,4"])).is_ok());
    }

    #[test]
    fn parses_length_laws() {
        assert_eq!(parse_lengths("fixed:3").unwrap(), WorkloadSpec::Fixed(3));
        assert_eq!(
            parse_lengths("uniform:1:5").unwrap(),
            WorkloadSpec::Uniform(1, 5)
        );
        assert!(parse_lengths("weird").is_err());
    }
}
