//! `bench-diff` — the perf-regression gate over `BENCH_*.json` profiles.
//!
//! ```text
//! bench-diff BENCH_obs.json BENCH_new.json                 # default 1.5x
//! bench-diff BENCH_obs.json BENCH_new.json --tolerance 3.0 # cross-machine
//! bench-diff BENCH_obs.json BENCH_new.json --min-ms 0.1
//! ```
//!
//! Compares the candidate profile's per-phase mean wall-clock times against
//! the baseline and exits `1` when any phase regressed beyond the
//! tolerance, `2` on usage/parse errors, `0` otherwise — so CI can gate on
//! it directly (`scripts/check.sh` does).
//!
//! Deterministic `extras` are held to `--extra-tolerance` (default 1e-3,
//! relative). The wall-clock extras (`WALL_CLOCK_EXTRAS`: speedup ratios
//! and the concurrent batch mean) fail only when they fall by more than
//! half of the baseline.

use std::path::PathBuf;

use memaging_bench::profile::{compare, BenchProfile, DiffConfig};

struct Args {
    baseline: PathBuf,
    candidate: PathBuf,
    config: DiffConfig,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut it = args.iter();
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut config = DiffConfig::default();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tolerance" | "--min-ms" | "--extra-tolerance" => {
                let value = it.next().ok_or_else(|| format!("flag {arg} needs a value"))?;
                let parsed: f64 =
                    value.parse().map_err(|_| format!("bad value for {arg}: `{value}`"))?;
                if !parsed.is_finite() || parsed <= 0.0 {
                    return Err(format!("{arg} must be a positive number, got `{value}`"));
                }
                match arg.as_str() {
                    "--tolerance" => config.tolerance = parsed,
                    "--min-ms" => config.min_ms = parsed,
                    _ => config.extra_rel_tolerance = parsed,
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            path => paths.push(PathBuf::from(path)),
        }
    }
    if paths.len() != 2 {
        return Err(format!(
            "expected exactly two profiles (baseline candidate), got {}",
            paths.len()
        ));
    }
    let candidate = paths.pop().expect("checked length");
    let baseline = paths.pop().expect("checked length");
    Ok(Args { baseline, candidate, config })
}

/// The whole gate; returns the process exit code.
fn run(args: &[String]) -> i32 {
    let args = match parse_args(args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench-diff: {e}");
            eprintln!(
                "usage: bench-diff <baseline.json> <candidate.json> \
                 [--tolerance R] [--min-ms M] [--extra-tolerance R]"
            );
            return 2;
        }
    };
    let (baseline, candidate) =
        match (BenchProfile::load(&args.baseline), BenchProfile::load(&args.candidate)) {
            (Ok(b), Ok(c)) => (b, c),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("bench-diff: {e}");
                return 2;
            }
        };
    println!(
        "bench-diff: `{}` vs `{}` (tolerance {:.2}x, floor {:.3} ms)",
        baseline.benchmark, candidate.benchmark, args.config.tolerance, args.config.min_ms
    );
    for base in &baseline.phases {
        match candidate.phase(&base.phase) {
            Some(cand) => println!(
                "  {:<10} mean {:>9.3} ms -> {:>9.3} ms  ({:.2}x)",
                base.phase,
                base.mean_ms,
                cand.mean_ms,
                cand.mean_ms / base.mean_ms.max(args.config.min_ms),
            ),
            None => println!("  {:<10} mean {:>9.3} ms -> (phase gone)", base.phase, base.mean_ms),
        }
    }
    for (key, base_value) in &baseline.extras {
        match candidate.extra(key) {
            Some(cand_value) => println!("  extra {key}: {base_value:e} -> {cand_value:e}"),
            None => println!("  extra {key}: {base_value:e} -> (gone)"),
        }
    }
    let regressions = compare(&baseline, &candidate, &args.config);
    if regressions.is_empty() {
        println!("bench-diff: no regressions");
        0
    } else {
        for r in &regressions {
            eprintln!("bench-diff: REGRESSION {r}");
        }
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run(&args));
}

#[cfg(test)]
mod tests {
    use super::*;
    use memaging_bench::{phase_profile_json, PhaseProfile};

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    fn write_profile(name: &str, pairs: &[(&str, u64, u64)]) -> PathBuf {
        let dir = std::env::temp_dir().join("memaging_bench_diff_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let phases: Vec<PhaseProfile> = pairs
            .iter()
            .map(|&(phase, count, total_us)| PhaseProfile {
                name: phase.into(),
                count,
                total_us,
                max_us: total_us,
            })
            .collect();
        let path = dir.join(name);
        std::fs::write(&path, phase_profile_json("diff test", &phases)).expect("write profile");
        path
    }

    #[test]
    fn parses_flags_and_rejects_bad_usage() {
        let args =
            parse_args(&argv(&["a.json", "b.json", "--tolerance", "3.0", "--min-ms", "0.1"]))
                .unwrap();
        assert_eq!(args.baseline, PathBuf::from("a.json"));
        assert_eq!(args.candidate, PathBuf::from("b.json"));
        assert_eq!(args.config.tolerance, 3.0);
        assert_eq!(args.config.min_ms, 0.1);
        assert!(parse_args(&argv(&["only-one.json"])).is_err());
        assert!(parse_args(&argv(&["a", "b", "c"])).is_err());
        assert!(parse_args(&argv(&["a", "b", "--tolerance"])).is_err());
        assert!(parse_args(&argv(&["a", "b", "--tolerance", "-1"])).is_err());
        assert!(parse_args(&argv(&["a", "b", "--frobnicate", "1"])).is_err());
    }

    #[test]
    fn self_compare_exits_zero() {
        let p = write_profile("self.json", &[("train", 3, 18_000), ("tune", 60, 150_000)]);
        let p = p.to_string_lossy().to_string();
        assert_eq!(run(&argv(&[&p, &p])), 0);
    }

    #[test]
    fn injected_2x_regression_exits_nonzero() {
        let base = write_profile("base.json", &[("train", 3, 18_000), ("tune", 60, 150_000)]);
        let slow = write_profile("slow.json", &[("train", 3, 18_000), ("tune", 60, 300_000)]);
        let (base, slow) = (base.to_string_lossy().to_string(), slow.to_string_lossy().to_string());
        assert_eq!(run(&argv(&[&base, &slow])), 1, "2x tune slowdown must fail the gate");
        // The same pair passes with a cross-machine tolerance.
        assert_eq!(run(&argv(&[&base, &slow, "--tolerance", "3.0"])), 0);
    }

    #[test]
    fn drifted_extra_exits_nonzero() {
        use memaging_bench::phase_profile_json_with;
        let dir = std::env::temp_dir().join("memaging_bench_diff_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let phases =
            [PhaseProfile { name: "train".into(), count: 1, total_us: 10_000, max_us: 10_000 }];
        let base = dir.join("extras_base.json");
        std::fs::write(&base, phase_profile_json_with("t", &phases, &[("wear", 1.0e-3)]))
            .expect("write");
        let drift = dir.join("extras_drift.json");
        std::fs::write(&drift, phase_profile_json_with("t", &phases, &[("wear", 1.1e-3)]))
            .expect("write");
        let (base, drift) =
            (base.to_string_lossy().to_string(), drift.to_string_lossy().to_string());
        assert_eq!(run(&argv(&[&base, &base])), 0);
        assert_eq!(run(&argv(&[&base, &drift])), 1, "10% extras drift must fail the gate");
        // ... unless the caller loosens the extras tolerance explicitly.
        assert_eq!(run(&argv(&[&base, &drift, "--extra-tolerance", "0.2"])), 0);
    }

    #[test]
    fn missing_or_malformed_files_exit_two() {
        assert_eq!(run(&argv(&["/nonexistent/a.json", "/nonexistent/b.json"])), 2);
        let dir = std::env::temp_dir().join("memaging_bench_diff_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{ not json").expect("write");
        let good = write_profile("good.json", &[("train", 1, 1_000)]);
        let (bad, good) = (bad.to_string_lossy().to_string(), good.to_string_lossy().to_string());
        assert_eq!(run(&argv(&[&good, &bad])), 2);
        assert_eq!(run(&argv(&["nope"])), 2);
    }
}
