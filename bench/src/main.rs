//! The repository's benchmark. See `bench/README.md`.
//!
//! ```text
//! gs-scale-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! gs-scale-bench --all   [--seed <n>] [--seconds <s>]
//! gs-scale-bench --check [--seed <n>] [--seconds <s>]
//! gs-scale-bench --describe
//! ```
//!
//! The first form is one run of one workload in this process; its last line
//! on standard output is the result object. `--all` runs every workload in
//! a child process of its own, untraced and then traced, and prints every
//! metric by name with its unit. `--check` does that twice and compares.

mod catalogue;
mod harness;
mod json;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use catalogue::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use json::Json;

/// Where the traced runs and `--check` leave their files, relative to the
/// directory the benchmark is started from (the repository root).
const OUT_DIR: &str = "bench/out";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    mode: Mode,
}

#[derive(PartialEq)]
enum Mode {
    One,
    All,
    Check,
    Describe,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        mode: Mode::One,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--all" => args.mode = Mode::All,
            "--check" => args.mode = Mode::Check,
            "--describe" => args.mode = Mode::Describe,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.mode == Mode::One && args.workload.is_none() {
        return Err("give --workload <name>, --all, --check or --describe".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("gs-scale-bench: {message}");
            return ExitCode::from(2);
        }
    };
    match args.mode {
        Mode::Describe => {
            println!("{}", pretty(&catalogue::benchmark_json()));
            ExitCode::SUCCESS
        }
        Mode::One => run_one(&args),
        Mode::All => match run_all(&args) {
            Ok(set) if set.failures == 0 => ExitCode::SUCCESS,
            Ok(_) => ExitCode::FAILURE,
            Err(message) => {
                eprintln!("gs-scale-bench: {message}");
                ExitCode::FAILURE
            }
        },
        Mode::Check => run_check(&args),
    }
}

/// One run of one workload in this process.
fn run_one(args: &Args) -> ExitCode {
    let name = args.workload.as_deref().expect("checked by parse_args");
    let seed = args.seed;
    if !WORKLOADS.iter().any(|w| w.0 == name) {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        eprintln!(
            "gs-scale-bench: unknown workload {name}; known: {}",
            known.join(", ")
        );
        return ExitCode::from(2);
    }
    let build = || workloads::build(name, seed).expect("name checked above");
    let result = if args.trace {
        let path = Path::new(OUT_DIR).join(format!("trace_{name}.json"));
        harness::run_per_layer(&build, args.seconds, &path)
    } else {
        harness::run_end_to_end(&build, args.seconds)
    };
    // The line is parsed back before it is written: what a reader cannot
    // parse is not a result.
    let line = result.to_line();
    match Json::parse(&line) {
        Ok(parsed) if parsed == result => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("gs-scale-bench: result line does not parse back: {line}");
            ExitCode::FAILURE
        }
    }
}

/// Every metric of every workload from one `--all` pass.
struct ResultSet {
    /// `(workload, metric, value, unit)` in report order.
    rows: Vec<(String, String, f64, String)>,
    /// Runs that failed, reported wrong outputs or a failed op.
    failures: usize,
}

impl ResultSet {
    fn value(&self, workload: &str, metric: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.0 == workload && r.1 == metric)
            .map(|r| r.2)
    }

    fn to_json(&self) -> Json {
        let mut by_workload: Vec<(String, Json)> = Vec::new();
        for (name, _) in WORKLOADS {
            let metrics = self.rows.iter().filter(|r| r.0 == name).map(|r| {
                (
                    r.1.clone(),
                    Json::obj([("value", Json::Num(r.2)), ("unit", Json::Str(r.3.clone()))]),
                )
            });
            by_workload.push((name.to_string(), Json::Obj(metrics.collect())));
        }
        Json::Obj(by_workload)
    }
}

/// Runs one workload in a fresh child process and parses its result line.
fn run_child(name: &str, args: &Args, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {name}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{name} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{name} printed nothing"))?;
    Json::parse(line).map_err(|e| format!("{name} result: {e}"))
}

fn run_all(args: &Args) -> Result<ResultSet, String> {
    println!(
        "# seed {}  seconds {}  nproc {}  rustc {}  commit {}",
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(0, usize::from),
        tool_line("rustc", &["--version"]),
        tool_line("git", &["rev-parse", "--short", "HEAD"]),
    );
    let mut set = ResultSet {
        rows: Vec::new(),
        failures: 0,
    };
    for (name, _) in WORKLOADS {
        for trace in [false, true] {
            eprintln!("{name} ({})", if trace { "traced" } else { "untraced" });
            let result = run_child(name, args, trace)?;
            if result.get("correct") != Some(&Json::Bool(true)) {
                set.failures += 1;
            }
            println!(
                "{name:<14} {:<34} attempted {} failed {}",
                if trace { "(per-layer)" } else { "(end-to-end)" },
                result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
                result.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
            );
            for (metric, entry) in result.get("metrics").map_or(&[][..], Json::members) {
                let value = entry
                    .get("value")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN);
                let unit = match entry.get("unit") {
                    Some(Json::Str(unit)) => unit.clone(),
                    _ => String::new(),
                };
                println!("{name:<14} {metric:<34} {value:>16.6} {unit}");
                set.rows
                    .push((name.to_string(), metric.clone(), value, unit));
            }
        }
    }
    let expected = WORKLOADS.len() * (END_TO_END.len() + PER_LAYER.len());
    if set.rows.len() != expected {
        return Err(format!(
            "{} metrics reported, {expected} defined",
            set.rows.len()
        ));
    }
    Ok(set)
}

/// Runs the whole benchmark twice on the same code and compares the two
/// sets metric by metric against the bounds.
fn run_check(args: &Args) -> ExitCode {
    let sets = match (run_all(args), run_all(args)) {
        (Ok(a), Ok(b)) => [a, b],
        (Err(message), _) | (_, Err(message)) => {
            eprintln!("gs-scale-bench: {message}");
            return ExitCode::FAILURE;
        }
    };
    let mut violations = sets[0].failures + sets[1].failures;
    println!("# A/A: relative difference of set B against set A, per end-to-end metric");
    for (name, _) in WORKLOADS {
        for m in &END_TO_END {
            let a = sets[0].value(name, m.name).unwrap_or(f64::NAN);
            let b = sets[1].value(name, m.name).unwrap_or(f64::NAN);
            // Positive when B is worse than A.
            let worse = if m.better == "higher" {
                (a - b) / a
            } else {
                (b - a) / a
            };
            let ok = worse.abs() <= m.bound;
            violations += usize::from(!ok);
            println!(
                "{name:<14} {:<20} A {a:>14.5} B {b:>14.5} {:>+8.2}% of bound {:>5.1}% {}",
                m.name,
                worse * 100.0,
                m.bound * 100.0,
                if ok { "ok" } else { "DISAGREES" },
            );
        }
    }
    let doc = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
        ),
        ("rustc", Json::Str(tool_line("rustc", &["--version"]))),
        (
            "commit",
            Json::Str(tool_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("set_a", sets[0].to_json()),
        ("set_b", sets[1].to_json()),
    ]);
    let path = PathBuf::from(OUT_DIR).join("check.json");
    let written =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, pretty(&doc)));
    match written {
        Ok(()) => println!("# both sets written to {}", path.display()),
        Err(e) => eprintln!("gs-scale-bench: {} not written: {e}", path.display()),
    }
    if violations == 0 {
        println!("# A/A agrees within every bound; no failed op");
        ExitCode::SUCCESS
    } else {
        println!("# {violations} disagreement(s) or failed run(s)");
        ExitCode::FAILURE
    }
}

/// First line a tool prints, or `unknown` (the checkout the driver runs in
/// is not a git repository).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `doc` with one member or array item per line, two levels deep: readable
/// diffs for `BENCHMARK.json` and the check file.
fn pretty(doc: &Json) -> String {
    fn block(value: &Json, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth + 1);
        let (open, close, items): (char, char, Vec<String>) = match value {
            Json::Obj(members) if depth < 2 => (
                '{',
                '}',
                members
                    .iter()
                    .map(|(k, v)| {
                        let mut item = format!("{}: ", Json::Str(k.clone()).to_line());
                        block(v, depth + 1, &mut item);
                        item
                    })
                    .collect(),
            ),
            Json::Arr(items) if depth < 2 => (
                '[',
                ']',
                items
                    .iter()
                    .map(|v| {
                        let mut item = String::new();
                        block(v, depth + 1, &mut item);
                        item
                    })
                    .collect(),
            ),
            other => {
                out.push_str(&other.to_line());
                return;
            }
        };
        out.push(open);
        out.push('\n');
        out.push_str(
            &items
                .iter()
                .map(|i| format!("{pad}{i}"))
                .collect::<Vec<_>>()
                .join(",\n"),
        );
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
        out.push(close);
    }
    let mut out = String::new();
    block(doc, 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_output_parses_back() {
        let doc = catalogue::benchmark_json();
        let text = pretty(&doc);
        assert!(text.lines().count() > 60);
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }
}
