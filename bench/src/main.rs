//! `rvm-profile`: the repository's wall-clock benchmark. See `README.md`
//! beside this package for what it measures and why.

mod devices;
mod gen;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

use stats::{median, quartiles, relative_spread, Json};
use workloads::{Bound, Config, RunResult, Workload, WORKLOADS};

const USAGE: &str = "\
usage: rvm-profile [options]
  --workload NAME   run only this workload (may repeat; default: all five)
  --trace 0|1       0: end-to-end metrics, tracing off; 1: per-layer metrics
                    from a traced run (default: both, untraced first)
  --seed N          seed of every operation stream (default 1993)
  --seconds S       length of the timed phase of a run (default 16, as BENCHMARK.json runs it)
  --ops N           bound the timed phase by N operations instead, so that
                    one-client counts repeat exactly (not comparable with
                    timed runs)
  --repeat N        run the whole set N times, print median, quartiles and
                    spread per metric and workload, fail if sets disagree
  --quick           1/20 of the length: a smoke test, not comparable
  --file-dir PATH   tpca_file on real files under PATH (not comparable)
  --lost-ack-stub   test only: acknowledge a commit that was never made;
                    the run must fail";

struct Args {
    workloads: Vec<&'static Workload>,
    traces: Vec<bool>,
    seed: u64,
    bound: Bound,
    repeat: usize,
    quick: bool,
    file_dir: Option<PathBuf>,
    lost_ack_stub: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        traces: vec![false, true],
        seed: 1993,
        bound: Bound::For(Duration::from_secs(16)),
        repeat: 1,
        quick: false,
        file_dir: None,
        lost_ack_stub: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: cannot use {v:?}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let w = WORKLOADS.iter().find(|w| w.name == v).ok_or(bad(&v))?;
                args.workloads.push(w);
            }
            "--trace" => {
                args.traces = match value()?.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    v => return Err(bad(v)),
                }
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(&v))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad(&v));
                }
                args.bound = Bound::For(Duration::from_secs_f64(s));
            }
            "--ops" => {
                let v = value()?;
                let n: u64 = v.parse().map_err(|_| bad(&v))?;
                args.bound = Bound::Ops(n.max(1));
            }
            "--repeat" => {
                let v = value()?;
                args.repeat = v.parse().ok().filter(|n| *n >= 1).ok_or(bad(&v))?;
            }
            "--quick" => args.quick = true,
            "--file-dir" => args.file_dir = Some(PathBuf::from(value()?)),
            "--lost-ack-stub" => args.lost_ack_stub = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = WORKLOADS.iter().collect();
    }
    if args.quick {
        args.bound = match args.bound {
            Bound::For(d) => Bound::For(d / 20),
            Bound::Ops(n) => Bound::Ops((n / 20).max(1)),
        };
    }
    Ok(args)
}

/// First line of a command's output, or "unknown".
fn tool_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Where artifacts go: beside the build, which `.gitignore` covers.
fn artifact_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("rvm-profile")
}

/// What a result was measured on and with; goes into every output.
fn provenance(args: &Args) -> Vec<(&'static str, Json)> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let comparable = !args.quick && args.file_dir.is_none() && matches!(args.bound, Bound::For(_));
    vec![
        ("nproc", Json::Int(nproc as u64)),
        ("rustc", Json::Str(tool_output("rustc", &["--version"]))),
        (
            "git_commit",
            Json::Str(tool_output("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Int(args.seed)),
        (
            "bound",
            Json::Str(match args.bound {
                Bound::For(d) => format!("{} s", d.as_secs_f64()),
                Bound::Ops(n) => format!("{n} ops"),
            }),
        ),
        (
            "file_backing",
            Json::Str(args.file_dir.as_ref().map_or_else(
                || "anonymous memory files (memfd)".to_owned(),
                |d| d.display().to_string(),
            )),
        ),
        ("comparable", Json::Bool(comparable)),
    ]
}

fn metrics_json(r: &RunResult, full: bool) -> Json {
    Json::obj(r.metrics.iter().map(|(m, value)| {
        let mut fields = vec![("value", Json::Num(*value)), ("unit", Json::str(m.unit))];
        if full {
            fields.push(("better", Json::str(m.better)));
            fields.extend(m.bound.map(|b| ("bound", Json::Num(b))));
        }
        (m.name, Json::obj(fields))
    }))
}

/// The line the acceptance driver reads: the last one of a run.
fn contract_line(r: &RunResult) -> String {
    Json::obj([
        ("correct", Json::Bool(r.failed == 0)),
        ("attempted", Json::Int(r.attempted)),
        ("failed", Json::Int(r.failed)),
        ("metrics", metrics_json(r, false)),
    ])
    .encode()
}

/// Prints a run and writes its artifacts.
fn report(r: &RunResult, provenance: &[(&'static str, Json)]) {
    for (m, value) in &r.metrics {
        println!("{:<12} {:<36} {value:>16.4} {}", r.workload, m.name, m.unit);
    }
    for (name, value) in &r.diagnostics {
        println!("{:<12} ({name:<34}) {value:>16.4}", r.workload);
    }
    for failure in &r.failures {
        println!("{:<12} FAILED: {failure}", r.workload);
    }

    let mut fields: Vec<(&str, Json)> = vec![
        ("workload", Json::str(r.workload)),
        ("traced", Json::Bool(r.traced)),
        ("clients", Json::Int(r.clients as u64)),
    ];
    fields.extend(provenance.iter().cloned());
    fields.extend([
        ("attempted", Json::Int(r.attempted)),
        ("failed", Json::Int(r.failed)),
        (
            "failures",
            Json::Arr(r.failures.iter().map(Json::str).collect()),
        ),
        ("metrics", metrics_json(r, true)),
        (
            "diagnostics",
            Json::obj(r.diagnostics.iter().map(|(n, v)| (*n, Json::Num(*v)))),
        ),
    ]);
    let mut files = vec![(
        format!("result-{}-trace{}.json", r.workload, u8::from(r.traced)),
        Json::obj(fields).encode(),
    )];
    if let Some(spans) = &r.spans {
        files.push((format!("trace-{}.json", r.workload), spans.encode()));
    }
    let dir = artifact_dir();
    for (name, text) in files {
        let written =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(&name), text));
        if let Err(e) = written {
            eprintln!(
                "rvm-profile: cannot write {}: {e}",
                dir.join(name).display()
            );
        }
    }
}

/// Compares the sets of a `--repeat` run, untraced run by untraced run;
/// returns what disagreed.
fn agreement(sets: &[Vec<RunResult>]) -> Vec<String> {
    let mut disagreements = Vec::new();
    println!(
        "\n{:<12} {:<26} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "q1", "median", "q3", "spread", "bound"
    );
    fn untraced(set: &[RunResult]) -> Vec<&RunResult> {
        set.iter().filter(|r| !r.traced).collect()
    }
    for (i, first) in untraced(&sets[0]).iter().enumerate() {
        for (j, (m, _)) in first.metrics.iter().enumerate() {
            let values: Vec<f64> = sets
                .iter()
                .map(|set| untraced(set)[i].metrics[j].1)
                .collect();
            let (q1, q3) = quartiles(&values);
            let spread = relative_spread(&values);
            let bound = m.bound.expect("end-to-end metrics have bounds");
            // Set-up time is held to its median only, as by the driver.
            let disagrees = spread > bound && m.name != "setup_s";
            println!(
                "{:<12} {:<26} {q1:>14.4} {:>14.4} {q3:>14.4} {:>7.2}% {:>5.0}%{}",
                first.workload,
                m.name,
                median(&values),
                spread * 100.0,
                bound * 100.0,
                if disagrees { "  DISAGREE" } else { "" }
            );
            if disagrees {
                disagreements.push(format!("{}/{}", first.workload, m.name));
            }
        }
    }
    disagreements
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rvm-profile: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let provenance = provenance(&args);
    println!(
        "rvm-profile {}",
        Json::obj(provenance.iter().cloned()).encode()
    );

    let mut sets: Vec<Vec<RunResult>> = Vec::new();
    for _ in 0..args.repeat {
        let mut set = Vec::new();
        for traced in &args.traces {
            for w in &args.workloads {
                let cfg = Config {
                    seed: args.seed,
                    bound: args.bound,
                    traced: *traced,
                    file_dir: args.file_dir.clone(),
                    lost_ack_stub: args.lost_ack_stub,
                };
                println!(
                    "\n== {} trace={} clients={}: {}",
                    w.name,
                    u8::from(*traced),
                    w.clients(),
                    w.why
                );
                match workloads::run(w, &cfg) {
                    Ok(result) => {
                        report(&result, &provenance);
                        println!("{}", contract_line(&result));
                        set.push(result);
                    }
                    Err(e) => {
                        // No result line: the run could not be made.
                        eprintln!("rvm-profile: {}: {e}", w.name);
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        sets.push(set);
    }

    let runs: Vec<&RunResult> = sets.iter().flatten().collect();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    let mut ok = failed == 0;
    // One run ends with its own result line; several end with their sum.
    if runs.len() > 1 {
        let disagreements = if sets.len() > 1 {
            agreement(&sets)
        } else {
            Vec::new()
        };
        ok &= disagreements.is_empty();
        let summary = Json::obj([
            ("correct", Json::Bool(ok)),
            (
                "attempted",
                Json::Int(runs.iter().map(|r| r.attempted).sum()),
            ),
            ("failed", Json::Int(failed)),
            ("runs", Json::Int(runs.len() as u64)),
            (
                "disagreements",
                Json::Arr(disagreements.iter().map(Json::str).collect()),
            ),
        ]);
        println!("\n{}", summary.encode());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
