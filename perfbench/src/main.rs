//! `perfbench`: runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <figures|kernels-rec|smt-mix4|serve-loopback|all>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed`, and `metrics`. The full report and,
//! for a traced run, the span log are written under `perfbench/out/`.

use multipath_perfbench::{repo_root, report, run, Options, Scale, Workload};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <figures|kernels-rec|smt-mix4|serve-loopback|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut named = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                named = true;
                out.workload = match value.as_str() {
                    "all" => None,
                    name => Some(
                        Workload::from_name(name)
                            .ok_or_else(|| format!("unknown workload {name:?}"))?,
                    ),
                }
            }
            "--seed" => out.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !named {
        return Err("--workload is required".to_owned());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&argv),
    }
}

/// Runs every workload, each in its own process so that each reports its
/// own memory high-water mark.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut code = ExitCode::SUCCESS;
    for w in Workload::ALL {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = argv.iter();
        while let (Some(flag), Some(value)) = (it.next(), it.next()) {
            let value = if flag == "--workload" {
                w.name()
            } else {
                value
            };
            child_args.extend([flag.clone(), value.to_owned()]);
        }
        match std::process::Command::new(&exe).args(&child_args).status() {
            Ok(s) if s.success() => {}
            _ => code = ExitCode::FAILURE,
        }
    }
    code
}

fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let root = repo_root();
    let opts = Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: Scale::full(),
        expected: None,
    };
    let outcome = run(&opts);
    let host = report::host(&root);
    println!(
        "perfbench {} seed={} trace={} seconds={}",
        workload.name(),
        args.seed,
        u8::from(args.trace),
        args.seconds
    );
    println!(
        "host: nproc={} rustc=\"{}\" git={} profile={} date={}",
        host.nproc, host.rustc, host.git_rev, host.profile, host.date
    );
    for m in &outcome.metrics {
        println!("  {:36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let c = &outcome.checks;
    println!(
        "  {:36} {:>16.6} fraction ({} failed of {} checks)",
        "error_rate",
        c.error_rate(),
        c.failed,
        c.attempted
    );
    for f in &c.failures {
        println!("  failed: {f}");
    }
    for n in &outcome.notes {
        println!("  {n}");
    }

    let out_dir = root.join("perfbench").join("out");
    let stem = format!(
        "{}-trace{}-seed{}",
        workload.name(),
        u8::from(args.trace),
        args.seed
    );
    let report = report::report_json(
        workload.name(),
        args.seed,
        args.trace,
        args.seconds,
        &host,
        c,
        &outcome.metrics,
        &outcome.notes,
    );
    let mut files = vec![(format!("report-{stem}.json"), report)];
    if args.trace {
        files.push((format!("spans-{stem}.json"), outcome.tracer.to_json()));
    }
    for (name, body) in files {
        let path = out_dir.join(name);
        match std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&path, body)) {
            Ok(()) => println!(
                "  wrote {}",
                path.strip_prefix(&root).unwrap_or(&path).display()
            ),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", report::result_line(c, &outcome.metrics));
    ExitCode::SUCCESS
}
