//! `multipath-cli` — argument parsing for the `multipath` binary.
//!
//! Parsing lives in a library (separate from `main.rs`) so that other
//! code can validate command lines without executing them: the docs
//! suite parses every `$ multipath ...` invocation found in the
//! repository's markdown through [`parse_invocation`], which guarantees
//! documented commands cannot rot silently.
//!
//! Parsers are pure: they touch no files, print nothing, and report
//! problems as `Err(String)`. Name → value resolution for features,
//! machines, and policies is delegated to `multipath-core`
//! ([`Features::from_name`], [`SimConfig::from_machine_name`],
//! [`AltPolicy::from_label`]) so the CLI, the serving API, and the docs
//! all share one vocabulary.

use multipath_bench::FIGURES;
use multipath_core::{AltPolicy, EventFilter, Features, SimConfig};
use multipath_serve::ServeConfig;
use multipath_workload::Benchmark;

/// The usage text printed on any parse error.
pub const USAGE: &str = "usage:\n  multipath run [OPTIONS] <BENCH>...\n  \
    multipath trace [OPTIONS] <BENCH>...\n  \
    multipath explain [OPTIONS] <BENCH>...\n  \
    multipath compare [OPTIONS] <BENCH>...\n  \
    multipath figures [FIGURE]...\n  \
    multipath serve [SERVE OPTIONS]\n  \
    multipath list\n  multipath disasm <BENCH>\n\noptions:\n  \
    --features smt|tme|rec|rec-ru|rec-rs|rec-rs-ru\n  \
    --machine big.2.16|big.1.8|small.2.8|small.1.8\n  --policy stop-N|fetch-N|nostop-N\n  \
    --commits N   --seed N\n\ntrace options:\n  \
    --interval N   --events LIST   --out PATH   --stats-out PATH\n  \
    --format json|csv   --timeline N   --print-events N\n\nexplain options:\n  \
    --top N   --json-out PATH   --report-out PATH   --dot-out PATH   --tree\n\n\
    serve options:\n  \
    --addr HOST:PORT (default 127.0.0.1:8273)   --workers N (default: all cores)\n  \
    --queue N (default 64)   --cache-mb N (default 64)\n\n\
    figures (default: all, in this order):\n  \
    fig3 fig4 fig5 fig6 table1 explain   the paper's figures, reuse attribution\n  \
    spawn-latency predictor loop-body confidence active-list registers\n  \
    forks-per-cycle contexts recycled-pred mdb   ablations; all ten at once:\n    \
    multipath figures spawn-latency predictor loop-body confidence active-list \
    registers forks-per-cycle contexts recycled-pred mdb > results/ablations.txt\n\n\
    environment (figures):\n  \
    MULTIPATH_THREADS=N   sweep worker count (default: all cores)\n  \
    MULTIPATH_BUDGET=quick   smoke-sized sweep\n  MP_FORMAT=csv   CSV output\n";

/// Workload options shared by `run`, `trace`, `explain`, and `compare`.
#[derive(Debug, Clone)]
pub struct Options {
    /// Feature set (default `rec-rs-ru`).
    pub features: Features,
    /// Machine geometry (default `big.2.16`).
    pub machine: SimConfig,
    /// Alternate-path fetch policy override, if given.
    pub policy: Option<AltPolicy>,
    /// Committed instructions per program (default 30000).
    pub commits: u64,
    /// Workload seed (default 1).
    pub seed: u64,
    /// The kernels to co-schedule (at least one).
    pub benches: Vec<Benchmark>,
}

/// `multipath trace`-specific options.
#[derive(Debug, Clone)]
pub struct TraceOptions {
    /// Time-series interval width in cycles (default 100).
    pub interval: u64,
    /// Event filter (default: all events).
    pub filter: EventFilter,
    /// Perfetto/Chrome-trace output path.
    pub out: String,
    /// Stats-document output path.
    pub stats_out: String,
    /// Emit interval CSV instead of the stats JSON document.
    pub csv: bool,
    /// Also print a text timeline of the last N cycles.
    pub timeline: Option<u64>,
    /// Dump the last N events as text.
    pub print_events: Option<usize>,
}

/// `multipath explain`-specific options.
#[derive(Debug, Clone)]
pub struct ExplainOptions {
    /// Rows per attribution table (default 10).
    pub top: usize,
    /// `multipath-explain/v1` output path.
    pub json_out: String,
    /// Also write the markdown report here.
    pub report_out: Option<String>,
    /// Write the path DAG as Graphviz DOT here.
    pub dot_out: Option<String>,
    /// Print the ASCII path tree after the report.
    pub tree: bool,
}

/// `multipath serve` options, resolved into a ready [`ServeConfig`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// The server configuration to bind with.
    pub config: ServeConfig,
}

/// One fully parsed `multipath` command line.
#[derive(Debug, Clone)]
pub enum Invocation {
    /// `multipath run` — simulate one workload, print the summary line.
    Run(Options),
    /// `multipath trace` — run with probes, write trace + stats files.
    Trace(TraceOptions, Options),
    /// `multipath explain` — attribution report + path tree.
    Explain(ExplainOptions, Options),
    /// `multipath compare` — all six feature configurations side by side.
    Compare(Options),
    /// `multipath figures` — regenerate the named paper figures.
    Figures(Vec<&'static str>),
    /// `multipath serve` — run the persistent simulation service.
    Serve(ServeOptions),
    /// `multipath list` — list benchmarks, machines, policies.
    List,
    /// `multipath disasm` — disassemble one kernel.
    Disasm(Benchmark),
}

/// Parses a full argument vector (without the program name).
pub fn parse_invocation(args: &[String]) -> Result<Invocation, String> {
    let (cmd, rest) = args
        .split_first()
        .ok_or_else(|| "missing command".to_owned())?;
    match cmd.as_str() {
        "run" => Ok(Invocation::Run(parse_options(rest)?)),
        "trace" => {
            let (topts, rest) = parse_trace_options(rest)?;
            Ok(Invocation::Trace(topts, parse_options(&rest)?))
        }
        "explain" => {
            let (eopts, rest) = parse_explain_options(rest)?;
            Ok(Invocation::Explain(eopts, parse_options(&rest)?))
        }
        "compare" => Ok(Invocation::Compare(parse_options(rest)?)),
        "figures" => Ok(Invocation::Figures(parse_figures(rest)?)),
        "serve" => Ok(Invocation::Serve(parse_serve_options(rest)?)),
        "list" => {
            require_no_args("list", rest)?;
            Ok(Invocation::List)
        }
        "disasm" => {
            let name = rest
                .first()
                .ok_or_else(|| "disasm needs a benchmark name".to_owned())?;
            if rest.len() > 1 {
                return Err(format!("disasm takes one benchmark, got {}", rest.len()));
            }
            let bench = Benchmark::from_name(name)
                .ok_or_else(|| format!("unknown benchmark '{name}' (see `multipath list`)"))?;
            Ok(Invocation::Disasm(bench))
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

/// Parses the shared workload options (everything after the subcommand
/// for `run`/`compare`; the remainder for `trace`/`explain`).
pub fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        features: Features::rec_rs_ru(),
        machine: SimConfig::big_2_16(),
        policy: None,
        commits: 30_000,
        seed: 1,
        benches: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--features" => {
                let v = flag_value(&mut it, "--features")?;
                opts.features =
                    Features::from_name(v).ok_or_else(|| format!("unknown features '{v}'"))?;
            }
            "--machine" => {
                let v = flag_value(&mut it, "--machine")?;
                opts.machine = SimConfig::from_machine_name(v)
                    .ok_or_else(|| format!("unknown machine '{v}'"))?;
            }
            "--policy" => {
                let v = flag_value(&mut it, "--policy")?;
                opts.policy =
                    Some(AltPolicy::from_label(v).ok_or_else(|| format!("unknown policy '{v}'"))?);
            }
            "--commits" => opts.commits = parse_number(flag_value(&mut it, "--commits")?)?,
            "--seed" => opts.seed = parse_number(flag_value(&mut it, "--seed")?)?,
            name => match Benchmark::from_name(name) {
                Some(b) => opts.benches.push(b),
                None => {
                    return Err(format!(
                        "unknown benchmark or option '{name}' (see `multipath list`)"
                    ))
                }
            },
        }
    }
    if opts.benches.is_empty() {
        return Err("no benchmarks given (see `multipath list`)".to_owned());
    }
    if opts.benches.len() > opts.machine.contexts {
        return Err(format!(
            "{} programs exceed the machine's {} hardware contexts",
            opts.benches.len(),
            opts.machine.contexts
        ));
    }
    Ok(opts)
}

/// Splits the trace-specific flags off `args`, returning the remainder
/// (which parses as ordinary run options).
pub fn parse_trace_options(args: &[String]) -> Result<(TraceOptions, Vec<String>), String> {
    let mut topts = TraceOptions {
        interval: 100,
        filter: EventFilter::all(),
        out: "multipath-trace.json".to_owned(),
        stats_out: "multipath-stats.json".to_owned(),
        csv: false,
        timeline: None,
        print_events: None,
    };
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--interval" => topts.interval = parse_number(flag_value(&mut it, "--interval")?)?,
            "--events" => {
                topts.filter = EventFilter::parse(flag_value(&mut it, "--events")?)?;
            }
            "--out" => topts.out = flag_value(&mut it, "--out")?.to_owned(),
            "--stats-out" => topts.stats_out = flag_value(&mut it, "--stats-out")?.to_owned(),
            "--format" => {
                topts.csv = match flag_value(&mut it, "--format")? {
                    "csv" => true,
                    "json" => false,
                    other => {
                        return Err(format!(
                            "unknown stats format '{other}' (expected json or csv)"
                        ))
                    }
                }
            }
            "--timeline" => {
                topts.timeline = Some(parse_number(flag_value(&mut it, "--timeline")?)?)
            }
            "--print-events" => {
                topts.print_events = Some(parse_number(flag_value(&mut it, "--print-events")?)?)
            }
            _ => rest.push(arg.clone()),
        }
    }
    Ok((topts, rest))
}

/// Splits the explain-specific flags off `args`, returning the remainder
/// (which parses as ordinary run options).
pub fn parse_explain_options(args: &[String]) -> Result<(ExplainOptions, Vec<String>), String> {
    let mut eopts = ExplainOptions {
        top: 10,
        json_out: "multipath-explain.json".to_owned(),
        report_out: None,
        dot_out: None,
        tree: false,
    };
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--top" => eopts.top = parse_number(flag_value(&mut it, "--top")?)?,
            "--json-out" => eopts.json_out = flag_value(&mut it, "--json-out")?.to_owned(),
            "--report-out" => {
                eopts.report_out = Some(flag_value(&mut it, "--report-out")?.to_owned())
            }
            "--dot-out" => eopts.dot_out = Some(flag_value(&mut it, "--dot-out")?.to_owned()),
            "--tree" => eopts.tree = true,
            _ => rest.push(arg.clone()),
        }
    }
    Ok((eopts, rest))
}

/// Validates figure names against [`FIGURES`]; no names means all.
pub fn parse_figures(args: &[String]) -> Result<Vec<&'static str>, String> {
    if args.is_empty() {
        return Ok(FIGURES.to_vec());
    }
    args.iter()
        .map(|a| {
            FIGURES
                .iter()
                .find(|&&f| f == a.as_str())
                .copied()
                .ok_or_else(|| {
                    format!(
                        "unknown figure '{a}' (expected one of {})",
                        FIGURES.join(" ")
                    )
                })
        })
        .collect()
}

/// Parses the `multipath serve` flags into a [`ServeConfig`].
pub fn parse_serve_options(args: &[String]) -> Result<ServeOptions, String> {
    let mut config = ServeConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => config.addr = flag_value(&mut it, "--addr")?.to_owned(),
            "--workers" => config.workers = parse_number(flag_value(&mut it, "--workers")?)?,
            "--queue" => {
                config.queue = parse_number(flag_value(&mut it, "--queue")?)?;
                if config.queue == 0 {
                    return Err("--queue must be positive".to_owned());
                }
            }
            "--cache-mb" => {
                let mb: usize = parse_number(flag_value(&mut it, "--cache-mb")?)?;
                config.cache_bytes = mb << 20;
            }
            other => return Err(format!("unknown serve option '{other}'")),
        }
    }
    Ok(ServeOptions { config })
}

fn flag_value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a str, String> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_number<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad number '{s}'"))
}

fn require_no_args(cmd: &str, rest: &[String]) -> Result<(), String> {
    if rest.is_empty() {
        Ok(())
    } else {
        Err(format!("{cmd} takes no arguments"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_every_subcommand() {
        assert!(matches!(
            parse_invocation(&argv("run compress gcc --features rec --commits 500")),
            Ok(Invocation::Run(o)) if o.benches.len() == 2 && o.commits == 500
        ));
        assert!(matches!(
            parse_invocation(&argv("trace compress --interval 50 --stats-out s.json")),
            Ok(Invocation::Trace(t, o)) if t.interval == 50 && o.benches.len() == 1
        ));
        assert!(matches!(
            parse_invocation(&argv("explain compress --top 3 --tree")),
            Ok(Invocation::Explain(e, _)) if e.top == 3 && e.tree
        ));
        assert!(matches!(
            parse_invocation(&argv("compare li go")),
            Ok(Invocation::Compare(_))
        ));
        assert!(matches!(
            parse_invocation(&argv("figures fig3 table1")),
            Ok(Invocation::Figures(f)) if f == vec!["fig3", "table1"]
        ));
        assert!(matches!(
            parse_invocation(&argv("figures")),
            Ok(Invocation::Figures(f)) if f.len() == FIGURES.len()
        ));
        for name in FIGURES {
            assert!(
                USAGE.contains(&format!(" {name} ")),
                "{name} missing from USAGE"
            );
        }
        assert!(matches!(
            parse_invocation(&argv("list")),
            Ok(Invocation::List)
        ));
        assert!(matches!(
            parse_invocation(&argv("disasm compress")),
            Ok(Invocation::Disasm(b)) if b.name() == "compress"
        ));
        assert!(matches!(
            parse_invocation(&argv("serve --addr 127.0.0.1:0 --workers 2 --queue 8 --cache-mb 16")),
            Ok(Invocation::Serve(s))
                if s.config.addr == "127.0.0.1:0"
                    && s.config.workers == 2
                    && s.config.queue == 8
                    && s.config.cache_bytes == 16 << 20
        ));
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            "",
            "frobnicate",
            "run",
            "run nonesuch",
            "run compress --features warp",
            "run compress --machine tiny.0.0",
            "run compress --policy stop8",
            "run compress --commits many",
            "trace compress --format yaml",
            "figures fig9",
            "disasm",
            "disasm nonesuch",
            "list extra",
            "serve --queue 0",
            "serve --frob",
        ] {
            assert!(parse_invocation(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn context_capacity_is_enforced() {
        // big.1.8 has 8 contexts; 9 programs cannot co-schedule.
        let nine = "run compress gcc go li perl su2cor tomcatv vortex compress --machine big.1.8";
        assert!(parse_invocation(&argv(nine)).is_err());
    }
}
