//! `multipath` — command-line driver for the instruction-recycling
//! simulator.
//!
//! ```text
//! multipath run [OPTIONS] <BENCH>...       simulate one workload
//! multipath trace [OPTIONS] <BENCH>...     run with probes: Perfetto + stats.json
//! multipath explain [OPTIONS] <BENCH>...   reuse/recycle attribution + path tree
//! multipath compare [OPTIONS] <BENCH>...   all six configurations side by side
//! multipath figures [FIG]...               regenerate paper figures (parallel sweep)
//! multipath serve [SERVE OPTIONS]          persistent HTTP simulation service
//! multipath list                           list benchmarks, machines, policies
//! multipath disasm <BENCH>                 disassemble a kernel
//!
//! Options:
//!   --features <smt|tme|rec|rec-ru|rec-rs|rec-rs-ru>   (run/trace/explain; default rec-rs-ru)
//!   --machine  <big.2.16|big.1.8|small.2.8|small.1.8>  (default big.2.16)
//!   --policy   <stop-N|fetch-N|nostop-N>               (default stop-8)
//!   --commits  <N>      committed instructions per program (default 30000)
//!   --seed     <N>      workload seed (default 1)
//!
//! Trace options:
//!   --interval <N>      time-series interval width in cycles (default 100)
//!   --events <LIST>     comma-separated event filter (default all)
//!   --out <PATH>        Perfetto/Chrome-trace output (default multipath-trace.json)
//!   --stats-out <PATH>  stats output (default multipath-stats.json)
//!   --format <json|csv> stats output format: stats.json document, or one CSV
//!                       row per interval under a COUNTER_NAMES header
//!   --timeline <N>      also print the text timeline of the last N cycles
//!   --print-events <N>  dump the last N events as text
//!
//! Explain options:
//!   --top <N>           rows per attribution table (default 10)
//!   --json-out <PATH>   multipath-explain/v1 document (default multipath-explain.json)
//!   --report-out <PATH> also write the markdown report to a file
//!   --dot-out <PATH>    write the fork/merge/squash path DAG as Graphviz DOT
//!   --tree              print the ASCII path tree after the report
//!
//! Serve options:
//!   --addr <HOST:PORT>  bind address (default 127.0.0.1:8273)
//!   --workers <N>       worker threads (default: one per core)
//!   --queue <N>         request-queue bound before 429s (default 64)
//!   --cache-mb <N>      result-cache budget in MiB (default 64)
//!
//! Output paths get their parent directories created on demand.
//!
//! `figures` takes any of the paper's fig3 fig4 fig5 fig6 table1, the
//! reuse attribution explain, and the ablations spawn-latency predictor
//! loop-body confidence active-list registers forks-per-cycle contexts
//! recycled-pred mdb (default: all), runs each distinct cell of the named
//! figures once, and honours MULTIPATH_THREADS (worker count),
//! MULTIPATH_BUDGET=quick (smoke-sized sweep), and MP_FORMAT=csv.
//! `results/ablations.txt` is the output of `multipath figures` given the
//! ten ablation names in that order.
//! ```

use multipath_cli::{
    parse_invocation, ExplainOptions, Invocation, Options, ServeOptions, TraceOptions, USAGE,
};
use multipath_core::{stats_json, Features, ProbeConfig, RunSpec, Stats};
use multipath_serve::{signal, Server};
use multipath_workload::kernels;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprint!("{USAGE}");
    ExitCode::from(2)
}

/// Writes `contents` to `path`, creating missing parent directories first
/// (so `--out reports/a/trace.json` works on a fresh checkout).
fn write_creating_dirs(path: &str, contents: &str) -> std::io::Result<()> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, contents)
}

/// The run `opts` describe, under `features`.
fn spec(opts: &Options, features: Features) -> RunSpec {
    let mut config = opts.machine.clone().with_features(features);
    if let Some(p) = opts.policy {
        config = config.with_alt_policy(p);
    }
    RunSpec::new(config, opts.benches.clone(), opts.seed, opts.commits)
}

fn print_stats(label: &str, s: &Stats) {
    println!(
        "{label:10} IPC {:5.2} | acc {:5.1}% | recycled {:5.1}% reused {:4.2}% | \
         forks {:6} cov {:5.1}% | merges {:5} (back {:4.1}%) respawns {:5}",
        s.ipc(),
        s.branch_accuracy(),
        s.pct_recycled(),
        s.pct_reused(),
        s.forks,
        s.pct_miss_covered(),
        s.merges,
        s.pct_back_merges(),
        s.respawns,
    );
}

fn cmd_run(opts: &Options) -> ExitCode {
    let sim = spec(opts, opts.features).run();
    let stats = sim.stats();
    let names: Vec<&str> = opts.benches.iter().map(|b| b.name()).collect();
    println!(
        "workload: {} | {} committed in {} cycles",
        names.join("+"),
        stats.committed,
        stats.cycles
    );
    print_stats(opts.features.label(), stats);
    ExitCode::SUCCESS
}

fn cmd_trace(topts: &TraceOptions, opts: &Options) -> ExitCode {
    let spec = RunSpec {
        probes: Some(ProbeConfig {
            ring: topts.print_events.map(|n| n.max(1)),
            interval: Some(topts.interval.max(1)),
            spans: true,
            explain: false,
            filter: topts.filter,
        }),
        host_profile: true,
        ..spec(opts, opts.features)
    };
    let mut sim = spec.run();
    let stats = sim.stats().clone();
    let profile = sim.host_profile().map(|p| p.report(stats.ipc()));
    let probes = sim.take_probes().expect("probes were enabled");

    // The text timeline samples *after* the commit target: the machine is
    // warmed up and still running (unless the programs halted). It steps
    // the machine on, so everything written out was taken above.
    let timeline = topts.timeline.map(|cycles| {
        let samples = multipath_core::trace::sample_window(&mut sim, cycles);
        let stride = (cycles / 48).max(1) as usize;
        multipath_core::trace::render_timeline(&samples, stride)
    });

    let names: Vec<&str> = opts.benches.iter().map(|b| b.name()).collect();
    let label = names.join("+");
    println!(
        "workload: {label} | {} committed in {} cycles",
        stats.committed, stats.cycles
    );
    print_stats(opts.features.label(), &stats);
    if let Some(report) = profile {
        print!("{report}");
    }
    if let Some(text) = timeline {
        println!();
        print!("{text}");
    }

    if let Some(ring) = &probes.ring {
        println!();
        println!("last {} events ({} dropped):", ring.len(), ring.dropped);
        for ev in ring.events() {
            println!("{}", ev.render());
        }
    }
    let doc = if topts.csv {
        multipath_core::intervals_csv(probes.interval.as_ref().expect("interval sink on"))
    } else {
        stats_json(
            &label,
            opts.features.label(),
            &stats,
            probes.interval.as_ref(),
        )
    };
    if let Err(e) = write_creating_dirs(&topts.stats_out, &doc) {
        eprintln!("error: writing {}: {e}", topts.stats_out);
        return ExitCode::FAILURE;
    }
    let trace = probes
        .spans
        .as_ref()
        .expect("spans were enabled")
        .chrome_trace_json(sim.config().contexts);
    if let Err(e) = write_creating_dirs(&topts.out, &trace) {
        eprintln!("error: writing {}: {e}", topts.out);
        return ExitCode::FAILURE;
    }
    println!();
    println!(
        "wrote {} and {} (open the trace at https://ui.perfetto.dev)",
        topts.out, topts.stats_out
    );
    ExitCode::SUCCESS
}

fn cmd_explain(eopts: &ExplainOptions, opts: &Options) -> ExitCode {
    let spec = RunSpec {
        probes: Some(ProbeConfig::explain()),
        ..spec(opts, opts.features)
    };
    let mut sim = spec.run();
    let probes = sim.take_probes().expect("probes were enabled");
    let stats = sim.stats();
    let names: Vec<&str> = opts.benches.iter().map(|b| b.name()).collect();
    let label = names.join("+");
    let attr = probes.attribution.as_ref().expect("attribution sink on");
    let tree = probes.tree.as_ref().expect("path-tree sink on");

    let report = multipath_core::explain_markdown(
        &label,
        opts.features.label(),
        stats,
        attr,
        tree,
        eopts.top,
    );
    print!("{report}");
    if eopts.tree {
        println!();
        print!("{}", tree.ascii());
    }

    let doc =
        multipath_core::explain_json(&label, opts.features.label(), stats, attr, tree, eopts.top);
    if let Err(e) = write_creating_dirs(&eopts.json_out, &doc) {
        eprintln!("error: writing {}: {e}", eopts.json_out);
        return ExitCode::FAILURE;
    }
    let mut wrote = vec![eopts.json_out.clone()];
    if let Some(path) = &eopts.report_out {
        if let Err(e) = write_creating_dirs(path, &report) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        wrote.push(path.clone());
    }
    if let Some(path) = &eopts.dot_out {
        if let Err(e) = write_creating_dirs(path, &tree.dot()) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        wrote.push(path.clone());
    }
    println!();
    println!("wrote {}", wrote.join(" and "));
    ExitCode::SUCCESS
}

fn cmd_compare(opts: &Options) -> ExitCode {
    let names: Vec<&str> = opts.benches.iter().map(|b| b.name()).collect();
    println!("workload: {}", names.join("+"));
    for features in Features::all_six() {
        print_stats(features.label(), spec(opts, features).run().stats());
    }
    ExitCode::SUCCESS
}

fn cmd_list() -> ExitCode {
    println!("benchmarks:");
    for b in multipath_workload::Benchmark::ALL {
        println!(
            "  {:10} {}",
            b.name(),
            if b.is_fp() { "(floating point)" } else { "" }
        );
    }
    println!("machines:   big.2.16  big.1.8  small.2.8  small.1.8");
    println!("features:   smt  tme  rec  rec-ru  rec-rs  rec-rs-ru");
    println!("policies:   stop-N  fetch-N  nostop-N   (default stop-8)");
    ExitCode::SUCCESS
}

fn cmd_figures(requested: &[&str]) -> ExitCode {
    let budget = multipath_bench::Budget::from_env();
    eprintln!(
        "sweeping on {} worker thread(s); {} committed per program, {} mixes",
        multipath_bench::parallel::thread_count(),
        budget.committed_per_program,
        budget.mixes
    );
    let render = if std::env::var("MP_FORMAT").is_ok_and(|v| v == "csv") {
        multipath_bench::render_csv
    } else {
        multipath_bench::render_text
    };
    let tables = multipath_bench::tables(requested, &budget);
    for (i, (fig, table)) in requested.iter().zip(&tables).enumerate() {
        if i > 0 {
            println!();
        }
        if requested.len() > 1 {
            println!("== {fig} ==");
        }
        print!("{}", render(table));
    }
    ExitCode::SUCCESS
}

fn cmd_disasm(bench: multipath_workload::Benchmark) -> ExitCode {
    let program = kernels::build(bench, 1);
    print!("{}", program.listing());
    ExitCode::SUCCESS
}

fn cmd_serve(sopts: &ServeOptions) -> ExitCode {
    let server = match Server::bind(&sopts.config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: binding {}: {e}", sopts.config.addr);
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "multipath serve listening on http://{} ({} workers, queue {}, cache {} MiB)",
        server.local_addr(),
        server.workers(),
        sopts.config.queue,
        sopts.config.cache_bytes >> 20,
    );
    eprintln!(
        "endpoints: POST /v1/run  POST /v1/sweep  GET /v1/explain/:kernel  /healthz  /metrics"
    );
    // SIGINT/ctrl-c and SIGTERM request a graceful drain: the accept loop
    // stops, in-flight simulations finish, workers join.
    server.run(signal::install());
    eprintln!("multipath serve: drained, shutting down");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_invocation(&args) {
        Ok(Invocation::Run(opts)) => cmd_run(&opts),
        Ok(Invocation::Trace(topts, opts)) => cmd_trace(&topts, &opts),
        Ok(Invocation::Explain(eopts, opts)) => cmd_explain(&eopts, &opts),
        Ok(Invocation::Compare(opts)) => cmd_compare(&opts),
        Ok(Invocation::Figures(figs)) => cmd_figures(&figs),
        Ok(Invocation::Serve(sopts)) => cmd_serve(&sopts),
        Ok(Invocation::List) => cmd_list(),
        Ok(Invocation::Disasm(bench)) => cmd_disasm(bench),
        Err(msg) => {
            eprintln!("error: {msg}");
            usage()
        }
    }
}
