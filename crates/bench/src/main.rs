//! `dloop-experiments` — regenerate the DLOOP paper's tables and figures.
//!
//! ```text
//! dloop-experiments <command>... [options]
//!
//! Several commands run in one process, in the order given, and share
//! every simulation they have in common (`fig8 headline verify` runs
//! Fig. 8's cells once).
//!
//! commands:
//!   params     Table I   — simulation parameters
//!   traces     Table II  — workload statistics
//!   copyback   §III.A    — copy-back vs inter-plane copy costs
//!   fig8       Fig. 8    — MRT / ln(SDRPP) vs SSD capacity
//!   fig9       Fig. 9    — MRT / ln(SDRPP) vs page size
//!   fig10      Fig. 10   — MRT / ln(SDRPP) vs extra blocks
//!   headline   §I/§V.B   — average improvement at 64 GB (and 4 GB)
//!   ablation              — design-choice ablations
//!   striping              — §II.C motivation: concurrency vs throughput
//!   channels              — §II.B trade-off: channel count vs plane depth
//!   trace                 — trace-sink artifacts: flow-stitched Chrome
//!                           trace JSON, plane/channel-utilization CSVs,
//!                           span JSONL, latency attribution
//!   host                  — host-stack sweeps through dloop-host:
//!                           interrupt coalescing and cache dirty ratio,
//!                           with per-phase latency decomposition
//!   verify                — automated PASS/FAIL audit of the paper's claims
//!   all                   — everything above except trace (its artifacts
//!                           are for interactive inspection)
//!
//! options:
//!   --scale N      divide device capacities and footprints by N (default 4)
//!   --requests N   max requests per run (default 150000)
//!   --seed N       workload seed (default 42)
//!   --workers N    host threads (default: cores)
//!   --fill F       pre-fill fraction 0..1 (default 0)
//!   --out DIR      CSV output directory (default results/; "none" disables)
//!   --mode M       replay admission policy for `trace`:
//!                  open|gated|ncq (default open)
//!   --depth N      NCQ reorder-window size for ncq mode (default 32)
//!   --quick        shorthand for --requests 20000
//! ```

use dloop_bench::experiments::{
    ablation, channels, copyback, fig10, fig8, fig9, headline, host, params, striping, tracecmd,
    traces, ExpOptions, TraceMode,
};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("{}", HELP);
    ExitCode::FAILURE
}

const HELP: &str = "usage: dloop-experiments <params|traces|copyback|fig8|fig9|fig10|headline|ablation|striping|channels|trace|host|verify|all>... \
[--scale N] [--requests N] [--seed N] [--workers N] [--fill F] [--out DIR] \
[--mode open|gated|ncq] [--depth N] [--quick]";

/// Parse `v` into `field`; false (a usage error) when it does not parse.
fn set<T: std::str::FromStr>(field: &mut T, v: &str) -> bool {
    v.parse().map(|x| *field = x).is_ok()
}

/// What `all` runs, in order.
const ALL: [&str; 12] = [
    "params", "traces", "copyback", "fig8", "fig9", "fig10", "headline", "ablation", "striping",
    "channels", "host", "verify",
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmds, args) = argv.split_at(argv.iter().take_while(|a| !a.starts_with("--")).count());
    let cmds: Vec<&str> = cmds
        .iter()
        .flat_map(|c| match c.as_str() {
            "all" => ALL.to_vec(),
            c => vec![c],
        })
        .collect();
    if cmds.is_empty() {
        return usage();
    }
    if let Some(bad) = cmds.iter().find(|&&c| !ALL.contains(&c) && c != "trace") {
        eprintln!("unknown command {bad}");
        return usage();
    }
    let mut opts = ExpOptions::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut take = |opts_field: &mut dyn FnMut(&str) -> bool| -> bool {
            if i + 1 >= args.len() {
                eprintln!("missing value for {flag}");
                return false;
            }
            i += 1;
            opts_field(&args[i])
        };
        let ok = match flag {
            "--scale" => take(&mut |v| set(&mut opts.scale, v)),
            "--requests" => take(&mut |v| set(&mut opts.max_requests, v)),
            "--seed" => take(&mut |v| set(&mut opts.seed, v)),
            "--workers" => take(&mut |v| set(&mut opts.workers, v)),
            "--fill" => take(&mut |v| set(&mut opts.fill_fraction, v)),
            "--out" => take(&mut |v| {
                opts.out_dir = if v == "none" {
                    None
                } else {
                    Some(PathBuf::from(v))
                };
                true
            }),
            "--mode" => take(&mut |v| match TraceMode::parse(v) {
                Some(m) => {
                    opts.mode = m;
                    true
                }
                None => false,
            }),
            "--depth" => take(&mut |v| match v.parse() {
                Ok(x) if x >= 1 => {
                    opts.queue_depth = x;
                    true
                }
                _ => false,
            }),
            "--quick" => {
                opts.max_requests = 20_000;
                true
            }
            other => {
                eprintln!("unknown flag {other}");
                false
            }
        };
        if !ok {
            return usage();
        }
        i += 1;
    }
    if opts.scale == 0 {
        eprintln!("--scale must be >= 1");
        return usage();
    }

    let opts = &opts;
    for &cmd in &cmds {
        if cmds.len() > 1 {
            eprintln!(">> {cmd}");
        }
        match cmd {
            "params" => opts.emit(&params::run(), "table1_params"),
            "traces" => opts.emit(&traces::run(opts), "table2_traces"),
            "copyback" => opts.emit(&copyback::run(), "copyback"),
            "fig8" => opts.emit(&fig8::run(opts), "fig8_capacity"),
            "fig9" => opts.emit(&fig9::run(opts), "fig9_pagesize"),
            "fig10" => opts.emit(&fig10::run(opts), "fig10_extrablocks"),
            "headline" => opts.emit(&headline::run(opts), "headline"),
            "ablation" => opts.emit(&ablation::run(opts), "ablation"),
            "striping" => opts.emit(&striping::run(opts), "striping"),
            "channels" => opts.emit(&channels::run(opts), "channels"),
            "trace" => opts.emit(&tracecmd::run(opts), "trace"),
            "host" => opts.emit(&host::run(opts), "host"),
            "verify" => {
                let results = dloop_bench::claims::verify(opts);
                let table = dloop_bench::claims::to_table(&results);
                opts.emit(&[table], "claims");
                let failed = results.iter().filter(|r| !r.pass).count();
                if failed > 0 {
                    eprintln!("{failed} claim(s) FAILED");
                }
            }
            _ => unreachable!("commands are checked before any runs"),
        }
    }
    ExitCode::SUCCESS
}
