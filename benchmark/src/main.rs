//! Command line of the benchmark harness; see `benchmark/README.md`.

use dloop_benchmark::compare::compare;
use dloop_benchmark::measure::pin_allocator;
use dloop_benchmark::run::{run_workload, Metric, Options};
use dloop_benchmark::workloads::Workload;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  dloop-benchmark --workload NAME [--seed N] [--seconds S] [--reps N]
                  [--trace 0|1] [--quick] [--out DIR|none]
  dloop-benchmark compare BASE_OUT_DIR NEW_OUT_DIR [--bench BENCHMARK.json]

workloads: oltp_cmt overwrite_gc overwrite_gc_shard2 qos_ncq host_mix

  --seed N      seed of the generated traces (default 7)
  --seconds S   length of the measuring phase: timed reps (set-up and checks
                included) start until S seconds have passed, at least 5
                and at most 64 of them (default 15)
  --reps N      exactly N timed reps instead of a budget
  --trace 0|1   0: timed reps only, the result line carries the end-to-end
                metrics; 1: add the traced rep and the isolated drivers,
                the result line carries the per-layer metrics; without the
                flag the run is traced and the line carries both
  --quick       self-test sizes; results are stamped and never comparable
  --out DIR     where <workload>.json and trace_<workload>.jsonl go
                (default benchmark/out; `none` writes nothing)";

fn fail(message: &str) -> ExitCode {
    eprintln!("{message}\n\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    // First thing, while the process is still single-threaded.
    pin_allocator();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_main(&args[1..]);
    }

    let mut workload = None;
    let mut options = Options::new(Workload::OltpCmt);
    let mut trace_flag: Option<bool> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        let parsed = match arg.as_str() {
            "--workload" => value("a workload name").and_then(|v| {
                workload = Workload::parse(v);
                workload
                    .map(|_| ())
                    .ok_or(format!("unknown workload `{v}`"))
            }),
            "--seed" => value("a number").and_then(|v| {
                v.parse()
                    .map(|seed| options.seed = seed)
                    .map_err(|_| format!("bad seed `{v}`"))
            }),
            "--seconds" => value("a number").and_then(|v| match v.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => {
                    options.seconds = s;
                    Ok(())
                }
                _ => Err(format!("bad seconds `{v}`")),
            }),
            "--reps" => value("a number").and_then(|v| match v.parse::<usize>() {
                Ok(n) if n >= 1 => {
                    options.reps = Some(n);
                    Ok(())
                }
                _ => Err(format!("bad reps `{v}`")),
            }),
            "--trace" => value("0 or 1").and_then(|v| match v.as_str() {
                "0" | "1" => {
                    trace_flag = Some(v == "1");
                    Ok(())
                }
                _ => Err(format!("bad trace `{v}`")),
            }),
            "--quick" => {
                options.quick = true;
                Ok(())
            }
            "--out" => value("a directory").map(|v| {
                options.out_dir = (v != "none").then(|| PathBuf::from(v));
            }),
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown argument `{other}`")),
        };
        if let Err(e) = parsed {
            return fail(&e);
        }
    }
    let Some(workload) = workload else {
        return fail("--workload is required");
    };
    options.workload = workload;
    options.trace = trace_flag.unwrap_or(true);

    let result = run_workload(&options);

    let print = |metrics: &[Metric]| {
        for m in metrics {
            println!("{} {} {}", m.name, m.value, m.unit);
        }
    };
    println!("workload {}", workload.name());
    println!("seed {}", options.seed);
    println!("reps {}", result.reps);
    println!("disturbed_reps {}", result.disturbed);
    println!("fingerprint {:#018x}", result.fingerprint);
    println!("ops_attempted {}", result.attempted);
    println!("ops_failed {}", result.failed);
    print(&result.end_to_end);
    print(&result.per_layer);
    if let Some(why) = &result.failure {
        eprintln!("FAILED: {why}");
    }

    // The contract's last line: with an explicit --trace it carries one
    // metric family, otherwise both.
    let mut line_metrics = Vec::new();
    if trace_flag != Some(true) {
        line_metrics.extend(result.end_to_end.iter().cloned());
    }
    if trace_flag != Some(false) {
        line_metrics.extend(result.per_layer.iter().cloned());
    }
    println!("{}", result.contract_line(&line_metrics));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_main(args: &[String]) -> ExitCode {
    let mut dirs = Vec::new();
    // BENCHMARK.json sits one level above this package's manifest.
    let mut bench = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--bench" {
            match it.next() {
                Some(path) => bench = PathBuf::from(path),
                None => return fail("--bench needs a path"),
            }
        } else {
            dirs.push(PathBuf::from(arg));
        }
    }
    let [base, new] = dirs.as_slice() else {
        return fail("compare needs exactly two out/ directories");
    };
    match compare(&bench, base, new) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(worse) => {
            eprintln!("{worse} metric(s) worse than the bound allows");
            ExitCode::FAILURE
        }
        Err(e) => fail(&e),
    }
}
