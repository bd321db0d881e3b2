//! The harness checks itself: `BENCHMARK.json` is well-formed and agrees
//! with the metric tables in the code, and every workload — run at
//! `--quick` size — emits every metric exactly once, passes its own
//! correctness checks, and writes output the in-tree JSON linter accepts.

use dloop_benchmark::json::Json;
use dloop_benchmark::run::{run_workload, MetricDef, Options, RunResult, END_TO_END, PER_LAYER};
use dloop_benchmark::workloads::Workload;
use dloop_repro::simkit::trace::json_lint;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    json_lint(&text).expect("BENCHMARK.json lints");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is at most 64 KiB");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn str_field<'a>(value: &'a Json, key: &str) -> &'a str {
    value
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string `{key}` in {value:?}"))
}

fn keys(value: &Json) -> Vec<&str> {
    value.members().iter().map(|(k, _)| k.as_str()).collect()
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
}

fn is_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
}

#[test]
fn benchmark_json_meets_the_contract_and_matches_the_code() {
    let bench = benchmark_json();
    assert_eq!(
        keys(&bench),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let command: Vec<&str> = bench
        .get("command")
        .unwrap()
        .items()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert!(!command.is_empty() && command.len() <= 32);
    assert!(command
        .iter()
        .all(|arg| arg.len() <= 200 && !arg.starts_with('/') && !arg.contains("..")));
    let paths: Vec<&str> = bench
        .get("paths")
        .unwrap()
        .items()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);

    let seconds = bench.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

    let workloads = bench.get("workloads").unwrap().items();
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = str_field(w, "why");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why is one short line: {why}"
        );
    }
    let names: Vec<&str> = workloads.iter().map(|w| str_field(w, "name")).collect();
    assert_eq!(
        names,
        Workload::ALL.map(Workload::name),
        "workload keys match the code"
    );
    // The driver makes 4 + 22 × workloads runs inside 3420 s in all.
    let runs = 4 + 22 * workloads.len();
    assert!(runs as f64 * seconds < 3420.0);

    let check = |section: &str, defs: &[MetricDef], limit: usize, bounded: bool| {
        let metrics = bench.get(section).unwrap().items();
        assert!((1..=limit).contains(&metrics.len()), "{section}: count");
        let expected_keys: &[&str] = if bounded {
            &["name", "unit", "better", "bound"]
        } else {
            &["name", "unit", "better"]
        };
        let mut listed: Vec<MetricDef> = Vec::new();
        for m in metrics {
            assert_eq!(keys(m), expected_keys, "{section}: {m:?}");
            let def = defs
                .iter()
                .find(|d| d.0 == str_field(m, "name"))
                .unwrap_or_else(|| panic!("{section}: {m:?} is not in the code"));
            assert!(is_name(def.0), "{section}: bad name {}", def.0);
            assert!(is_unit(def.1), "{section}: bad unit {}", def.1);
            assert!(def.2 == "higher" || def.2 == "lower");
            assert_eq!(
                (str_field(m, "unit"), str_field(m, "better")),
                (def.1, def.2),
                "{section}: {} disagrees with the code",
                def.0
            );
            if bounded {
                let bound = m.get("bound").and_then(Json::as_f64).unwrap();
                assert!((0.0..=0.25).contains(&bound), "{}: bound {bound}", def.0);
            }
            listed.push(*def);
        }
        assert_eq!(listed, defs, "{section}: same metrics, same order");
    };
    check("end_to_end", &END_TO_END, 16, true);
    check("per_layer", &PER_LAYER, 128, false);

    let all: Vec<&str> = names
        .iter()
        .copied()
        .chain(END_TO_END.iter().map(|d| d.0))
        .chain(PER_LAYER.iter().map(|d| d.0))
        .collect();
    assert_eq!(
        all.iter().collect::<BTreeSet<_>>().len(),
        all.len(),
        "every name is used once"
    );
    let setup = bench
        .get("end_to_end")
        .unwrap()
        .items()
        .iter()
        .find(|m| str_field(m, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(
        (str_field(setup, "unit"), str_field(setup, "better")),
        ("s", "lower")
    );
}

fn quick(workload: Workload, out: &Path) -> RunResult {
    run_workload(&Options {
        quick: true,
        reps: Some(2),
        out_dir: Some(out.to_path_buf()),
        ..Options::new(workload)
    })
}

fn value(result: &RunResult, name: &str) -> f64 {
    let mut hits = result
        .end_to_end
        .iter()
        .chain(&result.per_layer)
        .filter(|m| m.name == name);
    let hit = hits.next().unwrap_or_else(|| panic!("{name} not emitted"));
    assert!(hits.next().is_none(), "{name} emitted twice");
    hit.value
}

#[test]
fn every_workload_runs_quick_and_emits_every_metric_once() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("selftest-out");
    let _ = std::fs::remove_dir_all(&out);
    let results: Vec<RunResult> = Workload::ALL.iter().map(|&w| quick(w, &out)).collect();

    for result in &results {
        let name = result.options.workload.name();
        assert!(result.correct, "{name}: {:?}", result.failure);
        assert_eq!((result.failed, result.reps), (0, 2), "{name}");
        assert!(result.attempted >= 1);

        // Every metric BENCHMARK.json names: exactly once, finite, in order.
        let emitted = |metrics: &[dloop_benchmark::run::Metric]| -> Vec<(&str, &str)> {
            metrics.iter().map(|m| (m.name, m.unit)).collect()
        };
        assert_eq!(
            emitted(&result.end_to_end),
            END_TO_END.map(|d| (d.0, d.1)),
            "{name}"
        );
        assert_eq!(
            emitted(&result.per_layer),
            PER_LAYER.map(|d| (d.0, d.1)),
            "{name}"
        );
        for m in result.end_to_end.iter().chain(&result.per_layer) {
            assert!(m.value.is_finite(), "{name}: {} is {}", m.name, m.value);
        }
        for m in &result.end_to_end {
            assert!(
                m.value > 0.0,
                "{name}: end-to-end {} must never read 0",
                m.name
            );
        }
        assert!(value(result, "device.residual_ns_per_op") >= 0.0, "{name}");
        assert!(value(result, "trace.overhead_pct").is_finite());

        // What is written lints, and is stamped as not comparable.
        let doc = std::fs::read_to_string(out.join(format!("{name}.json"))).unwrap();
        json_lint(&doc).unwrap_or_else(|e| panic!("{name}.json: {e}"));
        let doc = Json::parse(&doc).unwrap();
        assert_eq!(doc.get("quick"), Some(&Json::Bool(true)));
        assert_eq!(
            doc.get("ops_failed_share").and_then(Json::as_f64),
            Some(0.0)
        );
        assert_eq!(
            doc.get("per_layer").unwrap().members().len(),
            PER_LAYER.len()
        );
        let spans = std::fs::read_to_string(out.join(format!("trace_{name}.jsonl"))).unwrap();
        assert!(
            spans.lines().count() > 2,
            "{name}: span log has in-run spans"
        );
        let mut run_id = None;
        for (id, line) in spans.lines().enumerate() {
            json_lint(line).unwrap_or_else(|e| panic!("trace_{name}.jsonl: {e}"));
            let span = Json::parse(line).unwrap();
            assert_eq!(
                keys(&span),
                ["id", "name", "start_ns", "end_ns", "parent", "req"]
            );
            assert_eq!(span.get("id").and_then(Json::as_f64), Some(id as f64));
            if str_field(&span, "name") == "run" {
                run_id = Some(id as f64);
            }
            if let Some(parent) = span.get("parent").and_then(Json::as_f64) {
                assert_eq!(Some(parent), run_id, "in-run spans hang off the run span");
            }
        }
        let line = result.contract_line(&result.end_to_end);
        json_lint(&line).unwrap();
        assert_eq!(
            keys(&Json::parse(&line).unwrap()),
            ["correct", "attempted", "failed", "metrics"]
        );
    }

    let by_name = |w: Workload| results.iter().find(|r| r.options.workload == w).unwrap();
    let (seq, sharded) = (
        by_name(Workload::OverwriteGc),
        by_name(Workload::OverwriteGcShard2),
    );
    assert_eq!(
        sharded.fingerprint, seq.fingerprint,
        "sharded replay is bit-identical (C15)"
    );
    assert_eq!(value(sharded, "shard.engaged"), 1.0);
    assert_eq!(value(seq, "shard.engaged"), 0.0);
    assert!(value(sharded, "shard.critical_path_ms") > 0.0);
    assert!(value(seq, "ftl.write_gc.calls") > 0.0);
    assert_eq!(
        value(seq, "cmt.hit_ratio"),
        1.0,
        "a resident map only ever hits"
    );
    assert_eq!(value(by_name(Workload::OltpCmt), "ftl.write_gc.calls"), 0.0);
    assert!(value(by_name(Workload::OltpCmt), "cmt.hit_ratio") < 1.0);
    assert!(value(by_name(Workload::QosNcq), "sched.rank.calls") > 0.0);
    assert_eq!(value(by_name(Workload::HostMix), "sched.rank.calls"), 0.0);
    assert!(value(by_name(Workload::HostMix), "host.forwarded_per_req") > 0.0);
    assert_eq!(
        value(by_name(Workload::QosNcq), "host.forwarded_per_req"),
        0.0
    );
}

fn cli(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dloop-benchmark"))
        .args(args)
        .output()
        .expect("the harness binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn the_result_line_carries_the_family_the_trace_flag_selects() {
    let base = [
        "--workload",
        "qos_ncq",
        "--quick",
        "--reps",
        "1",
        "--out",
        "none",
        "--seed",
        "3",
    ];
    for (trace, defs) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
        let (code, stdout) = cli(&[&base[..], &["--seconds", "1", "--trace", trace]].concat());
        assert_eq!(code, Some(0), "{stdout}");
        let last = stdout.lines().last().unwrap();
        json_lint(last).unwrap();
        let line = Json::parse(last).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
        let metrics = line.get("metrics").unwrap();
        assert_eq!(keys(metrics), defs.iter().map(|d| d.0).collect::<Vec<_>>());
        for (d, (_, m)) in defs.iter().zip(metrics.members()) {
            assert_eq!(keys(m), ["value", "unit"]);
            assert_eq!(str_field(m, "unit"), d.1);
        }
        // Above the line: one `name value unit` row per metric.
        for d in defs {
            let rows = stdout
                .lines()
                .filter(|l| l.split(' ').next() == Some(d.0))
                .count();
            assert_eq!(rows, 1, "{} printed once", d.0);
        }
    }
    assert_eq!(cli(&["--workload", "nope"]).0, Some(2));
    assert_eq!(cli(&[]).0, Some(2));
}
