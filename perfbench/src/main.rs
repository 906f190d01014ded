//! End-to-end and per-layer benchmark of CL-DIAM, the Δ-stepping baseline
//! and the anytime bounds engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mesh --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! One process, one job at a time in a closed loop, on a pool of one
//! worker per available CPU (plus a one-worker pool for the single-threaded
//! CL-DIAM call). The workload seed makes the run's input graphs; the
//! library entry points do the rest. Each metric is the mean over the
//! inputs of the median over that input's operations. The last stdout line
//! is the result object `{"correct", "attempted", "failed", "metrics"}`;
//! the line before it records the host, the build, every input with its
//! reference diameter, and every failure. Human-readable metric tables,
//! with per-layer metrics mapped to the end-to-end metric they move, go to
//! stderr.

mod check;
mod metrics;
mod run;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use cldiam_bench::json::{self, Value};
use cldiam_bench::runner::run_delta_stepping_best;
use cldiam_gen::GraphSpec;
use cldiam_sssp::ComponentSplit;

use crate::check::{Reference, Tally};
use crate::run::{InputReport, Pools, Report, RunOptions};
use crate::workload::{derive_seed, Workload};

/// Scratch directory for set-up input files, relative to the working
/// directory (the repository root).
const WORK_DIR: &str = ".perfbench-work";

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <mesh|rmat-lcc|road-lcc-dimacs|smoke> --seed N \
         --seconds S --trace <0|1>\n       perfbench --self-test"
    );
    std::process::exit(2);
}

fn parse_args() -> Option<RunOptions> {
    let mut args = std::env::args().skip(1);
    let mut options = RunOptions {
        workload: Workload::Smoke,
        seed: 1,
        seconds: 10.0,
        trace: false,
        work_dir: PathBuf::from(WORK_DIR),
    };
    let mut workload = None;
    while let Some(flag) = args.next() {
        if flag == "--self-test" {
            return None;
        }
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).unwrap_or_else(|| usage())),
            "--seed" => options.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                options.seconds =
                    value.parse().ok().filter(|s: &f64| *s >= 0.0).unwrap_or_else(|| usage())
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    options.workload = workload.unwrap_or_else(|| usage());
    Some(options)
}

fn main() -> ExitCode {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pools = match Pools::new(threads) {
        Ok(pools) => pools,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match parse_args() {
        Some(options) => pools.multi.install(|| run_and_print(&options, &pools)),
        None => self_test(&pools, Path::new("BENCHMARK.json")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_and_print(options: &RunOptions, pools: &Pools) -> Result<(), String> {
    let report = run::run(options, pools)?;
    print_tables(options, &report);
    println!("{}", record_line(options, pools, &report));
    println!("{}", result_line(&report));
    Ok(())
}

/// First line of the answer to "what ran where": host, build, pools, seed,
/// input size and the reference the checks used.
fn record_line(options: &RunOptions, pools: &Pools, report: &Report) -> String {
    let failures = Value::Array(report.tally.failures.iter().map(|f| f.as_str().into()).collect());
    let record = json::object([
        ("workload", options.workload.name().into()),
        ("spec", format!("gen:{}", options.workload.spec()).into()),
        ("seed", options.seed.into()),
        ("trace", options.trace.into()),
        ("nproc", pools.threads.into()),
        ("pool_threads", Value::Array(vec![pools.threads.into(), 1usize.into()])),
        ("cpu_model", cpu_model().into()),
        ("rustc", command_line("rustc", &["--version"]).into()),
        ("git_commit", command_line("git", &["rev-parse", "HEAD"]).into()),
        ("inputs", Value::Array(report.inputs.iter().map(input_record).collect())),
        ("failures", failures),
    ]);
    format!("{{\"record\": {}}}", compact(&record))
}

fn input_record(input: &InputReport) -> Value {
    json::object([
        ("seed", input.seed.into()),
        ("nodes", input.nodes.into()),
        ("arcs", input.arcs.into()),
        ("tier", input.tier.into()),
        ("reference_diameter", input.reference.value.into()),
        ("ratio_base", input.reference.base().into()),
        ("reference_sssp", input.reference.sssp.into()),
        ("operations", input.operations.into()),
    ])
}

/// The result object: always the last stdout line.
fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(m, value, _)| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, number(*value), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.failed() == 0,
        report.tally.attempted,
        report.tally.failed(),
        metrics.join(", ")
    )
}

/// A JSON number with every digit Rust's shortest round-trip form keeps;
/// non-finite values (a ratio over an empty diameter) become `null`.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

/// One-line JSON of a [`Value`].
fn compact(value: &Value) -> String {
    match value {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Number(n) => number(*n),
        Value::Uint(n) => n.to_string(),
        Value::Int(n) => n.to_string(),
        Value::String(_) => json::to_string_pretty(value),
        Value::Array(items) => {
            format!("[{}]", items.iter().map(compact).collect::<Vec<_>>().join(", "))
        }
        Value::Object(members) => {
            let parts: Vec<String> = members
                .iter()
                .map(|(k, v)| format!("{}: {}", compact(&Value::String(k.clone())), compact(v)))
                .collect();
            format!("{{{}}}", parts.join(", "))
        }
    }
}

fn print_tables(options: &RunOptions, report: &Report) {
    eprintln!(
        "[perfbench] {} seed {}: {} of {} operations failed",
        options.workload.name(),
        options.seed,
        report.tally.failed(),
        report.tally.attempted
    );
    for input in &report.inputs {
        eprintln!(
            "[perfbench]   input seed {}: {} nodes, {} arcs ({}), reference diameter {} ({}, {} SSSPs), {} operations",
            input.seed,
            input.nodes,
            input.arcs,
            input.tier,
            input.reference.value,
            input.reference.base(),
            input.reference.sssp,
            input.operations
        );
    }
    for failure in &report.tally.failures {
        eprintln!("[perfbench]   FAILED {failure}");
    }
    for (m, value, samples) in &report.metrics {
        let moves = if m.moves.is_empty() { String::new() } else { format!("  -> {}", m.moves) };
        eprintln!("[perfbench]   {:<24} {:>16.6} {:<6} n={samples}{moves}", m.name, value, m.unit);
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// First stdout line of a short command, or `unknown` when it cannot run
/// (a checkout without git metadata has no commit to report).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Toy-size run of the whole pipeline in both modes, then the checks the
/// benchmark's results rest on: every metric is emitted with its catalogue
/// unit, the catalogue matches `BENCHMARK.json` (when present), and a wrong
/// estimate fed to the checker is counted as a failed operation. Ends with
/// the Δ-stepping baseline on a disconnected graph, the case the
/// workloads leave out.
fn self_test(pools: &Pools, benchmark_json: &Path) -> Result<(), String> {
    let mut options = RunOptions {
        workload: Workload::Smoke,
        seed: 1,
        seconds: 0.0,
        trace: false,
        work_dir: PathBuf::from(WORK_DIR),
    };
    for (trace, catalogue) in [(false, metrics::END_TO_END), (true, metrics::PER_LAYER)] {
        options.trace = trace;
        let report = pools.multi.install(|| run::run(&options, pools))?;
        if report.tally.failed() != 0 {
            return Err(format!("smoke run failed: {:?}", report.tally.failures));
        }
        let line = json::from_str(&result_line(&report))?;
        for m in catalogue {
            let emitted = line.get("metrics").get(m.name);
            if emitted.get("unit").as_str() != Some(m.unit)
                || emitted.get("value").as_f64().is_none()
            {
                return Err(format!("metric {} not emitted with unit {}", m.name, m.unit));
            }
        }
        if !matches!(line.get("metrics"), Value::Object(emitted) if emitted.len() == catalogue.len())
        {
            return Err("the result line carries metrics outside the catalogue".to_string());
        }

        let mut tally = Tally::default();
        let exact = report.inputs[0].reference;
        tally.record(exact.check_upper("wrong CL-DIAM", exact.value - 1));
        tally.record(exact.check_bracket("wrong bounds", exact.value + 1, exact.value + 2));
        if tally.attempted != 2 || tally.failed() != 2 {
            return Err("a wrong estimate was not counted as a failed operation".to_string());
        }
    }
    if benchmark_json.exists() {
        check_catalogue(benchmark_json)?;
    }
    let (failed, attempted) = pools.multi.install(baseline_on_disconnected)?;
    println!(
        "perfbench self-test passed; Δ-stepping on the disconnected gen:rmat:8 fails \
         {failed} of {attempted} checks"
    );
    Ok(())
}

/// The Δ-stepping baseline from several sources on the raw `gen:rmat:8`
/// output, which has nodes outside its largest component: a source there
/// reports its own component's eccentricity, below the diameter. Every such
/// estimate must count as a failed operation; returns `(failed, attempted)`.
fn baseline_on_disconnected() -> Result<(u64, u64), String> {
    let graph = GraphSpec::parse("rmat:8")?.generate(1);
    let reference = Reference::compute(&graph, &ComponentSplit::compute(&graph));
    let mut tally = Tally::default();
    let mut below = 0;
    for k in 0..32 {
        let estimate = run_delta_stepping_best(&graph, reference.value, derive_seed(1, k)).estimate;
        below += u64::from(estimate < reference.value);
        tally.record(reference.check_upper("Δ-stepping", estimate));
    }
    if tally.failed() != below {
        return Err("a Δ-stepping estimate below the diameter was not counted as failed".into());
    }
    Ok((tally.failed(), tally.attempted))
}

/// `BENCHMARK.json` lists exactly the catalogue's metrics, with the same
/// units and directions, and the benchmark's workloads.
fn check_catalogue(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec = json::from_str(&text)?;
    for (key, catalogue) in [("end_to_end", metrics::END_TO_END), ("per_layer", metrics::PER_LAYER)]
    {
        let Value::Array(listed) = spec.get(key) else {
            return Err(format!("BENCHMARK.json has no {key} list"));
        };
        let names: Vec<&str> = listed.iter().filter_map(|m| m.get("name").as_str()).collect();
        let expected: Vec<&str> = catalogue.iter().map(|m| m.name).collect();
        if names != expected {
            return Err(format!("BENCHMARK.json {key} {names:?} != catalogue {expected:?}"));
        }
        for entry in listed {
            let m = metrics::find(entry.get("name").as_str().unwrap_or_default())
                .ok_or("unknown metric")?;
            if entry.get("unit").as_str() != Some(m.unit)
                || entry.get("better").as_str() != Some(m.better)
            {
                return Err(format!("BENCHMARK.json {}: unit or direction differs", m.name));
            }
        }
    }
    let Value::Array(workloads) = spec.get("workloads") else {
        return Err("BENCHMARK.json has no workloads list".to_string());
    };
    for entry in workloads {
        let name = entry.get("name").as_str().unwrap_or_default();
        if Workload::parse(name).is_none_or(|w| w == Workload::Smoke) {
            return Err(format!("BENCHMARK.json workload {name:?} is not a benchmark workload"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_test_passes() {
        let pools = Pools::new(2).unwrap();
        let spec = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        self_test(&pools, &spec).unwrap();
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(number(0.123456789012345), "0.123456789012345");
        assert_eq!(number(241.0), "241.0");
        assert_eq!(number(f64::INFINITY), "null");
    }
}
