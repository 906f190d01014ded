//! The metric catalogue (names, units, direction, and the end-to-end metric
//! each per-layer metric should move), sample medians, and the process
//! counters read from `/proc`.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// End-to-end metrics a per-layer metric should move (empty for the
    /// end-to-end metrics themselves).
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Metric {
    Metric { name, unit, better, moves }
}

/// Printed with `--trace 0`.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower", ""),
    m("cldiam_s", "s", "lower", ""),
    m("cldiam_1t_s", "s", "lower", ""),
    m("cldiam_ratio", "ratio", "lower", ""),
    m("cldiam_rounds", "count", "lower", ""),
    m("cldiam_work", "count", "lower", ""),
    m("baseline_s", "s", "lower", ""),
    m("baseline_ratio", "ratio", "lower", ""),
    m("bounds_s", "s", "lower", ""),
    m("bounds_sssp", "count", "lower", ""),
    m("peak_rss_mib", "MiB", "lower", ""),
];

/// Printed with `--trace 1`.
pub const PER_LAYER: &[Metric] = &[
    m("gen.generate_s", "s", "lower", "setup_s"),
    m("graph.parse_s", "s", "lower", "setup_s"),
    m("graph.parse_mb_per_s", "MB/s", "higher", "setup_s"),
    m("graph.compress_s", "s", "lower", "setup_s"),
    m("graph.bytes_per_arc", "B/arc", "lower", "peak_rss_mib"),
    m("graph.lcc_s", "s", "lower", "setup_s"),
    m("graph.components_s", "s", "lower", "bounds_s"),
    m("graph.components", "count", "lower", "bounds_s"),
    m("graph.isolated_nodes", "count", "lower", "bounds_s"),
    m("core.cluster_s", "s", "lower", "cldiam_s cldiam_1t_s cldiam_ratio"),
    m("core.clusters", "count", "lower", "cldiam_s cldiam_1t_s cldiam_ratio"),
    m("core.growing_steps", "count", "lower", "cldiam_s cldiam_1t_s cldiam_ratio"),
    m("core.radius", "dist", "lower", "cldiam_s cldiam_1t_s cldiam_ratio"),
    m("core.quotient_s", "s", "lower", "cldiam_s"),
    m("core.quotient_nodes", "count", "lower", "cldiam_s"),
    m("core.quotient_edges", "count", "lower", "cldiam_s"),
    m("core.boundary_edges", "count", "lower", "cldiam_s"),
    m("core.phi_s", "s", "lower", "cldiam_s cldiam_ratio"),
    m("core.quotient_exact", "bool", "higher", "cldiam_s cldiam_ratio"),
    m("mr.rounds", "count", "lower", "cldiam_rounds"),
    m("mr.messages", "count", "lower", "cldiam_work"),
    m("mr.node_updates", "count", "lower", "cldiam_work"),
    m("mr.peak_local_items", "count", "lower", "cldiam_work"),
    m("sssp.delta_candidate_s", "s", "lower", "baseline_s"),
    m("sssp.delta_phases", "count", "lower", "baseline_s"),
    m("sssp.delta_work", "count", "lower", "baseline_s"),
    m("sssp.bounds_per_sssp_s", "s", "lower", "bounds_s"),
    m("sssp.bounds_iterations", "count", "lower", "bounds_s"),
    m("rayon.cldiam_speedup", "ratio", "higher", "cldiam_s"),
    m("rayon.cpu_per_wall", "ratio", "higher", "cldiam_s"),
    m("bench.trace_overhead_s", "s", "lower", "cldiam_s"),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Median of `values` (mean of the middle two for an even count); 0 when
/// there are none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// CPU time of every thread of this process so far, in seconds: the sum of
/// the on-CPU nanoseconds in `/proc/self/task/*/schedstat`.
pub fn process_cpu_seconds() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return 0.0 };
    let mut nanos = 0u64;
    for task in tasks.flatten() {
        if let Ok(text) = std::fs::read_to_string(task.path().join("schedstat")) {
            nanos += text.split_whitespace().next().and_then(|t| t.parse().ok()).unwrap_or(0);
        }
    }
    nanos as f64 * 1e-9
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_layered() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
        for metric in PER_LAYER {
            for target in metric.moves.split_whitespace() {
                assert!(END_TO_END.iter().any(|e| e.name == target), "{target}");
            }
        }
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn proc_counters_are_positive() {
        assert!(peak_rss_mib() > 0.0);
        assert!(process_cpu_seconds() > 0.0);
    }
}
