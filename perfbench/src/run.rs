//! One benchmark run: for each of the workload's input graphs, set-up, the
//! certified reference, and a closed loop of CL-DIAM, Δ-stepping and bounds
//! operations for that input's share of the run time.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use cldiam_bench::runner::run_delta_stepping_best;
use cldiam_core::{
    anytime_diameter_with_split, approximate_diameter, quotient_graph, AnytimeConfig, ClDiam,
    ClusterConfig, DiameterEstimate,
};
use cldiam_graph::NeighborSource;
use cldiam_sssp::{BoundsConfig, ComponentSplit};
use rayon::ThreadPool;

use crate::check::{Pinned, Reference, Tally};
use crate::metrics::{self, median, Metric};
use crate::trace::Trace;
use crate::workload::{derive_seed, setup, Input, Prepared, Workload};

/// Quotient-size target of the τ rule (the CLI's `--quotient` default).
const QUOTIENT_TARGET: usize = 2_000;

pub struct RunOptions {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where set-up input files are written (removed at the end).
    pub work_dir: PathBuf,
}

/// The executor pools: `threads` workers for everything, one worker for the
/// single-threaded CL-DIAM baseline.
pub struct Pools {
    pub threads: usize,
    pub multi: ThreadPool,
    pub single: ThreadPool,
}

impl Pools {
    pub fn new(threads: usize) -> Result<Pools, String> {
        let build = |n: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .map_err(|e| format!("cannot build a {n}-thread pool: {e}"))
        };
        Ok(Pools { threads, multi: build(threads)?, single: build(1)? })
    }
}

/// One input graph of a run.
pub struct InputReport {
    pub seed: u64,
    pub nodes: usize,
    pub arcs: usize,
    pub tier: &'static str,
    pub reference: Reference,
    /// Operations run on this input.
    pub operations: u64,
}

/// What a run measured.
pub struct Report {
    pub tally: Tally,
    pub inputs: Vec<InputReport>,
    /// `(metric, value, samples)` for the metrics of the run's trace mode.
    pub metrics: Vec<(&'static Metric, f64, usize)>,
}

/// Samples of each metric on one input, from passing operations and from
/// all of them.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, (Vec<f64>, Vec<f64>)>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64, passed: bool) {
        let (ok, all) = self.0.entry(name).or_default();
        if passed {
            ok.push(value);
        }
        all.push(value);
    }

    /// Median over the passing samples (`all: false`) or over every
    /// sample, with the sample count.
    fn value(&self, name: &str, all: bool) -> Option<(f64, usize)> {
        let (ok, every) = self.0.get(name)?;
        let values = if all { every } else { ok };
        (!values.is_empty()).then(|| (median(values), values.len()))
    }

    fn sum(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |(_, all)| all.iter().sum())
    }
}

/// Mean over the inputs that have a value, and the total sample count.
fn mean_over_inputs(values: impl IntoIterator<Item = Option<(f64, usize)>>) -> (f64, usize) {
    let (mut sum, mut inputs, mut samples) = (0.0, 0usize, 0usize);
    for (value, n) in values.into_iter().flatten() {
        sum += value;
        inputs += 1;
        samples += n;
    }
    (if inputs == 0 { 0.0 } else { sum / inputs as f64 }, samples)
}

/// A metric's run value: the mean over inputs of each input's median over
/// passing operations. A metric no operation of the run passed reports
/// what the failed operations measured, so it still reads as measured
/// while `failed` and `correct` flag the run.
fn across_inputs(per_input: &[Samples], name: &str) -> (f64, usize) {
    let passed = mean_over_inputs(per_input.iter().map(|s| s.value(name, false)));
    if passed.1 > 0 {
        passed
    } else {
        mean_over_inputs(per_input.iter().map(|s| s.value(name, true)))
    }
}

pub fn run(options: &RunOptions, pools: &Pools) -> Result<Report, String> {
    let workload = options.workload;
    let count = workload.inputs();
    // Input k's operations stop at the end of its share of the run, counted
    // from the run's start, so set-up and references come out of the
    // same budget and the run's wall time stays near `seconds`.
    let started = Instant::now();
    let share = options.seconds / count as f64;
    let mut trace = Trace::new(options.trace);
    let mut tally = Tally::default();
    let mut per_input = Vec::with_capacity(count);
    let mut inputs = Vec::with_capacity(count);
    let indices: Vec<usize> = (0..count).collect();
    for pair in indices.chunks(2) {
        let mut ready = Vec::with_capacity(pair.len());
        for &index in pair {
            let seed = derive_seed(options.seed, index as u64);
            trace.set_group(index);
            let prepared = Prepared::new(workload, seed, &options.work_dir)?;
            let (input, setup_s) = setup(workload, seed, &prepared, &mut trace)?;
            let mut samples = Samples::default();
            samples.push("setup_s", setup_s, true);
            for parse_s in trace.self_times("graph.parse", index) {
                samples.push(
                    "graph.parse_mb_per_s",
                    prepared.file_bytes as f64 / 1e6 / parse_s,
                    true,
                );
            }
            ready.push(Ready { index, seed, input, samples });
        }
        // References are untimed, and on a connected graph the engine runs
        // one SSSP at a time: computing a pair's side by side halves the
        // wall time they add to a run. The splits are built one after the
        // other first, so the pair's transient memory peak does not depend
        // on how the two engines interleave.
        let splits: Vec<ComponentSplit> = ready.iter().map(|r| split_of(&r.input)).collect();
        let references = match (&ready[..], &splits[..]) {
            ([a, b], [sa, sb]) => {
                let (ra, rb) =
                    rayon::join(|| reference_of(&a.input, sa), || reference_of(&b.input, sb));
                vec![ra, rb]
            }
            ([a], [sa]) => vec![reference_of(&a.input, sa)],
            _ => unreachable!("pairs hold one or two inputs"),
        };
        drop(splits);
        for (Ready { index, seed, input, samples }, reference) in ready.into_iter().zip(references)
        {
            trace.set_group(index);
            let deadline = started + Duration::from_secs_f64(share * (index + 1) as f64);
            let mut bench = Bench { pools, seed, deadline, samples, tally: &mut tally };
            let first = index == 0;
            inputs.push(match &input {
                Input::Dense(graph) => bench.measure(graph, "dense", reference, first, &mut trace),
                Input::Compressed(graph) => {
                    bench.measure(graph, "compressed", reference, first, &mut trace)
                }
            });
            per_input.push(bench.samples);
        }
    }
    let peak_rss = metrics::peak_rss_mib();
    let metrics = if options.trace {
        per_layer(&per_input, &trace)
    } else {
        let setups: Vec<f64> =
            per_input.iter().filter_map(|s| s.value("setup_s", true)).map(|(v, _)| v).collect();
        metrics::END_TO_END
            .iter()
            .map(|m| {
                let (value, n) = match m.name {
                    "setup_s" => (median(&setups), setups.len()),
                    "peak_rss_mib" => (peak_rss, 1),
                    name => across_inputs(&per_input, name),
                };
                (m, value, n)
            })
            .collect()
    };
    Ok(Report { tally, inputs, metrics })
}

/// An input that is set up and waits for its reference.
struct Ready {
    index: usize,
    seed: u64,
    input: Input,
    samples: Samples,
}

fn split_of(input: &Input) -> ComponentSplit {
    match input {
        Input::Dense(graph) => ComponentSplit::compute(graph),
        Input::Compressed(graph) => ComponentSplit::compute(graph),
    }
}

fn reference_of(input: &Input, split: &ComponentSplit) -> Reference {
    match input {
        Input::Dense(graph) => Reference::compute(graph, split),
        Input::Compressed(graph) => Reference::compute(graph, split),
    }
}

/// The measurement state of one input.
struct Bench<'a> {
    pools: &'a Pools,
    /// The input's seed: generator, CLUSTER centre sampling and the first
    /// baseline source.
    seed: u64,
    /// When this input's share of the run ends.
    deadline: Instant,
    samples: Samples,
    tally: &'a mut Tally,
}

impl Bench<'_> {
    /// A closed loop: one round of the three operations (two bounds
    /// operations on a run's first input, for the repeat check), then
    /// CL-DIAM and Δ-stepping, whichever has had less time, until the
    /// input's share of the run ends. Bounds is not repeated further: one
    /// call already spans dozens of SSSPs, and its spread between seeds
    /// comes from the input, which more inputs steady.
    fn measure<G: NeighborSource>(
        &mut self,
        graph: &G,
        tier: &'static str,
        reference: Reference,
        first_input: bool,
        trace: &mut Trace,
    ) -> InputReport {
        self.samples.push(
            "graph.bytes_per_arc",
            graph.memory_bytes() as f64 / graph.num_arcs().max(1) as f64,
            true,
        );
        let tau = ClusterConfig::tau_for_quotient_target(graph.num_nodes(), QUOTIENT_TARGET);
        let config = ClusterConfig::default().with_tau(tau).with_seed(self.seed);
        let anytime =
            AnytimeConfig { bounds: BoundsConfig::default(), cluster: Some(config.clone()) };
        let mut cldiam_pin = Pinned::new();
        let mut bounds_pin = Pinned::new();
        let bounds_calls = if first_input { 2 } else { 1 };
        for _ in 0..bounds_calls {
            self.bounds_op(graph, &anytime, &reference, &mut bounds_pin, trace);
        }
        let (mut cldiam_s, mut baseline_s) = (0.0, 0.0);
        let (mut cldiam_calls, mut baseline_calls) = (0u64, 0u64);
        while cldiam_calls == 0 || baseline_calls == 0 || Instant::now() < self.deadline {
            let op_started = Instant::now();
            if cldiam_s <= baseline_s {
                self.cldiam_op(graph, &config, &reference, &mut cldiam_pin, trace);
                cldiam_calls += 1;
                cldiam_s += op_started.elapsed().as_secs_f64();
            } else {
                // The k-th call starts from the source of the k-th derived
                // seed: the first is the CLI's `--seed` call, later ones
                // other pseudo-random sources, as in the paper's protocol.
                let seed = derive_seed(self.seed, baseline_calls);
                self.baseline_op(graph, seed, &reference, trace);
                baseline_calls += 1;
                baseline_s += op_started.elapsed().as_secs_f64();
            }
        }
        InputReport {
            seed: self.seed,
            nodes: graph.num_nodes(),
            arcs: graph.num_arcs(),
            tier,
            reference,
            operations: bounds_calls + cldiam_calls + baseline_calls,
        }
    }

    /// One CL-DIAM operation: the call on the full pool, the same call on
    /// one thread, and (traced runs only) the staged call.
    fn cldiam_op<G: NeighborSource>(
        &mut self,
        graph: &G,
        config: &ClusterConfig,
        reference: &Reference,
        pin: &mut Pinned<(u64, u64, u64)>,
        trace: &mut Trace,
    ) {
        let cpu_before = metrics::process_cpu_seconds();
        let (estimate, secs) = trace.span("op.cldiam", |_| approximate_diameter(graph, config));
        let cpu = metrics::process_cpu_seconds() - cpu_before;
        let single = &self.pools.single;
        let (estimate_1t, secs_1t) =
            trace.span("op.cldiam_1t", |_| single.install(|| approximate_diameter(graph, config)));
        let staged = trace.enabled().then(|| self.staged_cldiam(graph, config, trace));
        let key = |e: &DiameterEstimate| (e.upper_bound, e.metrics.rounds, e.metrics.work());
        let mut outcome = reference
            .check_upper("CL-DIAM", estimate.upper_bound)
            .and_then(|()| pin.check("CL-DIAM (upper, rounds, work)", key(&estimate)))
            .and_then(|()| pin.check("CL-DIAM on 1 thread", key(&estimate_1t)));
        if let Some(staged) = &staged {
            outcome = outcome.and_then(|()| pin.check("staged CL-DIAM", key(staged)));
        }
        let ok = self.tally.record(outcome);
        let s = &mut self.samples;
        s.push("cldiam_s", secs, ok);
        s.push("cldiam_1t_s", secs_1t, ok);
        s.push("cldiam_ratio", reference.ratio(estimate.upper_bound), ok);
        s.push("cldiam_rounds", estimate.metrics.rounds as f64, ok);
        s.push("cldiam_work", estimate.metrics.work() as f64, ok);
        s.push("cldiam_cpu", cpu, ok);
        s.push("mr.rounds", estimate.metrics.rounds as f64, ok);
        s.push("mr.messages", estimate.metrics.messages as f64, ok);
        s.push("mr.node_updates", estimate.metrics.node_updates as f64, ok);
        s.push("mr.peak_local_items", estimate.metrics.peak_local_items as f64, ok);
        s.push("core.quotient_exact", f64::from(u8::from(estimate.quotient_exact)), ok);
    }

    /// CL-DIAM through its stages, each in its own span:
    /// `ClDiam::decompose`, `quotient_graph`, `ClDiam::estimate_from_clustering`
    /// (which builds the quotient again, so Φ(G_C) time is its span minus
    /// the quotient span).
    fn staged_cldiam<G: NeighborSource>(
        &mut self,
        graph: &G,
        config: &ClusterConfig,
        trace: &mut Trace,
    ) -> DiameterEstimate {
        let cldiam = ClDiam::new(config.clone());
        let s = &mut self.samples;
        trace
            .span("op.cldiam_staged", |t| {
                let (clustering, cluster_s) = t.span("core.cluster", |_| cldiam.decompose(graph));
                let (quotient, quotient_s) =
                    t.span("core.quotient", |_| quotient_graph(graph, &clustering));
                let (estimate, estimate_s) = t
                    .span("core.estimate", |_| cldiam.estimate_from_clustering(graph, &clustering));
                s.push("core.phi_s", estimate_s - quotient_s, true);
                s.push("staged_cldiam_s", cluster_s + estimate_s, true);
                s.push("core.clusters", clustering.num_clusters() as f64, true);
                s.push("core.growing_steps", clustering.growing_steps as f64, true);
                s.push("core.radius", clustering.radius as f64, true);
                s.push("core.quotient_nodes", quotient.graph.num_nodes() as f64, true);
                s.push("core.quotient_edges", quotient.graph.num_edges() as f64, true);
                s.push("core.boundary_edges", quotient.boundary_edges as f64, true);
                estimate
            })
            .0
    }

    /// One Δ-stepping baseline operation: the whole Δ-grid call.
    fn baseline_op<G: NeighborSource>(
        &mut self,
        graph: &G,
        seed: u64,
        reference: &Reference,
        trace: &mut Trace,
    ) {
        let (result, secs) =
            trace.span("op.baseline", |_| run_delta_stepping_best(graph, reference.value, seed));
        let what = format!("Δ-stepping (input {}, seed {seed}, {})", self.seed, result.detail);
        let ok = self.tally.record(reference.check_upper(&what, result.estimate));
        let s = &mut self.samples;
        s.push("baseline_s", secs, ok);
        s.push("baseline_ratio", reference.ratio(result.estimate), ok);
        s.push("sssp.delta_candidate_s", result.time_s, ok);
        s.push("sssp.delta_phases", result.rounds as f64, ok);
        s.push("sssp.delta_work", result.work as f64, ok);
    }

    /// One bounds operation: the component split and the anytime engine
    /// with the quotient oracle.
    fn bounds_op<G: NeighborSource>(
        &mut self,
        graph: &G,
        anytime: &AnytimeConfig,
        reference: &Reference,
        pin: &mut Pinned<(u64, u64, usize)>,
        trace: &mut Trace,
    ) {
        let ((outcome, split, engine_s), secs) = trace.span("op.bounds", |t| {
            let split = t.span("graph.components", |_| ComponentSplit::compute(graph)).0;
            let (outcome, engine_s) =
                t.span("sssp.bounds", |_| anytime_diameter_with_split(graph, anytime, &split));
            (outcome, split, engine_s)
        });
        let checked =
            reference.check_bracket("bounds", outcome.lower, outcome.upper).and_then(|()| {
                let key = (outcome.lower, outcome.upper, outcome.sssp_runs);
                pin.check("bounds (lower, upper, sssp)", key)
            });
        let ok = self.tally.record(checked);
        let isolated = split.labels.sizes().iter().filter(|&&size| size == 1).count();
        let s = &mut self.samples;
        s.push("bounds_s", secs, ok);
        s.push("bounds_sssp", outcome.sssp_runs as f64, ok);
        s.push("sssp.bounds_per_sssp_s", engine_s / outcome.sssp_runs.max(1) as f64, ok);
        s.push("sssp.bounds_iterations", outcome.iterations.len() as f64, ok);
        s.push("graph.components", split.labels.count as f64, true);
        s.push("graph.isolated_nodes", isolated as f64, true);
    }
}

/// The per-layer metrics of a traced run: span self times from the trace,
/// counts from the returned structs, each averaged over the run's inputs.
fn per_layer(per_input: &[Samples], trace: &Trace) -> Vec<(&'static Metric, f64, usize)> {
    let span = |name: &str| {
        mean_over_inputs((0..per_input.len()).map(|group| {
            let times = trace.self_times(name, group);
            (!times.is_empty()).then(|| (median(&times), times.len()))
        }))
    };
    let derived = |f: &dyn Fn(&Samples) -> Option<f64>| {
        mean_over_inputs(per_input.iter().map(|s| {
            let n = s.value("cldiam_s", false).map_or(0, |(_, n)| n);
            f(s).map(|v| (v, n))
        }))
    };
    metrics::PER_LAYER
        .iter()
        .map(|m| {
            let (value, n) = match m.name {
                "gen.generate_s" => span("gen.generate"),
                "graph.parse_s" => span("graph.parse"),
                "graph.compress_s" => span("graph.compress"),
                "graph.lcc_s" => span("graph.lcc"),
                "graph.components_s" => span("graph.components"),
                "core.cluster_s" => span("core.cluster"),
                "core.quotient_s" => span("core.quotient"),
                "rayon.cldiam_speedup" => derived(&|s| {
                    Some(s.value("cldiam_1t_s", false)?.0 / s.value("cldiam_s", false)?.0)
                }),
                "rayon.cpu_per_wall" => derived(&|s| Some(s.sum("cldiam_cpu") / s.sum("cldiam_s"))),
                "bench.trace_overhead_s" => derived(&|s| {
                    Some(s.value("staged_cldiam_s", false)?.0 - s.value("cldiam_s", false)?.0)
                }),
                name => across_inputs(per_input, name),
            };
            (m, value, n)
        })
        .collect()
}
