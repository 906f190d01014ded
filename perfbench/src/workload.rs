//! The benchmark's workloads: how each input is made from the seed, and
//! the timed set-up that makes it ready for the algorithms.

use std::path::{Path, PathBuf};

use cldiam_gen::GraphSpec;
use cldiam_graph::io::dimacs::write_dimacs_file;
use cldiam_graph::{largest_component, load_graph, CompressedGraph, Graph};

use crate::trace::Trace;

/// The `index`-th seed derived from `seed`: `seed` itself for index 0,
/// otherwise a SplitMix64 finalisation of the pair. The generators seed
/// xoshiro through SplitMix64, whose state steps by the golden ratio, so
/// seeds `seed + k·φ` would give inputs whose generator states overlap;
/// hashing the pair keeps derived inputs independent.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    if index == 0 {
        return seed;
    }
    let mut z = seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every benchmark input is connected: the Δ-stepping baseline reports
/// `2·ecc(s)` of its source's component, which undercuts the diameter
/// whenever the source lies outside the largest component (an isolated
/// source reports 0), so on a disconnected input its check fails for a
/// share of the seeds. `--self-test` shows that failure on a small
/// disconnected graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `gen:mesh:512`, dense.
    Mesh,
    /// The largest component of `gen:rmat:16`, dense.
    RmatLcc,
    /// The largest component of `gen:road:450x450`, written as DIMACS
    /// text, then parsed and compressed.
    RoadLccDimacs,
    /// `gen:mesh:32`, dense: the self-test's toy input.
    Smoke,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Mesh, Workload::RmatLcc, Workload::RoadLccDimacs, Workload::Smoke];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Mesh => "mesh",
            Workload::RmatLcc => "rmat-lcc",
            Workload::RoadLccDimacs => "road-lcc-dimacs",
            Workload::Smoke => "smoke",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The generator spec (`gen:` syntax of the CLI).
    pub fn spec(self) -> &'static str {
        match self {
            Workload::Mesh => "mesh:512",
            Workload::RmatLcc => "rmat:16",
            Workload::RoadLccDimacs => "road:450x450",
            Workload::Smoke => "mesh:32",
        }
    }

    /// Input graphs per run. Instance-to-instance variation (how many SSSPs
    /// the bounds engine needs, where the baseline's source lands) is most
    /// of the spread between seeds, so a run averages over several inputs;
    /// the counts fit each workload's set-up and reference cost into the
    /// run.
    pub fn inputs(self) -> usize {
        match self {
            Workload::Mesh => 7,
            Workload::RmatLcc => 15,
            Workload::RoadLccDimacs => 7,
            Workload::Smoke => 2,
        }
    }

    fn generate(self, seed: u64) -> Graph {
        GraphSpec::parse(self.spec()).expect("workload specs are valid").generate(seed)
    }
}

/// A ready input graph in the tier the workload runs on.
pub enum Input {
    Dense(Graph),
    Compressed(CompressedGraph),
}

/// Files a workload reads in set-up, written before any timing starts and
/// removed when dropped.
pub struct Prepared {
    pub dimacs: Option<PathBuf>,
    /// Size of the DIMACS file in bytes (0 without one).
    pub file_bytes: u64,
}

impl Prepared {
    pub fn new(workload: Workload, seed: u64, work_dir: &Path) -> Result<Prepared, String> {
        if workload != Workload::RoadLccDimacs {
            return Ok(Prepared { dimacs: None, file_bytes: 0 });
        }
        std::fs::create_dir_all(work_dir)
            .map_err(|e| format!("cannot create {}: {e}", work_dir.display()))?;
        let path = work_dir.join(format!("{}-{seed}.gr", workload.name()));
        let mut prepared = Prepared { dimacs: Some(path.clone()), file_bytes: 0 };
        write_dimacs_file(&largest_component(&workload.generate(seed)).0, &path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        prepared.file_bytes = std::fs::metadata(&path)
            .map_err(|e| format!("cannot stat {}: {e}", path.display()))?
            .len();
        Ok(prepared)
    }
}

impl Drop for Prepared {
    fn drop(&mut self) {
        if let Some(path) = &self.dimacs {
            let _ = std::fs::remove_file(path);
            if let Some(dir) = path.parent() {
                // Only succeeds once the directory is empty.
                let _ = std::fs::remove_dir(dir);
            }
        }
    }
}

/// The timed set-up: everything between "inputs exist" and "the graph is
/// ready for the algorithms", inside one `setup` span.
pub fn setup(
    workload: Workload,
    seed: u64,
    prepared: &Prepared,
    trace: &mut Trace,
) -> Result<(Input, f64), String> {
    let (input, secs) = trace.span("setup", |t| -> Result<Input, String> {
        Ok(match workload {
            Workload::Mesh | Workload::Smoke => {
                Input::Dense(t.span("gen.generate", |_| workload.generate(seed)).0)
            }
            Workload::RmatLcc => {
                let raw = t.span("gen.generate", |_| workload.generate(seed)).0;
                Input::Dense(t.span("graph.lcc", |_| largest_component(&raw).0).0)
            }
            Workload::RoadLccDimacs => {
                let path =
                    prepared.dimacs.as_ref().expect("road-lcc-dimacs is prepared with a file");
                let dense = t
                    .span("graph.parse", |_| load_graph(path))
                    .0
                    .map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
                Input::Compressed(
                    t.span("graph.compress", |_| CompressedGraph::from_graph(&dense, 1)).0,
                )
            }
        })
    });
    Ok((input?, secs))
}
