//! The four benchmark workloads and the simulation configuration they
//! share. Each workload is a fixed campaign grid run to completion (a
//! batch job, not a request stream); why each exists is in README.md.

use unison_harness::ScenarioGrid;
use unison_sim::{Design, SimConfig, SystemSpec};
use unison_trace::{workloads, WorkloadSpec};

/// Footprint and cache-size divisor (`--scale 16`, as in the BENCH_v*
/// snapshots and EXPERIMENTS.md).
pub const SCALE: u64 = 16;

/// Floor on trace records per cell (warmup + measurement). Cells whose
/// scaled cache needs more records to fill twice over get more
/// (`SimConfig::accesses_for`): 1G cells run 3M records at scale 16.
pub const ACCESSES: u64 = 1_500_000;

/// Every workload the benchmark can run. `BENCHMARK.json` gates only
/// `campaign` and `miss-write` (see README.md).
pub const NAMES: [&str; 4] = ["campaign", "dispatch", "hit", "miss-write"];

const MIB: u64 = 1 << 20;

/// One named benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Campaign worker threads.
    pub threads: usize,
    pub designs: Vec<Design>,
    pub traces: Vec<WorkloadSpec>,
    pub sizes: Vec<u64>,
}

impl Workload {
    /// The workload called `name`, if any.
    pub fn by_name(name: &str) -> Option<Workload> {
        let w = |name, threads, designs: &[Design], traces, sizes: &[u64]| Workload {
            name,
            threads,
            designs: designs.to_vec(),
            traces,
            sizes: sizes.to_vec(),
        };
        Some(match name {
            "campaign" => w(
                "campaign",
                2,
                &[
                    Design::Alloy,
                    Design::Footprint,
                    Design::Unison,
                    Design::Ideal,
                ],
                vec![workloads::web_search(), workloads::tpch()],
                &[512 * MIB],
            ),
            "dispatch" => w(
                "dispatch",
                1,
                &[Design::Ideal],
                vec![workloads::web_search()],
                &[256 * MIB, 1024 * MIB],
            ),
            "hit" => w(
                "hit",
                1,
                &[Design::Unison, Design::Footprint],
                vec![workloads::data_serving()],
                &[1024 * MIB],
            ),
            "miss-write" => w(
                "miss-write",
                // Two workers and two traces with the same write
                // fraction, so that every phase keeps both busy: a run
                // with one busy thread drifts with the host's speed
                // modes (README.md, Workloads).
                2,
                &[Design::Unison, Design::Alloy],
                vec![workloads::data_analytics(), workloads::web_serving()],
                &[256 * MIB],
            ),
            _ => return None,
        })
    }

    /// The trace and the nominal cache size (the first trace, the largest
    /// size) the traced run's layer ladder and per-design metrics use.
    pub fn ladder_trace(&self) -> &WorkloadSpec {
        &self.traces[0]
    }

    pub fn ladder_bytes(&self) -> u64 {
        *self.sizes.last().expect("every workload has a size")
    }

    /// The grid users would hand to `Campaign::run_speedups`.
    pub fn grid(&self) -> ScenarioGrid {
        ScenarioGrid::new()
            .designs(self.designs.iter().copied())
            .workloads(self.traces.iter().cloned())
            .sizes(self.sizes.iter().copied())
    }
}

/// The simulation configuration every workload runs under: the paper's
/// Table III system at `--scale 16`, two thirds of each trace as warmup
/// (statistics discarded; caches start empty), and the workload seed.
pub fn config(seed: u64) -> SimConfig {
    SimConfig {
        accesses: ACCESSES,
        warmup_fraction: 2.0 / 3.0,
        system: SystemSpec::default(),
        seed,
        scale: SCALE,
    }
}

/// One simulation a campaign over a grid performs: a design cell or a
/// memoized NoCache baseline.
#[derive(Debug, Clone)]
pub struct Job {
    pub design: Design,
    /// Nominal cache size (0 for baselines, as the baseline store runs).
    pub cache_bytes: u64,
    pub spec: WorkloadSpec,
    /// Warmup + measurement records, `SimConfig::trace_plan(..).total`.
    pub total: u64,
    /// Records the trace store freezes for this run.
    pub frozen_len: u64,
    /// Index of the grid cell this job reproduces, for design cells.
    pub cell: Option<usize>,
}

impl Job {
    pub fn new(design: Design, cache_bytes: u64, spec: &WorkloadSpec, cfg: &SimConfig) -> Job {
        let plan = cfg.trace_plan(spec, cache_bytes);
        Job {
            design,
            cache_bytes,
            spec: spec.clone(),
            total: plan.total,
            frozen_len: plan.frozen_len,
            cell: None,
        }
    }

    /// Records the measurement region holds.
    pub fn measured(&self, cfg: &SimConfig) -> u64 {
        self.total - warmup_records(self.total, cfg)
    }
}

/// Warmup records of a `total`-record run, computed exactly as the
/// simulator's runner does.
pub fn warmup_records(total: u64, cfg: &SimConfig) -> u64 {
    (total as f64 * cfg.warmup_fraction) as u64
}

/// Every simulation `Campaign::run_speedups(grid)` performs under `cfg`:
/// one NoCache baseline per trace, then the grid's cells in grid order.
pub fn jobs(grid: &ScenarioGrid, cfg: &SimConfig) -> Vec<Job> {
    let mut jobs: Vec<Job> = grid
        .baseline_keys(cfg.seed)
        .iter()
        .map(|(spec, _, _)| Job::new(Design::NoCache, 0, spec, cfg))
        .collect();
    for (i, cell) in grid.cells(cfg.seed).iter().enumerate() {
        let mut job = Job::new(cell.design, cell.cache_bytes, &cell.workload, cfg);
        job.cell = Some(i);
        jobs.push(job);
    }
    jobs
}
