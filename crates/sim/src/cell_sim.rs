//! The cell engine: one experiment cell simulated as a resumable
//! warmup → measurement state machine.
//!
//! [`CellSim`] is the **only** simulation engine. A one-shot run is
//! [`CellSim::finish`] (a single `step(u64::MAX)`); a campaign batch
//! steps a group of cells that replay the **same** frozen
//! [`TraceArtifact`] round-robin in small record budgets, so their
//! replay cursors walk the region of the artifact that is already hot in
//! cache. Live generation is the same replay cursor over a zero-record
//! artifact: the cursor falls straight through to its lazily built
//! generator tail at record zero. Stepping with any budget schedule is
//! bit-identical to one `step(u64::MAX)` (pinned by
//! `ragged_stepping_matches_one_step_for_every_design`).
//!
//! The warmup/measurement boundary starts a fresh dispatch session,
//! dropping whatever records the warmup phase had buffered (the stream
//! position still advances past them). The golden fixtures were captured
//! with that behaviour.

use unison_core::{DramCacheModel, NoCache};
use unison_trace::{TraceArtifact, WorkloadSpec};

use crate::metrics::RunResult;
use crate::runner::{replay_with_tail, Design, ReplayWithTail, SimConfig};
use crate::system::{DispatchSession, Progress, System};

/// Where a [`CellSim`] is in the warmup → measurement → done lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warmup,
    Measurement,
    Done,
}

/// One experiment cell being simulated incrementally against a borrowed
/// trace artifact.
///
/// Generic over the cache model, as [`System`] is. [`CellSim::new`]
/// builds the design boxed (`Box<dyn DramCacheModel>`), which is how
/// campaign batches hold heterogeneous cells; [`CellSim::with_cache`]
/// takes a caller-built model, such as an ablation's instrumented
/// wrapper; [`CellSim::baseline`] runs a concrete `NoCache`.
///
/// Borrows **only** the artifact (the trace plan's scaled spec is cloned
/// into the replay cursor), so a batch driver can hold many `CellSim`s
/// against `Arc`-shared artifacts without self-referential lifetimes.
///
/// # Construction panics
///
/// Construction validates the artifact: it must have been frozen from
/// this cell's `(scaled spec, seed)` and either cover the planned
/// `frozen_len` or hold zero records (live generation).
pub struct CellSim<'a, C = Box<dyn DramCacheModel>> {
    design: Design,
    cache_bytes: u64,
    workload: String,
    sys: System<C>,
    trace: ReplayWithTail<'a>,
    session: DispatchSession,
    phase: Phase,
    /// Records consumed so far within the current phase.
    done_in_phase: u64,
    warmup: u64,
    total: u64,
    before: Progress,
    after: Progress,
}

impl<'a> CellSim<'a> {
    /// Sets up the cell with `design` built boxed at the scaled
    /// capacity: builds the system, validates `artifact` against the
    /// run's trace plan, and positions the replay cursor at record zero.
    /// No records are consumed yet.
    pub fn new(
        design: Design,
        cache_bytes: u64,
        spec: &WorkloadSpec,
        cfg: &SimConfig,
        artifact: &'a TraceArtifact,
    ) -> Self {
        let cache = design.build_scaled(
            cfg.scaled_cache_bytes(cache_bytes),
            cache_bytes.max(1),
            &cfg.system,
        );
        Self::with_cache(cache, design, cache_bytes, spec, cfg, artifact)
    }
}

impl<'a> CellSim<'a, NoCache> {
    /// The NoCache speedup baseline (cache size 0) on the concrete
    /// `NoCache` type, so the cheapest design's access path inlines into
    /// the dispatch loop.
    pub fn baseline(spec: &WorkloadSpec, cfg: &SimConfig, artifact: &'a TraceArtifact) -> Self {
        Self::with_cache(NoCache::new(), Design::NoCache, 0, spec, cfg, artifact)
    }
}

impl<'a, C: DramCacheModel> CellSim<'a, C> {
    /// [`CellSim::new`] over a caller-built `cache` at this cell's scaled
    /// capacity; `design` only names the result.
    pub fn with_cache(
        cache: C,
        design: Design,
        cache_bytes: u64,
        spec: &WorkloadSpec,
        cfg: &SimConfig,
        artifact: &'a TraceArtifact,
    ) -> Self {
        let plan = cfg.trace_plan(spec, cache_bytes);
        let trace = replay_with_tail(artifact, &plan, spec, cfg);
        let sys = System::new(
            cfg.system.resolved_cores(spec) as usize,
            cache,
            cfg.system.mem_ports(),
            cfg.system.core,
        );
        let total = plan.total;
        CellSim {
            design,
            cache_bytes,
            workload: spec.name.to_string(),
            sys,
            trace,
            session: DispatchSession::new(),
            phase: Phase::Warmup,
            done_in_phase: 0,
            warmup: (total as f64 * cfg.warmup_fraction) as u64,
            total,
            before: Progress::default(),
            after: Progress::default(),
        }
    }

    /// The cache model being simulated.
    pub fn cache(&self) -> &C {
        self.sys.cache()
    }

    /// Whether both phases have run to completion.
    pub fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// Records still to be consumed across the remaining phases.
    pub fn remaining(&self) -> u64 {
        match self.phase {
            Phase::Warmup => self.total - self.done_in_phase,
            Phase::Measurement => (self.total - self.warmup) - self.done_in_phase,
            Phase::Done => 0,
        }
    }

    /// Advances the simulation by up to `budget` records, crossing the
    /// warmup/measurement boundary mid-step if the budget spans it
    /// (snapshotting progress, resetting statistics, and starting a
    /// fresh dispatch session). Returns the records actually consumed —
    /// less than `budget` only once the cell finishes.
    ///
    /// # Panics
    ///
    /// Panics if the trace runs dry before a phase completes. (The
    /// replay cursor chains into live tail generation, so this indicates
    /// a genuinely broken source, not an undersized artifact.)
    pub fn step(&mut self, budget: u64) -> u64 {
        let mut consumed = 0u64;
        while consumed < budget && self.phase != Phase::Done {
            let phase_total = match self.phase {
                Phase::Warmup => self.warmup,
                Phase::Measurement => self.total - self.warmup,
                Phase::Done => unreachable!(),
            };
            let want = (budget - consumed).min(phase_total - self.done_in_phase);
            if want > 0 {
                let got = self
                    .sys
                    .run_session(&mut self.session, &mut self.trace, want);
                self.done_in_phase += got;
                consumed += got;
                if got < want {
                    match self.phase {
                        Phase::Warmup => panic!(
                            "trace for '{}' ran dry during warmup ({} of {} records)",
                            self.workload, self.done_in_phase, self.warmup,
                        ),
                        _ => panic!("trace for '{}' ran dry during measurement", self.workload,),
                    }
                }
            }
            if self.done_in_phase == phase_total {
                match self.phase {
                    Phase::Warmup => {
                        self.before = self.sys.progress();
                        self.sys.reset_measurement();
                        // Fresh session: whatever records the warmup
                        // phase had buffered are dropped (the stream
                        // position stays past them), as the golden
                        // fixtures were captured.
                        self.session = DispatchSession::new();
                        self.phase = Phase::Measurement;
                    }
                    Phase::Measurement => {
                        self.after = self.sys.progress();
                        self.phase = Phase::Done;
                    }
                    Phase::Done => unreachable!(),
                }
                self.done_in_phase = 0;
            }
        }
        consumed
    }

    /// Runs the cell to completion in one step and returns its result:
    /// the one-shot form of the engine.
    pub fn finish(mut self) -> RunResult {
        self.step(u64::MAX);
        self.into_result()
    }

    /// Finalizes a completed cell into its [`RunResult`]. UIPC and the
    /// statistics cover the measurement phase only.
    ///
    /// # Panics
    ///
    /// Panics if the cell has not been stepped to completion.
    pub fn into_result(self) -> RunResult {
        assert!(
            self.phase == Phase::Done,
            "CellSim for '{}' finalized before completion",
            self.workload,
        );
        let (before, after) = (self.before, self.after);
        let instructions = after.instructions - before.instructions;
        let elapsed_ps = after.elapsed_ps.saturating_sub(before.elapsed_ps).max(1);
        // UIPC at 3 GHz: instructions / cycles, cycles = ps * 3 / 1000.
        let cycles = (elapsed_ps * 3) as f64 / 1000.0;
        let (cache, mem) = self.sys.into_parts();
        RunResult {
            design: self.design.name(),
            workload: self.workload,
            cache_bytes: self.cache_bytes,
            measured_accesses: self.total - self.warmup,
            instructions,
            elapsed_ps,
            uipc: instructions as f64 / cycles,
            cache: *cache.stats(),
            stacked: *mem.stacked.stats(),
            offchip: *mem.offchip.stats(),
            stacked_energy: *mem.stacked.energy(),
            offchip_energy: *mem.offchip.energy(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unison_trace::workloads;

    /// Stepping a `CellSim` with ragged budgets (straddling the
    /// warmup/measurement boundary mid-step) must reproduce one
    /// `step(u64::MAX)` bit for bit, for every design, on both a
    /// replayed artifact and the zero-record live cursor.
    #[test]
    fn ragged_stepping_matches_one_step_for_every_design() {
        let cfg = SimConfig::quick_test();
        let w = workloads::web_serving();
        let size = 128 << 20;
        let plan = cfg.trace_plan(&w, size);
        let replay = TraceArtifact::freeze(&plan.scaled_spec, cfg.seed, plan.frozen_len);
        let live = plan.live(cfg.seed);

        for (source, artifact) in [("replay", &replay), ("live", &live)] {
            for design in [
                Design::Alloy,
                Design::Footprint,
                Design::Unison,
                Design::Unison1984,
                Design::UnisonAssoc(32),
                Design::Ideal,
                Design::NoCache,
            ] {
                let one_step = CellSim::new(design, size, &w, &cfg, artifact).finish();

                let mut cell = CellSim::new(design, size, &w, &cfg, artifact);
                // Ragged budget schedule, including a big chunk that
                // crosses the phase boundary inside one step() call.
                let mut budgets = [1u64, 17, 5_000, 50_000, 999].iter().cycle();
                while !cell.is_done() {
                    cell.step(*budgets.next().unwrap());
                }
                assert_eq!(cell.step(1_000), 0, "a done cell consumes nothing");
                let stepped = cell.into_result();

                assert_eq!(
                    serde_json::to_string(&stepped).unwrap(),
                    serde_json::to_string(&one_step).unwrap(),
                    "{design:?} over {source}: ragged stepping diverged from one step"
                );
            }
        }
    }

    /// A concrete cache model and the boxed one the batch path builds
    /// simulate identically.
    #[test]
    fn concrete_nocache_matches_boxed() {
        let cfg = SimConfig::quick_test();
        let w = workloads::web_search();
        let plan = cfg.trace_plan(&w, 0);
        let artifact = TraceArtifact::freeze(&plan.scaled_spec, cfg.seed, plan.frozen_len);
        let boxed = CellSim::new(Design::NoCache, 0, &w, &cfg, &artifact).finish();
        let concrete = CellSim::baseline(&w, &cfg, &artifact).finish();
        assert_eq!(
            serde_json::to_string(&boxed).unwrap(),
            serde_json::to_string(&concrete).unwrap()
        );
    }

    #[test]
    fn remaining_counts_down_to_zero() {
        let cfg = SimConfig::quick_test();
        let w = workloads::web_search();
        let size = 128 << 20;
        let plan = cfg.trace_plan(&w, size);
        let artifact = TraceArtifact::freeze(&plan.scaled_spec, cfg.seed, plan.frozen_len);
        let mut cell = CellSim::new(Design::Alloy, size, &w, &cfg, &artifact);
        let mut last = cell.remaining();
        assert!(last > 0);
        while !cell.is_done() {
            cell.step(30_000);
            assert!(cell.remaining() <= last);
            last = cell.remaining();
        }
        assert_eq!(cell.remaining(), 0);
    }
}
