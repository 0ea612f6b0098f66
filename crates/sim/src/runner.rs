//! Experiment runner: (design, size, workload) → [`RunResult`].

use serde::{Deserialize, Serialize};
use unison_core::{
    AlloyCache, AlloyConfig, DramCacheModel, FootprintCache, FootprintConfig, IdealCache, NoCache,
    UnisonCache, UnisonConfig,
};
use unison_trace::{artifact_key, TraceArtifact, TraceRecord, WorkloadGen, WorkloadSpec};

use crate::cell_sim::CellSim;
use crate::metrics::RunResult;
use crate::scenario::SystemSpec;

/// The cache designs the experiments compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Design {
    /// Alloy Cache (block-based baseline).
    Alloy,
    /// Footprint Cache (page-based baseline, SRAM tags).
    Footprint,
    /// Unison Cache, 960 B pages, 4-way (the paper's default).
    Unison,
    /// Unison Cache with 1984 B pages (Table V variant).
    Unison1984,
    /// Unison Cache with explicit associativity (Figure 5).
    UnisonAssoc(u32),
    /// The ideal 100%-hit reference.
    Ideal,
    /// No DRAM cache (speedup baseline).
    NoCache,
}

impl Design {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> String {
        match self {
            Design::Alloy => "Alloy".into(),
            Design::Footprint => "Footprint".into(),
            Design::Unison => "Unison".into(),
            Design::Unison1984 => "Unison-1984B".into(),
            Design::UnisonAssoc(w) => format!("Unison-{w}way"),
            Design::Ideal => "Ideal".into(),
            Design::NoCache => "NoCache".into(),
        }
    }

    /// The valid CLI spellings, for error messages.
    pub const VALID_NAMES: &'static str =
        "alloy, footprint, unison, unison1984, unison-<N>way, ideal, nocache";

    /// [`Design::from_name`] with an error that lists the valid names.
    ///
    /// # Errors
    ///
    /// Returns the full valid-name list when `name` matches no design.
    pub fn parse(name: &str) -> Result<Design, String> {
        Self::from_name(name).ok_or_else(|| {
            format!(
                "unknown design {name:?} (valid designs: {})",
                Self::VALID_NAMES
            )
        })
    }

    /// Parses a design from a user-facing name (CLI spelling). Accepts
    /// the display names of [`Design::name`] case-insensitively plus the
    /// shorthands `unison-<N>way` and `unison1984`.
    pub fn from_name(name: &str) -> Option<Design> {
        let lower = name.trim().to_ascii_lowercase();
        match lower.as_str() {
            "alloy" => Some(Design::Alloy),
            "footprint" => Some(Design::Footprint),
            "unison" => Some(Design::Unison),
            "unison1984" | "unison-1984" | "unison-1984b" => Some(Design::Unison1984),
            "ideal" => Some(Design::Ideal),
            "nocache" | "no-cache" | "none" => Some(Design::NoCache),
            _ => {
                let ways = lower.strip_prefix("unison-")?.strip_suffix("way")?;
                // 0 ways would assert deep inside UnisonCache::new; reject
                // it here so CLIs report a clean unknown-design error.
                ways.parse()
                    .ok()
                    .filter(|&w| w >= 1)
                    .map(Design::UnisonAssoc)
            }
        }
    }

    /// Instantiates the design at `cache_bytes` on the default system.
    pub fn build(&self, cache_bytes: u64) -> Box<dyn DramCacheModel> {
        self.build_scaled(cache_bytes, cache_bytes, &SystemSpec::default())
    }

    /// The Unison-family cache geometry this design runs under `system`:
    /// the scenario's overrides fill whatever the design variant does not
    /// itself pin (`Unison1984` keeps its 1984 B pages, `UnisonAssoc`
    /// its way count), and the paper defaults fill the rest. Plain
    /// `Design::Unison` takes all three knobs from the scenario.
    fn unison_config(&self, scaled_bytes: u64, system: &SystemSpec) -> UnisonConfig {
        let base = UnisonConfig::new(scaled_bytes);
        let page_blocks = system
            .page_blocks()
            .unwrap_or(crate::scenario::DEFAULT_PAGE_BYTES / 64);
        let ways = system.ways.unwrap_or(crate::scenario::DEFAULT_WAYS);
        let policy = system.way_policy.unwrap_or(base.way_policy);
        let cfg = base
            .with_page_blocks(page_blocks)
            .with_assoc(ways)
            .with_way_policy(policy);
        match self {
            Design::Unison1984 => cfg.with_page_blocks(31),
            Design::UnisonAssoc(w) => cfg.with_assoc(*w),
            _ => cfg,
        }
    }

    /// The page size (bytes), ways, and way policy this design **actually
    /// runs** under `system` — the design variant's pinned knobs win over
    /// the scenario's overrides, exactly as [`Design::build_scaled`]
    /// resolves them. `None` for designs the geometry knobs do not apply
    /// to (Alloy, Footprint, Ideal, NoCache). Result sinks use this so
    /// their geometry columns describe the simulated cache, not merely
    /// the requested overrides.
    pub fn unison_geometry(
        &self,
        system: &SystemSpec,
    ) -> Option<(u32, u32, unison_core::WayPolicy)> {
        match self {
            Design::Unison | Design::Unison1984 | Design::UnisonAssoc(_) => {
                // The three knobs are capacity-independent; the size fed
                // here never reaches the caller.
                let cfg = self.unison_config(1 << 20, system);
                Some((cfg.page_blocks * 64, cfg.assoc, cfg.way_policy))
            }
            _ => None,
        }
    }

    /// Instantiates the design at the *scaled* capacity while deriving
    /// size-dependent structures (Footprint Cache's SRAM tag latency, the
    /// way-predictor sizing rule) from the *nominal* paper-labeled size —
    /// those latencies are the effect under study and must not shrink
    /// with the fast-run scale factor. Cache-geometry overrides come from
    /// `system` ([`SystemSpec`]); they apply to the Unison family (page
    /// size, ways, way policy) and leave the block-based Alloy and the
    /// SRAM-tag Footprint baselines at their published organizations.
    pub fn build_scaled(
        &self,
        scaled_bytes: u64,
        nominal_bytes: u64,
        system: &SystemSpec,
    ) -> Box<dyn DramCacheModel> {
        match self {
            Design::Alloy => Box::new(AlloyCache::new(AlloyConfig::new(scaled_bytes))),
            Design::Footprint => Box::new(FootprintCache::new(
                FootprintConfig::new(scaled_bytes).with_nominal(nominal_bytes),
            )),
            Design::Unison | Design::Unison1984 | Design::UnisonAssoc(_) => {
                Box::new(UnisonCache::new(
                    self.unison_config(scaled_bytes, system)
                        .with_nominal(nominal_bytes),
                ))
            }
            Design::Ideal => Box::new(IdealCache::new(scaled_bytes)),
            Design::NoCache => Box::new(NoCache::new()),
        }
    }
}

/// Simulation-scale parameters shared by all experiments, plus the
/// [`SystemSpec`] naming the machine the experiment simulates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Total trace records per run (warmup + measurement).
    pub accesses: u64,
    /// Fraction of records used for warmup (statistics discarded). The
    /// paper uses two thirds of each trace (§IV-A).
    pub warmup_fraction: f64,
    /// The simulated machine: core count/model, cache geometry
    /// overrides, DRAM device presets. [`SystemSpec::default`] is the
    /// paper's Table III system.
    pub system: SystemSpec,
    /// Trace seed.
    pub seed: u64,
    /// Divide workload footprints *and* cache sizes by this factor to
    /// trade fidelity for runtime; shapes are preserved because cache
    /// and working set shrink together (see DESIGN.md §4).
    pub scale: u64,
}

impl SimConfig {
    /// Full-fidelity defaults (slow; used for final EXPERIMENTS.md runs).
    pub fn full() -> Self {
        SimConfig {
            accesses: 24_000_000,
            warmup_fraction: 2.0 / 3.0,
            system: SystemSpec::default(),
            seed: 42,
            scale: 1,
        }
    }

    /// Bench defaults: ÷8 scale, enough accesses for steady state at the
    /// scaled sizes.
    pub fn bench_default() -> Self {
        SimConfig {
            accesses: 6_000_000,
            warmup_fraction: 2.0 / 3.0,
            system: SystemSpec::default(),
            seed: 42,
            scale: 8,
        }
    }

    /// Tiny runs for unit/integration tests.
    pub fn quick_test() -> Self {
        SimConfig {
            accesses: 120_000,
            warmup_fraction: 0.5,
            system: SystemSpec::default(),
            seed: 42,
            scale: 64,
        }
    }

    /// Applies the scale factor to a nominal (paper-labeled) cache size.
    pub fn scaled_cache_bytes(&self, nominal: u64) -> u64 {
        (nominal / self.scale).max(1 << 20)
    }

    /// Trace length for a run against a cache of `scaled_bytes`: at least
    /// the configured floor, and enough that the warmup region can fill
    /// the cache about twice over (≈ one 64 B block fetched per access),
    /// so the measurement region sees steady-state behaviour.
    pub fn accesses_for(&self, scaled_bytes: u64) -> u64 {
        self.accesses.max(3 * scaled_bytes / 64)
    }

    /// The trace a run of nominal `cache_bytes` over `spec` requires —
    /// the **single source of truth** both for the cell engine's record
    /// budget and for trace-artifact stores deciding what to freeze.
    ///
    /// The system spec's core-count override is applied *before* scaling,
    /// so the scaled spec (and therefore every artifact key and baseline
    /// memo key derived from it) reflects the machine actually simulated:
    /// scenarios differing in core count never share a trace.
    pub fn trace_plan(&self, spec: &WorkloadSpec, cache_bytes: u64) -> TracePlan {
        let scaled_spec = self.system.effective_workload(spec).scaled(self.scale);
        let total = self.accesses_for(self.scaled_cache_bytes(cache_bytes));
        TracePlan {
            scaled_spec,
            total,
            frozen_len: total + replay_lookahead(total),
        }
    }
}

/// Read-ahead margin frozen into artifacts beyond the consumed total.
///
/// The dispatch loop pulls records past the ones it consumes: refilling
/// one core's buffer stashes records for other cores, and whatever is
/// buffered when the warmup phase ends is dropped at the measurement
/// boundary — while still advancing the stream position. Live generation
/// is infinite so this is invisible; a frozen artifact must cover the
/// overshoot or replay runs dry near the end.
///
/// The overshoot is how far the per-core *stream* positions skew, which
/// tracks how far the core *clocks* skew: a core stuck in a stall-heavy
/// phase consumes slowly in issue-time order while round-robin refills
/// keep buffering the fast cores — observed at ~0.2% of a 9 M-record
/// TPC-H run. The margin is a 16 Ki floor plus 1/32nd of the consumed
/// total (~15× the observed skew). It is a *provisioning* knob, not a
/// correctness bound: the replay cursor falls back to generating the
/// tail live if the margin is ever exceeded (bit-identical either way).
pub fn replay_lookahead(total: u64) -> u64 {
    16_384 + total / 32
}

/// The trace requirements of one experiment run (see
/// [`SimConfig::trace_plan`]).
#[derive(Debug, Clone)]
pub struct TracePlan {
    /// The workload spec the generator actually runs with (footprint
    /// scaled down by `cfg.scale`).
    pub scaled_spec: WorkloadSpec,
    /// Records the run consumes (warmup + measurement).
    pub total: u64,
    /// Records an artifact should hold to replay the run without
    /// touching the generator: [`Self::total`] plus
    /// [`replay_lookahead`].
    pub frozen_len: u64,
}

impl TracePlan {
    /// The artifact for generating this plan's trace live under `seed`:
    /// zero records, so the cell engine's cursor generates from record 0.
    pub fn live(&self, seed: u64) -> TraceArtifact {
        TraceArtifact::freeze(&self.scaled_spec, seed, 0)
    }
}

/// Replay cursor with a lazy live-generation tail — the one record
/// source of the cell engine.
///
/// The hot path is one inlined [`unison_trace::TraceReplay`] read plus a
/// predictable branch. Past the frozen records the cold path constructs
/// a [`WorkloadGen`] and advances it to the artifact's end position, so
/// the stream continues bit-identically to live generation however far
/// the dispatch loop reads ahead. A zero-record artifact therefore *is*
/// live generation: the tail starts at record zero.
pub(crate) struct ReplayWithTail<'a> {
    pub(crate) replay: unison_trace::TraceReplay<'a>,
    /// Owned so long-lived consumers (batched [`crate::CellSim`]s) only
    /// borrow the artifact, not a stack-local trace plan.
    pub(crate) scaled_spec: WorkloadSpec,
    pub(crate) seed: u64,
    /// Records the artifact holds — the stream position the tail
    /// generator must resume from.
    pub(crate) frozen: usize,
    pub(crate) tail: Option<WorkloadGen>,
}

impl ReplayWithTail<'_> {
    #[cold]
    #[inline(never)]
    fn tail_next(&mut self) -> Option<TraceRecord> {
        let tail = self.tail.get_or_insert_with(|| {
            let mut gen = WorkloadGen::new(self.scaled_spec.clone(), self.seed);
            for _ in 0..self.frozen {
                gen.next();
            }
            gen
        });
        tail.next()
    }
}

impl Iterator for ReplayWithTail<'_> {
    type Item = TraceRecord;

    #[inline]
    fn next(&mut self) -> Option<TraceRecord> {
        match self.replay.next() {
            Some(r) => Some(r),
            None => self.tail_next(),
        }
    }
}

/// Builds the replay-with-tail cursor for `artifact` after validating it
/// against the run's trace `plan`.
///
/// # Panics
///
/// Panics if the artifact was frozen from a different
/// `(scaled spec, seed)`, or holds records but fewer than
/// `plan.frozen_len` — either would silently change results or defeat
/// the store's provisioning. A zero-record artifact is accepted as live
/// generation.
pub(crate) fn replay_with_tail<'a>(
    artifact: &'a TraceArtifact,
    plan: &TracePlan,
    spec: &WorkloadSpec,
    cfg: &SimConfig,
) -> ReplayWithTail<'a> {
    assert_eq!(
        artifact.key(),
        artifact_key(&plan.scaled_spec, cfg.seed),
        "trace artifact was frozen for a different (scaled spec, seed) than \
         this run of '{}' (seed {}, scale 1/{}) requires",
        spec.name,
        cfg.seed,
        cfg.scale,
    );
    assert!(
        artifact.is_empty() || artifact.len() as u64 >= plan.frozen_len,
        "trace artifact for '{}' holds {} records but this run plans for {} \
         ({} consumed + read-ahead margin); the trace store must freeze \
         TracePlan::frozen_len",
        spec.name,
        artifact.len(),
        plan.frozen_len,
        plan.total,
    );
    ReplayWithTail {
        replay: artifact.replay(),
        scaled_spec: plan.scaled_spec.clone(),
        seed: cfg.seed,
        frozen: artifact.len(),
        tail: None,
    }
}

/// Runs one experiment: `design` at nominal `cache_bytes` (scaled per
/// `cfg`) over `spec` (footprint scaled likewise), generating the trace
/// live — a [`CellSim`] over a zero-record artifact, run to completion.
///
/// The returned [`RunResult`] reports the *nominal* cache size.
pub fn run_experiment(
    design: Design,
    cache_bytes: u64,
    spec: &WorkloadSpec,
    cfg: &SimConfig,
) -> RunResult {
    let live = cfg.trace_plan(spec, cache_bytes).live(cfg.seed);
    CellSim::new(design, cache_bytes, spec, cfg, &live).finish()
}

/// A design's result paired with its speedup over the no-cache baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpeedupResult {
    /// The design's run.
    pub run: RunResult,
    /// `design UIPC / NoCache UIPC` — the y-axis of Figures 7 and 8.
    pub speedup: f64,
}

/// Asserts `baseline` is usable as a speedup denominator — the single
/// definition of "degenerate baseline" shared by [`run_speedup`] and
/// campaign cells.
///
/// # Panics
///
/// Panics if `baseline.uipc` is zero, negative, or non-finite: dividing
/// by a degenerate baseline would silently turn every speedup into
/// `inf`/`NaN` and poison downstream geomeans. A NoCache run that retires
/// no instructions indicates a broken trace or configuration and must be
/// surfaced, not averaged away.
pub fn check_baseline(baseline: &RunResult) {
    assert!(
        baseline.uipc.is_finite() && baseline.uipc > 0.0,
        "degenerate NoCache baseline for '{}' (uipc = {}): speedups against it would be \
         inf/NaN; check the baseline run (zero measured instructions? empty trace?)",
        baseline.workload,
        baseline.uipc,
    );
}

/// Runs `design` and the no-cache baseline under identical conditions
/// and returns the speedup.
///
/// Convenience for one-off comparisons: each call re-simulates the
/// baseline. Sweeps over multiple designs or sizes should drive the grid
/// through `unison_harness::Campaign::run_speedups`, which simulates one
/// baseline per `(workload, system, seed)` and shares it.
pub fn run_speedup(
    design: Design,
    cache_bytes: u64,
    spec: &WorkloadSpec,
    cfg: &SimConfig,
) -> SpeedupResult {
    let base = run_experiment(Design::NoCache, 0, spec, cfg);
    check_baseline(&base);
    let run = run_experiment(design, cache_bytes, spec, cfg);
    SpeedupResult {
        speedup: run.uipc / base.uipc,
        run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unison_trace::workloads;

    /// One replayed run of `design` over `artifact`, to completion.
    fn replayed(
        design: Design,
        size: u64,
        w: &WorkloadSpec,
        cfg: &SimConfig,
        artifact: &TraceArtifact,
    ) -> RunResult {
        CellSim::new(design, size, w, cfg, artifact).finish()
    }

    #[test]
    fn design_names_are_stable() {
        assert_eq!(Design::Unison.name(), "Unison");
        assert_eq!(Design::UnisonAssoc(32).name(), "Unison-32way");
    }

    #[test]
    fn design_names_round_trip_through_from_name() {
        for d in [
            Design::Alloy,
            Design::Footprint,
            Design::Unison,
            Design::Unison1984,
            Design::UnisonAssoc(32),
            Design::Ideal,
            Design::NoCache,
        ] {
            assert_eq!(Design::from_name(&d.name()), Some(d), "{}", d.name());
        }
        assert_eq!(Design::from_name("UNISON"), Some(Design::Unison));
        assert_eq!(Design::from_name("bogus"), None);
        assert_eq!(Design::from_name("unison-0way"), None, "0 ways is invalid");
    }

    #[test]
    fn speedup_divides_by_the_nocache_run() {
        let cfg = SimConfig::quick_test();
        let w = workloads::data_serving();
        let base = run_experiment(Design::NoCache, 0, &w, &cfg);
        let ideal = run_experiment(Design::Ideal, 1 << 30, &w, &cfg);
        let s = run_speedup(Design::Ideal, 1 << 30, &w, &cfg);
        assert_eq!(s.speedup.to_bits(), (ideal.uipc / base.uipc).to_bits());
    }

    #[test]
    fn quick_experiment_produces_sane_results() {
        let cfg = SimConfig::quick_test();
        let r = run_experiment(Design::Unison, 128 << 20, &workloads::web_search(), &cfg);
        assert_eq!(r.design, "Unison");
        assert!(r.uipc > 0.0 && r.uipc < 64.0);
        assert!(r.cache.accesses > 0);
        assert!(r.cache.miss_ratio() < 1.0);
        assert!(r.measured_accesses > 0);
    }

    #[test]
    fn warmup_region_is_excluded_from_stats() {
        let cfg = SimConfig::quick_test();
        let r = run_experiment(Design::Alloy, 128 << 20, &workloads::web_serving(), &cfg);
        let expected = cfg.accesses - (cfg.accesses as f64 * cfg.warmup_fraction) as u64;
        assert_eq!(r.cache.accesses, expected);
    }

    #[test]
    fn speedup_of_ideal_exceeds_one() {
        let cfg = SimConfig::quick_test();
        let s = run_speedup(Design::Ideal, 1 << 30, &workloads::data_serving(), &cfg);
        assert!(
            s.speedup > 1.0,
            "ideal cache must beat no cache, got {}",
            s.speedup
        );
    }

    #[test]
    fn scaled_cache_sizes_have_floor() {
        let cfg = SimConfig::quick_test();
        assert_eq!(cfg.scaled_cache_bytes(64 << 20), 1 << 20);
    }

    #[test]
    fn trace_plan_matches_run_experiment_inputs() {
        let cfg = SimConfig::quick_test();
        let w = workloads::tpch();
        let plan = cfg.trace_plan(&w, 512 << 20);
        assert_eq!(plan.scaled_spec, w.clone().scaled(cfg.scale));
        assert_eq!(
            plan.total,
            cfg.accesses_for(cfg.scaled_cache_bytes(512 << 20))
        );
        assert_eq!(plan.frozen_len, plan.total + replay_lookahead(plan.total));
        assert!(
            plan.frozen_len - plan.total >= 16_384 + plan.total / 32,
            "margin must scale with the trace length"
        );
    }

    /// The read-ahead safety net: an artifact covering the planned
    /// margin minimally is still bit-identical even if the dispatch
    /// loop's warmup-boundary drop eats into it — the stream chains
    /// into lazy live generation at the exact frozen position.
    #[test]
    fn replay_tail_fallback_is_bit_identical() {
        let cfg = SimConfig::quick_test();
        let w = workloads::web_serving();
        let size = 128 << 20;
        let plan = cfg.trace_plan(&w, size);
        // Freeze the bare minimum the assert allows; the boundary drop
        // then forces the chained generator tail into play for the last
        // records of the measurement phase on some designs.
        let minimal = TraceArtifact::freeze(&plan.scaled_spec, cfg.seed, plan.frozen_len);
        // And a comfortably oversized one that never needs the tail.
        let oversized =
            TraceArtifact::freeze(&plan.scaled_spec, cfg.seed, plan.frozen_len + 100_000);
        let a = replayed(Design::Alloy, size, &w, &cfg, &minimal);
        let b = replayed(Design::Alloy, size, &w, &cfg, &oversized);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "artifact length above the required minimum must never affect results"
        );
    }

    #[test]
    fn replay_source_is_bit_identical_to_live() {
        let cfg = SimConfig::quick_test();
        let w = workloads::web_serving();
        let size = 128 << 20;
        let plan = cfg.trace_plan(&w, size);
        let artifact = TraceArtifact::freeze(&plan.scaled_spec, cfg.seed, plan.frozen_len);

        let live = run_experiment(Design::Unison, size, &w, &cfg);
        let replayed = replayed(Design::Unison, size, &w, &cfg, &artifact);
        assert_eq!(
            serde_json::to_string(&live).unwrap(),
            serde_json::to_string(&replayed).unwrap(),
            "replay must reproduce live generation bit for bit"
        );
    }

    #[test]
    #[should_panic(expected = "different (scaled spec, seed)")]
    fn replay_rejects_wrong_artifact() {
        let cfg = SimConfig::quick_test();
        let w = workloads::web_serving();
        let plan = cfg.trace_plan(&w, 128 << 20);
        let wrong_seed = TraceArtifact::freeze(&plan.scaled_spec, cfg.seed + 1, plan.frozen_len);
        let _ = replayed(Design::Unison, 128 << 20, &w, &cfg, &wrong_seed);
    }

    #[test]
    #[should_panic(expected = "different (scaled spec, seed)")]
    fn live_rejects_wrong_seed() {
        let cfg = SimConfig::quick_test();
        let w = workloads::web_serving();
        let plan = cfg.trace_plan(&w, 128 << 20);
        let wrong_seed = plan.live(cfg.seed + 1);
        let _ = CellSim::new(Design::Unison, 128 << 20, &w, &cfg, &wrong_seed);
    }

    #[test]
    #[should_panic(expected = "records but this run plans for")]
    fn replay_rejects_short_artifact() {
        let cfg = SimConfig::quick_test();
        let w = workloads::web_serving();
        let plan = cfg.trace_plan(&w, 128 << 20);
        let short = TraceArtifact::freeze(&plan.scaled_spec, cfg.seed, plan.total / 2);
        let _ = replayed(Design::Unison, 128 << 20, &w, &cfg, &short);
    }

    #[test]
    #[should_panic(expected = "degenerate NoCache baseline")]
    fn zero_uipc_baseline_is_rejected() {
        let cfg = SimConfig::quick_test();
        let mut baseline = run_experiment(Design::NoCache, 0, &workloads::data_serving(), &cfg);
        baseline.uipc = 0.0;
        check_baseline(&baseline);
    }

    #[test]
    #[should_panic(expected = "degenerate NoCache baseline")]
    fn non_finite_baseline_is_rejected() {
        let cfg = SimConfig::quick_test();
        let mut baseline = run_experiment(Design::NoCache, 0, &workloads::data_serving(), &cfg);
        baseline.uipc = f64::NAN;
        check_baseline(&baseline);
    }
}
