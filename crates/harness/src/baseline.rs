//! Memoized baseline runs.
//!
//! Speedups are measured against the NoCache baseline, which depends only
//! on `(workload, system spec, seed, SimConfig)` — never on the design or
//! cache size under test. A 4-design × 4-size sweep therefore needs
//! **one** baseline simulation per `(workload, scenario)`, not sixteen;
//! this store provides exactly-once computation with cheap cached reads,
//! safe to share across the worker pool.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use unison_sim::{CellSim, RunResult, SimConfig, SystemSpec};
use unison_trace::WorkloadSpec;

use crate::trace_store::{artifact_for, TraceStore};

/// Memo key: (serialized workload spec, serialized system spec, seed).
type BaselineKey = (String, String, u64);

/// The store's memo key for `(spec, system, seed)` — also how the task
/// planner dedupes baseline tasks, so "one baseline task per key" in the
/// plan is exactly "one simulation per key" in the store.
///
/// Keyed on the *full* spec encodings, not display names: two specs
/// sharing a name but differing in parameters (e.g. a workload and its
/// `scaled()` variant, or two scenarios differing only in core count or
/// DRAM preset) must not share a baseline. The core-count override is
/// normalized into the workload half of the key (the same way
/// trace-artifact keys see it), so `cores: Some(16)` and `cores: None` —
/// the identical machine for a 16-core workload — share one baseline
/// instead of simulating it twice.
pub(crate) fn baseline_key(spec: &WorkloadSpec, system: &SystemSpec, seed: u64) -> BaselineKey {
    let wkey =
        serde_json::to_string(&system.effective_workload(spec)).expect("workload spec serializes");
    let skey = {
        let mut sans_cores = *system;
        sans_cores.cores = None;
        serde_json::to_string(&sans_cores).expect("system spec serializes")
    };
    (wkey, skey, seed)
}

/// Exactly-once cache of NoCache baseline runs keyed by the **full
/// serialized workload spec**, the **full serialized system spec**, and
/// the seed — two requests that share display names but differ in any
/// parameter (a scaled workload variant, a different core count, another
/// DRAM preset) get distinct baselines.
pub struct BaselineStore {
    cfg: SimConfig,
    traces: Option<Arc<TraceStore>>,
    cells: Mutex<HashMap<BaselineKey, Arc<OnceLock<RunResult>>>>,
    computed: AtomicUsize,
    hits: AtomicUsize,
}

impl BaselineStore {
    /// Creates an empty store; baselines run under `cfg` (with the seed
    /// and system spec overridden per request).
    pub fn new(cfg: SimConfig) -> Self {
        BaselineStore {
            cfg,
            traces: None,
            cells: Mutex::new(HashMap::new()),
            computed: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
        }
    }

    /// Routes baseline simulations through `traces`: the NoCache run
    /// replays the workload's shared frozen artifact instead of
    /// regenerating the stream (bit-identical either way).
    pub fn with_traces(mut self, traces: Arc<TraceStore>) -> Self {
        self.traces = Some(traces);
        self
    }

    /// Returns the baseline run for `(spec, seed)` on the store config's
    /// own system spec. Campaigns sweeping a scenario axis must use
    /// [`Self::get_for_system`].
    pub fn get(&self, spec: &WorkloadSpec, seed: u64) -> RunResult {
        self.get_for_system(spec, &self.cfg.system, seed)
    }

    /// Returns the baseline run for `(spec, system, seed)`, simulating it
    /// on first request and serving the memoized result afterwards.
    ///
    /// Concurrent first requests block on the in-flight simulation
    /// (`OnceLock` semantics) — the simulation still runs exactly once.
    pub fn get_for_system(&self, spec: &WorkloadSpec, system: &SystemSpec, seed: u64) -> RunResult {
        let cell = {
            let mut map = self.cells.lock().expect("baseline map poisoned");
            Arc::clone(
                map.entry(baseline_key(spec, system, seed))
                    .or_insert_with(|| Arc::new(OnceLock::new())),
            )
        };
        let mut ran_here = false;
        let result = cell.get_or_init(|| {
            ran_here = true;
            self.computed.fetch_add(1, Ordering::Relaxed);
            let mut cfg = self.cfg;
            cfg.seed = seed;
            cfg.system = *system;
            let plan = cfg.trace_plan(spec, 0);
            let artifact = artifact_for(self.traces.as_deref(), &plan, seed);
            CellSim::baseline(spec, &cfg, &artifact).finish()
        });
        if !ran_here {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        result.clone()
    }

    /// Number of baseline simulations actually executed.
    pub fn computed_runs(&self) -> usize {
        self.computed.load(Ordering::Relaxed)
    }

    /// Number of requests served from the cache without simulating.
    pub fn cache_hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unison_dram::DramPreset;
    use unison_trace::workloads;

    #[test]
    fn memoizes_and_returns_identical_results() {
        let store = BaselineStore::new(SimConfig::quick_test());
        let spec = workloads::web_search();
        let a = store.get(&spec, 42);
        let b = store.get(&spec, 42);
        assert_eq!(store.computed_runs(), 1, "second get must not re-simulate");
        assert_eq!(store.cache_hits(), 1);
        // Identical cached result, bit for bit.
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn same_name_different_params_are_distinct_cells() {
        let store = BaselineStore::new(SimConfig::quick_test());
        let spec = workloads::web_search();
        let shrunk = spec.clone().scaled(4); // same display name, new params
        store.get(&spec, 42);
        store.get(&shrunk, 42);
        assert_eq!(
            store.computed_runs(),
            2,
            "differing specs must not share a baseline just because names match"
        );
    }

    #[test]
    fn distinct_seeds_are_distinct_cells() {
        let store = BaselineStore::new(SimConfig::quick_test());
        let spec = workloads::web_search();
        let a = store.get(&spec, 1);
        let b = store.get(&spec, 2);
        assert_eq!(store.computed_runs(), 2);
        assert_ne!(a.elapsed_ps, b.elapsed_ps);
    }

    #[test]
    fn distinct_core_counts_are_distinct_cells() {
        let store = BaselineStore::new(SimConfig::quick_test());
        let spec = workloads::web_search();
        let four = SystemSpec {
            cores: Some(4),
            ..SystemSpec::default()
        };
        let a = store.get_for_system(&spec, &SystemSpec::default(), 42);
        let b = store.get_for_system(&spec, &four, 42);
        assert_eq!(
            store.computed_runs(),
            2,
            "a 4-core baseline must not be reused for 16 cores"
        );
        assert_ne!(a.uipc, b.uipc, "core count visibly changes the baseline");
    }

    #[test]
    fn explicit_default_core_count_shares_the_default_baseline() {
        let store = BaselineStore::new(SimConfig::quick_test());
        let spec = workloads::web_search(); // 16-core workload
        let explicit_16 = SystemSpec {
            cores: Some(16),
            ..SystemSpec::default()
        };
        store.get_for_system(&spec, &SystemSpec::default(), 42);
        store.get_for_system(&spec, &explicit_16, 42);
        assert_eq!(
            store.computed_runs(),
            1,
            "cores: Some(16) is the same machine as cores: None for a \
             16-core workload — one baseline, not two"
        );
        assert_eq!(store.cache_hits(), 1);
    }

    #[test]
    fn distinct_dram_presets_are_distinct_cells() {
        let store = BaselineStore::new(SimConfig::quick_test());
        let spec = workloads::web_search();
        let fast_mem = SystemSpec {
            offchip: DramPreset::Ddr4_2400,
            ..SystemSpec::default()
        };
        let a = store.get_for_system(&spec, &SystemSpec::default(), 42);
        let b = store.get_for_system(&spec, &fast_mem, 42);
        assert_eq!(
            store.computed_runs(),
            2,
            "a DDR4 baseline must not be reused for DDR3"
        );
        assert_ne!(a.uipc, b.uipc, "off-chip preset changes the baseline");
    }

    #[test]
    fn replayed_baseline_equals_live_baseline() {
        let cfg = SimConfig::quick_test();
        let spec = workloads::web_search();
        let live = BaselineStore::new(cfg).get(&spec, 42);

        let traces = Arc::new(crate::TraceStore::new());
        let store = BaselineStore::new(cfg).with_traces(Arc::clone(&traces));
        let replayed = store.get(&spec, 42);
        assert_eq!(traces.generated_traces(), 1, "baseline froze the trace");
        assert_eq!(
            serde_json::to_string(&live).unwrap(),
            serde_json::to_string(&replayed).unwrap(),
            "replayed baseline must be bit-identical to live generation"
        );
    }
}
