//! Learned per-cell cost model driving adaptive scheduling.
//!
//! Cell wall time varies ~2.7× by design alone (BENCH_v8: Ideal ≈ 1.06 s
//! mean vs Unison ≈ 2.86 s), so any scheduler that treats cells as
//! interchangeable — the in-process pool's final wave, the orchestrator's
//! blind `key % N` partition — is bound by the unluckiest wave or shard
//! rather than total-work/N. [`CostModel`] closes that gap:
//!
//! * **Learning.** Every completed cell carries `wall_ns`
//!   (JOURNAL_VERSION 2), so prior journals and shard outputs are a free
//!   training set. Observations are keyed by
//!   `(design, workload, scenario, cache_bytes)` — the axes that actually
//!   move cost — and aggregated as running means, deliberately ignoring
//!   the seed axis so a model learned at one seed transfers to the next.
//! * **Structural prior.** With no history, cost is estimated as
//!   `accesses × per-design weight`, with weights following the measured
//!   BENCH_v8 ratios. The prior only has to get the *ordering* roughly
//!   right for LPT to help; learned observations replace it as soon as
//!   one campaign has run.
//! * **Persistence.** [`CostModel::save`]/[`CostModel::load`] round-trip
//!   a `costs.json` (`sweep --costs FILE`); the orchestrator
//!   auto-discovers and refreshes one in its scratch dir so every run
//!   partitions on what the previous run measured.
//!
//! Consumers: the progress reporter weights its ETA by predicted cost,
//! and the orchestrator's `--partition balanced` mode bin-packs cells
//! onto workers with [`partition_balanced`] — a pure function of (plan,
//! model), so parent and shard workers reading the same `costs.json`
//! compute identical assignments in separate processes. Partitioning is
//! observability-neutral: results are re-sorted to plan order and
//! byte-identity of canonical output is pinned by tests.

use std::fs;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::campaign::CellResult;
use crate::grid::Cell;
use crate::journal::{IndexedCell, ShardOutput};
use crate::scheduler::TaskPlan;

/// Version stamp on serialized `costs.json` files. Bumped when the
/// observation schema changes incompatibly.
pub const COSTS_VERSION: u32 = 1;

/// Aggregated wall-time observations for one cost key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostObservation {
    /// Design display name ([`Design::name`](unison_sim::Design::name)).
    pub design: String,
    /// Workload display name.
    pub workload: String,
    /// Scenario display name.
    pub scenario: String,
    /// Cache capacity in bytes.
    pub cache_bytes: u64,
    /// Running mean of observed cell wall time, in nanoseconds.
    pub mean_ns: u64,
    /// Number of observations folded into `mean_ns`.
    pub samples: u64,
}

impl CostObservation {
    fn key(&self) -> (&str, &str, &str, u64) {
        (
            &self.design,
            &self.workload,
            &self.scenario,
            self.cache_bytes,
        )
    }
}

/// Per-cell cost estimates learned from prior runs, with a structural
/// prior for never-seen cells. See the module docs for the full story.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostModel {
    /// File-format marker + version (mirrors the journal's
    /// `unison_journal` header field).
    unison_costs: u32,
    /// Observations, kept sorted by key so serialization is
    /// deterministic regardless of learning order.
    observations: Vec<CostObservation>,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::new()
    }
}

impl CostModel {
    /// An empty model: every prediction falls back to the structural
    /// prior.
    pub fn new() -> CostModel {
        CostModel {
            unison_costs: COSTS_VERSION,
            observations: Vec::new(),
        }
    }

    /// Number of distinct cost keys with at least one observation.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// True when no observations have been recorded (prior-only model).
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// The aggregated observations, sorted by key.
    pub fn observations(&self) -> &[CostObservation] {
        &self.observations
    }

    /// Folds one measured cell wall time into the model. Zero wall
    /// times (canonicalized results, clockless runs) are ignored.
    pub fn record(
        &mut self,
        design: &str,
        workload: &str,
        scenario: &str,
        cache_bytes: u64,
        wall_ns: u64,
    ) {
        if wall_ns == 0 {
            return;
        }
        let key = (design, workload, scenario, cache_bytes);
        match self.observations.binary_search_by(|o| o.key().cmp(&key)) {
            Ok(i) => {
                let o = &mut self.observations[i];
                let total = u128::from(o.mean_ns) * u128::from(o.samples) + u128::from(wall_ns);
                o.samples += 1;
                o.mean_ns = (total / u128::from(o.samples)) as u64;
            }
            Err(i) => self.observations.insert(
                i,
                CostObservation {
                    design: design.to_string(),
                    workload: workload.to_string(),
                    scenario: scenario.to_string(),
                    cache_bytes,
                    mean_ns: wall_ns,
                    samples: 1,
                },
            ),
        }
    }

    /// Folds a completed cell's `wall_ns` into the model.
    pub fn observe(&mut self, result: &CellResult) {
        self.record(
            result.design(),
            result.workload(),
            &result.scenario,
            result.cache_bytes(),
            result.wall_ns,
        );
    }

    /// Learns from a journal file (JSONL: header line + completed
    /// cells). Lines that are not cell entries — the header, a torn
    /// final line — are skipped, so any journal is safe to feed in.
    /// Returns the number of cells learned.
    ///
    /// # Errors
    ///
    /// Returns a message when the file cannot be read.
    pub fn learn_journal(&mut self, path: &Path) -> Result<usize, String> {
        let text = fs::read_to_string(path)
            .map_err(|e| format!("cannot read journal {}: {e}", path.display()))?;
        let mut learned = 0;
        for line in text.lines() {
            if let Ok(entry) = serde_json::from_str::<IndexedCell>(line) {
                self.observe(&entry.result);
                learned += 1;
            }
        }
        Ok(learned)
    }

    /// Learns from a shard output file (`worker-N.shard.json`).
    /// Returns the number of cells learned.
    ///
    /// # Errors
    ///
    /// Returns a message when the file cannot be read or parsed.
    pub fn learn_shard_output(&mut self, path: &Path) -> Result<usize, String> {
        let text = fs::read_to_string(path)
            .map_err(|e| format!("cannot read shard output {}: {e}", path.display()))?;
        let out: ShardOutput = serde_json::from_str(&text)
            .map_err(|e| format!("cannot parse shard output {}: {e}", path.display()))?;
        for entry in &out.cells {
            self.observe(&entry.result);
        }
        Ok(out.cells.len())
    }

    /// Loads a model previously written by [`CostModel::save`].
    ///
    /// # Errors
    ///
    /// Returns a message when the file cannot be read, parsed, or has a
    /// different [`COSTS_VERSION`].
    pub fn load(path: &Path) -> Result<CostModel, String> {
        let text = fs::read_to_string(path)
            .map_err(|e| format!("cannot read cost model {}: {e}", path.display()))?;
        let model: CostModel = serde_json::from_str(&text)
            .map_err(|e| format!("cannot parse cost model {}: {e}", path.display()))?;
        if model.unison_costs != COSTS_VERSION {
            return Err(format!(
                "cost model {} has version {} (expected {COSTS_VERSION})",
                path.display(),
                model.unison_costs
            ));
        }
        Ok(model)
    }

    /// Writes the model as pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns a message when the file cannot be written.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let mut text = serde_json::to_string_pretty(self).expect("cost model serializes");
        text.push('\n');
        fs::write(path, text)
            .map_err(|e| format!("cannot write cost model {}: {e}", path.display()))
    }

    /// The learned mean for an exact key, if observed.
    pub fn lookup(
        &self,
        design: &str,
        workload: &str,
        scenario: &str,
        cache_bytes: u64,
    ) -> Option<u64> {
        let key = (design, workload, scenario, cache_bytes);
        self.observations
            .binary_search_by(|o| o.key().cmp(&key))
            .ok()
            .map(|i| self.observations[i].mean_ns)
    }

    /// Predicted wall time for `cell` in a campaign simulating
    /// `accesses` records per run: the learned mean when the key has
    /// history, the structural prior otherwise.
    pub fn predict(&self, cell: &Cell, accesses: u64) -> u64 {
        self.lookup(
            &cell.design.name(),
            cell.workload.name,
            &cell.scenario.name,
            cell.cache_bytes,
        )
        .unwrap_or_else(|| prior_ns(&cell.design.name(), accesses))
    }

    /// Predicted cost for every cell of `plan`, indexed by plan index.
    pub fn plan_costs(&self, plan: &TaskPlan, accesses: u64) -> Vec<u64> {
        plan.cells
            .iter()
            .map(|pc| self.predict(&pc.cell, accesses))
            .collect()
    }

    /// Deterministic LPT bin-packing of `plan`'s cells onto `workers`
    /// bins under this model; `bins[w]` is worker `w`'s assignment in
    /// ascending plan order. Pure function of (plan, model, workers):
    /// separate processes loading the same `costs.json` agree.
    pub fn partition(&self, plan: &TaskPlan, accesses: u64, workers: u32) -> Vec<Vec<usize>> {
        partition_balanced(&self.plan_costs(plan, accesses), workers)
    }
}

/// Structural prior: `accesses × per-design weight` (ns). The weights
/// follow the measured BENCH_v8 per-design mean cell times (Ideal
/// 1.06 s : Footprint 2.19 : Alloy 2.38 : Unison 2.86) — only the
/// ordering matters for LPT, so precision is not required.
pub fn prior_ns(design: &str, accesses: u64) -> u64 {
    let weight = match design {
        "Ideal" => 26,
        "Footprint" => 54,
        "Alloy" => 58,
        "NoCache" => 18,
        d if d.starts_with("Unison") => 70,
        _ => 55,
    };
    accesses.saturating_mul(weight)
}

/// Sorts `indices` longest-processing-time-first under `costs`
/// (descending predicted cost, ascending index on ties — deterministic).
pub fn order_lpt(costs: &[u64], indices: &mut [usize]) {
    indices.sort_by_key(|&i| (std::cmp::Reverse(costs.get(i).copied().unwrap_or(0)), i));
}

/// Greedy LPT bin-packing: every index `0..costs.len()` is assigned to
/// the currently least-loaded of `bins` bins, considering items in
/// descending cost order. Ties break on the lowest index / lowest bin,
/// so the result is a deterministic pure function of its inputs. Each
/// bin's indices are returned in ascending order.
pub fn partition_balanced(costs: &[u64], bins: u32) -> Vec<Vec<usize>> {
    let bins = bins.max(1) as usize;
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order_lpt(costs, &mut order);
    let mut loads = vec![0u64; bins];
    let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); bins];
    for i in order {
        let lightest = loads
            .iter()
            .enumerate()
            .min_by_key(|&(b, &load)| (load, b))
            .map(|(b, _)| b)
            .expect("at least one bin");
        loads[lightest] = loads[lightest].saturating_add(costs[i]);
        assignment[lightest].push(i);
    }
    for bin in &mut assignment {
        bin.sort_unstable();
    }
    assignment
}

/// Total cost landing in each bin of an `assignment` under `costs`.
pub fn bin_loads(costs: &[u64], assignment: &[Vec<usize>]) -> Vec<u64> {
    assignment
        .iter()
        .map(|bin| {
            bin.iter()
                .map(|&i| costs.get(i).copied().unwrap_or(0))
                .sum()
        })
        .collect()
}

/// Imbalance ratio of per-bin loads: max/mean. 1.0 is perfect balance;
/// empty or all-zero loads also report 1.0 (nothing to balance).
pub fn imbalance_ratio(loads: &[u64]) -> f64 {
    if loads.is_empty() {
        return 1.0;
    }
    let total: u128 = loads.iter().map(|&l| u128::from(l)).sum();
    if total == 0 {
        return 1.0;
    }
    let mean = total as f64 / loads.len() as f64;
    let max = loads.iter().copied().max().unwrap_or(0) as f64;
    max / mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{Assignment, CellKey, ShardSpec};
    use crate::ScenarioGrid;
    use proptest::prelude::*;
    use unison_sim::{Design, SimConfig};
    use unison_trace::workloads;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("unison-costs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn record_keeps_a_running_mean_per_key() {
        let mut m = CostModel::new();
        m.record("Unison", "web_search", "default", 1 << 27, 100);
        m.record("Unison", "web_search", "default", 1 << 27, 300);
        m.record("Ideal", "web_search", "default", 1 << 27, 50);
        assert_eq!(
            m.lookup("Unison", "web_search", "default", 1 << 27),
            Some(200)
        );
        assert_eq!(
            m.lookup("Ideal", "web_search", "default", 1 << 27),
            Some(50)
        );
        assert_eq!(m.lookup("Alloy", "web_search", "default", 1 << 27), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn zero_wall_times_are_ignored() {
        let mut m = CostModel::new();
        m.record("Unison", "web_search", "default", 1 << 27, 0);
        assert!(m.is_empty());
    }

    #[test]
    fn save_load_round_trips_and_is_order_independent() {
        let dir = scratch("roundtrip");
        let mut a = CostModel::new();
        a.record("Unison", "w", "s", 1, 10);
        a.record("Alloy", "w", "s", 1, 20);
        let mut b = CostModel::new();
        b.record("Alloy", "w", "s", 1, 20);
        b.record("Unison", "w", "s", 1, 10);
        let pa = dir.join("a.json");
        let pb = dir.join("b.json");
        a.save(&pa).unwrap();
        b.save(&pb).unwrap();
        assert_eq!(
            std::fs::read(&pa).unwrap(),
            std::fs::read(&pb).unwrap(),
            "serialization must not depend on learning order"
        );
        let loaded = CostModel::load(&pa).unwrap();
        assert_eq!(loaded.observations(), a.observations());
    }

    #[test]
    fn prior_orders_designs_by_measured_weight() {
        let n = 1_000_000;
        assert!(prior_ns("Unison", n) > prior_ns("Alloy", n));
        assert!(prior_ns("Alloy", n) > prior_ns("Footprint", n));
        assert!(prior_ns("Footprint", n) > prior_ns("Ideal", n));
        assert!(prior_ns("Unison-1984B", n) > prior_ns("Ideal", n));
    }

    #[test]
    fn predictions_fall_back_to_the_prior_then_learn() {
        let grid = ScenarioGrid::new()
            .designs([Design::Unison, Design::Ideal])
            .workloads([workloads::web_search()])
            .sizes([128 << 20]);
        let cells = grid.cells(42);
        let mut m = CostModel::new();
        let unison = &cells[0];
        let ideal = &cells[1];
        assert!(m.predict(unison, 1000) > m.predict(ideal, 1000));
        m.record(
            &unison.design.name(),
            unison.workload.name,
            &unison.scenario.name,
            unison.cache_bytes,
            7,
        );
        assert_eq!(m.predict(unison, 1000), 7);
    }

    #[test]
    fn lpt_order_is_descending_cost_with_index_ties() {
        let costs = [5, 9, 9, 1];
        let mut idx = vec![0, 1, 2, 3];
        order_lpt(&costs, &mut idx);
        assert_eq!(idx, vec![1, 2, 0, 3]);
    }

    #[test]
    fn balanced_partition_splits_a_skewed_load_evenly() {
        // One heavy item and three light ones: LPT puts the heavy item
        // alone and packs the rest together.
        let costs = [90, 30, 30, 30];
        let bins = partition_balanced(&costs, 2);
        assert_eq!(bins, vec![vec![0], vec![1, 2, 3]]);
        let loads = bin_loads(&costs, &bins);
        assert_eq!(loads, vec![90, 90]);
        assert!((imbalance_ratio(&loads) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_ratio_handles_degenerate_inputs() {
        assert_eq!(imbalance_ratio(&[]), 1.0);
        assert_eq!(imbalance_ratio(&[0, 0]), 1.0);
        assert!((imbalance_ratio(&[30, 10]) - 1.5).abs() < 1e-12);
    }

    /// Makespan (max bin load) of the blind `key % N` partition over the
    /// same plan, for comparison with the balanced packing.
    fn hash_makespan(costs: &[u64], keys: &[CellKey], bins: u32) -> u64 {
        let mut loads = vec![0u64; bins.max(1) as usize];
        for (i, key) in keys.iter().enumerate() {
            loads[key.shard_of(bins) as usize] += costs[i];
        }
        loads.into_iter().max().unwrap_or(0)
    }

    #[test]
    fn balanced_beats_blind_hashing_on_the_headline_grid_prior() {
        // The real grid shape: designs × workloads × sizes, prior-only
        // model (what a first orchestrated run uses).
        let grid = ScenarioGrid::new()
            .designs([
                Design::Alloy,
                Design::Footprint,
                Design::Unison,
                Design::Ideal,
            ])
            .workloads([workloads::web_search(), workloads::data_serving()])
            .sizes([128 << 20, 256 << 20]);
        let cfg = SimConfig::quick_test();
        let plan = TaskPlan::lower(&cfg, &grid, true);
        let keys: Vec<CellKey> = plan.cells.iter().map(|pc| pc.key).collect();
        // Prior-only model (a first orchestrated run) and a model that
        // learned BENCH_v8-like per-design means (every later run).
        let mut learned = CostModel::new();
        for pc in &plan.cells {
            let ns = match pc.cell.design {
                Design::Ideal => 1_062_000_000,
                Design::Footprint => 2_190_000_000,
                Design::Alloy => 2_379_000_000,
                _ => 2_860_000_000,
            };
            learned.record(
                &pc.cell.design.name(),
                pc.cell.workload.name,
                &pc.cell.scenario.name,
                pc.cell.cache_bytes,
                ns,
            );
        }
        for model in [CostModel::new(), learned] {
            let costs = model.plan_costs(&plan, cfg.accesses);
            for workers in [2u32, 3, 4] {
                let balanced = partition_balanced(&costs, workers);
                let makespan = *bin_loads(&costs, &balanced).iter().max().unwrap();
                assert!(
                    makespan <= hash_makespan(&costs, &keys, workers),
                    "balanced worse than hash at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn partition_matches_a_sharded_executor_shape() {
        // A balanced partition must be a drop-in replacement for the
        // key-hash partition: same plan coverage, disjoint shards.
        let grid = ScenarioGrid::new()
            .designs([Design::Unison, Design::Ideal])
            .workloads([workloads::web_search(), workloads::data_serving()])
            .sizes([128 << 20]);
        let cfg = SimConfig::quick_test();
        let plan = TaskPlan::lower(&cfg, &grid, true);
        let model = CostModel::new();
        let bins = model.partition(&plan, cfg.accesses, 2);
        let mut all: Vec<usize> = bins.concat();
        all.sort_unstable();
        assert_eq!(all, (0..plan.cells.len()).collect::<Vec<_>>());
        // And the hash partition covers the same universe.
        let hash_all: usize = (0..2)
            .map(|i| {
                Assignment::Hash(ShardSpec::new(i, 2).unwrap())
                    .cells(&plan)
                    .len()
            })
            .sum();
        assert_eq!(hash_all, plan.cells.len());
    }

    proptest! {
        /// Balanced partitions are complete and disjoint for arbitrary
        /// cost vectors and worker counts.
        #[test]
        fn partition_is_complete_and_disjoint(
            costs in proptest::collection::vec(0u64..1_000_000, 0..64),
            bins in 1u32..9,
        ) {
            let assignment = partition_balanced(&costs, bins);
            prop_assert_eq!(assignment.len(), bins as usize);
            let mut seen: Vec<usize> = assignment.concat();
            seen.sort_unstable();
            let expect: Vec<usize> = (0..costs.len()).collect();
            prop_assert_eq!(seen, expect, "every index exactly once");
        }

        /// The packing is a deterministic pure function of its inputs —
        /// the cross-process agreement `--partition balanced` relies on.
        #[test]
        fn partition_is_deterministic(
            costs in proptest::collection::vec(0u64..1_000_000, 0..64),
            bins in 1u32..9,
        ) {
            prop_assert_eq!(
                partition_balanced(&costs, bins),
                partition_balanced(&costs, bins)
            );
        }

        /// The packing honours the list-scheduling guarantee
        /// `bins × makespan ≤ total + (bins-1) × max_item` — the bound
        /// that makes it at most one item away from the mean load any
        /// partition (including `key % N`) must reach or exceed.
        #[test]
        fn partition_respects_the_greedy_bound(
            costs in proptest::collection::vec(0u64..1_000_000, 0..64),
            bins in 1u32..9,
        ) {
            let assignment = partition_balanced(&costs, bins);
            let makespan = bin_loads(&costs, &assignment).iter().copied().max().unwrap_or(0);
            let total: u128 = costs.iter().map(|&c| u128::from(c)).sum();
            let max_item = u128::from(costs.iter().copied().max().unwrap_or(0));
            prop_assert!(
                u128::from(makespan) * u128::from(bins)
                    <= total + (u128::from(bins) - 1) * max_item
            );
        }
    }
}
