//! Correctness of simulated results: per-cell digests against blessed
//! expectations, and conservation laws written from the model's
//! accounting rules rather than from a previous run.

use std::collections::BTreeMap;
use std::path::Path;

use serde::Value;
use unison_harness::CellResult;
use unison_sim::RunResult;
use unison_trace::Fnv1a;

/// FNV-1a digest of a cell's canonical (timing-stripped) JSON form.
pub fn cell_digest(cell: &CellResult) -> u64 {
    let json = serde_json::to_string(&cell.canonicalized()).expect("cell results serialize");
    let mut h = Fnv1a::new();
    h.write(json.as_bytes());
    h.finish()
}

/// One digest over a workload's cell digests, in grid order.
pub fn combined_digest(digests: &[u64]) -> u64 {
    let mut h = Fnv1a::new();
    for d in digests {
        h.write(&d.to_le_bytes());
    }
    h.finish()
}

/// Checks the conservation laws every run must satisfy:
/// outcome counts sum to accesses, the measurement region holds exactly
/// the planned records, and UIPC (and speedup, when given) is a finite
/// positive number.
pub fn conservation(
    run: &RunResult,
    planned_measured: u64,
    speedup: Option<f64>,
) -> Result<(), String> {
    let c = &run.cache;
    if c.hits + c.misses() != c.accesses {
        return Err(format!(
            "{} on {}: hits {} + misses {} != accesses {}",
            run.design,
            run.workload,
            c.hits,
            c.misses(),
            c.accesses
        ));
    }
    if run.measured_accesses != planned_measured || c.accesses != planned_measured {
        return Err(format!(
            "{} on {}: measured {} records (cache saw {}), planned {planned_measured}",
            run.design, run.workload, run.measured_accesses, c.accesses
        ));
    }
    let positive = |x: f64| x.is_finite() && x > 0.0;
    if !positive(run.uipc) {
        return Err(format!(
            "{} on {}: uipc {}",
            run.design, run.workload, run.uipc
        ));
    }
    if let Some(s) = speedup {
        if !positive(s) {
            return Err(format!("{} on {}: speedup {s}", run.design, run.workload));
        }
    }
    Ok(())
}

/// Whether a separately driven simulation (`run`, and `speedup` over
/// its own baseline) reproduced the campaign's `cell` bit for bit.
pub fn reproduces(run: &RunResult, speedup: Option<f64>, cell: &CellResult) -> Result<(), String> {
    let same_run = serde_json::to_string(run).ok() == serde_json::to_string(&cell.run).ok();
    let same_speedup = speedup.map(f64::to_bits) == cell.speedup.map(f64::to_bits);
    if same_run && same_speedup {
        return Ok(());
    }
    Err(format!(
        "{} on {} at {} MiB differs from the campaign's cell (run equal: {same_run}, speedup equal: {same_speedup})",
        cell.design(),
        cell.workload(),
        cell.cache_bytes() >> 20
    ))
}

/// Blessed per-cell digests, keyed by workload name and seed.
#[derive(Debug, Default)]
pub struct Expected(BTreeMap<String, BTreeMap<u64, Vec<u64>>>);

impl Expected {
    /// Loads the digest file. A missing file is an error: the benchmark
    /// must not silently skip its correctness check.
    pub fn load(path: &Path) -> Result<Expected, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read expected digests {}: {e}", path.display()))?;
        let bad = |what: &str| format!("{}: {what}", path.display());
        let doc = serde_json::parse(&text).map_err(|e| bad(&e.to_string()))?;
        let Value::Obj(workloads) = doc else {
            return Err(bad("top level is not an object"));
        };
        let mut out = Expected::default();
        for (workload, seeds) in workloads {
            let Value::Obj(seeds) = seeds else {
                return Err(bad("workload entry is not an object"));
            };
            for (seed, digests) in seeds {
                let seed: u64 = seed
                    .parse()
                    .map_err(|_| bad("seed key is not an integer"))?;
                let Value::Arr(digests) = digests else {
                    return Err(bad("digest list is not an array"));
                };
                let digests = digests
                    .iter()
                    .map(|d| match d {
                        Value::Str(s) => u64::from_str_radix(s, 16).ok(),
                        _ => None,
                    })
                    .collect::<Option<Vec<u64>>>()
                    .ok_or_else(|| bad("digest is not a hex string"))?;
                out.0
                    .entry(workload.clone())
                    .or_default()
                    .insert(seed, digests);
            }
        }
        Ok(out)
    }

    /// The blessed digests of `(workload, seed)`, if that pair is blessed.
    pub fn get(&self, workload: &str, seed: u64) -> Option<&[u64]> {
        self.0.get(workload)?.get(&seed).map(Vec::as_slice)
    }

    /// Records `digests` as the expectation for `(workload, seed)`.
    pub fn insert(&mut self, workload: &str, seed: u64, digests: Vec<u64>) {
        self.0
            .entry(workload.to_string())
            .or_default()
            .insert(seed, digests);
    }

    /// Writes the file (workloads and seeds in sorted order).
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let mut text = String::from("{\n");
        for (wi, (workload, seeds)) in self.0.iter().enumerate() {
            text.push_str(&format!("  \"{workload}\": {{\n"));
            for (si, (seed, digests)) in seeds.iter().enumerate() {
                let list: Vec<String> = digests.iter().map(|d| format!("\"{d:016x}\"")).collect();
                let comma = if si + 1 < seeds.len() { "," } else { "" };
                text.push_str(&format!("    \"{seed}\": [{}]{comma}\n", list.join(", ")));
            }
            let comma = if wi + 1 < self.0.len() { "," } else { "" };
            text.push_str(&format!("  }}{comma}\n"));
        }
        text.push_str("}\n");
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// Judges one campaign's cells. Returns, per cell in grid order, the
/// reason it failed (`None` when it passed). A cell fails when it breaks
/// conservation, or when its digest differs from `reference` (blessed
/// digests, or the first repetition's when the seed is not blessed).
pub fn judge(
    cells: &[CellResult],
    planned_measured: &[u64],
    reference: Option<&[u64]>,
) -> Vec<Option<String>> {
    if cells.len() != planned_measured.len() {
        let why = format!(
            "campaign returned {} cells, planned {}",
            cells.len(),
            planned_measured.len()
        );
        return vec![Some(why); planned_measured.len()];
    }
    cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            if let Err(e) = conservation(&cell.run, planned_measured[i], cell.speedup) {
                return Some(e);
            }
            match reference {
                Some(r) if r.get(i) != Some(&cell_digest(cell)) => Some(format!(
                    "{} on {} at {} MiB: digest {:016x} differs from expected {}",
                    cell.design(),
                    cell.workload(),
                    cell.cache_bytes() >> 20,
                    cell_digest(cell),
                    r.get(i)
                        .map_or("(none)".to_string(), |d| format!("{d:016x}")),
                )),
                _ => None,
            }
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::workloads::{jobs, Workload};
    use unison_harness::Campaign;
    use unison_sim::{SimConfig, SystemSpec};

    /// A small configuration with the benchmark's shape (2/3 warmup).
    pub(crate) fn quick(seed: u64) -> SimConfig {
        SimConfig {
            accesses: 60_000,
            warmup_fraction: 2.0 / 3.0,
            system: SystemSpec::default(),
            seed,
            scale: 1024,
        }
    }

    fn campaign(name: &str) -> (Vec<CellResult>, Vec<u64>) {
        let w = Workload::by_name(name).expect("known workload");
        let cfg = quick(5);
        let planned = jobs(&w.grid(), &cfg)
            .iter()
            .filter(|j| j.cell.is_some())
            .map(|j| j.measured(&cfg))
            .collect();
        let result = Campaign::new(cfg).threads(1).run_speedups(&w.grid());
        (result.cells, planned)
    }

    fn failed(verdicts: &[Option<String>]) -> Vec<usize> {
        verdicts
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_some())
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn honest_cells_pass_against_their_own_digests() {
        let (cells, planned) = campaign("miss-write");
        let digests: Vec<u64> = cells.iter().map(cell_digest).collect();
        assert!(failed(&judge(&cells, &planned, None)).is_empty());
        assert!(failed(&judge(&cells, &planned, Some(&digests))).is_empty());
    }

    #[test]
    fn tampered_result_is_caught() {
        let (mut cells, planned) = campaign("miss-write");
        let digests: Vec<u64> = cells.iter().map(cell_digest).collect();
        cells[1].run.instructions += 1;
        assert_eq!(failed(&judge(&cells, &planned, Some(&digests))), vec![1]);
        // Timing is not identity: a different wall time is no tampering.
        let (mut cells, _) = campaign("miss-write");
        cells[0].wall_ns += 12_345;
        assert!(failed(&judge(&cells, &planned, Some(&digests))).is_empty());
    }

    #[test]
    fn non_conserving_results_are_caught() {
        let (cells, planned) = campaign("hit");
        let breaks: [fn(&mut CellResult); 5] = [
            |c| c.run.cache.hits -= 1,
            |c| c.run.measured_accesses += 1,
            |c| c.run.uipc = 0.0,
            |c| c.run.uipc = f64::NAN,
            |c| c.speedup = Some(f64::INFINITY),
        ];
        for (i, tamper) in breaks.iter().enumerate() {
            let mut bad = cells.clone();
            tamper(&mut bad[0]);
            assert_eq!(
                failed(&judge(&bad, &planned, None)),
                vec![0],
                "break #{i} not caught"
            );
        }
        assert_eq!(
            failed(&judge(&cells[1..], &planned, None)).len(),
            planned.len()
        );
    }

    #[test]
    fn expected_digests_round_trip_through_the_file() {
        let dir = std::env::temp_dir().join(format!("perfbench-digests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("digests.json");
        let mut e = Expected::default();
        e.insert("hit", 42, vec![1, u64::MAX]);
        e.insert("hit", 7, vec![3]);
        e.insert("campaign", 42, vec![0xabc]);
        e.save(&path).unwrap();
        let back = Expected::load(&path).unwrap();
        assert_eq!(back.get("hit", 42), Some(&[1, u64::MAX][..]));
        assert_eq!(back.get("hit", 7), Some(&[3][..]));
        assert_eq!(back.get("campaign", 42), Some(&[0xabc][..]));
        assert_eq!(back.get("campaign", 7), None);
        std::fs::write(&path, "{\"hit\": {\"x\": []}}").unwrap();
        assert!(Expected::load(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
