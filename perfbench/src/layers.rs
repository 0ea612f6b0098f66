//! The traced run: per-layer host costs measured from outside the
//! simulator (see `traced.rs` for the instruments).
//!
//! It runs the workload's campaign once untraced (the reference cells
//! and the harness phase times), freezes each trace once (timed), then
//! re-drives every simulation of the campaign through the sampling
//! wrappers on the campaign's thread count and checks each reproduces
//! the campaign's cell bit for bit. Last comes the layer ladder over the
//! workload's ladder point: replay alone, then each design beside its
//! null row. Layer self times are differences between rows.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use unison_harness::{Campaign, CampaignResult};
use unison_sim::{Design, SimConfig};
use unison_trace::{TraceArtifact, WorkloadSpec};

use crate::check::{cell_digest, combined_digest, conservation, judge, reproduces, Expected};
use crate::stats::{median, percentile, ratio};
use crate::traced::{
    cursor, record_latencies, run_row, simulate, with_cache, CellRun, Row, RowCost, SampledCache,
    SampledIter, Spans,
};
use crate::workloads::{jobs, Job, Workload};
use crate::{count_failures, planned_measured, run_campaign, Metrics, Outcome, MIN_REPS};

/// The designs whose layer costs the traced run reports on every
/// workload (Ideal and NoCache are the ladder's DRAM rows).
const STUDIED: [Design; 3] = [Design::Alloy, Design::Footprint, Design::Unison];
/// The designs the layer ladder runs, each beside its null row.
const LADDER: [Design; 5] = [
    Design::NoCache,
    Design::Ideal,
    Design::Alloy,
    Design::Footprint,
    Design::Unison,
];

/// One cell simulated through the sampling wrappers.
struct TracedCell {
    job: Job,
    cell: CellRun,
    access_ns: Vec<u64>,
    next_ns: Vec<u64>,
    pulled: u64,
}

type Artifacts = HashMap<&'static str, (WorkloadSpec, TraceArtifact)>;

fn trace_job(
    job: &Job,
    arts: &Artifacts,
    cfg: &SimConfig,
    spans: &mut Spans,
    thread: usize,
) -> TracedCell {
    let (scaled, art) = &arts[job.spec.name];
    let mut trace = SampledIter::new(cursor(art, scaled, cfg.seed));
    let t0 = spans.now();
    let (cell, access_ns) = with_cache!(job.design, job.cache_bytes, cfg, |inner| {
        let (cell, cache) = simulate(
            spans.epoch(),
            SampledCache::new(inner),
            job.design,
            job.cache_bytes,
            &job.spec,
            cfg,
            &mut trace,
            job.total,
        );
        (cell, cache.samples)
    });
    let name = format!(
        "cell {} {} {}MiB",
        job.design.name(),
        job.spec.name,
        job.cache_bytes >> 20
    );
    let id = spans.record(None, name, thread, t0, spans.now());
    let w = cell.warmup;
    spans.record(Some(id), "warmup".into(), thread, w.0, w.1);
    let m = cell.measure;
    spans.record(Some(id), "measure".into(), thread, m.0, m.1);
    TracedCell {
        job: job.clone(),
        cell,
        access_ns,
        next_ns: trace.samples,
        pulled: trace.pulled,
    }
}

/// Traces `jobs` on `threads` worker threads; results in job order.
fn trace_jobs(
    jobs: &[Job],
    arts: &Artifacts,
    cfg: &SimConfig,
    threads: usize,
    spans: &mut Spans,
    parent: usize,
) -> Vec<TracedCell> {
    let next = AtomicUsize::new(0);
    let epoch = spans.epoch();
    let mut done: Vec<(usize, TracedCell, Spans)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let next = &next;
                s.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        let mut spans = Spans::new(epoch);
                        let cell = trace_job(job, arts, cfg, &mut spans, t);
                        mine.push((i, cell, spans));
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|h| h.join().expect("a traced cell panicked"))
            .collect()
    });
    done.sort_by_key(|d| d.0);
    done.into_iter()
        .map(|(_, cell, s)| {
            spans.adopt(s, Some(parent));
            cell
        })
        .collect()
}

/// Whether the traced run reproduced the campaign's cells bit for bit.
/// Returns the failure reason of each traced job (`None` = passed).
fn transparency(
    traced: &[TracedCell],
    result: &CampaignResult,
    cfg: &SimConfig,
) -> Vec<Option<String>> {
    let baseline_uipc = |spec: &str| {
        traced
            .iter()
            .find(|t| t.job.cell.is_none() && t.job.spec.name == spec)
            .map(|t| t.cell.run.uipc)
    };
    traced
        .iter()
        .map(|t| {
            let speedup = t
                .job
                .cell
                .and(baseline_uipc(t.job.spec.name))
                .map(|b| t.cell.run.uipc / b);
            if let Err(e) = conservation(&t.cell.run, t.job.measured(cfg), speedup) {
                return Some(format!("traced {e}"));
            }
            let i = t.job.cell?;
            reproduces(&t.cell.run, speedup, &result.cells[i])
                .err()
                .map(|e| format!("traced {e}"))
        })
        .collect()
}

/// Ladder rows and their per-repetition costs.
struct Ladder {
    rows: Vec<Row>,
    costs: Vec<Vec<RowCost>>,
    reps: usize,
}

impl Ladder {
    /// The row's median cost over repetitions.
    fn median(&self, row: Row) -> RowCost {
        let i = self
            .rows
            .iter()
            .position(|&r| r == row)
            .expect("row is on the ladder");
        let pick =
            |f: fn(&RowCost) -> f64| median(&self.costs[i].iter().map(f).collect::<Vec<_>>());
        RowCost {
            ns_per_record: pick(|c| c.ns_per_record),
            stacked_ops_per_record: pick(|c| c.stacked_ops_per_record),
            offchip_ops_per_record: pick(|c| c.offchip_ops_per_record),
            outcome: self.costs[i][0].outcome,
        }
    }
}

/// Runs the layer ladder at the workload's ladder point: rows
/// interleaved, repeated at least [`MIN_REPS`] times and until `seconds`
/// have passed. Returns the ladder and the number of null rows that
/// failed to reproduce their design's timing.
fn run_ladder(
    w: &Workload,
    cfg: &SimConfig,
    arts: &Artifacts,
    seconds: f64,
    spans: &mut Spans,
) -> (Ladder, u64) {
    let mut rows = vec![Row::Replay];
    for d in LADDER {
        rows.extend([Row::Design(d), Row::Null(d)]);
    }
    let total = cfg.trace_plan(w.ladder_trace(), w.ladder_bytes()).total;
    let (scaled, art) = &arts[w.ladder_trace().name];
    let mut costs: Vec<Vec<RowCost>> = vec![Vec::new(); rows.len()];
    let (mut reps, mut failed) = (0, 0);
    let start = spans.now();
    let id = spans.record(None, "ladder".into(), 0, start, start);
    let recorded: HashMap<Design, Vec<u64>> = LADDER
        .into_iter()
        .map(|d| {
            let s = spans.now();
            let latencies = record_latencies(
                d,
                art,
                scaled,
                w.ladder_trace(),
                w.ladder_bytes(),
                cfg,
                total,
            );
            spans.record(Some(id), format!("record {}", d.name()), 0, s, spans.now());
            (d, latencies)
        })
        .collect();
    while reps < MIN_REPS || ((spans.now() - start) as f64 / 1e9 < seconds && reps < 25) {
        for (i, &row) in rows.iter().enumerate() {
            let s = spans.now();
            let cost = run_row(
                row,
                art,
                scaled,
                w.ladder_trace(),
                w.ladder_bytes(),
                cfg,
                total,
                match row {
                    Row::Null(d) => &recorded[&d],
                    _ => &[],
                },
            );
            spans.record(Some(id), format!("row {}", row.name()), 0, s, spans.now());
            if matches!(row, Row::Null(_)) && cost.outcome != costs[i - 1][reps].outcome {
                eprintln!(
                    "FAILED ladder: {} did not reproduce its design's timing",
                    row.name()
                );
                failed += 1;
            }
            costs[i].push(cost);
        }
        reps += 1;
    }
    spans.spans[id].end_ns = spans.now();
    let ladder = Ladder { rows, costs, reps };
    let line: Vec<String> = ladder
        .rows
        .iter()
        .map(|&r| format!("\"{}\":{:.2}", r.name(), ladder.median(r).ns_per_record))
        .collect();
    println!(
        "ladder: {{\"reps\":{reps},\"records\":{total},\"ns_per_record\":{{{}}}}}",
        line.join(",")
    );
    (ladder, failed)
}

/// The traced run: one untraced campaign (the reference cells and the
/// harness phase times), timed artifact freezes, every campaign
/// simulation re-driven through the sampling wrappers and checked
/// bit-identical, then the layer ladder.
pub fn traced_run(
    w: &Workload,
    cfg: SimConfig,
    seconds: f64,
    expected: &Expected,
    out: &Path,
) -> Result<Outcome, String> {
    let seed = cfg.seed;
    let grid = w.grid();
    let jobs = jobs(&grid, &cfg);
    let planned = planned_measured(&jobs, &cfg);
    let mut spans = Spans::new(Instant::now());
    let mut metrics = Metrics::default();

    // The untraced reference: the campaign as users run it, twice. The
    // second, warm run is the timing reference (a timed run's median
    // also leaves out its cold first repetition); both are checked.
    let reference = expected.get(w.name, seed);
    let campaign = Campaign::new(cfg).threads(w.threads);
    let mut failed = 0;
    let mut untraced = None;
    for _ in 0..2 {
        let t0 = spans.now();
        let result = run_campaign(&campaign, w).ok_or("the campaign panicked")?;
        let t1 = spans.now();
        spans.record(None, "campaign".into(), 0, t0, t1);
        failed += count_failures(&judge(&result.cells, &planned, reference));
        untraced = Some((result, t1 - t0));
    }
    let (result, campaign_ns) = untraced.expect("the campaign ran");
    let untraced_sim_ns = campaign_ns.saturating_sub(result.timing.trace_prefill_ns);

    // Freeze each trace once, at the longest length any job needs.
    let mut need: Vec<(WorkloadSpec, WorkloadSpec, u64)> = Vec::new();
    for job in &jobs {
        let scaled = cfg.trace_plan(&job.spec, job.cache_bytes).scaled_spec;
        match need.iter_mut().find(|n| n.0.name == job.spec.name) {
            Some(n) => n.2 = n.2.max(job.frozen_len),
            None => need.push((job.spec.clone(), scaled, job.frozen_len)),
        }
    }
    let mut arts = Artifacts::new();
    let (mut freeze_ns, mut frozen) = (0u64, 0u64);
    for (spec, scaled, len) in need {
        let t = spans.now();
        let art = TraceArtifact::freeze(&scaled, seed, len);
        let e = spans.now();
        spans.record(None, format!("freeze {}", spec.name), 0, t, e);
        freeze_ns += e - t;
        frozen += art.len() as u64;
        arts.insert(spec.name, (scaled, art));
    }

    // Every simulation of the campaign, traced, on the campaign's threads.
    let t = spans.now();
    let phase = spans.record(None, "traced cells".into(), 0, t, t);
    let mut traced = trace_jobs(&jobs, &arts, &cfg, w.threads, &mut spans, phase);
    let traced_sim_ns = spans.now() - t;
    spans.spans[phase].end_ns = t + traced_sim_ns;
    failed += count_failures(&transparency(&traced, &result, &cfg));
    let grid_traced = traced.len();

    // Studied designs the grid does not run at the ladder point.
    let at_ladder = |t: &TracedCell, d: Design| {
        t.job.design == d
            && t.job.spec.name == w.ladder_trace().name
            && t.job.cache_bytes == w.ladder_bytes()
    };
    let extra: Vec<Job> = STUDIED
        .iter()
        .filter(|&&d| !traced.iter().any(|t| at_ladder(t, d)))
        .map(|&d| Job::new(d, w.ladder_bytes(), w.ladder_trace(), &cfg))
        .collect();
    let t = spans.now();
    let phase = spans.record(None, "ladder-point cells".into(), 0, t, t);
    traced.extend(trace_jobs(&extra, &arts, &cfg, 1, &mut spans, phase));
    spans.spans[phase].end_ns = spans.now();
    for t in &traced[grid_traced..] {
        if let Err(e) = conservation(&t.cell.run, t.job.measured(&cfg), None) {
            eprintln!("FAILED cell: traced {e}");
            failed += 1;
        }
    }

    let (ladder, ladder_failed) = run_ladder(w, &cfg, &arts, seconds, &mut spans);
    failed += ladder_failed;
    let replay = ladder.median(Row::Replay).ns_per_record;
    let null = |d: Design| ladder.median(Row::Null(d)).ns_per_record;
    let ideal = ladder.median(Row::Design(Design::Ideal));
    let nocache = ladder.median(Row::Design(Design::NoCache));
    let stacked_ns = ratio(
        ideal.ns_per_record - null(Design::Ideal),
        ideal.stacked_ops_per_record,
    );
    let offchip_ns = ratio(
        nocache.ns_per_record - null(Design::NoCache),
        nocache.offchip_ops_per_record,
    );
    let dram_ns = |stacked: f64, offchip: f64| stacked * stacked_ns + offchip * offchip_ns;
    let self_ns = |d: Design| match d {
        Design::Ideal | Design::NoCache => 0.0,
        d => {
            let c = ladder.median(Row::Design(d));
            c.ns_per_record - null(d) - dram_ns(c.stacked_ops_per_record, c.offchip_ops_per_record)
        }
    };

    // trace
    let mut pulled: HashMap<&str, u64> = HashMap::new();
    for t in &traced[..grid_traced] {
        let p = pulled.entry(t.job.spec.name).or_default();
        *p = (*p).max(t.pulled);
    }
    let next_ns: Vec<u64> = traced
        .iter()
        .flat_map(|t| t.next_ns.iter().copied())
        .collect();
    metrics.put(
        "trace.freeze_ns_per_record",
        ratio(freeze_ns as f64, frozen as f64),
        "ns/record",
    );
    metrics.put("trace.replay_ns_per_record", replay, "ns/record");
    metrics.put(
        "trace.frozen_per_consumed",
        ratio(frozen as f64, pulled.values().sum::<u64>() as f64),
        "ratio",
    );
    metrics.put("trace.next_ns_p50", percentile(&next_ns, 50.0), "ns");
    metrics.put("trace.next_samples", next_ns.len() as f64, "count");

    // sim
    let records: u64 = traced[..grid_traced].iter().map(|t| t.job.total).sum();
    let (mut traced_ns, mut modelled_ns) = (0.0, 0.0);
    for t in &traced[..grid_traced] {
        traced_ns +=
            (t.cell.warmup.1 - t.cell.warmup.0 + t.cell.measure.1 - t.cell.measure.0) as f64;
        modelled_ns += t.job.total as f64 * (null(t.job.design) + self_ns(t.job.design))
            + dram_ns(t.cell.stacked_ops as f64, t.cell.offchip_ops as f64);
    }
    metrics.put("sim.null_ns_per_record", null(Design::Ideal), "ns/record");
    metrics.put(
        "sim.dispatch_self_ns_per_record",
        null(Design::Ideal) - replay,
        "ns/record",
    );
    for d in LADDER.into_iter().filter(|&d| d != Design::Ideal) {
        metrics.put(
            format!("sim.{}.dispatch_self_ns_per_record", d.name()),
            null(d) - replay,
            "ns/record",
        );
    }
    metrics.put("sim.records", records as f64, "count");
    metrics.put("sim.ladder_reps", ladder.reps as f64, "count");
    metrics.put(
        "sim.unattributed_ns_per_record",
        (traced_ns - modelled_ns) / records as f64,
        "ns/record",
    );

    // core, predictors and dram, per studied design at the ladder point
    for d in STUDIED {
        let t = traced
            .iter()
            .find(|t| at_ladder(t, d))
            .expect("every studied design ran at the ladder point");
        let (c, r) = (&t.cell.run.cache, &t.cell.run);
        let per = |x: u64| ratio(x as f64, c.accesses as f64);
        let name = d.name();
        metrics.put(
            format!("core.{name}.access_ns_p50"),
            percentile(&t.access_ns, 50.0),
            "ns",
        );
        metrics.put(
            format!("core.{name}.access_ns_p99"),
            percentile(&t.access_ns, 99.0),
            "ns",
        );
        metrics.put(
            format!("core.{name}.access_samples"),
            t.access_ns.len() as f64,
            "count",
        );
        metrics.put(
            format!("core.{name}.self_ns_per_access"),
            self_ns(d),
            "ns/access",
        );
        metrics.put(format!("core.{name}.hit_ratio"), per(c.hits), "ratio");
        metrics.put(
            format!("core.{name}.evictions_per_access"),
            per(c.evictions),
            "1/access",
        );
        metrics.put(
            format!("core.{name}.writebacks_per_access"),
            per(c.writeback_blocks),
            "blocks/access",
        );
        metrics.put(
            format!("core.{name}.fill_blocks_per_access"),
            per(c.fill_blocks),
            "blocks/access",
        );
        let row_hits =
            |s: &unison_dram::DramStats| ratio(s.row_hits as f64, (s.reads + s.writes) as f64);
        metrics.put(
            format!("dram.{name}.stacked_ops_per_access"),
            per(r.stacked.reads + r.stacked.writes),
            "ops/access",
        );
        metrics.put(
            format!("dram.{name}.offchip_ops_per_access"),
            per(r.offchip.reads + r.offchip.writes),
            "ops/access",
        );
        metrics.put(
            format!("dram.{name}.stacked_row_hit_ratio"),
            row_hits(&r.stacked),
            "ratio",
        );
        metrics.put(
            format!("dram.{name}.offchip_row_hit_ratio"),
            row_hits(&r.offchip),
            "ratio",
        );
        match d {
            Design::Unison => {
                metrics.put("predictors.Unison.way_accuracy", c.wp_accuracy(), "ratio");
                metrics.put(
                    "predictors.Unison.footprint_useful_ratio",
                    ratio(c.fp_covered_blocks as f64, c.fp_predicted_blocks as f64),
                    "ratio",
                );
            }
            Design::Footprint => metrics.put(
                "predictors.Footprint.footprint_useful_ratio",
                ratio(c.fp_covered_blocks as f64, c.fp_predicted_blocks as f64),
                "ratio",
            ),
            _ => metrics.put("predictors.Alloy.miss_accuracy", c.mp_accuracy(), "ratio"),
        }
    }
    metrics.put("dram.stacked.ns_per_op", stacked_ns, "ns/op");
    metrics.put("dram.offchip.ns_per_op", offchip_ns, "ns/op");

    // harness
    let timing = result.timing;
    let busy: u64 = result.cells.iter().map(|c| c.wall_ns).sum();
    let attempted = (2 * jobs.len() + traced.len() + ladder.reps * LADDER.len()) as u64;
    metrics.put(
        "harness.prefill_s",
        timing.trace_prefill_ns as f64 / 1e9,
        "s",
    );
    metrics.put("harness.baseline_s", timing.baseline_ns as f64 / 1e9, "s");
    metrics.put("harness.cells_s", timing.cells_ns as f64 / 1e9, "s");
    metrics.put(
        "harness.worker_busy_ratio",
        ratio(busy as f64, (w.threads as u64 * timing.cells_ns) as f64),
        "ratio",
    );
    metrics.put(
        "harness.trace_memo_hits",
        result.trace_memo_hits as f64,
        "count",
    );
    metrics.put(
        "harness.baseline_memo_hits",
        result.baseline_hits as f64,
        "count",
    );
    metrics.put(
        "harness.cells_failed_ratio",
        failed as f64 / attempted as f64,
        "ratio",
    );
    metrics.put(
        "tracing_overhead_ratio",
        ratio(traced_sim_ns as f64, untraced_sim_ns as f64),
        "ratio",
    );

    // Simulated outputs beside the metrics (deterministic; the digest covers them).
    let model: Vec<String> = result
        .cells
        .iter()
        .map(|c| {
            format!(
                "{{\"design\":\"{}\",\"workload\":\"{}\",\"cache_mib\":{},\"speedup\":{},\"uipc\":{}}}",
                c.design(),
                c.workload(),
                c.cache_bytes() >> 20,
                c.speedup.unwrap_or(0.0),
                c.run.uipc
            )
        })
        .collect();
    let digests: Vec<u64> = result.cells.iter().map(cell_digest).collect();
    println!(
        "model: {{\"digest\":\"{:016x}\",\"blessed\":{},\"cells\":[{}]}}",
        combined_digest(&digests),
        reference.is_some(),
        model.join(",")
    );

    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let path = out.join(format!("spans-{}-seed{seed}.jsonl", w.name));
    std::fs::write(&path, spans.to_jsonl())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("spans: {} written to {}", spans.spans.len(), path.display());
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::tests::quick;
    use crate::traced::{build, SAMPLE_PERIOD};
    use unison_core::{CacheAccess, CacheStats, DramCacheModel, MemPorts, Request};
    use unison_dram::Ps;

    /// A wrapper that is *not* transparent: it delays one access in
    /// 4096 by a picosecond.
    struct Skewed<C>(C, u64);

    impl<C: DramCacheModel> DramCacheModel for Skewed<C> {
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn capacity_bytes(&self) -> u64 {
            self.0.capacity_bytes()
        }
        fn access(&mut self, now: Ps, req: &Request, mem: &mut MemPorts) -> CacheAccess {
            self.1 += 1;
            let mut a = self.0.access(now, req, mem);
            if self.1.is_multiple_of(4096) {
                a.critical_ps += 1;
            }
            a
        }
        fn stats(&self) -> &CacheStats {
            self.0.stats()
        }
        fn reset_stats(&mut self) {
            self.0.reset_stats()
        }
    }

    fn out_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("perfbench-{tag}-{}", std::process::id()))
    }

    /// The per-layer metric names and units BENCHMARK.json declares.
    fn declared() -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = serde_json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let Some(serde::Value::Arr(rows)) = doc.get("per_layer") else {
            panic!("per_layer is not a list");
        };
        rows.iter()
            .map(|r| match (r.get("name"), r.get("unit")) {
                (Some(serde::Value::Str(n)), Some(serde::Value::Str(u))) => (n.clone(), u.clone()),
                _ => panic!("per_layer entry without name and unit"),
            })
            .collect()
    }

    #[test]
    fn traced_run_is_transparent_and_reports_every_declared_metric() {
        let declared = declared();
        for name in crate::workloads::NAMES {
            let w = Workload::by_name(name).unwrap();
            let dir = out_dir(name);
            let outcome =
                traced_run(&w, quick(11), 0.01, &Expected::default(), &dir).expect("traced run");
            assert_eq!(
                outcome.failed, 0,
                "{name}: a traced cell differed from the campaign's"
            );
            let reported: Vec<(String, String)> = outcome
                .metrics
                .0
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(
                reported, declared,
                "{name}: metrics differ from BENCHMARK.json per_layer"
            );
            assert!(
                outcome.metrics.0.iter().all(|m| m.value.is_finite()),
                "{name}"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn non_transparent_wrapper_is_caught() {
        let w = Workload::by_name("hit").unwrap();
        let cfg = quick(3);
        let result = Campaign::new(cfg).threads(1).run_speedups(&w.grid());
        let all = jobs(&w.grid(), &cfg);
        let (base, job) = (&all[0], &all[1]);
        let cell = &result.cells[job.cell.unwrap()];
        let plan = cfg.trace_plan(&job.spec, job.cache_bytes);
        let art = TraceArtifact::freeze(
            &plan.scaled_spec,
            cfg.seed,
            plan.frozen_len.max(base.frozen_len),
        );
        let run = |j: &Job, skew: bool| {
            let mut trace = SampledIter::new(cursor(&art, &plan.scaled_spec, cfg.seed));
            let cache = SampledCache::new(build(j.design, j.cache_bytes, &cfg));
            let epoch = Instant::now();
            if skew {
                simulate(
                    epoch,
                    Skewed(cache, 0),
                    j.design,
                    j.cache_bytes,
                    &j.spec,
                    &cfg,
                    &mut trace,
                    j.total,
                )
                .0
                .run
            } else {
                simulate(
                    epoch,
                    cache,
                    j.design,
                    j.cache_bytes,
                    &j.spec,
                    &cfg,
                    &mut trace,
                    j.total,
                )
                .0
                .run
            }
        };
        let baseline = run(base, false);
        let honest = run(job, false);
        assert!(
            honest.measured_accesses > 4 * SAMPLE_PERIOD,
            "the sampled path must run"
        );
        reproduces(&honest, Some(honest.uipc / baseline.uipc), cell)
            .expect("sampling wrappers are transparent");
        let skewed = run(job, true);
        assert!(reproduces(&skewed, Some(skewed.uipc / baseline.uipc), cell).is_err());
        // A right run against a wrong baseline is caught through the speedup.
        assert!(reproduces(&honest, Some(honest.uipc / skewed.uipc), cell).is_err());
    }

    #[test]
    fn null_row_reproduces_its_design_timing() {
        let w = Workload::by_name("miss-write").unwrap();
        let cfg = quick(9);
        let plan = cfg.trace_plan(w.ladder_trace(), w.ladder_bytes());
        let art = TraceArtifact::freeze(&plan.scaled_spec, cfg.seed, plan.frozen_len);
        for d in LADDER {
            let latencies = record_latencies(
                d,
                &art,
                &plan.scaled_spec,
                w.ladder_trace(),
                w.ladder_bytes(),
                &cfg,
                plan.total,
            );
            let row = |r| {
                run_row(
                    r,
                    &art,
                    &plan.scaled_spec,
                    w.ladder_trace(),
                    w.ladder_bytes(),
                    &cfg,
                    plan.total,
                    &latencies,
                )
            };
            let design = row(Row::Design(d));
            let null = row(Row::Null(d));
            assert_eq!(null.outcome, design.outcome, "{}", d.name());
            assert_eq!(
                (null.stacked_ops_per_record, null.offchip_ops_per_record),
                (0.0, 0.0)
            );
        }
    }
}
