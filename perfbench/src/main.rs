//! Host-time benchmark of the Unison Cache simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --expected <digests.json> [--out <dir>]
//! perfbench --bless <seeds> --expected <digests.json> [--workload <name>]
//! ```
//!
//! `--trace 0` repeats the workload's campaign through
//! `Campaign::run_speedups` for `--seconds` and reports the end-to-end
//! metrics over its repetitions: the slower quartile of the simulation
//! times, the median setup time and peak RSS. `--trace 1` runs the
//! campaign, then measures each layer from outside (see `layers.rs`) and
//! reports the per-layer metrics. The last stdout line is the result
//! JSON. All timings are host time; the simulated statistics are the
//! correctness check. The model is unvalidated: there are no reference
//! results from real hardware, so no error figure is given.

mod check;
mod layers;
mod stats;
mod traced;
mod workloads;

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use unison_harness::{Campaign, CampaignResult};
use unison_sim::SimConfig;

use check::{cell_digest, combined_digest, judge, Expected};
use stats::{median, quantile};
use workloads::{config, jobs, Job, Workload, NAMES};

/// Fewest timed campaign repetitions a timed run reports over.
pub(crate) const MIN_REPS: usize = 3;
/// A timed run stops repeating after this long even below `MIN_REPS`,
/// so one run always ends well within its time limit.
const MAX_RUN: Duration = Duration::from_secs(120);

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    expected: PathBuf,
    out: PathBuf,
    bless: Option<Vec<u64>>,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 --expected FILE [--out DIR]\n       \
         perfbench --bless SEEDS --expected FILE [--workload NAME]   (SEEDS: e.g. 0-31,42)",
        NAMES.join("|")
    );
    std::process::exit(2)
}

fn parse_seeds(s: &str) -> Option<Vec<u64>> {
    let mut out = Vec::new();
    for part in s.split(',') {
        match part.split_once('-') {
            Some((a, b)) => out.extend(a.parse::<u64>().ok()?..=b.parse::<u64>().ok()?),
            None => out.push(part.parse().ok()?),
        }
    }
    Some(out)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        expected: PathBuf::new(),
        out: PathBuf::from(".bench_out"),
        bless: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                let seconds: f64 = value().parse().unwrap_or_else(|_| usage("bad --seconds"));
                if seconds.is_nan() || seconds <= 0.0 {
                    usage("--seconds must be positive");
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--expected" => args.expected = PathBuf::from(value()),
            "--out" => args.out = PathBuf::from(value()),
            "--bless" => {
                args.bless =
                    Some(parse_seeds(&value()).unwrap_or_else(|| usage("bad --bless seeds")))
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    if args.expected.as_os_str().is_empty() {
        usage("--expected is required");
    }
    if args.bless.is_none() && (args.workload.is_none() || args.seconds.is_none()) {
        usage("--workload and --seconds are required");
    }
    args
}

/// A named measurement with its unit.
pub(crate) struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
pub(crate) struct Metrics(pub(crate) Vec<Metric>);

impl Metrics {
    pub(crate) fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// What one run reports.
pub(crate) struct Outcome {
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) metrics: Metrics,
}

/// bench-report's fixed-work machine-speed loop (a serial dependent
/// chain of integer ops, best of three), so the two compare.
fn calibration_ns() -> f64 {
    const ITERS: u64 = 16_000_000;
    let mut best = f64::INFINITY;
    for round in 0..3u64 {
        let start = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64.wrapping_add(round);
        for i in 0..ITERS {
            x = x.wrapping_mul(0x2545_f491_4f6c_dd1d).rotate_left(23) ^ i;
        }
        black_box(x);
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

/// Peak resident set of this process (Linux `VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Resets the process's peak RSS (`VmHWM`) to its current RSS (Linux
/// `clear_refs` 5). Where the kernel refuses, `VmHWM` stays the
/// process's running peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Runs the campaign once, containing a panic (`None`) so it counts as
/// failed cells instead of ending the benchmark.
pub(crate) fn run_campaign(campaign: &Campaign, w: &Workload) -> Option<CampaignResult> {
    let grid = w.grid();
    catch_unwind(AssertUnwindSafe(|| campaign.run_speedups(&grid))).ok()
}

/// Counts failed cells and prints why each failed.
pub(crate) fn count_failures(verdicts: &[Option<String>]) -> u64 {
    let mut failed = 0;
    for why in verdicts.iter().flatten() {
        eprintln!("FAILED cell: {why}");
        failed += 1;
    }
    failed
}

pub(crate) fn planned_measured(jobs: &[Job], cfg: &SimConfig) -> Vec<u64> {
    jobs.iter()
        .filter(|j| j.cell.is_some())
        .map(|j| j.measured(cfg))
        .collect()
}

/// The untraced timed run: repeat the campaign for `seconds`, report
/// quartiles and medians over the repetitions. Every repetition is
/// checked against the blessed digests (or, for an unblessed seed,
/// against the first repetition).
fn timed_run(
    w: &Workload,
    cfg: SimConfig,
    seconds: f64,
    expected: &Expected,
) -> Result<Outcome, String> {
    let jobs = jobs(&w.grid(), &cfg);
    let records: u64 = jobs.iter().map(|j| j.total).sum();
    let planned = planned_measured(&jobs, &cfg);
    let campaign = Campaign::new(cfg).threads(w.threads);
    let mut reference = expected.get(w.name, cfg.seed).map(<[u64]>::to_vec);
    let (mut wall, mut setup, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let begun = Instant::now();
    // Measuring starts after the first successful repetition, a warm-up
    // that is checked but not timed.
    let mut start = None;
    let mut peak_rss = Vec::new();
    while (wall.len() < MIN_REPS
        || start.map_or(0.0, |s: Instant| s.elapsed().as_secs_f64()) < seconds)
        && begun.elapsed() < MAX_RUN
    {
        reset_peak_rss();
        let t = Instant::now();
        let result = run_campaign(&campaign, w);
        let wall_s = t.elapsed().as_secs_f64();
        let rss = peak_rss_mib();
        attempted += jobs.len() as u64;
        let Some(result) = result else {
            eprintln!("FAILED repetition: the campaign panicked");
            failed += jobs.len() as u64;
            continue;
        };
        failed += count_failures(&judge(&result.cells, &planned, reference.as_deref()));
        reference.get_or_insert_with(|| result.cells.iter().map(cell_digest).collect());
        if start.is_none() {
            start = Some(Instant::now());
            continue;
        }
        let setup_s = result.timing.trace_prefill_ns as f64 / 1e9;
        wall.push(wall_s);
        setup.push(setup_s);
        peak_rss.push(rss);
        rate.push(records as f64 / (wall_s - setup_s) / 1e6);
    }
    if wall.is_empty() {
        return Err("every repetition failed; nothing was measured".into());
    }
    let reps: Vec<String> = rate.iter().map(|r| format!("{r:.3}")).collect();
    println!(
        "{} repetition(s) [{} Maccess/s]; {} records per repetition; peak RSS {:.1}-{:.1} MiB; digest {}",
        wall.len(),
        reps.join(" "),
        records,
        quantile(&peak_rss, 0.0),
        quantile(&peak_rss, 1.0),
        reference
            .as_deref()
            .map_or("-".into(), |d| format!("{:016x}", combined_digest(d)))
    );
    let mut metrics = Metrics::default();
    // The host's noise is mostly short bursts of extra speed (README.md,
    // Noise). The slower quartile of the repetitions depends less on how
    // many bursts a run catches than their median does.
    metrics.put("maccess_per_s", quantile(&rate, 0.25), "Maccess/s");
    metrics.put("wall_s", quantile(&wall, 0.75), "s");
    metrics.put("setup_s", median(&setup), "s");
    metrics.put("peak_rss_mib", median(&peak_rss), "MiB");
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

/// Runs each workload once per seed and records its cell digests. Cells
/// that break conservation are never blessed.
fn bless(names: &[&str], seeds: &[u64], path: &Path) -> Result<(), String> {
    let mut expected = if path.exists() {
        Expected::load(path)?
    } else {
        Expected::default()
    };
    for &name in names {
        let w = Workload::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
        for &seed in seeds {
            let cfg = config(seed);
            let planned = planned_measured(&jobs(&w.grid(), &cfg), &cfg);
            let result = run_campaign(&Campaign::new(cfg).threads(w.threads), &w)
                .ok_or("the campaign panicked")?;
            if count_failures(&judge(&result.cells, &planned, None)) > 0 {
                return Err(format!(
                    "{name} seed {seed} breaks conservation; not blessing"
                ));
            }
            let digests: Vec<u64> = result.cells.iter().map(cell_digest).collect();
            println!("{name} seed {seed}: {:016x}", combined_digest(&digests));
            expected.insert(name, seed, digests);
        }
    }
    expected.save(path)
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = parse_args();
    if let Some(seeds) = &args.bless {
        let names: Vec<&str> = match &args.workload {
            Some(w) => vec![w.as_str()],
            None => NAMES.to_vec(),
        };
        if let Err(e) = bless(&names, seeds, &args.expected) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    let name = args.workload.as_deref().expect("checked by parse_args");
    let w = Workload::by_name(name).unwrap_or_else(|| usage(&format!("unknown workload {name:?}")));
    let expected = Expected::load(&args.expected).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    });
    let cfg = config(args.seed);
    let per_cell: Vec<u64> = jobs(&w.grid(), &cfg).iter().map(|j| j.total).collect();
    println!(
        "context: {{\"workload\":\"{}\",\"seed\":{},\"blessed_seed\":{},\"calibration_ns\":{},\"nproc\":{},\"threads\":{},\"scale\":{},\"records_per_simulation\":{:?},\"sample_period\":{},\"time\":\"host\",\"model_validated\":false}}",
        w.name,
        args.seed,
        expected.get(w.name, args.seed).is_some(),
        calibration_ns(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        w.threads,
        cfg.scale,
        per_cell,
        traced::SAMPLE_PERIOD,
    );
    let seconds = args.seconds.expect("checked by parse_args");
    let outcome = if args.trace {
        layers::traced_run(&w, cfg, seconds, &expected, &args.out)
    } else {
        timed_run(&w, cfg, seconds, &expected)
    };
    let outcome = outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    });
    for m in &outcome.metrics.0 {
        println!("{:<44} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = outcome
        .metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
}
