//! The traced run's instruments, all outside the simulator: a cell
//! runner over the public `System::new` / `System::run_session` API,
//! sampling wrappers around `DramCacheModel::access` and the replay
//! cursor's `Iterator::next`, an in-memory span recorder, and the
//! layer-cost ladder.

use std::hint::black_box;
use std::time::Instant;

use unison_core::{AccessOutcome, CacheAccess, CacheStats, DramCacheModel, MemPorts, Request};
use unison_dram::Ps;
use unison_sim::{Design, DispatchSession, RunResult, SimConfig, System};
use unison_trace::{TraceArtifact, TraceRecord, TraceReplay, WorkloadGen, WorkloadSpec};

use crate::workloads::warmup_records;

/// One call in this many is timed by the sampling wrappers (a power of
/// two, so the test is a mask).
pub const SAMPLE_PERIOD: u64 = 256;

/// Times every [`SAMPLE_PERIOD`]th `access` of the wrapped design; the
/// sample includes one clock read. Otherwise forwards untouched.
pub struct SampledCache<C> {
    inner: C,
    calls: u64,
    pub samples: Vec<u64>,
}

impl<C> SampledCache<C> {
    pub fn new(inner: C) -> Self {
        SampledCache {
            inner,
            calls: 0,
            samples: Vec::new(),
        }
    }
}

impl<C: DramCacheModel> DramCacheModel for SampledCache<C> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }
    #[inline]
    fn access(&mut self, now: Ps, req: &Request, mem: &mut MemPorts) -> CacheAccess {
        self.calls += 1;
        if self.calls & (SAMPLE_PERIOD - 1) != 0 {
            return self.inner.access(now, req, mem);
        }
        let start = Instant::now();
        let a = self.inner.access(now, req, mem);
        self.samples.push(start.elapsed().as_nanos() as u64);
        a
    }
    fn stats(&self) -> &CacheStats {
        self.inner.stats()
    }
    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }
}

/// Times every [`SAMPLE_PERIOD`]th `next` of the wrapped cursor and
/// counts every record pulled (the dispatch loop's read-ahead included).
pub struct SampledIter<I> {
    inner: I,
    pub pulled: u64,
    pub samples: Vec<u64>,
}

impl<I> SampledIter<I> {
    pub fn new(inner: I) -> Self {
        SampledIter {
            inner,
            pulled: 0,
            samples: Vec::new(),
        }
    }
}

impl<I: Iterator<Item = TraceRecord>> Iterator for SampledIter<I> {
    type Item = TraceRecord;
    #[inline]
    fn next(&mut self) -> Option<TraceRecord> {
        self.pulled += 1;
        if self.pulled & (SAMPLE_PERIOD - 1) != 0 {
            return self.inner.next();
        }
        let start = Instant::now();
        let r = self.inner.next();
        self.samples.push(start.elapsed().as_nanos() as u64);
        r
    }
}

/// Forwards to the wrapped design and records each access's critical
/// latency (`critical_ps - now`, wrapping) into `latencies`.
pub struct RecordingCache<'a, C> {
    inner: C,
    latencies: &'a mut Vec<u64>,
}

impl<C: DramCacheModel> DramCacheModel for RecordingCache<'_, C> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }
    #[inline]
    fn access(&mut self, now: Ps, req: &Request, mem: &mut MemPorts) -> CacheAccess {
        let a = self.inner.access(now, req, mem);
        self.latencies.push(a.critical_ps.wrapping_sub(now));
        a
    }
    fn stats(&self) -> &CacheStats {
        self.inner.stats()
    }
    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }
}

/// A cache that does nothing but answer each access with the critical
/// latency a [`RecordingCache`] recorded for it. The cores see exactly
/// the timing the recorded design produced, so the dispatch loop makes
/// exactly the same choices, while no design logic or DRAM model runs.
pub struct NullCache<'a> {
    latencies: &'a [u64],
    next: usize,
    stats: CacheStats,
}

impl DramCacheModel for NullCache<'_> {
    fn name(&self) -> &'static str {
        "Null"
    }
    fn capacity_bytes(&self) -> u64 {
        0
    }
    #[inline]
    fn access(&mut self, now: Ps, _req: &Request, _mem: &mut MemPorts) -> CacheAccess {
        self.stats.accesses += 1;
        self.stats.hits += 1;
        let critical_ps = now.wrapping_add(self.latencies[self.next]);
        self.next += 1;
        CacheAccess {
            outcome: AccessOutcome::Hit,
            critical_ps,
            done_ps: critical_ps,
        }
    }
    fn stats(&self) -> &CacheStats {
        &self.stats
    }
    fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

/// The record stream a replaying cell reads: the frozen artifact, then
/// live generation from the artifact's end should the dispatch loop's
/// read-ahead ever outrun the frozen margin. It mirrors the simulator's
/// replay cursor, which is private to `unison_sim`; a slower stand-in
/// (say, `Iterator::chain`) would distort every ladder row.
pub struct Cursor<'a> {
    replay: TraceReplay<'a>,
    scaled_spec: WorkloadSpec,
    seed: u64,
    frozen: usize,
    tail: Option<WorkloadGen>,
}

pub fn cursor<'a>(
    artifact: &'a TraceArtifact,
    scaled_spec: &WorkloadSpec,
    seed: u64,
) -> Cursor<'a> {
    Cursor {
        replay: artifact.replay(),
        scaled_spec: scaled_spec.clone(),
        seed,
        frozen: artifact.len(),
        tail: None,
    }
}

impl Cursor<'_> {
    #[cold]
    #[inline(never)]
    fn tail_next(&mut self) -> Option<TraceRecord> {
        let (spec, seed, frozen) = (&self.scaled_spec, self.seed, self.frozen);
        self.tail
            .get_or_insert_with(|| {
                let mut gen = WorkloadGen::new(spec.clone(), seed);
                gen.by_ref().take(frozen).for_each(drop);
                gen
            })
            .next()
    }
}

impl Iterator for Cursor<'_> {
    type Item = TraceRecord;
    #[inline]
    fn next(&mut self) -> Option<TraceRecord> {
        match self.replay.next() {
            Some(r) => Some(r),
            None => self.tail_next(),
        }
    }
}

/// The design instance a campaign cell runs, boxed as the campaign's
/// batched cell engine boxes every design. NoCache baselines do not run
/// boxed: see [`with_cache!`].
pub fn build(design: Design, cache_bytes: u64, cfg: &SimConfig) -> Box<dyn DramCacheModel> {
    let scaled = cfg.scaled_cache_bytes(cache_bytes);
    design.build_scaled(scaled, cache_bytes.max(1), &cfg.system)
}

/// Evaluates `$body` with `$cache` bound to the cache the program runs
/// `$design` on: the concrete `NoCache` for NoCache, which the baseline
/// store runs devirtualized, and [`build`]'s boxed design otherwise.
macro_rules! with_cache {
    ($design:expr, $cache_bytes:expr, $cfg:expr, |$cache:ident| $body:expr) => {
        match $design {
            ::unison_sim::Design::NoCache => {
                let $cache = ::unison_core::NoCache::new();
                $body
            }
            design => {
                let $cache = $crate::traced::build(design, $cache_bytes, $cfg);
                $body
            }
        }
    };
}
pub(crate) use with_cache;

/// Host time and device traffic of one simulated cell.
pub struct CellRun {
    pub run: RunResult,
    /// Warmup and measurement phases, as (start, end) nanoseconds since
    /// the caller's epoch.
    pub warmup: (u64, u64),
    pub measure: (u64, u64),
    /// Stacked / off-chip DRAM column operations over the whole run
    /// (warmup + measurement).
    pub stacked_ops: u64,
    pub offchip_ops: u64,
}

/// Simulates one cell exactly as the simulator's runner does: a
/// `total`-record run whose first `warmup_fraction` warms the cache
/// (statistics discarded) and whose rest is measured, each phase on a
/// fresh dispatch session. Returns the cache so wrappers can be read.
#[allow(clippy::too_many_arguments)]
pub fn simulate<C: DramCacheModel, I: Iterator<Item = TraceRecord>>(
    epoch: Instant,
    cache: C,
    design: Design,
    cache_bytes: u64,
    spec: &WorkloadSpec,
    cfg: &SimConfig,
    trace: &mut I,
    total: u64,
) -> (CellRun, C) {
    let mut sys = System::new(
        cfg.system.resolved_cores(spec) as usize,
        cache,
        cfg.system.mem_ports(),
        cfg.system.core,
    );
    let warmup = warmup_records(total, cfg);
    let now = || epoch.elapsed().as_nanos() as u64;
    let start = now();
    let warmed = sys.run_session(&mut DispatchSession::new(), trace, warmup);
    let warmup_phase = (start, now());
    assert_eq!(
        warmed, warmup,
        "trace for '{}' ran dry during warmup",
        spec.name
    );
    let ops = |m: &MemPorts| {
        let (s, o) = (m.stacked.stats(), m.offchip.stats());
        (s.reads + s.writes, o.reads + o.writes)
    };
    let (warm_stacked, warm_offchip) = ops(sys.mem());
    let before = sys.progress();
    sys.reset_measurement();
    let start = now();
    let measured = sys.run_session(&mut DispatchSession::new(), trace, total - warmup);
    let measure_phase = (start, now());
    assert_eq!(
        measured,
        total - warmup,
        "trace for '{}' ran dry during measurement",
        spec.name
    );
    let after = sys.progress();
    let (stacked, offchip) = ops(sys.mem());

    let instructions = after.instructions - before.instructions;
    let elapsed_ps = after.elapsed_ps.saturating_sub(before.elapsed_ps).max(1);
    let cycles = (elapsed_ps * 3) as f64 / 1000.0;
    let (cache, mem) = sys.into_parts();
    let run = RunResult {
        design: design.name(),
        workload: spec.name.to_string(),
        cache_bytes,
        measured_accesses: measured,
        instructions,
        elapsed_ps,
        uipc: instructions as f64 / cycles,
        cache: *cache.stats(),
        stacked: *mem.stacked.stats(),
        offchip: *mem.offchip.stats(),
        stacked_energy: *mem.stacked.energy(),
        offchip_energy: *mem.offchip.energy(),
    };
    let cell = CellRun {
        run,
        warmup: warmup_phase,
        measure: measure_phase,
        stacked_ops: warm_stacked + stacked,
        offchip_ops: warm_offchip + offchip,
    };
    (cell, cache)
}

/// A ladder row: what runs over the ladder's artifact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Row {
    /// Replay cursor only, no simulation.
    Replay,
    /// A design (Ideal, NoCache, or a cache under study).
    Design(Design),
    /// Replay + dispatch + core clock with a [`NullCache`] answering with
    /// the latencies [`record_latencies`] recorded for the design.
    Null(Design),
}

impl Row {
    pub fn name(&self) -> String {
        match self {
            Row::Replay => "replay".into(),
            Row::Design(d) => d.name(),
            Row::Null(d) => format!("null({})", d.name()),
        }
    }
}

/// Host cost of one ladder row run: ns per record, plus the whole-run
/// DRAM operations per record it issued.
#[derive(Debug, Clone, Copy, Default)]
pub struct RowCost {
    pub ns_per_record: f64,
    pub stacked_ops_per_record: f64,
    pub offchip_ops_per_record: f64,
    /// Simulated (pod elapsed ps, instructions) of the measurement
    /// region: a null row must reproduce its design's exactly.
    pub outcome: (Ps, u64),
}

/// Runs `design` once over `artifact` for `total` records, untimed,
/// and returns the critical latency of each of its accesses: the
/// answers its null row replays. Recording costs a store per access, so
/// it is kept out of the timed design row.
pub fn record_latencies(
    design: Design,
    artifact: &TraceArtifact,
    scaled_spec: &WorkloadSpec,
    spec: &WorkloadSpec,
    cache_bytes: u64,
    cfg: &SimConfig,
    total: u64,
) -> Vec<u64> {
    let mut trace = cursor(artifact, scaled_spec, cfg.seed);
    let mut latencies = Vec::with_capacity(total as usize);
    with_cache!(design, cache_bytes, cfg, |inner| {
        let cache = RecordingCache {
            inner,
            latencies: &mut latencies,
        };
        let epoch = Instant::now();
        simulate(
            epoch,
            cache,
            design,
            cache_bytes,
            spec,
            cfg,
            &mut trace,
            total,
        );
    });
    latencies
}

/// Runs `row` once over `artifact` for `total` records, untraced. A
/// null row answers with `latencies`, its design's recorded latencies.
#[allow(clippy::too_many_arguments)]
pub fn run_row(
    row: Row,
    artifact: &TraceArtifact,
    scaled_spec: &WorkloadSpec,
    spec: &WorkloadSpec,
    cache_bytes: u64,
    cfg: &SimConfig,
    total: u64,
    latencies: &[u64],
) -> RowCost {
    let mut trace = cursor(artifact, scaled_spec, cfg.seed);
    let per = |x: u64| x as f64 / total as f64;
    let cost = |cell: CellRun| RowCost {
        ns_per_record: per(cell.measure.1 - cell.warmup.0),
        stacked_ops_per_record: per(cell.stacked_ops),
        offchip_ops_per_record: per(cell.offchip_ops),
        outcome: (cell.run.elapsed_ps, cell.run.instructions),
    };
    let epoch = Instant::now();
    match row {
        Row::Replay => {
            for r in trace.by_ref().take(total as usize) {
                black_box(r);
            }
            RowCost {
                ns_per_record: per(epoch.elapsed().as_nanos() as u64),
                ..RowCost::default()
            }
        }
        Row::Design(d) => with_cache!(d, cache_bytes, cfg, |cache| cost(
            simulate(epoch, cache, d, cache_bytes, spec, cfg, &mut trace, total).0
        )),
        Row::Null(_) => {
            let cache = NullCache {
                latencies,
                next: 0,
                stats: CacheStats::default(),
            };
            cost(
                simulate(
                    epoch,
                    cache,
                    Design::NoCache,
                    cache_bytes,
                    spec,
                    cfg,
                    &mut trace,
                    total,
                )
                .0,
            )
        }
    }
}

/// A recorded span: a named interval on one thread, with its parent.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub thread: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder; written out when the benchmark ends.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the recorder's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        parent: Option<usize>,
        name: String,
        thread: usize,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name,
            thread,
            start_ns,
            end_ns,
        });
        id
    }

    /// Appends spans recorded elsewhere (another thread), re-numbering
    /// them and hanging their roots under `parent`.
    pub fn adopt(&mut self, other: Spans, parent: Option<usize>) {
        let base = self.spans.len();
        for mut s in other.spans {
            s.id += base;
            s.parent = s.parent.map(|p| p + base).or(parent);
            self.spans.push(s);
        }
    }

    /// A span's duration minus the time its direct children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// JSON lines, one span each, with self time.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{parent},\"name\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}\n",
                s.id,
                serde_json::to_string(&s.name).expect("strings serialize"),
                s.thread,
                s.start_ns,
                s.end_ns,
                self.self_ns(s.id),
            ));
        }
        out
    }
}
