//! The multicore system driver.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use unison_core::{DramCacheModel, MemPorts, Request};
use unison_dram::Ps;
use unison_trace::{AccessKind, TraceRecord};

use crate::core_model::{CoreClock, CoreParams};

/// A 16-core (configurable) pod driving one DRAM cache design over a
/// trace, presenting requests to the memory system in global
/// arrival-time order.
#[derive(Debug)]
pub struct System<C> {
    cache: C,
    mem: MemPorts,
    params: CoreParams,
    cores: Vec<CoreClock>,
}

/// Snapshot of progress counters at a point in time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Progress {
    /// Total instructions retired across cores.
    pub instructions: u64,
    /// The slowest core's local time (the pod's elapsed time).
    pub elapsed_ps: Ps,
    /// Total memory stall time across cores.
    pub stall_ps: Ps,
}

/// Persistent dispatch state for a [`System::run_session`] run that is
/// consumed in record-budget increments instead of one call.
///
/// [`System::run`] historically kept its per-core record buffers and its
/// `(issue time, core)` heap as locals, so a run could only be driven in
/// one call per phase. A `DispatchSession` lifts exactly that state out:
/// stepping a session through N budget increments is **bit-identical** to
/// one `run` call with the summed budget, because the dispatch loop
/// already re-enters selection through the heap at every budget boundary
/// (it pushes the active core's next `(issue, core)` entry back before
/// breaking). Pinned by `session_stepping_matches_single_run`.
///
/// Sessions are deliberately *not* reusable across phases: the
/// warmup/measurement boundary of [`crate::CellSim`] drops whatever records
/// are buffered (see [`System::run`] on minimal refill), which a fresh
/// session reproduces and a carried-over one would not.
#[derive(Debug, Default)]
pub struct DispatchSession {
    bufs: CoreSlab,
    heap: BinaryHeap<Reverse<(Ps, usize)>>,
    exhausted: bool,
    primed: bool,
}

impl DispatchSession {
    /// Creates an empty session; per-core state is sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Initial per-core ring capacity, log2 (16 records). The refill policy
/// is *minimal* — it stops as soon as the active core has one record — so
/// buffered depth per core stays near the core-interleave distance of the
/// trace and growth is rare.
const SLAB_INIT_LOG2: u32 = 4;

/// Per-core FIFO record buffers backed by one flat slab.
///
/// The dispatch loop historically kept a `Vec<VecDeque<TraceRecord>>`:
/// one heap-allocated deque per core, each with its own head/tail/cap
/// bookkeeping and grow policy, touched once per trace record. This slab
/// keeps every core's buffer in a single contiguous allocation — core `c`
/// owns the power-of-two window `slab[c << cap_log2 .. (c + 1) << cap_log2]`
/// and rings within it — so a push or pop is one masked index plus a
/// `u32` head/len update against two small parallel arrays that stay
/// cache-resident across the whole run.
///
/// FIFO order per core is preserved exactly (same `push_back`/`pop_front`
/// contract as the deques), so dispatch selection order is untouched:
/// `chunked_dispatch_matches_reference_loop` and
/// `session_stepping_matches_single_run` race it against the verbatim
/// `VecDeque` reference loop below.
#[derive(Debug, Default)]
struct CoreSlab {
    /// All cores' rings, `cores << cap_log2` slots.
    slab: Vec<TraceRecord>,
    /// Per-core ring head, kept masked (`< 1 << cap_log2`).
    head: Vec<u32>,
    /// Per-core live record count, `<= 1 << cap_log2`.
    len: Vec<u32>,
    /// Log2 of each core's ring capacity; uniform so indexing is one
    /// shift + OR with no per-core lookup.
    cap_log2: u32,
}

impl CoreSlab {
    /// Slot filler for unoccupied ring capacity; never dispatched.
    const FILLER: TraceRecord = TraceRecord {
        core: 0,
        kind: AccessKind::Read,
        pc: 0,
        addr: 0,
        igap: 0,
    };

    /// Sizes the slab for `n` cores (no-op once sized).
    fn ensure_cores(&mut self, n: usize) {
        if self.head.len() < n {
            self.head.resize(n, 0);
            self.len.resize(n, 0);
            if self.cap_log2 == 0 {
                self.cap_log2 = SLAB_INIT_LOG2;
            }
            self.slab.resize(n << self.cap_log2, Self::FILLER);
        }
    }

    /// Number of cores the slab is sized for.
    #[inline]
    fn cores(&self) -> usize {
        self.head.len()
    }

    #[inline]
    fn is_empty(&self, core: usize) -> bool {
        self.len[core] == 0
    }

    #[inline]
    fn front(&self, core: usize) -> Option<&TraceRecord> {
        if self.len[core] == 0 {
            return None;
        }
        Some(&self.slab[(core << self.cap_log2) | self.head[core] as usize])
    }

    #[inline]
    fn push_back(&mut self, core: usize, rec: TraceRecord) {
        let mask = (1u32 << self.cap_log2) - 1;
        if self.len[core] > mask {
            self.grow();
        }
        let mask = (1u32 << self.cap_log2) - 1;
        let slot = (self.head[core] + self.len[core]) & mask;
        self.slab[(core << self.cap_log2) | slot as usize] = rec;
        self.len[core] += 1;
    }

    #[inline]
    fn pop_front(&mut self, core: usize) -> Option<TraceRecord> {
        if self.len[core] == 0 {
            return None;
        }
        let mask = (1u32 << self.cap_log2) - 1;
        let rec = self.slab[(core << self.cap_log2) | self.head[core] as usize];
        self.head[core] = (self.head[core] + 1) & mask;
        self.len[core] -= 1;
        Some(rec)
    }

    /// Doubles every core's ring, repacking live records to offset 0.
    /// Capacity is uniform across cores, so one hot core's burst grows
    /// the whole slab — acceptable because depth tracks the trace's core
    /// interleave, which is similar for every core.
    #[cold]
    fn grow(&mut self) {
        let old_log2 = self.cap_log2;
        let new_log2 = old_log2 + 1;
        let mask = (1u32 << old_log2) - 1;
        let n = self.cores();
        let mut slab = vec![Self::FILLER; n << new_log2];
        for core in 0..n {
            let old_base = core << old_log2;
            let new_base = core << new_log2;
            for i in 0..self.len[core] {
                let src = old_base | ((self.head[core] + i) & mask) as usize;
                slab[new_base + i as usize] = self.slab[src];
            }
            self.head[core] = 0;
        }
        self.slab = slab;
        self.cap_log2 = new_log2;
    }
}

impl<C: DramCacheModel> System<C> {
    /// Builds a system of `cores` cores around `cache` and `mem`.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: usize, cache: C, mem: MemPorts, params: CoreParams) -> Self {
        assert!(cores > 0, "need at least one core");
        System {
            cache,
            mem,
            params,
            cores: vec![CoreClock::default(); cores],
        }
    }

    /// The cache under test.
    pub fn cache(&self) -> &C {
        &self.cache
    }

    /// The shared memory devices.
    pub fn mem(&self) -> &MemPorts {
        &self.mem
    }

    /// Current progress counters.
    pub fn progress(&self) -> Progress {
        Progress {
            instructions: self.cores.iter().map(|c| c.instructions).sum(),
            elapsed_ps: self.cores.iter().map(|c| c.time_ps).max().unwrap_or(0),
            stall_ps: self.cores.iter().map(|c| c.stall_ps).sum(),
        }
    }

    /// Clears cache and DRAM statistics (the warmup boundary). Core
    /// clocks keep running — callers snapshot [`Self::progress`] before
    /// and after the measurement region instead.
    pub fn reset_measurement(&mut self) {
        self.cache.reset_stats();
        self.mem.reset_stats();
    }

    /// Runs up to `limit` records from `trace`, interleaving cores by
    /// issue time. Returns the number of records consumed.
    ///
    /// Records are buffered per core (the trace arrives in per-core
    /// program order but arbitrary global order) and dispatched in global
    /// `(issue time, core)` order, so the memory system observes a
    /// globally time-ordered request stream.
    ///
    /// The dispatch loop is **chunked**: after consuming a record on core
    /// `c`, if `c`'s next record still issues no later than every other
    /// core's head-of-line entry (one peek at the heap minimum), the loop
    /// stays on `c` and consumes a whole run of its records without a
    /// heap push + pop per record, and without recomputing the issue time
    /// it already derived for the heap key. Selection uses the exact
    /// `(issue_ps, core)` ordering, so the dispatch sequence is
    /// bit-identical to the historical one-pop-per-record loop (pinned by
    /// `chunked_dispatch_matches_reference_loop` and the golden suite).
    ///
    /// Refill stays *minimal* (pull exactly until the active core's
    /// buffer is non-empty): `run` is called once for warmup and once for
    /// measurement with fresh buffers, so any extra read-ahead would be
    /// dropped at the boundary and shift the measurement stream, breaking
    /// run-to-run reproducibility against the golden fixtures.
    pub fn run<I>(&mut self, trace: &mut I, limit: u64) -> u64
    where
        I: Iterator<Item = TraceRecord>,
    {
        let mut session = DispatchSession::new();
        self.run_session(&mut session, trace, limit)
    }

    /// [`System::run`] against caller-held dispatch state: consumes up to
    /// `limit` further records, leaving `session` ready to continue from
    /// exactly where this call stopped. Driving one session through many
    /// small budgets is bit-identical to one [`System::run`] call with
    /// the summed budget — the stepping primitive batched multi-cell
    /// simulation interleaves cells with.
    pub fn run_session<I>(
        &mut self,
        session: &mut DispatchSession,
        trace: &mut I,
        limit: u64,
    ) -> u64
    where
        I: Iterator<Item = TraceRecord>,
    {
        let n_cores = self.cores.len();
        // `bufs` is the per-core record buffer; `heap` holds
        // Reverse((issue_time, core)) for cores with a computed
        // head-of-line issue time. Invariant (holds between calls too):
        // every core with a non-empty buffer has exactly one entry,
        // except the core currently being consumed inside the inner loop
        // below.
        let DispatchSession {
            bufs,
            heap,
            exhausted,
            primed,
        } = session;
        let exhausted = &mut *exhausted;
        let mut consumed = 0u64;

        // Pulls records until `core`'s buffer is non-empty (or the trace
        // ends), stashing other cores' records in their buffers. The core
        // id is in range for any spec-conformant trace, so the wrap is a
        // predicted-not-taken branch rather than a hardware division.
        fn refill<I: Iterator<Item = TraceRecord>>(
            trace: &mut I,
            bufs: &mut CoreSlab,
            core: usize,
            exhausted: &mut bool,
        ) {
            let n = bufs.cores();
            while bufs.is_empty(core) && !*exhausted {
                match trace.next() {
                    Some(r) => {
                        let c = usize::from(r.core);
                        let c = if c < n { c } else { c % n };
                        bufs.push_back(c, r);
                    }
                    None => *exhausted = true,
                }
            }
        }

        // Prime every core (once per session).
        if !*primed {
            bufs.ensure_cores(n_cores);
            for c in 0..n_cores {
                refill(trace, bufs, c, exhausted);
                if let Some(r) = bufs.front(c) {
                    let issue = self.cores[c].time_ps + self.params.compute_ps(u64::from(r.igap));
                    heap.push(Reverse((issue, c)));
                }
            }
            *primed = true;
        }

        'dispatch: while consumed < limit {
            let Some(Reverse((mut issue, c))) = heap.pop() else {
                break;
            };
            // Consume a chunk of records on core `c` while it remains the
            // globally minimal (issue, core) — no heap churn within the run.
            loop {
                let Some(rec) = bufs.pop_front(c) else {
                    // Unreachable under the invariant (an entry implies a
                    // non-empty buffer); defensive fallthrough.
                    continue 'dispatch;
                };
                // Advance the core's clock through the instruction gap.
                // `issue` was derived from this exact (clock, record) pair
                // when the entry was stored (or by the chunk step below),
                // so the clock advances to it directly.
                self.cores[c].advance_compute_to(issue, u64::from(rec.igap));
                let req = Request {
                    core: rec.core,
                    pc: rec.pc,
                    addr: rec.addr,
                    is_write: rec.kind.is_write(),
                };
                let access = self.cache.access(issue, &req, &mut self.mem);
                if !req.is_write || self.params.stall_on_stores {
                    self.cores[c].apply_load(&self.params, issue, access.critical_ps);
                }
                consumed += 1;

                refill(trace, bufs, c, exhausted);
                let Some(r) = bufs.front(c) else {
                    // Trace exhausted for this core; it leaves the heap.
                    continue 'dispatch;
                };
                let ni = self.cores[c].time_ps + self.params.compute_ps(u64::from(r.igap));
                if consumed >= limit {
                    heap.push(Reverse((ni, c)));
                    break 'dispatch;
                }
                match heap.peek() {
                    // Another core issues strictly earlier (or ties with a
                    // lower index): hand over via the heap, exactly as the
                    // per-record loop would.
                    Some(&Reverse(top)) if top < (ni, c) => {
                        heap.push(Reverse((ni, c)));
                        continue 'dispatch;
                    }
                    // `c` is still the minimum (or the only runnable
                    // core): keep consuming its records directly.
                    _ => issue = ni,
                }
            }
        }
        consumed
    }

    /// Consumes the system, returning its parts (cache, memory).
    pub fn into_parts(self) -> (C, MemPorts) {
        (self.cache, self.mem)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;
    use unison_core::{IdealCache, NoCache};
    use unison_trace::{workloads, WorkloadGen};

    #[test]
    fn runs_requested_number_of_records() {
        let mut sys = System::new(
            16,
            NoCache::new(),
            MemPorts::paper_default(),
            CoreParams::default(),
        );
        let mut trace = WorkloadGen::new(workloads::web_serving(), 1);
        let n = sys.run(&mut trace, 10_000);
        assert_eq!(n, 10_000);
        let p = sys.progress();
        assert!(p.instructions > 0);
        assert!(p.elapsed_ps > 0);
        assert_eq!(sys.cache().stats().accesses, 10_000);
    }

    #[test]
    fn finite_trace_ends_cleanly() {
        let mut sys = System::new(
            4,
            NoCache::new(),
            MemPorts::paper_default(),
            CoreParams::default(),
        );
        let recs: Vec<_> = WorkloadGen::new(workloads::web_search(), 2)
            .take(500)
            .collect();
        let mut iter = recs.into_iter();
        let n = sys.run(&mut iter, 1_000_000);
        assert_eq!(n, 500);
    }

    #[test]
    fn ideal_cache_outperforms_no_cache() {
        let spec = workloads::data_serving();
        let run = |cache_is_ideal: bool| -> f64 {
            let mut trace = WorkloadGen::new(spec.clone(), 3);
            let params = CoreParams::default();
            if cache_is_ideal {
                let mut sys = System::new(
                    16,
                    IdealCache::new(1 << 30),
                    MemPorts::paper_default(),
                    params,
                );
                sys.run(&mut trace, 30_000);
                let p = sys.progress();
                p.instructions as f64 / p.elapsed_ps as f64
            } else {
                let mut sys = System::new(16, NoCache::new(), MemPorts::paper_default(), params);
                sys.run(&mut trace, 30_000);
                let p = sys.progress();
                p.instructions as f64 / p.elapsed_ps as f64
            }
        };
        let ideal = run(true);
        let baseline = run(false);
        assert!(
            ideal > baseline * 1.1,
            "ideal {ideal:.6} should clearly beat no-cache {baseline:.6}"
        );
    }

    /// The pre-chunking dispatch loop, verbatim: one heap push + pop per
    /// record. Kept as the reference the chunked loop must match.
    fn run_reference<C: DramCacheModel, I: Iterator<Item = TraceRecord>>(
        sys: &mut System<C>,
        trace: &mut I,
        limit: u64,
    ) -> u64 {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let n_cores = sys.cores.len();
        let mut bufs: Vec<VecDeque<TraceRecord>> = vec![VecDeque::new(); n_cores];
        let mut heap: BinaryHeap<Reverse<(Ps, usize)>> = BinaryHeap::new();
        let mut consumed = 0u64;
        let mut exhausted = false;

        fn refill<I: Iterator<Item = TraceRecord>>(
            trace: &mut I,
            bufs: &mut [VecDeque<TraceRecord>],
            core: usize,
            exhausted: &mut bool,
        ) {
            while bufs[core].is_empty() && !*exhausted {
                match trace.next() {
                    Some(r) => {
                        let c = usize::from(r.core) % bufs.len();
                        bufs[c].push_back(r);
                    }
                    None => *exhausted = true,
                }
            }
        }

        for c in 0..n_cores {
            refill(trace, &mut bufs, c, &mut exhausted);
            if let Some(r) = bufs[c].front() {
                let issue = sys.cores[c].time_ps + sys.params.compute_ps(u64::from(r.igap));
                heap.push(Reverse((issue, c)));
            }
        }

        while consumed < limit {
            let Some(Reverse((_, c))) = heap.pop() else {
                break;
            };
            let Some(rec) = bufs[c].pop_front() else {
                continue;
            };
            let issue = sys.cores[c].advance_compute(&sys.params, u64::from(rec.igap));
            let req = Request {
                core: rec.core,
                pc: rec.pc,
                addr: rec.addr,
                is_write: rec.kind.is_write(),
            };
            let access = sys.cache.access(issue, &req, &mut sys.mem);
            if !req.is_write || sys.params.stall_on_stores {
                sys.cores[c].apply_load(&sys.params, issue, access.critical_ps);
            }
            consumed += 1;

            refill(trace, &mut bufs, c, &mut exhausted);
            if let Some(r) = bufs[c].front() {
                let next_issue = sys.cores[c].time_ps + sys.params.compute_ps(u64::from(r.igap));
                heap.push(Reverse((next_issue, c)));
            }
        }
        consumed
    }

    /// The chunked dispatch loop must be indistinguishable from the
    /// one-pop-per-record reference — same consumed counts, same core
    /// clocks, same cache statistics — including across a warmup-style
    /// split where leftover buffered records are dropped between calls.
    #[test]
    fn chunked_dispatch_matches_reference_loop() {
        for seed in [1u64, 7, 42] {
            let spec = workloads::web_serving();
            let mut fast = System::new(
                16,
                IdealCache::new(1 << 26),
                MemPorts::paper_default(),
                CoreParams::default(),
            );
            let mut slow = System::new(
                16,
                IdealCache::new(1 << 26),
                MemPorts::paper_default(),
                CoreParams::default(),
            );
            let mut trace_a = WorkloadGen::new(spec.clone(), seed);
            let mut trace_b = WorkloadGen::new(spec, seed);

            // Split run, as run_experiment does (warmup then measurement).
            assert_eq!(
                fast.run(&mut trace_a, 7_000),
                run_reference(&mut slow, &mut trace_b, 7_000)
            );
            fast.reset_measurement();
            slow.reset_measurement();
            assert_eq!(
                fast.run(&mut trace_a, 5_000),
                run_reference(&mut slow, &mut trace_b, 5_000)
            );

            let (pa, pb) = (fast.progress(), slow.progress());
            assert_eq!(pa.instructions, pb.instructions, "seed {seed}");
            assert_eq!(pa.elapsed_ps, pb.elapsed_ps, "seed {seed}");
            assert_eq!(pa.stall_ps, pb.stall_ps, "seed {seed}");
            assert_eq!(
                fast.cache().stats().hits,
                slow.cache().stats().hits,
                "seed {seed}"
            );
            assert_eq!(
                fast.cache().stats().accesses,
                slow.cache().stats().accesses,
                "seed {seed}"
            );
        }
    }

    /// Stepping a persistent session through many odd-sized budget
    /// increments must be indistinguishable from one `run` call with the
    /// summed budget — same consumed counts, clocks, and cache stats —
    /// including across a warmup-style boundary where each phase gets a
    /// fresh session (reproducing the buffered-record drop).
    #[test]
    fn session_stepping_matches_single_run() {
        for seed in [1u64, 42] {
            let spec = workloads::web_serving();
            let mut whole = System::new(
                16,
                IdealCache::new(1 << 26),
                MemPorts::paper_default(),
                CoreParams::default(),
            );
            let mut stepped = System::new(
                16,
                IdealCache::new(1 << 26),
                MemPorts::paper_default(),
                CoreParams::default(),
            );
            let mut trace_a = WorkloadGen::new(spec.clone(), seed);
            let mut trace_b = WorkloadGen::new(spec, seed);

            // Warmup phase: 7_000 records in one call vs ragged steps.
            assert_eq!(whole.run(&mut trace_a, 7_000), 7_000);
            let mut session = DispatchSession::new();
            let mut left = 7_000u64;
            for budget in [1u64, 7, 500, 1_234, 9_999] {
                let got = stepped.run_session(&mut session, &mut trace_b, budget.min(left));
                assert_eq!(got, budget.min(left));
                left -= got;
            }
            assert_eq!(left, 0);

            // Phase boundary: fresh sessions on both sides.
            whole.reset_measurement();
            stepped.reset_measurement();
            assert_eq!(whole.run(&mut trace_a, 5_000), 5_000);
            let mut session = DispatchSession::new();
            let mut done = 0u64;
            while done < 5_000 {
                done += stepped.run_session(&mut session, &mut trace_b, 777.min(5_000 - done));
            }

            let (pa, pb) = (whole.progress(), stepped.progress());
            assert_eq!(pa.instructions, pb.instructions, "seed {seed}");
            assert_eq!(pa.elapsed_ps, pb.elapsed_ps, "seed {seed}");
            assert_eq!(pa.stall_ps, pb.stall_ps, "seed {seed}");
            assert_eq!(whole.cache().stats().hits, stepped.cache().stats().hits);
            assert_eq!(
                whole.cache().stats().accesses,
                stepped.cache().stats().accesses
            );
        }
    }

    #[test]
    fn stall_time_accumulates_for_memory_bound_runs() {
        let mut sys = System::new(
            16,
            NoCache::new(),
            MemPorts::paper_default(),
            CoreParams::default(),
        );
        let mut trace = WorkloadGen::new(workloads::data_serving(), 5);
        sys.run(&mut trace, 20_000);
        let p = sys.progress();
        assert!(
            p.stall_ps > p.elapsed_ps / 4,
            "an uncached memory-bound run must be stall-dominated"
        );
    }
}
