//! Outside-in layer trace: spans recorded by the benchmark around its own
//! calls into the library, plus a [`Traced`] compressor wrapper that turns
//! every estimator construction into a `quant.lut_build` span and every
//! `distance` / `distance_batch` call into a `quant.adc_score` span. The
//! indexes are generic over the compressor, so no library code changes.
//!
//! Spans go to a preallocated per-thread buffer (never reallocated while a
//! pass is being timed) and are written out when the run ends. A span's
//! parent is the span open on the same thread when it started (for the
//! scoring spans an estimator hands in when it is dropped: when it ended),
//! so spans on one thread nest properly and a span's **self time** is its
//! duration minus its direct children's durations.

use std::cell::RefCell;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use rpq_data::Dataset;
use rpq_graph::DistanceEstimator;
use rpq_quant::{CompactCodes, SoaCodes, VectorCompressor};

/// Span names: `layer.operation`, the layer being the library module.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    QuantLutBuild,
    QuantAdcScore,
    QuantTrain,
    GraphBuild,
    MemorySearch,
    FilterSearch,
    DiskSearch,
    StreamInsert,
    StreamRemove,
    StreamSearch,
    StreamConsolidate,
    ServeShardSearch,
    ServeMerge,
    EngineSearch,
    ClusterOpenLoop,
    CoreTrain,
}

/// Number of [`Name`] variants.
pub const N_NAMES: usize = 16;

impl Name {
    pub fn as_str(self) -> &'static str {
        match self {
            Name::QuantLutBuild => "quant.lut_build",
            Name::QuantAdcScore => "quant.adc_score",
            Name::QuantTrain => "quant.train",
            Name::GraphBuild => "graph.build",
            Name::MemorySearch => "memory.search",
            Name::FilterSearch => "filter.search",
            Name::DiskSearch => "disk.search",
            Name::StreamInsert => "stream.insert",
            Name::StreamRemove => "stream.remove",
            Name::StreamSearch => "stream.search",
            Name::StreamConsolidate => "stream.consolidate",
            Name::ServeShardSearch => "serve.shard_search",
            Name::ServeMerge => "serve.merge",
            Name::EngineSearch => "engine.search",
            Name::ClusterOpenLoop => "cluster.open_loop",
            Name::CoreTrain => "core.train",
        }
    }
}

/// No parent / no query.
pub const NONE: u32 = u32::MAX;

/// One recorded span. `id` is the span's index in its thread's buffer, so
/// `(thread, id)` is unique in a run and `parent` is an index into the same
/// buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub query: u32,
    pub name: Name,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans per thread buffer. One traced pass of 1 000 queries records about
/// 130 000 spans (one per hop); a traced run's passes fit with headroom, and
/// a full buffer drops spans (counted, and reported as a failed invariant)
/// rather than grow. The reservation is virtual memory until spans land in
/// it.
const CAPACITY: usize = 1 << 21;

static ENABLED: AtomicBool = AtomicBool::new(false);
static QUERY: AtomicU32 = AtomicU32::new(NONE);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
/// Buffers handed in by threads that exited (the serving pool's workers).
static FINISHED: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());
static DROPPED: AtomicU32 = AtomicU32::new(0);

struct Local {
    /// Assigned with the buffer, on the thread's first recorded span.
    thread: u32,
    spans: Vec<Span>,
    current: u32,
}

impl Local {
    /// One fixed-size buffer per thread per run: allocated once, never grown.
    fn reserve(&mut self) {
        if self.spans.capacity() == 0 {
            self.thread = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            self.spans.reserve_exact(CAPACITY);
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        if !self.spans.is_empty() {
            if let Ok(mut finished) = FINISHED.lock() {
                finished.push(std::mem::take(&mut self.spans));
            }
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local {
            thread: NONE,
            spans: Vec::new(),
            current: NONE,
        })
    };
}

/// Nanoseconds since the first call in this process, on the trace clock.
///
/// A search at ef 80 scores about 130 batches, so a traced query reads the
/// clock some 270 times. `Instant::now()` costs 36 ns on the sizing box,
/// which alone is 9 % of a 110 µs query; the time-stamp counter costs a
/// quarter of that and is what keeps `trace.overhead_frac` under its limit.
/// It is calibrated against `Instant` once, over two milliseconds.
#[cfg(target_arch = "x86_64")]
#[inline]
pub fn now_ns() -> u64 {
    struct Calibration {
        first_tick: u64,
        ns_per_tick: f64,
    }
    static CALIBRATION: OnceLock<Calibration> = OnceLock::new();
    // SAFETY: RDTSC has no preconditions: it is part of the x86-64 baseline,
    // takes no operands and touches no memory.
    let ticks = || unsafe { core::arch::x86_64::_rdtsc() };
    let c = CALIBRATION.get_or_init(|| {
        let (t0, first_tick) = (Instant::now(), ticks());
        while t0.elapsed().as_micros() < 2000 {
            std::hint::spin_loop();
        }
        let (ns, last_tick) = (t0.elapsed().as_nanos(), ticks());
        Calibration {
            first_tick,
            ns_per_tick: ns as f64 / last_tick.saturating_sub(first_tick).max(1) as f64,
        }
    });
    (ticks().saturating_sub(c.first_tick) as f64 * c.ns_per_tick) as u64
}

/// Nanoseconds since the first call in this process, on the trace clock.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let d = EPOCH.get_or_init(Instant::now).elapsed();
    d.as_secs() * 1_000_000_000 + u64::from(d.subsec_nanos())
}

/// Starts recording. The calling thread's buffer is allocated here, outside
/// any timed region; other threads allocate on their first span.
pub fn enable() {
    now_ns();
    LOCAL.with(|l| l.borrow_mut().reserve());
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stops recording; spans already open still close.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Tags spans opened from now on (any thread) with a query id.
pub fn set_query(query: u32) {
    QUERY.store(query, Ordering::Relaxed);
}

/// Closes its span when dropped.
pub struct Guard(u32);

/// Opens a span on the calling thread; a no-op guard when recording is off.
#[inline]
pub fn span(name: Name) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard(NONE);
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.reserve();
        if l.spans.len() >= CAPACITY {
            DROPPED.fetch_add(1, Ordering::Relaxed);
            return Guard(NONE);
        }
        let id = l.spans.len() as u32;
        let span = Span {
            id,
            parent: l.current,
            query: QUERY.load(Ordering::Relaxed),
            name,
            thread: l.thread,
            start_ns: now_ns(),
            end_ns: 0,
        };
        l.spans.push(span);
        l.current = id;
        Guard(id)
    })
}

impl Drop for Guard {
    #[inline]
    fn drop(&mut self) {
        if self.0 == NONE {
            return;
        }
        let end = now_ns();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let parent = {
                let s = &mut l.spans[self.0 as usize];
                s.end_ns = end;
                s.parent
            };
            l.current = parent;
        });
    }
}

/// Everything recorded so far, one buffer per thread, and the number of
/// spans dropped because a buffer was full. Call after [`disable`] and after
/// every other recording thread has been joined.
pub fn collect() -> (Vec<Vec<Span>>, u32) {
    let mut threads = std::mem::take(&mut *FINISHED.lock().expect("trace sink poisoned"));
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if !l.spans.is_empty() {
            threads.push(std::mem::take(&mut l.spans));
        }
        l.current = NONE;
    });
    (threads, DROPPED.swap(0, Ordering::Relaxed))
}

/// Self time of every span of one thread's buffer (index = span id):
/// duration minus direct children's durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans
        .iter()
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .collect();
    for s in spans {
        if s.parent != NONE {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let p = &mut own[s.parent as usize];
            *p = p.saturating_sub(dur);
        }
    }
    own
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    pub self_ns: [u64; N_NAMES],
    pub count: [u64; N_NAMES],
}

impl Totals {
    /// Self nanoseconds of `name` per `ops` operations, in microseconds.
    pub fn self_us_per(&self, name: Name, ops: usize) -> f64 {
        self.self_ns[name as usize] as f64 / 1e3 / ops as f64
    }
}

/// Attributes every span to the window (timed pass) its start falls into
/// and totals self time per name per window. Windows are `(start, end)`
/// from [`now_ns`], ascending and disjoint.
pub fn totals_per_window(threads: &[Vec<Span>], windows: &[(u64, u64)]) -> Vec<Totals> {
    let mut out = vec![Totals::default(); windows.len()];
    for spans in threads {
        let own = self_times(spans);
        for (s, &self_ns) in spans.iter().zip(&own) {
            let w = windows.partition_point(|&(_, end)| end <= s.start_ns);
            if w < windows.len() && windows[w].0 <= s.start_ns {
                out[w].self_ns[s.name as usize] += self_ns;
                out[w].count[s.name as usize] += 1;
            }
        }
    }
    out
}

/// Writes spans as JSON lines: id, parent (`(thread << 32) | index`, `null`
/// for roots), query, name, thread, start_ns, end_ns.
pub fn write_jsonl(threads: &[Vec<Span>], w: &mut impl Write) -> io::Result<()> {
    for spans in threads {
        for s in spans {
            let global = |idx: u32| (u64::from(s.thread) << 32) | u64::from(idx);
            write!(w, "{{\"id\":{},\"parent\":", global(s.id))?;
            if s.parent == NONE {
                write!(w, "null")?;
            } else {
                write!(w, "{}", global(s.parent))?;
            }
            write!(w, ",\"query\":")?;
            if s.query == NONE {
                write!(w, "null")?;
            } else {
                write!(w, "{}", s.query)?;
            }
            writeln!(
                w,
                ",\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name.as_str(),
                s.thread,
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    Ok(())
}

/// A compressor whose estimators record spans. Everything else delegates,
/// so codes, distances and therefore search results are the wrapped
/// compressor's bit for bit.
#[derive(Clone)]
pub struct Traced<C>(pub C);

/// An estimator that times every scoring call. The `(start, end)` pairs
/// stay in the estimator (one per query, so no thread-local lookup and no
/// shared cache lines on the scoring path) and become `quant.adc_score`
/// spans under the then-open span when the estimator is dropped, which is
/// inside the search call that built it.
struct TracedEstimator<'a> {
    inner: Box<dyn DistanceEstimator + 'a>,
    /// `None` when recording was off at construction.
    calls: Option<RefCell<Vec<(u64, u64)>>>,
}

impl<'a> TracedEstimator<'a> {
    /// Room for the scoring calls of one query (one per hop; ef 80 gives
    /// about 130) without growing mid-search.
    const CALLS: usize = 512;

    fn new(inner: Box<dyn DistanceEstimator + 'a>) -> Self {
        let calls = ENABLED
            .load(Ordering::Relaxed)
            .then(|| RefCell::new(Vec::with_capacity(Self::CALLS)));
        Self { inner, calls }
    }

    #[inline]
    fn timed<T>(&self, score: impl FnOnce() -> T) -> T {
        let Some(calls) = &self.calls else {
            return score();
        };
        let start = now_ns();
        let out = score();
        calls.borrow_mut().push((start, now_ns()));
        out
    }
}

impl DistanceEstimator for TracedEstimator<'_> {
    #[inline]
    fn distance(&self, node: u32) -> f32 {
        self.timed(|| self.inner.distance(node))
    }

    #[inline]
    fn distance_batch(&self, nodes: &[u32], out: &mut [f32]) {
        self.timed(|| self.inner.distance_batch(nodes, out))
    }
}

impl Drop for TracedEstimator<'_> {
    fn drop(&mut self) {
        let Some(calls) = self.calls.take() else {
            return;
        };
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.reserve();
            let (parent, thread) = (l.current, l.thread);
            let query = QUERY.load(Ordering::Relaxed);
            for (start_ns, end_ns) in calls.into_inner() {
                if l.spans.len() >= CAPACITY {
                    DROPPED.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                let id = l.spans.len() as u32;
                l.spans.push(Span {
                    id,
                    parent,
                    query,
                    name: Name::QuantAdcScore,
                    thread,
                    start_ns,
                    end_ns,
                });
            }
        });
    }
}

impl<C: VectorCompressor> VectorCompressor for Traced<C> {
    fn name(&self) -> String {
        self.0.name()
    }
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn code_dim(&self) -> usize {
        self.0.code_dim()
    }
    fn model_bytes(&self) -> usize {
        self.0.model_bytes()
    }
    fn train_seconds(&self) -> f32 {
        self.0.train_seconds()
    }
    fn encode_dataset(&self, data: &Dataset) -> CompactCodes {
        self.0.encode_dataset(data)
    }
    fn encode_one(&self, v: &[f32], out: &mut [u8]) {
        self.0.encode_one(v, out)
    }
    fn decode_into(&self, code: &[u8], out: &mut [f32]) {
        self.0.decode_into(code, out)
    }
    fn estimator<'a>(
        &'a self,
        codes: &'a CompactCodes,
        query: &'a [f32],
    ) -> Box<dyn DistanceEstimator + 'a> {
        let _s = span(Name::QuantLutBuild);
        Box::new(TracedEstimator::new(self.0.estimator(codes, query)))
    }
    fn batch_estimator<'a>(
        &'a self,
        codes: &'a SoaCodes,
        query: &'a [f32],
    ) -> Option<Box<dyn DistanceEstimator + 'a>> {
        let _s = span(Name::QuantLutBuild);
        let inner = self.0.batch_estimator(codes, query)?;
        Some(Box::new(TracedEstimator::new(inner)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u32, parent: u32, name: Name, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            query: 0,
            name,
            thread: 0,
            start_ns,
            end_ns,
        }
    }

    /// search [0,100) ⊃ lut [5,20) and two adc spans [30,40), [50,65).
    fn one_query(offset: u64, base_id: u32) -> Vec<Span> {
        vec![
            s(base_id, NONE, Name::MemorySearch, offset, offset + 100),
            s(
                base_id + 1,
                base_id,
                Name::QuantLutBuild,
                offset + 5,
                offset + 20,
            ),
            s(
                base_id + 2,
                base_id,
                Name::QuantAdcScore,
                offset + 30,
                offset + 40,
            ),
            s(
                base_id + 3,
                base_id,
                Name::QuantAdcScore,
                offset + 50,
                offset + 65,
            ),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut spans = one_query(0, 0);
        // A grandchild inside the lut span: comes off the lut, not the search.
        spans.push(s(4, 1, Name::QuantTrain, 6, 10));
        let own = self_times(&spans);
        assert_eq!(own, vec![100 - 15 - 10 - 15, 15 - 4, 10, 15, 4]);
        assert_eq!(
            own.iter().sum::<u64>(),
            100,
            "self times partition the root"
        );
    }

    #[test]
    fn totals_attribute_spans_to_the_window_they_start_in() {
        let mut spans = one_query(0, 0);
        spans.extend(one_query(1000, 4));
        // Starts between the two windows: belongs to neither.
        spans.push(s(8, NONE, Name::ServeMerge, 500, 510));
        let totals = totals_per_window(&[spans], &[(0, 200), (1000, 1200)]);
        assert_eq!(totals.len(), 2);
        for t in &totals {
            assert_eq!(t.self_ns[Name::MemorySearch as usize], 60);
            assert_eq!(t.self_ns[Name::QuantLutBuild as usize], 15);
            assert_eq!(t.self_ns[Name::QuantAdcScore as usize], 25);
            assert_eq!(t.count[Name::QuantAdcScore as usize], 2);
            assert_eq!(t.count[Name::ServeMerge as usize], 0);
        }
        assert_eq!(totals[0].self_us_per(Name::MemorySearch, 1), 0.06);
    }

    #[test]
    fn jsonl_has_one_object_per_span_with_global_ids() {
        let mut spans = one_query(0, 0);
        spans[1].thread = 0;
        spans[0].query = NONE;
        let mut buf = Vec::new();
        write_jsonl(&[spans], &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            "{\"id\":0,\"parent\":null,\"query\":null,\"name\":\"memory.search\",\"thread\":0,\"start_ns\":0,\"end_ns\":100}"
        );
        assert!(
            lines[1].starts_with("{\"id\":1,\"parent\":0,\"query\":0,\"name\":\"quant.lut_build\"")
        );
        for line in lines {
            serde_json::from_str(line).expect("every line parses as JSON");
        }
    }

    #[test]
    fn recording_nests_and_is_off_by_default() {
        // Off: nothing recorded.
        drop(span(Name::GraphBuild));
        enable();
        {
            let _outer = span(Name::CoreTrain);
            let _inner = span(Name::QuantTrain);
        }
        disable();
        drop(span(Name::GraphBuild));
        let (threads, dropped) = collect();
        assert_eq!(dropped, 0);
        let mine: Vec<&Span> = threads
            .iter()
            .flatten()
            .filter(|s| {
                matches!(
                    s.name,
                    Name::CoreTrain | Name::QuantTrain | Name::GraphBuild
                )
            })
            .collect();
        assert_eq!(mine.len(), 2);
        assert_eq!(mine[0].name, Name::CoreTrain);
        assert_eq!(mine[0].parent, NONE);
        assert_eq!(mine[1].parent, mine[0].id);
        assert!(mine[1].start_ns >= mine[0].start_ns && mine[1].end_ns <= mine[0].end_ns);
    }
}
