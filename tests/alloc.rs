//! Allocation budget of the search hot path (DESIGN.md §9.5): with a warmed
//! [`SearchScratch`], a query allocates its result `Vec` and nothing else —
//! the visited map, the gather buffers and both candidate pools are reused.
//! The PQ index path adds the per-query lookup table and its boxed estimator
//! on top (ROADMAP item 3's baseline). The disk engine sizes its per-query
//! buffers once per query (DESIGN.md §10.1), so its count is a constant
//! that does not grow with the blocks a query reads.
//!
//! The same allocator counts live bytes, which checks reported memory
//! against the heap (ROADMAP item 22): the bytes that dropping a node cache
//! or a disk index frees must be the bytes it reports.
//!
//! The binary installs a counting `#[global_allocator]`; the counts are kept
//! per thread so the test harness's own threads cannot disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rpq_anns::{DiskIndex, DiskIndexConfig, FilterStrategy, InMemoryIndex, NodeCache};
use rpq_data::synth::DatasetKind;
use rpq_data::{Dataset, LabelPredicate, Labels};
use rpq_graph::{beam_search, ExactEstimator, HnswConfig, ProximityGraph, SearchScratch};
use rpq_quant::{PqConfig, ProductQuantizer};

#[path = "../crates/anns/tests/support/test_store.rs"]
mod test_store;
use test_store::TestStore;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread; negative when the
    /// thread frees what another allocated.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn live_add(bytes: isize) {
    LIVE.with(|c| c.set(c.get() + bytes));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the only additions
// are thread-local counter updates, which do not allocate (const-initialised
// `Cell`s, no destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        live_add(layout.size() as isize);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live_add(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        live_add(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn fixture() -> (Dataset, Dataset, ProximityGraph) {
    let (base, queries) = DatasetKind::Sift
        .config()
        .generate(2_050, 5)
        .split_at(2_000);
    let graph = HnswConfig {
        m: 12,
        ef_construction: 60,
        seed: 5,
    }
    .build(&base);
    (base, queries, graph)
}

fn pq(base: &Dataset) -> ProductQuantizer {
    ProductQuantizer::train(
        &PqConfig {
            m: 4,
            k: 16,
            ..Default::default()
        },
        base,
    )
}

#[test]
fn warmed_beam_search_allocates_only_its_result() {
    let (base, queries, graph) = fixture();
    let mut scratch = SearchScratch::new();
    // Warm-up: sizes the visited map, the gather buffers and the pool.
    for q in queries.iter() {
        let est = ExactEstimator::new(&base, q);
        beam_search(&graph, &est, 80, 10, &mut scratch);
    }
    for q in queries.iter() {
        let est = ExactEstimator::new(&base, q);
        let before = ALLOCS.with(Cell::get);
        let (res, _) = beam_search(&graph, &est, 80, 10, &mut scratch);
        let allocs = ALLOCS.with(Cell::get) - before;
        assert_eq!(res.len(), 10);
        assert_eq!(
            allocs, 1,
            "a warmed query must allocate its result Vec only"
        );
    }
}

#[test]
fn warmed_pq_index_search_allocation_count_is_pinned() {
    let (base, queries, graph) = fixture();
    let labels = Labels::from_masks(2, (0..base.len()).map(|i| 1 << (i % 2)).collect());
    let index = InMemoryIndex::build(pq(&base), &base, graph).with_labels(labels);
    let pred = LabelPredicate::single(1);
    let during = FilterStrategy::DuringTraversal;
    let mut scratch = SearchScratch::new();
    for q in queries.iter() {
        index.search(q, 80, 10, &mut scratch);
        index.search_filtered(q, pred, during, 80, 10, &mut scratch);
    }
    for q in queries.iter() {
        let before = ALLOCS.with(Cell::get);
        let (res, _) = index.search(q, 80, 10, &mut scratch);
        let allocs = ALLOCS.with(Cell::get) - before;
        assert_eq!(res.len(), 10);
        assert_eq!(
            allocs, 3,
            "a warmed PQ query allocates its m·k table, the boxed estimator and its result Vec"
        );
        // In-traversal filtering adds nothing: the accepted pool is the
        // scratch's, not a fresh one.
        let before = ALLOCS.with(Cell::get);
        let (res, _) = index.search_filtered(q, pred, during, 80, 10, &mut scratch);
        let allocs = ALLOCS.with(Cell::get) - before;
        assert_eq!(res.len(), 10);
        assert_eq!(
            allocs, 3,
            "a warmed filtered PQ query allocates what the unfiltered one does"
        );
    }
}

#[test]
fn warmed_disk_search_allocation_count_does_not_grow_with_reads() {
    let (base, queries, graph) = fixture();
    let store = TestStore::new("alloc");
    let cfg = DiskIndexConfig {
        io_width: 8,
        cache_nodes: 200,
        rerank: 80,
        ..DiskIndexConfig::new(store.path())
    };
    let index = DiskIndex::build(pq(&base), &base, &graph, cfg).expect("disk index build failed");
    let mut scratch = SearchScratch::new();
    for ef in [20, 80] {
        for q in queries.iter() {
            index.search_with_scratch(q, ef, 10, &mut scratch);
        }
    }
    let mut blocks_read = [0usize; 2];
    for (ef, blocks) in [20, 80].into_iter().zip(&mut blocks_read) {
        for q in queries.iter() {
            let before = ALLOCS.with(Cell::get);
            let (res, stats) = index.search_with_scratch(q, ef, 10, &mut scratch);
            let allocs = ALLOCS.with(Cell::get) - before;
            assert_eq!(res.len(), 10);
            assert_eq!(
                allocs, 11,
                "ef {ef}: a warmed disk query allocates its table and boxed estimator, \
                 five batch buffers, the stage, plan and miss lists, and the rerank list \
                 that becomes its result, however many blocks it reads"
            );
            *blocks += stats.cache_misses;
        }
    }
    // The two beams read very different numbers of blocks (about 21 and 76
    // per query), so an allocation per block could not hide in the pin.
    assert!(
        blocks_read[1] > 3 * blocks_read[0],
        "blocks read at ef 20 / 80: {blocks_read:?}"
    );
}

/// The heap that dropping `value` frees on this thread.
fn freed_on_drop<T>(value: T) -> usize {
    let before = LIVE.with(Cell::get);
    drop(value);
    (before - LIVE.with(Cell::get)) as usize
}

/// Demands `freed` within 1 % of `reported`.
fn assert_reports_its_heap(reported: usize, freed: usize, what: &str) {
    let ratio = freed as f64 / reported as f64;
    assert!(
        (ratio - 1.0).abs() <= 0.01,
        "{what}: reports {reported} bytes, frees {freed} on drop (ratio {ratio:.3})"
    );
}

#[test]
fn a_warmed_node_cache_reports_the_heap_it_holds() {
    let (base, _, graph) = fixture();
    let ids: Vec<u32> = (0..base.len() as u32).step_by(4).collect();
    let caches = [
        ("BFS-warmed", NodeCache::warm(&graph, &base, 500)),
        (
            "pinned",
            NodeCache::pin(
                ids.iter()
                    .map(|&v| (v, graph.neighbors(v), base.get(v as usize))),
            ),
        ),
    ];
    for (what, cache) in caches {
        assert_eq!(cache.len(), 500, "{what}");
        let reported = cache.memory_bytes();
        assert_reports_its_heap(reported, freed_on_drop(cache), what);
    }
}

#[test]
fn a_disk_index_reports_the_heap_it_holds() {
    let (base, queries, graph) = fixture();
    let labels = Labels::from_masks(2, (0..base.len()).map(|i| 1 << (i % 2)).collect());
    let store = TestStore::new("heap");
    let cfg = DiskIndexConfig {
        cache_nodes: 500,
        ..DiskIndexConfig::new(store.path())
    };
    let build = || {
        let mut index = DiskIndex::build(pq(&base), &base, &graph, cfg.clone())
            .expect("disk index build failed");
        index.set_labels(labels.clone());
        index
    };

    let cold = build();
    let reported = cold.resident_bytes();
    assert_reports_its_heap(reported, freed_on_drop(cold), "cold, BFS-warmed cache");

    let mut traced = build();
    assert_eq!(traced.warm_cache_by_trace(&queries, 80), 500);
    let reported = traced.resident_bytes();
    assert_reports_its_heap(reported, freed_on_drop(traced), "trace-pinned cache");
}
