//! A consult's heap traffic is pinned: after warm-up, every consultation
//! of a given spec over a perfect `Bus` makes exactly the same number of
//! allocations, and that number is written down here, so a change that
//! adds a per-consult allocation (a map clone, a fresh hash table, a
//! boxed payoff) fails this test and must update the figure on purpose.
//! Pooling a panel into a `LocalReputation` that no reader holds a
//! snapshot of allocates nothing at all. A certificate-cache hit is
//! pinned the same way: its panel guard and kernel replay run on
//! every hit.
//!
//! The binary installs a counting global allocator, so it holds this one
//! test alone. The count is per thread, so the harness's own threads
//! never mix into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use ra_authority::{
    CertCache, CertCacheConfig, GameSpec, Inventor, InventorBehavior, LocalReputation, Party,
    RationalityAuthority, ReputationBackend, VerifierBehavior,
};
use ra_exact::rat;
use ra_games::named::{battle_of_the_sexes, coordination_game, prisoners_dilemma, stag_hunt};
use ra_solvers::ParticipationParams;

/// Counts the allocations (fresh or resized) made by the current thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator also serves threads that are tearing down
    // their thread-locals.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations the current thread makes while running `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Consultations of each spec before its count is read: enough for every
/// reusable buffer and table to reach its steady size.
const WARM: usize = 16;
/// Consultations whose counts must all equal the pinned figure.
const MEASURED: usize = 8;

/// The paper-size specs (one per `kernel_check` arm, the strategic arm
/// twice) and one 16×16 coordination game, each with its allocations per
/// consult.
fn pinned_specs() -> Vec<(&'static str, GameSpec, u64)> {
    vec![
        (
            "prisoners_dilemma",
            GameSpec::Strategic(prisoners_dilemma().to_strategic()),
            23,
        ),
        ("stag_hunt(3)", GameSpec::Strategic(stag_hunt(3)), 20),
        (
            "battle_of_the_sexes",
            GameSpec::Bimatrix(battle_of_the_sexes()),
            83,
        ),
        (
            "participation",
            GameSpec::Participation(ParticipationParams::paper_example()),
            12,
        ),
        (
            "parallel_links",
            GameSpec::ParallelLinks {
                current_loads: vec![rat(4, 1), rat(0, 1), rat(9, 2)],
                own_load: rat(7, 2),
                expected_future_load: rat(2, 1),
                expected_future_agents: 5,
            },
            21,
        ),
        (
            "coordination_game(16)",
            GameSpec::Strategic(coordination_game(16)),
            20,
        ),
    ]
}

/// Specs served from the certificate cache, each with its allocations per
/// hit.
fn pinned_hits() -> Vec<(&'static str, GameSpec, u64)> {
    vec![
        (
            "prisoners_dilemma hit",
            GameSpec::Strategic(prisoners_dilemma().to_strategic()),
            4,
        ),
        (
            "coordination_game(16) hit",
            GameSpec::Strategic(coordination_game(16)),
            4,
        ),
    ]
}

/// Allocations per consult of `spec` on `authority` once `WARM` consults
/// of it have run. Panics if a consult does not adopt or two measured
/// consults differ.
fn allocations_per_consult(
    authority: &mut RationalityAuthority,
    name: &str,
    spec: &GameSpec,
) -> u64 {
    for agent in 0..WARM as u64 {
        assert!(authority.consult(agent % 4, spec).adopted, "{name}");
    }
    let counts: Vec<u64> = (0..MEASURED as u64)
        .map(|agent| {
            allocations(|| {
                let outcome = authority.consult(agent % 4, spec);
                assert!(outcome.adopted, "{name}");
            })
        })
        .collect();
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "{name}: allocations differ between consults: {counts:?}"
    );
    counts[0]
}

/// Unanimous rounds over a three-verifier panel: no dissenter list to
/// allocate, so whatever a round allocates is the store's own.
fn unanimous_round() -> [(Party, bool); 3] {
    [
        (Party::Verifier(0), true),
        (Party::Verifier(1), true),
        (Party::Verifier(2), true),
    ]
}

#[test]
fn consult_allocations_are_pinned() {
    // Pooling in place: nothing allocates once every voter has a score,
    // while a held snapshot forces exactly the copy that keeps it intact.
    let store = LocalReputation::new();
    store.pool_verdicts(&unanimous_round());
    let unheld = allocations(|| {
        for _ in 0..64 {
            store.pool_verdicts(&unanimous_round());
        }
    });
    assert_eq!(unheld, 0, "pooling with no snapshot held allocated");
    let held = store.snapshot();
    let copied = allocations(|| {
        store.pool_verdicts(&unanimous_round());
    });
    assert!(copied > 0, "pooling under a held snapshot must copy it");
    assert_eq!(held.version() + 1, store.snapshot().version());
    drop(held);

    let honest = || {
        RationalityAuthority::new(
            Inventor::new(0, InventorBehavior::Honest),
            &[VerifierBehavior::Honest; 3],
        )
    };
    let mut report = Vec::new();
    for (name, spec, pinned) in pinned_specs() {
        let got = allocations_per_consult(&mut honest(), name, &spec);
        report.push((name, got, pinned));
    }
    let mut cached = honest();
    cached.set_cert_cache(Arc::new(CertCache::new(CertCacheConfig::replay(64))));
    for (name, spec, pinned) in pinned_hits() {
        let got = allocations_per_consult(&mut cached, name, &spec);
        report.push((name, got, pinned));
    }
    let stats = cached.cert_cache().expect("cache attached").stats();
    assert_eq!(
        (stats.misses, stats.stale),
        (2, 0),
        "every consult after each spec's first is a hit"
    );
    let drifted: Vec<_> = report.iter().filter(|(_, got, want)| got != want).collect();
    assert!(
        drifted.is_empty(),
        "allocations per consult (spec, measured, pinned): {report:?}"
    );
}
