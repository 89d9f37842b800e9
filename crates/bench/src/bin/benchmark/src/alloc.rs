//! A counting wrapper around the system allocator, for the live heap a
//! round's engine holds.
//!
//! Peak RSS cannot isolate one round: memory a finished round's engine
//! freed stays resident in the allocator's arenas, so every later round
//! would read close to zero. Counting live bytes at the allocator does
//! isolate it, and reads nearly the same on every run of the same work.
//!
//! One shared counter would cost more than the engine itself: the pool
//! workers allocate on every consult and would fight over its cache line
//! (a probe measured a 2.6× slowdown on `cold-large`). So each thread
//! counts in its own padded slot with a plain load and store, which costs
//! about as much as not counting, and [`live`] sums the slots. The sum is
//! exact whenever no allocation is in flight, such as between windows.
//! Threads created 256 apart share a slot, and if both are alive their
//! racing updates can lose counts; a run creates far fewer threads.
//!
//! The binary installs [`CountingAlloc`] as its global allocator; in any
//! other program the counters stay at zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

const SLOTS: usize = 256;

/// One thread's net allocated bytes, alone on its cache line. Frees on
/// another thread than the allocation make single slots negative; only
/// the sum means anything.
#[repr(align(128))]
struct Slot(AtomicIsize);

// Statistics only: they publish no other data, so Relaxed suffices.
static SLOT: [Slot; SLOTS] = [const { Slot(AtomicIsize::new(0)) }; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialized and without a destructor, so reading it never
    // allocates (which would recurse into the allocator).
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn my_slot() -> &'static AtomicIsize {
    let index = MY_SLOT
        .try_with(|slot| {
            if slot.get() == usize::MAX {
                slot.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
            }
            slot.get()
        })
        .unwrap_or(0);
    &SLOT[index].0
}

fn count(bytes: isize) {
    // Not a read-modify-write: the slot is this thread's alone (see the
    // module docs), and an uncontended locked add still cost ~20%.
    let slot = my_slot();
    slot.store(slot.load(Ordering::Relaxed) + bytes, Ordering::Relaxed);
}

/// The system allocator, with live heap bytes counted per thread.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only atomics and a
// const-initialized thread-local, and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees on `layout` are passed through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            count(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            count(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's guarantees on `ptr`, `layout` and
        // `new_size` are passed through.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        new_ptr
    }
}

/// Live heap bytes across all threads: exact when no thread is between
/// an allocation and its count.
pub fn live() -> usize {
    SLOT.iter()
        .map(|slot| slot.0.load(Ordering::Relaxed))
        .sum::<isize>()
        .max(0) as usize
}
