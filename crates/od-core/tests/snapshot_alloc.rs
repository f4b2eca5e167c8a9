//! A decoder may not allocate beyond its input.  A zero-arity snapshot
//! declares its row count in four bytes and carries no cells, so decoding it
//! must cost a few bytes of heap, not one allocation per declared row.
//!
//! This is its own test binary because it installs a counting global
//! allocator.

use od_core::wire::{put_schema, put_u32, MAX_FRAME_LEN};
use od_core::{Relation, Schema};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards to [`System`], summing the bytes of every allocation.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call goes unchanged to `System`, which meets the
// `GlobalAlloc` contract; the counter is a statistic and publishes no data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn zero_arity_snapshot_decodes_without_allocating_its_rows() {
    let mut bytes = Vec::new();
    put_schema(&mut bytes, &Schema::new("x"));
    put_u32(&mut bytes, MAX_FRAME_LEN as u32);
    assert_eq!(bytes.len(), 13);

    let before = ALLOCATED.load(Ordering::Relaxed);
    let rel = Relation::from_bytes(&bytes).expect("a zero-arity snapshot decodes");
    let allocated = ALLOCATED.load(Ordering::Relaxed) - before;

    assert_eq!(rel.len(), MAX_FRAME_LEN);
    assert!(
        allocated < 64 << 10,
        "decoding 13 bytes allocated {allocated} bytes"
    );
}
