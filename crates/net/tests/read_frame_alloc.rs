//! `read_frame` must not trust an announced length with memory: a peer
//! that claims a 1 GiB frame and sends ten bytes gets an error, not a
//! gigabyte allocation. Its own test binary, because the counting
//! allocator is global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use grout_net::wire::{read_frame, MAX_FRAME};

/// The system allocator, recording the largest single request.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter only records sizes.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

#[test]
fn a_huge_announced_length_allocates_only_what_arrives() {
    let mut wire = MAX_FRAME.to_le_bytes().to_vec();
    wire.extend_from_slice(&[7; 10]);
    LARGEST.store(0, Ordering::Relaxed);
    let got = read_frame(&mut &wire[..]);
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(got.is_err(), "a frame cut short must be an error");
    assert!(
        largest <= 1 << 20,
        "largest single allocation was {largest} bytes"
    );

    // Frames that do arrive in full read back unchanged, on both sides of
    // the exact-size threshold.
    for len in [0, 100, 64 << 10, (64 << 10) + 1, 3 << 20] {
        let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
        let mut wire = (len as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&payload);
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), payload);
        assert!(
            read_frame(&mut r).unwrap().is_none(),
            "clean EOF after {len}"
        );
    }
}
