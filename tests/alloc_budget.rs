//! Allocation budgets for the simulator's per-event paths.
//!
//! A fresh allocation that runs once per request, record or die-op taxes
//! every event of every replay. This binary counts the allocations each
//! hot root really makes, through `dyn`, generics and re-exports alike,
//! by running it single-threaded at [`N`] and at about 2N events: the
//! larger run may allocate at most a budget per thousand extra events,
//! plus [`SLACK`], more than the smaller. Whatever a run allocates once (device
//! state, per-tenant histograms, the fs setup) cancels in that
//! difference; a per-event allocation does not.
//!
//! The roots are called through their single-run entry points, never
//! `run_batch` or `run_tenancy_batch`: pool workers allocate on threads
//! the per-thread counter does not see. The counter is per thread so
//! that tests running in parallel do not mix.

use nvmtypes::{HostRequest, NvmKind, KIB, MIB};
use oocfs::FsKind;
use oocnvm_core::config::SystemConfig;
use oocnvm_core::experiment::ExperimentSpec;
use oocnvm_core::tenancy::{TenantProfile, TenantSpec};
use oocnvm_core::workload::{checkpoint_trace, synthetic_ooc_trace};
use ooctrace::BlockTrace;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Events in the smaller run of each pair; the larger runs about twice
/// as many. One extra allocation per event then adds about 2 048, four
/// times [`SLACK`].
const N: u64 = 2048;

/// Allocations a doubling may add with no per-event term: each growable
/// buffer of a run reallocates about once more per doubling (110 to 160
/// measured on every root).
const SLACK: u64 = 512;

/// Budget, per thousand events, of the device request loop, the media
/// engine, the file-system models and the shared QoS loop: they reuse
/// hoisted buffers.
const NO_ALLOCATION: u64 = 0;

/// Budget, per thousand records, of the journaled UFS replay: each
/// fsync cycle's extent list and file-entry clones (1 176 per thousand
/// measured on the checkpoint trace; its device stores no data, so no
/// window buffer). One more allocation per record would reach about
/// 2 176, well above it.
const JOURNALED_PER_THOUSAND_RECORDS: u64 = 1250;

thread_local! {
    /// Allocations made on this thread, `realloc` counted as one.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to [`System`], counting each allocation on its thread.
struct Counting;

#[global_allocator]
static COUNTING: Counting = Counting;

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method defers to `System` with the caller's own pointer,
// layout and size, so `System`'s contract is the caller's contract. The
// counter is a const-initialised thread-local `Cell` with no destructor:
// bumping it never allocates, so it cannot recurse.
#[expect(
    unsafe_code,
    reason = "a global allocator implements the unsafe `GlobalAlloc` contract"
)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's layout contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's layout contract, passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds `new_size`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this same layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations `run` makes on this thread.
fn allocations<T>(run: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let out = run();
    let after = ALLOCATIONS.with(Cell::get);
    drop(out);
    after - before
}

/// Runs `root` at scale [`N`] and 2N, where `root(n)` returns the
/// events it ran and the allocations it made, and asserts that the
/// larger run allocates at most `per_thousand` more per thousand extra
/// events, plus [`SLACK`].
fn assert_within_budget(name: &str, per_thousand: u64, root: impl Fn(u64) -> (u64, u64)) {
    let (events, allocs) = root(N);
    let (events2, allocs2) = root(2 * N);
    assert!(
        events >= N && events2 >= 2 * events - events / 8,
        "{name}: {events} then {events2} events do not double from {N}"
    );
    let grown = allocs2.saturating_sub(allocs);
    let bound = per_thousand * (events2 - events) / 1000 + SLACK;
    assert!(
        grown <= bound,
        "{name}: {allocs} allocations at {events} events, {allocs2} at {events2}: \
         +{grown} exceeds {per_thousand} per thousand events + {SLACK}"
    );
}

/// `n` mixed reads and writes with strided offsets, enough irregularity
/// to exercise the FTL mapping tree and the per-die queues.
fn mixed_trace(n: u64) -> BlockTrace {
    let requests = (0..n)
        .scan(0u64, |off, i| {
            let len = 16 * KIB + (i % 7) * 4 * KIB;
            let req = if i % 3 == 0 {
                HostRequest::write(*off % (64 * MIB), len)
            } else {
                HostRequest::read((*off * 3) % (64 * MIB), len)
            };
            *off += len + (i % 5) * KIB;
            Some(req)
        })
        .collect();
    BlockTrace::from_requests(requests, 16)
}

/// `SsdDevice::run`: the request loop and the media engine, per
/// request.
#[test]
fn the_device_request_loop_allocates_nothing_per_request() {
    let device = SystemConfig::cnl_ufs().device(NvmKind::Tlc);
    assert_within_budget("SsdDevice::run", NO_ALLOCATION, |n| {
        let trace = mixed_trace(n);
        (n, allocations(|| device.run(&trace)))
    });
}

/// `ExperimentSpec::run` through each kind of file-system model, per
/// POSIX record.
#[test]
fn the_file_system_models_allocate_nothing_per_record() {
    for config in [
        SystemConfig::ion_gpfs(),
        SystemConfig::cnl(FsKind::Ext2),
        SystemConfig::cnl(FsKind::Ext4),
        SystemConfig::cnl_ufs(),
    ] {
        assert_within_budget(config.label, NO_ALLOCATION, |n| {
            let posix = synthetic_ooc_trace(n * 64 * KIB, 64 * KIB, 7);
            let spec = ExperimentSpec::new(&config, NvmKind::Tlc);
            (posix.len() as u64, allocations(|| spec.run(&posix)))
        });
    }
}

/// `ExperimentSpec::journaled_ufs(true).run`: the real journaled UFS
/// replay (`JournaledUfs::transform_with_stats`), per POSIX record of a
/// checkpoint trace that is one quarter writes.
#[test]
fn the_journaled_replay_stays_within_its_per_record_budget() {
    let config = SystemConfig::cnl_ufs();
    assert_within_budget("journaled UFS", JOURNALED_PER_THOUSAND_RECORDS, |n| {
        let posix = checkpoint_trace(n * 48 * KIB, 1536 * KIB, 512 * KIB, 64 * KIB, 7);
        let spec = ExperimentSpec::new(&config, NvmKind::Tlc).journaled_ufs(true);
        (posix.len() as u64, allocations(|| spec.run(&posix)))
    });
}

/// `TenancySpec::run` with two tenants: the shared QoS loop, per POSIX
/// record of either tenant.
#[test]
fn the_shared_qos_loop_allocates_nothing_per_record() {
    let config = SystemConfig::cnl_ufs();
    assert_within_budget("TenancySpec::run", NO_ALLOCATION, |n| {
        let eigensolve = TenantProfile::Eigensolve {
            total_bytes: n * 32 * KIB,
            record_size: 64 * KIB,
        };
        let kv = TenantProfile::KvLookup {
            total_bytes: n * 4 * KIB,
            value_size: 8 * KIB,
        };
        let records = (eigensolve.posix_trace(1).len() + kv.posix_trace(2).len()) as u64;
        let spec = ExperimentSpec::new(&config, NvmKind::Tlc).tenants(vec![
            TenantSpec::new(eigensolve).seed(1),
            TenantSpec::new(kv).seed(2).weight(4),
        ]);
        (records, allocations(|| spec.run()))
    });
}
