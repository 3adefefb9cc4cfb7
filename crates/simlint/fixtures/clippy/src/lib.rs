//! One planted violation per lint that carries a syntactic invariant,
//! grouped by the invariant. Each planted line ends in a `lint:` comment
//! naming the lint clippy must report there; no other line may draw one.

/// A media enum: matches over it must list every variant.
pub enum Medium {
    Slc,
    Mlc,
    Tlc,
}

/// No panics in non-test code.
pub fn no_panic(v: Option<u32>) -> u32 {
    let a = v.unwrap(); // lint: clippy::unwrap_used
    let b = v.expect("planted"); // lint: clippy::expect_used
    if a != b {
        panic!("planted"); // lint: clippy::panic
    }
    if a == 0 {
        unreachable!("planted"); // lint: clippy::unreachable
    }
    a
}

/// Unfinished code is a panic too.
pub fn unfinished(slow: bool) -> u32 {
    if slow {
        todo!() // lint: clippy::todo
    } else {
        unimplemented!() // lint: clippy::unimplemented
    }
}

/// Simulator state iterates in a deterministic order.
pub struct Determinism {
    pub map: std::collections::HashMap<u64, u64>, // lint: clippy::disallowed_types
    pub set: std::collections::HashSet<u64>, // lint: clippy::disallowed_types
}

/// The simulators run on simulated time.
pub fn wall_clock() -> std::time::Duration {
    let start = std::time::Instant::now(); // lint: clippy::disallowed_methods
    start.elapsed()
}

/// Not even the type of the system clock may be named.
pub fn epoch() -> Option<std::time::SystemTime> { // lint: clippy::disallowed_types
    None
}

/// Unit arithmetic uses the checked conversions of `nvmtypes`.
pub fn widen(x: u32) -> u64 {
    x as u64 // lint: clippy::as_conversions
}

/// A new variant must be a compile error at every match.
pub fn bits_per_cell(m: Medium) -> u32 {
    match m {
        Medium::Slc => 1,
        _ => 3, // lint: clippy::wildcard_enum_match_arm
    }
}

/// A swallowed `Result` is how an injected fault vanishes.
pub fn swallow(text: &str) {
    let _ = text.parse::<u32>(); // lint: clippy::let_underscore_untyped
}

/// No value may depend on the process it runs in: not on a hasher keyed
/// from OS entropy, nor on the environment, nor on an address.
pub fn hasher_keys() -> u64 {
    let keys = std::collections::hash_map::RandomState::new(); // lint: clippy::disallowed_types
    std::hash::BuildHasher::hash_one(&keys, 1u8)
}

/// The simulators see the environment only through the rayon pool.
pub fn environment() -> usize {
    let var = std::env::var("X").is_ok(); // lint: clippy::disallowed_methods
    let var_os = std::env::var_os("X").is_some(); // lint: clippy::disallowed_methods
    let vars = std::env::vars().count(); // lint: clippy::disallowed_methods
    let vars_os = std::env::vars_os().count(); // lint: clippy::disallowed_methods
    usize::from(var) + usize::from(var_os) + vars + vars_os
}

/// Addresses differ run to run (ASLR), so no pointer is taken.
pub fn addresses(mut v: Vec<u8>, x: &mut u64) -> usize {
    let _vec = v.as_ptr(); // lint: clippy::disallowed_methods
    let _vec_mut = v.as_mut_ptr(); // lint: clippy::disallowed_methods
    let _slice = v.as_slice().as_ptr(); // lint: clippy::disallowed_methods
    let _slice_mut = v.as_mut_slice().as_mut_ptr(); // lint: clippy::disallowed_methods
    let _str = "planted".as_ptr(); // lint: clippy::disallowed_methods
    let _rc = std::rc::Rc::as_ptr(&std::rc::Rc::new(0u8)); // lint: clippy::disallowed_methods
    let _arc = std::sync::Arc::as_ptr(&std::sync::Arc::new(0u8)); // lint: clippy::disallowed_methods
    let cell = std::cell::Cell::new(0u8);
    let _cell = cell.as_ptr(); // lint: clippy::disallowed_methods
    let _non_null = std::ptr::NonNull::<u8>::dangling().as_ptr(); // lint: clippy::disallowed_methods
    let _from_ref = std::ptr::from_ref(x); // lint: clippy::disallowed_methods
    let _from_mut = std::ptr::from_mut(x); // lint: clippy::disallowed_methods
    v.len()
}

/// A reference cast to a raw pointer is an address too.
#[expect(
    clippy::as_conversions,
    reason = "the planted line must draw `ref_as_ptr` alone"
)]
pub fn address_of(x: &u64) -> *const u64 {
    x as *const u64 // lint: clippy::ref_as_ptr
}

/// Libraries render strings; binaries print them.
pub fn prints() {
    println!("planted"); // lint: clippy::print_stdout
    eprintln!("planted"); // lint: clippy::print_stderr
}

/// Parallelism goes through the rayon pool.
pub fn spawns() -> bool {
    std::thread::spawn(|| ()).join().is_ok() // lint: clippy::disallowed_methods
}

/// Shared state goes through the pool's ordered collect, never an
/// atomic.
pub struct Atomics {
    pub bool: std::sync::atomic::AtomicBool, // lint: clippy::disallowed_types
    pub i8: std::sync::atomic::AtomicI8, // lint: clippy::disallowed_types
    pub i16: std::sync::atomic::AtomicI16, // lint: clippy::disallowed_types
    pub i32: std::sync::atomic::AtomicI32, // lint: clippy::disallowed_types
    pub i64: std::sync::atomic::AtomicI64, // lint: clippy::disallowed_types
    pub isize: std::sync::atomic::AtomicIsize, // lint: clippy::disallowed_types
    pub ptr: std::sync::atomic::AtomicPtr<u8>, // lint: clippy::disallowed_types
    pub u8: std::sync::atomic::AtomicU8, // lint: clippy::disallowed_types
    pub u16: std::sync::atomic::AtomicU16, // lint: clippy::disallowed_types
    pub u32: std::sync::atomic::AtomicU32, // lint: clippy::disallowed_types
    pub u64: std::sync::atomic::AtomicU64, // lint: clippy::disallowed_types
    pub usize: std::sync::atomic::AtomicUsize, // lint: clippy::disallowed_types
}

/// A lock nesting must fit the audited order, so a new lock is a
/// decision, not a default.
pub struct Locks {
    pub mutex: std::sync::Mutex<u64>, // lint: clippy::disallowed_types
    pub rw: std::sync::RwLock<u64>, // lint: clippy::disallowed_types
}

/// Test code is exempt: clippy lints the library alone.
#[cfg(test)]
mod tests {
    #[test]
    fn exempt() {
        assert_eq!(Some(1u32).unwrap(), 1);
        println!("test output is fine");
    }
}
