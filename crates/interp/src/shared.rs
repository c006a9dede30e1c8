//! Process-wide shared compiled-program cache.
//!
//! Campaign sessions, sweeps and gang members routinely compile the same
//! cutout SDFG: every re-run of a session, every concurrent session over
//! the same workload, every distributed rank of one instance. Compilation
//! is pure — same SDFG and options, same [`Program`] — so one process
//! needs each program exactly once.
//!
//! This cache and the native-code cache ([`crate::jit`]) are both a
//! `SlotCache`: a bounded least-recently-used map from key to a
//! per-key compile slot, behind one mutex.
//!
//! * **The lock covers bookkeeping only.** A lookup locks, finds or
//!   inserts the key's slot, stamps it most recently used and unlocks.
//!   Compilation happens *outside* the lock through the slot's
//!   [`OnceLock`]: the first caller compiles, concurrent callers of the
//!   same key block on that slot only, and everyone receives the same
//!   value. One worker compiling never stalls workers on other keys, and
//!   there are no lost wakeups — `OnceLock::get_or_init` wakes every
//!   waiter exactly once.
//! * **Capacity is bounded and eviction frees.** An insert beyond
//!   [`cache_capacity`] drops the least recently used slot. The cache
//!   holds the only cache-side reference to a slot, key included, so an
//!   evicted program is freed as soon as its last outside user drops it.
//!
//! Shared `Arc<Program>`s also make the downstream identity-keyed caches
//! effective across campaigns: [`Program`] clones share their id, so
//! per-worker executor caches and per-instance arena stashes keyed by
//! program identity hit whenever the cache does.

use crate::program::{CompileOptions, Program};
use fuzzyflow_ir::Sdfg;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// One compile slot: filled exactly once, by whichever caller gets there
/// first; everyone else blocks on this slot only.
type Slot<V> = Arc<OnceLock<V>>;

/// A bounded least-recently-used map from key to [`Slot`] (see the
/// module docs).
pub(crate) struct SlotCache<K, V> {
    shelf: OnceLock<Mutex<Shelf<K, V>>>,
}

struct Shelf<K, V> {
    /// Key → (slot, stamp of its last lookup).
    slots: HashMap<K, (Slot<V>, u64)>,
    clock: u64,
    stats: SlotStats,
}

/// Lookup counters of a [`SlotCache`].
#[derive(Clone, Copy, Default)]
pub(crate) struct SlotStats {
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    pub(crate) evictions: u64,
}

impl<K: Hash + Eq, V> SlotCache<K, V> {
    pub(crate) const fn new() -> Self {
        SlotCache {
            shelf: OnceLock::new(),
        }
    }

    fn shelf(&self) -> MutexGuard<'_, Shelf<K, V>> {
        self.shelf
            .get_or_init(|| {
                Mutex::new(Shelf {
                    slots: HashMap::new(),
                    clock: 0,
                    stats: SlotStats::default(),
                })
            })
            .lock()
            // Nothing panics while the lock is held, but a poisoned
            // shelf would still be consistent.
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The slot of `key`, inserted empty on a miss and stamped most
    /// recently used either way. An insert beyond [`cache_capacity`]
    /// evicts the least recently used slots.
    pub(crate) fn slot(&self, key: K) -> Slot<V> {
        let mut guard = self.shelf();
        let shelf = &mut *guard;
        shelf.clock += 1;
        let slot = match shelf.slots.entry(key) {
            Entry::Occupied(mut e) => {
                shelf.stats.hits += 1;
                e.get_mut().1 = shelf.clock;
                Arc::clone(&e.get().0)
            }
            Entry::Vacant(e) => {
                shelf.stats.misses += 1;
                Arc::clone(&e.insert((Arc::default(), shelf.clock)).0)
            }
        };
        let cap = cache_capacity();
        while shelf.slots.len() > cap {
            // Stamps are unique, so this drops exactly one slot. Freeing
            // its value here, under the lock, cannot deadlock: neither a
            // program nor a code blob touches a cache when dropped.
            let oldest = shelf.slots.values().map(|&(_, t)| t).min();
            shelf.slots.retain(|_, &mut (_, t)| Some(t) != oldest);
            shelf.stats.evictions += 1;
        }
        slot
    }

    pub(crate) fn stats(&self) -> SlotStats {
        self.shelf().stats
    }

    /// Number of resident slots.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.shelf().slots.len()
    }

    #[cfg(test)]
    pub(crate) fn contains(&self, key: &K) -> bool {
        self.shelf().slots.contains_key(key)
    }
}

/// Default capacity of the process-wide caches (see [`cache_capacity`]).
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

static PROGRAMS: SlotCache<String, Arc<Program>> = SlotCache::new();
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CACHE_CAPACITY);
static COMPILES: AtomicU64 = AtomicU64::new(0);

/// The shared capacity knob of every process-wide stash: the program
/// cache here, the native-code cache ([`crate::jit`]), the fuzzing
/// layer's per-worker executor caches and arena stashes. Entries, not
/// bytes; defaults to [`DEFAULT_CACHE_CAPACITY`].
pub fn cache_capacity() -> usize {
    CAPACITY.load(Ordering::Relaxed)
}

/// Sets [`cache_capacity`] process-wide (clamped to at least 1). Takes
/// effect on the next insert of each cache; already-resident entries
/// beyond a lowered capacity are evicted then.
pub fn set_cache_capacity(cap: usize) {
    CAPACITY.store(cap.max(1), Ordering::Relaxed);
}

/// Number of programs this process has actually compiled through the
/// shared cache (cache hits do not count). Warm re-runs of a campaign
/// should leave this unchanged.
pub fn shared_compile_count() -> u64 {
    COMPILES.load(Ordering::Relaxed)
}

/// Cumulative counters of the process-wide shared program cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// Lookups that found the key's slot resident.
    pub hits: u64,
    /// Lookups that inserted a fresh slot (first use, or after eviction).
    pub misses: u64,
    /// Entries dropped by LRU eviction.
    pub evictions: u64,
    /// Programs actually compiled (same counter as
    /// [`shared_compile_count`]).
    pub compiles: u64,
}

/// Current counters of the shared program cache.
pub fn shared_cache_stats() -> SharedCacheStats {
    let s = PROGRAMS.stats();
    SharedCacheStats {
        hits: s.hits,
        misses: s.misses,
        evictions: s.evictions,
        compiles: COMPILES.load(Ordering::Relaxed),
    }
}

/// [`Program::compile`] through the shared cache.
pub fn compile_shared(sdfg: &Sdfg) -> Arc<Program> {
    compile_shared_with(sdfg, &CompileOptions::default())
}

/// [`Program::compile_with_options`] through the shared cache: returns
/// the one `Arc<Program>` this process holds for the given SDFG content
/// and options, compiling it at most once while resident.
pub fn compile_shared_with(sdfg: &Sdfg, opts: &CompileOptions) -> Arc<Program> {
    // Content key: options plus the SDFG's complete debug rendering
    // (structurally equal SDFGs render identically).
    let key = format!(
        "s{}f{}|{sdfg:?}",
        opts.specialize_f64 as u8, opts.fuse_maps as u8
    );
    Arc::clone(PROGRAMS.slot(key).get_or_init(|| {
        COMPILES.fetch_add(1, Ordering::Relaxed);
        Arc::new(Program::compile_with_options(sdfg, opts))
    }))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fuzzyflow_ir::{DType, Memlet, ScalarExpr, SdfgBuilder, Subset, SymExpr, Tasklet};

    pub(crate) fn sample(name: &str, factor: f64) -> Sdfg {
        let mut b = SdfgBuilder::new(name);
        b.symbol("N");
        b.array("A", DType::F64, &["N"]);
        b.array("B", DType::F64, &["N"]);
        let st = b.start();
        b.in_state(st, |df| {
            let a = df.access("A");
            let o = df.access("B");
            let t = df.tasklet(Tasklet::simple(
                "t",
                vec!["x"],
                "y",
                ScalarExpr::r("x").mul(ScalarExpr::f64(factor)),
            ));
            df.read(
                a,
                t,
                Memlet::new("A", Subset::at(vec![SymExpr::sym("i")])).to_conn("x"),
            );
            df.write(
                t,
                o,
                Memlet::new("B", Subset::at(vec![SymExpr::sym("i")])).from_conn("y"),
            );
            let _ = df;
        });
        b.build()
    }

    /// Serializes the tests that change the process-wide capacity.
    static CAPACITY_LOCK: Mutex<()> = Mutex::new(());

    /// Runs `f` at cache capacity `cap`, restoring the previous capacity
    /// afterwards (also when `f` panics).
    pub(crate) fn at_capacity<R>(cap: usize, f: impl FnOnce() -> R) -> R {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                set_cache_capacity(self.0);
            }
        }
        let _lock = CAPACITY_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let _restore = Restore(cache_capacity());
        set_cache_capacity(cap);
        f()
    }

    #[test]
    fn churn_frees_evicted_programs() {
        const CAP: usize = 4;
        let sdfgs: Vec<Sdfg> = (0..3 * CAP)
            .map(|i| sample(&format!("shared_cache_churn_{i}"), i as f64))
            .collect();
        at_capacity(CAP, || {
            for _round in 0..4 {
                // An outside user keeps the first program alive past its
                // eviction; everything else is dropped right away.
                let kept = compile_shared(&sdfgs[0]);
                let mut weaks = vec![Arc::downgrade(&kept)];
                for s in &sdfgs[1..] {
                    weaks.push(Arc::downgrade(&compile_shared(s)));
                    assert!(PROGRAMS.len() <= CAP, "cache over capacity");
                }
                // LRU order: all but the last `CAP` programs are evicted.
                let evicted = &weaks[..weaks.len() - CAP];
                assert!(evicted[0].upgrade().is_some(), "evicted while in use");
                drop(kept);
                for (i, w) in evicted.iter().enumerate() {
                    assert!(w.upgrade().is_none(), "evicted program {i} leaked");
                }
            }
        });
    }

    // One test (not several), serialized with the churn test, so the
    // global compile counter deltas cannot race against a sibling test
    // in the same process.
    #[test]
    fn shared_cache_compiles_each_content_once() {
        at_capacity(DEFAULT_CACHE_CAPACITY, compiles_each_content_once);
    }

    fn compiles_each_content_once() {
        // Structurally identical SDFGs built twice: one compilation.
        let s1 = sample("shared_cache_once", 2.0);
        let s2 = sample("shared_cache_once", 2.0);
        let before = shared_compile_count();
        let p1 = compile_shared(&s1);
        let p2 = compile_shared(&s2);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(p1.id(), p2.id());
        assert_eq!(shared_compile_count() - before, 1);
        // Different options miss; the original key still hits.
        let p3 = compile_shared_with(
            &s1,
            &CompileOptions {
                fuse_maps: false,
                ..Default::default()
            },
        );
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert_eq!(shared_compile_count() - before, 2);
        assert!(Arc::ptr_eq(&p1, &compile_shared(&s2)));
        assert_eq!(shared_compile_count() - before, 2);
        let stats = shared_cache_stats();
        assert!(stats.hits >= 1 && stats.misses >= 2);

        // Eight threads racing on a fresh key: everyone gets the same
        // program, exactly one compilation, no lost wakeups.
        let racy = sample("shared_cache_race", 3.0);
        let before = shared_compile_count();
        let ids: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| compile_shared(&racy).id()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(shared_compile_count() - before, 1);

        // Capacity bound: with a capacity of 2, three distinct keys
        // force an LRU eviction, and re-requesting the evicted content
        // recompiles under a fresh program id.
        set_cache_capacity(2);
        let (ca, cb, cc) = (
            sample("shared_cache_cap_a", 4.0),
            sample("shared_cache_cap_b", 5.0),
            sample("shared_cache_cap_c", 6.0),
        );
        let ev_before = shared_cache_stats().evictions;
        let a1 = compile_shared(&ca).id();
        let _ = compile_shared(&cb);
        let _ = compile_shared(&cc);
        assert!(shared_cache_stats().evictions > ev_before);
        // Everything from before this block was evicted too; the one
        // entry guaranteed gone is the LRU — `ca` among the three.
        let a2 = compile_shared(&ca).id();
        assert_ne!(a1, a2, "evicted content must recompile");
    }
}
