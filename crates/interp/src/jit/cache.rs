//! Process-wide shared native-code cache.
//!
//! The same bounded LRU `SlotCache` as the shared program cache
//! ([`crate::shared`]), keyed by kernel `jit_key`: the first caller of a
//! key emits and publishes the blob outside the lock, concurrent callers
//! of that key wait on its slot, and an insert beyond
//! [`cache_capacity`](crate::cache_capacity) drops the least recently
//! used blob. Its pages are unmapped as soon as the last kernel holding
//! it drops too.
//!
//! Each fused kernel memoizes the blob it got from here, so the cache is
//! consulted once per kernel per [`Program`](crate::Program) value, not
//! once per run.

use super::JitCode;
use crate::shared::SlotCache;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// `None` records that the OS refused executable pages for this kernel.
static CODE: SlotCache<u64, Option<Arc<JitCode>>> = SlotCache::new();
static COMPILES: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Cumulative counters of the process-wide native-code cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CodeCacheStats {
    /// Lookups that found the kernel's slot resident. A kernel looks up
    /// its code once per [`Program`](crate::Program) value, so hits
    /// come from clones of a program made before its first native run.
    pub hits: u64,
    /// Lookups that inserted a fresh slot (first use, or after eviction).
    pub misses: u64,
    /// Entries dropped by LRU eviction.
    pub evictions: u64,
    /// Kernels lowered to native code (cache hits do not count).
    pub compiles: u64,
    /// Total native code bytes emitted. Warm campaign re-runs leave
    /// this unchanged.
    pub bytes: u64,
}

/// Current counters of the native-code cache. Warm re-runs of a campaign
/// should leave `compiles` and `bytes` unchanged.
pub fn code_cache_stats() -> CodeCacheStats {
    let s = CODE.stats();
    CodeCacheStats {
        hits: s.hits,
        misses: s.misses,
        evictions: s.evictions,
        compiles: COMPILES.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

/// The native code of kernel `key`: the resident blob, or `emit`'s
/// bytes published on first use. `None` when the OS refuses executable
/// pages (the caller falls back to bytecode).
pub(crate) fn code_for(key: u64, emit: impl FnOnce() -> Vec<u8>) -> Option<Arc<JitCode>> {
    CODE.slot(key)
        .get_or_init(|| {
            let bytes = emit();
            COMPILES.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(bytes.len() as u64, Ordering::Relaxed);
            JitCode::publish(&bytes).map(Arc::new)
        })
        .clone()
}

/// Number of resident blobs.
#[cfg(test)]
pub(crate) fn resident_len() -> usize {
    CODE.len()
}

/// Whether kernel `key`'s slot is resident.
#[cfg(test)]
pub(crate) fn is_resident(key: u64) -> bool {
    CODE.contains(&key)
}
