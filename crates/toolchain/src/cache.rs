//! The content-addressed compile cache.
//!
//! Every consumer of the executable matrix — the probe, the serving layer,
//! the benches — compiles the same handful of kernels through the same
//! routes over and over. A [`CompileCache`] memoises [`VirtualCompiler::compile`]
//! behind a key of *kernel content* × *route identity*, so the expensive
//! part (the `mcmm-analyze` lint gate plus ISA assembly) runs once per
//! distinct (kernel, route) pair and every later request is a map lookup.
//!
//! Properties:
//!
//! * **Content-addressed** — the key hashes the kernel IR itself (name,
//!   signature, register table, body), not a caller-supplied label, so two
//!   structurally identical kernels share an artifact and any edit produces
//!   a new key.
//! * **Bounded** — entries beyond [`CompileCache::capacity`] are evicted
//!   least-recently-used first.
//! * **Observable** — global hit/miss/eviction counters plus per-entry
//!   statistics ([`EntryStats`]) feed the serving layer's reports.
//! * **Failure-transparent** — compile errors are returned but never
//!   cached; a route that refuses a kernel refuses it on every attempt,
//!   exactly like the underlying compiler.

use crate::compiler::{CompileError, VirtualCompiler};
use crate::diskcache::{DiskStats, DiskTier};
use mcmm_core::taxonomy::{Language, Model, Vendor};
use mcmm_gpu_sim::ir::KernelIr;
use mcmm_gpu_sim::Module;
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Stable content fingerprint of a kernel IR.
///
/// Delegates to [`KernelIr::fingerprint`]: one structural pass over the
/// name, parameter and register tables, shared-memory size, and every
/// instruction (float immediates by bit pattern), so structurally
/// identical kernels collide, any edit produces a new fingerprint, and
/// the warm-cache path never formats or allocates.
pub fn kernel_fingerprint(kernel: &KernelIr) -> u64 {
    kernel.fingerprint()
}

/// The cache key: kernel content × route identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// [`kernel_fingerprint`] of the kernel IR.
    pub kernel: u64,
    /// Fingerprint of the route metadata (completeness, maintenance, …)
    /// that shapes the lint gate — two matrices carrying the same
    /// toolchain name with different maturity must not share artifacts.
    pub route: u64,
    /// Toolchain name (the dataset route's identity string).
    pub toolchain: &'static str,
    /// Source programming model.
    pub model: Model,
    /// Source language.
    pub language: Language,
    /// Target vendor.
    pub vendor: Vendor,
}

/// Per-entry statistics, readable while the cache is live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryStats {
    /// Times this entry was served from the cache after its fill.
    pub hits: u64,
    /// Size of the cached artifact in bytes.
    pub artifact_bytes: usize,
    /// Logical fill time (monotone cache tick at insertion).
    pub filled_at: u64,
    /// Logical last-use time (monotone cache tick).
    pub last_used: u64,
}

/// Aggregate cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from the cache.
    pub hits: u64,
    /// Requests that had to compile.
    pub misses: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of requests served from cache (0 when never used).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    module: Arc<Module>,
    hits: u64,
    filled_at: u64,
    last_used: u64,
}

struct Inner {
    map: HashMap<CacheKey, Entry>,
    /// Monotone logical clock advanced on every fill or hit; orders
    /// entries for LRU eviction.
    tick: u64,
}

/// A bounded, content-addressed, thread-safe compile cache.
pub struct CompileCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Optional persistent tier probed on memory misses and filled on
    /// compiles; survives process restarts (see [`DiskTier`]).
    disk: Option<Arc<DiskTier>>,
}

impl CompileCache {
    /// A cache holding at most `capacity` artifacts (at least 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner { map: HashMap::new(), tick: 0 }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            disk: None,
        }
    }

    /// A cache backed by a disk-persisted artifact tier: memory misses
    /// probe `disk` before compiling, and every fresh compile is persisted
    /// there, so artifacts stay warm across process restarts. Sharing one
    /// [`DiskTier`] between caches (or processes) is safe — entries are
    /// published atomically and validated by checksum on read.
    pub fn with_disk(capacity: usize, disk: Arc<DiskTier>) -> Self {
        let mut cache = Self::new(capacity);
        cache.disk = Some(disk);
        cache
    }

    /// Maximum resident artifacts before LRU eviction.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The disk tier's counters, if one is attached.
    pub fn disk_stats(&self) -> Option<DiskStats> {
        self.disk.as_ref().map(|d| d.stats())
    }

    /// Compile through the cache: serve the artifact if the (kernel, route)
    /// pair is resident, otherwise run the compiler's full pipeline (lint
    /// gate + assembly) once and remember the result.
    ///
    /// The boolean is `true` when the request was a cache hit.
    pub fn compile(
        &self,
        compiler: &VirtualCompiler,
        kernel: &KernelIr,
        model: Model,
        language: Language,
        vendor: Vendor,
    ) -> Result<(Arc<Module>, bool), CompileError> {
        self.compile_faulted(compiler, kernel, model, language, vendor, None)
    }

    /// [`CompileCache::compile`] with an optional injected toolchain
    /// fault. The fault models a *transient* infrastructure failure (a
    /// crashed compiler process, a wedged license server), so it only
    /// fires when the toolchain would actually be invoked — a resident
    /// artifact is served from the cache regardless, exactly like a real
    /// build cache riding out a flaky compiler. A faulted miss returns
    /// [`CompileError::ToolchainFault`] and caches nothing, so a retry
    /// without the fault compiles cleanly.
    pub fn compile_faulted(
        &self,
        compiler: &VirtualCompiler,
        kernel: &KernelIr,
        model: Model,
        language: Language,
        vendor: Vendor,
        fault: Option<&str>,
    ) -> Result<(Arc<Module>, bool), CompileError> {
        let route = {
            let mut h = DefaultHasher::new();
            compiler.route.hash(&mut h);
            h.finish()
        };
        let key = CacheKey {
            kernel: kernel_fingerprint(kernel),
            route,
            toolchain: compiler.name,
            model,
            language,
            vendor,
        };
        {
            let mut inner = self.inner.lock();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(e) = inner.map.get_mut(&key) {
                e.hits += 1;
                e.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((Arc::clone(&e.module), true));
            }
        }
        // Memory miss: probe the persistent tier before anything else. A
        // disk-resident artifact rides out an injected toolchain fault for
        // the same reason a memory-resident one does — the toolchain is
        // never invoked. The boolean stays `true`: from the caller's view
        // this request was served by the cache, not compiled.
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(disk) = &self.disk {
            if let Some(module) = disk.load(&key) {
                let module = self.admit(key, Arc::new(module));
                return Ok((module, true));
            }
        }
        if let Some(reason) = fault {
            return Err(CompileError::ToolchainFault {
                toolchain: compiler.name.to_owned(),
                reason: reason.to_owned(),
            });
        }
        // Compile outside the lock so concurrent fills of *different* keys
        // don't serialize. Two racing fills of the same key both compile;
        // the first insert wins and the loser adopts it.
        let module = Arc::new(compiler.compile(kernel, model, language, vendor)?);
        if let Some(disk) = &self.disk {
            disk.store(&key, &module);
        }
        Ok((self.admit(key, module), false))
    }

    /// Admit an artifact into the memory tier (first insert wins on a
    /// race) and evict least-recently-used entries beyond capacity —
    /// never the one just admitted, which is the most recently used by
    /// construction.
    fn admit(&self, key: CacheKey, module: Arc<Module>) -> Arc<Module> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let resident = inner.map.entry(key).or_insert(Entry {
            module,
            hits: 0,
            filled_at: tick,
            last_used: tick,
        });
        let module = Arc::clone(&resident.module);
        while inner.map.len() > self.capacity {
            let lru = inner
                .map
                .iter()
                .min_by_key(|(k, e)| (e.last_used, **k))
                .map(|(k, _)| *k)
                .expect("map is non-empty");
            inner.map.remove(&lru);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        module
    }

    /// Aggregate counters; safe to read while other threads compile.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.inner.lock().map.len(),
        }
    }

    /// Per-entry statistics for every resident artifact.
    pub fn entry_stats(&self) -> Vec<(CacheKey, EntryStats)> {
        let inner = self.inner.lock();
        let mut out: Vec<_> = inner
            .map
            .iter()
            .map(|(k, e)| {
                (
                    *k,
                    EntryStats {
                        hits: e.hits,
                        artifact_bytes: e.module.size(),
                        filled_at: e.filled_at,
                        last_used: e.last_used,
                    },
                )
            })
            .collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Drop every resident artifact (counters are preserved).
    pub fn clear(&self) {
        self.inner.lock().map.clear();
    }
}

impl Default for CompileCache {
    /// A generously sized cache (256 artifacts) for whole-matrix work.
    fn default() -> Self {
        Self::new(256)
    }
}

impl std::fmt::Debug for CompileCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("CompileCache")
            .field("capacity", &self.capacity)
            .field("entries", &s.entries)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("evictions", &s.evictions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::smoke_kernel;
    use crate::Registry;
    use mcmm_gpu_sim::ir::{KernelBuilder, Type};

    fn native_cuda() -> VirtualCompiler {
        Registry::paper().select_best(Model::Cuda, Language::Cpp, Vendor::Nvidia).unwrap().clone()
    }

    #[test]
    fn hit_after_fill() {
        let cache = CompileCache::new(8);
        let c = native_cuda();
        let k = smoke_kernel();
        let (m1, hit1) = cache.compile(&c, &k, Model::Cuda, Language::Cpp, Vendor::Nvidia).unwrap();
        let (m2, hit2) = cache.compile(&c, &k, Model::Cuda, Language::Cpp, Vendor::Nvidia).unwrap();
        assert!(!hit1);
        assert!(hit2);
        assert!(Arc::ptr_eq(&m1, &m2), "hit must serve the identical artifact");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert_eq!(s.hit_rate(), 0.5);
    }

    #[test]
    fn content_addressing_distinguishes_kernels_not_names() {
        let mk = |name: &str, regs: usize| {
            let mut k = KernelBuilder::new(name);
            let _ = k.param(Type::I64);
            let mut ir = k.finish();
            ir.regs.resize(ir.regs.len() + regs, Type::I32);
            ir
        };
        // Same name, different body → different keys.
        assert_ne!(kernel_fingerprint(&mk("k", 0)), kernel_fingerprint(&mk("k", 1)));
        // Identical content → identical keys.
        assert_eq!(kernel_fingerprint(&mk("k", 2)), kernel_fingerprint(&mk("k", 2)));
    }

    #[test]
    fn distinct_routes_fill_distinct_entries() {
        let cache = CompileCache::new(8);
        let k = smoke_kernel();
        let reg = Registry::paper();
        let nvcc = reg.select_best(Model::Cuda, Language::Cpp, Vendor::Nvidia).unwrap();
        let hipcc = reg.select_best(Model::Hip, Language::Cpp, Vendor::Amd).unwrap();
        cache.compile(nvcc, &k, Model::Cuda, Language::Cpp, Vendor::Nvidia).unwrap();
        cache.compile(hipcc, &k, Model::Hip, Language::Cpp, Vendor::Amd).unwrap();
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let cache = CompileCache::new(2);
        let c = native_cuda();
        let mk = |pad: usize| {
            let mut k = KernelBuilder::new("k");
            let _ = k.param(Type::I64);
            let mut ir = k.finish();
            ir.regs.resize(ir.regs.len() + pad, Type::I32);
            ir
        };
        let (k0, k1, k2) = (mk(0), mk(1), mk(2));
        cache.compile(&c, &k0, Model::Cuda, Language::Cpp, Vendor::Nvidia).unwrap();
        cache.compile(&c, &k1, Model::Cuda, Language::Cpp, Vendor::Nvidia).unwrap();
        // Touch k0 so k1 becomes the LRU, then overflow with k2.
        cache.compile(&c, &k0, Model::Cuda, Language::Cpp, Vendor::Nvidia).unwrap();
        cache.compile(&c, &k2, Model::Cuda, Language::Cpp, Vendor::Nvidia).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
        // k0 survived (recently used): hit. k1 was evicted: miss again.
        let (_, hit) = cache.compile(&c, &k0, Model::Cuda, Language::Cpp, Vendor::Nvidia).unwrap();
        assert!(hit, "recently used entry must survive eviction");
        let (_, hit) = cache.compile(&c, &k1, Model::Cuda, Language::Cpp, Vendor::Nvidia).unwrap();
        assert!(!hit, "LRU entry must have been evicted");
    }

    #[test]
    fn errors_are_returned_not_cached() {
        let cache = CompileCache::new(8);
        let c = native_cuda();
        let k = smoke_kernel();
        // nvcc cannot target AMD: every attempt fails, nothing is cached.
        for _ in 0..2 {
            let err = cache.compile(&c, &k, Model::Cuda, Language::Cpp, Vendor::Amd).unwrap_err();
            assert!(matches!(err, CompileError::UnsupportedTarget { .. }));
        }
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn injected_fault_fires_on_miss_only_and_is_never_cached() {
        let cache = CompileCache::new(8);
        let c = native_cuda();
        let k = smoke_kernel();
        // Cold cache: the fault reaches the caller and fills nothing.
        let err = cache
            .compile_faulted(&c, &k, Model::Cuda, Language::Cpp, Vendor::Nvidia, Some("oom"))
            .unwrap_err();
        match err {
            CompileError::ToolchainFault { toolchain, reason } => {
                assert_eq!(toolchain, c.name);
                assert_eq!(reason, "oom");
            }
            other => panic!("expected ToolchainFault, got {other:?}"),
        }
        assert_eq!(cache.stats().entries, 0, "faults must never be cached");
        // A clean retry compiles and fills.
        let (_, hit) = cache.compile(&c, &k, Model::Cuda, Language::Cpp, Vendor::Nvidia).unwrap();
        assert!(!hit);
        // Warm cache: the same fault is absorbed — the artifact is already
        // resident, so the flaky toolchain is never invoked.
        let (_, hit) = cache
            .compile_faulted(&c, &k, Model::Cuda, Language::Cpp, Vendor::Nvidia, Some("oom"))
            .unwrap();
        assert!(hit, "a resident artifact must ride out a toolchain fault");
    }

    #[test]
    fn entry_stats_track_hits_and_recency() {
        let cache = CompileCache::new(8);
        let c = native_cuda();
        let k = smoke_kernel();
        cache.compile(&c, &k, Model::Cuda, Language::Cpp, Vendor::Nvidia).unwrap();
        cache.compile(&c, &k, Model::Cuda, Language::Cpp, Vendor::Nvidia).unwrap();
        cache.compile(&c, &k, Model::Cuda, Language::Cpp, Vendor::Nvidia).unwrap();
        let entries = cache.entry_stats();
        assert_eq!(entries.len(), 1);
        let (key, stats) = entries[0];
        assert_eq!(key.toolchain, c.name);
        assert_eq!(stats.hits, 2);
        assert!(stats.artifact_bytes > 0);
        assert!(stats.last_used > stats.filled_at);
    }

    fn disk_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mcmm-cache-disk-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disk_tier_keeps_artifacts_warm_across_restarts() {
        let dir = disk_dir("warm");
        let c = native_cuda();
        let k = smoke_kernel();
        // "First process": compiles once, persists the artifact.
        let cold = CompileCache::with_disk(8, Arc::new(DiskTier::open(&dir).unwrap()));
        let (m1, hit) = cold.compile(&c, &k, Model::Cuda, Language::Cpp, Vendor::Nvidia).unwrap();
        assert!(!hit);
        assert_eq!(cold.disk_stats().unwrap().fills, 1);
        // "Restarted process": empty memory tier, same artifact directory.
        let warm = CompileCache::with_disk(8, Arc::new(DiskTier::open(&dir).unwrap()));
        let (m2, hit) = warm.compile(&c, &k, Model::Cuda, Language::Cpp, Vendor::Nvidia).unwrap();
        assert!(hit, "restart must serve the persisted artifact as a hit");
        assert_eq!(*m1, *m2, "persisted artifact must be byte-identical");
        let ds = warm.disk_stats().unwrap();
        assert_eq!((ds.hits, ds.fills), (1, 0), "warm run must not recompile");
        // Second request is a plain memory hit — disk untouched.
        let (_, hit) = warm.compile(&c, &k, Model::Cuda, Language::Cpp, Vendor::Nvidia).unwrap();
        assert!(hit);
        assert_eq!(warm.disk_stats().unwrap().hits, 1);
    }

    #[test]
    fn disk_hit_rides_out_toolchain_fault() {
        let dir = disk_dir("fault");
        let c = native_cuda();
        let k = smoke_kernel();
        CompileCache::with_disk(8, Arc::new(DiskTier::open(&dir).unwrap()))
            .compile(&c, &k, Model::Cuda, Language::Cpp, Vendor::Nvidia)
            .unwrap();
        // Restart with a flaky toolchain: the persisted artifact absorbs
        // the fault exactly like a memory-resident one would.
        let warm = CompileCache::with_disk(8, Arc::new(DiskTier::open(&dir).unwrap()));
        let (_, hit) = warm
            .compile_faulted(&c, &k, Model::Cuda, Language::Cpp, Vendor::Nvidia, Some("oom"))
            .unwrap();
        assert!(hit, "disk-resident artifact must ride out a toolchain fault");
    }

    #[test]
    fn corrupt_disk_entry_falls_back_to_recompile() {
        let dir = disk_dir("corrupt");
        let c = native_cuda();
        let k = smoke_kernel();
        let tier = Arc::new(DiskTier::open(&dir).unwrap());
        let cold = CompileCache::with_disk(8, Arc::clone(&tier));
        let (m1, _) = cold.compile(&c, &k, Model::Cuda, Language::Cpp, Vendor::Nvidia).unwrap();
        // Corrupt the single entry file in place.
        let entry = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.path().extension().is_some_and(|x| x == "mcmmart"))
            .unwrap()
            .path();
        std::fs::write(&entry, b"garbage").unwrap();
        // Restart: the damaged entry is a miss, the compile re-fills it,
        // and the caller still gets a correct artifact.
        let warm = CompileCache::with_disk(8, Arc::new(DiskTier::open(&dir).unwrap()));
        let (m2, hit) = warm.compile(&c, &k, Model::Cuda, Language::Cpp, Vendor::Nvidia).unwrap();
        assert!(!hit, "corrupt entry must not be served");
        assert_eq!(*m1, *m2, "recompile must reproduce the artifact");
        let ds = warm.disk_stats().unwrap();
        assert_eq!((ds.invalid, ds.fills), (1, 1));
        // And the re-fill is valid: one more restart serves it warm.
        let again = CompileCache::with_disk(8, Arc::new(DiskTier::open(&dir).unwrap()));
        let (_, hit) = again.compile(&c, &k, Model::Cuda, Language::Cpp, Vendor::Nvidia).unwrap();
        assert!(hit, "re-filled entry must serve the next restart");
    }

    #[test]
    fn concurrent_compiles_share_one_artifact() {
        let cache = Arc::new(CompileCache::new(8));
        let c = Arc::new(native_cuda());
        let k = Arc::new(smoke_kernel());
        let mods: Vec<Arc<Module>> = std::thread::scope(|s| {
            (0..8)
                .map(|_| {
                    let (cache, c, k) = (Arc::clone(&cache), Arc::clone(&c), Arc::clone(&k));
                    s.spawn(move || {
                        cache.compile(&c, &k, Model::Cuda, Language::Cpp, Vendor::Nvidia).unwrap().0
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(cache.stats().entries, 1, "racing fills must converge to one entry");
        // Everyone got a module of the right ISA.
        assert!(mods.iter().all(|m| m.isa == mcmm_gpu_sim::isa::IsaKind::PtxLike));
    }
}
