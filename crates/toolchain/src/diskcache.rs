//! The disk-persisted, content-addressed artifact tier of the
//! [`CompileCache`](crate::CompileCache).
//!
//! The in-memory cache dies with the process; production front-doors
//! restart. A [`DiskTier`] persists every compiled [`Module`] as one entry
//! file keyed by *kernel fingerprint × route identity* (the same
//! [`CacheKey`] the memory tier uses), so a restarted gateway serves its
//! first request of a known (kernel, route) pair from disk instead of
//! re-running the lint gate and ISA assembly — the warm-restart path the
//! `serve-http` bench measures.
//!
//! Crash safety is the design center:
//!
//! * **Atomic publication** — entries are written to a temp file and
//!   `rename`d into place, so a crash mid-write leaves at worst an
//!   orphaned temp file, never a half-written entry under the real key.
//! * **Checksummed reads** — every entry carries an FNV-1a checksum of its
//!   payload; a truncated, corrupt, or zero-length file fails validation
//!   and is treated as a **miss** (the artifact is recompiled and the
//!   entry re-filled). Corruption can cost a compile, never a panic and
//!   never a wrong artifact.
//! * **Best-effort writes** — I/O failures while storing are counted
//!   ([`DiskStats::write_errors`]) and swallowed; the cache degrades to
//!   memory-only instead of failing the compile.

use crate::cache::CacheKey;
use mcmm_gpu_sim::diffval::fnv1a;
use mcmm_gpu_sim::isa::IsaKind;
use mcmm_gpu_sim::Module;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Entry-file magic: identifies the format and its version in one probe.
const MAGIC: &[u8; 8] = b"MCMMART1";

/// Fixed header size: magic + isa tag + payload length + checksum.
const HEADER: usize = 8 + 1 + 8 + 8;

/// Aggregate counters of one [`DiskTier`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Probes served by a valid entry file.
    pub hits: u64,
    /// Probes that found no entry file.
    pub misses: u64,
    /// Probes that found an entry file but rejected it (bad magic, short
    /// header, length mismatch, checksum mismatch) — each one is also a
    /// miss from the caller's point of view.
    pub invalid: u64,
    /// Entries written (including re-fills over rejected entries).
    pub fills: u64,
    /// Writes that failed at the I/O layer and were swallowed.
    pub write_errors: u64,
}

/// The disk-persisted artifact tier. Thread- and process-safe: concurrent
/// writers of the same key race benignly (both write valid bytes; the
/// last rename wins), and readers only ever observe fully-published
/// entries.
pub struct DiskTier {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    invalid: AtomicU64,
    fills: AtomicU64,
    write_errors: AtomicU64,
    /// Distinguishes concurrent writers' temp files within one process.
    temp_seq: AtomicU64,
}

impl DiskTier {
    /// Open (creating if needed) an artifact directory.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalid: AtomicU64::new(0),
            fills: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            temp_seq: AtomicU64::new(0),
        })
    }

    /// The artifact directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Aggregate counters so far (this process only — the directory itself
    /// is shared across restarts).
    pub fn stats(&self) -> DiskStats {
        DiskStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalid: self.invalid.load(Ordering::Relaxed),
            fills: self.fills.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
        }
    }

    /// Entry files currently present (any validity).
    pub fn entry_count(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter(|e| e.path().extension().is_some_and(|x| x == "mcmmart"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// The entry file carrying a key: content fingerprints plus the route
    /// triple, so the name alone is the full cache identity.
    pub fn entry_path(&self, key: &CacheKey) -> PathBuf {
        let toolchain: String = key
            .toolchain
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
            .collect();
        self.dir.join(format!(
            "k{:016x}-r{:016x}-{}-{}{}{}.mcmmart",
            key.kernel, key.route, toolchain, key.model as u8, key.language as u8, key.vendor as u8
        ))
    }

    /// Probe the tier. Returns the persisted module only if the entry file
    /// exists and passes every structural and checksum validation;
    /// anything else — missing, empty, truncated, corrupt — is a miss.
    pub fn load(&self, key: &CacheKey) -> Option<Module> {
        let path = self.entry_path(key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match decode(&bytes) {
            Some(module) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(module)
            }
            None => {
                self.invalid.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Persist a compiled artifact under its key. Best-effort: the write
    /// goes to a temp file first and is renamed into place, so concurrent
    /// stores and crashes never publish a torn entry; failures are counted
    /// and swallowed.
    pub fn store(&self, key: &CacheKey, module: &Module) {
        let payload = &module.bytes;
        let mut out = Vec::with_capacity(HEADER + payload.len());
        out.extend_from_slice(MAGIC);
        out.push(isa_tag(module.isa));
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a(payload).to_le_bytes());
        out.extend_from_slice(payload);

        let seq = self.temp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!(".tmp-{}-{seq}", std::process::id()));
        let published = std::fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(&out))
            .and_then(|()| std::fs::rename(&tmp, self.entry_path(key)));
        match published {
            Ok(()) => {
                self.fills.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                let _ = std::fs::remove_file(&tmp);
                self.write_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl std::fmt::Debug for DiskTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("DiskTier")
            .field("dir", &self.dir)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("invalid", &s.invalid)
            .field("fills", &s.fills)
            .finish()
    }
}

fn isa_tag(isa: IsaKind) -> u8 {
    match isa {
        IsaKind::PtxLike => 0,
        IsaKind::GcnLike => 1,
        IsaKind::SpirvLike => 2,
    }
}

fn isa_from_tag(tag: u8) -> Option<IsaKind> {
    match tag {
        0 => Some(IsaKind::PtxLike),
        1 => Some(IsaKind::GcnLike),
        2 => Some(IsaKind::SpirvLike),
        _ => None,
    }
}

/// Validate and decode one entry file's bytes. `None` on any violation.
fn decode(bytes: &[u8]) -> Option<Module> {
    if bytes.len() < HEADER || &bytes[..8] != MAGIC {
        return None;
    }
    let isa = isa_from_tag(bytes[8])?;
    let len = u64::from_le_bytes(bytes[9..17].try_into().ok()?) as usize;
    let checksum = u64::from_le_bytes(bytes[17..25].try_into().ok()?);
    let payload = &bytes[HEADER..];
    if payload.len() != len || fnv1a(payload) != checksum {
        return None;
    }
    // The payload is a vendor-ISA module: its own magic must agree with
    // the header's ISA tag, or someone renamed an entry across keys.
    if IsaKind::sniff(payload) != Some(isa) {
        return None;
    }
    Some(Module { isa, bytes: payload.to_vec() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::kernel_fingerprint;
    use crate::probe::smoke_kernel;
    use mcmm_core::taxonomy::{Language, Model, Vendor};
    use mcmm_gpu_sim::isa::assemble;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mcmm-diskcache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key_for(kernel: u64) -> CacheKey {
        CacheKey {
            kernel,
            route: 0xDEAD,
            toolchain: "nvcc",
            model: Model::Cuda,
            language: Language::Cpp,
            vendor: Vendor::Nvidia,
        }
    }

    fn module() -> Module {
        assemble(&smoke_kernel(), IsaKind::PtxLike).unwrap()
    }

    #[test]
    fn round_trip_and_stats() {
        let tier = DiskTier::open(temp_dir("roundtrip")).unwrap();
        let key = key_for(kernel_fingerprint(&smoke_kernel()));
        assert!(tier.load(&key).is_none(), "empty dir must miss");
        let m = module();
        tier.store(&key, &m);
        let loaded = tier.load(&key).expect("stored entry must load");
        assert_eq!(loaded, m, "persisted artifact must be byte-identical");
        let s = tier.stats();
        assert_eq!((s.hits, s.misses, s.invalid, s.fills), (1, 1, 0, 1));
        assert_eq!(tier.entry_count(), 1);
    }

    #[test]
    fn warm_across_reopen() {
        let dir = temp_dir("reopen");
        let key = key_for(1);
        let m = module();
        DiskTier::open(&dir).unwrap().store(&key, &m);
        // A fresh process-equivalent: new tier over the same directory.
        let tier = DiskTier::open(&dir).unwrap();
        assert_eq!(tier.load(&key), Some(m));
    }

    #[test]
    fn distinct_keys_get_distinct_files() {
        let tier = DiskTier::open(temp_dir("keys")).unwrap();
        assert_ne!(tier.entry_path(&key_for(1)), tier.entry_path(&key_for(2)));
        let other = CacheKey { vendor: Vendor::Amd, ..key_for(1) };
        assert_ne!(tier.entry_path(&key_for(1)), tier.entry_path(&other));
    }

    #[test]
    fn zero_length_entry_is_an_invalid_miss() {
        let tier = DiskTier::open(temp_dir("zero")).unwrap();
        let key = key_for(3);
        std::fs::write(tier.entry_path(&key), b"").unwrap();
        assert!(tier.load(&key).is_none());
        assert_eq!(tier.stats().invalid, 1);
    }

    #[test]
    fn truncated_entry_is_an_invalid_miss_then_refills() {
        let tier = DiskTier::open(temp_dir("trunc")).unwrap();
        let key = key_for(4);
        let m = module();
        tier.store(&key, &m);
        let path = tier.entry_path(&key);
        let full = std::fs::read(&path).unwrap();
        // Cut the file mid-payload — a crash during a non-atomic write.
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(tier.load(&key).is_none(), "truncated entry must be a miss");
        assert_eq!(tier.stats().invalid, 1);
        // Re-fill over the damage; the entry is whole again.
        tier.store(&key, &m);
        assert_eq!(tier.load(&key), Some(m));
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let tier = DiskTier::open(temp_dir("corrupt")).unwrap();
        let key = key_for(5);
        tier.store(&key, &module());
        let path = tier.entry_path(&key);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // one flipped payload bit
        std::fs::write(&path, &bytes).unwrap();
        assert!(tier.load(&key).is_none(), "checksum must catch payload corruption");
        assert_eq!(tier.stats().invalid, 1);
    }

    #[test]
    fn foreign_magic_is_rejected() {
        let tier = DiskTier::open(temp_dir("magic")).unwrap();
        let key = key_for(6);
        std::fs::write(tier.entry_path(&key), b"NOTANART-and-then-some-bytes").unwrap();
        assert!(tier.load(&key).is_none());
        assert_eq!(tier.stats().invalid, 1);
    }

    #[test]
    fn cross_key_rename_is_rejected_by_isa_tag() {
        // An entry renamed from an AMD key to an NVIDIA key must not be
        // served: the header's ISA tag disagrees with the payload magic
        // only if the file is tampered, but a *consistent* GCN entry under
        // a PTX key is caught because load() keys the path, and decode
        // cross-checks header tag vs payload magic. Simulate the tamper:
        // flip the tag byte of a valid entry.
        let tier = DiskTier::open(temp_dir("isatag")).unwrap();
        let key = key_for(7);
        tier.store(&key, &module());
        let path = tier.entry_path(&key);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] = 1; // claim GCN over a PTX payload
        std::fs::write(&path, &bytes).unwrap();
        assert!(tier.load(&key).is_none());
    }
}
