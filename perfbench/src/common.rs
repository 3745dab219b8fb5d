//! Pieces every workload shares: the seeded input generator, order
//! statistics, the process memory high-water mark, and the record of one
//! closed-loop phase.

use std::time::Duration;

/// The benchmark's own seeded generator (splitmix64). Inputs come from
/// here, not from the program's generators, so a change to the program
/// never changes what the benchmark feeds it.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6A09_E667_F3BC_C908)
    }

    /// A generator for one sub-stream (job index, pass, …) of a seed.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut r = Self::new(seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound` ≥ 1).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }
}

/// FNV-1a, the checksum the gateway answers with, computed here
/// independently of the program's copy.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

pub fn f32_bytes(xs: &[f32]) -> Vec<u8> {
    xs.iter().flat_map(|v| v.to_le_bytes()).collect()
}

pub fn i32_bytes(xs: &[i32]) -> Vec<u8> {
    xs.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Nearest-rank quantile of an ascending slice (`q` in `0..=1`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The process's resident-memory high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Operations attempted and failed, over every check a run makes.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One closed-loop phase: every operation's latency and outcome.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    /// Measured wall-clock (set-up and off-clock pauses excluded).
    pub wall: Duration,
    /// Per completed operation: latency in seconds, and whether its output
    /// checked out.
    pub ops: Vec<(f64, bool)>,
}

impl Phase {
    /// Correct operations completed within `limit_s`, per second.
    pub fn goodput(&self, limit_s: f64) -> f64 {
        let good = self.ops.iter().filter(|&&(lat, ok)| ok && lat <= limit_s).count();
        good as f64 / self.wall.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    pub fn latencies(&self) -> Vec<f64> {
        sorted(&self.ops.iter().map(|(lat, _)| *lat).collect::<Vec<_>>())
    }

    pub fn merge(&mut self, other: Phase) {
        self.wall += other.wall;
        self.ops.extend(other.ops);
    }
}

/// The end-to-end view of one phase.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub goodput_rps: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub samples: usize,
}

impl EndToEnd {
    pub fn of(phase: &Phase, limit_s: f64) -> Self {
        let lat = phase.latencies();
        Self {
            goodput_rps: phase.goodput(limit_s),
            p50_ms: quantile(&lat, 0.50) * 1e3,
            p99_ms: quantile(&lat, 0.99) * 1e3,
            samples: lat.len(),
        }
    }
}
