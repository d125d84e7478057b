//! Host facts the report states next to every number (CPU count,
//! toolchain, cache sizes, peak memory) and the two memory-system
//! probes: streaming bandwidth and random-gather latency.
//!
//! Cache sizes come from the CPUID instruction and peak RSS from the
//! process's own `/proc/self/status`.

use plurality_sampling::Xoshiro256PlusPlus;
use rand::{RngCore, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Worker threads the benchmark may keep busy.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The toolchain that compiled this benchmark.
pub const RUSTC: &str = env!("PERFBENCH_RUSTC");

/// Per-core L2 and shared L3 sizes in bytes, as CPUID reports them
/// (`None` where the CPU does not say).
#[must_use]
pub fn cache_sizes() -> (Option<u64>, Option<u64>) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid_count;
        // Intel publishes deterministic cache parameters in leaf 4, AMD
        // in leaf 0x8000_001D; both use the same register layout, and an
        // unsupported leaf reads as zeros, which ends the scan.
        let scan = |leaf: u32| {
            let (mut l2, mut l3) = (None, None);
            for sub in 0..16 {
                let r = __cpuid_count(leaf, sub);
                let kind = r.eax & 0x1f;
                if kind == 0 {
                    break;
                }
                let ways = u64::from((r.ebx >> 22) + 1);
                let parts = u64::from(((r.ebx >> 12) & 0x3ff) + 1);
                let line = u64::from((r.ebx & 0xfff) + 1);
                let size = ways * parts * line * (u64::from(r.ecx) + 1);
                // Types 1 (data) and 3 (unified) hold data.
                if kind == 1 || kind == 3 {
                    match (r.eax >> 5) & 0x7 {
                        2 => l2 = Some(size),
                        3 => l3 = Some(size),
                        _ => {}
                    }
                }
            }
            (l2, l3)
        };
        let max_std = __cpuid_count(0, 0).eax;
        let max_ext = __cpuid_count(0x8000_0000, 0).eax;
        let intel = if max_std >= 4 { scan(4) } else { (None, None) };
        if intel != (None, None) || max_ext < 0x8000_001D {
            return intel;
        }
        scan(0x8000_001D)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        (None, None)
    }
}

/// Peak resident set size of this process's address space so far, in
/// MiB: the kernel's `VmHWM`.  Unlike `getrusage`, it starts afresh at
/// `exec`, so a launcher's own memory (`cargo run`) is not counted.
/// NaN where the kernel does not report it.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// Streaming read bandwidth in GB/s over an array of `bytes` bytes:
/// the median of three full passes.
#[must_use]
pub fn stream_gbps(bytes: usize) -> f64 {
    let words = bytes / 8;
    let data: Vec<u64> = (0..words as u64).collect();
    let mut rates = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let sum = black_box(&data)
            .iter()
            .fold(0u64, |a, &x| a.wrapping_add(x));
        black_box(sum);
        rates.push((words * 8) as f64 / t.elapsed().as_nanos() as f64);
    }
    crate::stats::median(&rates)
}

/// Nanoseconds per independent random one-byte read from an array of
/// `working_set` bytes (the agent engine's `u8` state array at its
/// size), with the indices precomputed so no RNG time is included.
#[must_use]
pub fn gather_ns(working_set: usize, seed: u64) -> f64 {
    const READS: usize = 1 << 21;
    let states = vec![1u8; working_set];
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let idx: Vec<u32> = (0..READS)
        .map(|_| (rng.next_u64() % working_set as u64) as u32)
        .collect();
    let mut per_read = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let sum = black_box(&idx)
            .iter()
            .fold(0u64, |a, &i| a + u64::from(states[i as usize]));
        black_box(sum);
        per_read.push(t.elapsed().as_nanos() as f64 / READS as f64);
    }
    crate::stats::median(&per_read)
}
