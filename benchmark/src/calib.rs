//! Host-speed calibration.
//!
//! On a shared VM the CPU's speed moves by ±25% from one second to the
//! next, and runs of identical code read up to 1.5× apart (see
//! README.md, "Noise"). So every timed phase is split into short
//! segments, and after each segment the benchmark times a fixed kernel of
//! its own: string formatting, a sort and B-tree inserts, which run no
//! program code. A segment's speed factor is [`REF_MS`] over the median
//! kernel time near it, and the end-to-end times are reported scaled by
//! that factor: in milliseconds on a host where the kernel takes
//! [`REF_MS`]. A program change cannot move the kernel, so it moves the
//! scaled figures as much as the raw ones; host drift moves both the
//! kernel and the program, and cancels out.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference host, ms.
pub const REF_MS: f64 = 0.40;

/// Kernel runs per calibration point; the fastest one counts, so an
/// interrupt during one run does not count as a slow host.
const REPS: usize = 3;

/// Calibration points on each side of a segment that its factor uses.
const WINDOW: usize = 2;

/// One run of the fixed kernel, ms.
fn kernel_ms() -> f64 {
    let t = Instant::now();
    let mut keys: Vec<String> = (0..1500u32)
        .map(|i| format!("k{}", i.wrapping_mul(2_654_435_761) % 100_000))
        .collect();
    keys.sort();
    let mut map = std::collections::BTreeMap::new();
    for (i, k) in keys.iter().enumerate() {
        *map.entry(k.as_str()).or_insert(0usize) += i;
    }
    black_box(map.len());
    t.elapsed().as_secs_f64() * 1e3
}

/// Calibration points taken between the segments of one timed phase
/// (or between set-ups): one before the first segment and one after
/// each.
pub struct HostClock {
    /// Kernel time at each calibration point, ms.
    points: Vec<f64>,
    /// Wall time of each segment, s.
    walls: Vec<f64>,
}

impl HostClock {
    /// A clock with its first calibration point taken.
    pub fn start() -> HostClock {
        let mut c = HostClock {
            points: Vec::new(),
            walls: Vec::new(),
        };
        c.calibrate();
        c
    }

    fn calibrate(&mut self) {
        let best = (0..REPS).map(|_| kernel_ms()).fold(f64::INFINITY, f64::min);
        self.points.push(best);
    }

    /// Closes a segment that took `wall_s` seconds and takes the next
    /// calibration point; returns the segment's index.
    pub fn end_segment(&mut self, wall_s: f64) -> usize {
        self.walls.push(wall_s);
        self.calibrate();
        self.walls.len() - 1
    }

    /// Segments closed so far.
    pub fn segments(&self) -> usize {
        self.walls.len()
    }

    /// The speed factor of segment `seg`: [`REF_MS`] over the median of
    /// the calibration points within [`WINDOW`] of its two ends.
    pub fn factor(&self, seg: usize) -> f64 {
        let lo = seg.saturating_sub(WINDOW - 1);
        let hi = (seg + 1 + WINDOW).min(self.points.len());
        REF_MS / crate::stats::median(&self.points[lo..hi])
    }

    /// Total segment time, scaled, s.
    pub fn scaled_s(&self) -> f64 {
        self.walls
            .iter()
            .enumerate()
            .map(|(seg, w)| w * self.factor(seg))
            .sum()
    }

    /// Total segment time as measured, s.
    pub fn wall_s(&self) -> f64 {
        self.walls.iter().sum()
    }

    /// Median kernel time over the clock's points, ms (a diagnostic of
    /// how fast the host ran).
    pub fn median_kernel_ms(&self) -> f64 {
        crate::stats::median(&self.points)
    }

    /// Runs ops `0..n` on this thread, each timed by `op` itself (it
    /// returns its latency, ms), and closes a segment after every
    /// `per_segment` ops; a segment's wall time is the sum of its ops'
    /// latencies, so work `op` does outside its own timing (an oracle
    /// check) stays out. Returns each op's `(segment, latency ms)`.
    pub fn run_ops(
        &mut self,
        n: usize,
        per_segment: usize,
        mut op: impl FnMut(usize) -> f64,
    ) -> Vec<(usize, f64)> {
        let mut out = Vec::with_capacity(n);
        let mut wall_ms = 0.0;
        for i in 0..n {
            let ms = op(i);
            out.push((self.segments(), ms));
            wall_ms += ms;
            if (i + 1) % per_segment == 0 || i + 1 == n {
                self.end_segment(wall_ms / 1e3);
                wall_ms = 0.0;
            }
        }
        out
    }
}

/// Set-up time, op latencies and timed-phase time of one run.
pub struct Timing {
    /// Median set-up time, s.
    pub setup_s: f64,
    /// Latency of every timed op, ms (one entry per op attempted).
    pub latencies_ms: Vec<f64>,
    /// Time of the timed phase, s.
    pub phase_s: f64,
}

impl Timing {
    /// The `q`-quantile of the op latencies, ms.
    pub fn latency_ms(&self, q: f64) -> f64 {
        crate::stats::quantile(&self.latencies_ms, q)
    }

    /// Ops per second of the timed phase.
    pub fn ops_per_s(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.phase_s
    }
}

/// A run's timings, `[as measured, scaled to the reference host]`.
/// `setups` has one segment per set-up; `ops` holds each op's
/// `(segment of phase, latency ms)`.
pub fn timings(setups: &HostClock, phase: &HostClock, ops: &[(usize, f64)]) -> [Timing; 2] {
    let scaled_setups: Vec<f64> = (0..setups.segments())
        .map(|s| setups.walls[s] * setups.factor(s))
        .collect();
    [
        Timing {
            setup_s: crate::stats::median(&setups.walls),
            latencies_ms: ops.iter().map(|&(_, ms)| ms).collect(),
            phase_s: phase.wall_s(),
        },
        Timing {
            setup_s: crate::stats::median(&scaled_setups),
            latencies_ms: ops.iter().map(|&(s, ms)| ms * phase.factor(s)).collect(),
            phase_s: phase.scaled_s(),
        },
    ]
}
