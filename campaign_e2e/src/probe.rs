//! Host-speed probe.
//!
//! The benchmark runs on a shared VM whose speed drifts by up to half over
//! minutes, because other tenants load the same cores and caches. Every
//! end-to-end timing is therefore taken next to a fixed piece of work that
//! shares no code or data with fuzzyflow, and reported at a nominal host
//! speed: `raw × NOMINAL_S / probe`. A change to the program moves the raw
//! time and leaves the probe alone, so it moves the scaled time by the same
//! share; a slow spell of the host moves both and cancels.

use std::time::Instant;

/// What the probe takes on an idle core of the 2-core x86_64 VM the
/// benchmark was written on (its fastest runs took 18–21 ms there). It
/// only sets the scale: a scaled time reads as the wall time on that host
/// when it is idle.
pub const NOMINAL_S: f64 = 0.020;

/// Elements of the probe's table (256 KiB of `f64` and 256 KiB of
/// indices).
const LEN: usize = 1 << 15;
/// Sweeps over the table.
const ROUNDS: usize = 150;

/// Runs the probe once and returns its wall time in seconds: dependent
/// loads and stores through a shuffled index over a table that overflows
/// the L1 and L2 caches, with a square root on the critical path.
pub fn seconds() -> f64 {
    let started = Instant::now();
    let mut value: Vec<f64> = (0..LEN).map(|i| (i as f64).sin()).collect();
    let mut next: Vec<usize> = (0..LEN).map(|i| (i * 7919 + 13) % LEN).collect();
    let mut acc = 0.0f64;
    for round in 0..ROUNDS {
        for i in 0..LEN {
            let j = next[i];
            acc += value[j] * 1.000_000_1 + round as f64;
            value[i] = acc.abs().sqrt().max(1e-9) * 0.5;
            next[i] = (j + (acc as usize & 7) + 1) % LEN;
        }
    }
    std::hint::black_box(acc);
    started.elapsed().as_secs_f64()
}

/// `raw` seconds measured while the probe took `probe` seconds, at the
/// nominal host speed.
pub fn scale(raw: f64, probe: f64) -> f64 {
    raw * NOMINAL_S / probe
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_cancels_a_uniformly_slower_host() {
        assert_eq!(scale(0.5, NOMINAL_S), 0.5);
        assert!((scale(0.75, 1.5 * NOMINAL_S) - 0.5).abs() < 1e-12);
    }
}
