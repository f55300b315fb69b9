//! Benchmark-harness support: timing, CSV output locations, and shared
//! workload construction for the figure-regeneration binaries.
//!
//! Each `table*`/`fig*`/`ratio_examples` binary in `src/bin/` regenerates
//! the paper table or figure it is named after and writes a CSV into
//! `results/`. Pass `--quick` to any binary to shrink the sweep for smoke
//! runs. `loadgen` load-tests the query server; every other performance
//! number comes from the ledger in `src/bin/ledger` (a package of its own,
//! see its README).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::time::Instant;

/// Times `f`, returning the median of `reps` runs after one warmup (the
/// same protocol for every figure, so curves are comparable).
pub fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    assert!(reps >= 1);
    // Warmup run (not recorded).
    let mut sink = Some(f());
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        sink = Some(f());
        samples.push(t0.elapsed().as_secs_f64());
    }
    std::hint::black_box(sink);
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    samples[samples.len() / 2]
}

/// Where result CSVs go: `<workspace>/results/`.
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; results live at the workspace root.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("results");
    p
}

/// True if `--quick` was passed (smoke-test sweeps).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Chooses between the full and quick variant of a sweep.
pub fn sweep<T: Clone>(full: &[T], quick: &[T]) -> Vec<T> {
    if quick_mode() {
        quick.to_vec()
    } else {
        full.to_vec()
    }
}

/// Renders an `f64` field as a PGM (portable graymap) image for the
/// Fig. 4 visual outputs; values are min–max scaled to 0..=255.
pub fn write_pgm(
    path: &std::path::Path,
    field: &blazr_tensor::NdArray<f64>,
) -> std::io::Result<()> {
    assert_eq!(field.ndim(), 2, "PGM needs a 2-D field");
    let (h, w) = (field.shape()[0], field.shape()[1]);
    let lo = field
        .as_slice()
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    let hi = field
        .as_slice()
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    let mut out = format!("P2\n{w} {h}\n255\n");
    for r in 0..h {
        for c in 0..w {
            let v = ((field.get(&[r, c]) - lo) / span * 255.0).round() as u8;
            out.push_str(&format!("{v} "));
        }
        out.push('\n');
    }
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_median_is_positive_and_sane() {
        let t = time_median(3, || {
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(t > 0.0);
        assert!(t < 1.0);
    }

    #[test]
    fn results_dir_ends_with_results() {
        assert!(results_dir().ends_with("results"));
    }

    #[test]
    fn sweep_picks_variant() {
        // Not in quick mode inside tests (no --quick arg).
        let s = sweep(&[1, 2, 3], &[1]);
        assert_eq!(s.len(), 3);
    }
}
