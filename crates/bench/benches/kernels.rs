//! The dot-conj kernel's cross-backend parity smoke and microbenchmark.
//!
//! `dot_conj_lanes` (the fidelity inner product of `sim`'s small-state
//! comparison) is timed with the runtime-dispatched backend against the
//! always-compiled scalar fallback on the same lanes, and the result is
//! written to `BENCH_kernels.json` at the repository root.
//!
//! Before timing anything, the bench *asserts* that the dispatched kernel is
//! bit-identical to the scalar fallback. CI runs this bench twice — once
//! with `--features scalar-kernels`, once default — so a backend whose
//! results drift from the fallback fails the build, not just the artifact.

use bench::emit;
use dd::kernels;

const LANES: usize = 1024;
const REPS: usize = 2048;
const ROUNDS: usize = 21;

/// Interleaved min-of-`ROUNDS` for a dispatched/scalar kernel pair.
///
/// The two bursts alternate inside every round, so load spikes on a noisy
/// machine hit both backends roughly equally instead of biasing whichever
/// ran second; the minima are then comparable.
fn interleaved_min(mut burst: impl FnMut(bool)) -> (f64, f64) {
    let (mut best_d, mut best_s) = (f64::MAX, f64::MAX);
    for _ in 0..ROUNDS {
        let start = std::time::Instant::now();
        burst(true);
        best_d = best_d.min(start.elapsed().as_secs_f64());
        let start = std::time::Instant::now();
        burst(false);
        best_s = best_s.min(start.elapsed().as_secs_f64());
    }
    (best_d, best_s)
}

/// Deterministic xorshift64* stream in [-1, 1).
struct Rng(u64);

impl Rng {
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        let mantissa = (self.0.wrapping_mul(0x2545F4914F6CDD1D)) >> 11;
        (mantissa as f64 / (1u64 << 52) as f64) * 2.0 - 1.0
    }
}

fn filled(rng: &mut Rng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.next_f64()).collect()
}

/// Panics unless the dispatched kernel is bit-identical to the scalar
/// fallback on every prefix length up to a few vector widths past a block
/// boundary, and on all `LANES` lanes. This is the CI smoke: run once per
/// backend, it pins AVX2 (or any future backend) to the scalar semantics
/// exactly — same operation order, no FMA contraction.
fn assert_kernel_parity(ar: &[f64], ai: &[f64], br: &[f64], bi: &[f64]) {
    for n in (0..=13).chain([ar.len()]) {
        let dot = kernels::dot_conj_lanes(&ar[..n], &ai[..n], &br[..n], &bi[..n]);
        let scalar = kernels::dot_conj_lanes_scalar(&ar[..n], &ai[..n], &br[..n], &bi[..n]);
        assert!(
            dot.re.to_bits() == scalar.re.to_bits() && dot.im.to_bits() == scalar.im.to_bits(),
            "dot_conj_lanes on {n} lanes: dispatched {dot:?} != scalar {scalar:?}"
        );
    }
    println!(
        "kernel parity: {} backend bit-identical to scalar on up to {} lanes",
        kernels::backend().name(),
        ar.len()
    );
}

fn main() {
    let mut rng = Rng(0x9E3779B97F4A7C15);
    let ar = filled(&mut rng, LANES);
    let ai = filled(&mut rng, LANES);
    let br = filled(&mut rng, LANES);
    let bi = filled(&mut rng, LANES);

    // Parity smoke first: no point timing a wrong kernel.
    assert_kernel_parity(&ar, &ai, &br, &bi);

    // A reduction, so the scalar fallback cannot autovectorize it (strict FP
    // summation order) and the explicit 4-accumulator AVX2 kernel shows the
    // full SIMD headroom.
    let (dot_secs, dot_scalar_secs) = interleaved_min(|dispatched| {
        for _ in 0..REPS {
            std::hint::black_box(if dispatched {
                kernels::dot_conj_lanes(&ar, &ai, &br, &bi)
            } else {
                kernels::dot_conj_lanes_scalar(&ar, &ai, &br, &bi)
            });
        }
    });

    let backend = kernels::backend().name();
    println!(
        "dot_conj_lanes[{backend}]: {:.3}ms vs scalar {:.3}ms ({:.2}x) on {LANES} lanes x {REPS}",
        dot_secs * 1e3,
        dot_scalar_secs * 1e3,
        dot_scalar_secs / dot_secs
    );

    let row = format!(
        "    {{ \"kernel\": \"dot_conj_lanes\", \"backend\": \"{backend}\", \
         \"lanes\": {LANES}, \"reps\": {REPS}, \"secs\": {dot_secs:.6}, \
         \"scalar_secs\": {dot_scalar_secs:.6}, \"speedup\": {:.4} }}",
        dot_scalar_secs / dot_secs
    );
    let json = emit::envelope(
        "kernels",
        "dot-conj kernel microbenchmark: dispatched backend vs scalar fallback (interleaved \
         min-of-21)",
        &[
            "single machine, min-of-N wall times: cross-machine comparisons are meaningless, \
             same-machine ratios are the signal",
            "dot_conj_lanes shows SIMD headroom because strict FP summation order keeps the \
             scalar reduction from autovectorizing; under --features scalar-kernels both sides \
             run the same scalar loop, so a ratio away from 1 there is timing noise",
        ],
        &[("kernels", format!("[\n{row}\n  ]"))],
    );
    emit::write_artifact("BENCH_kernels.json", &json);
}
