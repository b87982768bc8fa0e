//! Data-parallel kernel over structure-of-arrays complex lanes.
//!
//! The dense fidelity of small simulator states (`sim`'s
//! `StateVectorSimulator::fidelity_with`) expands both states into two
//! separate `f64` lanes (`re`, `im`, see
//! [`DdPackage::amplitude_lanes`](crate::DdPackage::amplitude_lanes)) and
//! reduces them with [`dot_conj_lanes`], which has two backends:
//!
//! * **AVX2 intrinsics** (4 × `f64` per vector register), selected at
//!   runtime via `is_x86_feature_detected!("avx2")`;
//! * an **autovectorizable scalar fallback**, always compiled, and forced by
//!   building the `dd` crate with the `scalar-kernels` cargo feature.
//!
//! The backend is resolved once per process by [`backend`]; the choice is
//! recorded in the `obs` metrics (`dd.kernels.backend_avx2` /
//! `dd.kernels.backend_scalar`) and as a `kernels.backend` trace event, so
//! traces and bench reports say which kernel actually ran.
//!
//! **Bit parity.** Both backends evaluate the same expression tree per lane
//! (no FMA contraction) and reduce with the same fixed four-accumulator
//! association, so the result is bit-identical under either backend. Tests
//! and the CI kernel-bench smoke assert this — it is what makes equivalence
//! verdicts independent of the machine the check ran on.

use crate::complex::Complex;
use std::sync::OnceLock;

/// Which kernel implementation [`backend`] resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// AVX2 intrinsics, 4 double lanes per operation.
    Avx2,
    /// The autovectorizable scalar fallback.
    Scalar,
}

impl Backend {
    /// Stable lower-case name (`"avx2"` / `"scalar"`), used in traces and
    /// bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Avx2 => "avx2",
            Backend::Scalar => "scalar",
        }
    }
}

/// The kernel backend used by this process, resolved once.
///
/// `scalar-kernels` builds always resolve to [`Backend::Scalar`]; otherwise
/// AVX2 is used when the CPU supports it. The first call records the choice
/// in the `obs` metrics and emits a `kernels.backend` trace event.
pub fn backend() -> Backend {
    static BACKEND: OnceLock<Backend> = OnceLock::new();
    *BACKEND.get_or_init(|| {
        let chosen = detect();
        match chosen {
            Backend::Avx2 => obs::metrics::incr(obs::metrics::DD_KERNEL_BACKEND_AVX2),
            Backend::Scalar => obs::metrics::incr(obs::metrics::DD_KERNEL_BACKEND_SCALAR),
        }
        obs::trace::event("kernels.backend", &[("backend", chosen.name().into())]);
        chosen
    })
}

#[cfg(feature = "scalar-kernels")]
fn detect() -> Backend {
    Backend::Scalar
}

#[cfg(not(feature = "scalar-kernels"))]
fn detect() -> Backend {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Backend::Avx2;
        }
    }
    Backend::Scalar
}

/// `Σ conj(a[i]) · b[i]` over complex lanes, dispatched backend.
///
/// Both backends accumulate into the same four partial sums (lane `i` goes
/// to accumulator `i mod 4`) and reduce them as `(s0+s2)+(s1+s3)`, so the
/// result is bit-identical across backends.
///
/// # Panics
///
/// Panics if the four lanes differ in length.
pub fn dot_conj_lanes(ar: &[f64], ai: &[f64], br: &[f64], bi: &[f64]) -> Complex {
    let n = ar.len();
    assert!(
        ai.len() == n && br.len() == n && bi.len() == n,
        "kernel lane length mismatch"
    );
    match backend() {
        // SAFETY: `backend` resolves to `Avx2` only when the CPU reports
        // AVX2, and the AVX2 body reads indices below `ar.len()`, which the
        // assert above makes valid for all four lanes.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { dot_conj_lanes_avx2(ar, ai, br, bi) },
        _ => dot_conj_lanes_scalar(ar, ai, br, bi),
    }
}

/// The scalar fallback of [`dot_conj_lanes`] (same accumulator structure as
/// the AVX2 path; see [`dot_conj_lanes`]).
pub fn dot_conj_lanes_scalar(ar: &[f64], ai: &[f64], br: &[f64], bi: &[f64]) -> Complex {
    let mut sre = [0.0f64; 4];
    let mut sim = [0.0f64; 4];
    for i in 0..ar.len() {
        let j = i & 3;
        sre[j] += ar[i] * br[i] + ai[i] * bi[i];
        sim[j] += ar[i] * bi[i] - ai[i] * br[i];
    }
    Complex::new(
        (sre[0] + sre[2]) + (sre[1] + sre[3]),
        (sim[0] + sim[2]) + (sim[1] + sim[3]),
    )
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_conj_lanes_avx2(ar: &[f64], ai: &[f64], br: &[f64], bi: &[f64]) -> Complex {
    use std::arch::x86_64::*;
    let n = ar.len();
    let mut accre = _mm256_setzero_pd();
    let mut accim = _mm256_setzero_pd();
    let mut i = 0;
    while i + 4 <= n {
        let are = _mm256_loadu_pd(ar.as_ptr().add(i));
        let aim = _mm256_loadu_pd(ai.as_ptr().add(i));
        let bre = _mm256_loadu_pd(br.as_ptr().add(i));
        let bim = _mm256_loadu_pd(bi.as_ptr().add(i));
        accre = _mm256_add_pd(
            accre,
            _mm256_add_pd(_mm256_mul_pd(are, bre), _mm256_mul_pd(aim, bim)),
        );
        accim = _mm256_add_pd(
            accim,
            _mm256_sub_pd(_mm256_mul_pd(are, bim), _mm256_mul_pd(aim, bre)),
        );
        i += 4;
    }
    let mut sre = [0.0f64; 4];
    let mut sim = [0.0f64; 4];
    _mm256_storeu_pd(sre.as_mut_ptr(), accre);
    _mm256_storeu_pd(sim.as_mut_ptr(), accim);
    while i < n {
        let j = i & 3;
        sre[j] += ar[i] * br[i] + ai[i] * bi[i];
        sim[j] += ar[i] * bi[i] - ai[i] * br[i];
        i += 1;
    }
    Complex::new(
        (sre[0] + sre[2]) + (sre[1] + sre[3]),
        (sim[0] + sim[2]) + (sim[1] + sim[3]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lanes(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        // Deterministic pseudo-random lanes via splitmix64.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z = z ^ (z >> 31);
            (z as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let re = (0..n).map(|_| next()).collect();
        let im = (0..n).map(|_| next()).collect();
        (re, im)
    }

    #[test]
    fn dispatched_dot_matches_scalar_bitwise() {
        for n in [0usize, 1, 3, 4, 7, 77, 129] {
            let (ar, ai) = lanes(n, 5);
            let (br, bi) = lanes(n, 6);
            let d1 = dot_conj_lanes(&ar, &ai, &br, &bi);
            let d2 = dot_conj_lanes_scalar(&ar, &ai, &br, &bi);
            assert_eq!(d1.re.to_bits(), d2.re.to_bits(), "re differs at n={n}");
            assert_eq!(d1.im.to_bits(), d2.im.to_bits(), "im differs at n={n}");
        }
    }

    #[test]
    fn backend_is_stable_and_named() {
        let b = backend();
        assert_eq!(b, backend());
        assert!(b.name() == "avx2" || b.name() == "scalar");
        if cfg!(feature = "scalar-kernels") {
            assert_eq!(b, Backend::Scalar);
        }
    }
}
