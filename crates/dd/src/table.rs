//! Interning table for complex edge weights.
//!
//! Every edge weight appearing in a decision diagram is stored exactly once
//! in a [`ComplexTable`] and referred to by a compact index ([`CIdx`]). Two
//! values within [`TOLERANCE`](crate::complex::TOLERANCE) of each other are
//! mapped onto the same index, which makes node equality (and therefore
//! hash-consing in the unique table) an exact integer comparison even in the
//! presence of floating-point round-off.
//!
//! Storage is structure-of-arrays: the real and imaginary components live in
//! two separate `f64` lanes, the layout a shared store's published generation
//! snapshots copy wholesale (see [`store`](crate::store)).

use crate::complex::{Complex, TOLERANCE};
use crate::hash::FxHashMap;

/// Index of an interned complex value inside a [`ComplexTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CIdx(pub(crate) u32);

impl CIdx {
    /// Index of the interned value `0`.
    pub const ZERO: CIdx = CIdx(0);
    /// Index of the interned value `1`.
    pub const ONE: CIdx = CIdx(1);

    /// Returns `true` when the index refers to the canonical zero value.
    #[inline]
    pub fn is_zero(self) -> bool {
        self == CIdx::ZERO
    }

    /// Returns `true` when the index refers to the canonical one value.
    #[inline]
    pub fn is_one(self) -> bool {
        self == CIdx::ONE
    }

    /// Raw table offset, mainly useful for diagnostics.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Grid spacing used for bucketing values during lookup. Values whose
/// components fall into the same or adjacent buckets are candidates for
/// being considered equal.
const BUCKET: f64 = TOLERANCE;

/// Interning table mapping complex values to stable indices.
///
/// # Examples
///
/// ```
/// use dd::{Complex, ComplexTable};
///
/// let mut table = ComplexTable::new();
/// let a = table.lookup(Complex::new(0.5, 0.0));
/// let b = table.lookup(Complex::new(0.5 + 1e-14, 0.0));
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct ComplexTable {
    /// Real components of the value slots (same length as `im`).
    re: Vec<f64>,
    /// Imaginary components of the value slots.
    im: Vec<f64>,
    buckets: FxHashMap<(i64, i64), Vec<u32>>,
    /// Slots freed by [`retain_marked`](Self::retain_marked), recycled by the
    /// next inserts. Freed slots hold a NaN sentinel and are absent from the
    /// buckets, so lookups can never resolve to them.
    free: Vec<u32>,
}

impl Default for ComplexTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ComplexTable {
    /// Creates a table pre-populated with the canonical constants `0` and `1`.
    pub fn new() -> Self {
        let mut table = ComplexTable {
            re: Vec::with_capacity(1024),
            im: Vec::with_capacity(1024),
            buckets: FxHashMap::default(),
            free: Vec::new(),
        };
        let zero = table.insert(Complex::ZERO);
        let one = table.insert(Complex::ONE);
        debug_assert_eq!(zero, CIdx::ZERO);
        debug_assert_eq!(one, CIdx::ONE);
        table
    }

    fn bucket_key(value: Complex) -> (i64, i64) {
        (
            (value.re / BUCKET).round() as i64,
            (value.im / BUCKET).round() as i64,
        )
    }

    fn insert(&mut self, value: Complex) -> CIdx {
        let idx = match self.free.pop() {
            Some(slot) => {
                self.re[slot as usize] = value.re;
                self.im[slot as usize] = value.im;
                slot
            }
            None => {
                let idx = self.re.len() as u32;
                self.re.push(value.re);
                self.im.push(value.im);
                idx
            }
        };
        self.buckets
            .entry(Self::bucket_key(value))
            .or_default()
            .push(idx);
        CIdx(idx)
    }

    /// Interns `value`, returning the index of an existing entry within
    /// tolerance if one exists and inserting a new entry otherwise.
    pub fn lookup(&mut self, value: Complex) -> CIdx {
        if value.is_zero() {
            return CIdx::ZERO;
        }
        if value.is_one() {
            return CIdx::ONE;
        }
        let (kr, ki) = Self::bucket_key(value);
        for dr in -1..=1 {
            for di in -1..=1 {
                if let Some(candidates) = self.buckets.get(&(kr + dr, ki + di)) {
                    for &idx in candidates {
                        let slot = Complex::new(self.re[idx as usize], self.im[idx as usize]);
                        if slot.approx_eq(value) {
                            return CIdx(idx);
                        }
                    }
                }
            }
        }
        self.insert(value)
    }

    /// Returns the value stored at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` was not produced by this table.
    #[inline]
    pub fn value(&self, idx: CIdx) -> Complex {
        Complex::new(self.re[idx.0 as usize], self.im[idx.0 as usize])
    }

    /// Number of value slots (live entries plus compaction-freed slots).
    #[inline]
    pub fn len(&self) -> usize {
        self.re.len()
    }

    /// Number of *live* interned values (slots minus freed slots).
    #[inline]
    pub fn live_len(&self) -> usize {
        self.re.len() - self.free.len()
    }

    /// Returns `true` when only the canonical constants are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live_len() <= 2
    }

    /// The raw value in slot `i` (freed slots hold a NaN sentinel). Used by
    /// shared workspaces to refresh one mirror entry; the NaN sentinel is
    /// what lets a mirror detect a slot that was freed (and possibly
    /// recycled) by a compaction it did not witness.
    #[inline]
    pub(crate) fn slot(&self, i: usize) -> Complex {
        Complex::new(self.re[i], self.im[i])
    }

    /// Compacts the table: every slot whose index is *not* marked is freed
    /// for reuse and removed from the lookup buckets, so long runs stop
    /// accumulating weights that no live diagram references. Indices of
    /// marked entries are stable across the compaction. Returns the number
    /// of freed slots.
    ///
    /// On a shared store this runs behind the GC barrier with every other
    /// workspace parked; the parked workspaces invalidate their value
    /// mirrors on release (the mark set spans *all* workspaces' roots, so
    /// every index they can still reach stays stable).
    ///
    /// The canonical constants `0` and `1` are always kept, and indices
    /// beyond `marked.len()` are treated as unmarked.
    pub fn retain_marked(&mut self, marked: &[bool]) -> usize {
        let mut freed = 0;
        self.buckets.clear();
        for idx in 0..self.re.len() {
            let keep = idx <= 1 || marked.get(idx).copied().unwrap_or(false);
            if keep {
                if !self.re[idx].is_nan() {
                    self.buckets
                        .entry(Self::bucket_key(self.slot(idx)))
                        .or_default()
                        .push(idx as u32);
                }
            } else if !self.re[idx].is_nan() {
                self.re[idx] = f64::NAN;
                self.im[idx] = f64::NAN;
                self.free.push(idx as u32);
                freed += 1;
            }
        }
        freed
    }

    /// Interns the product of two interned values.
    pub fn mul(&mut self, a: CIdx, b: CIdx) -> CIdx {
        if a.is_zero() || b.is_zero() {
            return CIdx::ZERO;
        }
        if a.is_one() {
            return b;
        }
        if b.is_one() {
            return a;
        }
        let product = self.value(a) * self.value(b);
        self.lookup(product)
    }

    /// Interns the sum of two interned values.
    pub fn add(&mut self, a: CIdx, b: CIdx) -> CIdx {
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let sum = self.value(a) + self.value(b);
        self.lookup(sum)
    }

    /// Interns the quotient `a / b`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `b` is the zero value.
    pub fn div(&mut self, a: CIdx, b: CIdx) -> CIdx {
        debug_assert!(!b.is_zero(), "division of interned values by zero");
        if a.is_zero() {
            return CIdx::ZERO;
        }
        if b.is_one() {
            return a;
        }
        let quotient = self.value(a) / self.value(b);
        self.lookup(quotient)
    }

    /// Interns the complex conjugate of `a`.
    pub fn conj(&mut self, a: CIdx) -> CIdx {
        if a.is_zero() || a.is_one() {
            return a;
        }
        let conj = self.value(a).conj();
        self.lookup(conj)
    }

    /// Interns the negation of `a`.
    pub fn neg(&mut self, a: CIdx) -> CIdx {
        if a.is_zero() {
            return a;
        }
        let neg = -self.value(a);
        self.lookup(neg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_constants() {
        let mut t = ComplexTable::new();
        assert_eq!(t.lookup(Complex::ZERO), CIdx::ZERO);
        assert_eq!(t.lookup(Complex::ONE), CIdx::ONE);
        assert_eq!(t.value(CIdx::ZERO), Complex::ZERO);
        assert_eq!(t.value(CIdx::ONE), Complex::ONE);
    }

    #[test]
    fn nearby_values_are_merged() {
        let mut t = ComplexTable::new();
        let a = t.lookup(Complex::new(std::f64::consts::FRAC_1_SQRT_2, 0.0));
        let b = t.lookup(Complex::new(0.5f64.sqrt(), 1e-15));
        assert_eq!(a, b);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn distinct_values_get_distinct_indices() {
        let mut t = ComplexTable::new();
        let a = t.lookup(Complex::new(0.25, 0.0));
        let b = t.lookup(Complex::new(0.5, 0.0));
        let c = t.lookup(Complex::new(0.25, 0.25));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn arithmetic_on_indices() {
        let mut t = ComplexTable::new();
        let half = t.lookup(Complex::real(0.5));
        let i = t.lookup(Complex::I);
        assert_eq!(t.mul(half, CIdx::ZERO), CIdx::ZERO);
        assert_eq!(t.mul(half, CIdx::ONE), half);
        let half_i = t.mul(half, i);
        assert!(t.value(half_i).approx_eq(Complex::new(0.0, 0.5)));
        let one = t.add(half, half);
        assert_eq!(one, CIdx::ONE);
        let back = t.div(half_i, i);
        assert_eq!(back, half);
        let conj_i = t.conj(i);
        assert!(t.value(conj_i).approx_eq(Complex::new(0.0, -1.0)));
        let neg_half = t.neg(half);
        assert!(t.value(neg_half).approx_eq(Complex::real(-0.5)));
    }

    #[test]
    fn lookup_near_bucket_boundary() {
        let mut t = ComplexTable::new();
        // Two values straddling a bucket boundary but within tolerance of
        // each other must be merged via the neighbour-bucket search.
        let base = 0.123456789;
        let a = t.lookup(Complex::real(base));
        let b = t.lookup(Complex::real(base + 0.4 * TOLERANCE));
        assert_eq!(a, b);
    }

    #[test]
    fn lookup_reuses_freed_slots() {
        let mut t = ComplexTable::new();
        let dead = t.lookup(Complex::real(0.9));
        t.retain_marked(&[true, true]);
        let fresh = t.lookup(Complex::real(0.3));
        // The freed slot is recycled, and the old value is gone.
        assert_eq!(fresh, dead);
        assert!(t.value(fresh).approx_eq(Complex::real(0.3)));
    }
}
