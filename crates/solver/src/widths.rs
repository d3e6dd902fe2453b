//! The SLP (superword) width axis, shared by every solver.
//!
//! The paper parallelizes *outer* loops because the inner loops of the
//! sweeps were "vectorizable but short" — on a RISC SMP the vector
//! hardware is gone, but the instruction-level form of that inner
//! parallelism is not. This module names the lane widths the kernels
//! are compiled at (`W ∈ {1, 2, 4, 8}` lanes of array-chunked safe Rust
//! that rustc can lower to SIMD) and carries the per-kernel selection
//! ([`WidthMap`]) from the tune database down into the steppers, the
//! same road the per-kernel [`llp::ScheduleMap`] travels. It lives in
//! the workload-agnostic `solver` crate because the axis is: every
//! physics dispatches its kernels through the same vocabulary.
//!
//! **One body per kernel.** Each kernel is written once, const-generic
//! over `W`, and `W = 1` *is* the scalar kernel. A kernel dispatches
//! with `match width { 2 => body::<2>, 4 => body::<4>, 8 => body::<8>,
//! _ => body::<1> }`, and the points past its last full lane group run
//! the same body at `W = 1`.
//!
//! **Exactness policy.** Lane groups vectorize across *independent
//! outputs* (points of a pencil, rows or columns of a block) and never
//! across a reduction, so each output's floating-point operation
//! sequence is the same at every width and the results are bit-exact —
//! asserted per workload by its property suite. No kernel needs a
//! tolerance.
//!
//! Kernels whose inner loop is pure data movement have no arithmetic
//! to widen: they accept a width entry but execute the same code at
//! every width.

/// The lane widths the kernels are compiled for. Width 1 is the scalar
/// case of the same kernel body, not a separate reference; points past
/// the last full lane group run that body at width 1.
pub const SUPPORTED_WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Check a width against [`SUPPORTED_WIDTHS`].
///
/// # Errors
/// Returns a message naming the supported vocabulary.
pub fn validate_width(width: usize) -> Result<(), String> {
    if SUPPORTED_WIDTHS.contains(&width) {
        Ok(())
    } else {
        Err(format!(
            "vector_width must be one of {SUPPORTED_WIDTHS:?}, got {width}"
        ))
    }
}

/// Per-kernel width selection: kernel names (the span-tree vocabulary
/// — `rhs`, `update_e`, …) mapped to lane widths, with a default width
/// for unmapped kernels. The SLP analogue of [`llp::ScheduleMap`]:
/// the tune database resolves into one of these and the steppers
/// dispatch each kernel's variant from it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WidthMap {
    default_width: usize,
    entries: Vec<(String, usize)>,
}

impl WidthMap {
    /// An empty map: every kernel at the scalar width.
    #[must_use]
    pub fn new() -> Self {
        Self {
            default_width: 0, // 0 encodes "unset": get() clamps to 1
            entries: Vec::new(),
        }
    }

    /// A map sending every kernel to `width`.
    #[must_use]
    pub fn uniform(width: usize) -> Self {
        let mut m = Self::new();
        m.set_default(width);
        m
    }

    /// Set one kernel's width (last write wins).
    pub fn set(&mut self, kernel: &str, width: usize) {
        if let Some(e) = self.entries.iter_mut().find(|(k, _)| k == kernel) {
            e.1 = width;
        } else {
            self.entries.push((kernel.to_string(), width));
        }
    }

    /// Set the width unmapped kernels fall back to.
    pub fn set_default(&mut self, width: usize) {
        self.default_width = width;
    }

    /// The width `kernel` should run at: its entry, else the default,
    /// else 1.
    #[must_use]
    pub fn get(&self, kernel: &str) -> usize {
        self.entries
            .iter()
            .find(|(k, _)| k == kernel)
            .map_or(self.default_width.max(1), |(_, w)| *w)
    }

    /// Number of per-kernel entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map has no per-kernel entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether every kernel resolves to the scalar width.
    #[must_use]
    pub fn is_scalar(&self) -> bool {
        self.default_width <= 1 && self.entries.iter().all(|(_, w)| *w <= 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_vocabulary_is_validated() {
        for w in SUPPORTED_WIDTHS {
            assert!(validate_width(w).is_ok());
        }
        for w in [0, 3, 5, 16, usize::MAX] {
            let err = validate_width(w).unwrap_err();
            assert!(err.contains("vector_width"), "{err}");
        }
    }

    #[test]
    fn width_map_defaults_and_overrides() {
        let mut m = WidthMap::new();
        assert!(m.is_scalar());
        assert!(m.is_empty());
        assert_eq!(m.get("rhs"), 1);
        m.set("rhs", 4);
        m.set("rhs", 2); // last write wins
        m.set("j_factor", 8);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get("rhs"), 2);
        assert_eq!(m.get("j_factor"), 8);
        assert_eq!(m.get("update"), 1, "unmapped kernels fall back");
        assert!(!m.is_scalar());

        let u = WidthMap::uniform(4);
        assert_eq!(u.get("anything"), 4);
        assert!(u.is_empty(), "uniform is a default, not entries");
        let mut u = u;
        u.set("rhs", 1);
        assert_eq!(u.get("rhs"), 1, "entries win over the default");
        assert_eq!(u.get("update"), 4);
        assert!(WidthMap::uniform(1).is_scalar());
    }
}
