//! The modeled column: the paper's stair-step and Table-1 prediction
//! of each kernel's 2-worker time, fed the measured per-region cost,
//! reported beside the measured speedup and never in its place.

/// One parallel kernel's measured and modeled speedup.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelModel {
    /// Kernel name.
    pub name: String,
    /// Serial seconds per op (1-worker traced run).
    pub serial_s: f64,
    /// Parallel seconds per op (traced run at `workers`).
    pub parallel_s: f64,
    /// Modeled parallel seconds per op.
    pub modeled_parallel_s: f64,
}

impl KernelModel {
    /// Model one kernel: `serial · ceil(U/P)/U + regions · S`, with `U`
    /// the mean loop extent per region, `P` the worker count and `S`
    /// the measured cost of one empty parallel region.
    #[must_use]
    pub fn new(
        name: &str,
        serial_s: f64,
        parallel_s: f64,
        regions_per_op: f64,
        mean_extent: f64,
        workers: usize,
        region_s: f64,
    ) -> Self {
        // The stair-step term of the tuner's cost model. Its region term
        // takes whole regions and integer nanoseconds, so the (possibly
        // fractional) per-op region cost is added here instead.
        let compute = tune::expected_cost_ns(serial_s, mean_extent, workers, 0, 0);
        Self {
            name: name.to_string(),
            serial_s,
            parallel_s,
            modeled_parallel_s: compute + regions_per_op * region_s,
        }
    }

    /// Measured speedup over the serial run.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.serial_s / self.parallel_s
    }

    /// Modeled speedup over the serial run.
    #[must_use]
    pub fn modeled_speedup(&self) -> f64 {
        self.serial_s / self.modeled_parallel_s
    }
}

/// Signed residual of measured against modeled parallel time, summed
/// over kernels: positive when the kernels ran slower than modeled.
#[must_use]
pub fn residual(kernels: &[KernelModel]) -> f64 {
    let measured: f64 = kernels.iter().map(|k| k.parallel_s).sum();
    let modeled: f64 = kernels.iter().map(|k| k.modeled_parallel_s).sum();
    (measured - modeled) / modeled
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stair_step_plus_region_cost() {
        // 10 ms serial over extent 5 at 2 workers: the largest chunk is
        // 3 of 5 iterations, 6 ms, plus 4 regions of 50 us.
        let k = KernelModel::new("rhs", 0.010, 0.008, 4.0, 5.0, 2, 50e-6);
        assert!((k.modeled_parallel_s - 0.0062).abs() < 1e-12);
        assert!((k.speedup() - 1.25).abs() < 1e-12);
        assert!((k.modeled_speedup() - 0.010 / 0.0062).abs() < 1e-12);
        let r = residual(&[k]);
        assert!((r - (0.008 - 0.0062) / 0.0062).abs() < 1e-12);
        assert!(r > 0.0, "slower than modeled reads positive");
    }
}
