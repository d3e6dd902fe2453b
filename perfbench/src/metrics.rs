//! The metric registry — every name the benchmark reports, with its
//! unit, in the order `BENCHMARK.json` lists them — and the sink a run
//! fills.

use llp::obs::json::Json;
use std::collections::BTreeMap;

/// End-to-end metrics (untraced runs).
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ok_share", "share"),
    ("peak_rss_mib", "MiB"),
    ("miss_ms_p50", "ms"),
    ("miss_ms_p90", "ms"),
    ("hit_ms_p50", "ms"),
];

/// Every span kernel of an f3d step.
pub const F3D_KERNELS: [&str; 8] = [
    "bc",
    "inject",
    "j_factor",
    "k_factor",
    "l_factor_scatter",
    "l_factor_solve",
    "rhs",
    "update",
];

/// Every span kernel of an fdtd step.
pub const FDTD_KERNELS: [&str; 3] = ["source", "update_e", "update_h"];

/// Per-layer metrics (traced runs), in registry order.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("llp.region_us_p50", "us"),
        ("llp.regions_per_op", "count"),
        ("llp.compute_share", "share"),
        ("llp.barrier_share", "share"),
        ("llp.claim_share", "share"),
        ("llp.imbalance_max", "ratio"),
        ("llp.speedup_vs_serial", "x"),
        ("llp.model_residual", "share"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    let parallel_f3d = <f3d::service::F3dSolver as solver::Solver>::kernel_names();
    let parallel_fdtd = <fdtd::FdtdSolver as solver::Solver>::kernel_names();
    for (kernels, parallel) in [
        (&F3D_KERNELS[..], parallel_f3d),
        (&FDTD_KERNELS[..], parallel_fdtd),
    ] {
        for k in kernels {
            m.push((format!("kernel.{k}.ms_per_step"), "ms"));
            m.push((format!("kernel.{k}.sync_events_per_step"), "count"));
            if parallel.contains(k) {
                m.push((format!("kernel.{k}.speedup"), "x"));
                m.push((format!("kernel.{k}.modeled_speedup"), "x"));
            }
        }
    }
    for (n, u) in [
        ("f3d.step_ms_p50", "ms"),
        ("f3d.step.unattributed_share", "share"),
        ("fdtd.step_ms_p50", "ms"),
        ("fdtd.step.unattributed_share", "share"),
        ("solve.f3d_ms_p50", "ms"),
        ("solve.fdtd_ms_p50", "ms"),
        ("zones.solve_ms_p50", "ms"),
        ("serve.http.parse_us", "us"),
        ("serve.http.render_us", "us"),
        ("serve.cache.key_us", "us"),
        ("serve.cache.hits", "count"),
        ("serve.cache.misses", "count"),
        ("serve.cache.coalesced", "count"),
        ("serve.cache.evictions", "count"),
        ("serve.cache.hit_ratio", "share"),
        ("serve.rejected", "count"),
        ("serve.metrics_scrape_ms_p50", "ms"),
        ("serve.overhead_ms_p50", "ms"),
        ("serve.overhead_share", "share"),
        ("obs.trace_overhead_share", "share"),
        ("mem.peak_heap_bytes", "bytes"),
        ("mem.estimate_error", "share"),
        ("failed_share", "share"),
    ] {
        m.push((n.to_string(), u));
    }
    m
}

/// Metric values gathered by one run; later writes win.
#[derive(Debug, Default)]
pub struct Sink(BTreeMap<String, f64>);

impl Sink {
    /// Record `value` under `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// Record `value` unless `name` already has one.
    pub fn set_default(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_string()).or_insert(value);
    }

    /// Copy in every metric of `other` this sink lacks.
    pub fn fill_from(&mut self, other: &Sink) {
        for (k, &v) in &other.0 {
            self.set_default(k, v);
        }
    }

    /// The recorded value of `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Render the registry entries `names` as the result's `metrics`
    /// object, or name the first one missing or not finite.
    ///
    /// # Errors
    /// A registry metric this run did not measure.
    pub fn render(&self, names: &[(String, &'static str)]) -> Result<Json, String> {
        let mut pairs = Vec::with_capacity(names.len());
        for (name, unit) in names {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            pairs.push((
                name.clone(),
                Json::Object(vec![
                    ("value".to_string(), Json::Num(value)),
                    ("unit".to_string(), Json::str(unit)),
                ]),
            ));
        }
        Ok(Json::Object(pairs))
    }
}

/// The end-to-end registry.
#[must_use]
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// registry's names and units, in the same order.
    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), own(end_to_end()));
        assert_eq!(listed("per_layer"), own(per_layer()));
    }

    #[test]
    fn render_names_the_missing_metric() {
        let mut s = Sink::default();
        s.set("a", 1.5);
        s.set_default("a", 9.0);
        let names = vec![("a".to_string(), "ms"), ("b".to_string(), "s")];
        assert_eq!(s.render(&names).unwrap_err(), "metric b was not measured");
        s.set("b", f64::NAN);
        assert!(s.render(&names).unwrap_err().contains("not finite"));
        s.set("b", 2.0);
        let out = s.render(&names).unwrap().to_string();
        assert_eq!(
            out,
            r#"{"a":{"value":1.5,"unit":"ms"},"b":{"value":2,"unit":"s"}}"#
        );
    }
}
