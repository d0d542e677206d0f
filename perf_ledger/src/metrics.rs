//! The metric catalogue (the same names, units and directions as
//! `BENCHMARK.json`) and the ledger one workload run fills in.

use serde_json::Value;

use crate::stats::quartiles;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse before it counts as a regression; 0 for per-layer metrics,
    /// which are not gated.
    pub bound: f64,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

const fn gated(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// What a user of the system sees; reported by the untraced run.
pub const END_TO_END: &[MetricDef] = &[
    gated("setup_s", "s", "lower", 0.25),
    gated("gain_vs_unpartitioned", "ratio", "higher", 0.25),
    gated("cpu_vs_unpartitioned", "ratio", "lower", 0.25),
    gated("peak_rss_mb", "MiB", "lower", 0.10),
];

/// Absolute times of the untraced run. Reported, not gated: on a shared
/// host they repeat only within tens of percent from run to run.
pub const UNGATED: &[MetricDef] = &[
    def("update_ms_p50", "ms", "lower"),
    def("updates_per_s", "1/s", "higher"),
    def("cpu_ms_per_update", "ms", "lower"),
];

/// Single layers; reported by the traced run. A metric of a layer the
/// workload does not drive reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    def("circuits.build_ms", "ms", "lower"),
    def("sta.write_verilog_ms", "ms", "lower"),
    def("sta.parse_verilog_ms", "ms", "lower"),
    def("sta.timer_new_ms", "ms", "lower"),
    def("core.install_ms", "ms", "lower"),
    def("session.create_ms", "ms", "lower"),
    def("sta.tdg_build_ms_p50", "ms", "lower"),
    def("sta.tasks_per_update", "count", "lower"),
    def("sta.deps_per_update", "count", "lower"),
    def("sta.task_ns", "ns", "lower"),
    def("sta.report_ms_p50", "ms", "lower"),
    def("tdg.csr_ms_p50", "ms", "lower"),
    def("tdg.quotient_ms_p50", "ms", "lower"),
    def("tdg.quotient_parts", "count", "lower"),
    def("tdg.quotient_edges", "count", "lower"),
    def("tdg.depth_ratio", "ratio", "lower"),
    def("core.repair_ms_p50", "ms", "lower"),
    def("core.repair_moved", "count", "lower"),
    def("core.repair_fresh", "count", "lower"),
    def("core.scratch_ms.seq", "ms", "lower"),
    def("core.scratch_ms.gpasta", "ms", "lower"),
    def("core.scratch_ms.deter", "ms", "lower"),
    def("core.scratch_ms.gdca", "ms", "lower"),
    def("core.scratch_parts.seq", "count", "lower"),
    def("core.scratch_parts.gpasta", "count", "lower"),
    def("core.scratch_parts.deter", "count", "lower"),
    def("core.scratch_parts.gdca", "count", "lower"),
    def("gpu.launch_us_p50", "us", "lower"),
    def("gpu.sort_u64_ns_per_key", "ns", "lower"),
    def("sched.run_ms_p50", "ms", "lower"),
    def("sched.run_plain_ms_p50", "ms", "lower"),
    def("sched.dispatches", "count", "lower"),
    def("sched.dispatches_plain", "count", "lower"),
    def("sched.dispatch_ns", "ns", "lower"),
    def("sched.empty_run_us_p50", "us", "lower"),
    def("sched.sim_gain", "ratio", "higher"),
    def("session.update_ms_p50", "ms", "lower"),
    def("session.update_ms_tail", "ms", "lower"),
    def("session.apply_edit_us_p50", "us", "lower"),
    def("session.mirror_gap", "ratio", "lower"),
    def("checkpoint.evict_ms", "ms", "lower"),
    def("checkpoint.restore_ms", "ms", "lower"),
    def("checkpoint.bytes", "bytes", "lower"),
    def("serve.create_ms", "ms", "lower"),
    def("serve.body_parse_ms", "ms", "lower"),
    def("serve.edit_ms_p50", "ms", "lower"),
    def("serve.update_ms_p50", "ms", "lower"),
    def("serve.report_ms_p50", "ms", "lower"),
    def("serve.cycle_ms_tail", "ms", "lower"),
    def("serve.keepalive_cycle_ms_p50", "ms", "lower"),
    def("serve.healthz_us_p50", "us", "lower"),
    def("serve.healthz_close_us_p50", "us", "lower"),
    def("serve.dispatch_update_ms_p50", "ms", "lower"),
    def("serve.reconnects", "count", "lower"),
    def("serve.bytes_per_cycle", "bytes", "lower"),
    def("serve.shed", "count", "lower"),
    def("shard.worker_exec_ms", "ms", "lower"),
    def("shard.single_process_ms", "ms", "lower"),
    def("shard.overhead_ratio", "ratio", "lower"),
    def("shard.edge_cut", "count", "lower"),
    def("shard.respawns", "count", "lower"),
    def("trace.overhead_ratio", "ratio", "lower"),
];

/// One measured cell: the median of its samples with their quartiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub def: MetricDef,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: usize,
}

/// What one run of one workload measured.
#[derive(Debug, Clone)]
pub struct Ledger {
    pub workload: String,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    cells: Vec<Cell>,
}

impl Ledger {
    pub fn new(workload: &str, traced: bool) -> Self {
        Ledger {
            workload: workload.to_string(),
            traced,
            attempted: 0,
            failed: 0,
            cells: Vec::new(),
        }
    }

    /// The metrics the contract's result line carries for this run.
    fn catalogue(&self) -> &'static [MetricDef] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Record `name` as the median of `samples` (per-block values, per-op
    /// values, or a single reading).
    ///
    /// # Panics
    ///
    /// If `name` is not in this run's catalogue, is recorded twice, or a
    /// sample is not finite: each is a bug in the harness.
    pub fn set(&mut self, name: &str, samples: &[f64]) {
        let ungated: &[MetricDef] = if self.traced { &[] } else { UNGATED };
        let def = *self
            .catalogue()
            .iter()
            .chain(ungated)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("`{name}` is not in the catalogue of this run"));
        assert!(self.get(name).is_none(), "`{name}` recorded twice");
        assert!(
            samples.iter().all(|v| v.is_finite()),
            "`{name}` has a non-finite sample"
        );
        let (q1, value, q3) = quartiles(samples);
        self.cells.push(Cell {
            def,
            value,
            q1,
            q3,
            samples: samples.len(),
        });
    }

    /// Take over the cells of `other` this ledger has not recorded itself,
    /// and its failures.
    pub fn absorb(&mut self, other: &Ledger) {
        for cell in &other.cells {
            if self.get(cell.def.name).is_none() {
                self.cells.push(cell.clone());
            }
        }
        self.failed += other.failed;
    }

    pub fn get(&self, name: &str) -> Option<&Cell> {
        self.cells.iter().find(|c| c.def.name == name)
    }

    /// The result line of the benchmark contract: every metric of the
    /// run's catalogue, those this workload does not produce as 0.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .catalogue()
            .iter()
            .map(|d| {
                let value = self.get(d.name).map_or(0.0, |c| c.value);
                (
                    d.name.to_string(),
                    obj(vec![
                        ("value", Value::Number(value)),
                        ("unit", Value::String(d.unit.to_string())),
                    ]),
                )
            })
            .collect();
        let line = obj(vec![
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Number(self.attempted as f64)),
            ("failed", Value::Number(self.failed as f64)),
            ("metrics", Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("a value tree serializes")
    }

    /// Everything measured, quartiles included, for `summary.json`.
    pub fn to_value(&self) -> Value {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                obj(vec![
                    ("name", Value::String(c.def.name.to_string())),
                    ("unit", Value::String(c.def.unit.to_string())),
                    ("median", Value::Number(c.value)),
                    ("q1", Value::Number(c.q1)),
                    ("q3", Value::Number(c.q3)),
                    ("samples", Value::Number(c.samples as f64)),
                ])
            })
            .collect();
        obj(vec![
            ("workload", Value::String(self.workload.clone())),
            ("traced", Value::Bool(self.traced)),
            ("attempted", Value::Number(self.attempted as f64)),
            ("failed", Value::Number(self.failed as f64)),
            ("metrics", Value::Array(cells)),
        ])
    }

    /// Every metric by name with its unit, for people.
    pub fn print_table(&self) {
        println!(
            "{} ({}): {} ops attempted, {} failed",
            self.workload,
            if self.traced { "traced" } else { "untraced" },
            self.attempted,
            self.failed
        );
        for c in &self.cells {
            println!(
                "  {:<30} {:>14.4} {:<6} [q1 {:.4}, q3 {:.4}, n={}]",
                c.def.name, c.value, c.def.unit, c.q1, c.q3, c.samples
            );
        }
    }
}

pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}
