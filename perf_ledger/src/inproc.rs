//! The in-process workloads (`full_retime`, `eco_loop`): a real
//! `gpasta::session::Session` fed a seeded edit stream, next to an
//! unpartitioned twin `Timer` fed the same edits and — in the traced run —
//! the mirror driver that splits the `Session`'s update into layers.

use std::path::Path;
use std::time::Instant;

use gpasta::circuits::PaperCircuit;
use gpasta::core::{DeterGPasta, GPasta, Gdca, Partitioner, PartitionerOptions, SeqGPasta};
use gpasta::gpu::{prims, Device};
use gpasta::sched::{Executor, RunBudget};
use gpasta::session::{DesignSources, Edit, Session};
use gpasta::sta::{write_verilog, Timer};
use gpasta::tdg::{TaskId, TdgBuilder};

use crate::drive::{self, Subject};
use crate::edits::{EditStream, GenEdit, StreamKind};
use crate::host;
use crate::metrics::Ledger;
use crate::mirror::{timer_from_text, Mirror, UpdateCounts};
use crate::stats::{median, tail};
use crate::trace::{self, span, Tracer};

/// Fresh set-ups timed before the measured ops, and again after them in an
/// untraced run: a slow spell of the host lasts seconds, so it can cover
/// one group of rounds but rarely both. `setup_s` is the quickest round.
pub const SETUP_ROUNDS: usize = 2;

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub circuit: PaperCircuit,
    pub scale: f64,
    pub stream: StreamKind,
    /// Edits applied before each update.
    pub edits_per_op: usize,
    /// Discarded ops before the clock starts. In the traced run these are
    /// the *probe* ops: a fixed count, so the exact-count metrics taken on
    /// them repeat exactly for a seed.
    pub warmup: u32,
}

/// `(WNS, TNS)` bit patterns.
type Bits = (u32, u32);

fn bits_of(timer: &Timer) -> Bits {
    let report = timer.report(1);
    (report.wns_ps.to_bits(), report.tns_ps.to_bits())
}

/// One set-up as a user waits for it: build the circuit, write its netlist,
/// create the session. Returns the session and the seconds it took.
pub fn setup_round(spec: &Spec, workers: usize, tr: &mut Tracer) -> (Session, f64) {
    let started = Instant::now();
    let span = tr.begin("circuits.build");
    let netlist = spec.circuit.build(spec.scale);
    tr.end(span);
    let span = tr.begin("sta.write_verilog");
    let text = write_verilog(&netlist, spec.circuit.name());
    tr.end(span);
    drop(netlist);
    let span = tr.begin("session.create");
    let session = Session::create("s", DesignSources::verilog_only(text), workers)
        .expect("generated netlists make a session");
    tr.end(span);
    (session, started.elapsed().as_secs_f64())
}

struct InProc {
    session: Session,
    twin: Timer,
    twin_exec: Executor,
    mirror: Option<Mirror>,
    tracer: Option<Tracer>,
    stream: EditStream,
    warmup: u32,
    edits_per_op: usize,
    /// The current op's edits, as generated and as the `Session` takes them.
    edits: Vec<GenEdit>,
    session_edits: Vec<Edit>,
    probe: bool,
    /// Result bits per lane for the current op.
    bits: Vec<Bits>,
    corrupt_oracle: bool,
    probe_counts: Vec<UpdateCounts>,
    dispatches_plain: Vec<f64>,
}

impl InProc {
    fn run_session(&mut self) -> Result<Bits, String> {
        let InProc {
            session,
            tracer,
            session_edits,
            ..
        } = self;
        span(tracer, "session.apply_edit", || {
            session_edits.iter().try_for_each(|e| session.apply_edit(e))
        })
        .map_err(|e| e.to_string())?;
        span(tracer, "session.update", || {
            session.update_timing(&RunBudget::unbounded())
        })
        .map_err(|e| e.to_string())?;
        let report = span(tracer, "session.report", || session.report(1));
        Ok((report.wns_ps.to_bits(), report.tns_ps.to_bits()))
    }

    fn run_mirror(&mut self) -> Bits {
        let mirror = self.mirror.as_mut().expect("mirror lane runs traced");
        let tr = self.tracer.as_mut().expect("mirror lane runs traced");
        for edit in &self.edits {
            edit.apply_to_timer(mirror.timer_mut());
        }
        let counts = mirror.update(tr, self.probe);
        if self.probe {
            self.probe_counts.push(counts);
        }
        let open = tr.begin("sta.report");
        let bits = bits_of(mirror.timer());
        tr.end(open);
        bits
    }

    fn run_twin(&mut self) -> Bits {
        let InProc {
            twin,
            twin_exec,
            tracer,
            edits,
            probe,
            dispatches_plain,
            ..
        } = self;
        for edit in edits.iter() {
            edit.apply_to_timer(twin);
        }
        let update = span(tracer, "twin.tdg_build", || twin.update_timing());
        if *probe {
            span(tracer, "tdg.csr", || {
                update.tdg().csr();
            });
            // The payload is idempotent, so the same TDG can run again:
            // sequentially (once unmeasured, to warm the caches alike) for
            // the per-task floor, then through a one-worker executor,
            // which adds only the queue operations.
            update.run_sequential();
            span(tracer, "probe.run_sequential", || update.run_sequential());
            let report = span(tracer, "probe.run_one_worker", || {
                Executor::new(1).run_tdg(update.tdg(), &update.task_fn())
            });
            dispatches_plain.push(report.dispatches as f64);
        }
        span(tracer, "sched.run_plain", || {
            twin_exec.run_tdg(update.tdg(), &update.task_fn())
        });
        drop(update);
        span(tracer, "twin.report", || bits_of(twin))
    }
}

impl Subject for InProc {
    fn lanes(&self) -> usize {
        2 + usize::from(self.mirror.is_some())
    }

    fn next_op(&mut self, op: u32) {
        self.edits = self.stream.by_ref().take(self.edits_per_op).collect();
        self.session_edits = self
            .edits
            .iter()
            .map(|e| e.to_session(&self.twin))
            .collect();
        self.probe = self.mirror.is_some() && op < self.warmup;
        if let Some(tr) = self.tracer.as_mut() {
            tr.set_op(op);
        }
    }

    fn run(&mut self, lane: usize) -> Result<(), String> {
        let last = self.lanes() - 1;
        let op_span = match lane {
            0 => "session.op",
            l if l == last => "twin.op",
            _ => "mirror.op",
        };
        let open = trace::begin(&mut self.tracer, op_span);
        let bits = match lane {
            0 => self.run_session(),
            l if l == last => {
                let mut bits = self.run_twin();
                if std::mem::take(&mut self.corrupt_oracle) {
                    bits.0 ^= 1;
                }
                Ok(bits)
            }
            _ => Ok(self.run_mirror()),
        };
        trace::end(&mut self.tracer, open);
        self.bits[lane] = bits?;
        Ok(())
    }

    fn agree(&mut self) -> bool {
        self.bits.iter().all(|b| *b == self.bits[0])
    }
}

/// Run one in-process workload and fill in its ledger.
pub fn run(name: &str, spec: &Spec, seed: u64, seconds: f64, traced: bool, dir: &Path) -> Ledger {
    let workers = host::workers();
    let mut ledger = Ledger::new(name, traced);
    let mut tracer = Tracer::default();

    let mut setup_s = Vec::new();
    let mut session = None;
    for _ in 0..SETUP_ROUNDS {
        drop(session.take());
        let (fresh, seconds) = setup_round(spec, workers, &mut tracer);
        setup_s.push(seconds);
        session = Some(fresh);
    }
    let session = session.expect("at least one set-up round");
    let text = session.sources().verilog.clone();

    // Oracle and mirror construction is not part of what a user waits for.
    let mut mirror = None;
    if traced {
        for _ in 0..SETUP_ROUNDS {
            drop(mirror.take());
            mirror = Some(Mirror::create(&text, workers, &mut tracer));
        }
    }
    let mut twin = timer_from_text(&text, &mut Tracer::default());
    twin.update_timing().run_sequential();

    let lanes = 2 + usize::from(traced);
    let mut subject = InProc {
        stream: EditStream::new(spec.stream, seed, &twin),
        session,
        twin,
        twin_exec: Executor::new(workers),
        mirror,
        tracer: traced.then_some(tracer),
        warmup: spec.warmup,
        edits_per_op: spec.edits_per_op,
        edits: Vec::new(),
        session_edits: Vec::new(),
        probe: false,
        bits: vec![(0, 0); lanes],
        corrupt_oracle: std::env::var_os("PERF_LEDGER_CORRUPT_ORACLE").is_some(),
        probe_counts: Vec::new(),
        dispatches_plain: Vec::new(),
    };
    let pid = std::process::id();
    let samples = drive::measure(&mut subject, spec.warmup, seconds, pid);

    if traced {
        ledger.attempted = samples.attempted;
        ledger.failed = samples.failed;
        layer_metrics(&mut ledger, &mut subject, spec.warmup, dir);
    } else {
        // Read before the late set-up rounds, which build a second session.
        let peak_rss = host::peak_rss_mib(pid);
        for _ in 0..SETUP_ROUNDS {
            setup_s.push(setup_round(spec, workers, &mut Tracer::default()).1);
        }
        drive::end_to_end(&mut ledger, &samples, &setup_s, peak_rss);
    }
    ledger.failed += u64::from(!final_state_agrees(&mut subject));
    if let Some(tr) = &subject.tracer {
        crate::write_trace(dir, name, tr);
    }
    ledger
}

/// After the last block: the product path's whole timing state equals the
/// twin's (and the mirror's), and a from-scratch sequential recompute on
/// the twin — no scheduler, no partition — reproduces it.
fn final_state_agrees(subject: &mut InProc) -> bool {
    let want = subject.session.timer().snapshot();
    let mut ok = subject.twin.snapshot() == want;
    if let Some(mirror) = &subject.mirror {
        ok &= mirror.timer().snapshot() == want;
    }
    subject.twin.invalidate_all();
    subject.twin.update_timing().run_sequential();
    ok &= subject.twin.snapshot() == want;
    if !ok {
        eprintln!("perf_ledger: final timing state differs from the oracle");
    }
    ok
}

/// Fill in the per-layer metrics of a traced run from its spans.
fn layer_metrics(ledger: &mut Ledger, subject: &mut InProc, warmup: u32, dir: &Path) {
    let tr = subject.tracer.take().expect("traced run has a tracer");
    let measured = |name: &str| tr.durations_ms(name, warmup);
    let all = |name: &str| tr.durations_ms(name, 0);

    ledger.set("circuits.build_ms", &all("circuits.build"));
    ledger.set("sta.write_verilog_ms", &all("sta.write_verilog"));
    ledger.set("session.create_ms", &all("session.create"));
    // The mirror's set-up rounds (the twin is built on a throwaway tracer).
    ledger.set("sta.parse_verilog_ms", &all("sta.parse_verilog"));
    ledger.set("sta.timer_new_ms", &all("sta.timer_new"));
    ledger.set("core.install_ms", &all("core.install"));

    let counts = &subject.probe_counts;
    let count = |f: fn(&UpdateCounts) -> f64| counts.iter().map(f).collect::<Vec<f64>>();
    ledger.set("sta.tasks_per_update", &count(|c| c.tasks as f64));
    ledger.set("sta.deps_per_update", &count(|c| c.deps as f64));
    ledger.set("tdg.quotient_parts", &count(|c| c.parts as f64));
    ledger.set("tdg.quotient_edges", &count(|c| c.quotient_edges as f64));
    ledger.set("tdg.depth_ratio", &count(|c| c.depth_ratio));
    ledger.set("core.repair_moved", &count(|c| c.moved as f64));
    ledger.set("core.repair_fresh", &count(|c| c.fresh as f64));
    ledger.set("sched.dispatches", &count(|c| c.dispatches as f64));
    ledger.set("sched.sim_gain", &count(|c| c.sim_gain));
    ledger.set("sched.dispatches_plain", &subject.dispatches_plain);

    ledger.set("sta.tdg_build_ms_p50", &measured("sta.tdg_build"));
    ledger.set("sta.report_ms_p50", &measured("sta.report"));
    ledger.set("core.repair_ms_p50", &measured("core.repair"));
    ledger.set("tdg.quotient_ms_p50", &measured("tdg.quotient"));
    ledger.set("sched.run_ms_p50", &measured("sched.run"));
    ledger.set("sched.run_plain_ms_p50", &measured("sched.run_plain"));
    ledger.set("tdg.csr_ms_p50", &all("tdg.csr"));

    // Probe ops ran each update TDG sequentially, then on one worker.
    let dispatch_ns: Vec<f64> = all("probe.run_sequential")
        .iter()
        .zip(all("probe.run_one_worker"))
        .zip(&subject.dispatches_plain)
        .filter(|(_, &d)| d > 0.0)
        .map(|((seq, queued), d)| (queued - seq) * 1e6 / d)
        .collect();
    ledger.set("sched.dispatch_ns", &dispatch_ns);

    let session_update = measured("session.update");
    ledger.set("session.update_ms_p50", &session_update);
    ledger.set("session.update_ms_tail", &[tail(&session_update)]);
    let apply_us: Vec<f64> = measured("session.apply_edit")
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    ledger.set("session.apply_edit_us_p50", &apply_us);
    // Paired per op, because cone sizes are heavy-tailed: the median of
    // per-op ratios, not a ratio of medians over different ops.
    let paired = |part: &[&str], whole: &str| {
        let part = tr.sum_by_op(part, warmup);
        let ratios: Vec<f64> = tr
            .sum_by_op(&[whole], warmup)
            .iter()
            .filter_map(|(op, whole)| part.get(op).map(|part| part / whole))
            .collect();
        median(&ratios)
    };
    let mirrored = [
        "sta.tdg_build",
        "sta.full_space_ids",
        "core.repair",
        "tdg.quotient",
        "sched.run",
    ];
    ledger.set(
        "session.mirror_gap",
        &[paired(&mirrored, "session.update") - 1.0],
    );
    ledger.set(
        "trace.overhead_ratio",
        &[paired(&["mirror.op"], "session.op")],
    );

    full_space_probes(ledger, subject);
    checkpoint_probe(ledger, &mut subject.session, dir);
    subject.tracer = Some(tr);
}

/// Probes on the full-space TDG, off the product path: the per-task floor,
/// the paper's from-scratch partitioners (`T_Partition`, CSR warm), and the
/// device primitives they are built on.
fn full_space_probes(ledger: &mut Ledger, subject: &mut InProc) {
    let workers = host::workers();
    subject.twin.invalidate_all();
    let full = subject.twin.update_timing();
    let tdg = full.tdg();
    let tasks = tdg.num_tasks();

    let t0 = Instant::now();
    full.run_sequential();
    ledger.set(
        "sta.task_ns",
        &[t0.elapsed().as_secs_f64() * 1e9 / tasks as f64],
    );

    tdg.csr();
    let opts = PartitionerOptions::default();
    let algos: [(&str, Box<dyn Partitioner>); 4] = [
        ("seq", Box::new(SeqGPasta::new())),
        (
            "gpasta",
            Box::new(GPasta::with_device(Device::new(workers))),
        ),
        (
            "deter",
            Box::new(DeterGPasta::with_device(Device::new(workers))),
        ),
        ("gdca", Box::new(Gdca::new())),
    ];
    for (tag, algo) in &algos {
        let mut ms = Vec::new();
        let mut parts = 0;
        for _ in 0..3 {
            let t0 = Instant::now();
            let partition = algo.partition(tdg, &opts).expect("default options");
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
            parts = partition.num_partitions();
        }
        ledger.set(&format!("core.scratch_ms.{tag}"), &ms);
        ledger.set(&format!("core.scratch_parts.{tag}"), &[parts as f64]);
    }

    // Two device threads whatever the host has; 64 is the smallest grid
    // that is not run inline on the calling thread.
    let dev = Device::new(2);
    let launch_us: Vec<f64> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            dev.launch(64, |_| {});
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    ledger.set("gpu.launch_us_p50", &launch_us);
    let sort_ns: Vec<f64> = (0..3)
        .map(|round| {
            let mut state = round as u64;
            let mut keys: Vec<u64> = (0..tasks)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    state
                })
                .collect();
            let t0 = Instant::now();
            prims::sort_u64(&dev, &mut keys);
            t0.elapsed().as_secs_f64() * 1e9 / tasks as f64
        })
        .collect();
    ledger.set("gpu.sort_u64_ns_per_key", &sort_ns);

    let single = TdgBuilder::new(1).build().expect("one task, no edges");
    let empty_us: Vec<f64> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            subject.twin_exec.run_tdg(&single, &|_: TaskId| {});
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    ledger.set("sched.empty_run_us_p50", &empty_us);
}

/// One `evict_to` + `restore`, with the restored state checked against the
/// live one: the write-beside-read check for `session`/`checkpoint`.
fn checkpoint_probe(ledger: &mut Ledger, session: &mut Session, dir: &Path) {
    let path = dir.join(format!("probe-{}.ckpt", std::process::id()));
    let t0 = Instant::now();
    let dormant = session.evict_to(&path).expect("checkpoint is writable");
    ledger.set("checkpoint.evict_ms", &[t0.elapsed().as_secs_f64() * 1e3]);
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    ledger.set("checkpoint.bytes", &[bytes as f64]);
    let t0 = Instant::now();
    let restored = dormant
        .restore(session.workers())
        .expect("checkpoint restores");
    ledger.set("checkpoint.restore_ms", &[t0.elapsed().as_secs_f64() * 1e3]);
    std::fs::remove_file(&path).ok();
    if restored.timer().snapshot() != session.timer().snapshot() {
        eprintln!("perf_ledger: restored session differs from the live one");
        ledger.failed += 1;
    }
}
