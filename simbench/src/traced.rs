//! The traced run: each workload's layers driven from the benchmark's
//! own code, with a span around every call into a layer.
//!
//! Every op index runs twice, back to back: once through the untraced
//! op of [`crate::workload`], once re-driven here with spans. The two
//! must produce the same digest, and because they run seconds apart at
//! most, a ratio or difference of their times is not skewed by slow
//! drifts in host speed.
//!
//! * `mc_*` re-drive `estimate_pa_seeds`: `LaneEngine::route_lanes_with`
//!   over per-lane `Workload::fill_batch` (lanes path), or
//!   `NetworkSim::run_session` with the benchmark's own `CycleDriver`
//!   (scalar path).
//! * `ra_maspar_perm` makes the op's calls with a span around each:
//!   `Permutation::random` (traffic) and the cluster session's
//!   `run_to_completion` (session), whose engine passes an
//!   [`EngineTimer`] times through the `Probe` seam.
//! * `mimd_fig11` spans `MimdSystem::run` whole: it cannot be split from
//!   outside, so after each op an engine probe routes batches of the
//!   op's shape on `RoutingEngine::route`: the same network and arbiter,
//!   as many cycles, uniform traffic at the op's mean rate. The op's
//!   engine time is estimated from the probe, and the session's self
//!   time is *derived*: untraced op time − estimated engine time of the
//!   same op index.
//!
//! Inside a session the engine's span is the gap between the driver's
//! `fill_cycle` returning and `absorb` being called. Every routed batch
//! passes structural checks through `BatchOutcomeView`; check spans are
//! left out of every layer's time.

use std::path::Path;
use std::time::Instant;

use edn_core::{
    Arbiter, BatchOutcomeView, CompiledWiring, CycleDriver, EdnParams, LaneEngine, Probe,
    RouteRequest, RoutingEngine, SessionState,
};
use edn_fabric::Fabric;
use edn_sim::{AcceptanceEstimate, ArbiterKind, MimdSystem, NetworkSim, RunningStats};
use edn_traffic::{UniformTraffic, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::check::{verify, Checker, OpChecks};
use crate::span::{by_name, Recorder, SpanId};
use crate::stats::median;
use crate::workload::{
    mc_outcome, mimd_outcome, mimd_system, prepare, recorded_checkpoints, setup, Kind, McSpec,
    OpOutcome, RaRunner, Runner, MC_RATE, MIMD_OP_CYCLES, MIMD_WARMUP,
};
use crate::{replica_seed, PREFIX_OPS};

/// The arbiter-stream salt the Monte-Carlo estimators apply to each
/// replica seed (documented on `edn_sim::estimate_pa_lanes`).
pub const MC_ARBITER_SALT: u64 = 0xA5A5_5A5A_A5A5_5A5A;

/// Repetitions of each set-up probe (compile, load).
const PROBE_REPS: usize = 3;

/// Where a per-layer value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Spans inside the traced ops.
    Op,
    /// Spans around set-up calls (construction, compile, load).
    Setup,
    /// A probe of the layer outside the op, on this workload's shape
    /// (or the nearest shape the layer accepts).
    Probe,
    /// A difference or ratio of the untraced op's time and spans of
    /// the traced op with the same index.
    Derived,
    /// Not a time: a count or ratio of the simulation.
    Count,
}

impl Source {
    fn label(self) -> &'static str {
        match self {
            Source::Op => "op",
            Source::Setup => "setup",
            Source::Probe => "probe",
            Source::Derived => "derived",
            Source::Count => "count",
        }
    }
}

/// One per-layer metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Where the value comes from.
    pub source: Source,
}

/// The per-layer metrics of one traced run, with notes for the table.
#[derive(Debug, Default)]
pub struct LayerTable {
    /// Metrics in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Free-text notes (probe shapes, op counts).
    pub notes: Vec<String>,
}

impl LayerTable {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str, source: Source) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            source,
        });
    }

    /// Prints the table, one metric per line.
    pub fn print(&self, kind: Kind) {
        println!("per-layer table: {}", kind.name());
        for m in &self.metrics {
            println!(
                "  {:<30} {:>16.6} {:<6} {}",
                m.name,
                m.value,
                m.unit,
                m.source.label()
            );
        }
        for note in &self.notes {
            println!("  note: {note}");
        }
    }
}

/// Structural checks of one routed batch through the public
/// `BatchOutcomeView` accessors.
#[derive(Debug, Default)]
pub struct BatchCheck {
    epoch: u64,
    /// `(epoch, tag)` of each source's request in the current batch.
    tag_of: Vec<(u64, u64)>,
    /// Epoch in which each output last received a delivery.
    delivered_to: Vec<u64>,
    /// Requests offered in the current batch.
    offered: usize,
}

impl BatchCheck {
    /// Scratch for a network of `params`' size.
    pub fn new(params: &EdnParams) -> Self {
        BatchCheck {
            epoch: 0,
            tag_of: vec![(0, 0); slot(params.inputs())],
            delivered_to: vec![0; slot(params.outputs())],
            offered: 0,
        }
    }

    /// Notes the batch about to be routed.
    pub fn expect_batch(&mut self, requests: &[RouteRequest]) {
        self.epoch += 1;
        for request in requests {
            self.tag_of[slot(request.source)] = (self.epoch, request.tag);
        }
        self.offered = requests.len();
    }

    /// Checks the outcome of the batch given to
    /// [`BatchCheck::expect_batch`]: delivered + blocked = offered, no
    /// output delivered twice, and every delivered `(source, output)`
    /// has `output` equal to that source's tag.
    pub fn check(&mut self, outcome: &BatchOutcomeView) -> Result<(), String> {
        if outcome.offered() != self.offered
            || outcome.delivered_count() + outcome.blocked().len() != outcome.offered()
        {
            return Err(format!(
                "delivered {} + blocked {} != offered {} (batch of {})",
                outcome.delivered_count(),
                outcome.blocked().len(),
                outcome.offered(),
                self.offered
            ));
        }
        for &(source, output) in outcome.delivered() {
            let (epoch, tag) = self.tag_of[slot(source)];
            if epoch != self.epoch || tag != output {
                return Err(format!(
                    "source {source} delivered to {output}, not its tag"
                ));
            }
            let last = &mut self.delivered_to[slot(output)];
            if *last == self.epoch {
                return Err(format!("output {output} delivered twice in one cycle"));
            }
            *last = self.epoch;
        }
        Ok(())
    }
}

fn slot(value: u64) -> usize {
    usize::try_from(value).expect("port index fits usize")
}

/// Layer counts gathered alongside the spans.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    traffic_requests: u64,
    lane_passes: u64,
    lane_replicas: u64,
    lane_port_replicas: u64,
    engine_offered: u64,
    engine_delivered: u64,
    probe_offered: u64,
    probe_delivered: u64,
    probe_traffic_requests: u64,
}

/// Everything a traced op records into.
struct Tracer<'r> {
    rec: &'r mut Recorder,
    checker: &'r mut Checker,
    check: BatchCheck,
    counts: Counts,
}

impl Tracer<'_> {
    fn open(&mut self, name: &'static str, op: u64, parent: SpanId) -> SpanId {
        self.rec.open(name, op, Some(parent))
    }

    fn close(&mut self, span: SpanId) {
        self.rec.close(span);
    }

    /// Notes the batch about to be routed; returns the engine span's
    /// start.
    fn filled(&mut self, op: u64, parent: SpanId, requests: &[RouteRequest]) -> u64 {
        let span = self.open("check", op, parent);
        self.check.expect_batch(requests);
        self.close(span);
        self.rec.now()
    }

    /// Records the engine span from `start` to now and checks the
    /// outcome.
    fn routed(&mut self, op: u64, parent: SpanId, start: u64, outcome: &BatchOutcomeView) {
        let now = self.rec.now();
        self.rec.push("engine", op, Some(parent), start, now);
        let span = self.open("check", op, parent);
        self.checker.require(self.check.check(outcome));
        self.counts.engine_offered += outcome.offered() as u64;
        self.counts.engine_delivered += outcome.delivered_count() as u64;
        self.close(span);
    }
}

/// Scalar-path replica of `estimate_pa_with`'s driver.
struct McDriver<'t, 'r> {
    t: &'t mut Tracer<'r>,
    op: u64,
    session: SpanId,
    engine_start: u64,
    workload: UniformTraffic,
    rng: StdRng,
    per_cycle: RunningStats,
    offered: u64,
    delivered: u64,
}

impl CycleDriver for McDriver<'_, '_> {
    fn fill_cycle(&mut self, _cycle: u64, requests: &mut Vec<RouteRequest>) {
        let span = self.t.open("traffic", self.op, self.session);
        self.workload.fill_batch(requests, &mut self.rng);
        self.t.close(span);
        self.t.counts.traffic_requests += requests.len() as u64;
        self.engine_start = self.t.filled(self.op, self.session, requests);
    }

    fn absorb(&mut self, _cycle: u64, outcome: &BatchOutcomeView) {
        self.t
            .routed(self.op, self.session, self.engine_start, outcome);
        if outcome.offered() == 0 {
            self.per_cycle.push(1.0);
            return;
        }
        self.offered += outcome.offered() as u64;
        self.delivered += outcome.delivered_count() as u64;
        self.per_cycle.push(outcome.acceptance_rate());
    }
}

/// Times each engine pass of a library session through the `Probe`
/// seam, from `cycle_start` to `cycle_end`, as `engine` spans.
struct EngineTimer<'t, 'r> {
    t: &'t mut Tracer<'r>,
    op: u64,
    session: SpanId,
    start: u64,
}

impl Probe for EngineTimer<'_, '_> {
    const ENABLED: bool = true;

    fn cycle_start(&mut self, offered: usize) {
        self.t.counts.engine_offered += offered as u64;
        self.start = self.t.rec.now();
    }

    fn cycle_end(&mut self, delivered: usize) {
        let now = self.t.rec.now();
        self.t
            .rec
            .push("engine", self.op, Some(self.session), self.start, now);
        self.t.counts.engine_delivered += delivered as u64;
    }
}

/// Lane 0's batch of one lanes pass and what it delivered.
type SavedPass = (Vec<RouteRequest>, Vec<(u64, u64)>);

/// A workload's traced re-drive.
// One value per run, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
enum Traced {
    Mc {
        kind: Kind,
        seed: u64,
        lanes: bool,
        state: SessionState,
        /// Scalar engine that re-routes lane 0's batches after each
        /// lanes op (priority arbitration is stateless, so lane 0 and
        /// the scalar pass must agree exactly).
        probe: RoutingEngine,
        saved: Vec<SavedPass>,
    },
    Ra(RaRunner),
    Mimd(MimdSystem),
}

/// Routes batches of an op's shape on `RoutingEngine::route`, for
/// `mimd_fig11`, whose engine calls happen inside `MimdSystem::run`.
struct EngineProbe {
    engine: RoutingEngine,
    arbiter: Box<dyn Arbiter + Send>,
    rng: StdRng,
    batch: Vec<RouteRequest>,
}

impl EngineProbe {
    fn new(kind: Kind) -> Self {
        EngineProbe {
            engine: RoutingEngine::from_params(kind.params()),
            arbiter: kind.arbiter().build(0),
            rng: StdRng::seed_from_u64(0),
            batch: Vec::new(),
        }
    }

    /// Routes `outcome.cycles` batches of uniform traffic at the op's
    /// mean request rate, each generated in a `probe.traffic` span and
    /// routed in a `probe.engine` span of op `index`. Returns the
    /// requests routed.
    fn route_like(&mut self, outcome: &OpOutcome, index: u64, t: &mut Tracer<'_>) -> u64 {
        let params = *self.engine.params();
        let rate = outcome.offered as f64 / (outcome.cycles * params.inputs()) as f64;
        let mut traffic = UniformTraffic::new(params.inputs(), params.outputs(), rate);
        let mut offered = 0;
        for _ in 0..outcome.cycles {
            let span = t.rec.open("probe.traffic", index, None);
            traffic.fill_batch(&mut self.batch, &mut self.rng);
            t.close(span);
            t.check.expect_batch(&self.batch);
            let span = t.rec.open("probe.engine", index, None);
            let routed = self.engine.route(&self.batch, &mut *self.arbiter);
            t.close(span);
            t.checker.require(t.check.check(routed));
            t.counts.probe_offered += routed.offered() as u64;
            t.counts.probe_delivered += routed.delivered_count() as u64;
            offered += self.batch.len() as u64;
        }
        t.counts.probe_traffic_requests += offered;
        offered
    }
}

impl Traced {
    /// Builds the re-drive for `kind` at `seed` and replays the untraced
    /// set-up's warm-up, so op `i` here is op `i` there.
    fn new(kind: Kind, seed: u64, t: &mut Tracer<'_>) -> Traced {
        let params = kind.params();
        let root = t.rec.open("setup", u64::MAX, None);
        let mut traced = match kind {
            Kind::McMaspar | Kind::Mc256k => Traced::Mc {
                kind,
                seed,
                lanes: edn_core::lanes_enabled() && LaneEngine::supports(&params),
                state: SessionState::new(),
                probe: RoutingEngine::from_params(params),
                saved: Vec::new(),
            },
            Kind::RaMasparPerm => {
                let span = t.open("sim.construct", u64::MAX, root);
                let runner = RaRunner::new(seed);
                t.close(span);
                Traced::Ra(runner)
            }
            Kind::MimdFig11 => {
                let span = t.open("sim.construct", u64::MAX, root);
                let system = mimd_system(seed);
                t.close(span);
                Traced::Mimd(system)
            }
        };
        t.close(root);
        // The untraced set-up's warm-up: two permutations
        // (ra_maspar_perm) or 150 MIMD cycles.
        match &mut traced {
            Traced::Mc { .. } => {}
            Traced::Ra(runner) => {
                runner.op(0);
                runner.op(1);
            }
            Traced::Mimd(system) => {
                system.run(MIMD_WARMUP, 0);
            }
        }
        traced
    }

    fn op(&mut self, index: u64, t: &mut Tracer<'_>) -> OpOutcome {
        match self {
            Traced::Mc {
                kind,
                seed,
                lanes,
                state,
                probe,
                saved,
            } => {
                let (kind, seed) = (*kind, *seed);
                let spec = McSpec::of(kind);
                let seeds: Vec<u64> = (0..spec.replicas)
                    .map(|replica| replica_seed(seed, index, replica))
                    .collect();
                let op = t.rec.open("op", index, None);
                let estimates = if *lanes {
                    saved.clear();
                    mc_lanes(kind, &seeds, index, op, t, saved)
                } else {
                    seeds
                        .iter()
                        .map(|&s| mc_scalar(kind, s, index, op, state, t))
                        .collect()
                };
                t.close(op);
                if *lanes {
                    // Lane 0 re-routed on the scalar engine, outside the op.
                    let mut arbiter = ArbiterKind::Priority.build(0);
                    for (batch, delivered) in saved.iter() {
                        let span = t.rec.open("probe.engine", index, None);
                        let outcome = probe.route(batch, &mut *arbiter);
                        t.close(span);
                        t.counts.probe_offered += outcome.offered() as u64;
                        t.counts.probe_delivered += outcome.delivered_count() as u64;
                        t.checker
                            .require(if outcome.delivered() == delivered.as_slice() {
                                Ok(())
                            } else {
                                Err("lane 0 and the scalar engine disagree".to_string())
                            });
                    }
                }
                mc_outcome(&estimates, spec.cycles)
            }
            Traced::Ra(runner) => {
                let op = t.rec.open("op", index, None);
                let span = t.open("traffic", index, op);
                let perm = runner.permutation();
                t.close(span);
                t.counts.traffic_requests += perm.len();
                let session = t.open("session", index, op);
                let mut timer = EngineTimer {
                    t: &mut *t,
                    op: index,
                    session,
                    start: 0,
                };
                let outcome = runner.drain(&perm, &mut timer);
                t.close(session);
                t.close(op);
                outcome
            }
            Traced::Mimd(system) => {
                let op = t.rec.open("op", index, None);
                let span = t.open("session", index, op);
                let report = system.run(0, MIMD_OP_CYCLES);
                t.close(span);
                t.close(op);
                mimd_outcome(&report, system.processors())
            }
        }
    }
}

/// `estimate_pa_lanes` for one chunk of seeds. Saves lane 0's batches
/// and deliveries for the scalar cross-check.
fn mc_lanes(
    kind: Kind,
    seeds: &[u64],
    index: u64,
    op: SpanId,
    t: &mut Tracer<'_>,
    saved: &mut Vec<SavedPass>,
) -> Vec<AcceptanceEstimate> {
    let params = kind.params();
    let spec = McSpec::of(kind);
    let span = t.open("sim.construct", index, op);
    let mut engine = LaneEngine::from_params(params);
    t.close(span);
    let lanes = seeds.len();
    let mut workloads: Vec<UniformTraffic> = seeds
        .iter()
        .map(|_| UniformTraffic::new(params.inputs(), params.outputs(), MC_RATE))
        .collect();
    let mut rngs: Vec<StdRng> = seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
    let mut arbiters: Vec<Box<dyn Arbiter + Send>> = seeds
        .iter()
        .map(|&s| kind.arbiter().build(s ^ MC_ARBITER_SALT))
        .collect();
    let mut batches: Vec<Vec<RouteRequest>> = (0..lanes).map(|_| Vec::new()).collect();
    let mut per_cycle: Vec<RunningStats> = (0..lanes).map(|_| RunningStats::new()).collect();
    let mut offered = vec![0u64; lanes];
    let mut delivered = vec![0u64; lanes];
    let session = t.open("session", index, op);
    for _ in 0..spec.cycles {
        let span = t.open("traffic", index, session);
        for ((workload, rng), batch) in workloads.iter_mut().zip(&mut rngs).zip(&mut batches) {
            workload.fill_batch(batch, rng);
        }
        t.close(span);
        let span = t.open("lanes", index, session);
        let shared = &batches;
        let outcomes =
            engine.route_lanes_with(lanes, |lane| shared[lane].as_slice(), &mut arbiters);
        t.close(span);
        let span = t.open("check", index, session);
        for (batch, outcome) in batches.iter().zip(outcomes) {
            t.check.expect_batch(batch);
            t.checker.require(t.check.check(outcome));
            t.counts.traffic_requests += batch.len() as u64;
        }
        saved.push((batches[0].clone(), outcomes[0].delivered().to_vec()));
        t.counts.lane_passes += 1;
        t.counts.lane_replicas += lanes as u64;
        t.counts.lane_port_replicas += params.inputs() * lanes as u64;
        t.close(span);
        for (lane, outcome) in outcomes.iter().enumerate() {
            if outcome.offered() == 0 {
                per_cycle[lane].push(1.0);
                continue;
            }
            offered[lane] += outcome.offered() as u64;
            delivered[lane] += outcome.delivered_count() as u64;
            per_cycle[lane].push(outcome.acceptance_rate());
        }
    }
    t.close(session);
    (0..lanes)
        .map(|lane| {
            estimate(
                spec.cycles,
                offered[lane],
                delivered[lane],
                &per_cycle[lane],
            )
        })
        .collect()
}

/// `estimate_pa_with` for one seed.
fn mc_scalar(
    kind: Kind,
    seed: u64,
    index: u64,
    op: SpanId,
    state: &mut SessionState,
    t: &mut Tracer<'_>,
) -> AcceptanceEstimate {
    let params = kind.params();
    let spec = McSpec::of(kind);
    let span = t.open("sim.construct", index, op);
    let mut sim = NetworkSim::new(params, kind.arbiter(), seed ^ MC_ARBITER_SALT);
    t.close(span);
    let session = t.open("session", index, op);
    let mut driver = McDriver {
        t: &mut *t,
        op: index,
        session,
        engine_start: 0,
        workload: UniformTraffic::new(params.inputs(), params.outputs(), MC_RATE),
        rng: StdRng::seed_from_u64(seed),
        per_cycle: RunningStats::new(),
        offered: 0,
        delivered: 0,
    };
    sim.run_session(state, &mut driver, u64::from(spec.cycles));
    let result = estimate(
        spec.cycles,
        driver.offered,
        driver.delivered,
        &driver.per_cycle,
    );
    t.close(session);
    result
}

fn estimate(
    cycles: u32,
    offered: u64,
    delivered: u64,
    per_cycle: &RunningStats,
) -> AcceptanceEstimate {
    AcceptanceEstimate {
        mean: if offered == 0 {
            1.0
        } else {
            delivered as f64 / offered as f64
        },
        std_error: per_cycle.std_error(),
        cycles,
        offered,
        delivered,
    }
}

/// Median wall time of `PROBE_REPS` calls of `f`, each recorded as a
/// root span named `name`, in ms.
fn probe_ms(rec: &mut Recorder, name: &'static str, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let span = rec.open(name, u64::MAX, None);
            f();
            rec.close(span);
            rec.spans()[span].duration() as f64 / 1e6
        })
        .collect();
    median(&mut times)
}

/// Routes four lane passes of 64 uniform replicas at `rate` on
/// `params`; returns ns per port-replica.
fn lanes_probe(params: EdnParams, arbiter: ArbiterKind, rate: f64, rec: &mut Recorder) -> f64 {
    const PASSES: u64 = 4;
    let lanes = edn_core::MAX_LANES;
    let mut engine = LaneEngine::from_params(params);
    let mut workloads: Vec<UniformTraffic> = (0..lanes)
        .map(|_| UniformTraffic::new(params.inputs(), params.outputs(), rate))
        .collect();
    let mut rngs: Vec<StdRng> = (0..lanes as u64).map(StdRng::seed_from_u64).collect();
    let mut arbiters: Vec<Box<dyn Arbiter + Send>> =
        (0..lanes as u64).map(|s| arbiter.build(s)).collect();
    let mut batches: Vec<Vec<RouteRequest>> = (0..lanes).map(|_| Vec::new()).collect();
    let mut lane_ns = 0u64;
    for _ in 0..PASSES {
        for ((workload, rng), batch) in workloads.iter_mut().zip(&mut rngs).zip(&mut batches) {
            workload.fill_batch(batch, rng);
        }
        let span = rec.open("probe.lanes", u64::MAX, None);
        let shared = &batches;
        engine.route_lanes_with(lanes, |lane| shared[lane].as_slice(), &mut arbiters);
        rec.close(span);
        lane_ns += rec.spans()[span].duration();
    }
    lane_ns as f64 / (PASSES * params.inputs() * lanes as u64) as f64
}

/// The largest shape of `params`' family (same `a, b, c`, fewer stages)
/// the lane engine accepts.
fn lane_shape(params: EdnParams) -> Option<EdnParams> {
    (1..=params.l()).rev().find_map(|l| {
        EdnParams::new(params.a(), params.b(), params.c(), l)
            .ok()
            .filter(LaneEngine::supports)
    })
}

/// Times of one op index: the untraced op and spans of its traced twin.
#[derive(Debug, Clone, Copy, Default)]
struct Pair {
    untraced_ns: f64,
    /// Traced op span minus its check spans.
    traced_ns: f64,
    /// Engine spans of the traced op, or the probe's estimate.
    engine_ns: f64,
}

/// Runs the traced mode of `kind` for about `seconds` seconds and
/// returns the per-layer table. Spans go to `rec`; check results to
/// `checker`.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    scratch: &Path,
    rec: &mut Recorder,
    checker: &mut Checker,
) -> LayerTable {
    let params = kind.params();
    let expect = kind.expect();
    let mut checks = OpChecks::new(expect, recorded_checkpoints(kind, seed).unwrap_or_default());

    // Set-up probes.
    let compile_ms = probe_ms(rec, "wiring.compile", || {
        CompiledWiring::compile_params(params).expect("benchmark shapes compile");
    });
    let fabric = Fabric::from_wiring(edn_core::compile_shared(params));
    let path = Fabric::path_in(scratch, &params);
    let load_ms = match std::fs::create_dir_all(scratch).and_then(|()| fabric.save(&path)) {
        Ok(()) => {
            let ms = probe_ms(rec, "fabric.load", || match Fabric::load(&path) {
                Ok(loaded) if loaded.wiring().lut() == fabric.wiring().lut() => {}
                _ => checker.require(Err("fabric did not load back as saved".to_string())),
            });
            checker.require(std::fs::remove_file(&path).map_err(|e| e.to_string()));
            ms
        }
        Err(e) => {
            checker.require(Err(format!("saving {}: {e}", path.display())));
            f64::NAN
        }
    };
    drop(fabric);

    prepare(kind, seed, scratch, checker);
    let mut runner = setup(kind, seed, scratch, checker);
    let mut t = Tracer {
        rec,
        checker,
        check: BatchCheck::new(&params),
        counts: Counts::default(),
    };
    let mut traced = Traced::new(kind, seed, &mut t);
    let mut probe = (kind == Kind::MimdFig11).then(|| EngineProbe::new(kind));
    let mut untraced: Vec<OpOutcome> = Vec::new();
    let mut pairs: Vec<Pair> = Vec::new();
    let start = Instant::now();
    while untraced.len() < PREFIX_OPS || start.elapsed().as_secs_f64() < seconds {
        let index = untraced.len() as u64;
        let clock = Instant::now();
        let outcome = runner.op(index);
        let untraced_ns = clock.elapsed().as_nanos() as f64;
        let first = t.rec.spans().len();
        let twin = traced.op(index, &mut t);
        // The probe's engine time, scaled to the op's request count.
        let engine_scale = match probe.as_mut() {
            Some(probe) => {
                outcome.offered as f64 / probe.route_like(&outcome, index, &mut t) as f64
            }
            None => 1.0,
        };
        let mut pair = Pair {
            untraced_ns,
            ..Pair::default()
        };
        for span in &t.rec.spans()[first..] {
            let ns = span.duration() as f64;
            match (span.name, span.op == index) {
                ("op", true) => pair.traced_ns += ns,
                ("check", true) => pair.traced_ns -= ns,
                ("engine", true) => pair.engine_ns += ns,
                ("probe.engine", true) if probe.is_some() => pair.engine_ns += ns * engine_scale,
                _ => {}
            }
        }
        t.checker.record(checks.check(&outcome));
        t.checker
            .record(verify(&twin, &expect, Some(outcome.digest())));
        untraced.push(outcome);
        pairs.push(pair);
    }
    let counts = t.counts;
    drop(t);

    let layers = by_name(rec.spans());
    let self_ns = |name: &str| layers.get(name).map_or(0, |l| l.self_ns) as f64;
    let ops = untraced.len() as f64;
    let cycles: u64 = untraced.iter().map(|o| o.cycles).sum();
    let offered: u64 = untraced.iter().map(|o| o.offered).sum();
    let delivered: u64 = untraced.iter().map(|o| o.delivered).sum();
    let stages = f64::from(params.l());
    let sum = |f: fn(&Pair) -> f64| pairs.iter().map(f).sum::<f64>();
    let lanes_in_ops = counts.lane_passes > 0;
    let probed = probe.is_some();

    let mut table = LayerTable::default();
    if kind == Kind::MimdFig11 {
        table.push(
            "traffic.ns_per_request",
            self_ns("probe.traffic") / counts.probe_traffic_requests as f64,
            "ns",
            Source::Probe,
        );
        table.notes.push(
            "traffic: MimdSystem draws its own requests inside run(); uniform traffic at the \
             op's mean rate is probed instead"
                .to_string(),
        );
    } else {
        table.push(
            "traffic.ns_per_request",
            self_ns("traffic") / counts.traffic_requests as f64,
            "ns",
            Source::Op,
        );
    }

    if lanes_in_ops {
        table.push(
            "lanes.ns_per_port_replica",
            self_ns("lanes") / counts.lane_port_replicas as f64,
            "ns",
            Source::Op,
        );
        table.push(
            "lanes.replicas_per_pass",
            counts.lane_replicas as f64 / counts.lane_passes as f64,
            "count",
            Source::Count,
        );
        table
            .notes
            .push(format!("lanes: {} passes in the ops", counts.lane_passes));
    } else {
        let rate = match kind {
            Kind::MimdFig11 => offered as f64 / (cycles as f64 * params.inputs() as f64),
            _ => MC_RATE,
        };
        let shape = lane_shape(params);
        let value = shape.map_or(f64::NAN, |shape| {
            lanes_probe(shape, kind.arbiter(), rate, rec)
        });
        table.push("lanes.ns_per_port_replica", value, "ns", Source::Probe);
        table.push("lanes.replicas_per_pass", 0.0, "count", Source::Count);
        table.notes.push(match shape {
            Some(shape) => format!(
                "lanes: the ops take no lane pass; 64-replica probe on {shape} at r = {rate:.3}"
            ),
            None => "lanes: no shape of this family fits the lane engine".to_string(),
        });
    }

    let (engine_ns, engine_offered, engine_delivered, engine_source) = if lanes_in_ops || probed {
        (
            self_ns("probe.engine"),
            counts.probe_offered,
            counts.probe_delivered,
            Source::Probe,
        )
    } else {
        (
            self_ns("engine"),
            counts.engine_offered,
            counts.engine_delivered,
            Source::Op,
        )
    };
    table.push(
        "engine.ns_per_request_stage",
        engine_ns / (engine_offered as f64 * stages),
        "ns",
        engine_source,
    );
    table.push(
        "engine.op_share",
        if lanes_in_ops {
            0.0
        } else {
            sum(|p| p.engine_ns) / sum(|p| p.untraced_ns)
        },
        "ratio",
        Source::Derived,
    );
    table.push(
        "engine.acceptance",
        engine_delivered as f64 / engine_offered as f64,
        "ratio",
        Source::Count,
    );

    let construct = layers.get("sim.construct");
    table.push(
        "sim.construct_ms",
        construct.map_or(f64::NAN, |l| l.total_ns as f64 / l.spans as f64 / 1e6),
        "ms",
        match kind {
            Kind::McMaspar | Kind::Mc256k => Source::Op,
            _ => Source::Setup,
        },
    );
    table.push("wiring.compile_ms", compile_ms, "ms", Source::Setup);
    table.push("fabric.load_ms", load_ms, "ms", Source::Setup);

    if probed {
        table.push(
            "session.self_ns_per_cycle",
            (sum(|p| p.untraced_ns) - sum(|p| p.engine_ns)) / cycles as f64,
            "ns",
            Source::Derived,
        );
        table.notes.push(
            "session: derived = untraced op - probe-estimated engine time of the same op \
             index; it includes MimdSystem's processor population"
                .to_string(),
        );
    } else {
        table.push(
            "session.self_ns_per_cycle",
            self_ns("session") / cycles as f64,
            "ns",
            Source::Op,
        );
    }
    table.push(
        "session.cycles_per_op",
        cycles as f64 / ops,
        "count",
        Source::Count,
    );
    table.push(
        "session.delivered_per_offered",
        delivered as f64 / offered as f64,
        "ratio",
        Source::Count,
    );
    let mut ratios: Vec<f64> = pairs.iter().map(|p| p.traced_ns / p.untraced_ns).collect();
    table.push(
        "trace.overhead_ratio",
        median(&mut ratios),
        "ratio",
        Source::Op,
    );
    table.push(
        "model_abs_err",
        kind.model_abs_err(&untraced),
        "abs",
        Source::Count,
    );

    let mut untraced_ms: Vec<f64> = pairs.iter().map(|p| p.untraced_ns / 1e6).collect();
    let mut traced_ms: Vec<f64> = pairs.iter().map(|p| p.traced_ns / 1e6).collect();
    table.notes.push(format!(
        "{} op pairs: untraced median {:.3} ms, traced median {:.3} ms (checks excluded)",
        pairs.len(),
        median(&mut untraced_ms),
        median(&mut traced_ms)
    ));
    if lanes_in_ops {
        table.notes.push(format!(
            "engine: lane 0 of every pass re-routed on the scalar engine after the op ({} requests)",
            counts.probe_offered
        ));
    }
    if kind == Kind::RaMasparPerm {
        table.notes.push(
            "engine: cycle_start..cycle_end of every pass inside the session, timed through \
             the Probe seam; batch validation and queue bookkeeping count as session"
                .to_string(),
        );
    }
    if probed {
        table.notes.push(format!(
            "engine: after each op, its cycles re-run as uniform batches at its mean rate on \
             RoutingEngine::route, same network and arbiter ({} requests)",
            counts.probe_offered
        ));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_check_accepts_real_outcomes_and_rejects_bad_ones() {
        let params = EdnParams::new(16, 4, 4, 2).unwrap();
        let mut engine = RoutingEngine::from_params(params);
        let mut arbiter = ArbiterKind::Priority.build(0);
        let mut check = BatchCheck::new(&params);
        let batch: Vec<RouteRequest> = (0..64)
            .map(|s| RouteRequest::new(s, (s * 7) % 64))
            .collect();
        check.expect_batch(&batch);
        let outcome = engine.route(&batch, &mut *arbiter).clone();
        assert_eq!(check.check(&outcome), Ok(()));

        // The same outcome checked against a batch with other tags fails.
        let shifted: Vec<RouteRequest> = batch
            .iter()
            .map(|r| RouteRequest::new(r.source, (r.tag + 1) % 64))
            .collect();
        check.expect_batch(&shifted);
        assert!(check.check(&outcome).is_err());

        // A batch of a different size fails the count check.
        check.expect_batch(&batch[..10]);
        assert!(check.check(&outcome).is_err());
    }

    #[test]
    fn lane_shape_walks_down_the_family() {
        let shape = lane_shape(Kind::Mc256k.params()).unwrap();
        assert_eq!(shape, EdnParams::new(16, 4, 4, 6).unwrap());
        assert_eq!(
            lane_shape(Kind::McMaspar.params()),
            Some(Kind::McMaspar.params())
        );
    }

    #[test]
    fn re_drives_reproduce_the_untraced_ops() {
        let scratch = std::env::temp_dir();
        for kind in [Kind::RaMasparPerm, Kind::MimdFig11, Kind::McMaspar] {
            let mut rec = Recorder::new();
            let mut checker = Checker::new();
            let mut runner = setup(kind, 9, &scratch, &mut checker);
            let mut t = Tracer {
                rec: &mut rec,
                checker: &mut checker,
                check: BatchCheck::new(&kind.params()),
                counts: Counts::default(),
            };
            let mut traced = Traced::new(kind, 9, &mut t);
            let mut probe = EngineProbe::new(kind);
            for index in 0..2 {
                let outcome = runner.op(index);
                assert_eq!(traced.op(index, &mut t), outcome, "{}", kind.name());
                if kind != Kind::McMaspar {
                    // The probe routes about as many requests as the op.
                    let routed = probe.route_like(&outcome, index, &mut t) as f64;
                    assert!((routed / outcome.offered as f64 - 1.0).abs() < 0.1);
                }
            }
            assert!(t.counts.probe_offered > 0);
            assert_eq!(checker.failed(), 0, "{:?}", checker.first_failure());
        }
    }
}
