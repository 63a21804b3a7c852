//! The four workloads: their shapes, set-up, op, invariants and model
//! reference.
//!
//! Every op is a closed loop step on one thread: the next op starts when
//! the previous one returns. An op's inputs derive only from the run's
//! seed and the op's index, so a run is reproducible op by op.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use edn_analytic::mimd::resubmission_fixed_point;
use edn_analytic::pa::probability_of_acceptance;
use edn_analytic::simd::RaEdnModel;
use edn_core::{Arbiter, CompiledWiring, EdnParams, NullProbe, Probe, RoutingEngine, SessionState};
use edn_fabric::Fabric;
use edn_sim::{
    estimate_pa_seeds, AcceptanceEstimate, ArbiterKind, MimdSystem, RaEdnSystem, ResubmitPolicy,
    Schedule,
};
use edn_traffic::Permutation;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::check::{Checker, Expect};
use crate::{is_checkpoint, replica_seed, Digest, PREFIX_OPS};

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `estimate_pa_seeds` on the MasPar router `EDN(64,16,4,2)`: 64 seeds
    /// (one lane set) × 8 cycles per op.
    McMaspar,
    /// `estimate_pa_seeds` on `EDN(16,4,4,8)` (2^18 ports): 1 seed × 1
    /// cycle per op, on the scalar engine.
    Mc256k,
    /// `RA-EDN(16,4,2,16)`: one random 16K-PE permutation drained to
    /// completion per op.
    RaMasparPerm,
    /// `MimdSystem` on `EDN(4,2,2,11)` at r = 0.5 with redraw
    /// resubmission: 20 cycles per op.
    MimdFig11,
}

impl Kind {
    /// Every workload, in benchmark order.
    pub const ALL: [Kind; 4] = [
        Kind::McMaspar,
        Kind::Mc256k,
        Kind::RaMasparPerm,
        Kind::MimdFig11,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::McMaspar => "mc_maspar",
            Kind::Mc256k => "mc_256k",
            Kind::RaMasparPerm => "ra_maspar_perm",
            Kind::MimdFig11 => "mimd_fig11",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Self::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// The network simulated.
    pub fn params(self) -> EdnParams {
        let shape = match self {
            Kind::McMaspar | Kind::RaMasparPerm => EdnParams::new(64, 16, 4, 2),
            Kind::Mc256k => EdnParams::new(16, 4, 4, 8),
            Kind::MimdFig11 => EdnParams::new(4, 2, 2, 11),
        };
        shape.expect("benchmark shapes are valid EDN parameters")
    }

    /// The bucket arbitration policy.
    pub fn arbiter(self) -> ArbiterKind {
        match self {
            Kind::McMaspar | Kind::Mc256k => ArbiterKind::Priority,
            Kind::RaMasparPerm | Kind::MimdFig11 => ArbiterKind::Random,
        }
    }

    /// The invariants every op must satisfy.
    pub fn expect(self) -> Expect {
        let (inputs, outputs) = (self.params().inputs(), self.params().outputs());
        match self {
            Kind::McMaspar | Kind::Mc256k => {
                let spec = McSpec::of(self);
                Expect {
                    // At r = 1 every input requests in every cycle.
                    offered: Some(spec.replicas * u64::from(spec.cycles) * inputs),
                    delivered: None,
                    cycles: (u64::from(spec.cycles), u64::from(spec.cycles)),
                    inputs: spec.replicas * inputs,
                    outputs: spec.replicas * outputs,
                }
            }
            // One submission per cluster (port) per cycle.
            Kind::RaMasparPerm => Expect {
                offered: None,
                delivered: Some(inputs * RA_Q),
                cycles: (RA_Q, ra_cycle_limit()),
                inputs,
                outputs,
            },
            // At most one request per processor per cycle.
            Kind::MimdFig11 => Expect {
                offered: None,
                delivered: None,
                cycles: (u64::from(MIMD_OP_CYCLES), u64::from(MIMD_OP_CYCLES)),
                inputs,
                outputs,
            },
        }
    }

    /// Ops the canary seed runs after a run at a seed without recorded
    /// digests: the deepest checkpoint that takes about two seconds.
    pub fn canary_ops(self) -> u64 {
        match self {
            Kind::McMaspar | Kind::MimdFig11 => 64,
            Kind::Mc256k => 16,
            Kind::RaMasparPerm => 256,
        }
    }

    /// Ops of each recorded seed in `golden.txt`: the last checkpoint
    /// recorded is the last power of two a 20 s run usually reaches.
    pub fn golden_depth(self) -> u64 {
        match self {
            Kind::McMaspar => 256,
            Kind::Mc256k => 64,
            Kind::RaMasparPerm => 2048,
            Kind::MimdFig11 => 512,
        }
    }

    /// The analytic value the simulation is compared with: Eq. 4 `PA(1)`
    /// for `mc_*`, the expected permutation time for `ra_maspar_perm`,
    /// the resubmission fixed point `PA'` for `mimd_fig11`.
    pub fn reference(self) -> f64 {
        let params = self.params();
        match self {
            Kind::McMaspar | Kind::Mc256k => probability_of_acceptance(&params, MC_RATE),
            Kind::RaMasparPerm => {
                RaEdnModel::from_params(params, RA_Q)
                    .expect("RA-EDN(16,4,2,16) is square with q > 0")
                    .expected_permutation_cycles()
                    .total_cycles
            }
            Kind::MimdFig11 => resubmission_fixed_point(&params, MIMD_RATE, 1e-12, 10_000).pa_prime,
        }
    }

    /// |simulated − [`Kind::reference`]| over the first [`PREFIX_OPS`]
    /// ops: acceptance (delivered ÷ offered) for `mc_*` and `mimd_fig11`,
    /// mean cycles per permutation for `ra_maspar_perm`.
    pub fn model_abs_err(self, prefix: &[OpOutcome]) -> f64 {
        let prefix = &prefix[..prefix.len().min(PREFIX_OPS)];
        let simulated = match self {
            Kind::RaMasparPerm => {
                prefix.iter().map(|o| o.cycles as f64).sum::<f64>() / prefix.len() as f64
            }
            _ => {
                let offered: u64 = prefix.iter().map(|o| o.offered).sum();
                let delivered: u64 = prefix.iter().map(|o| o.delivered).sum();
                delivered as f64 / offered as f64
            }
        };
        (simulated - self.reference()).abs()
    }
}

/// The simulated statistics of one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpOutcome {
    /// Routing requests offered to the network, resubmissions included.
    pub offered: u64,
    /// Requests delivered.
    pub delivered: u64,
    /// Simulated network cycles.
    pub cycles: u64,
    /// Digest of the per-item statistics (per-seed estimates, per-cycle
    /// deliveries, or the MIMD report's derived rates).
    pub detail: u64,
    /// Whether the per-item statistics agree with the totals.
    pub consistent: bool,
}

impl OpOutcome {
    /// The op's digest: every field above, folded.
    pub fn digest(&self) -> u64 {
        Digest::new()
            .word(self.offered)
            .word(self.delivered)
            .word(self.cycles)
            .word(self.detail)
            .value()
    }
}

/// One workload's set-up state; [`Runner::op`] runs one timed op.
pub trait Runner {
    /// Runs op `index` (ops run in index order from 0).
    fn op(&mut self, index: u64) -> OpOutcome;
}

/// Request rate of the Monte-Carlo workloads.
pub const MC_RATE: f64 = 1.0;

/// The Monte-Carlo op: `replicas` seeds × `cycles` cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McSpec {
    /// Simulated cycles per seed.
    pub cycles: u32,
    /// Seeds (replicas) per op.
    pub replicas: u64,
}

impl McSpec {
    /// The op of `mc_maspar` or `mc_256k`.
    ///
    /// # Panics
    ///
    /// Panics for the other workloads.
    pub fn of(kind: Kind) -> McSpec {
        match kind {
            Kind::McMaspar => McSpec {
                cycles: 8,
                replicas: 64,
            },
            Kind::Mc256k => McSpec {
                cycles: 1,
                replicas: 1,
            },
            _ => panic!("{} is not a Monte-Carlo workload", kind.name()),
        }
    }
}

/// Folds one op's per-seed estimates into an [`OpOutcome`].
pub fn mc_outcome(estimates: &[AcceptanceEstimate], cycles: u32) -> OpOutcome {
    let mut detail = Digest::new();
    let (mut offered, mut delivered) = (0u64, 0u64);
    let mut consistent = true;
    for e in estimates {
        detail = detail
            .word(e.offered)
            .word(e.delivered)
            .word(u64::from(e.cycles))
            .float(e.mean)
            .float(e.std_error);
        offered += e.offered;
        delivered += e.delivered;
        consistent &= e.cycles == cycles && e.mean == e.delivered as f64 / e.offered as f64;
    }
    OpOutcome {
        offered,
        delivered,
        cycles: u64::from(cycles),
        detail: detail.value(),
        consistent,
    }
}

struct McRunner {
    kind: Kind,
    params: EdnParams,
    spec: McSpec,
    seed: u64,
    seeds: Vec<u64>,
}

impl Runner for McRunner {
    fn op(&mut self, index: u64) -> OpOutcome {
        self.seeds.clear();
        let (seed, spec) = (self.seed, self.spec);
        self.seeds
            .extend((0..spec.replicas).map(|replica| replica_seed(seed, index, replica)));
        let estimates = estimate_pa_seeds(
            &self.params,
            MC_RATE,
            self.kind.arbiter(),
            spec.cycles,
            &self.seeds,
        );
        mc_outcome(&estimates, spec.cycles)
    }
}

/// Cluster size `q` of the RA-EDN workload.
pub const RA_Q: u64 = 16;

/// The arbiter-stream salt `RaEdnSystem` applies to its seed; the
/// benchmark's drain reproduces `RaEdnSystem::route_random_permutation`
/// exactly, which [`prepare`] checks.
const RA_ARBITER_SALT: u64 = 0x5EED_CAFE;

/// Safety bound on cycles per permutation, as `RaEdnSystem` sets it.
pub fn ra_cycle_limit() -> u64 {
    let total = Kind::RaMasparPerm.params().inputs() * RA_Q;
    (total * 64).max(1024)
}

/// Folds one drained permutation into an [`OpOutcome`].
pub fn ra_outcome(cycles: u64, offered: u64, delivered: u64, per_cycle: &[u64]) -> OpOutcome {
    let detail = per_cycle
        .iter()
        .fold(Digest::new(), |d, &count| d.word(count));
    OpOutcome {
        offered,
        delivered,
        cycles,
        detail: detail.value(),
        consistent: per_cycle.len() as u64 == cycles && per_cycle.iter().sum::<u64>() == delivered,
    }
}

/// `RaEdnSystem::route_random_permutation`, composed from the public
/// calls it makes (`Permutation::random`, then a random-schedule cluster
/// session run to completion, as `NetworkSim::run_cluster_session` runs
/// it) so that the session's offered count, resubmissions included, is
/// visible and a probe can observe its engine passes. [`prepare`]
/// checks the composition against `RaEdnSystem`.
pub struct RaRunner {
    engine: RoutingEngine,
    arbiter: Box<dyn Arbiter + Send>,
    rng: StdRng,
    state: SessionState,
}

impl RaRunner {
    /// The drain `RaEdnSystem::from_params(.., Random, seed)` runs.
    pub fn new(seed: u64) -> RaRunner {
        RaRunner {
            engine: RoutingEngine::from_params(Kind::RaMasparPerm.params()),
            arbiter: ArbiterKind::Random.build(seed ^ RA_ARBITER_SALT),
            rng: StdRng::seed_from_u64(seed),
            state: SessionState::new(),
        }
    }

    /// The `traffic` half of an op: the next random permutation of the
    /// `p·q` PEs.
    pub fn permutation(&mut self) -> Permutation {
        Permutation::random(self.engine.params().inputs() * RA_Q, &mut self.rng)
    }

    /// The `session` half of an op: drains `perm` to completion, with
    /// `probe` observing every engine pass.
    pub fn drain<P: Probe>(&mut self, perm: &Permutation, probe: &mut P) -> OpOutcome {
        let ports = self.engine.params().inputs();
        let total = ports * RA_Q;
        let cycles = self
            .engine
            .begin_cluster_session(
                &mut self.state,
                ports,
                (0..total).map(|pe| (pe / RA_Q, perm.apply(pe) / RA_Q)),
                Schedule::Random,
                &mut self.rng,
                &mut *self.arbiter,
            )
            .with_probe(probe)
            .run_to_completion(ra_cycle_limit());
        ra_outcome(
            cycles,
            self.state.offered(),
            self.state.delivered(),
            self.state.delivered_per_cycle(),
        )
    }
}

impl Runner for RaRunner {
    fn op(&mut self, _index: u64) -> OpOutcome {
        let perm = self.permutation();
        self.drain(&perm, &mut NullProbe)
    }
}

/// Fresh-request rate of the MIMD workload.
pub const MIMD_RATE: f64 = 0.5;
/// Unmeasured cycles run in set-up.
pub const MIMD_WARMUP: u32 = 150;
/// Measured cycles per op.
pub const MIMD_OP_CYCLES: u32 = 20;

/// Folds one `MimdSystem::run` report into an [`OpOutcome`]. `processors`
/// is the system's processor count.
pub fn mimd_outcome(report: &edn_sim::MimdReport, processors: u64) -> OpOutcome {
    let detail = Digest::new()
        .float(report.acceptance)
        .float(report.waiting_fraction)
        .float(report.effective_rate)
        .float(report.bandwidth)
        .float(report.acceptance_std_error);
    OpOutcome {
        offered: report.offered,
        delivered: report.delivered,
        cycles: u64::from(report.cycles),
        detail: detail.value(),
        consistent: report.acceptance == report.delivered as f64 / report.offered as f64
            && report.effective_rate
                == report.offered as f64 / (f64::from(report.cycles) * processors as f64)
            && report.bandwidth == report.delivered as f64 / f64::from(report.cycles)
            && (0.0..=1.0).contains(&report.waiting_fraction),
    }
}

/// The `mimd_fig11` system at `seed`, before its warm-up.
pub fn mimd_system(seed: u64) -> MimdSystem {
    MimdSystem::new(
        Kind::MimdFig11.params(),
        MIMD_RATE,
        ArbiterKind::Random,
        ResubmitPolicy::Redraw,
        seed,
    )
    .expect("r = 0.5 is a valid request rate")
}

struct MimdRunner {
    system: MimdSystem,
}

impl Runner for MimdRunner {
    fn op(&mut self, _index: u64) -> OpOutcome {
        let processors = self.system.processors();
        mimd_outcome(&self.system.run(0, MIMD_OP_CYCLES), processors)
    }
}

/// The fabric database directory the set-up resolves wiring from.
pub fn fabric_dir(scratch: &Path) -> PathBuf {
    scratch.join("fabric")
}

/// Compiles the wiring for `params`, saves it as the fabric database
/// entry in `dir` and checks that it loads back as compiled: what
/// `edn_fabric build` does once, before any shard starts.
///
/// # Errors
///
/// A description of the first step that failed.
fn build_fabric(params: EdnParams, dir: &Path) -> Result<(), String> {
    let compiled = CompiledWiring::compile_params(params).map_err(|e| e.to_string())?;
    let fabric = Fabric::from_wiring(Arc::new(compiled));
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = Fabric::path_in(dir, &params);
    fabric
        .save(&path)
        .map_err(|e| format!("saving {}: {e}", path.display()))?;
    let loaded = Fabric::load(&path).map_err(|e| format!("loading {}: {e}", path.display()))?;
    if loaded.params() != &params || loaded.wiring().lut() != fabric.wiring().lut() {
        return Err(format!("fabric for {params} did not load back as saved"));
    }
    Ok(())
}

/// Resolves the wiring for `params` the way a sweep shard with a fabric
/// database does at start (`edn_sweep::fabric::wiring_for`): load the
/// database entry when `dir` has one, compile otherwise.
///
/// # Errors
///
/// The database entry is invalid.
fn resolve_wiring(params: EdnParams, dir: &Path) -> Result<Arc<CompiledWiring>, String> {
    match Fabric::load_from_dir(dir, &params) {
        Some(Ok(fabric)) => Ok(fabric.into_wiring()),
        Some(Err(e)) => Err(format!("fabric database entry for {params}: {e}")),
        None => CompiledWiring::compile_params(params)
            .map(Arc::new)
            .map_err(|e| e.to_string()),
    }
}

/// The untimed, once-per-process part of set-up, with its checks
/// (recorded in `checker`): `mc_256k` builds its fabric database entry
/// in `scratch`; `ra_maspar_perm` checks that its composed drain is
/// `RaEdnSystem::route_random_permutation`.
pub fn prepare(kind: Kind, seed: u64, scratch: &Path, checker: &mut Checker) {
    match kind {
        Kind::Mc256k => checker.require(build_fabric(kind.params(), &fabric_dir(scratch))),
        Kind::RaMasparPerm => {
            let mut system =
                RaEdnSystem::from_params(kind.params(), RA_Q, ArbiterKind::Random, seed)
                    .expect("RA-EDN(16,4,2,16) is square with q > 0");
            let reference = system.route_random_permutation();
            let ours = RaRunner::new(seed).op(0);
            let expected = ra_outcome(
                u64::from(reference.cycles),
                ours.offered,
                reference.total_messages,
                &reference.delivered_per_cycle,
            );
            checker.require(if ours == expected {
                Ok(())
            } else {
                Err("composed drain differs from RaEdnSystem::route_random_permutation".into())
            });
        }
        Kind::McMaspar | Kind::MimdFig11 => {}
    }
}

/// Sets up `kind` for seed `seed`: resolves the wiring (`mc_256k`, from
/// the database [`prepare`] built in `scratch`), builds the system and
/// runs the warm-up. This is the part `setup_s` times; a failed check
/// is recorded in `checker`.
pub fn setup(kind: Kind, seed: u64, scratch: &Path, checker: &mut Checker) -> Box<dyn Runner> {
    match kind {
        Kind::McMaspar | Kind::Mc256k => {
            let params = kind.params();
            if kind == Kind::Mc256k {
                // The ops build their own simulators, as estimate_pa_seeds
                // does; the resolved wiring is the shard's start-up cost.
                checker.require(resolve_wiring(params, &fabric_dir(scratch)).map(drop));
            }
            let mut runner = McRunner {
                kind,
                params,
                spec: McSpec::of(kind),
                seed,
                seeds: Vec::new(),
            };
            // Warm-up at an index no timed op uses.
            runner.op(u64::MAX);
            Box::new(runner)
        }
        Kind::RaMasparPerm => {
            let mut runner = RaRunner::new(seed);
            // Two warm-up permutations; the timed ops continue the stream.
            runner.op(0);
            runner.op(1);
            Box::new(runner)
        }
        Kind::MimdFig11 => {
            let mut system = mimd_system(seed);
            system.run(MIMD_WARMUP, 0);
            Box::new(MimdRunner { system })
        }
    }
}

/// The op counts at which `golden.txt` records a rolling digest for
/// `kind`: every checkpoint up to [`Kind::golden_depth`].
pub fn golden_checkpoints(kind: Kind) -> impl Iterator<Item = u64> {
    (1..=kind.golden_depth()).filter(|&n| is_checkpoint(n))
}

/// The recorded `(op count, rolling digest)` checkpoints of `kind` at
/// `seed`, if `golden.txt` has them.
pub fn recorded_checkpoints(kind: Kind, seed: u64) -> Option<Vec<(u64, u64)>> {
    parse_golden(include_str!("../golden.txt"), kind, seed)
}

/// Looks `kind` and `seed` up in golden-file text: one line per
/// workload and seed, `name seed count:digest...` with hex digests.
pub fn parse_golden(text: &str, kind: Kind, seed: u64) -> Option<Vec<(u64, u64)>> {
    text.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        if fields.next()? != kind.name() || fields.next()?.parse::<u64>().ok()? != seed {
            return None;
        }
        fields
            .map(|field| {
                let (count, hex) = field.split_once(':')?;
                Some((count.parse().ok()?, u64::from_str_radix(hex, 16).ok()?))
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("route_1m"), None);
    }

    #[test]
    fn shapes_match_the_workload_definitions() {
        assert_eq!(Kind::McMaspar.params().inputs(), 1024);
        assert_eq!(Kind::Mc256k.params().inputs(), 1 << 18);
        assert_eq!(Kind::MimdFig11.params().inputs(), 4096);
        assert_eq!(
            Kind::RaMasparPerm.params(),
            EdnParams::ra_edn(16, 4, 2).unwrap()
        );
        assert!(edn_core::LaneEngine::supports(&Kind::McMaspar.params()));
        assert!(!edn_core::LaneEngine::supports(&Kind::Mc256k.params()));
    }

    #[test]
    fn reference_values_are_the_papers() {
        assert!((Kind::RaMasparPerm.reference() - 34.41).abs() < 0.05);
        assert!((Kind::McMaspar.reference() - 0.544).abs() < 0.005);
    }

    #[test]
    fn golden_lines_parse() {
        let text = "mc_maspar 3 1:0a 16:ff\nmc_256k 3 1:01\n";
        assert_eq!(
            parse_golden(text, Kind::McMaspar, 3),
            Some(vec![(1, 10), (16, 255)])
        );
        assert_eq!(parse_golden(text, Kind::Mc256k, 3), Some(vec![(1, 1)]));
        assert_eq!(parse_golden(text, Kind::McMaspar, 4), None);
        assert_eq!(parse_golden("mc_maspar 3 1:zz\n", Kind::McMaspar, 3), None);
        assert_eq!(parse_golden("mc_maspar 3 0a\n", Kind::McMaspar, 3), None);
    }

    #[test]
    fn ops_repeat_exactly_per_seed() {
        let scratch = std::env::temp_dir();
        for kind in [Kind::McMaspar, Kind::RaMasparPerm] {
            let mut checker = Checker::new();
            prepare(kind, 5, &scratch, &mut checker);
            let mut a = setup(kind, 5, &scratch, &mut checker);
            let mut b = setup(kind, 5, &scratch, &mut checker);
            assert_eq!(checker.failed(), 0, "{:?}", checker.first_failure());
            for index in 2..4 {
                let (x, y) = (a.op(index), b.op(index));
                assert_eq!(x, y, "{}", kind.name());
                assert_eq!(crate::check::verify(&x, &kind.expect(), None), Ok(()));
            }
        }
    }
}
