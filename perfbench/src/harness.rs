//! The harness: every rank of a world lives in this process and is
//! progressed round-robin from the calling thread (the `coop` method of
//! the `fig13` bench), so on a small host the numbers measure the runtime
//! and not the OS scheduler. The only other threads are the transport's
//! own reactor threads.

use mpfa_core::{wtime, Stream};
use mpfa_mpi::wire::WireMsg;
use mpfa_mpi::{Comm, MpiError, Proc, World, WorldConfig};
use mpfa_obs::CounterSnapshot;
use mpfa_transport::{loopback_mesh, TransportKind, WireOpts};

use crate::gen;
use crate::trace::{self, Layer, TimedPort};

/// Longest any single operation may take before it counts as wedged.
pub const OP_DEADLINE_S: f64 = 5.0;

/// An operation that failed: it did not complete within
/// [`OP_DEADLINE_S`], or the program refused it. It is counted as failed
/// and ends the run.
#[derive(Debug)]
pub struct Fail(pub String);

impl From<MpiError> for Fail {
    fn from(e: MpiError) -> Fail {
        Fail(format!("the program refused an operation: {e}"))
    }
}

/// What a run hands back to `main`.
pub struct Outcome {
    /// Operations attempted in timed rounds.
    pub attempted: u64,
    /// Operations that failed (at most one: a failure ends the run).
    pub failed: u64,
    /// Output-check failures, each described.
    pub errors: Vec<String>,
    /// End-to-end metrics: (name, unit, value).
    pub e2e: Vec<(&'static str, &'static str, f64)>,
    /// What the per-layer metrics are normalised by.
    pub norm: Norm,
    /// Counter movement over the timed rounds.
    pub counters: Deltas,
    /// Summed duration of every timed sample, seconds.
    pub timed_s: f64,
    /// Digest of the seeded inputs (shows a seed's effect).
    pub input_digest: u64,
}

/// Denominators for the per-layer metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Norm {
    /// Operations (the unit of `attempted`).
    pub ops: u64,
    /// User payload bytes moved by those operations.
    pub payload_bytes: u64,
    /// Allreduces among them.
    pub allreduces: u64,
    /// Persistent re-fires (`start` on a send descriptor).
    pub persist_sends: u64,
}

/// Accounting a workload keeps across the worlds of one run.
#[derive(Debug, Default)]
pub struct Acc {
    /// Denominators of the timed rounds.
    pub norm: Norm,
    /// Output-check failures, warm-up included.
    pub errors: Vec<String>,
    /// Summed duration of the timed samples, seconds.
    pub timed_s: f64,
}

impl Acc {
    /// Count one timed sample of `ops` operations moving `bytes` payload
    /// bytes in `dt` seconds.
    pub fn sample(&mut self, ops: usize, bytes: usize, dt: f64) {
        self.norm.ops += ops as u64;
        self.norm.payload_bytes += bytes as u64;
        self.timed_s += dt;
    }
}

/// The samples of a workload's four phases, seconds per operation: the
/// small operation (`lat_us`), the same operation on the paper's
/// alternative path (`alt_lat_us`), an operation with many in flight
/// (`rate_kops`) and the bulk operation (`bulk_us`).
pub type Samples = [Vec<f64>; 4];

/// Indices into [`Samples`].
pub const LAT: usize = 0;
pub const ALT: usize = 1;
pub const RATE: usize = 2;
pub const BULK: usize = 3;

/// A workload: boots worlds and runs rounds of its phases on them, each
/// phase at least one timed sample per round.
pub trait Workload {
    /// One booted world.
    type World;
    /// What each phase's samples time, for the human-readable lines.
    const PHASES: [&'static str; 4];
    /// Rounds run after each boot before timing starts.
    const WARMUP_ROUNDS: usize;
    /// Boot a world.
    fn boot(&mut self) -> Result<Self::World, Fail>;
    /// One round of every phase on `world`.
    fn round(&mut self, world: &mut Self::World, s: &mut Samples) -> Result<(), Fail>;
    /// The run's accounting.
    fn acc(&mut self) -> &mut Acc;
}

/// The obs counters the per-layer metrics read, as movement over the
/// timed rounds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Deltas {
    pub msgs: u64,
    pub bytes: u64,
    pub match_probes: u64,
    pub unexpected: u64,
    pub rndv: u64,
    pub persist_refires: u64,
    pub task_polls: u64,
    pub engine_lock_contended: u64,
    pub wire_syscalls: u64,
    pub wire_syscalls_saved: u64,
    pub reactor_wakeups: u64,
    pub bytes_copied: u64,
    pub shm_ring_full: u64,
}

impl Deltas {
    fn add(&mut self, a: &CounterSnapshot, b: &CounterSnapshot) {
        let d = |x: u64, y: u64| y.saturating_sub(x);
        self.msgs += d(a.msgs_net + a.msgs_shm, b.msgs_net + b.msgs_shm);
        self.bytes += d(a.bytes_net + a.bytes_shm, b.bytes_net + b.bytes_shm);
        self.match_probes += d(
            a.match_bucket_hits + a.match_wildcard_hits,
            b.match_bucket_hits + b.match_wildcard_hits,
        );
        self.unexpected += d(a.unexpected_msgs, b.unexpected_msgs);
        self.rndv += d(a.rndv_started, b.rndv_started);
        self.persist_refires += d(a.persist_refires, b.persist_refires);
        self.task_polls += d(a.task_polls, b.task_polls);
        self.engine_lock_contended += d(a.engine_lock_contended, b.engine_lock_contended);
        self.wire_syscalls += d(a.wire_syscalls, b.wire_syscalls);
        self.wire_syscalls_saved += d(a.wire_syscalls_saved, b.wire_syscalls_saved);
        self.reactor_wakeups += d(a.reactor_wakeups, b.reactor_wakeups);
        self.bytes_copied += d(a.bytes_copied, b.bytes_copied);
        self.shm_ring_full += d(a.shm_ring_full, b.shm_ring_full);
    }
}

/// Worlds booted per run, each timed for an equal share of the run.
pub const WORLDS: usize = 24;

/// The host speed the figures are scaled to: how long [`calibration`]
/// takes on the reference host (see the README) when nothing else loads
/// it.
const CALIBRATION_REF_S: f64 = 140e-6;

/// A fixed piece of CPU work of the runtime's own kind (hashing, small
/// map and vector updates, branches, all in cache), timed after every
/// round. On a shared host a world runs a third or more slower while a
/// neighbour loads the core, and the phases slow by about the factor this
/// loop slows by; dividing by it leaves what the code costs.
#[inline(never)]
fn calibration() {
    use std::collections::HashMap;
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(256);
    let mut stack: Vec<u64> = Vec::with_capacity(256);
    let mut x = 1u64;
    for i in 0..4000u64 {
        x = gen::mix(x ^ i);
        *map.entry(x & 255).or_insert(0) += x;
        if x & 1 == 0 {
            stack.push(x);
        } else {
            stack.pop();
        }
        if map.len() > 200 {
            map.retain(|_, v| *v & 3 != 0);
        }
    }
    std::hint::black_box((&map, &stack));
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Run `w` for `seconds`: [`WORLDS`] times boot a world, warm it up,
/// and run whole rounds on it for its share of the time, timing
/// [`calibration`] after each round.
///
/// A phase's figure is the mean, over the half of the worlds whose
/// calibration ran fastest, of the world's median sample scaled by
/// [`CALIBRATION_REF_S`] over the world's median calibration time: the
/// host's speed drifts from world to world and run to run, and pooling
/// many scaled worlds leaves a figure that moves with the code. Set-up
/// (boot plus warm-up) is timed per world, unscaled, and `setup_s` is
/// the median. Counters and spans cover timed rounds only. A failed
/// operation ends the run.
pub fn run<W: Workload>(w: &mut W, seconds: f64, digest_phases: &[u64], seed: u64) -> Outcome {
    let mut pooled: Samples = Default::default();
    // (median calibration time, scaled median of each phase) per world.
    let mut worlds: Vec<(f64, [f64; 4])> = Vec::with_capacity(WORLDS);
    let mut setups = Vec::with_capacity(WORLDS);
    let mut counters = Deltas::default();
    let mut failed = 0;
    for _ in 0..WORLDS {
        let t0 = wtime();
        let mut samples = Samples::default();
        let mut cal = Vec::new();
        let epoch = w.boot().and_then(|mut world| {
            let (norm, timed_s) = (w.acc().norm, w.acc().timed_s);
            for _ in 0..W::WARMUP_ROUNDS {
                w.round(&mut world, &mut Samples::default())?;
            }
            (w.acc().norm, w.acc().timed_s) = (norm, timed_s);
            setups.push(wtime() - t0);
            let c0 = mpfa_obs::global_counters().snapshot();
            let end = wtime() + seconds / WORLDS as f64;
            let mut res = Ok(());
            while res.is_ok() && wtime() < end {
                trace::record(true);
                res = w.round(&mut world, &mut samples);
                trace::record(false);
                let t = wtime();
                calibration();
                cal.push(wtime() - t);
            }
            counters.add(&c0, &mpfa_obs::global_counters().snapshot());
            res
        });
        if samples.iter().all(|v| !v.is_empty()) {
            let cal = median(&mut cal);
            let speed = CALIBRATION_REF_S / cal;
            let scaled = [0, 1, 2, 3].map(|i| median(&mut samples[i]) * speed);
            worlds.push((cal, scaled));
            for (all, v) in pooled.iter_mut().zip(samples.iter_mut()) {
                all.append(v);
            }
        }
        if let Err(Fail(e)) = epoch {
            eprintln!("perfbench: {e}; ending the run");
            failed = 1;
            break;
        }
    }
    // The quieter half of the worlds: scaling corrects for a loaded
    // host, but not all of the time a wire round trip spends in the
    // kernel slows with the core, so the figures lean on the worlds that
    // needed the least correction.
    worlds.sort_by(|a, b| a.0.total_cmp(&b.0));
    let quiet = &worlds[..worlds.len().div_ceil(2)];
    let fig = |i: usize| mean(&quiet.iter().map(|w| w.1[i]).collect::<Vec<_>>());
    println!(
        "calibration loop: median {:.1} us over {} worlds, quieter half {:.1} us (reference {:.1} us)",
        worlds.get(worlds.len() / 2).map_or(0.0, |w| w.0) * 1e6,
        worlds.len(),
        mean(&quiet.iter().map(|w| w.0).collect::<Vec<_>>()) * 1e6,
        CALIBRATION_REF_S * 1e6,
    );
    for (i, name) in W::PHASES.iter().enumerate() {
        println!(
            "{}; scaled figure {:.4} us",
            describe(
                name,
                "us",
                &mut pooled[i].iter().map(|x| x * 1e6).collect::<Vec<_>>()
            ),
            fig(i) * 1e6
        );
    }
    let acc = std::mem::take(w.acc());
    Outcome {
        attempted: acc.norm.ops + failed,
        failed,
        errors: acc.errors,
        e2e: vec![
            ("setup_s", "s", median(&mut setups)),
            ("lat_us", "us", fig(LAT) * 1e6),
            ("alt_lat_us", "us", fig(ALT) * 1e6),
            ("rate_kops", "kop/s", ratio(1e-3, fig(RATE))),
            ("bulk_us", "us", fig(BULK) * 1e6),
        ],
        norm: acc.norm,
        counters,
        timed_s: acc.timed_s,
        input_digest: digest(seed, digest_phases),
    }
}

/// `x / d`, or 0 when `d` is 0.
pub fn ratio(x: f64, d: f64) -> f64 {
    if d == 0.0 {
        0.0
    } else {
        x / d
    }
}

/// One world whose ranks the benchmark thread progresses.
pub struct Ranks {
    procs: Vec<Proc>,
    /// One world communicator per rank.
    pub comms: Vec<Comm>,
}

impl Ranks {
    /// Boot `ranks` ranks over an in-process mesh of `kind`, each rank on
    /// its own port (wrapped in a [`TimedPort`] when tracing).
    pub fn boot(kind: TransportKind, ranks: usize) -> Ranks {
        let cfg = WorldConfig {
            transport: kind,
            ..WorldConfig::instant(ranks)
        };
        let ports = loopback_mesh::<WireMsg>(kind, ranks, cfg.max_vcis, WireOpts::default())
            .expect("in-process mesh comes up");
        let procs: Vec<Proc> = ports
            .into_iter()
            .enumerate()
            .map(|(rank, port)| {
                let port = if trace::traced() {
                    TimedPort::wrap(port)
                } else {
                    port
                };
                World::init_with_transport(cfg.clone(), rank, port)
            })
            .collect();
        let comms = procs.iter().map(Proc::world_comm).collect();
        Ranks { procs, comms }
    }

    /// One progress call on every rank's default stream.
    #[inline]
    pub fn poll_all(&self) {
        for p in &self.procs {
            progress(p.default_stream());
        }
    }

    /// Progress every rank until `done` holds.
    pub fn wait(&self, what: &'static str, done: impl FnMut() -> bool) -> Result<(), Fail> {
        drive(what, done, || self.poll_all())
    }
}

/// One traced `Stream::progress` call.
#[inline]
pub fn progress(stream: &Stream) {
    let out = trace::span(Layer::Progress, || stream.progress());
    trace::note_sweep(out.made_progress());
}

/// Call `step` until `done` holds, or fail once [`OP_DEADLINE_S`] passes.
pub fn drive(
    what: &'static str,
    mut done: impl FnMut() -> bool,
    mut step: impl FnMut(),
) -> Result<(), Fail> {
    if done() {
        return Ok(());
    }
    let deadline = wtime() + OP_DEADLINE_S;
    let mut spins = 0u32;
    loop {
        step();
        if done() {
            return Ok(());
        }
        spins = spins.wrapping_add(1);
        if spins.is_multiple_of(64) && wtime() > deadline {
            return Err(Fail(format!("{what} wedged for {OP_DEADLINE_S} s")));
        }
    }
}

/// Median of `v` (sorted in place); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The value at quantile `q` of sorted `v` (nearest rank); 0 when empty.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let i = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[i]
}

/// A human-readable line for one sample set: median and the highest
/// percentile that has at least ten samples beyond it.
pub fn describe(name: &str, unit: &str, v: &mut [f64]) -> String {
    let med = median(v);
    let n = v.len();
    let tail = [0.999, 0.99, 0.9]
        .into_iter()
        .find(|q| (n as f64) * (1.0 - q) >= 10.0);
    match tail {
        Some(q) => format!(
            "{name}: median {med:.4} {unit}, p{} {:.4} {unit} ({n} samples)",
            q * 100.0,
            quantile(v, q)
        ),
        None => format!("{name}: median {med:.4} {unit} ({n} samples)"),
    }
}

/// A digest of the seeded inputs of the first iterations of each phase:
/// every payload byte, value and due time derives from these keys.
pub fn digest(seed: u64, phases: &[u64]) -> u64 {
    phases.iter().fold(0, |acc, &ph| {
        (0..16).fold(acc, |a, i| gen::mix(a ^ gen::key(seed, ph, i)))
    })
}
