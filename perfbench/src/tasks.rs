//! `async_tasks`: dummy MPIX_Async tasks on one stream, the paper's
//! Figure 7 measure. No world, no transport: only core's task sweep runs.
//!
//! Every round runs three phases:
//!
//! 1. an open loop of 1024 pending tasks for [`SLICE_S`]: each task is
//!    due at a time drawn from the seeded generator and, when a poll
//!    observes it due, completes and spawns its replacement
//!    (`MPIX_Async_spawn`), due one seeded gap after the old due time.
//!    The schedule never waits for the program, so a slow sweep shows as
//!    lateness. Gives `lat_us` (observed minus due) and `bulk_us` (the
//!    time of one progress call over the 1024 tasks);
//! 2. the same open loop with 32 pending tasks (`alt_lat_us`), the
//!    paper's "fewer than 32 tasks" point;
//! 3. batches of 64 tasks due at once, started and driven to completion
//!    (`rate_kops`).
//!
//! One operation is one task completion.

use std::sync::{Arc, Mutex};

use mpfa_core::{wtime, AsyncPoll, AsyncTask, AsyncThing, Stream};

use crate::gen;
use crate::harness::{self, Acc, Fail, Outcome, Samples, Workload, OP_DEADLINE_S};

const PH_OPEN: u64 = 1;
const PH_OPEN_SMALL: u64 = 2;
const PH_BATCH: u64 = 3;

const PENDING: usize = 1024;
const PENDING_SMALL: usize = 32;
/// Mean gap between a slot's consecutive due times; gaps are uniform in
/// [0.5, 1.5] × this, so 1024 slots make about 100k events/s.
const MEAN_GAP_S: f64 = 0.010;
/// Length of one open-loop slice. Slots stop spawning replacements due
/// past its end, so the population thins only in its last 1.5 mean gaps,
/// and only tasks due before that are sampled.
const SLICE_S: f64 = 0.040;
const BATCH: usize = 64;
const BATCHES: usize = 16;
/// `rate_kops` samples per round.
const BATCH_SAMPLES: usize = 8;

/// One observed completion.
#[derive(Debug, Clone, Copy)]
struct Seen {
    slot: u32,
    gen: u32,
    due: f64,
    at: f64,
}

type Log = Arc<Mutex<Vec<Seen>>>;

/// The gap before generation `gen` of `slot` in `phase`.
fn gap(seed: u64, phase: u64, slot: u32, gen: u32) -> f64 {
    let u = (gen::key(seed, phase, ((slot as u64) << 32) | gen as u64) >> 11) as f64
        / (1u64 << 53) as f64;
    MEAN_GAP_S * (0.5 + u)
}

/// The paper's dummy timed task (Listing 1.2): done once the clock
/// passes its due time.
struct Dummy {
    seed: u64,
    phase: u64,
    slot: u32,
    gen: u32,
    due: f64,
    /// No replacement is spawned due at or after this time.
    end: f64,
    log: Log,
}

impl AsyncTask for Dummy {
    fn poll(&mut self, thing: &mut AsyncThing) -> AsyncPoll {
        let at = wtime();
        if at < self.due {
            return AsyncPoll::Pending;
        }
        self.log.lock().expect("log holder panicked").push(Seen {
            slot: self.slot,
            gen: self.gen,
            due: self.due,
            at,
        });
        let due = self.due + gap(self.seed, self.phase, self.slot, self.gen + 1);
        if due < self.end {
            thing.spawn_task(Dummy {
                gen: self.gen + 1,
                due,
                log: self.log.clone(),
                ..*self
            });
        }
        AsyncPoll::Done
    }
}

struct Tasks {
    seed: u64,
    acc: Acc,
}

impl Workload for Tasks {
    type World = Stream;
    const PHASES: [&'static str; 4] = [
        "progress latency, 1024 pending",
        "progress latency, 32 pending",
        "task in a batch of 64",
        "progress call over 1024 pending",
    ];
    const WARMUP_ROUNDS: usize = 1;

    fn boot(&mut self) -> Result<Stream, Fail> {
        Ok(Stream::create())
    }

    fn round(&mut self, stream: &mut Stream, s: &mut Samples) -> Result<(), Fail> {
        let [lat, alt, rate, bulk] = s;
        self.open_loop(stream, PH_OPEN, PENDING, lat, Some(bulk))?;
        self.open_loop(stream, PH_OPEN_SMALL, PENDING_SMALL, alt, None)?;
        for _ in 0..BATCH_SAMPLES {
            rate.push(self.batches(stream)?);
        }
        Ok(())
    }

    fn acc(&mut self) -> &mut Acc {
        &mut self.acc
    }
}

impl Tasks {
    /// Check a slice's log: every slot's generations 0..=last appear
    /// exactly once each, at the regenerated due times, none observed
    /// before it was due.
    fn check(&mut self, phase: u64, pending: usize, t0: f64, end: f64, log: &mut [Seen]) {
        log.sort_by_key(|s| (s.slot, s.gen));
        let mut i = 0;
        for slot in 0..pending as u32 {
            let mut due = t0 + gap(self.seed, phase, slot, 0);
            let mut gen = 0;
            while due < end {
                let ok = log.get(i).is_some_and(|s| {
                    s.slot == slot && s.gen == gen && s.due == due && s.at >= s.due
                });
                if !ok {
                    self.acc.errors.push(format!(
                        "phase {phase}: task {slot}/{gen} did not complete exactly once, \
                         on or after its due time"
                    ));
                    return;
                }
                i += 1;
                gen += 1;
                due += gap(self.seed, phase, slot, gen);
            }
        }
        if i != log.len() {
            self.acc.errors.push(format!(
                "phase {phase}: {} unexpected completions",
                log.len() - i
            ));
        }
    }

    /// One open-loop slice with `pending` tasks. Latencies (and, when
    /// `sweeps` is given, progress-call times) are sampled only while
    /// the population is whole.
    fn open_loop(
        &mut self,
        stream: &Stream,
        phase: u64,
        pending: usize,
        lat: &mut Vec<f64>,
        mut sweeps: Option<&mut Vec<f64>>,
    ) -> Result<(), Fail> {
        let log: Log = Arc::new(Mutex::new(Vec::with_capacity(8 * pending)));
        let t0 = wtime();
        let end = t0 + SLICE_S;
        let whole_until = end - 1.5 * MEAN_GAP_S;
        for slot in 0..pending as u32 {
            stream.async_start_task(Dummy {
                seed: self.seed,
                phase,
                slot,
                gen: 0,
                due: t0 + gap(self.seed, phase, slot, 0),
                end,
                log: log.clone(),
            });
        }
        while stream.pending_tasks() > 0 {
            let before = wtime();
            harness::progress(stream);
            let now = wtime();
            if now < whole_until {
                if let Some(s) = sweeps.as_deref_mut() {
                    s.push(now - before);
                }
            }
            if now > end + OP_DEADLINE_S {
                return Err(Fail(format!("phase {phase}: tasks still pending")));
            }
        }
        let dt = wtime() - t0;
        let mut seen = std::mem::take(&mut *log.lock().expect("log holder panicked"));
        lat.extend(
            seen.iter()
                .filter(|s| s.due < whole_until)
                .map(|s| s.at - s.due),
        );
        self.acc.sample(seen.len(), 0, dt);
        self.check(phase, pending, t0, end, &mut seen);
        Ok(())
    }

    /// `BATCHES` batches of `BATCH` tasks that are due when started.
    /// Returns seconds per task.
    fn batches(&mut self, stream: &Stream) -> Result<f64, Fail> {
        let log: Log = Arc::new(Mutex::new(Vec::with_capacity(BATCH * BATCHES)));
        let t0 = wtime();
        for batch in 0..BATCHES as u32 {
            let due = wtime();
            for slot in 0..BATCH as u32 {
                stream.async_start_task(Dummy {
                    seed: self.seed,
                    phase: PH_BATCH,
                    slot,
                    gen: batch,
                    due,
                    end: due,
                    log: log.clone(),
                });
            }
            harness::drive(
                "task batch",
                || stream.pending_tasks() == 0,
                || harness::progress(stream),
            )?;
        }
        let dt = wtime() - t0;
        let mut seen = std::mem::take(&mut *log.lock().expect("log holder panicked"));
        seen.sort_by_key(|s| (s.slot, s.gen));
        let exactly_once = seen.len() == BATCH * BATCHES
            && seen.iter().enumerate().all(|(i, s)| {
                s.slot as usize == i / BATCHES && s.gen as usize == i % BATCHES && s.at >= s.due
            });
        if !exactly_once {
            self.acc
                .errors
                .push("task batches: a task did not complete exactly once".to_string());
        }
        self.acc.sample(seen.len(), 0, dt);
        Ok(dt / (BATCH * BATCHES) as f64)
    }
}

/// Run the `async_tasks` workload for `seconds`.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut w = Tasks {
        seed,
        acc: Acc::default(),
    };
    let phases = [PH_OPEN, PH_OPEN_SMALL, PH_BATCH];
    harness::run(&mut w, seconds, &phases, seed)
}
