//! `allreduce`: eight ranks on the simulated fabric with zero wire cost,
//! built over ports the benchmark hands in. Every round runs four phases:
//!
//! 1. native `iallreduce` of one i32, 16 in a row;
//! 2. the user-level `my_iallreduce` (Listing 1.8) of one i32, 16 in a row;
//! 3. 16 native one-i32 `iallreduce`s in flight at once;
//! 4. native `iallreduce` of 8192 u64 (64 KiB), twice in a row.
//!
//! One operation is one whole-world allreduce.

use mpfa_core::wtime;
use mpfa_interop::user_coll::my_iallreduce;
use mpfa_mpi::{CollFuture, Op};
use mpfa_transport::TransportKind;

use crate::gen;
use crate::harness::{self, Acc, Fail, Outcome, Ranks, Samples, Workload, ALT, BULK, LAT, RATE};
use crate::trace::{span, Layer};

const RANKS: usize = 8;
const PH_NATIVE: u64 = 1;
const PH_USER: u64 = 2;
const PH_CONCURRENT: u64 = 3;
const PH_BIG: u64 = 4;
/// Allreduces per sample in phases 1-3, and in phase 4.
const PER_SAMPLE: usize = 16;
const BIG_PER_SAMPLE: usize = 2;
const BIG_LEN: usize = 8192;

struct Allreduce {
    seed: u64,
    /// Next iteration index per phase, carried across worlds.
    next: [u64; 5],
    acc: Acc,
}
/// Rank `r`'s one-i32 contribution to iteration `iter` of `phase`: 24
/// bits, so the eight-rank sum cannot overflow.
fn small_value(seed: u64, phase: u64, iter: u64, r: usize) -> i32 {
    (gen::mix(gen::key(seed, phase, iter) ^ r as u64) & 0xFF_FFFF) as i32
}

/// Rank `r`'s 64 KiB contribution: 40-bit words, so the sum cannot wrap.
fn big_values(seed: u64, iter: u64, r: usize) -> Vec<u64> {
    let k = gen::mix(gen::key(seed, PH_BIG, iter) ^ r as u64);
    (0..BIG_LEN as u64).map(|i| gen::mix(k ^ i) >> 24).collect()
}

fn all_complete<T>(futs: &[CollFuture<T>], from: &mut usize) -> bool {
    while *from < futs.len() && futs[*from].is_complete() {
        *from += 1;
    }
    *from == futs.len()
}

impl Workload for Allreduce {
    type World = Ranks;
    const PHASES: [&'static str; 4] = [
        "one-i32 native allreduce",
        "one-i32 user-level allreduce",
        "one-i32 allreduce, 16 in flight",
        "64 KiB native allreduce",
    ];
    const WARMUP_ROUNDS: usize = 8;

    fn boot(&mut self) -> Result<Ranks, Fail> {
        Ok(Ranks::boot(TransportKind::Sim, RANKS))
    }

    fn round(&mut self, w: &mut Ranks, s: &mut Samples) -> Result<(), Fail> {
        s[LAT].push(self.sequential(w, PH_NATIVE, PER_SAMPLE)?);
        s[ALT].push(self.sequential(w, PH_USER, PER_SAMPLE)?);
        s[RATE].push(self.concurrent(w, PER_SAMPLE)?);
        s[BULK].push(self.big(w, BIG_PER_SAMPLE)?);
        Ok(())
    }

    fn acc(&mut self) -> &mut Acc {
        &mut self.acc
    }
}

impl Allreduce {
    fn take_iters(&mut self, phase: u64, n: usize) -> u64 {
        let base = self.next[phase as usize];
        self.next[phase as usize] += n as u64;
        base
    }

    /// Expected one-i32 sums of `n` iterations from `base`, checked
    /// against every rank's result (`got[iter][rank]`).
    fn check_small(&mut self, phase: u64, base: u64, got: &[Vec<i32>], what: &str) {
        for (i, per_rank) in got.iter().enumerate() {
            let iter = base + i as u64;
            let want: i32 = (0..RANKS)
                .map(|r| small_value(self.seed, phase, iter, r))
                .sum();
            if let Some(r) = per_rank.iter().position(|&v| v != want) {
                self.acc.errors.push(format!(
                    "{what} {iter}: rank {r} got {} where the sum over ranks is {want}",
                    per_rank[r]
                ));
                return;
            }
        }
    }

    fn account(&mut self, n: usize, bytes_per_rank: usize, dt: f64) {
        self.acc.sample(n, n * bytes_per_rank * RANKS, dt);
        self.acc.norm.allreduces += n as u64;
    }

    /// `n` one-i32 allreduces in a row, native or user-level.
    fn sequential(&mut self, w: &Ranks, phase: u64, n: usize) -> Result<f64, Fail> {
        let base = self.take_iters(phase, n);
        let seed = self.seed;
        let comms = &w.comms;
        let inputs: Vec<Vec<i32>> = (0..n as u64)
            .map(|i| {
                (0..RANKS)
                    .map(|r| small_value(seed, phase, base + i, r))
                    .collect()
            })
            .collect();
        let mut got = Vec::with_capacity(n);
        let t0 = wtime();
        for vals in inputs {
            let vals = vals.into_iter();
            if phase == PH_USER {
                let futs = comms
                    .iter()
                    .zip(vals)
                    .map(|(c, v)| span(Layer::InteropPost, || my_iallreduce(c, vec![v])))
                    .collect::<Result<Vec<_>, _>>()?;
                w.wait("user allreduce", || futs.iter().all(|f| f.is_complete()))?;
                got.push(futs.into_iter().map(|f| f.take()[0]).collect());
            } else {
                let futs = comms
                    .iter()
                    .zip(vals)
                    .map(|(c, v)| span(Layer::MpiPost, || c.iallreduce(&[v], Op::Sum)))
                    .collect::<Result<Vec<_>, _>>()?;
                let mut first = 0;
                w.wait("allreduce", || all_complete(&futs, &mut first))?;
                got.push(
                    futs.into_iter()
                        .map(|f| span(Layer::MpiComplete, || f.take())[0])
                        .collect(),
                );
            }
        }
        let dt = wtime() - t0;
        let what = if phase == PH_USER {
            "user allreduce"
        } else {
            "allreduce"
        };
        self.check_small(phase, base, &got, what);
        self.account(n, 4, dt);
        Ok(dt / n as f64)
    }

    /// `n` one-i32 allreduces posted back to back on every rank, then
    /// driven to completion together.
    fn concurrent(&mut self, w: &Ranks, n: usize) -> Result<f64, Fail> {
        let base = self.take_iters(PH_CONCURRENT, n);
        let seed = self.seed;
        let comms = &w.comms;
        let inputs: Vec<i32> = (0..RANKS)
            .flat_map(|r| (0..n as u64).map(move |i| small_value(seed, PH_CONCURRENT, base + i, r)))
            .collect();
        let t0 = wtime();
        let mut futs = Vec::with_capacity(RANKS * n);
        for (r, c) in comms.iter().enumerate() {
            for v in &inputs[r * n..(r + 1) * n] {
                futs.push(span(Layer::MpiPost, || c.iallreduce(&[*v], Op::Sum))?);
            }
        }
        let mut first = 0;
        w.wait("concurrent allreduces", || all_complete(&futs, &mut first))?;
        let flat: Vec<i32> = futs
            .into_iter()
            .map(|f| span(Layer::MpiComplete, || f.take())[0])
            .collect();
        let dt = wtime() - t0;
        let got: Vec<Vec<i32>> = (0..n)
            .map(|i| (0..RANKS).map(|r| flat[r * n + i]).collect())
            .collect();
        self.check_small(PH_CONCURRENT, base, &got, "concurrent allreduce");
        self.account(n, 4, dt);
        Ok(dt / n as f64)
    }

    /// `n` 64 KiB allreduces in a row.
    fn big(&mut self, w: &Ranks, n: usize) -> Result<f64, Fail> {
        let base = self.take_iters(PH_BIG, n);
        let comms = &w.comms;
        let inputs: Vec<Vec<Vec<u64>>> = (0..n as u64)
            .map(|i| {
                (0..RANKS)
                    .map(|r| big_values(self.seed, base + i, r))
                    .collect()
            })
            .collect();
        let mut got = Vec::with_capacity(n);
        let t0 = wtime();
        for per_rank in &inputs {
            let futs = comms
                .iter()
                .zip(per_rank)
                .map(|(c, v)| span(Layer::MpiPost, || c.iallreduce(v, Op::Sum)))
                .collect::<Result<Vec<_>, _>>()?;
            let mut first = 0;
            w.wait("64 KiB allreduce", || all_complete(&futs, &mut first))?;
            got.push(
                futs.into_iter()
                    .map(|f| span(Layer::MpiComplete, || f.take()))
                    .collect::<Vec<_>>(),
            );
        }
        let dt = wtime() - t0;
        for (i, (per_rank, results)) in inputs.iter().zip(&got).enumerate() {
            let want: Vec<u64> = (0..BIG_LEN)
                .map(|j| per_rank.iter().map(|v| v[j]).sum())
                .collect();
            if let Some(r) = results.iter().position(|res| *res != want) {
                self.acc.errors.push(format!(
                    "64 KiB allreduce {}: rank {r}'s result differs from the sum over ranks",
                    base + i as u64
                ));
                break;
            }
        }
        self.account(n, BIG_LEN * 8, dt);
        Ok(dt / n as f64)
    }
}

/// Run the `allreduce` workload for `seconds`.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut w = Allreduce {
        seed,
        next: [0; 5],
        acc: Acc::default(),
    };
    let phases = [PH_NATIVE, PH_USER, PH_CONCURRENT, PH_BIG];
    harness::run(&mut w, seconds, &phases, seed)
}
