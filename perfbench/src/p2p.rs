//! `p2p_tcp` and `p2p_shm`: two ranks in this process over one in-process
//! mesh, byte-level API. Every round runs four phases in a fixed order:
//!
//! 1. 8 B ping-pong (`isend_bytes` / `irecv_bytes`);
//! 2. the same ping-pong through persistent descriptors
//!    (`send_init_bytes` / `recv_init_bytes` + `start`);
//! 3. windows of 64 × 8 B sends closed by a 0 B ack;
//! 4. one window of 8 × 256 KiB sends closed by a 0 B ack: above the
//!    64 KiB eager limit, so rendezvous over TCP and the zero-copy
//!    promotion on shm, yet small enough (2 MiB a window) to stay in
//!    cache, where the phase does not measure the host's memory traffic.
//!
//! One operation is one message sent, acks included.

use mpfa_core::{wtime, Request};
use mpfa_mpi::{MpfaBytes, PersistentRecvBytes, PersistentSendBytes, RecvBytesRequest};
use mpfa_transport::TransportKind;

use crate::gen;
use crate::harness::{self, Acc, Fail, Outcome, Ranks, Samples, Workload, ALT, BULK, LAT, RATE};
use crate::trace::{span, Layer};

const PH_PINGPONG: u64 = 1;
const PH_PERSIST: u64 = 2;
const PH_WINDOW: u64 = 3;
const PH_BULK: u64 = 4;

const TAG_PING: i32 = 1;
const TAG_PONG: i32 = 2;
const TAG_PERSIST_PING: i32 = 3;
const TAG_PERSIST_PONG: i32 = 4;
const TAG_WINDOW: i32 = 5;
const TAG_ACK: i32 = 6;
const TAG_BULK: i32 = 7;

const SMALL: usize = 8;
const LARGE: usize = 256 << 10;
/// Round trips per ping-pong sample; each is timed on its own.
const PINGPONGS: usize = 64;
/// Messages per small window, and windows per sample.
const WINDOW: usize = 64;
const WINDOWS: usize = 4;
/// Messages per bulk window (one window per sample).
const BULK_WINDOW: usize = 8;

/// One booted two-rank world and its persistent descriptors.
struct Pair {
    ranks: Ranks,
    /// Rank 0 → 1 and 1 → 0 persistent descriptors.
    send01: PersistentSendBytes,
    recv01: PersistentRecvBytes,
    send10: PersistentSendBytes,
    recv10: PersistentRecvBytes,
}

struct P2p {
    kind: TransportKind,
    seed: u64,
    /// Next iteration index per phase, carried across worlds.
    next: [u64; 5],
    acc: Acc,
}

fn post<T>(f: impl FnOnce() -> T) -> T {
    span(Layer::MpiPost, f)
}

fn complete<T>(f: impl FnOnce() -> T) -> T {
    span(Layer::MpiComplete, f)
}

fn all_done(reqs: &[Request]) -> bool {
    reqs.iter().all(Request::is_complete)
}

/// True once every receive has completed. `*from` remembers the first
/// incomplete one: receives on one (source, tag) complete in posting
/// order, so the scan is amortised O(1) per poll.
fn recvs_done(recvs: &[RecvBytesRequest], from: &mut usize) -> bool {
    while *from < recvs.len() && recvs[*from].is_complete() {
        *from += 1;
    }
    *from == recvs.len()
}

impl Workload for P2p {
    type World = Pair;
    const PHASES: [&'static str; 4] = [
        "8 B half round trip",
        "persistent 8 B half round trip",
        "8 B windowed message",
        "256 KiB windowed message",
    ];
    /// Binds the persistent descriptors, grows every buffer pool and
    /// lets the reactor threads start.
    const WARMUP_ROUNDS: usize = 4;

    fn boot(&mut self) -> Result<Pair, Fail> {
        let ranks = Ranks::boot(self.kind, 2);
        let (c0, c1) = (&ranks.comms[0], &ranks.comms[1]);
        let empty = MpfaBytes::empty();
        let send01 = c0.send_init_bytes(empty.clone(), 1, TAG_PERSIST_PING)?;
        let recv01 = c1.recv_init_bytes(SMALL, 0, TAG_PERSIST_PING)?;
        let send10 = c1.send_init_bytes(empty, 0, TAG_PERSIST_PONG)?;
        let recv10 = c0.recv_init_bytes(SMALL, 1, TAG_PERSIST_PONG)?;
        Ok(Pair {
            ranks,
            send01,
            recv01,
            send10,
            recv10,
        })
    }

    fn round(&mut self, w: &mut Pair, s: &mut Samples) -> Result<(), Fail> {
        self.pingpong(w, PINGPONGS, &mut s[LAT])?;
        self.persistent(w, PINGPONGS, &mut s[ALT])?;
        s[RATE].push(self.windows(w, PH_WINDOW, TAG_WINDOW, WINDOWS, WINDOW, SMALL)?);
        s[BULK].push(self.windows(w, PH_BULK, TAG_BULK, 1, BULK_WINDOW, LARGE)?);
        Ok(())
    }

    fn acc(&mut self) -> &mut Acc {
        &mut self.acc
    }
}

impl P2p {
    /// Payloads of the next `n` iterations of `phase`, each carrying its
    /// iteration index as sequence number.
    fn payloads(&mut self, phase: u64, n: usize, len: usize) -> (u64, Vec<MpfaBytes>) {
        let base = self.next[phase as usize];
        self.next[phase as usize] += n as u64;
        let pays = (0..n as u64)
            .map(|i| gen::payload(len, self.seed, phase, base + i, (base + i) as u32).into())
            .collect();
        (base, pays)
    }

    /// Compare what arrived against the regenerated payloads. A sequence
    /// number out of place means a message overtook another.
    fn check(&mut self, phase: u64, base: u64, len: usize, got: &[MpfaBytes], what: &str) {
        for (i, g) in got.iter().enumerate() {
            let iter = base + i as u64;
            if gen::check(g, len, self.seed, phase, iter, iter as u32) {
                continue;
            }
            let seq = gen::seq_of(g);
            self.acc.errors.push(if len >= 4 && seq != Some(iter as u32) {
                format!("{what}: message {iter} arrived in place of {seq:?} (non-overtaking broken)")
            } else {
                format!("{what}: payload {iter} differs from the generated bytes")
            });
            return;
        }
    }

    /// `n` round trips of the 8 B ping-pong; pushes each half round trip
    /// to `out`.
    fn pingpong(&mut self, w: &Pair, n: usize, out: &mut Vec<f64>) -> Result<(), Fail> {
        let (base, pays) = self.payloads(PH_PINGPONG, n, SMALL);
        let (c0, c1) = (&w.ranks.comms[0], &w.ranks.comms[1]);
        let mut there = Vec::with_capacity(n);
        let mut back = Vec::with_capacity(n);
        let t0 = wtime();
        let mut last = t0;
        for p in pays {
            let r1 = post(|| c1.irecv_bytes(SMALL, 0, TAG_PING))?;
            let r0 = post(|| c0.irecv_bytes(SMALL, 1, TAG_PONG))?;
            let s0 = post(|| c0.isend_bytes(p, 1, TAG_PING))?;
            w.ranks.wait("8 B ping", || r1.is_complete())?;
            let (d, _) = complete(|| r1.take());
            let s1 = post(|| c1.isend_bytes(d.clone(), 0, TAG_PONG))?;
            w.ranks.wait("8 B pong", || {
                r0.is_complete() && s0.is_complete() && s1.is_complete()
            })?;
            let (e, _) = complete(|| r0.take());
            there.push(d);
            back.push(e);
            let now = wtime();
            out.push((now - last) / 2.0);
            last = now;
        }
        self.check(PH_PINGPONG, base, SMALL, &there, "ping");
        self.check(PH_PINGPONG, base, SMALL, &back, "pong");
        self.acc.sample(2 * n, 2 * n * SMALL, last - t0);
        Ok(())
    }

    /// The same through the persistent descriptors.
    fn persistent(&mut self, w: &mut Pair, n: usize, out: &mut Vec<f64>) -> Result<(), Fail> {
        let (base, pays) = self.payloads(PH_PERSIST, n, SMALL);
        let mut there = Vec::with_capacity(n);
        let mut back = Vec::with_capacity(n);
        let t0 = wtime();
        let mut last = t0;
        for p in pays {
            span(Layer::PersistStart, || w.recv01.start())?;
            span(Layer::PersistStart, || w.recv10.start())?;
            w.send01.set_payload(p);
            span(Layer::PersistStart, || w.send01.start())?;
            let recv01 = &w.recv01;
            w.ranks.wait("persistent ping", || recv01.is_complete())?;
            let (d, _) = complete(|| w.recv01.wait())?;
            w.send10.set_payload(d.clone());
            span(Layer::PersistStart, || w.send10.start())?;
            let (recv10, send01, send10) = (&w.recv10, &w.send01, &w.send10);
            w.ranks.wait("persistent pong", || {
                recv10.is_complete() && send01.is_complete() && send10.is_complete()
            })?;
            let (e, _) = complete(|| w.recv10.wait())?;
            there.push(d);
            back.push(e);
            let now = wtime();
            out.push((now - last) / 2.0);
            last = now;
        }
        self.check(PH_PERSIST, base, SMALL, &there, "persistent ping");
        self.check(PH_PERSIST, base, SMALL, &back, "persistent pong");
        self.acc.sample(2 * n, 2 * n * SMALL, last - t0);
        self.acc.norm.persist_sends += 2 * n as u64;
        Ok(())
    }

    /// `windows` windows of `per` messages of `len` bytes from rank 0 to
    /// rank 1, each closed by a 0 B ack. Returns seconds per message.
    fn windows(
        &mut self,
        w: &Pair,
        phase: u64,
        tag: i32,
        windows: usize,
        per: usize,
        len: usize,
    ) -> Result<f64, Fail> {
        let (base, mut pays) = self.payloads(phase, windows * per, len);
        let (c0, c1) = (&w.ranks.comms[0], &w.ranks.comms[1]);
        let mut got = Vec::with_capacity(windows * per);
        let t0 = wtime();
        for _ in 0..windows {
            let recvs = (0..per)
                .map(|_| post(|| c1.irecv_bytes(len, 0, tag)))
                .collect::<Result<Vec<_>, _>>()?;
            let ack = post(|| c0.irecv_bytes(0, 1, TAG_ACK))?;
            let sends = pays
                .drain(..per)
                .map(|p| post(|| c0.isend_bytes(p, 1, tag)))
                .collect::<Result<Vec<_>, _>>()?;
            let mut first = 0;
            w.ranks.wait("window", || recvs_done(&recvs, &mut first))?;
            for r in recvs {
                got.push(complete(|| r.take()).0);
            }
            let ack_sent = post(|| c1.isend_bytes(Vec::new(), 0, TAG_ACK))?;
            w.ranks.wait("window ack", || {
                ack.is_complete() && ack_sent.is_complete() && all_done(&sends)
            })?;
            complete(|| ack.take());
        }
        let dt = wtime() - t0;
        self.check(phase, base, len, &got, "window");
        // Views into an shm ring release their span when dropped.
        drop(got);
        self.acc
            .sample(windows * (per + 1), windows * per * len, dt);
        Ok(dt / (windows * per) as f64)
    }
}

/// Run one `p2p_*` workload over `kind` for `seconds`.
pub fn run(kind: TransportKind, seed: u64, seconds: f64) -> Outcome {
    let mut w = P2p {
        kind,
        seed,
        next: [0; 5],
        acc: Acc::default(),
    };
    let phases = [PH_PINGPONG, PH_PERSIST, PH_WINDOW, PH_BULK];
    harness::run(&mut w, seconds, &phases, seed)
}
