//! Spans around the benchmark's own calls into each layer, and a timing
//! wrapper around each rank's transport port.
//!
//! Nothing here reaches inside the program: a span starts before the
//! benchmark calls a layer's public function and ends when it returns.
//! Spans nest (a transport send inside `isend_bytes`, a transport poll
//! inside `Stream::progress`), so every span keeps the time its children
//! covered and a layer's self time is its spans' time minus that.
//!
//! A traced run wraps every port ([`traced`]) and records only while the
//! harness has switched recording on ([`record`]), which it does around
//! timed rounds; set-up and warm-up stay out of the totals. The untraced
//! run pays one thread-local flag test per call site.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use mpfa_core::wtime;
use mpfa_mpi::wire::WireMsg;
use mpfa_transport::{Envelope, Path, Transport, TransportKind, TxHandle};

/// The layers a span can be charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Stream::progress` (mpfa-core), including the mpi hooks and user
    /// tasks that run inside the sweep.
    Progress,
    /// mpi post calls: `isend_bytes`, `irecv_bytes`, `iallreduce`.
    MpiPost,
    /// mpi completion calls: `take` after completion.
    MpiComplete,
    /// Persistent re-fire: `start` on a descriptor.
    PersistStart,
    /// The user-level allreduce post, `my_iallreduce`.
    InteropPost,
    /// A wire port's `send`.
    WireSend,
    /// A wire port's pump calls: `progress`, `poll`, `queued`,
    /// `external_work`.
    WirePump,
    /// A simulated-fabric port's `send`.
    FabricSend,
    /// A simulated-fabric port's pump calls.
    FabricPoll,
}

const LAYERS: usize = 9;

impl Layer {
    fn idx(self) -> usize {
        self as usize
    }
}

/// Totals for one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Number of spans.
    pub calls: u64,
    /// Summed span time, seconds.
    pub total: f64,
    /// Summed self time (span time minus child spans), seconds.
    pub self_time: f64,
}

/// Everything the traced run accumulates.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    /// Per-layer span totals, indexed by [`Layer`].
    pub layers: [LayerTotals; LAYERS],
    /// `Stream::progress` calls whose outcome reported progress.
    pub productive_sweeps: u64,
    /// Wire-port pump calls (`progress`, `poll`) that moved nothing.
    pub idle_pumps: u64,
    /// Wire-port pump calls (`progress`, `poll`).
    pub pumps: u64,
}

impl Totals {
    /// Totals of `layer`.
    pub fn get(&self, layer: Layer) -> LayerTotals {
        self.layers[layer.idx()]
    }

    /// Summed self time of every layer.
    pub fn self_sum(&self) -> f64 {
        self.layers.iter().map(|l| l.self_time).sum()
    }
}

struct Frame {
    layer: Layer,
    start: f64,
    child: f64,
}

static TRACED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static TOTALS: RefCell<Totals> = RefCell::new(Totals::default());
}

/// Make this a traced run: worlds booted from now on get timed ports.
pub fn enable() {
    TRACED.store(true, Ordering::Relaxed);
}

/// True in a traced run.
pub fn traced() -> bool {
    TRACED.load(Ordering::Relaxed)
}

/// Switch recording on this thread on or off (a no-op in an untraced
/// run).
pub fn record(on: bool) {
    ON.with(|r| r.set(on && traced()));
}

/// True while this thread records spans.
#[inline]
fn enabled() -> bool {
    ON.with(Cell::get)
}

/// A snapshot of this thread's totals.
pub fn totals() -> Totals {
    TOTALS.with(|t| t.borrow().clone())
}

fn open(layer: Layer) {
    STACK.with(|s| {
        s.borrow_mut().push(Frame {
            layer,
            start: wtime(),
            child: 0.0,
        })
    });
}

fn close() {
    let end = wtime();
    let frame = STACK.with(|s| s.borrow_mut().pop().expect("span stack underflow"));
    let dur = end - frame.start;
    STACK.with(|s| {
        if let Some(parent) = s.borrow_mut().last_mut() {
            parent.child += dur;
        }
    });
    TOTALS.with(|t| {
        let mut t = t.borrow_mut();
        let l = &mut t.layers[frame.layer.idx()];
        l.calls += 1;
        l.total += dur;
        l.self_time += dur - frame.child;
    });
}

/// Run `f` inside a span charged to `layer` (a plain call when tracing
/// is off).
#[inline]
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    open(layer);
    let out = f();
    close();
    out
}

/// Count one `Stream::progress` outcome.
#[inline]
pub fn note_sweep(productive: bool) {
    if productive && enabled() {
        TOTALS.with(|t| t.borrow_mut().productive_sweeps += 1);
    }
}

/// A rank's transport port with every call timed: the traced run builds
/// each world over these instead of the bare ports. Every [`Transport`]
/// method is forwarded, so protocol choices that read the port (the shm
/// `eager_hint` promotion, liveness, the kill hooks) are unchanged.
pub struct TimedPort {
    inner: Arc<dyn Transport<WireMsg>>,
    send_layer: Layer,
    pump_layer: Layer,
}

impl TimedPort {
    /// Wrap `inner`; its kind decides whether its time is charged to the
    /// wire transport or the simulated fabric.
    pub fn wrap(inner: Arc<dyn Transport<WireMsg>>) -> Arc<dyn Transport<WireMsg>> {
        let sim = inner.kind() == TransportKind::Sim;
        Arc::new(TimedPort {
            inner,
            send_layer: if sim {
                Layer::FabricSend
            } else {
                Layer::WireSend
            },
            pump_layer: if sim {
                Layer::FabricPoll
            } else {
                Layer::WirePump
            },
        })
    }

    /// Count one wire pump (`progress` or `poll`) and whether it moved
    /// nothing.
    fn note_pump(&self, idle: bool) {
        if self.pump_layer != Layer::WirePump || !enabled() {
            return;
        }
        TOTALS.with(|t| {
            let mut t = t.borrow_mut();
            t.pumps += 1;
            if idle {
                t.idle_pumps += 1;
            }
        });
    }
}

impl Transport<WireMsg> for TimedPort {
    fn kind(&self) -> TransportKind {
        self.inner.kind()
    }

    fn endpoints(&self) -> usize {
        self.inner.endpoints()
    }

    fn send(&self, src_ep: usize, dst_ep: usize, msg: WireMsg, wire_bytes: usize) -> TxHandle {
        span(self.send_layer, || {
            self.inner.send(src_ep, dst_ep, msg, wire_bytes)
        })
    }

    fn poll(&self, ep: usize, path: Path, max: usize, out: &mut Vec<Envelope<WireMsg>>) -> usize {
        let n = span(self.pump_layer, || self.inner.poll(ep, path, max, out));
        self.note_pump(n == 0);
        n
    }

    fn queued(&self, ep: usize, path: Path) -> usize {
        span(self.pump_layer, || self.inner.queued(ep, path))
    }

    fn progress(&self) -> bool {
        let moved = span(self.pump_layer, || self.inner.progress());
        self.note_pump(!moved);
        moved
    }

    fn external_work(&self) -> bool {
        span(self.pump_layer, || self.inner.external_work())
    }

    fn eager_hint(&self) -> Option<usize> {
        self.inner.eager_hint()
    }

    fn peer_alive(&self, rank: usize) -> bool {
        self.inner.peer_alive(rank)
    }

    fn dead_peers(&self) -> usize {
        self.inner.dead_peers()
    }

    fn failed_sends(&self) -> usize {
        self.inner.failed_sends()
    }

    fn kill_peer(&self, rank: usize) -> bool {
        self.inner.kill_peer(rank)
    }

    fn schedule_kill(&self, rank: usize, at: f64) -> bool {
        self.inner.schedule_kill(rank, at)
    }
}
