//! The repository benchmark: one workload per run, every rank driven from
//! this thread.
//!
//! ```text
//! mpfa-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `p2p_tcp`, `p2p_shm`, `allreduce`, `async_tasks` (see
//! `perfbench/README.md`). With `--trace 0` the last line of standard
//! output is a JSON object carrying the end-to-end metrics; with
//! `--trace 1` the same workload runs with every layer call timed and the
//! object carries the per-layer metrics instead.

mod allreduce;
mod gen;
mod harness;
mod p2p;
mod tasks;
mod trace;

use mpfa_transport::TransportKind;

use harness::Outcome;
use trace::Layer;

const USAGE: &str = "usage: mpfa-perfbench --workload p2p_tcp|p2p_shm|allreduce|async_tasks \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn per_op(x: f64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        x / ops as f64
    }
}

/// The per-layer metrics of a traced run: (name, unit, value).
fn layer_metrics(o: &Outcome) -> Vec<(&'static str, &'static str, f64)> {
    let t = trace::totals();
    let c = &o.counters;
    let n = o.norm;
    let ops = n.ops;
    let us_op = |s: f64| per_op(s * 1e6, ops);
    let us_call = |l: Layer| per_op(t.get(l).self_time * 1e6, t.get(l).calls);
    let msgs = c.msgs as f64;
    let per_msg = |x: f64| if msgs > 0.0 { x / msgs } else { 0.0 };
    let prog = t.get(Layer::Progress);
    let wire = t.get(Layer::WireSend).self_time + t.get(Layer::WirePump).self_time;
    let fabric = t.get(Layer::FabricSend).self_time + t.get(Layer::FabricPoll).self_time;
    let mpi = t.get(Layer::MpiPost).self_time + t.get(Layer::MpiComplete).self_time;
    let task_polls = c.task_polls as f64;
    vec![
        (
            "transport.send_us_per_op",
            "us",
            us_op(t.get(Layer::WireSend).total),
        ),
        (
            "transport.pump_us_per_op",
            "us",
            us_op(t.get(Layer::WirePump).total),
        ),
        (
            "transport.pump_calls_per_op",
            "count",
            per_op(t.get(Layer::WirePump).calls as f64, ops),
        ),
        (
            "transport.idle_pump_ratio",
            "ratio",
            per_op(t.idle_pumps as f64, t.pumps),
        ),
        (
            "transport.syscalls_per_op",
            "count",
            per_op(c.wire_syscalls as f64, ops),
        ),
        (
            "transport.syscalls_saved_per_op",
            "count",
            per_op(c.wire_syscalls_saved as f64, ops),
        ),
        (
            "transport.reactor_wakeups_per_op",
            "count",
            per_op(c.reactor_wakeups as f64, ops),
        ),
        (
            "transport.copied_bytes_per_payload_byte",
            "ratio",
            per_op(c.bytes_copied as f64, n.payload_bytes),
        ),
        (
            "transport.ring_full_per_op",
            "count",
            per_op(c.shm_ring_full as f64, ops),
        ),
        (
            "fabric.send_us_per_op",
            "us",
            us_op(t.get(Layer::FabricSend).total),
        ),
        (
            "fabric.poll_us_per_op",
            "us",
            us_op(t.get(Layer::FabricPoll).total),
        ),
        ("mpi.post_us", "us", us_call(Layer::MpiPost)),
        ("mpi.complete_us", "us", us_call(Layer::MpiComplete)),
        (
            "mpi.match_probes_per_msg",
            "count",
            per_msg(c.match_probes as f64),
        ),
        (
            "mpi.unexpected_per_msg",
            "count",
            per_msg(c.unexpected as f64),
        ),
        ("mpi.rndv_per_msg", "count", per_msg(c.rndv as f64)),
        (
            "mpi.msgs_per_allreduce",
            "count",
            per_op(msgs, n.allreduces),
        ),
        (
            "mpi.bytes_per_allreduce",
            "B",
            per_op(c.bytes as f64, n.allreduces),
        ),
        ("persist.start_us", "us", us_call(Layer::PersistStart)),
        (
            "persist.refires_per_op",
            "count",
            per_op(c.persist_refires as f64, n.persist_sends),
        ),
        ("interop.post_us", "us", us_call(Layer::InteropPost)),
        ("core.progress_us_per_op", "us", us_op(prog.total)),
        ("core.progress_self_us_per_op", "us", us_op(prog.self_time)),
        (
            "core.sweeps_per_op",
            "count",
            per_op(prog.calls as f64, ops),
        ),
        (
            "core.productive_sweep_ratio",
            "ratio",
            per_op(t.productive_sweeps as f64, prog.calls),
        ),
        ("core.sweep_us", "us", per_op(prog.total * 1e6, prog.calls)),
        (
            "core.task_poll_ns",
            "ns",
            if task_polls > 0.0 {
                prog.self_time * 1e9 / task_polls
            } else {
                0.0
            },
        ),
        (
            "core.engine_lock_contended",
            "count",
            c.engine_lock_contended as f64,
        ),
        ("budget.e2e_us_per_op", "us", us_op(o.timed_s)),
        ("budget.core_us_per_op", "us", us_op(prog.self_time)),
        ("budget.mpi_us_per_op", "us", us_op(mpi)),
        (
            "budget.persist_us_per_op",
            "us",
            us_op(t.get(Layer::PersistStart).self_time),
        ),
        (
            "budget.interop_us_per_op",
            "us",
            us_op(t.get(Layer::InteropPost).self_time),
        ),
        ("budget.transport_us_per_op", "us", us_op(wire)),
        ("budget.fabric_us_per_op", "us", us_op(fabric)),
        (
            "budget.remainder_us_per_op",
            "us",
            us_op(o.timed_s - t.self_sum()),
        ),
    ]
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.trace {
        trace::enable();
    }
    let (seed, secs) = (args.seed, args.seconds);
    let outcome = match args.workload.as_str() {
        "p2p_tcp" => p2p::run(TransportKind::Tcp, seed, secs),
        "p2p_shm" => p2p::run(TransportKind::Shm, seed, secs),
        "allreduce" => allreduce::run(seed, secs),
        "async_tasks" => tasks::run(seed, secs),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    for e in &outcome.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let c = &outcome.counters;
    println!(
        "inputs {:016x}; timed {:.6} us per op; per message: rndv {:.6}, \
         copied bytes per payload byte {:.6}",
        outcome.input_digest,
        per_op(outcome.timed_s * 1e6, outcome.norm.ops),
        per_op(c.rndv as f64, c.msgs),
        per_op(c.bytes_copied as f64, outcome.norm.payload_bytes),
    );
    let metrics = if args.trace {
        layer_metrics(&outcome)
    } else {
        outcome.e2e.clone()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.errors.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
}
