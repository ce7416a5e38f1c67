//! Spans recorded from outside the program: a nesting span recorder and
//! a forwarding [`Dut`] wrapper that times every device call.
//!
//! A span's *self* time is its duration minus the durations of the spans
//! opened inside it, so a `diff` span around `DiffEngine::diff_with`
//! yields the engine's own compare cost once the wrapped harts' `ref.*`
//! and `dut.*` spans are subtracted.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tf_arch::{BatchOutcome, Dut, DutFailure, ExecutionTrace, RemoteDutStats, StepOutcome, Trap};
use tf_riscv::Instruction;

/// Accumulated cost of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Times the span was entered.
    pub calls: u64,
    /// Wall time inside the span, children included.
    pub total_ns: u64,
    /// Wall time inside the span minus its child spans.
    pub self_ns: u64,
}

struct Frame {
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

/// In-memory span recorder. One recorder belongs to one thread's call
/// stack; spans are kept as per-name totals and read out at the end.
#[derive(Default)]
pub struct Tracer {
    stack: Vec<Frame>,
    spans: BTreeMap<&'static str, SpanStats>,
    counts: BTreeMap<&'static str, u64>,
}

/// A recorder shared between the loop that opens spans and the wrapped
/// devices it drives (which may live on a worker thread).
pub type Shared = Arc<Mutex<Tracer>>;

impl Tracer {
    /// A fresh shared recorder.
    pub fn shared() -> Shared {
        Arc::new(Mutex::new(Tracer::default()))
    }

    fn enter(&mut self, name: &'static str) {
        self.stack.push(Frame {
            name,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    fn exit(&mut self) {
        let frame = self.stack.pop().expect("span exit without enter");
        let ns = frame.start.elapsed().as_nanos() as u64;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += ns;
        }
        let stats = self.spans.entry(frame.name).or_default();
        stats.calls += 1;
        stats.total_ns += ns;
        stats.self_ns += ns.saturating_sub(frame.child_ns);
    }

    /// Add `n` to the counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// The totals of span `name` (zero when it never ran).
    pub fn span(&self, name: &str) -> SpanStats {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// Every recorded span, by name.
    pub fn spans(&self) -> &BTreeMap<&'static str, SpanStats> {
        &self.spans
    }

    /// The counter `name` (zero when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or_default()
    }
}

fn lock(tracer: &Shared) -> std::sync::MutexGuard<'_, Tracer> {
    tracer.lock().expect("tracer poisoned by a panicking span")
}

/// Run `f` inside span `name`. The lock is released while `f` runs, so
/// wrapped devices called from `f` can open child spans.
pub fn span<R>(tracer: &Shared, name: &'static str, f: impl FnOnce() -> R) -> R {
    lock(tracer).enter(name);
    let result = f();
    lock(tracer).exit();
    result
}

/// Which side of the differential run a wrapped device is; it prefixes
/// the span names (`ref.*` or `dut.*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The golden reference hart.
    Ref,
    /// The device under test.
    Dut,
}

struct Names {
    reset: &'static str,
    load: &'static str,
    run: &'static str,
    run_steps: &'static str,
    step: &'static str,
    digest: &'static str,
    trace: &'static str,
}

const REF_NAMES: Names = Names {
    reset: "ref.reset",
    load: "ref.load",
    run: "ref.run",
    run_steps: "ref.run_steps",
    step: "ref.step",
    digest: "ref.digest",
    trace: "ref.trace",
};

const DUT_NAMES: Names = Names {
    reset: "dut.reset",
    load: "dut.load",
    run: "dut.run",
    run_steps: "dut.run_steps",
    step: "dut.step",
    digest: "dut.digest",
    trace: "dut.trace",
};

/// A forwarding [`Dut`] that times `reset`, `load`, `run_into`, `step`,
/// `digest`, `enable_tracing` and `take_trace`, and passes `name`,
/// `write_history`, `pc`, `take_failure` and `remote_stats` through
/// untouched — so the native batch engine still runs (`run_into` is
/// forwarded, not re-derived from `step`) and a supervisor's failures
/// and lineage statistics reach the campaign unchanged.
pub struct TimedDut {
    inner: Box<dyn Dut + Send>,
    tracer: Shared,
    names: &'static Names,
}

impl TimedDut {
    /// Wrap `inner`, recording into `tracer` under `side`'s names.
    pub fn new(inner: Box<dyn Dut + Send>, side: Side, tracer: Shared) -> Self {
        let names = match side {
            Side::Ref => &REF_NAMES,
            Side::Dut => &DUT_NAMES,
        };
        TimedDut {
            inner,
            tracer,
            names,
        }
    }
}

impl Dut for TimedDut {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn reset(&mut self) {
        span(&self.tracer, self.names.reset, || self.inner.reset());
    }

    fn load(&mut self, base: u64, program: &[Instruction]) -> Result<(), Trap> {
        span(&self.tracer, self.names.load, || {
            self.inner.load(base, program)
        })
    }

    fn step(&mut self) -> StepOutcome {
        span(&self.tracer, self.names.step, || self.inner.step())
    }

    fn digest(&self) -> u64 {
        span(&self.tracer, self.names.digest, || self.inner.digest())
    }

    fn write_history(&self) -> u64 {
        self.inner.write_history()
    }

    fn enable_tracing(&mut self) {
        span(&self.tracer, self.names.trace, || {
            self.inner.enable_tracing()
        });
    }

    fn take_trace(&mut self) -> Option<ExecutionTrace> {
        span(&self.tracer, self.names.trace, || self.inner.take_trace())
    }

    fn pc(&self) -> u64 {
        self.inner.pc()
    }

    fn take_failure(&mut self) -> Option<DutFailure> {
        self.inner.take_failure()
    }

    fn remote_stats(&self) -> Option<RemoteDutStats> {
        self.inner.remote_stats()
    }

    fn run_into(&mut self, max_steps: u64, digest_every: u64, out: &mut BatchOutcome) {
        span(&self.tracer, self.names.run, || {
            self.inner.run_into(max_steps, digest_every, out);
        });
        lock(&self.tracer).count(self.names.run_steps, out.steps);
    }
}
