//! Bench-side timing of the engine's public calls.
//!
//! Every measured call goes through [`Harness::call`], which records a
//! bench-side span (call name, operation label, start, duration) on the
//! same monotonic clock the engine's tracer uses. An untraced harness
//! hands the engine [`Tracer::disabled`], so untraced passes time the
//! engine exactly as a `faure eval` user runs it; a traced harness hands
//! it a tracer over an in-memory [`Recorder`], and [`crate::ledger`]
//! later folds the bench spans and the engine's own spans together.

use faure_trace::{Clock, Event, MonotonicClock, Recorder, Tracer};
use std::sync::Arc;

/// One timed public call.
#[derive(Clone, Debug)]
pub struct CallSpan {
    /// The public function: `prepare`, `run`, `materialize` or `apply`.
    pub call: &'static str,
    /// What the call did in the workload (`q4-q5`, `announce`, ...).
    pub op: &'static str,
    /// Start, nanoseconds on the harness clock.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

impl CallSpan {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.dur_ns as f64 * 1e-9
    }
}

/// Times public engine calls and, when traced, records the engine's
/// spans beside them.
pub struct Harness {
    clock: Arc<MonotonicClock>,
    tracer: Tracer,
    recorder: Option<Arc<Recorder>>,
    calls: Vec<CallSpan>,
}

impl Harness {
    /// A harness; `traced` decides whether the engine gets a live tracer.
    pub fn new(traced: bool) -> Self {
        let clock = Arc::new(MonotonicClock::starting_now());
        let (tracer, recorder) = if traced {
            let recorder = Arc::new(Recorder::new());
            let tracer = Tracer::with_clock(recorder.clone(), clock.clone());
            (tracer, Some(recorder))
        } else {
            (Tracer::disabled(), None)
        };
        Harness {
            clock,
            tracer,
            recorder,
            calls: Vec::new(),
        }
    }

    /// Whether the engine's spans are recorded.
    pub fn traced(&self) -> bool {
        self.recorder.is_some()
    }

    /// Nanoseconds on the harness clock.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Runs `f` (one public engine call) and records its span. `f`
    /// receives the tracer to pass on, which is disabled when untraced.
    pub fn call<T>(
        &mut self,
        call: &'static str,
        op: &'static str,
        f: impl FnOnce(&Tracer) -> T,
    ) -> (T, CallSpan) {
        let start_ns = self.clock.now_ns();
        let out = std::hint::black_box(f(&self.tracer));
        let dur_ns = self.clock.now_ns().saturating_sub(start_ns);
        let span = CallSpan {
            call,
            op,
            start_ns,
            dur_ns,
        };
        self.calls.push(span.clone());
        (out, span)
    }

    /// Every call timed so far, in call order.
    pub fn calls(&self) -> &[CallSpan] {
        &self.calls
    }

    /// The engine's recorded spans (empty when untraced).
    pub fn events(&self) -> Vec<Event> {
        self.recorder
            .as_ref()
            .map(|r| r.snapshot())
            .unwrap_or_default()
    }
}
