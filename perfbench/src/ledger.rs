//! Folds a traced pass into exclusive per-layer times.
//!
//! The bench-side call spans are the roots; the spans the engine emits
//! through `prepare_traced`, `run_traced`, `materialize_with` and
//! `apply` nest inside them. A span's *self* time is its duration minus
//! the durations of its direct children, and each self time is charged
//! to the layer [`layer_of`] names for its `(category, name)`. What no
//! layer claims — the bench wrappers, the per-stratum driver outside
//! iterations and prunes — is the unattributed remainder:
//! traced wall (the summed call spans) minus the summed layer times.

use crate::harness::CallSpan;
use faure_trace::Event;
use std::collections::BTreeMap;

/// The exclusive layers, in report order.
pub const LAYERS: [&str; 9] = [
    "engine.prepare_s",
    "engine.lint_s",
    "engine.table_setup_s",
    "engine.export_s",
    "engine.join_s",
    "engine.merge_s",
    "prune.wall_s",
    "maintain.rederive_s",
    "maintain.propagate_s",
];

/// The layer a span's self time belongs to (`None`: unattributed).
///
/// * `engine.export_s` is "run − stratum − setup − lint":
///   the self time of `eval/run`, plus that of a `materialize` call,
///   which is the same work (loading the input rows into tables) minus
///   the final export.
/// * `engine.merge_s` is a fixpoint iteration minus its rule passes.
/// * `maintain.propagate_s` is an incremental apply's own work outside
///   over-delete/re-derive, rule passes and prunes.
///
/// [`fold`] charges everything inside a `maintain/rederive` span —
/// the taint-detection rule passes included — to
/// `maintain.rederive_s`, so that layer is the whole over-delete.
pub fn layer_of(cat: &str, name: &str) -> Option<&'static str> {
    Some(match (cat, name) {
        ("bench", "prepare") | ("prepare", _) => "engine.prepare_s",
        ("eval", "lint") => "engine.lint_s",
        ("eval", "setup") => "engine.table_setup_s",
        ("eval", "run") | ("bench", "run") | ("bench", "materialize") => "engine.export_s",
        ("fixpoint", "rule-pass") | ("fixpoint", "shard-pass") => "engine.join_s",
        ("fixpoint", "iteration") => "engine.merge_s",
        ("eval", "prune") => "prune.wall_s",
        ("maintain", "rederive") => "maintain.rederive_s",
        ("maintain", "stratum") | ("maintain", "delta") => "maintain.propagate_s",
        _ => return None,
    })
}

/// The folded ledger of one traced pass.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Exclusive seconds per layer (every entry of [`LAYERS`]).
    pub layers: BTreeMap<&'static str, f64>,
    /// Summed duration of the bench-side call spans, seconds.
    pub traced_wall_s: f64,
    /// `traced_wall_s` minus the summed layer times.
    pub unattributed_s: f64,
    /// Exclusive seconds per `(layer, operation label of the call the
    /// time was spent in)`, e.g. `("maintain.rederive_s", "withdraw")`.
    pub by_op: BTreeMap<(&'static str, &'static str), f64>,
}

impl Ledger {
    /// Exclusive seconds of `layer` spent in calls labelled `op`.
    pub fn layer_in(&self, layer: &str, op: &str) -> f64 {
        self.by_op.get(&(layer, op)).copied().unwrap_or(0.0)
    }
}

struct Node {
    cat: &'static str,
    name: &'static str,
    op: &'static str,
    start: u64,
    dur: u64,
    children: u64,
    /// Layer forced by an enclosing span (see [`layer_of`]).
    forced: Option<&'static str>,
}

/// Folds call spans and engine events (driver track only: the default
/// options run one engine thread) into a [`Ledger`].
pub fn fold(calls: &[CallSpan], events: &[Event]) -> Ledger {
    let mut nodes: Vec<Node> = calls
        .iter()
        .map(|c| Node {
            cat: "bench",
            name: c.call,
            op: c.op,
            start: c.start_ns,
            dur: c.dur_ns,
            children: 0,
            forced: None,
        })
        .chain(
            events
                .iter()
                .filter(|e| e.track == 0 && e.dur_ns > 0)
                .map(|e| Node {
                    cat: e.cat,
                    name: e.name,
                    op: "",
                    start: e.start_ns,
                    dur: e.dur_ns,
                    children: 0,
                    forced: None,
                }),
        )
        .collect();
    // Parents before children: earlier start first, longer first on a
    // tie, and a bench span before an engine span it coincides with.
    nodes.sort_by(|a, b| {
        a.start
            .cmp(&b.start)
            .then(b.dur.cmp(&a.dur))
            .then((a.cat != "bench").cmp(&(b.cat != "bench")))
    });

    let mut stack: Vec<usize> = Vec::new();
    for i in 0..nodes.len() {
        while let Some(&top) = stack.last() {
            if nodes[top].start + nodes[top].dur <= nodes[i].start {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = stack.last() {
            nodes[parent].children += nodes[i].dur;
            if nodes[i].op.is_empty() {
                nodes[i].op = nodes[parent].op;
            }
            let p = &nodes[parent];
            nodes[i].forced = p
                .forced
                .or(((p.cat, p.name) == ("maintain", "rederive")).then_some("maintain.rederive_s"));
        }
        stack.push(i);
    }

    let mut ledger = Ledger::default();
    for layer in LAYERS {
        ledger.layers.insert(layer, 0.0);
    }
    for n in &nodes {
        let self_s = n.dur.saturating_sub(n.children) as f64 * 1e-9;
        if let Some(layer) = n.forced.or_else(|| layer_of(n.cat, n.name)) {
            *ledger.layers.get_mut(layer).expect("every layer is listed") += self_s;
            *ledger.by_op.entry((layer, n.op)).or_insert(0.0) += self_s;
        }
        if n.cat == "bench" {
            ledger.traced_wall_s += n.dur as f64 * 1e-9;
        }
    }
    ledger.unattributed_s = ledger.traced_wall_s - ledger.layers.values().sum::<f64>();
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cat: &'static str, name: &'static str, start: u64, dur: u64) -> Event {
        Event {
            cat,
            name,
            start_ns: start,
            dur_ns: dur,
            track: 0,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_times_subtract_direct_children_only() {
        let calls = [CallSpan {
            call: "run",
            op: "q",
            start_ns: 0,
            dur_ns: 1000,
        }];
        let events = [
            ev("eval", "run", 10, 980),
            ev("eval", "lint", 20, 30),
            ev("eval", "stratum", 100, 800),
            ev("fixpoint", "iteration", 110, 500),
            ev("fixpoint", "rule-pass", 120, 300),
            ev("eval", "prune", 700, 150),
            ev("maintain", "rederive", 860, 30),
            ev("fixpoint", "rule-pass", 865, 20),
        ];
        let l = fold(&calls, &events);
        let ns = |layer: &str| (l.layers[layer] * 1e9).round() as u64;
        assert_eq!(ns("engine.join_s"), 300);
        assert_eq!(ns("engine.merge_s"), 200);
        assert_eq!(ns("prune.wall_s"), 150);
        assert_eq!(ns("engine.lint_s"), 30);
        // eval/run self (980 − lint − stratum) + bench/run self (20).
        assert_eq!(ns("engine.export_s"), 150 + 20);
        assert_eq!((l.traced_wall_s * 1e9).round() as u64, 1000);
        // A rule pass inside an over-delete is maintenance work.
        assert_eq!(ns("maintain.rederive_s"), 30);
        assert_eq!(
            (l.layer_in("maintain.rederive_s", "q") * 1e9).round() as u64,
            30
        );
        // Unattributed: the stratum's own 800 − 500 − 150 − 30 = 120.
        assert_eq!((l.unattributed_s * 1e9).round() as i64, 120);
    }
}
