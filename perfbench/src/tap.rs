//! A subscriber to the span records the crates already emit, used only in
//! traced runs. It sums the `sat.solve` spans by the CEGIS phase that
//! opened them, so solver work is attributed per query class without any
//! new spans inside the crates.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use chipmunk_trace::json::Json;

/// Solver work summed over the `sat.solve` spans seen while tapped.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SatTotals {
    pub solves: u64,
    pub conflicts: u64,
    pub decisions: u64,
    pub propagations: u64,
    /// Time inside every solve.
    pub solve_us: u64,
    /// Solves opened under `cegis.synth` that found a candidate.
    pub synth_us: u64,
    /// Solves opened under `cegis.verify`.
    pub verify_us: u64,
    /// Solves opened under `cegis.synth` that proved the sketch infeasible.
    pub unsat_us: u64,
}

impl SatTotals {
    pub fn add(&mut self, o: &SatTotals) {
        self.solves += o.solves;
        self.conflicts += o.conflicts;
        self.decisions += o.decisions;
        self.propagations += o.propagations;
        self.solve_us += o.solve_us;
        self.synth_us += o.synth_us;
        self.verify_us += o.verify_us;
        self.unsat_us += o.unsat_us;
    }
}

#[derive(Default)]
struct State {
    /// Open `cegis.synth` / `cegis.verify` spans by id.
    phases: HashMap<u64, &'static str>,
    /// Open `sat.solve` spans by id, with the phase that opened them.
    solves: HashMap<u64, Option<&'static str>>,
    totals: SatTotals,
}

/// An installed tap; dropping it unsubscribes.
pub struct Tap {
    id: u64,
    state: Arc<Mutex<State>>,
}

impl Tap {
    pub fn install() -> Tap {
        let state = Arc::new(Mutex::new(State::default()));
        let sink = state.clone();
        let id = chipmunk_trace::add_tee(Arc::new(move |rec: &Json| {
            let mut st = sink.lock().unwrap_or_else(|p| p.into_inner());
            observe(&mut st, rec);
        }));
        Tap { id, state }
    }

    pub fn totals(&self) -> SatTotals {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).totals
    }

    /// The totals since the last call, which starts them again at zero.
    pub fn take(&self) -> SatTotals {
        std::mem::take(&mut self.state.lock().unwrap_or_else(|p| p.into_inner()).totals)
    }
}

impl Drop for Tap {
    fn drop(&mut self) {
        chipmunk_trace::remove_tee(self.id);
    }
}

fn observe(st: &mut State, rec: &Json) {
    let (Some(kind), Some(span), Some(id)) = (
        rec.get("kind").and_then(Json::as_str),
        rec.get("span").and_then(Json::as_str),
        rec.get("id").and_then(Json::as_u64),
    ) else {
        return;
    };
    match (kind, span) {
        ("open", "cegis.synth") => {
            st.phases.insert(id, "synth");
        }
        ("open", "cegis.verify") => {
            st.phases.insert(id, "verify");
        }
        ("open", "sat.solve") => {
            let phase = rec
                .get("parent")
                .and_then(Json::as_u64)
                .and_then(|p| st.phases.get(&p).copied());
            st.solves.insert(id, phase);
        }
        ("close", "cegis.synth" | "cegis.verify") => {
            st.phases.remove(&id);
        }
        ("close", "sat.solve") => {
            let phase = st.solves.remove(&id).flatten();
            let field = |k: &str| {
                rec.get("fields")
                    .and_then(|f| f.get(k))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
            };
            let dur = rec.get("dur_us").and_then(Json::as_u64).unwrap_or(0);
            let unsat = rec
                .get("fields")
                .and_then(|f| f.get("result"))
                .and_then(Json::as_str)
                == Some("unsat");
            let t = &mut st.totals;
            t.solves += 1;
            t.conflicts += field("conflicts");
            t.decisions += field("decisions");
            t.propagations += field("propagations");
            t.solve_us += dur;
            match phase {
                Some("synth") if unsat => t.unsat_us += dur,
                Some("synth") => t.synth_us += dur,
                Some("verify") => t.verify_us += dur,
                _ => {}
            }
        }
        _ => {}
    }
}
