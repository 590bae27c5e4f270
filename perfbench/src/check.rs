//! The correctness oracle: every served answer list must equal the
//! in-process evaluation over the generation that served it, and a
//! request repeated on an unchanged corpus must return the same bytes.

use std::collections::HashMap;
use std::time::Instant;

use crate::drive::Cycle;
use crate::inproc::{self, Engine};
use crate::wire::Hit;
use crate::workload::QuerySpec;

/// Correctness accounting over every query reply a run checked.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: usize,
    pub failed: usize,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

impl Checks {
    fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.notes.len() < 5 {
                self.notes.push(p);
            }
        }
    }
}

/// Checks replies against one untraced engine per corpus state.
pub struct Verifier<'c> {
    engines: Vec<Engine<'c>>,
    specs: &'c [QuerySpec],
    expected: HashMap<(usize, usize), Vec<Hit>>,
    first_body: HashMap<(usize, usize), u64>,
    pub checks: Checks,
}

impl<'c> Verifier<'c> {
    /// `engines[s]` evaluates over corpus state `s`.
    pub fn new(engines: Vec<Engine<'c>>, specs: &'c [QuerySpec]) -> Self {
        Verifier {
            engines,
            specs,
            expected: HashMap::new(),
            first_body: HashMap::new(),
            checks: Checks::default(),
        }
    }

    fn expected(&mut self, state: usize, spec: usize) -> Result<&[Hit], String> {
        if !self.expected.contains_key(&(state, spec)) {
            let hits = self.engines[state].run(&self.specs[spec], None)?.hits;
            self.expected.insert((state, spec), hits);
        }
        Ok(&self.expected[&(state, spec)])
    }

    /// Check one reply served from corpus state `state`, or from any
    /// state when a reload overlapped the request (`None`). `body` keys
    /// the reply's parsed answers in `bodies`.
    pub fn check(
        &mut self,
        spec: usize,
        state: Option<usize>,
        ok: bool,
        body: u64,
        bodies: &HashMap<u64, Vec<Hit>>,
    ) -> Result<(), String> {
        let problem = self.problem(spec, state, ok, body, bodies)?;
        self.checks.record(problem);
        Ok(())
    }

    fn problem(
        &mut self,
        spec: usize,
        state: Option<usize>,
        ok: bool,
        body: u64,
        bodies: &HashMap<u64, Vec<Hit>>,
    ) -> Result<Option<String>, String> {
        let q = &self.specs[spec];
        if !ok {
            return Ok(Some(format!("{q:?}: reply was not a complete ok")));
        }
        let served = &bodies[&body];
        let Some(state) = state else {
            for s in 0..self.engines.len() {
                if self.expected(s, spec)? == served.as_slice() {
                    return Ok(None);
                }
            }
            return Ok(Some(format!("{q:?}: answers match no corpus state")));
        };
        if let Some(d) = inproc::diff(served, self.expected(state, spec)?) {
            return Ok(Some(format!("{q:?}: {d}")));
        }
        let first = *self.first_body.entry((state, spec)).or_insert(body);
        Ok((first != body).then(|| format!("{q:?}: answer bytes changed on a repeat")))
    }
}

/// The corpus state that served a request outstanding from `sent` to
/// `done`, or `None` when a reload was in progress at some point of it.
pub fn state_at(cycles: &[Cycle], sent: Instant, done: Instant) -> Option<usize> {
    let mut state = 0;
    for c in cycles {
        if c.reload_sent <= done && c.reload_acked >= sent {
            return None;
        }
        if c.reload_acked < sent {
            state = c.state;
        }
    }
    Some(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use crate::workload::{self, Workload};
    use std::time::Duration;
    use xfrag_doc::{encode_segment, parse_str, Collection, SegmentIndex};

    #[test]
    fn reload_overlap_makes_the_state_ambiguous() {
        let t0 = Instant::now();
        let t = |ms: u64| t0 + Duration::from_millis(ms);
        let cycle = |sent, acked, state| Cycle {
            commit_ms: 1.0,
            reload_ms: 1.0,
            reload_sent: t(sent),
            reload_acked: t(acked),
            state,
        };
        let cycles = [cycle(100, 110, 1), cycle(200, 210, 0)];
        assert_eq!(state_at(&cycles, t(10), t(20)), Some(0));
        assert_eq!(state_at(&cycles, t(120), t(150)), Some(1));
        assert_eq!(state_at(&cycles, t(95), t(105)), None);
        assert_eq!(state_at(&cycles, t(105), t(120)), None);
        assert_eq!(state_at(&cycles, t(250), t(260)), Some(0));
    }

    #[test]
    fn verifier_flags_wrong_changed_and_failed_replies() {
        let c = Corpus::new(3);
        let coll = |version: u64| {
            let doc = parse_str(&c.xml(0, version)).unwrap();
            let seg = SegmentIndex::from_bytes(&encode_segment(&doc)).unwrap();
            let mut coll = Collection::new();
            coll.add_with_segment("doc00.xfrg", doc, seg);
            coll
        };
        let (a, b) = (coll(0), coll(1));
        let stream = workload::stream(Workload::HotZipf, 3, 10);
        let mut v = Verifier::new(
            vec![Engine::new(&a, 8, None), Engine::new(&b, 8, None)],
            &stream.specs,
        );
        let spec = (0..stream.specs.len())
            .find(|&s| {
                let ea = v.expected(0, s).unwrap().to_vec();
                !ea.is_empty() && ea != v.expected(1, s).unwrap()
            })
            .expect("a query whose answers differ between the two versions");
        let right = v.expected(0, spec).unwrap().to_vec();
        let other = v.expected(1, spec).unwrap().to_vec();
        let mut wrong = right.clone();
        wrong[0].1.push(u32::MAX);
        let bodies: HashMap<u64, Vec<Hit>> =
            [(1, right), (2, wrong), (3, other.clone()), (4, other)].into();
        let mut failed_after = |state, ok, body| {
            v.check(spec, state, ok, body, &bodies).unwrap();
            v.checks.failed
        };
        assert_eq!(failed_after(Some(0), true, 1), 0, "right answer");
        assert_eq!(failed_after(Some(0), true, 1), 0, "same bytes again");
        assert_eq!(failed_after(Some(0), true, 2), 1, "wrong nodes");
        assert_eq!(failed_after(Some(0), false, 1), 2, "not ok");
        assert_eq!(
            failed_after(Some(1), true, 3),
            2,
            "the other state's answer"
        );
        assert_eq!(
            failed_after(Some(1), true, 4),
            3,
            "same answers, other bytes"
        );
        assert_eq!(
            failed_after(None, true, 3),
            3,
            "overlapping a reload: either state"
        );
        assert_eq!(
            failed_after(None, true, 2),
            4,
            "overlapping a reload: neither state"
        );
        assert_eq!(v.checks.attempted, 8);
    }
}
