//! Operation accounting and the correctness gate.

use crate::inputs::Inputs;
use crate::loadgen::{Answer, Sample};
use crate::stack::TOP_K;
use serve::ModelSnapshot;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Snapshots by version, as the writer saw each one published.
pub type Snapshots = BTreeMap<u64, Arc<ModelSnapshot>>;

#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
}

/// Sent / succeeded / failed per (phase, operation kind). A failed
/// operation is an error reply (an `overloaded` shed included), a wrong
/// answer, or a failed state check.
#[derive(Debug, Default)]
pub struct Ledger {
    rows: BTreeMap<(&'static str, &'static str), Counts>,
    errors: Vec<String>,
}

impl Ledger {
    pub fn count(&mut self, phase: &'static str, kind: &'static str, outcome: Result<(), String>) {
        let row = self.rows.entry((phase, kind)).or_default();
        row.sent += 1;
        match outcome {
            Ok(()) => row.ok += 1,
            Err(e) => {
                row.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(format!("{phase}/{kind}: {e}"));
                }
            }
        }
    }

    /// A state check: one operation that passes when `actual == expected`.
    pub fn check<T: PartialEq + std::fmt::Debug>(
        &mut self,
        phase: &'static str,
        what: &str,
        actual: T,
        expected: T,
    ) {
        let outcome = if actual == expected {
            Ok(())
        } else {
            Err(format!("{what}: got {actual:?}, expected {expected:?}"))
        };
        self.count(phase, "check", outcome);
    }

    pub fn attempted(&self) -> u64 {
        self.rows.values().map(|c| c.sent).sum()
    }

    pub fn failed(&self) -> u64 {
        self.rows.values().map(|c| c.failed).sum()
    }

    /// The accounting table and the first errors, for stderr.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<10} {:<8} {:>8} {:>8} {:>8}\n",
            "phase", "kind", "sent", "ok", "failed"
        );
        for ((phase, kind), c) in &self.rows {
            out += &format!(
                "{phase:<10} {kind:<8} {:>8} {:>8} {:>8}\n",
                c.sent, c.ok, c.failed
            );
        }
        for e in &self.errors {
            out += &format!("error: {e}\n");
        }
        out
    }
}

/// What `solo_topk` on `snapshot` answers for `row`, in wire form.
pub fn expected(snapshot: &ModelSnapshot, row: &[f32]) -> Vec<(String, u32)> {
    snapshot
        .solo_topk(row, TOP_K)
        .into_iter()
        .map(|(label, sim)| (label, sim.to_bits()))
        .collect()
}

/// Checks one answer against the snapshot of the version it names.
pub fn judge(answer: &Answer, row: &[f32], snapshots: &Snapshots) -> Result<(), String> {
    let (version, top) = answer;
    let snapshot = snapshots
        .get(version)
        .ok_or_else(|| format!("answered under unknown snapshot v{version}"))?;
    if *top == expected(snapshot, row) {
        Ok(())
    } else {
        Err(format!("answer under v{version} differs from solo_topk"))
    }
}

/// Judges every sample (two threads), returning one outcome per sample.
pub fn judge_all(
    samples: &[Sample],
    inputs: &Inputs,
    snapshots: &Snapshots,
) -> Vec<Result<(), String>> {
    let half = samples.len().div_ceil(2).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = samples
            .chunks(half)
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|s| match &s.outcome {
                            Ok(answer) => judge(answer, &inputs.query_row(s.id), snapshots),
                            Err(e) => Err(e.clone()),
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("verifier thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_counts_every_outcome() {
        let mut ledger = Ledger::default();
        ledger.count("open", "query", Ok(()));
        ledger.count("open", "query", Err("overloaded".into()));
        ledger.check("recover", "version", 3, 3);
        ledger.check("recover", "classes", 1, 2);
        assert_eq!(ledger.attempted(), 4);
        assert_eq!(ledger.failed(), 2);
        let open = ledger.rows[&("open", "query")];
        assert_eq!((open.sent, open.ok, open.failed), (2, 1, 1));
        assert!(ledger.render().contains("classes: got 1, expected 2"));
    }
}
