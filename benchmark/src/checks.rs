//! Output checks. Every operation the benchmark issues and every invariant
//! it verifies is one *attempt*; a panic caught around an operation, a wrong
//! result or a violated invariant is one *failure*. `failed / attempted` is
//! the run's `failed_frac`, and a run with any failure reports
//! `correct: false`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rpq_graph::Neighbor;

/// Attempt / failure counts of a run, with the first few failure messages.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

/// Failure messages kept for the report; later ones are only counted.
const KEPT_MESSAGES: usize = 8;

impl Tally {
    /// Counts one attempt and, on `Err`, one failure.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            if self.messages.len() < KEPT_MESSAGES {
                self.messages.push(format!("{what}: {msg}"));
            }
        }
    }

    /// Counts an invariant that either holds or does not.
    pub fn invariant(&mut self, what: &str, holds: bool) {
        self.record(
            what,
            if holds {
                Ok(())
            } else {
                Err("violated".into())
            },
        );
    }

    /// Runs one library operation, catching a panic so one bad operation is
    /// one failure instead of the end of the run. `None` means it panicked
    /// (already counted as a failed attempt); on `Some` the caller still
    /// owes the attempt a verdict via [`Tally::record`].
    pub fn guard<T>(&mut self, what: &str, op: impl FnOnce() -> T) -> Option<T> {
        match catch_unwind(AssertUnwindSafe(op)) {
            Ok(v) => Some(v),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "panic".into());
                self.record(what, Err(format!("panicked: {msg}")));
                None
            }
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Structure of one top-k answer: at most `k` results (exactly `k` when
/// `exact_len`), ascending by `(dist, id)`, no id twice, every id below `n`.
pub fn check_top_k(res: &[Neighbor], k: usize, n: usize, exact_len: bool) -> Result<(), String> {
    if res.len() > k || (exact_len && res.len() != k) {
        return Err(format!("{} results for k = {k}", res.len()));
    }
    for w in res.windows(2) {
        let ord = w[0].dist.total_cmp(&w[1].dist).then(w[0].id.cmp(&w[1].id));
        if ord != std::cmp::Ordering::Less {
            return Err(format!(
                "not strictly ascending by (dist, id): ({}, {}) then ({}, {})",
                w[0].dist, w[0].id, w[1].dist, w[1].id
            ));
        }
    }
    for (i, r) in res.iter().enumerate() {
        if r.id as usize >= n {
            return Err(format!("id {} out of range (n = {n})", r.id));
        }
        if res[..i].iter().any(|p| p.id == r.id) {
            return Err(format!("id {} returned twice", r.id));
        }
    }
    Ok(())
}

/// Two answers agree id for id and distance bit for bit.
pub fn check_same(got: &[Neighbor], want: &[Neighbor]) -> Result<(), String> {
    let same = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.id == b.id && a.dist.to_bits() == b.dist.to_bits());
    if same {
        Ok(())
    } else {
        Err(format!(
            "differs from the reference answer: {got:?} vs {want:?}"
        ))
    }
}

/// Ids of each answer, the shape `GroundTruth::recall` takes.
pub fn ids(results: &[Vec<Neighbor>]) -> Vec<Vec<u32>> {
    results
        .iter()
        .map(|r| r.iter().map(|n| n.id).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nb(id: u32, dist: f32) -> Neighbor {
        Neighbor { id, dist }
    }

    #[test]
    fn top_k_structure() {
        let good = [nb(3, 1.0), nb(5, 1.0), nb(1, 2.0)];
        assert!(check_top_k(&good, 3, 10, true).is_ok());
        assert!(check_top_k(&good, 4, 10, false).is_ok());
        assert!(check_top_k(&good, 4, 10, true).is_err(), "short answer");
        assert!(check_top_k(&good, 2, 10, false).is_err(), "long answer");
        assert!(check_top_k(&good, 3, 5, true).is_err(), "id out of range");
        assert!(
            check_top_k(&[nb(5, 1.0), nb(3, 1.0)], 2, 10, true).is_err(),
            "tie order"
        );
        assert!(
            check_top_k(&[nb(3, 1.0), nb(3, 1.0)], 2, 10, true).is_err(),
            "duplicate"
        );
        assert!(
            check_top_k(&[nb(3, 2.0), nb(4, 1.0)], 2, 10, true).is_err(),
            "unsorted"
        );
        assert!(
            check_top_k(&[nb(3, 1.0), nb(4, 1.5), nb(3, 2.0)], 3, 10, true).is_err(),
            "same id at two distances"
        );
    }

    #[test]
    fn same_is_bitwise_on_distances() {
        let a = [nb(1, 0.5), nb(2, 0.75)];
        assert!(check_same(&a, &a).is_ok());
        assert!(check_same(&a, &[nb(1, 0.5), nb(2, 0.75 + f32::EPSILON)]).is_err());
        assert!(check_same(&a, &a[..1]).is_err());
    }

    #[test]
    fn tally_counts_panics_as_failures() {
        let mut t = Tally::default();
        assert_eq!(t.guard("fine", || 7), Some(7));
        t.record("fine", Ok(()));
        let r: Option<()> = t.guard("boom", || panic!("singular matrix"));
        assert!(r.is_none());
        t.invariant("holds", true);
        t.invariant("broken", false);
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert!(t.messages[0].contains("singular matrix"));
        assert_eq!(t.failed_frac(), 0.5);
    }
}
