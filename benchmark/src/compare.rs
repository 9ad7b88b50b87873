//! `acn-perf compare A.json B.json`: one row per (workload, judged
//! metric) with both values, the bound and a verdict. A is the
//! baseline, B the candidate.

use std::fmt;

use crate::catalog::{self, Better, END_TO_END, PER_LAYER};
use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The slices of a run span more than the bound and the two runs
    /// overlap: the benchmark cannot tell them apart.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// One run's value of a metric, with the `[min, max]` of its slices
/// where it was reported as their median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub spread: Option<(f64, f64)>,
}

impl Reading {
    fn range(&self) -> (f64, f64) {
        self.spread.unwrap_or((self.value, self.value))
    }

    fn spread_share(&self) -> f64 {
        let (min, max) = self.range();
        if self.value == 0.0 {
            0.0
        } else {
            (max - min) / self.value.abs()
        }
    }
}

/// A `setup_s` of a few milliseconds moves by a quarter on scheduler
/// jitter alone: it is worse only beyond its bound or this, whichever
/// is larger.
const SETUP_FLOOR_S: f64 = 0.020;

/// Judges candidate `b` against baseline `a` for a metric with the
/// given direction and bound (a share of the baseline, or `floor` in the
/// metric's unit if that is more).
pub fn judge(a: Reading, b: Reading, better: Better, bound: f64, floor: f64) -> Verdict {
    let (a_lo, a_hi) = a.range();
    let (b_lo, b_hi) = b.range();
    let overlap = a_lo <= b_hi && b_lo <= a_hi;
    if a.value != b.value && overlap && (a.spread_share() > bound || b.spread_share() > bound) {
        return Verdict::Unresolved;
    }
    // How much worse the candidate is, as a share of the baseline.
    let worse_by = match better {
        Better::Lower => b.value - a.value,
        Better::Higher => a.value - b.value,
    };
    let allowed = (bound * a.value.abs()).max(floor);
    if worse_by > allowed {
        Verdict::Worse
    } else if -worse_by > allowed && worse_by != 0.0 {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn reading(run: &Json, metric: &str) -> Option<Reading> {
    let value = run.get("metrics")?.get(metric)?.as_f64()?;
    let spread = run
        .get("spread")
        .and_then(|s| s.get(metric))
        .and_then(Json::as_arr)
        .and_then(|pair| Some((pair.first()?.as_f64()?, pair.get(1)?.as_f64()?)));
    Some(Reading { value, spread })
}

/// The two runs a result file may hold per workload.
const KINDS: [&str; 2] = ["untraced", "traced"];

/// A metric's reading from the untraced run if it has one, else from
/// the traced run.
fn reading_of(entry: &Json, metric: &str) -> Option<Reading> {
    KINDS
        .iter()
        .find_map(|kind| reading(entry.get(kind)?, metric))
}

/// The comparison table and whether the candidate may pass.
pub struct Comparison {
    pub table: String,
    pub pass: bool,
}

/// Compares two result files written by `acn-perf run`.
pub fn compare(a: &Json, b: &Json) -> Result<Comparison, String> {
    let workloads = |doc: &Json| doc.get("workloads").and_then(Json::as_obj).cloned();
    let (wa, wb) = (
        workloads(a).ok_or("A has no \"workloads\" object")?,
        workloads(b).ok_or("B has no \"workloads\" object")?,
    );
    let mut table = format!(
        "{:<16} {:<26} {:>16} {:>16} {:>7} {:<7} {}\n",
        "workload", "metric", "A", "B", "bound", "better", "verdict"
    );
    let mut pass = true;
    let mut rows = 0usize;
    for w in catalog::WORKLOADS {
        let (Some(ea), Some(eb)) = (wa.get(w.name), wb.get(w.name)) else {
            continue;
        };
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let (Some(bound), Some(va), Some(vb)) =
                (m.bound, reading_of(ea, m.name), reading_of(eb, m.name))
            else {
                continue;
            };
            // 0 on both sides of a bounded metric: the workload does not
            // emit it (`failed_share`, bound 0, is always shown).
            if va.value == 0.0 && vb.value == 0.0 && bound > 0.0 {
                continue;
            }
            let floor = if m.name == "setup_s" {
                SETUP_FLOOR_S
            } else {
                0.0
            };
            let verdict = judge(va, vb, m.better, bound, floor);
            pass &= verdict != Verdict::Worse;
            rows += 1;
            table.push_str(&format!(
                "{:<16} {:<26} {:>16.6} {:>16.6} {:>6.0}% {:<7} {}\n",
                w.name,
                m.name,
                va.value,
                vb.value,
                bound * 100.0,
                m.better.as_str(),
                verdict
            ));
        }
        for kind in KINDS {
            let (Some(ra), Some(rb)) = (ea.get(kind), eb.get(kind)) else {
                continue;
            };
            // Same seed and budget: every exact count must be identical.
            if ["seed", "seconds"].iter().any(|k| ra.get(k) != rb.get(k)) {
                continue;
            }
            let exact = |run: &Json| {
                run.get("exact")
                    .and_then(Json::as_obj)
                    .cloned()
                    .unwrap_or_default()
            };
            let (xa, xb) = (exact(ra), exact(rb));
            for name in xa.keys().chain(xb.keys().filter(|k| !xa.contains_key(*k))) {
                if xa.get(name) != xb.get(name) {
                    pass = false;
                    table.push_str(&format!(
                        "{:<16} exact {:<20} {:>16} {:>16}          differs\n",
                        w.name,
                        name,
                        xa.get(name).map_or("-".into(), Json::render),
                        xb.get(name).map_or("-".into(), Json::render),
                    ));
                }
            }
        }
    }
    if rows == 0 {
        return Err("the two files have no workload in common".into());
    }
    Ok(Comparison { table, pass })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain(value: f64) -> Reading {
        Reading {
            value,
            spread: None,
        }
    }

    #[test]
    fn within_the_bound_is_same_beyond_it_is_better_or_worse() {
        use Better::{Higher, Lower};
        assert_eq!(
            judge(plain(100.0), plain(109.0), Lower, 0.10, 0.0),
            Verdict::Same
        );
        assert_eq!(
            judge(plain(100.0), plain(111.0), Lower, 0.10, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            judge(plain(100.0), plain(89.0), Lower, 0.10, 0.0),
            Verdict::Better
        );
        assert_eq!(
            judge(plain(100.0), plain(89.0), Higher, 0.10, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            judge(plain(100.0), plain(111.0), Higher, 0.10, 0.0),
            Verdict::Better
        );
    }

    #[test]
    fn a_zero_bound_means_must_not_rise() {
        assert_eq!(
            judge(plain(0.0), plain(0.0), Better::Lower, 0.0, 0.0),
            Verdict::Same
        );
        assert_eq!(
            judge(plain(0.0), plain(1e-6), Better::Lower, 0.0, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            judge(plain(0.5), plain(0.25), Better::Lower, 0.0, 0.0),
            Verdict::Better
        );
    }

    #[test]
    fn a_floor_widens_the_bound_of_a_small_baseline() {
        let (a, b) = (plain(0.002), plain(0.004));
        assert_eq!(judge(a, b, Better::Lower, 0.25, 0.0), Verdict::Worse);
        assert_eq!(judge(a, b, Better::Lower, 0.25, 0.020), Verdict::Same);
        assert_eq!(
            judge(plain(0.1), plain(0.13), Better::Lower, 0.25, 0.020),
            Verdict::Worse
        );
    }

    #[test]
    fn wide_overlapping_slices_are_unresolved_not_same() {
        let a = Reading {
            value: 100.0,
            spread: Some((80.0, 120.0)),
        };
        let b = Reading {
            value: 85.0,
            spread: Some((84.0, 86.0)),
        };
        assert_eq!(judge(a, b, Better::Higher, 0.10, 0.0), Verdict::Unresolved);
        // Disjoint runs resolve even when one of them is noisy.
        let c = Reading {
            value: 60.0,
            spread: Some((59.0, 61.0)),
        };
        assert_eq!(judge(a, c, Better::Higher, 0.10, 0.0), Verdict::Worse);
        // Tight runs resolve.
        let d = Reading {
            value: 100.0,
            spread: Some((99.0, 101.0)),
        };
        assert_eq!(judge(d, b, Better::Higher, 0.10, 0.0), Verdict::Worse);
    }

    fn file(tokens_per_s: f64, delivered: u64) -> Json {
        let text = format!(
            "{{\"workloads\":{{\"dist_steady\":{{\"untraced\":{{\"seed\":7,\"seconds\":8,\
             \"metrics\":{{\"tokens_per_s\":{tokens_per_s},\"failed_share\":0}},\
             \"spread\":{{\"tokens_per_s\":[{},{}]}},\
             \"exact\":{{\"sim.messages_delivered\":{delivered}}}}}}}}}}}",
            tokens_per_s * 0.99,
            tokens_per_s * 1.01
        );
        Json::parse(&text).unwrap()
    }

    #[test]
    fn files_compare_row_by_row_and_exact_counts_must_match() {
        let same = compare(&file(40_000.0, 5), &file(40_500.0, 5)).unwrap();
        assert!(same.pass, "{}", same.table);
        assert!(same.table.contains("same"));
        let slower = compare(&file(40_000.0, 5), &file(30_000.0, 5)).unwrap();
        assert!(!slower.pass && slower.table.contains("worse"));
        let drifted = compare(&file(40_000.0, 5), &file(40_000.0, 6)).unwrap();
        assert!(!drifted.pass && drifted.table.contains("differs"));
        assert!(compare(&file(1.0, 1), &Json::parse("{\"workloads\":{}}").unwrap()).is_err());
    }
}
