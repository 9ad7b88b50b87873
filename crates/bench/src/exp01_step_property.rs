//! E1 (Theorem 2.1): every cut of `T_w` is a counting network of
//! width `w`.
//!
//! Part A enumerates **all** cuts of `T_8` (65 of them) and drives each
//! with sequential tokens on adversarial input wires; the outputs must
//! be a global round-robin. Part B samples random cuts of larger trees
//! and checks the quiescent step property under adversarially
//! interleaved token schedules with live reconfiguration.

use acn_bitonic::step::is_step_sequence;
use acn_core::{LocalAdaptiveNetwork, TokenPos};
use acn_topology::{ComponentId, Cut, Tree, WiringStyle};

use crate::util::{section, Lcg, Table};

/// Runs the experiment and returns the rendered report.
#[must_use]
pub fn run() -> String {
    let mut table = Table::new(&["part", "w", "cuts", "tokens/cut", "violations"]);

    // Part A: exhaustive over T_8.
    let tree = Tree::new(8);
    let cuts = Cut::enumerate_all(&tree);
    let mut violations = 0usize;
    for cut in &cuts {
        let mut net = LocalAdaptiveNetwork::with_cut(8, cut.clone(), WiringStyle::Ahs);
        let mut rng = Lcg(0x5eed);
        for t in 0..200usize {
            let out = net.push(rng.below(8));
            if out != t % 8 {
                violations += 1;
            }
        }
    }
    table.row(&[
        "A (exhaustive, sequential)".into(),
        "8".into(),
        cuts.len().to_string(),
        "200".into(),
        violations.to_string(),
    ]);

    // Part B: random cuts of larger trees, interleaved tokens, live
    // splits and merges between token hops.
    for &w in &[16usize, 32, 64] {
        let tree = Tree::new(w);
        let mut violations = 0usize;
        let cut_count = 20;
        for seed in 0..cut_count {
            let mut rng = Lcg(seed as u64 * 7919 + 3);
            let mut net = LocalAdaptiveNetwork::new(w);
            let mut in_flight: Vec<TokenPos> = Vec::new();
            let mut injected = 0usize;
            for _ in 0..1500 {
                match rng.below(10) {
                    0 => {
                        let splittable: Vec<ComponentId> = net
                            .cut()
                            .leaves()
                            .iter()
                            .filter(|l| tree.info(l).map(|i| i.width >= 4).unwrap_or(false))
                            .cloned()
                            .collect();
                        if !splittable.is_empty() {
                            let pick = splittable[rng.below(splittable.len())];
                            // Deferred transfers (in-flight traffic) are
                            // expected; just retry later.
                            let _ = net.split(&pick);
                        }
                    }
                    1 => {
                        let parents: Vec<ComponentId> =
                            net.cut().leaves().iter().filter_map(|l| l.parent()).collect();
                        if !parents.is_empty() {
                            let pick = parents[rng.below(parents.len())];
                            let _ = net.merge(&pick);
                        }
                    }
                    2..=4 => {
                        in_flight.push(net.inject(rng.below(w)));
                        injected += 1;
                    }
                    _ => {
                        if !in_flight.is_empty() {
                            let i = rng.below(in_flight.len());
                            let next = net.advance(in_flight[i].clone());
                            if matches!(next, TokenPos::Exited(_)) {
                                in_flight.swap_remove(i);
                            } else {
                                in_flight[i] = next;
                            }
                        }
                    }
                }
            }
            while let Some(mut pos) = in_flight.pop() {
                while !matches!(pos, TokenPos::Exited(_)) {
                    pos = net.advance(pos);
                }
            }
            if !is_step_sequence(net.output_counts()) {
                violations += 1;
            }
            assert_eq!(net.total_exited() as usize, injected);
        }
        table.row(&[
            "B (random, interleaved+reconfig)".into(),
            w.to_string(),
            cut_count.to_string(),
            "~450".into(),
            violations.to_string(),
        ]);
    }

    section(
        "E1 / Theorem 2.1 — every cut counts",
        &format!(
            "{}\nExpected (paper): 0 violations everywhere.\n",
            table.render()
        ),
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn runs_clean() {
        let report = super::run();
        assert!(report.contains("violations"));
        // Every data row ends with 0 violations.
        for line in report
            .lines()
            .filter(|l| l.contains("(exhaustive") || l.contains("(random"))
        {
            assert!(line.trim_end().ends_with('0'), "violations found: {line}");
        }
    }
}
