//! Shared helpers for the experiment harnesses.

use acn_overlay::Ring;

/// A deterministic ring with `n` random-id nodes.
#[must_use]
pub fn seeded_ring(n: usize, seed: u64) -> Ring {
    let mut ring = Ring::new();
    let mut s = seed;
    for _ in 0..n {
        ring.add_random_node(&mut s);
    }
    ring
}

/// A tiny deterministic RNG for workloads.
#[derive(Debug, Clone)]
pub struct Lcg(pub u64);

impl Lcg {
    /// The next pseudo-random `u64`.
    ///
    /// Named `next` as RNG convention; this is not an `Iterator`.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// A pseudo-random index below `n` (which must be positive).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() as usize) % n
    }
}

/// A plain-text table printer used by every experiment.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    #[must_use]
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
        .normalize()
    }

    fn normalize(mut self) -> Self {
        if self.header.is_empty() {
            self.header = vec![String::new()];
        }
        self
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        self.rows.push(cells.to_vec());
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", cell, width = widths.get(i).copied().unwrap_or(0)));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

/// Renders a titled experiment section.
#[must_use]
pub fn section(title: &str, body: &str) -> String {
    format!("\n=== {title} ===\n{body}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["N", "value"]);
        t.row(&["8".into(), "1.25".into()]);
        t.row(&["1024".into(), "0.5".into()]);
        let s = t.render();
        assert!(s.contains("   N  value"));
        assert!(s.contains("1024"));
    }

    #[test]
    fn lcg_is_deterministic() {
        let mut a = Lcg(1);
        let mut b = Lcg(1);
        for _ in 0..10 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn seeded_ring_size() {
        assert_eq!(seeded_ring(17, 3).len(), 17);
    }
}
