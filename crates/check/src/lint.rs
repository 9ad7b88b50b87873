//! Workspace determinism/discipline lints (the `acn-lint` binary).
//!
//! Line-level scanning, no dependencies, no parser: the rules are
//! deliberately narrow so that zero findings is enforceable in CI and
//! every finding is actionable. Suppression is explicit and reasoned:
//! a finding on line *n* is waived by an annotation on line *n* or on
//! a comment line directly above it, of the form
//!
//! ```text
//! // lint: <rule>-ok(<non-empty reason>)
//! ```
//!
//! # Rules
//!
//! - **`hash`** — `HashMap`/`HashSet` in the *deterministic
//!   subsystems* (`crates/simnet/`, and `dist/`, `stabilize.rs`,
//!   `local.rs`, `concurrent.rs` under `crates/core/src/`). Hash
//!   iteration order leaks nondeterminism into seeded simulations and
//!   replayable explorer schedules; PR 1 fixed exactly this bug in the
//!   simulator's process table. Use `BTreeMap`/`BTreeSet`.
//! - **`relaxed`** — `Ordering::Relaxed` anywhere without a
//!   `relaxed-ok` justification. The model checker interprets
//!   orderings, so an unjustified `Relaxed` is either a latent bug or
//!   a missing one-line proof.
//! - **`std-sync`** — raw `std::sync::Mutex`/`RwLock`/`Condvar` where
//!   `parking_lot` (or the `SyncApi` layer) is the workspace standard.
//!   Guard types (`MutexGuard`, ...) are not flagged.
//! - **`snapshot`** — a hand-rolled published-snapshot cell
//!   (`AtomicPtr`, or an `RwLock<Arc<..>>` outside `crates/sync/`).
//!   The workspace's epoch-published snapshot primitive is
//!   `acn_sync::SyncSnapshot` (DESIGN.md §8): it is implemented once in
//!   `RealSync`, and `VirtualSync` models it with genuinely stale pins
//!   so the model checker explores the retry branches. A private
//!   re-implementation silently escapes that coverage. (The fast
//!   path's own `Relaxed` traversal atomics are *not* blanket-waived:
//!   each one carries a `relaxed-ok` proof line like any other.)
//! - **`determinism-seam`** — an ambient nondeterminism source
//!   (`SystemTime`, `Instant::now`, `thread_rng`/`rand::`,
//!   `RandomState`, entropy-seeded RNG constructors) inside an
//!   `impl Process for ...` block outside `crates/simnet/`, or anywhere
//!   in the dist protocol layers (`node.rs`, `wire.rs`, `reconfig.rs`,
//!   `handoff.rs`, `rescue.rs`, `view.rs` under
//!   `crates/core/src/dist/` — `NodeProc`'s `Process` impl only
//!   dispatches into them). Protocol
//!   handlers (`on_message`/`on_timer`) must be deterministic
//!   functions of `(state, event, ctx)`: the simulator owns the clock
//!   and the seeded RNG, and the distributed schedule explorer's
//!   soundness argument (one interleaving per DPOR equivalence class)
//!   collapses if a handler draws from an ambient source whose value
//!   depends on wall time or on global draw order. Seeded state
//!   carried *in* the process struct is fine — the rule flags the
//!   ambient sources, not arithmetic on stored seeds.
//! - **`ground-truth`** — in those same dist protocol layers, a line
//!   that reaches through a `World` borrow for what only the harness
//!   knows: `host_of(`, the `.crashed` log, or the authoritative `ring`.
//!   A real node sees its local `View` and nothing else; ownership on a protocol path resolves through
//!   `View::owner_of_name`. `Deployment` (`deploy.rs`) and tests are the
//!   harness and may read all of it.
//! - **`trace-determinism`** — an ambient nondeterminism source on a
//!   span-construction line (`Span::new` / `open_trace` /
//!   `close_trace`), or anywhere inside the observability layer itself
//!   (`crates/trace/`, `crates/telemetry/`). Span timestamps and ids
//!   must come through the `SyncApi`/simnet clock seam
//!   (`monotonic_now`, `ctx.now()`): the determinism regression test
//!   compares span DAGs across same-seed runs, and an ambient clock or
//!   RNG on the trace path makes them diverge. The seam implementation
//!   (`crates/sync/`) is the one place the ambient clock is allowed.
//! - **`unsafe-audit`** — an `unsafe` block/fn/impl without a
//!   `// safety:` justification on the same line or the comment line
//!   directly above. The workspace is `#![forbid(unsafe_code)]`
//!   almost everywhere; where unsafety is ever introduced, the
//!   invariant argument must ride next to it. (This rule uses the
//!   `// safety:` idiom rather than the `lint: ...-ok(...)` form, to
//!   match what rustdoc/clippy conventions already expect reviewers
//!   to read.)

use std::path::{Path, PathBuf};

/// Pattern constants are assembled with `concat!` so this file does
/// not itself contain the flagged token sequences.
const RELAXED: &str = concat!("Ordering::", "Relaxed");
const UNSAFE_KW: &str = concat!("unsa", "fe");
const UNSAFE_RULE: &str = concat!("unsa", "fe-audit");
const SAFETY_MARKER: &str = concat!("// ", "safety:");
const STD_SYNC_TYPES: [&str; 3] = ["Mutex", "RwLock", "Condvar"];
const STD_SYNC_PREFIX: &str = concat!("std::", "sync::");
const HASH_TYPES: [&str; 2] = [concat!("Hash", "Map"), concat!("Hash", "Set")];
const SNAPSHOT_TYPES: [&str; 2] = [concat!("Atomic", "Ptr"), concat!("RwLock<", "Arc<")];
/// Ambient nondeterminism sources forbidden inside `Process` impls
/// (assembled so this file's own scan stays clean).
const NONDET_SOURCES: [&str; 6] = [
    concat!("System", "Time"),
    concat!("Instant::", "now"),
    concat!("thread_", "rng"),
    concat!("rand", "::"),
    concat!("Random", "State"),
    concat!("from_", "entropy"),
];
/// Span-construction tokens that put a line on the trace path (the
/// `trace-determinism` rule's per-line trigger outside the
/// observability crates).
const TRACE_TOKENS: [&str; 3] = [
    concat!("Span::", "new"),
    concat!("open_", "trace"),
    concat!("close_", "trace"),
];

/// Files (by workspace-relative path) where hash-ordered collections
/// are forbidden.
fn in_deterministic_subsystem(path: &str) -> bool {
    path.starts_with("crates/simnet/")
        || path.starts_with("crates/core/src/dist/")
        || [
            "crates/core/src/stabilize.rs",
            "crates/core/src/local.rs",
            "crates/core/src/concurrent.rs",
        ]
        .contains(&path)
}

/// The dist protocol layers: every line is handler code (the
/// `determinism-seam` region) and sees the shared `World` only as
/// write-only observation (the `ground-truth` rule).
fn in_dist_protocol_layer(path: &str) -> bool {
    path.strip_prefix("crates/core/src/dist/").is_some_and(|file| {
        ["node.rs", "wire.rs", "reconfig.rs", "handoff.rs", "rescue.rs", "view.rs"].contains(&file)
    })
}

/// Harness ground truth as protocol code would reach it: the two
/// `World` names no node could know, and the authoritative ring off a
/// borrow (`borrow().ring`, or `w.ring` as a whole token — it is a
/// substring of `view.ring`). `View`'s own `self.ring` and
/// `view.ring()` are a node's *belief* and do not match.
const GROUND_TRUTH: [(&str, bool); 4] =
    [("host_of(", false), (".crashed", false), ("().ring", false), ("w.ring", true)];

/// The one place a snapshot cell may be implemented by hand: the
/// `SyncApi` layer itself (`RealSnapshot` lives here).
fn in_sync_layer(path: &str) -> bool {
    path.starts_with("crates/sync/")
}

/// The observability layer, where *every* line is on the trace path
/// for the `trace-determinism` rule.
fn in_observability_layer(path: &str) -> bool {
    path.starts_with("crates/trace/") || path.starts_with("crates/telemetry/")
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`hash`, `relaxed`, `std-sync`, `snapshot`,
    /// `determinism-seam`, `ground-truth`, `trace-determinism`,
    /// `unsafe-audit`).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// What is wrong and what to do.
    pub message: String,
    /// The offending line, trimmed.
    pub snippet: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.path, self.line, self.rule, self.message, self.snippet
        )
    }
}

/// Whether `line` (or `above`) waives `rule` via `// lint: <rule>-ok(reason)`.
fn annotated(rule: &str, line: &str, above: Option<&str>) -> bool {
    let marker = format!("lint: {rule}-ok(");
    let has = |l: &str| {
        l.find(&marker).is_some_and(|start| {
            let rest = &l[start + marker.len()..];
            // Require a non-empty reason before the closing paren.
            rest.find(')').is_some_and(|end| !rest[..end].trim().is_empty())
        })
    };
    has(line) || above.is_some_and(|l| is_comment_line(l) && has(l))
}

/// Whether `line` (or the comment line `above`) carries a
/// `// safety: <non-empty justification>` for the `unsafe-audit`
/// rule.
fn safety_justified(line: &str, above: Option<&str>) -> bool {
    let has = |l: &str| {
        l.find(SAFETY_MARKER)
            .is_some_and(|start| !l[start + SAFETY_MARKER.len()..].trim().is_empty())
    };
    has(line) || above.is_some_and(|l| is_comment_line(l) && has(l))
}

fn is_comment_line(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("//") || t.starts_with("//!") || t.starts_with("///")
}

/// Whether `haystack` contains `needle` bounded by non-identifier
/// characters on *both* sides (so `MyProcess` does not match
/// `Process`).
fn token_bounded(haystack: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = haystack[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let pre = haystack[..start]
            .chars()
            .next_back()
            .is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
        let post = haystack[end..]
            .chars()
            .next()
            .is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
        if pre && post {
            return true;
        }
        from = end;
    }
    false
}

/// Whether `haystack` contains `needle` NOT immediately followed by an
/// identifier character (so `MutexGuard` does not match `Mutex`).
fn contains_token(haystack: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = haystack[from..].find(needle) {
        let end = from + pos + needle.len();
        let boundary = haystack[end..]
            .chars()
            .next()
            .is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
        if boundary {
            return true;
        }
        from = end;
    }
    false
}

/// Whether a line uses a raw `std::sync` lock type (definition, `use`
/// import, or path expression).
fn uses_std_sync_lock(line: &str) -> bool {
    for ty in STD_SYNC_TYPES {
        let direct = format!("{STD_SYNC_PREFIX}{ty}");
        if contains_token(line, &direct) {
            return true;
        }
    }
    // Brace imports: `use std::sync::{Arc, Mutex};`
    if let Some(pos) = line.find(&format!("{STD_SYNC_PREFIX}{{")) {
        let group = &line[pos..];
        let group = group.split('}').next().unwrap_or(group);
        for ty in STD_SYNC_TYPES {
            if contains_token(group, ty) {
                return true;
            }
        }
    }
    false
}

/// Lints one source file (workspace-relative `path`, full `source`).
#[must_use]
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let lines: Vec<&str> = source.lines().collect();
    let mut depth: i64 = 0;
    let restricted = in_deterministic_subsystem(path);
    // Brace depth at which the current `impl Process for ...` block
    // opened (the determinism-seam region), if any.
    let mut proc_impl: Option<i64> = None;
    let sim_layer = path.starts_with("crates/simnet/");
    let protocol = in_dist_protocol_layer(path);

    for (idx, &line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let above = if idx > 0 { Some(lines[idx - 1]) } else { None };
        let snippet = line.trim().to_string();
        if is_comment_line(line) {
            continue;
        }

        if proc_impl.is_none()
            && line.trim_start().starts_with("impl")
            && token_bounded(line, "Process")
            && line.contains(" for ")
        {
            proc_impl = Some(depth);
        }

        if (proc_impl.is_some() || protocol) && !sim_layer {
            for src in NONDET_SOURCES {
                if line.contains(src) && !annotated("determinism-seam", line, above) {
                    findings.push(Finding {
                        rule: "determinism-seam",
                        path: path.to_string(),
                        line: lineno,
                        message: format!(
                            "ambient nondeterminism ({src}) in protocol handler code: handlers \
                             must be deterministic functions of (state, event, ctx) — take \
                             time and randomness from the simulator seam (ctx/now, stored \
                             seeds) or annotate `// lint: determinism-seam-ok(reason)`"
                        ),
                        snippet: snippet.clone(),
                    });
                    break;
                }
            }
        }

        if protocol {
            let hit = GROUND_TRUTH.iter().find(|(token, whole)| {
                if *whole { token_bounded(line, token) } else { line.contains(token) }
            });
            if let Some((token, _)) = hit.filter(|_| !annotated("ground-truth", line, above)) {
                findings.push(Finding {
                    rule: "ground-truth",
                    path: path.to_string(),
                    line: lineno,
                    message: format!(
                        "harness ground truth (`{token}`) read in protocol code: a node knows \
                         only its local view — resolve ownership through `View`, or annotate \
                         `// lint: ground-truth-ok(reason)`"
                    ),
                    snippet: snippet.clone(),
                });
            }
        }

        // Trace determinism: span timestamps/ids must come through the
        // SyncApi/simnet clock seam. A line is on the trace path if it
        // constructs span state, or lives in the observability crates.
        if !in_sync_layer(path)
            && (in_observability_layer(path) || TRACE_TOKENS.iter().any(|t| line.contains(t)))
        {
            for src in NONDET_SOURCES {
                if line.contains(src) && !annotated("trace-determinism", line, above) {
                    findings.push(Finding {
                        rule: "trace-determinism",
                        path: path.to_string(),
                        line: lineno,
                        message: format!(
                            "ambient nondeterminism ({src}) on the trace path: span \
                             timestamps and ids must come through the SyncApi/simnet clock \
                             seam (monotonic_now, ctx.now()) so same-seed runs produce \
                             identical span DAGs — route through the seam or annotate \
                             `// lint: trace-determinism-ok(reason)`"
                        ),
                        snippet: snippet.clone(),
                    });
                    break;
                }
            }
        }

        if restricted {
            for ty in HASH_TYPES {
                if contains_token(line, ty) && !annotated("hash", line, above) {
                    findings.push(Finding {
                        rule: "hash",
                        path: path.to_string(),
                        line: lineno,
                        message: format!(
                            "{ty} in a deterministic subsystem: hash iteration order leaks \
                             nondeterminism into seeded runs; use BTree{} (or annotate \
                             `// lint: hash-ok(reason)`)",
                            &ty[4..]
                        ),
                        snippet: snippet.clone(),
                    });
                    break;
                }
            }
        }

        if line.contains(RELAXED) && !annotated("relaxed", line, above) {
            findings.push(Finding {
                rule: "relaxed",
                path: path.to_string(),
                line: lineno,
                message: format!(
                    "unjustified {RELAXED}: state why relaxed ordering is sufficient with \
                     `// lint: relaxed-ok(reason)` or strengthen the ordering"
                ),
                snippet: snippet.clone(),
            });
        }

        // Unsafe audit: the keyword is matched token-bounded, so
        // `#![forbid(unsafe_code)]` attributes do not trip it.
        if token_bounded(line, UNSAFE_KW) && !safety_justified(line, above) {
            findings.push(Finding {
                rule: UNSAFE_RULE,
                path: path.to_string(),
                line: lineno,
                message: format!(
                    "unaudited `{UNSAFE_KW}`: state why the invariants hold with a \
                     `{SAFETY_MARKER} <justification>` on this line or the comment line above"
                ),
                snippet: snippet.clone(),
            });
        }

        if !in_sync_layer(path) {
            for ty in SNAPSHOT_TYPES {
                if line.contains(ty) && !annotated("snapshot", line, above) {
                    findings.push(Finding {
                        rule: "snapshot",
                        path: path.to_string(),
                        line: lineno,
                        message: format!(
                            "hand-rolled snapshot cell ({ty}): publish immutable state \
                             through acn_sync::SyncSnapshot so the model checker explores \
                             stale pins and retry branches (DESIGN.md \u{a7}8), or annotate \
                             `// lint: snapshot-ok(reason)`"
                        ),
                        snippet: snippet.clone(),
                    });
                    break;
                }
            }
        }

        if uses_std_sync_lock(line) && !annotated("std-sync", line, above) {
            findings.push(Finding {
                rule: "std-sync",
                path: path.to_string(),
                line: lineno,
                message: "raw std::sync lock where parking_lot (via the SyncApi layer) is \
                          the workspace standard; switch or annotate \
                          `// lint: std-sync-ok(reason)`"
                    .to_string(),
                snippet: snippet.clone(),
            });
        }

        // Rough brace tracking (strings with braces are rare in this
        // workspace; comment lines are already skipped).
        for c in line.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    // The Process-impl region dies when its scope
                    // closes.
                    if proc_impl.is_some_and(|d| depth <= d) {
                        proc_impl = None;
                    }
                }
                _ => {}
            }
        }
    }
    findings
}

fn is_excluded(path: &Path) -> bool {
    path.components().any(|c| {
        let s = c.as_os_str();
        s == "vendor" || s == "target" || s == ".git"
    })
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if is_excluded(&path) {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Every `.rs` file the workspace scan covers: the `crates/`, `src/`,
/// `tests/`, and `examples/` trees under `root`, excluding `vendor/`,
/// `target/`, and `.git/`, sorted by path.
///
/// # Errors
///
/// Propagates I/O errors from walking the tree.
pub fn workspace_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

/// Lints every `.rs` file under `root` (excluding `vendor/`,
/// `target/`, `.git/`), returning all findings sorted by path/line.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let files = workspace_rs_files(root)?;
    let mut findings = Vec::new();
    for file in files {
        let source = std::fs::read_to_string(&file)?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        findings.extend(lint_source(&rel, &source));
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds fixture sources at runtime so this file never contains
    /// the flagged token sequences itself.
    fn relaxed_expr() -> String {
        format!("    counter.fetch_add(1, {RELAXED});\n")
    }

    #[test]
    fn flags_hash_collections_only_in_deterministic_subsystems() {
        let src = format!("use std::collections::{};\n", HASH_TYPES[0]);
        let hits = lint_source("crates/simnet/src/lib.rs", &src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "hash");
        assert_eq!(hits[0].line, 1);
        for file in ["dist/wire.rs", "dist/deploy.rs", "stabilize.rs", "local.rs", "concurrent.rs"] {
            assert_eq!(lint_source(&format!("crates/core/src/{file}"), &src).len(), 1, "{file}");
        }
        // The same code is fine elsewhere.
        assert!(lint_source("crates/bench/src/lib.rs", &src).is_empty());
    }

    #[test]
    fn flags_the_pre_fix_shared_network_pattern() {
        // Satellite (a) regression: the executor's component map was a
        // HashMap before this PR; the deterministic-subsystem rule
        // must flag that pattern when it appears in restricted code.
        let src = format!(
            "struct Structure {{\n    components: {}<ComponentId, Mutex<Component>>,\n}}\n",
            HASH_TYPES[0]
        );
        let hits = lint_source("crates/core/src/dist/deploy.rs", &src);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("BTreeMap"), "{}", hits[0].message);
    }

    #[test]
    fn flags_unjustified_relaxed_and_accepts_annotated() {
        let bare = relaxed_expr();
        let hits = lint_source("crates/core/src/concurrent.rs", &bare);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "relaxed");

        let same_line = format!(
            "    counter.fetch_add(1, {RELAXED}); // lint: relaxed-ok(tally read at quiescence)\n"
        );
        assert!(lint_source("x.rs", &same_line).is_empty());

        let line_above =
            format!("    // lint: relaxed-ok(tally read at quiescence)\n{bare}");
        assert!(lint_source("x.rs", &line_above).is_empty());

        // Empty reasons do not count.
        let empty_reason = format!("    counter.fetch_add(1, {RELAXED}); // lint: relaxed-ok()\n");
        assert_eq!(lint_source("x.rs", &empty_reason).len(), 1);
    }

    #[test]
    fn flags_raw_std_sync_locks_but_not_guards() {
        for ty in STD_SYNC_TYPES {
            let src = format!("use {STD_SYNC_PREFIX}{ty};\n");
            let hits = lint_source("crates/core/src/lib.rs", &src);
            assert_eq!(hits.len(), 1, "{ty}: {hits:?}");
            assert_eq!(hits[0].rule, "std-sync");
        }
        let brace = format!("use {STD_SYNC_PREFIX}{{Arc, Mutex}};\n");
        assert_eq!(lint_source("x.rs", &brace).len(), 1);
        // Guard types and Arc-only imports are fine.
        let guard = format!("    inner: Option<{STD_SYNC_PREFIX}MutexGuard<'a, T>>,\n");
        assert!(lint_source("x.rs", &guard).is_empty(), "guards are not locks");
        let arc = format!("use {STD_SYNC_PREFIX}Arc;\n");
        assert!(lint_source("x.rs", &arc).is_empty());
        // Annotated use is accepted.
        let annotated =
            format!("// lint: std-sync-ok(zero-dep crate)\nuse {STD_SYNC_PREFIX}Mutex;\n");
        assert!(lint_source("x.rs", &annotated).is_empty());
    }

    #[test]
    fn flags_hand_rolled_snapshot_cells_outside_the_sync_layer() {
        for ty in SNAPSHOT_TYPES {
            let src = format!("    published: {ty}Node>>,\n");
            let hits = lint_source("crates/core/src/concurrent.rs", &src);
            assert_eq!(hits.len(), 1, "{ty}: {hits:?}");
            assert_eq!(hits[0].rule, "snapshot");
            assert!(hits[0].message.contains("SyncSnapshot"), "{}", hits[0].message);
            // The SyncApi layer is where the real implementation lives.
            assert!(lint_source("crates/sync/src/lib.rs", &src).is_empty());
            // Annotated use is accepted elsewhere.
            let annotated = format!(
                "    // lint: snapshot-ok(interning table, not published state)\n{src}"
            );
            assert!(lint_source("crates/core/src/concurrent.rs", &annotated).is_empty());
        }
    }

    /// A `Process` impl wrapping `body`, assembled at runtime.
    fn process_impl(body: &str) -> String {
        format!(
            "impl Process for NodeProc {{\n    fn on_message(&mut self, ctx: &mut Context) {{\n{body}    }}\n}}\n"
        )
    }

    #[test]
    fn flags_ambient_nondeterminism_inside_process_impls() {
        for src in NONDET_SOURCES {
            let body = format!("        let t = {src}::anything();\n");
            let hits = lint_source("crates/core/src/dist/deploy.rs", &process_impl(&body));
            assert_eq!(hits.len(), 1, "{src}: {hits:?}");
            assert_eq!(hits[0].rule, "determinism-seam");
            // The simulator layer owns the seam and is exempt.
            assert!(
                lint_source("crates/simnet/src/lib.rs", &process_impl(&body)).is_empty(),
                "{src}: simnet is the seam"
            );
            // Annotated use is accepted.
            let annotated = format!(
                "        // lint: determinism-seam-ok(test-only fault clock)\n{body}"
            );
            assert!(
                lint_source("crates/core/src/dist/deploy.rs", &process_impl(&annotated)).is_empty(),
                "{src}"
            );
        }
    }

    #[test]
    fn nondeterminism_outside_process_impls_is_not_flagged() {
        // Ambient sources are fine in harness/bench code outside the
        // handler seam (e.g. wall-clock measurement in a bench main).
        let src = format!("fn main() {{\n    let t = {}::anything();\n}}\n", NONDET_SOURCES[0]);
        assert!(lint_source("crates/bench/src/lib.rs", &src).is_empty());
        // And an impl of some *other* trait for a Process-named type
        // does not open the region.
        let other = format!(
            "impl Display for MyProcess {{\n    fn fmt(&self) {{ let t = {}::anything(); }}\n}}\n",
            NONDET_SOURCES[0]
        );
        assert!(lint_source("crates/core/src/dist/deploy.rs", &other).is_empty());
    }

    #[test]
    fn dist_protocol_layers_are_handler_code_on_every_line() {
        // `NodeProc`'s `Process` impl only dispatches; the handlers are
        // inherent methods spread over these files.
        let src = format!("fn level_tick() {{\n    let t = {}::anything();\n}}\n", NONDET_SOURCES[1]);
        for file in ["node.rs", "wire.rs", "reconfig.rs", "handoff.rs", "rescue.rs", "view.rs"] {
            let hits = lint_source(&format!("crates/core/src/dist/{file}"), &src);
            assert_eq!(hits.len(), 1, "{file}: {hits:?}");
            assert_eq!(hits[0].rule, "determinism-seam");
        }
        for file in ["deploy.rs", "digest.rs", "world.rs", "tests.rs"] {
            assert!(lint_source(&format!("crates/core/src/dist/{file}"), &src).is_empty(), "{file}");
        }
    }

    #[test]
    fn protocol_code_may_not_read_harness_ground_truth() {
        let reads = [
            "        let owner = self.world.borrow_mut().host_of(&id);\n",
            "        if self.world.borrow().crashed.contains_key(&n) {}\n",
            "        let succ = self.world.borrow().ring.successor(n);\n",
            "        let len = w.ring.len();\n",
        ];
        for line in reads {
            let hits = lint_source("crates/core/src/dist/rescue.rs", line);
            assert_eq!(hits.len(), 1, "{line}: {hits:?}");
            assert_eq!(hits[0].rule, "ground-truth");
            // The harness and its tests own the ground truth.
            for file in ["deploy.rs", "tests.rs", "digest.rs"] {
                assert!(lint_source(&format!("crates/core/src/dist/{file}"), line).is_empty());
            }
            let waived = format!("        // lint: ground-truth-ok(boot placement)\n{line}");
            assert!(lint_source("crates/core/src/dist/rescue.rs", &waived).is_empty());
        }
        // A node's own belief is not ground truth.
        let belief = "        let pred = self.ring.predecessor(self.me);\n        \
                      let n = self.view.ring().len();\n        w.dht_lookups += 1;\n";
        assert!(lint_source("crates/core/src/dist/view.rs", belief).is_empty());
    }

    #[test]
    fn process_impl_region_closes_at_its_brace() {
        let src = format!(
            "{}fn later() {{\n    let t = {}::anything();\n}}\n",
            process_impl("        let x = 1;\n"),
            NONDET_SOURCES[0]
        );
        assert!(lint_source("crates/core/src/dist/deploy.rs", &src).is_empty());
    }

    #[test]
    fn flags_ambient_nondeterminism_on_trace_construction_lines() {
        for token in TRACE_TOKENS {
            for src in NONDET_SOURCES {
                let line = format!("    tracer.{token}(\"hop\", {src}::anything());\n");
                let hits = lint_source("crates/core/src/dist/deploy.rs", &line);
                assert_eq!(hits.len(), 1, "{token}+{src}: {hits:?}");
                assert_eq!(hits[0].rule, "trace-determinism");
                // The seam implementation is the one allowed place.
                assert!(
                    lint_source("crates/sync/src/lib.rs", &line).is_empty(),
                    "{token}+{src}: sync layer owns the clock"
                );
                // Annotated use is accepted.
                let annotated =
                    format!("    // lint: trace-determinism-ok(test-only fixture clock)\n{line}");
                assert!(lint_source("crates/core/src/dist/deploy.rs", &annotated).is_empty());
            }
        }
        // A span built from seam time is fine.
        let clean = format!("    tracer.record({}(\"hop\", 1).at(ctx.now()));\n", TRACE_TOKENS[0]);
        assert!(lint_source("crates/core/src/dist/deploy.rs", &clean).is_empty());
    }

    #[test]
    fn observability_crates_are_trace_path_everywhere() {
        let src = format!("    let t = {}::anything();\n", NONDET_SOURCES[1]);
        for path in ["crates/trace/src/lib.rs", "crates/telemetry/src/metrics.rs"] {
            let hits = lint_source(path, &src);
            assert_eq!(hits.len(), 1, "{path}: {hits:?}");
            assert_eq!(hits[0].rule, "trace-determinism");
        }
        // The same line is fine in harness code off the trace path.
        assert!(lint_source("crates/bench/src/lib.rs", &src).is_empty());
    }

    #[test]
    fn flags_unaudited_unsafe_and_accepts_safety_comments() {
        let bare = format!("    {UNSAFE_KW} {{ ptr.read() }}\n");
        let hits = lint_source("crates/core/src/concurrent.rs", &bare);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, UNSAFE_RULE);

        let same_line =
            format!("    {UNSAFE_KW} {{ ptr.read() }} {SAFETY_MARKER} ptr outlives the arena\n");
        assert!(lint_source("x.rs", &same_line).is_empty());

        let above = format!("    {SAFETY_MARKER} ptr outlives the arena\n{bare}");
        assert!(lint_source("x.rs", &above).is_empty());

        // An empty justification does not count.
        let empty = format!("    {UNSAFE_KW} {{ ptr.read() }} {SAFETY_MARKER}\n");
        assert_eq!(lint_source("x.rs", &empty).len(), 1);

        // `unsafe fn` and `unsafe impl` are audited too.
        for form in ["fn read_raw()", "impl Send for Cell"] {
            let src = format!("{UNSAFE_KW} {form} {{}}\n");
            assert_eq!(lint_source("x.rs", &src).len(), 1, "{form}");
        }
    }

    #[test]
    fn forbid_unsafe_code_attributes_are_not_flagged() {
        // The identifier `unsafe_code` is not the keyword: the token
        // boundary check must keep the workspace-wide forbids clean.
        let src = format!("#![forbid({UNSAFE_KW}_code)]\n");
        assert!(lint_source("crates/core/src/lib.rs", &src).is_empty());
    }

    #[test]
    fn comment_lines_are_skipped() {
        let src = format!("// example: counter.fetch_add(1, {RELAXED})\n");
        assert!(lint_source("x.rs", &src).is_empty());
    }

    #[test]
    fn workspace_walk_excludes_vendor() {
        assert!(is_excluded(Path::new("vendor/parking_lot/src/lib.rs")));
        assert!(is_excluded(Path::new("target/debug/build/x.rs")));
        assert!(!is_excluded(Path::new("crates/core/src/dist/wire.rs")));
    }
}
