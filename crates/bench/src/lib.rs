//! Shared measurement scaffolding for the evaluation harness.
//!
//! Every table and figure of the paper's §5 is regenerated twice: in
//! *host* time (Criterion wall-clock of this implementation) and in
//! *simulated* time (the machine's cycle clock under the §4-style cost
//! model). The paper's absolute numbers came from 25 MHz 68040s; the
//! claim we reproduce is the *shape* — which operations are cheap, which
//! are expensive, who wins and by roughly what factor.

use cache_kernel::{CacheKernel, CkConfig, KernelDesc, MemoryAccessArray, ObjId};
use hw::{MachineConfig, Mpm};
use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// A Cache Kernel + machine pair sized like the prototype, booted with
/// an all-access first kernel, for micro-benchmarks that call the
/// interface directly.
pub struct Bench {
    /// The Cache Kernel under test.
    pub ck: CacheKernel,
    /// The machine.
    pub mpm: Mpm,
    /// The first kernel (caller identity for the benched operations).
    pub srm: ObjId,
}

impl Bench {
    /// Prototype-geometry instance (Table 1 cache sizes).
    pub fn new() -> Self {
        Self::with_config(CkConfig::default(), 16 * 1024)
    }

    /// Custom geometry.
    pub fn with_config(ck_cfg: CkConfig, phys_frames: usize) -> Self {
        let mut ck = CacheKernel::new(ck_cfg);
        // The harness attaches no executive, so nothing ever pumps the
        // event queue; skip the informational Signal pipeline events and
        // measure bare delivery cost (counters tick either way).
        ck.signal_events = false;
        ck.shootdown_events = false;
        let mpm = Mpm::new(MachineConfig {
            phys_frames,
            l2_bytes: 8 * 1024 * 1024,
            clock_interval: u64::MAX / 4, // no ticks during micro-benches
            ..MachineConfig::default()
        });
        let srm = ck.boot(KernelDesc {
            memory_access: MemoryAccessArray::all(),
            ..KernelDesc::default()
        });
        Bench { ck, mpm, srm }
    }

    /// Simulated microseconds elapsed on this machine so far.
    pub fn sim_micros(&self) -> f64 {
        self.mpm.clock.micros(&self.mpm.config.cost)
    }
}

impl Default for Bench {
    fn default() -> Self {
        Self::new()
    }
}

/// Time `iters` repetitions of `op`, running `reset` untimed between
/// them. The shared mutable state is threaded through both closures so
/// they can work on the same harness without conflicting borrows.
/// Returns total elapsed host time (Criterion `iter_custom` body).
pub fn timed_loop<S>(
    iters: u64,
    state: &mut S,
    mut op: impl FnMut(&mut S),
    mut reset: impl FnMut(&mut S),
) -> std::time::Duration {
    let mut total = std::time::Duration::ZERO;
    for _ in 0..iters {
        let t0 = std::time::Instant::now();
        op(state);
        total += t0.elapsed();
        reset(state);
    }
    total
}

/// Median host nanoseconds per call of `op` with untimed `reset`,
/// over `samples` measurements of `batch` calls each (the report
/// binary's Criterion-free quick path).
pub fn quick_median_ns<S>(
    samples: usize,
    batch: u64,
    state: &mut S,
    mut op: impl FnMut(&mut S),
    mut reset: impl FnMut(&mut S),
) -> f64 {
    let mut meas = Vec::with_capacity(samples);
    for _ in 0..samples {
        let d = timed_loop(batch, state, &mut op, &mut reset);
        meas.push(d.as_nanos() as f64 / batch as f64);
    }
    meas.sort_by(|a, b| a.partial_cmp(b).unwrap());
    meas[meas.len() / 2]
}

/// Non-test source lines under `path` (a `.rs` file, or a directory
/// walked recursively past any `tests/` and `benches/`): lines that are
/// neither blank nor `//` comments,
/// outside every item gated by `#[cfg(test)]` (the attribute included)
/// and outside every file such an item declares (`#[cfg(test)] mod x;`).
/// This is the count the paper's §5.1 size comparison uses.
pub fn count_loc(path: &Path) -> usize {
    let mut files = Vec::new();
    collect_rs(path, &mut files);
    let scanned: Vec<_> = files.iter().map(|f| scan_file(f)).collect();
    let test_files: HashSet<&PathBuf> = scanned.iter().flat_map(|(_, t)| t).collect();
    let live = files
        .iter()
        .zip(&scanned)
        .filter(|(f, _)| !test_files.contains(f));
    live.map(|(_, (n, _))| n).sum()
}

fn collect_rs(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() && !path.ends_with("tests") && !path.ends_with("benches") {
        for entry in std::fs::read_dir(path).into_iter().flatten().flatten() {
            collect_rs(&entry.path(), out);
        }
    } else if path.extension().is_some_and(|x| x == "rs") {
        out.extend(path.canonicalize());
    }
}

/// One file's non-test lines, and the files its gated `mod x;` items
/// declare. Reads rustfmt layout (check.sh enforces it): a gated item
/// ends at the first line back at the attribute's indentation that ends
/// in `;`, `,` or `}`, or at a line indented less (its block closed).
fn scan_file(file: &Path) -> (usize, Vec<PathBuf>) {
    let text = std::fs::read_to_string(file).unwrap_or_default();
    let (mut count, mut test_files) = (0, Vec::new());
    // The gated item's indentation, and the `#[path]` it carries.
    let mut gated: Option<(usize, Option<String>)> = None;
    for line in text.lines() {
        let mut t = line.trim();
        let indent = line.len() - line.trim_start().len();
        if matches!(gated, Some((at, _)) if indent < at && !t.is_empty()) {
            gated = None;
        }
        if gated.is_none() {
            let Some(rest) = t.strip_prefix("#[cfg(test)]") else {
                count += usize::from(!t.is_empty() && !t.starts_with("//"));
                continue;
            };
            gated = Some((indent, None));
            t = rest.trim();
        }
        let Some((at, path)) = gated.as_mut() else {
            continue;
        };
        if let Some(p) = t.strip_prefix("#[path = \"") {
            *path = p.split('"').next().map(String::from);
        }
        if indent > *at || t.starts_with("#[") || !t.ends_with([';', ',', '}']) {
            continue;
        }
        let mut words = t.trim_end_matches(';').split_whitespace();
        if t.ends_with(';') && words.any(|w| w == "mod") {
            let (dir, name) = (file.with_extension(""), words.next().unwrap_or(""));
            let dir = match dir.file_name().and_then(|s| s.to_str()) {
                Some("mod" | "lib" | "main") | None => file.parent().unwrap_or(&dir),
                Some(_) => &dir,
            };
            let declared = match path.take() {
                Some(p) => vec![file.with_file_name(p)],
                None => vec![
                    dir.join(format!("{name}.rs")),
                    dir.join(name).join("mod.rs"),
                ],
            };
            test_files.extend(declared.iter().filter_map(|f| f.canonicalize().ok()));
        }
        gated = None;
    }
    (count, test_files)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_harness_boots() {
        let b = Bench::new();
        assert_eq!(b.ck.occupancy()[0], (1, 16));
        assert_eq!(b.sim_micros(), 0.0);
    }

    /// The fixture under `tests/fixtures/loc` has nine non-test lines:
    /// lines after a gated item count, and the three files declared only
    /// for tests (`mod tests;`, a `#[path]` module and a non-`mod.rs`
    /// file's `mod inner;`) do not.
    #[test]
    fn count_loc_skips_test_items_and_test_files() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/loc");
        assert_eq!(count_loc(&root.join("lib.rs")), 5);
        assert_eq!(count_loc(&root.join("plain.rs")), 4);
        assert_eq!(count_loc(&root), 9);
        let (_, test_files) = scan_file(&root.join("plain.rs"));
        assert_eq!(
            test_files,
            [root.join("plain/inner.rs").canonicalize().unwrap()]
        );
    }

    #[test]
    fn quick_median_is_positive() {
        let mut x = 0u64;
        let ns = quick_median_ns(5, 100, &mut x, |x| *x = x.wrapping_add(1), |_| {});
        assert!(ns >= 0.0);
        assert!(x > 0);
    }
}
