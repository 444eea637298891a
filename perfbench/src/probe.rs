//! Benchmark-side tracing: spans and counters recorded around the public
//! entry points of each layer, from the benchmark's own code.
//!
//! Tracing is switched per round. With it off every hook costs one relaxed
//! load. With it on:
//!
//! * rounds, regions, gang passes, gang roles, checkpoint snapshots and
//!   restores, and plan phases each record one span;
//! * per-task work (task bodies, recorder calls, `touched_addrs`) is summed
//!   in thread-local accumulators and flushed as one aggregate span per
//!   gang role (or per region, for work on the client thread), so a region
//!   of 200k tasks costs a handful of spans, not 200k.
//!
//! Spans stay in memory until the run ends; [`write_jsonl`] then writes
//! them out and [`self_times`] derives each span name's self time (its
//! duration minus the part its children cover).
//!
//! One region is in flight at a time (the benchmark's closed loop), so the
//! per-region totals are process globals reset at [`region_begin`].

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crossinvoc_runtime::pool::{GangStats, RegionExecutor, Role};

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static CURRENT_REGION: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static TOTALS: Mutex<Totals> = Mutex::new(Totals::ZERO);

thread_local! {
    static LEAF: Cell<Leaf> = const { Cell::new(Leaf::ZERO) };
    static PARENT: Cell<u64> = const { Cell::new(0) };
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("probe state is only held for plain updates that cannot panic")
}

/// Whether the current round is traced.
#[inline]
pub fn on() -> bool {
    ON.load(Relaxed)
}

/// Switches tracing for the following rounds.
pub fn set(enabled: bool) {
    origin();
    ON.store(enabled, Relaxed);
}

/// One recorded span. `count > 1` marks an aggregate of per-task work.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    label: String,
    start_ns: u64,
    dur_ns: u64,
    count: u64,
}

/// An open span; [`Open::close`] records it.
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: u64,
    prev_parent: u64,
    name: &'static str,
    label: String,
    start: Instant,
}

impl Open {
    /// Records the span and returns its duration.
    pub fn close(self) -> Duration {
        let dur = self.start.elapsed();
        PARENT.with(|p| p.set(self.prev_parent));
        lock(&SPANS).push(Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            label: self.label,
            start_ns: self.start.duration_since(origin()).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
            count: 1,
        });
        dur
    }
}

/// Opens a span under the calling thread's innermost open span (or the
/// region in flight); it becomes the thread's innermost until closed.
pub fn open(name: &'static str, label: impl Into<String>) -> Open {
    let parent = PARENT.with(Cell::get);
    let parent = if parent == 0 {
        CURRENT_REGION.load(Relaxed)
    } else {
        parent
    };
    open_under(parent, name, label.into())
}

fn open_under(parent: u64, name: &'static str, label: String) -> Open {
    let id = NEXT_ID.fetch_add(1, Relaxed);
    let prev_parent = PARENT.with(|p| p.replace(id));
    Open {
        id,
        parent,
        prev_parent,
        name,
        label,
        start: Instant::now(),
    }
}

/// Per-task work summed on one thread between flushes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Leaf {
    task_ns: u64,
    tasks: u64,
    record_ns: u64,
    records: u64,
    touched_ns: u64,
    touched: u64,
}

impl Leaf {
    const ZERO: Leaf = Leaf {
        task_ns: 0,
        tasks: 0,
        record_ns: 0,
        records: 0,
        touched_ns: 0,
        touched: 0,
    };
}

fn add_leaf(f: impl FnOnce(&mut Leaf)) {
    LEAF.with(|l| {
        let mut v = l.get();
        f(&mut v);
        l.set(v);
    });
}

/// One task body (including its recorder calls) took `ns`.
pub fn task_done(ns: u64) {
    add_leaf(|l| {
        l.task_ns += ns;
        l.tasks += 1;
    });
}

/// One recorder call took `ns`.
pub fn record_done(ns: u64) {
    add_leaf(|l| {
        l.record_ns += ns;
        l.records += 1;
    });
}

/// One `computeAddr` (`touched`/`touched_addrs`) call took `ns`.
pub fn touched_done(ns: u64) {
    add_leaf(|l| {
        l.touched_ns += ns;
        l.touched += 1;
    });
}

/// A checkpoint snapshot (`restore == false`) or restore took `ns`.
pub fn checkpoint_done(restore: bool, ns: u64) {
    let mut t = lock(&TOTALS);
    if restore {
        t.restore_ns += ns;
    } else {
        t.snapshot_ns += ns;
    }
}

/// Moves the calling thread's per-task sums into the region totals and
/// records them as aggregate spans under `parent`.
fn flush_leaves(parent: u64) {
    let leaf = LEAF.with(|l| l.replace(Leaf::ZERO));
    if leaf == Leaf::ZERO {
        return;
    }
    let now = Instant::now().duration_since(origin()).as_nanos() as u64;
    let mut spans = Vec::new();
    let mut agg = |parent: u64, name: &'static str, count: u64, dur_ns: u64| {
        let id = NEXT_ID.fetch_add(1, Relaxed);
        spans.push(Span {
            id,
            parent,
            name,
            label: String::new(),
            start_ns: now.saturating_sub(dur_ns),
            dur_ns,
            count,
        });
        id
    };
    if leaf.tasks > 0 {
        let body = agg(parent, "task_body", leaf.tasks, leaf.task_ns);
        if leaf.records > 0 {
            agg(body, "recorder", leaf.records, leaf.record_ns);
        }
    } else if leaf.records > 0 {
        agg(parent, "recorder", leaf.records, leaf.record_ns);
    }
    if leaf.touched > 0 {
        agg(parent, "touched_addrs", leaf.touched, leaf.touched_ns);
    }
    lock(&SPANS).extend(spans);
    let mut t = lock(&TOTALS);
    t.task_ns += leaf.task_ns;
    t.tasks += leaf.tasks;
    t.record_ns += leaf.record_ns;
    t.records += leaf.records;
    t.touched_ns += leaf.touched_ns;
    t.touched += leaf.touched;
}

/// What the probes saw during one region.
#[derive(Debug, Clone, PartialEq)]
pub struct Totals {
    pub task_ns: u64,
    pub tasks: u64,
    pub record_ns: u64,
    pub records: u64,
    pub touched_ns: u64,
    pub touched: u64,
    pub snapshot_ns: u64,
    pub restore_ns: u64,
    pub gang_passes: u64,
    /// Per role: nanoseconds from `run_gang` entry to the role's start.
    pub gang_start_ns: Vec<u64>,
}

impl Totals {
    const ZERO: Totals = Totals {
        task_ns: 0,
        tasks: 0,
        record_ns: 0,
        records: 0,
        touched_ns: 0,
        touched: 0,
        snapshot_ns: 0,
        restore_ns: 0,
        gang_passes: 0,
        gang_start_ns: Vec::new(),
    };
}

/// Starts a region span on the client thread and zeroes the region totals.
pub fn region_begin(label: impl Into<String>) -> Open {
    *lock(&TOTALS) = Totals::ZERO;
    LEAF.with(|l| l.set(Leaf::ZERO));
    let span = open("region", label);
    CURRENT_REGION.store(span.id, Relaxed);
    span
}

/// Ends the region: flushes the client thread's per-task sums (sequential
/// and plan work run there) and returns the region's totals.
pub fn region_end(span: Open) -> Totals {
    flush_leaves(span.id);
    CURRENT_REGION.store(0, Relaxed);
    span.close();
    std::mem::replace(&mut *lock(&TOTALS), Totals::ZERO)
}

/// A [`RegionExecutor`] that records a span per gang pass and per role, and
/// times each role's start from `run_gang` entry.
pub struct TimedExecutor<'a> {
    inner: &'a dyn RegionExecutor,
}

impl<'a> TimedExecutor<'a> {
    pub fn new(inner: &'a dyn RegionExecutor) -> Self {
        Self { inner }
    }
}

impl RegionExecutor for TimedExecutor<'_> {
    fn run_gang<'s>(&self, roles: Vec<Role<'s>>, local: Box<dyn FnOnce() + 's>) -> GangStats {
        let entry = Instant::now();
        let gang = open("gang_pass", format!("{} roles", roles.len()));
        let gid = gang.id;
        let roles: Vec<Role<'s>> = roles
            .into_iter()
            .enumerate()
            .map(|(i, role)| -> Role<'s> {
                Box::new(move || {
                    let waited = entry.elapsed().as_nanos() as u64;
                    lock(&TOTALS).gang_start_ns.push(waited);
                    let span = open_under(gid, "role", format!("role {i}"));
                    role();
                    flush_leaves(span.id);
                    span.close();
                })
            })
            .collect();
        let local: Box<dyn FnOnce() + 's> = Box::new(move || {
            let span = open_under(gid, "local", String::new());
            local();
            flush_leaves(span.id);
            span.close();
        });
        let stats = self.inner.run_gang(roles, local);
        gang.close();
        lock(&TOTALS).gang_passes += 1;
        stats
    }

    fn capacity(&self) -> Option<usize> {
        self.inner.capacity()
    }
}

/// Self time per span name: (spans, summed duration, summed self time), in
/// nanoseconds. Aggregate spans count each task they sum.
pub fn self_times() -> BTreeMap<&'static str, (u64, u64, u64)> {
    let spans = lock(&SPANS);
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter() {
        *child_ns.entry(s.parent).or_default() += s.dur_ns;
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans.iter() {
        let covered = child_ns.get(&s.id).copied().unwrap_or(0);
        let e = out.entry(s.name).or_default();
        e.0 += s.count;
        e.1 += s.dur_ns;
        e.2 += s.dur_ns.saturating_sub(covered);
    }
    out
}

/// Writes every recorded span as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let spans = lock(&SPANS);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter() {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"label\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"count\":{}}}",
            s.id,
            s.parent,
            s.name,
            s.label.replace(['"', '\\'], "_"),
            s.start_ns,
            s.dur_ns,
            s.count
        )?;
    }
    w.flush()?;
    Ok(spans.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gang_roles_and_leaves_nest_under_the_region() {
        // The hooks record whenever called; `on()` only tells the kernel
        // wrapper whether to call them, so this test leaves it off.
        let region = region_begin("test");
        let exec = TimedExecutor::new(&crossinvoc_runtime::ScopedExecutor);
        let roles: Vec<Role<'_>> = (0..2)
            .map(|_| -> Role<'_> { Box::new(|| task_done(1_000)) })
            .collect();
        exec.run_gang(roles, Box::new(|| touched_done(500)));
        let rid = region.id;
        let totals = region_end(region);
        assert_eq!(totals.tasks, 2);
        assert_eq!(totals.task_ns, 2_000);
        assert_eq!(totals.touched, 1);
        assert_eq!(totals.gang_passes, 1);
        assert_eq!(totals.gang_start_ns.len(), 2);
        let spans = lock(&SPANS);
        let gang = spans
            .iter()
            .find(|s| s.name == "gang_pass" && s.parent == rid)
            .expect("gang span under the region");
        assert_eq!(
            spans
                .iter()
                .filter(|s| s.name == "role" && s.parent == gang.id)
                .count(),
            2
        );
    }
}
