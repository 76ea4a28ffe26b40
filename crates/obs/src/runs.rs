//! The training-run registry: run identity, journaled series, crash
//! flight recorder, and the live run dashboard.
//!
//! A *run* is one training invocation, persisted under a run root:
//!
//! ```text
//! runs/
//!   run-000001/
//!     manifest.json    # RunManifest: id, start, seed, dataset, config hash, lineage
//!     series.ndjson    # step-indexed series points (crate::series), append-only
//!     flight.ndjson    # bounded ring of recent activity, written on panic/rollback
//! ```
//!
//! Run ids are monotone within a root (`run-000001`, `run-000002`, …);
//! a resumed run gets a **new** id whose manifest records
//! `resumed_from: <parent>` and whose journal starts as a copy of the
//! parent's, truncated to the checkpoint step before the replay appends
//! — so an interrupted-and-resumed run's `series.ndjson` ends up
//! byte-identical to an uninterrupted run's (a tested contract, riding
//! on the trainer's resume determinism).
//!
//! The trainer reaches the recorder through a process-global sink
//! ([`install`] / [`series_observe`] / [`flight_event`]): every hook is
//! a no-op until an experiment binary opts in with `--run-dir`, and the
//! call rate is per-epoch, not per-step, so the sink is a plain `RwLock`
//! rather than part of the feature-gated hot-path registry.
//!
//! The flight recorder keeps the last [`FLIGHT_CAPACITY`] journal lines
//! and point events in memory and flushes them to `flight.ndjson` on
//! demand — [`install_panic_flush`] chains a panic hook so a mid-epoch
//! crash leaves a forensic trail, and the trainer flushes explicitly on
//! divergence rollback.
//!
//! [`DashServer`] serves the run root over the shared HTTP listener
//! ([`crate::httpd`]): `/runs` (manifests, NDJSON), `/runs/<id>/manifest`,
//! `/runs/<id>/series`, `/runs/<id>/flight`, and `/` — a dependency-free
//! HTML page with server-rendered SVG sparklines that auto-refreshes
//! while training is in progress. All reads go to disk per request, so
//! the dashboard can watch a run owned by another process.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write as _};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, Once, OnceLock, RwLock};

use crate::events::Event;
use crate::httpd::{HttpServer, Response};
use crate::series::{SeriesPoint, SeriesStore};
use crate::{clock, json};

/// How many recent journal lines / events the flight recorder retains.
pub const FLIGHT_CAPACITY: usize = 256;

/// Incremental 64-bit FNV-1a: the hash behind [`config_hash`], also used
/// to fingerprint model weights. Stable across runs and platforms.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a hash of a configuration's textual rendering, hex-encoded —
/// the manifest's `config_hash`. Stable across runs and platforms so
/// "same config?" is a string comparison.
pub fn config_hash(text: &str) -> String {
    let mut h = Fnv1a::default();
    h.write(text.as_bytes());
    format!("{:016x}", h.finish())
}

/// A run's identity card, persisted as `manifest.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct RunManifest {
    /// Monotone run id within its root, e.g. `run-000003`.
    pub id: String,
    /// Start time in µs from the injected wall clock
    /// ([`clock::wall_micros`]) — fake-clock deterministic in tests.
    pub start_us: u64,
    /// RNG seed the run trains with.
    pub seed: u64,
    /// Dataset name.
    pub dataset: String,
    /// [`config_hash`] of the training configuration.
    pub config_hash: String,
    /// Parent run id when this run resumed from a checkpoint.
    pub resumed_from: Option<String>,
}

impl RunManifest {
    /// Serializes as one JSON line.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"type\":\"run\",\"id\":{},\"start_us\":{},\"seed\":{},\"dataset\":{},\
             \"config_hash\":{},\"resumed_from\":{}}}",
            json::escape(&self.id),
            self.start_us,
            self.seed,
            json::escape(&self.dataset),
            json::escape(&self.config_hash),
            match &self.resumed_from {
                Some(p) => json::escape(p),
                None => "null".to_string(),
            }
        )
    }

    /// Parses a `manifest.json` document.
    pub fn from_json(text: &str) -> Result<RunManifest, String> {
        let v = json::parse(text)?;
        match v.get("type").and_then(json::Value::as_str) {
            Some("run") => {}
            other => return Err(format!("not a run manifest (type {other:?})")),
        }
        let req_str = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(json::Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("manifest missing string \"{key}\""))
        };
        let req_u64 = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(json::Value::as_num)
                .filter(|n| n.is_finite() && *n >= 0.0)
                .map(|n| n as u64)
                .ok_or_else(|| format!("manifest missing numeric \"{key}\""))
        };
        let resumed_from = match v.get("resumed_from") {
            None | Some(json::Value::Null) => None,
            Some(p) => Some(
                p.as_str()
                    .ok_or_else(|| "\"resumed_from\" must be a string or null".to_string())?
                    .to_string(),
            ),
        };
        let m = RunManifest {
            id: req_str("id")?,
            start_us: req_u64("start_us")?,
            seed: req_u64("seed")?,
            dataset: req_str("dataset")?,
            config_hash: req_str("config_hash")?,
            resumed_from,
        };
        if m.config_hash.is_empty() {
            return Err("manifest \"config_hash\" must be non-empty".into());
        }
        Ok(m)
    }
}

/// Lists `(id, dir)` of every run under `root`, id-sorted (and therefore
/// chronological — ids are monotone).
pub fn list_runs(root: &Path) -> Vec<(String, PathBuf)> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(root) else {
        return out;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("run-") && entry.path().join("manifest.json").is_file() {
            out.push((name, entry.path()));
        }
    }
    out.sort();
    out
}

/// Allocates the next monotone run id under `root` (`run-000001` when
/// the root is empty or missing).
pub fn next_run_id(root: &Path) -> String {
    let max = list_runs(root)
        .iter()
        .filter_map(|(id, _)| id.strip_prefix("run-").and_then(|n| n.parse::<u64>().ok()))
        .max()
        .unwrap_or(0);
    format!("run-{:06}", max + 1)
}

struct Inner {
    store: SeriesStore,
    flight: VecDeque<String>,
}

/// A live run: owns `runs/<id>/`, journals series points as they are
/// observed, and keeps the flight ring.
pub struct RunRecorder {
    dir: PathBuf,
    manifest: RunManifest,
    inner: Mutex<Inner>,
}

impl RunRecorder {
    /// Starts a fresh run under `root`: allocates the next id, creates
    /// the run directory, and writes `manifest.json`.
    pub fn create(
        root: &Path,
        seed: u64,
        dataset: &str,
        config_hash: &str,
    ) -> io::Result<RunRecorder> {
        let manifest = RunManifest {
            id: next_run_id(root),
            start_us: clock::wall_micros(),
            seed,
            dataset: dataset.to_string(),
            config_hash: config_hash.to_string(),
            resumed_from: None,
        };
        RunRecorder::open(root, manifest, SeriesStore::new())
    }

    /// Starts a run that resumes `parent_id`: a **new** id whose
    /// manifest inherits the parent's seed/dataset/config hash, records
    /// the lineage, and whose journal starts as a copy of the parent's.
    /// The trainer then calls [`RunRecorder::truncate_from`] with the
    /// checkpoint's resume epoch before replaying.
    pub fn resume(root: &Path, parent_id: &str) -> io::Result<RunRecorder> {
        let parent_dir = root.join(parent_id);
        let parent = RunManifest::from_json(
            fs::read_to_string(parent_dir.join("manifest.json"))?.trim(),
        )
        .map_err(bad_data)?;
        let store = match fs::read_to_string(parent_dir.join("series.ndjson")) {
            Ok(text) => SeriesStore::from_ndjson(&text).map_err(bad_data)?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => SeriesStore::new(),
            Err(e) => return Err(e),
        };
        let manifest = RunManifest {
            id: next_run_id(root),
            start_us: clock::wall_micros(),
            seed: parent.seed,
            dataset: parent.dataset,
            config_hash: parent.config_hash,
            resumed_from: Some(parent.id),
        };
        RunRecorder::open(root, manifest, store)
    }

    fn open(root: &Path, manifest: RunManifest, store: SeriesStore) -> io::Result<RunRecorder> {
        let dir = root.join(&manifest.id);
        fs::create_dir_all(&dir)?;
        let mut mf = manifest.to_json();
        mf.push('\n');
        fs::write(dir.join("manifest.json"), mf)?;
        fs::write(dir.join("series.ndjson"), store.to_ndjson())?;
        let rec = RunRecorder {
            dir,
            manifest,
            inner: Mutex::new(Inner { store, flight: VecDeque::new() }),
        };
        Ok(rec)
    }

    /// The run's manifest.
    pub fn manifest(&self) -> &RunManifest {
        &self.manifest
    }

    /// The run's id.
    pub fn id(&self) -> &str {
        &self.manifest.id
    }

    /// The `runs/<id>/` directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Records one series point: appended to the in-memory store, the
    /// on-disk journal, and the flight ring. A duplicate or regressed
    /// step is dropped (counted on `obs.series_dropped`) rather than
    /// corrupting the journal.
    pub fn record_point(&self, series: &str, step: u64, value: f64) -> Result<(), String> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.store.observe(series, step, value)?;
        let line =
            SeriesPoint { series: series.to_string(), step, value }.to_json();
        push_ring(&mut inner.flight, line.clone());
        drop(inner);
        let mut file =
            fs::OpenOptions::new().append(true).create(true).open(self.dir.join("series.ndjson"));
        if let Ok(f) = file.as_mut() {
            let _ = writeln!(f, "{line}");
        }
        Ok(())
    }

    /// Drops every journaled point at `step` or later and rewrites the
    /// on-disk journal — the resume primitive (see [`RunRecorder::resume`]).
    pub fn truncate_from(&self, step: u64) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.store.truncate_from(step);
        let text = inner.store.to_ndjson();
        drop(inner);
        fs::write(self.dir.join("series.ndjson"), text)
    }

    /// Appends a point event (timestamped from the injected wall clock)
    /// to the flight ring only — rollbacks, checkpoint failures, panic
    /// breadcrumbs.
    pub fn flight_event(&self, name: &str, fields: &[(&str, f64)]) {
        let event = Event::Point {
            name: name.to_string(),
            t_us: clock::wall_micros(),
            fields: fields.iter().map(|(k, v)| ((*k).to_string(), *v)).collect(),
        };
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        push_ring(&mut inner.flight, event.to_json());
    }

    /// Flushes the flight ring to `flight.ndjson` (whole-file rewrite;
    /// the ring is not cleared, so repeated flushes only grow the
    /// picture). Panic-safe: called from the chained panic hook.
    pub fn flush_flight(&self) -> io::Result<()> {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let mut text = String::new();
        for line in &inner.flight {
            text.push_str(line);
            text.push('\n');
        }
        drop(inner);
        fs::write(self.dir.join("flight.ndjson"), text)
    }

    /// Read-only snapshot of the current series store.
    pub fn series(&self) -> SeriesStore {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).store.clone()
    }
}

fn push_ring(ring: &mut VecDeque<String>, line: String) {
    if ring.len() == FLIGHT_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(line);
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

// ---------------------------------------------------------------------------
// Process-global sink: the trainer records through these free functions,
// which no-op until an experiment binary installs a recorder.
// ---------------------------------------------------------------------------

fn sink() -> &'static RwLock<Option<Arc<RunRecorder>>> {
    static SINK: OnceLock<RwLock<Option<Arc<RunRecorder>>>> = OnceLock::new();
    SINK.get_or_init(|| RwLock::new(None))
}

/// Installs `rec` as the process-global run recorder (replacing any
/// previous one).
pub fn install(rec: Arc<RunRecorder>) {
    *sink().write().unwrap_or_else(|p| p.into_inner()) = Some(rec);
}

/// Removes and returns the installed recorder, if any.
pub fn uninstall() -> Option<Arc<RunRecorder>> {
    sink().write().unwrap_or_else(|p| p.into_inner()).take()
}

/// The installed recorder, if any.
pub fn installed() -> Option<Arc<RunRecorder>> {
    sink().read().unwrap_or_else(|p| p.into_inner()).clone()
}

/// Journals one series point on the installed recorder; no-op when none
/// is installed. A rejected (duplicate/regressed) step is counted on
/// `obs.series_dropped` and otherwise ignored — the journal invariant
/// wins over the errant caller.
pub fn series_observe(series: &str, step: u64, value: f64) {
    if let Some(rec) = installed() {
        if rec.record_point(series, step, value).is_err() {
            crate::counter("obs.series_dropped").inc();
        }
    }
}

/// Truncates the installed recorder's journal at `step` (resume); no-op
/// when none is installed.
pub fn series_truncate_from(step: u64) {
    if let Some(rec) = installed() {
        let _ = rec.truncate_from(step);
    }
}

/// Records a flight-ring point event on the installed recorder; no-op
/// when none is installed.
pub fn flight_event(name: &str, fields: &[(&str, f64)]) {
    if let Some(rec) = installed() {
        rec.flight_event(name, fields);
    }
}

/// Flushes the installed recorder's flight ring to disk; no-op when none
/// is installed.
pub fn flight_flush() {
    if let Some(rec) = installed() {
        let _ = rec.flush_flight();
    }
}

/// Chains a panic hook (once per process) that flushes the installed
/// recorder's flight ring before delegating to the previous hook — a
/// mid-epoch panic leaves `flight.ndjson` behind for forensics.
pub fn install_panic_flush() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            flight_flush();
            previous(info);
        }));
    });
}

// ---------------------------------------------------------------------------
// Live run dashboard.
// ---------------------------------------------------------------------------

/// The live run dashboard: serves a run root read-only over HTTP.
///
/// Routes: `/` (HTML page, SVG sparklines, auto-refresh), `/runs`
/// (NDJSON manifests), `/runs/<id>/manifest`, `/runs/<id>/series`,
/// `/runs/<id>/flight`. Every request reads from disk, so the dashboard
/// tracks a training process writing the same root live.
pub struct DashServer {
    server: HttpServer,
}

impl DashServer {
    /// Binds `addr` and serves `root`.
    pub fn start(addr: &str, root: PathBuf) -> io::Result<DashServer> {
        let server =
            HttpServer::start(addr, "qdgnn-run-dash", move |path| route(&root, path))?;
        Ok(DashServer { server })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Stops the listener (also happens on drop).
    pub fn shutdown(&mut self) {
        self.server.shutdown();
    }
}

fn route(root: &Path, path: &str) -> Response {
    if path == "/" {
        return (200, "text/html", dashboard_html(root));
    }
    if path == "/runs" {
        let mut body = String::new();
        for (_, dir) in list_runs(root) {
            if let Ok(text) = fs::read_to_string(dir.join("manifest.json")) {
                body.push_str(text.trim());
                body.push('\n');
            }
        }
        return (200, "application/x-ndjson", body);
    }
    let parts: Vec<&str> = path.trim_matches('/').split('/').collect();
    if let ["runs", id, file] = parts[..] {
        if !id.starts_with("run-") || id.contains("..") {
            return (404, "text/plain", "no such run\n".to_string());
        }
        let (name, ctype) = match file {
            "manifest" => ("manifest.json", "application/json"),
            "series" => ("series.ndjson", "application/x-ndjson"),
            "flight" => ("flight.ndjson", "application/x-ndjson"),
            _ => return (404, "text/plain", "no such resource\n".to_string()),
        };
        return match fs::read_to_string(root.join(id).join(name)) {
            Ok(text) => (200, ctype, text),
            Err(_) => (404, "text/plain", "no such run\n".to_string()),
        };
    }
    (404, "text/plain", "not found\n".to_string())
}

fn esc_html(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

/// Renders one series as an inline SVG sparkline (pure markup, no
/// scripts): a polyline scaled into a fixed viewport, latest value
/// printed alongside by the caller.
fn sparkline(points: &[(u64, f64)]) -> String {
    const W: f64 = 240.0;
    const H: f64 = 48.0;
    const PAD: f64 = 3.0;
    if points.is_empty() {
        return String::new();
    }
    let (x0, x1) = (points[0].0 as f64, points[points.len() - 1].0 as f64);
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &(_, v) in points {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let xspan = (x1 - x0).max(1.0);
    let yspan = (hi - lo).max(1e-12);
    let mut coords = String::new();
    for &(s, v) in points {
        let x = PAD + (s as f64 - x0) / xspan * (W - 2.0 * PAD);
        let y = H - PAD - (v - lo) / yspan * (H - 2.0 * PAD);
        let _ = write!(coords, "{x:.1},{y:.1} ");
    }
    format!(
        "<svg width=\"{W}\" height=\"{H}\" viewBox=\"0 0 {W} {H}\">\
         <polyline fill=\"none\" stroke=\"#2b6cb0\" stroke-width=\"1.5\" points=\"{}\"/></svg>",
        coords.trim_end()
    )
}

/// Renders the whole dashboard page: newest runs first, one sparkline
/// per series, manifest summary per run. Auto-refreshes via
/// `<meta http-equiv=\"refresh\">` — no scripts, no external assets.
fn dashboard_html(root: &Path) -> String {
    let mut page = String::from(
        "<!doctype html><html><head><meta charset=\"utf-8\">\
         <meta http-equiv=\"refresh\" content=\"2\">\
         <title>qdgnn training runs</title><style>\
         body{font-family:monospace;margin:2em;background:#fafafa;color:#222}\
         h1{font-size:1.3em}h2{font-size:1.1em;margin-bottom:.2em}\
         .meta{color:#666;font-size:.85em}\
         table{border-collapse:collapse}td{padding:.2em .8em;vertical-align:middle}\
         .val{text-align:right}\
         </style></head><body><h1>qdgnn training runs</h1>\n",
    );
    let mut runs = list_runs(root);
    runs.reverse(); // newest first
    if runs.is_empty() {
        page.push_str("<p class=\"meta\">no runs under this root yet</p>");
    }
    for (id, dir) in runs {
        let manifest = fs::read_to_string(dir.join("manifest.json"))
            .ok()
            .and_then(|t| RunManifest::from_json(t.trim()).ok());
        let _ = write!(page, "<h2>{}</h2>", esc_html(&id));
        if let Some(m) = &manifest {
            let lineage = match &m.resumed_from {
                Some(p) => format!(" · resumed from {}", esc_html(p)),
                None => String::new(),
            };
            let _ = write!(
                page,
                "<p class=\"meta\">dataset {} · seed {} · config {} · started {} µs{}</p>",
                esc_html(&m.dataset),
                m.seed,
                esc_html(&m.config_hash),
                m.start_us,
                lineage
            );
        }
        let store = fs::read_to_string(dir.join("series.ndjson"))
            .ok()
            .and_then(|t| SeriesStore::from_ndjson(&t).ok())
            .unwrap_or_default();
        page.push_str("<table>");
        for name in store.names() {
            let points = store.get(name);
            let last = points.last().copied();
            let _ = write!(
                page,
                "<tr><td>{}</td><td>{}</td><td class=\"val\">{}</td></tr>",
                esc_html(name),
                sparkline(&points),
                match last {
                    Some((step, v)) => format!("{v:.5} @ step {step}"),
                    None => "-".to_string(),
                }
            );
        }
        page.push_str("</table>\n");
    }
    page.push_str("</body></html>\n");
    page
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "qdgnn-runs-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("temp run root");
        dir
    }

    #[test]
    fn manifest_round_trips_and_validates() {
        let m = RunManifest {
            id: "run-000007".into(),
            start_us: 1234,
            seed: 42,
            dataset: "cora".into(),
            config_hash: config_hash("epochs=10"),
            resumed_from: Some("run-000006".into()),
        };
        assert_eq!(RunManifest::from_json(&m.to_json()).unwrap(), m);
        let fresh = RunManifest { resumed_from: None, ..m.clone() };
        assert_eq!(RunManifest::from_json(&fresh.to_json()).unwrap(), fresh);
        assert!(RunManifest::from_json("{\"type\":\"series\"}").is_err());
        assert!(RunManifest::from_json(
            "{\"type\":\"run\",\"id\":\"run-000001\",\"start_us\":0,\"dataset\":\"d\",\
             \"config_hash\":\"x\"}"
        )
        .unwrap_err()
        .contains("seed"));
    }

    #[test]
    fn config_hash_is_stable_and_input_sensitive() {
        assert_eq!(config_hash("abc"), config_hash("abc"));
        assert_ne!(config_hash("abc"), config_hash("abd"));
        assert_eq!(config_hash("").len(), 16);
        // Published FNV-1a 64 test vectors.
        assert_eq!(config_hash(""), "cbf29ce484222325");
        assert_eq!(config_hash("a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn run_ids_are_monotone_within_a_root() {
        let root = tmp_root("ids");
        assert_eq!(next_run_id(&root), "run-000001");
        let a = RunRecorder::create(&root, 1, "toy", "h").unwrap();
        assert_eq!(a.id(), "run-000001");
        let b = RunRecorder::create(&root, 1, "toy", "h").unwrap();
        assert_eq!(b.id(), "run-000002");
        assert_eq!(list_runs(&root).len(), 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn recorder_journals_points_and_drops_duplicates() {
        let root = tmp_root("journal");
        let rec = RunRecorder::create(&root, 7, "toy", "h").unwrap();
        rec.record_point("train.loss", 0, 1.0).unwrap();
        rec.record_point("train.loss", 1, 0.5).unwrap();
        assert!(rec.record_point("train.loss", 1, 0.25).is_err());
        let text = fs::read_to_string(rec.dir().join("series.ndjson")).unwrap();
        assert_eq!(text.lines().count(), 2, "rejected point must not hit disk: {text}");
        let store = SeriesStore::from_ndjson(&text).unwrap();
        assert_eq!(store.last("train.loss"), Some((1, 0.5)));
        let _ = fs::remove_dir_all(&root);
    }

    // Exact FakeClock `start_us` values are asserted in the
    // `run_registry` integration test (its own process) — the global
    // wall clock would race with registry unit tests here.
    #[test]
    fn resume_copies_parent_journal_and_records_lineage() {
        let root = tmp_root("resume");
        let parent = RunRecorder::create(&root, 9, "toy", "cfg").unwrap();
        for step in 0..5u64 {
            parent.record_point("train.loss", step, 1.0 / (step + 1) as f64).unwrap();
        }
        let child = RunRecorder::resume(&root, parent.id()).unwrap();
        assert_eq!(child.manifest().resumed_from.as_deref(), Some(parent.id()));
        assert_eq!(child.manifest().seed, 9);
        assert_eq!(child.manifest().dataset, "toy");
        assert_eq!(child.manifest().config_hash, "cfg");
        // Truncate to the checkpoint step, replay from there: journal is
        // byte-identical to the uninterrupted parent's.
        child.truncate_from(3).unwrap();
        for step in 3..5u64 {
            child.record_point("train.loss", step, 1.0 / (step + 1) as f64).unwrap();
        }
        let parent_text = fs::read_to_string(parent.dir().join("series.ndjson")).unwrap();
        let child_text = fs::read_to_string(child.dir().join("series.ndjson")).unwrap();
        assert_eq!(parent_text, child_text);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn flight_ring_is_bounded_and_flushes() {
        let root = tmp_root("flight");
        let rec = RunRecorder::create(&root, 1, "toy", "h").unwrap();
        for step in 0..(FLIGHT_CAPACITY as u64 + 50) {
            rec.record_point("train.loss", step, step as f64).unwrap();
        }
        rec.flight_event("train.divergence_rollback", &[("epoch", 3.0), ("loss", 99.0)]);
        rec.flush_flight().unwrap();
        let text = fs::read_to_string(rec.dir().join("flight.ndjson")).unwrap();
        assert_eq!(text.lines().count(), FLIGHT_CAPACITY);
        let last = text.lines().last().unwrap();
        let event = Event::from_json(last).unwrap();
        assert_eq!(event.name(), "train.divergence_rollback");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn global_sink_noops_when_uninstalled_and_records_when_installed() {
        // Free functions must be safe to call with no recorder.
        series_observe("train.loss", 0, 1.0);
        series_truncate_from(0);
        flight_event("train.divergence_rollback", &[]);
        flight_flush();

        let root = tmp_root("sink");
        let rec = Arc::new(RunRecorder::create(&root, 3, "toy", "h").unwrap());
        install(Arc::clone(&rec));
        series_observe("train.loss", 0, 0.75);
        series_observe("train.loss", 0, 0.75); // dup: dropped, not fatal
        let taken = uninstall().expect("recorder was installed");
        assert_eq!(taken.series().get("train.loss"), vec![(0, 0.75)]);
        assert!(installed().is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn panic_flush_leaves_flight_file_behind() {
        install_panic_flush();
        let root = tmp_root("panic");
        let rec = Arc::new(RunRecorder::create(&root, 5, "toy", "h").unwrap());
        install(Arc::clone(&rec));
        rec.record_point("train.loss", 0, 1.0).unwrap();
        rec.flight_event("train.divergence_rollback", &[("epoch", 0.0)]);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the backtrace
        let result = std::panic::catch_unwind(|| {
            install_panic_flush(); // idempotent under the quiet hook
            panic!("mid-epoch chaos");
        });
        std::panic::set_hook(prev);
        assert!(result.is_err());
        // The silenced hook replaced the chained one, so flush explicitly
        // through the sink path the hook uses.
        flight_flush();
        let text = fs::read_to_string(rec.dir().join("flight.ndjson")).unwrap();
        assert!(text.lines().count() >= 2, "{text}");
        uninstall();
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn dashboard_serves_manifest_series_and_html() {
        use std::io::{Read as _, Write as _};
        use std::net::TcpStream;

        let root = tmp_root("dash");
        let rec = RunRecorder::create(&root, 11, "toy", "cfg").unwrap();
        rec.record_point("train.loss", 0, 1.0).unwrap();
        rec.record_point("train.loss", 1, 0.5).unwrap();
        rec.record_point("train.val_f1", 1, 0.8).unwrap();
        let id = rec.id().to_string();

        let mut dash = DashServer::start("127.0.0.1:0", root.clone()).unwrap();
        let get = |path: &str| -> String {
            let mut s = TcpStream::connect(dash.addr()).unwrap();
            s.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes()).unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            out
        };

        let runs = get("/runs");
        assert!(runs.starts_with("HTTP/1.0 200"), "{runs}");
        assert!(runs.contains("\"type\":\"run\""));
        let manifest = get(&format!("/runs/{id}/manifest"));
        assert!(manifest.contains("\"seed\":11"), "{manifest}");
        let series = get(&format!("/runs/{id}/series"));
        assert!(series.contains("\"series\":\"train.loss\""), "{series}");
        assert_eq!(series.lines().filter(|l| l.contains("\"type\":\"series\"")).count(), 3);
        // Live: a point recorded after the server started is visible.
        rec.record_point("train.loss", 2, 0.25).unwrap();
        let series = get(&format!("/runs/{id}/series"));
        assert!(series.contains("\"step\":2"), "{series}");
        let page = get("/");
        assert!(page.contains("<svg"), "sparkline missing: {page}");
        assert!(page.contains("train.val_f1"));
        let miss = get("/runs/run-999999/series");
        assert!(miss.starts_with("HTTP/1.0 404"), "{miss}");
        let traversal = get("/runs/run-../series");
        assert!(traversal.starts_with("HTTP/1.0 404"), "{traversal}");
        dash.shutdown();
        let _ = fs::remove_dir_all(&root);
    }
}
