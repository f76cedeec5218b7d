//! Output plumbing: a minimal JSON value (the workspace has no serde) and
//! the in-memory span recorder of traced runs.

use std::cell::RefCell;
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// A JSON value, rendered by `Display`.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Integers stay exact (`f64` would round counters above 2^53).
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(v) => write!(f, "{v}"),
            // `{:?}` prints the shortest string that reads back as the same
            // f64, so every measured digit survives.
            Json::Num(v) if v.is_finite() => write!(f, "{v:?}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_char(']')
            }
            Json::Obj(pairs) => {
                f.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// One recorded call into a layer's public API.
struct Span {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Spans of a traced run, kept in memory until [`take_spans`].
struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: OnceLock<Recorder> = OnceLock::new();

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Turns span recording on for the rest of the process (traced runs only:
/// end-to-end runs measure with it off).
pub fn enable_spans() {
    RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    });
    ENABLED.store(true, Ordering::Relaxed);
}

/// The innermost span open on this thread, to parent work that continues
/// on another thread (sweep workers) via [`span_in`].
pub fn current_span() -> Option<u64> {
    OPEN.with(|o| o.borrow().last().copied())
}

/// Runs `f` inside a span named `name` whose parent is the innermost span
/// open on this thread.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    span_in(current_span(), name, f)
}

/// Runs `f` inside a span named `name` with an explicit parent.
pub fn span_in<T>(parent: Option<u64>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let Some(rec) = RECORDER.get().filter(|_| ENABLED.load(Ordering::Relaxed)) else {
        return f();
    };
    let id = rec.next_id.fetch_add(1, Ordering::Relaxed);
    let start_ns = rec.epoch.elapsed().as_nanos() as u64;
    OPEN.with(|o| o.borrow_mut().push(id));
    let out = f();
    OPEN.with(|o| o.borrow_mut().pop());
    let end_ns = rec.epoch.elapsed().as_nanos() as u64;
    rec.spans
        .lock()
        .expect("span recorder poisoned by a panicking thread")
        .push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
    out
}

/// Every span recorded so far, ordered by start time, as JSON objects.
pub fn take_spans() -> Json {
    let Some(rec) = RECORDER.get() else {
        return Json::Arr(Vec::new());
    };
    let mut spans = std::mem::take(
        &mut *rec
            .spans
            .lock()
            .expect("span recorder poisoned by a panicking thread"),
    );
    spans.sort_by_key(|s| (s.start_ns, s.id));
    Json::Arr(
        spans
            .into_iter()
            .map(|s| {
                Json::obj([
                    ("id", s.id.into()),
                    ("parent", s.parent.map_or(Json::Null, Json::Int)),
                    ("name", Json::str(s.name)),
                    ("start_ns", s.start_ns.into()),
                    ("end_ns", s.end_ns.into()),
                ])
            })
            .collect(),
    )
}
