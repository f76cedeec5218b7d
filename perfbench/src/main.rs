//! The repository benchmark's measuring binary.
//!
//! Runs one named workload through the simulator's public API for a host
//! time budget and prints everything it measured as one JSON object on the
//! last line of standard output. `perfbench/run.py` builds this binary,
//! turns the raw numbers into the metrics named in `BENCHMARK.json`, and
//! checks the outputs against the pinned oracle (`perfbench/pins.json`).
//!
//! ```text
//! perfbench --workload <service_kv|fig09_flush_8c|fig15_warm_grid> --seed N
//!           --seconds S [--traced] [--tiny] [--engine naive] [--reference]
//! ```
//!
//! `--traced` records spans around every call into a layer and reports the
//! per-layer numbers; build with `--features profile` for the engine's
//! phase laps. `--engine naive` runs the reference engine (how the pins are
//! derived); `--reference` also reruns the committed figure builders of
//! `skipit-bench` so the pins can be checked against them.

mod fig09;
mod fig15;
mod out;
mod service_kv;

use out::Json;
use skipit_core::{EngineKind, EngineStats, System, SystemStats};
use std::time::Instant;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub tiny: bool,
    pub engine: EngineKind,
    pub reference: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            traced: false,
            tiny: false,
            engine: EngineKind::ComponentWheel,
            reference: false,
        };
        let mut seed = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--traced" => args.traced = true,
                "--tiny" => args.tiny = true,
                "--reference" => args.reference = true,
                "--engine" => {
                    args.engine = match value()?.as_str() {
                        "naive" => EngineKind::Naive,
                        "wheel" => EngineKind::ComponentWheel,
                        other => return Err(format!("unknown engine {other:?}")),
                    }
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        args.seed = seed.ok_or("--seed is required")?;
        Ok(args)
    }

    /// Whether the run has used up its host-time budget.
    pub fn done(&self, start: Instant) -> bool {
        start.elapsed().as_secs_f64() >= self.seconds
    }
}

/// Host CPU affinity of the calling thread, through the C library's
/// `sched_getaffinity`/`sched_setaffinity` (std links it; the workspace has
/// no `libc` crate).
///
/// Two effects of a shared virtual host swamp the program's own time
/// unless the benchmark pins its threads:
///
/// - The CPUs need not run at one speed: a neighbour on the same physical
///   core can slow one of them for a while. A single-threaded workload
///   that stays wherever the scheduler put it times that CPU, not the
///   program. So single-threaded repetitions rotate over every CPU the
///   process may use, and `run.py` averages per-CPU statistics.
/// - Thread mode hands the simulation from host thread to host thread, so
///   only one of a run's threads works at a time. When the threads of one
///   run sit on different CPUs, every hand-off waits for a cross-CPU
///   wake-up, which on a virtual machine costs more than the work between
///   hand-offs, and varies with the host's load. So the threads of one run
///   share one CPU: spawned threads inherit the pin of their parent.
pub mod affinity {
    use std::sync::Mutex;
    use std::thread::ThreadId;

    /// `cpu_set_t`: 1024 bits.
    #[repr(C)]
    struct CpuSet([u64; 16]);

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    /// The CPUs the calling thread may run on (empty if the call fails).
    pub fn allowed() -> Vec<usize> {
        let mut set = CpuSet([0; 16]);
        // SAFETY: `set` is a writable `cpu_set_t`-sized buffer and `size`
        // says so; pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
            return Vec::new();
        }
        (0..1024)
            .filter(|&c| set.0[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// Restricts the calling thread to `cpus`; returns whether it took.
    pub fn set(cpus: &[usize]) -> bool {
        let mut set = CpuSet([0; 16]);
        for &c in cpus.iter().filter(|&&c| c < 1024) {
            set.0[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: `set` is a readable `cpu_set_t`-sized buffer; pid 0 is
        // the calling thread.
        !cpus.is_empty()
            && unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) } == 0
    }

    /// Pins the calling thread to the `turn`-th of `cpus`, cyclically;
    /// returns that CPU, or `None` if there is none or the pin failed.
    pub fn pin_turn(cpus: &[usize], turn: usize) -> Option<usize> {
        let cpu = *cpus.get(turn % cpus.len().max(1))?;
        set(&[cpu]).then_some(cpu)
    }

    /// Spreads the threads of a pool over the allowed CPUs: each thread
    /// that calls [`Spread::pin`] gets the next CPU, in order of first call.
    pub struct Spread {
        cpus: Vec<usize>,
        seen: Mutex<Vec<ThreadId>>,
    }

    impl Spread {
        pub fn new(cpus: &[usize]) -> Spread {
            Spread {
                cpus: cpus.to_vec(),
                seen: Mutex::new(Vec::new()),
            }
        }

        /// Pins the calling thread to its CPU.
        pub fn pin(&self) -> Option<usize> {
            let me = std::thread::current().id();
            let turn = {
                let mut seen = self.seen.lock().unwrap_or_else(|e| e.into_inner());
                seen.iter().position(|&t| t == me).unwrap_or_else(|| {
                    seen.push(me);
                    seen.len() - 1
                })
            };
            pin_turn(&self.cpus, turn)
        }
    }
}

/// One measured unit of work (a service run, a Fig. 9 sample, a grid run).
pub struct Unit {
    /// Host seconds of the unit.
    pub wall_s: f64,
    /// The host CPU the unit was pinned to, if its workload rotates over
    /// CPUs (see [`affinity`]).
    pub cpu: Option<usize>,
    /// Every simulated cycle the unit's timed calls executed.
    pub sim_total_cycles: u64,
    /// Runs or grid points the unit attempted, and how many of them failed
    /// an in-run check or returned an error row.
    pub attempted: u64,
    pub failed: u64,
    /// The unit's exact simulated outputs: equal across units of one run,
    /// and equal to the pin on the default seed.
    pub outputs: Json,
}

/// What one workload run measured.
#[derive(Default)]
pub struct Report {
    /// Host seconds of each set-up (everything before a first measured
    /// cycle), with the CPU it was pinned to as for [`Unit::cpu`].
    pub setup_s: Vec<(f64, Option<usize>)>,
    pub units: Vec<Unit>,
    /// Exact run-level outputs beside the per-unit ones (pinned too).
    pub outputs: Vec<(&'static str, Json)>,
    /// Held-out invariant checks, as `(name, ok, detail)`.
    pub checks: Vec<(&'static str, bool, String)>,
    /// Simulated results of the measured phase: cycles of one unit,
    /// request latency p50/p999 in cycles, operations per million cycles.
    pub sim_cycles: f64,
    pub sim_p50_cycles: f64,
    pub sim_p999_cycles: f64,
    pub sim_ops_per_mcycle: f64,
    /// Per-layer numbers (traced runs).
    pub layers: Vec<(&'static str, f64)>,
    /// Per-layer metrics this workload exercises but cannot isolate from
    /// outside the program, with the reason.
    pub unmeasured: Vec<(&'static str, String)>,
}

impl Report {
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name, ok, detail.into()));
    }
}

/// Nearest-rank percentile of `values` (`q` in 0..=1).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Hex form of a 64-bit digest (JSON numbers lose bits above 2^53).
pub fn hex(v: u64) -> Json {
    Json::Str(format!("{v:016x}"))
}

/// FNV-1a over `bytes`: a stable fingerprint for pinned text outputs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The model's counters, named as the per-layer metrics.
pub const COUNTER_NAMES: [&str; 21] = [
    "dcache.loads",
    "dcache.stores",
    "dcache.writebacks_enqueued",
    "dcache.writebacks_skipped",
    "dcache.writebacks_coalesced",
    "dcache.mshr_allocs",
    "dcache.nacks",
    "llc.acquires",
    "llc.root_release_flush",
    "llc.root_release_clean",
    "llc.root_release_dram_skipped",
    "llc.probes_sent",
    "llc.mem_fills",
    "llc.list_buffered",
    "mem.reads",
    "mem.writes",
    "tilelink.msgs_a",
    "tilelink.msgs_b",
    "tilelink.msgs_c",
    "tilelink.msgs_d",
    "tilelink.msgs_e",
];

/// The model's counters summed over cores, in [`COUNTER_NAMES`] order.
pub fn counters(sys: &System) -> Vec<(&'static str, u64)> {
    let s: SystemStats = sys.stats();
    let l1 = |f: fn(&skipit_core::L1Stats) -> u64| s.l1.iter().map(f).sum::<u64>();
    let link = |c| {
        (0..sys.config().cores)
            .map(|i| sys.link_pushed(c, i))
            .sum::<u64>()
    };
    let values = [
        l1(|x| x.loads),
        l1(|x| x.stores),
        l1(|x| x.writebacks_enqueued),
        l1(|x| x.writebacks_skipped),
        l1(|x| x.writebacks_coalesced),
        l1(|x| x.mshr_allocs),
        l1(|x| x.nacks),
        s.l2.acquires,
        s.l2.root_release_flush,
        s.l2.root_release_clean,
        s.l2.root_release_dram_skipped,
        s.l2.probes_sent,
        s.l2.mem_fills,
        s.l2.list_buffered,
        s.mem.reads,
        s.mem.writes,
        link('A'),
        link('B'),
        link('C'),
        link('D'),
        link('E'),
    ];
    COUNTER_NAMES.into_iter().zip(values).collect()
}

/// Adds the counter deltas `after - before` into `acc` (same names, same
/// order as [`counters`]).
pub fn add_counter_delta(
    acc: &mut Vec<(&'static str, u64)>,
    before: &[(&'static str, u64)],
    after: &[(&'static str, u64)],
) {
    if acc.is_empty() {
        acc.extend(before.iter().map(|&(n, _)| (n, 0)));
    }
    for ((slot, b), a) in acc.iter_mut().zip(before).zip(after) {
        slot.1 += a.1 - b.1;
    }
}

/// Engine counters accumulated over measured phases.
#[derive(Default)]
pub struct EngineAcc {
    serial_ns: u64,
    core_ns: u64,
    frontend_ns: u64,
    component_steps: u64,
    component_slots: u64,
    jumps: u64,
    /// Host seconds of the calls the deltas were taken around.
    wall_s: f64,
}

impl EngineAcc {
    /// Adds the delta `after - before` of one measured call lasting
    /// `wall_s` host seconds.
    pub fn add(&mut self, before: &EngineStats, after: &EngineStats, wall_s: f64) {
        self.serial_ns += after.phase.serial_ns - before.phase.serial_ns;
        self.core_ns += after.phase.core_ns - before.phase.core_ns;
        self.frontend_ns += after.phase.frontend_ns - before.phase.frontend_ns;
        self.component_steps += after.component_steps - before.component_steps;
        self.component_slots += after.component_slots - before.component_slots;
        self.jumps += after.jumps - before.jumps;
        self.wall_s += wall_s;
    }

    /// The `boom.*` per-layer metrics.
    pub fn layers(&self) -> Vec<(&'static str, f64)> {
        let s = |ns: u64| ns as f64 * 1e-9;
        let phases = s(self.serial_ns + self.core_ns + self.frontend_ns);
        let skipped = if self.component_slots == 0 {
            0.0
        } else {
            100.0 * (1.0 - self.component_steps as f64 / self.component_slots as f64)
        };
        vec![
            ("boom.phase.serial_s", s(self.serial_ns)),
            ("boom.phase.core_s", s(self.core_ns)),
            ("boom.phase.frontend_s", s(self.frontend_ns)),
            ("boom.outside_wheel_s", self.wall_s - phases),
            ("boom.engine.component_steps", self.component_steps as f64),
            ("boom.engine.skipped_pct", skipped),
            ("boom.engine.jumps", self.jumps as f64),
        ]
    }
}

/// Peak resident memory of this process in MiB (Linux `VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn cpu_json(cpu: Option<usize>) -> Json {
    cpu.map_or(Json::Null, |c| Json::Int(c as u64))
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.traced {
        out::enable_spans();
    }
    let report = match args.workload.as_str() {
        "service_kv" => service_kv::run(&args),
        "fig09_flush_8c" => fig09::run(&args),
        "fig15_warm_grid" => fig15::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let pairs = |v: &[(&'static str, f64)]| Json::obj(v.iter().map(|&(k, x)| (k, Json::Num(x))));
    let result = Json::obj([
        ("workload", Json::str(&args.workload)),
        ("seed", args.seed.into()),
        ("traced", args.traced.into()),
        ("tiny", args.tiny.into()),
        ("engine", Json::str(format!("{:?}", args.engine))),
        ("profile_compiled", skipit_core::PROFILE_COMPILED.into()),
        (
            "host_cpus",
            (std::thread::available_parallelism().map_or(1, |n| n.get()) as u64).into(),
        ),
        (
            "setup_s",
            Json::Arr(
                report
                    .setup_s
                    .iter()
                    .map(|&(s, cpu)| Json::obj([("s", Json::Num(s)), ("cpu", cpu_json(cpu))]))
                    .collect(),
            ),
        ),
        (
            "units",
            Json::Arr(
                report
                    .units
                    .into_iter()
                    .map(|u| {
                        Json::obj([
                            ("wall_s", Json::Num(u.wall_s)),
                            ("cpu", cpu_json(u.cpu)),
                            ("sim_total_cycles", u.sim_total_cycles.into()),
                            ("attempted", u.attempted.into()),
                            ("failed", u.failed.into()),
                            ("outputs", u.outputs),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("outputs", Json::obj(report.outputs)),
        (
            "checks",
            Json::Arr(
                report
                    .checks
                    .into_iter()
                    .map(|(n, ok, d)| {
                        Json::obj([
                            ("name", Json::str(n)),
                            ("ok", ok.into()),
                            ("detail", Json::Str(d)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "sim",
            pairs(&[
                ("sim_cycles", report.sim_cycles),
                ("sim_p50_cycles", report.sim_p50_cycles),
                ("sim_p999_cycles", report.sim_p999_cycles),
                ("sim_ops_per_mcycle", report.sim_ops_per_mcycle),
            ]),
        ),
        ("layers", pairs(&report.layers)),
        (
            "unmeasured",
            Json::obj(
                report
                    .unmeasured
                    .into_iter()
                    .map(|(k, r)| (k, Json::Str(r))),
            ),
        ),
        ("peak_rss_mib", Json::Num(peak_rss_mib())),
        ("spans", out::take_spans()),
    ]);
    println!("{result}");
}
