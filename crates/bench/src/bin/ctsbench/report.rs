//! What a run prints and writes, the all-workloads `run` command, and
//! `compare`.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::{Deserialize, Serialize, Value};

use crate::stats::{lower_quartile, Stat};
use crate::workloads::{Outcome, RunConfig, END_TO_END, PER_LAYER, WORKLOADS};

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|(n, unit, _)| (n, unit))
        .chain(PER_LAYER.iter().map(|(n, unit)| (n, unit)))
        .find(|(n, _)| **n == name)
        .map_or("", |(_, unit)| unit)
}

/// A hand-built value tree, for the one object whose keys are metric names.
struct Raw(Value);

impl Serialize for Raw {
    fn serialize(&self) -> Value {
        self.0.clone()
    }
}

fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("reports hold only numbers, strings and lists")
}

/// The contract's result line: the end-to-end metrics of an untraced run,
/// the per-layer metrics of a traced one.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let metrics = if trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let field = |name: &str, value: Value| (name.to_string(), value);
    to_json(&Raw(Value::Map(vec![
        field("correct", Value::Bool(outcome.failed == 0)),
        field("attempted", Value::UInt(outcome.attempted)),
        field("failed", Value::UInt(outcome.failed)),
        field(
            "metrics",
            Value::Map(
                metrics
                    .iter()
                    .map(|(name, stat)| {
                        let entry = vec![
                            field("value", Value::Float(stat.value)),
                            field("unit", Value::Str(unit_of(name).to_string())),
                        ];
                        field(name, Value::Map(entry))
                    })
                    .collect(),
            ),
        ),
    ])))
}

/// One metric of a report: the number, its unit, the per-segment values
/// behind it and the sample count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricDetail {
    name: String,
    unit: String,
    stat: Stat,
}

/// Everything one run of one workload measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunDetail {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    wall_s: f64,
    correct: bool,
    attempted: u64,
    failed: u64,
    error_share: f64,
    metrics: Vec<MetricDetail>,
    notes: Vec<String>,
}

impl RunDetail {
    fn stat(&self, name: &str) -> Option<&Stat> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| &m.stat)
    }
}

/// The `DETAIL` line a child process hands to `ctsbench run`.
pub fn detail(outcome: &Outcome, config: &RunConfig) -> String {
    let metrics = outcome
        .end_to_end
        .iter()
        .chain(&outcome.per_layer)
        .map(|(name, stat)| MetricDetail {
            name: name.to_string(),
            unit: unit_of(name).to_string(),
            stat: stat.clone(),
        })
        .collect();
    to_json(&RunDetail {
        workload: outcome.workload.clone(),
        seed: config.seed,
        seconds: config.seconds,
        trace: config.trace,
        wall_s: outcome.wall_s,
        correct: outcome.failed == 0,
        attempted: outcome.attempted,
        failed: outcome.failed,
        error_share: outcome.failed as f64 / outcome.attempted as f64,
        metrics,
        notes: outcome.notes.clone(),
    })
}

/// Writes `trace_<workload>.json` into `dir`.
pub fn write_trace(outcome: &Outcome, dir: &Path) -> Result<PathBuf, String> {
    let path = dir.join(format!("trace_{}.json", outcome.workload));
    std::fs::write(&path, to_json(&outcome.tracer.to_file(&outcome.workload)))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// Prints every metric by name with its unit, then the notes.
pub fn print_metrics(outcome: &Outcome) {
    println!(
        "== {} ({:.1} s wall, {} operations, {} failed)",
        outcome.workload, outcome.wall_s, outcome.attempted, outcome.failed
    );
    for (name, stat) in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        let support = if stat.supported {
            ""
        } else {
            "  (too few samples beyond this percentile)"
        };
        println!(
            "{:<34} {:>14.3} {:<9} n={} segments={}{support}",
            name,
            stat.value,
            unit_of(name),
            stat.samples,
            stat.segments.len(),
        );
    }
    for note in &outcome.notes {
        println!("  {note}");
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Env {
    git_commit: String,
    rustc: String,
    profile: String,
    nproc: usize,
    seed: u64,
    seconds: f64,
    quick: bool,
}

fn env_block(options: &RunAll) -> Env {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Env {
        git_commit: command_line("git", &["rev-parse", "HEAD"]),
        rustc: command_line("rustc", &["-V"]),
        profile: profile.to_string(),
        nproc: std::thread::available_parallelism().map_or(0, usize::from),
        seed: options.seed,
        seconds: options.seconds,
        quick: options.quick,
    }
}

/// The runs of one workload in a report.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct WorkloadRuns {
    workload: String,
    untraced: RunDetail,
    /// Present in a `run --trace` report.
    traced: Option<RunDetail>,
}

/// The file `ctsbench run` writes and `ctsbench compare` reads.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Report {
    benchmark: String,
    env: Env,
    workloads: Vec<WorkloadRuns>,
}

impl Report {
    fn runs(&self, workload: &str) -> Option<&WorkloadRuns> {
        self.workloads.iter().find(|w| w.workload == workload)
    }

    fn value(&self, workload: &str, traced: bool, name: &str) -> Option<f64> {
        let runs = self.runs(workload)?;
        let run = if traced {
            runs.traced.as_ref()?
        } else {
            &runs.untraced
        };
        run.stat(name).map(|stat| stat.value)
    }
}

pub struct RunAll {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub out: PathBuf,
}

/// Runs one workload in a child process (so `peak_rss_mb` and allocator
/// state belong to that workload alone) and returns its detail.
fn run_child(options: &RunAll, workload: &str, trace: bool) -> Result<RunDetail, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--detail"])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if options.quick {
        command.arg("--quick");
    }
    if trace {
        let dir = options.out.parent().unwrap_or(Path::new("."));
        command.arg("--trace-out").arg(dir);
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut found = None;
    for line in stdout.lines() {
        match line.strip_prefix("DETAIL ") {
            Some(text) => {
                found = Some(
                    serde_json::from_str(text).map_err(|e| format!("{workload} detail: {e}"))?,
                );
            }
            // The result line is for the driver; the report has the detail.
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    if !output.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    found.ok_or_else(|| format!("{workload} printed no detail"))
}

/// `ctsbench run`: all four workloads, untraced and (with `--trace`) traced,
/// into one report file. Returns whether every operation succeeded.
pub fn run_all(options: &RunAll) -> Result<bool, String> {
    let mut report = Report {
        benchmark: "ctsbench".to_string(),
        env: env_block(options),
        workloads: Vec::new(),
    };
    for workload in WORKLOADS {
        report.workloads.push(WorkloadRuns {
            workload: workload.to_string(),
            untraced: run_child(options, workload, false)?,
            traced: if options.trace {
                Some(run_child(options, workload, true)?)
            } else {
                None
            },
        });
    }
    print_answers(&report);
    std::fs::write(&options.out, to_json(&report))
        .map_err(|e| format!("cannot write {}: {e}", options.out.display()))?;
    println!("wrote {}", options.out.display());
    Ok(report
        .workloads
        .iter()
        .flat_map(|w| std::iter::once(&w.untraced).chain(&w.traced))
        .all(|run| run.failed == 0))
}

/// The three questions the old harness could not answer, with numbers.
fn print_answers(report: &Report) {
    let get = |workload: &str, traced: bool, name: &str| report.value(workload, traced, name);
    println!("== answers");
    if let (Some(event), Some(insert), Some(remove)) = (
        // All three from the traced run, so the share is of one process.
        get("paper_single", true, "event_us"),
        get("paper_single", true, "index.insert_us"),
        get("paper_single", true, "index.remove_us"),
    ) {
        println!(
            "postings maintenance: index.insert_us {insert:.1} + index.remove_us {remove:.1} = {:.0}% of paper_single.event_us {event:.1}",
            100.0 * (insert + remove) / event
        );
    }
    if let (Some(stall), Some(p99), Some(p50)) = (
        get("paper_sharded", true, "sharded.stall_us_per_event"),
        get("service_open", true, "service.latency_p99_us"),
        get("service_open", true, "service.latency_p50_us"),
    ) {
        println!(
            "checkpoint clone: sharded.stall_us_per_event {stall:.1} on paper_sharded; service_open service.latency_p99_us {p99:.0} against service.latency_p50_us {p50:.0}"
        );
    }
    if let (Some(churn), Some(single)) = (
        get("register_churn", false, "register_us"),
        get("paper_single", false, "register_us"),
    ) {
        let bulk = get("paper_single", true, "ita.bulk_register_us");
        println!(
            "registration: register_us {churn:.0} us/query on two shards (register_churn) against {single:.0} on the plain engine (paper_single){}",
            bulk.map_or(String::new(), |b| format!(
                "; ita.bulk_register_us {b:.0} us/query at set-up"
            ))
        );
    }
    if let Some(event) = get("service_open", false, "event_us") {
        println!(
            "capacity: service_open sustains {:.0} events/s (1e6 / event_us {event:.1})",
            1e6 / event
        );
    }
}

// ---------------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// By what share of `a` the value `b` is worse.
fn regress(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        b / a - 1.0
    } else {
        1.0 - b / a
    }
}

/// Judges `b` against `a` under `bound` (a share of `a`); returns the
/// regression of the metric, of the plain mean over segments, and the
/// verdict.
///
/// `worse`: `b` is worse than `a` by more than the bound and by more than
/// either run disagrees with itself. `unresolved`: "no worse" cannot be
/// claimed, because a run disagrees with itself by more than the bound, a
/// percentile lacked samples, or the mean over segments is worse by more
/// than the bound although the lower quartile is not (a cost that recurs in
/// under three of four segments, or noise) — unless every segment of `b`
/// beats every segment of `a`.
pub fn judge(a: &Stat, b: &Stat, lower_is_better: bool, bound: f64) -> (f64, f64, Verdict) {
    let by_value = regress(a.value, b.value, lower_is_better);
    let by_mean = regress(a.mean(), b.mean(), lower_is_better);
    let noise = unsteadiness(a).max(unsteadiness(b));
    let (worst_b, best_a) = if lower_is_better {
        (
            b.segments.iter().copied().fold(f64::MIN, f64::max),
            a.segments.iter().copied().fold(f64::MAX, f64::min),
        )
    } else {
        (
            -b.segments.iter().copied().fold(f64::MAX, f64::min),
            -a.segments.iter().copied().fold(f64::MIN, f64::max),
        )
    };
    let b_always_better = !a.segments.is_empty() && !b.segments.is_empty() && worst_b < best_a;
    let verdict = if !by_value.is_finite() {
        Verdict::Unresolved
    } else if by_value > bound && by_value > noise {
        Verdict::Worse
    } else if b_always_better {
        Verdict::Ok
    } else if noise > bound || by_mean > bound || !a.supported || !b.supported {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (by_value, by_mean, verdict)
}

/// How far the metric of one run can be trusted, from the run alone, as a
/// share of its value: the same summary taken over the first and the second
/// half of its segments — or, when there are too few segments to halve
/// (set-up repeats of a `--quick` run), the whole range they span. (The
/// spread between many segments would overstate it: the summary is steadier
/// than any one segment.)
fn unsteadiness(stat: &Stat) -> f64 {
    let segments = &stat.segments;
    if segments.len() < 2 || stat.value == 0.0 {
        return 0.0;
    }
    let apart = if segments.len() < 8 {
        segments.iter().copied().fold(f64::MIN, f64::max)
            - segments.iter().copied().fold(f64::MAX, f64::min)
    } else {
        let (first, second) = segments.split_at(segments.len() / 2);
        lower_quartile(first) - lower_quartile(second)
    };
    apart.abs() / stat.value.abs()
}

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Deserialize)]
struct Bound {
    name: String,
    better: String,
    bound: f64,
}

/// The part of `BENCHMARK.json` that `compare` reads.
#[derive(Debug, Deserialize)]
struct Bench {
    end_to_end: Vec<Bound>,
}

fn load<T: Deserialize>(path: &Path) -> Result<T, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `ctsbench compare A.json B.json`: per workload and end-to-end metric,
/// both values, the ratio with its base, the ratio of the means over
/// segments, and the verdict against the bound stored in `BENCHMARK.json`.
/// Returns whether B is acceptable (nothing `worse`, no larger error share).
pub fn compare(a_path: &Path, b_path: &Path, bench_path: &Path) -> Result<bool, String> {
    let (a, b): (Report, Report) = (load(a_path)?, load(b_path)?);
    let bench: Bench = load(bench_path)?;
    if bench.end_to_end.is_empty() {
        return Err(format!(
            "{} lists no end_to_end metrics",
            bench_path.display()
        ));
    }
    println!(
        "{:<15} {:<15} {:>12} {:>12} {:>9} {:>9} {:>6}  verdict   (A = {}, B = {}; ratios are B/A)",
        "workload",
        "metric",
        "A",
        "B",
        "B/A",
        "mean B/A",
        "bound",
        a_path.display(),
        b_path.display()
    );
    let mut acceptable = true;
    for workload in WORKLOADS {
        let (Some(a_runs), Some(b_runs)) = (a.runs(workload), b.runs(workload)) else {
            println!("{workload:<15} missing from one report");
            acceptable = false;
            continue;
        };
        let (a_run, b_run) = (&a_runs.untraced, &b_runs.untraced);
        for Bound {
            name,
            better,
            bound,
        } in &bench.end_to_end
        {
            let (Some(a_stat), Some(b_stat)) = (a_run.stat(name), b_run.stat(name)) else {
                println!("{workload:<15} {name:<15} missing from one report");
                acceptable = false;
                continue;
            };
            let (_, _, verdict) = judge(a_stat, b_stat, better != "higher", *bound);
            acceptable &= verdict != Verdict::Worse;
            println!(
                "{workload:<15} {name:<15} {:>12.3} {:>12.3} {:>9.4} {:>9.4} {bound:>6.2}  {}",
                a_stat.value,
                b_stat.value,
                b_stat.value / a_stat.value,
                b_stat.mean() / a_stat.mean(),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        if b_run.error_share > a_run.error_share {
            println!(
                "{workload:<15} error_share grew from {} to {}: worse",
                a_run.error_share, b_run.error_share
            );
            acceptable = false;
        }
    }
    Ok(acceptable)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric whose lower quartile is `value` times each factor's.
    fn stat(value: f64, factors: &[f64]) -> Stat {
        Stat::of_segments(factors.iter().map(|f| f * value).collect(), factors.len())
    }

    fn steady(value: f64) -> Stat {
        stat(
            value,
            &[
                0.99, 0.9925, 0.995, 0.9975, 1.0, 1.0025, 1.005, 1.0075, 1.01,
            ],
        )
    }

    fn verdict(a: &Stat, b: &Stat, lower_is_better: bool) -> Verdict {
        judge(a, b, lower_is_better, 0.10).2
    }

    #[test]
    fn judge_applies_the_bound_in_the_metrics_direction() {
        assert_eq!(verdict(&steady(100.0), &steady(105.0), true), Verdict::Ok);
        assert_eq!(
            verdict(&steady(100.0), &steady(115.0), true),
            Verdict::Worse
        );
        assert_eq!(verdict(&steady(100.0), &steady(60.0), true), Verdict::Ok);
        // Higher is better: a drop of 15% is worse, a rise is fine.
        assert_eq!(
            verdict(&steady(100.0), &steady(85.0), false),
            Verdict::Worse
        );
        assert_eq!(verdict(&steady(100.0), &steady(130.0), false), Verdict::Ok);
        let (by_value, by_mean, _) = judge(&steady(200.0), &steady(210.0), true, 0.10);
        assert!((by_value - 0.05).abs() < 1e-12 && (by_mean - 0.05).abs() < 1e-12);
    }

    #[test]
    fn halves_that_disagree_by_more_than_the_bound_are_unresolved_unless_b_always_wins() {
        // The second half of the run read 50% higher than the first.
        let noisy = |value: f64| stat(value, &[0.8, 0.8, 0.82, 0.8, 1.2, 1.2, 1.22, 1.2]);
        assert!((unsteadiness(&noisy(100.0)) - 0.5).abs() < 1e-9);
        assert!(unsteadiness(&steady(100.0)) < 0.02);
        assert_eq!(
            verdict(&noisy(100.0), &noisy(104.0), true),
            Verdict::Unresolved
        );
        // 15% worse, but the halves of each run differ by 50%: not a finding
        // either way.
        assert_eq!(
            verdict(&noisy(100.0), &noisy(115.0), true),
            Verdict::Unresolved
        );
        // Far outside that disagreement: worse.
        assert_eq!(verdict(&noisy(100.0), &noisy(190.0), true), Verdict::Worse);
        // Every segment of B beats every segment of A.
        assert_eq!(verdict(&noisy(100.0), &noisy(40.0), true), Verdict::Ok);
        let unsupported = Stat {
            supported: false,
            ..steady(100.0)
        };
        assert_eq!(
            verdict(&steady(100.0), &unsupported, true),
            Verdict::Unresolved
        );
    }

    #[test]
    fn a_few_repeats_in_two_modes_are_unresolved_not_worse() {
        // Five set-ups of the same code, three in a slow mode and two in a
        // fast one; the summary lands in either. Too few to halve, so the
        // range they span is the noise.
        let a = stat(1.0, &[0.399, 0.395, 0.379, 0.228, 0.207]);
        let b = stat(1.0, &[0.384, 0.376, 0.358, 0.365, 0.359]);
        assert!(b.value / a.value > 1.25);
        assert_eq!(judge(&a, &b, true, 0.25).2, Verdict::Unresolved);
        // A single value (a size, a count) has no spread to excuse it.
        assert_eq!(
            verdict(&Stat::single(100.0), &Stat::single(120.0), true),
            Verdict::Worse
        );
    }

    #[test]
    fn a_cost_the_quartile_cannot_see_is_unresolved_through_the_mean() {
        // B batches work into every fourth segment: its lower quartile even
        // improves, its mean over segments is 20% worse.
        let a = stat(100.0, &[1.0; 16]);
        let b = stat(
            100.0,
            &[
                0.95, 0.95, 0.95, 1.95, 0.95, 0.95, 0.95, 1.95, 0.95, 0.95, 0.95, 1.95, 0.95, 0.95,
                0.95, 1.95,
            ],
        );
        let (by_value, by_mean, verdict) = judge(&a, &b, true, 0.10);
        assert!(by_value < 0.0 && (by_mean - 0.2).abs() < 1e-9);
        assert_eq!(verdict, Verdict::Unresolved);
    }

    #[test]
    fn reports_and_benchmark_json_round_trip_through_serde() {
        let run = RunDetail {
            workload: "paper_single".to_string(),
            seed: 7,
            seconds: 12.0,
            trace: false,
            wall_s: 20.5,
            correct: true,
            attempted: 10,
            failed: 0,
            error_share: 0.0,
            metrics: vec![MetricDetail {
                name: "event_us".to_string(),
                unit: "us/event".to_string(),
                stat: steady(100.0),
            }],
            notes: vec!["a \"quoted\" note".to_string()],
        };
        let back: RunDetail = serde_json::from_str(&to_json(&run)).unwrap();
        assert_eq!(back.stat("event_us"), Some(&steady(100.0)));
        assert_eq!(back.notes, run.notes);
        assert!(back.stat("setup_s").is_none());
        // Whole numbers and keys `compare` does not use are accepted.
        let bench: Bench = serde_json::from_str(
            r#"{"command": ["x"], "run_seconds": 12,
                "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 1}]}"#,
        )
        .unwrap();
        assert_eq!(bench.end_to_end[0].name, "setup_s");
        assert_eq!(bench.end_to_end[0].bound, 1.0);
    }
}
