//! skybench: one repeatable benchmark for the simulated plane and the
//! live plane, end to end and per layer. See README.md.
//!
//! ```text
//! skybench run [--seed N] [--workload NAME]... [--window-s S] [--out FILE]
//! skybench list
//! skybench compare A.json B.json
//! skybench bench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `run` is the developer's command: every workload, set-ups and traced
//! pass, `workload metric value unit` lines and `results.json`. `bench`
//! is the driver's: one workload, one pass, one JSON object on the last
//! line of standard output.

mod alloc;
mod compare;
mod json;
mod live;
mod probe;
mod replay;
mod report;
mod simbench;
mod spec;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{Phase, WorkloadReport};
use simbench::{Checks, Fingerprint, SimBench};
use skywalker::run_scenario;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The seed the benchmark was developed on; a claim must also hold on
/// the held-out seed the README names.
const DEV_SEED: u64 = 61;
/// The one workload that is not a simulation.
const LIVE: &str = "live_loopback";
const DEFAULT_WINDOW_S: f64 = 20.0;
/// Set-ups per workload, at least: `run` makes this many, the plain pass
/// of `bench` as many more as its seconds hold.
const MIN_SETUPS: usize = 3;
/// Share of the measuring time the traced pass spends on in-situ reps;
/// in a `bench` run the replay loops take what is left.
const TRACED_IN_SITU_SHARE: f64 = 0.6;

const USAGE: &str = "usage:
  skybench run [--seed N] [--workload NAME]... [--window-s S] [--out FILE]
  skybench list
  skybench compare A.json B.json
  skybench bench --workload NAME --seed N --seconds S --trace 0|1";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => Options::parse(rest).and_then(run),
        Some((cmd, rest)) if cmd == "bench" => Options::parse(rest).and_then(bench),
        Some((cmd, [])) if cmd == "list" => {
            list();
            Ok(true)
        }
        Some((cmd, [a, b])) if cmd == "compare" => compare_files(a, b),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[derive(Debug, PartialEq)]
struct Options {
    seed: u64,
    workloads: Vec<&'static str>,
    /// `--window-s` of `run`, `--seconds` of `bench`.
    seconds: f64,
    traced: bool,
    out: String,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            seed: DEV_SEED,
            workloads: Vec::new(),
            seconds: DEFAULT_WINDOW_S,
            traced: false,
            out: "results.json".to_string(),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
            match flag.as_str() {
                "--seed" => o.seed = value.parse().map_err(|_| bad())?,
                "--workload" => o
                    .workloads
                    .push(spec::workload(value).ok_or_else(bad)?.name),
                "--window-s" | "--seconds" => {
                    o.seconds = value.parse().map_err(|_| bad())?;
                    if !(o.seconds > 0.0 && o.seconds <= 3600.0) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    o.traced = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--out" => o.out = value.clone(),
                _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
            }
        }
        Ok(o)
    }
}

fn list() {
    for w in &spec::WORKLOADS {
        println!("{:<17} {}", w.name, w.why);
    }
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let read = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, regressed) = compare::compare(&read(a)?, &read(b)?);
    print!("{table}");
    Ok(!regressed)
}

/// The observers must not change what they observe: the unobserved
/// configuration of the same day (run here unless the caller already
/// has its fingerprint) has to produce the same outcome.
fn check_observers_only_observe(
    observed: &SimBench,
    plain: Option<Fingerprint>,
    checks: &mut Checks,
) {
    let plain = plain.unwrap_or_else(|| {
        let w = workloads::build("diurnal_day", observed.w.cfg.seed)
            .expect("diurnal_day is a simulated workload");
        Fingerprint::of(&run_scenario(&w.scenario, &w.cfg))
    });
    checks.require(observed.print == plain, || {
        format!(
            "diurnal_observed fingerprint {} differs from diurnal_day's {} in {:?}",
            observed.print.hex(),
            plain.hex(),
            observed.print.differs_in(&plain)
        )
    });
}

fn sim_phases(b: &SimBench) -> Vec<Phase> {
    vec![Phase {
        name: "warm-ups",
        sent: b.attempted(),
        succeeded: b.attempted() - b.failed,
        failed: b.failed,
    }]
}

fn ttft_note(b: &SimBench) {
    let ttft = &b.reference.report.ttft;
    // The run's summary carries p50, p90 and p99 only.
    let tail = stats::supported_tail(ttft.count).map(|p| p.min(99.0));
    if let Some(tail) = tail {
        let value = if tail >= 99.0 { ttft.p99 } else { ttft.p90 };
        println!(
            "{} ttft: highest supported percentile p{tail} = {:.3} ms over {} samples",
            b.w.name,
            value * 1e3,
            ttft.count
        );
    }
}

fn sim_traced(b: &SimBench, in_situ: Duration, checks: &mut Checks) -> spec::Metrics {
    let mut m = b.counters();
    m.extend(b.traced(in_situ, checks));
    m.extend(replay::of_source(
        b.w.scenario.traffic.as_ref(),
        b.w.profile,
        b.reference.peak_events,
    ));
    m
}

fn live_report(r: live::LiveResult, traced: bool) -> WorkloadReport {
    WorkloadReport {
        name: LIVE,
        end_to_end: (!traced).then_some(r.end_to_end),
        per_layer: traced.then_some(r.per_layer),
        fingerprint: None,
        phases: vec![Phase {
            name: if traced { "traced window" } else { "window" },
            sent: r.attempted,
            succeeded: r.attempted - r.failed,
            failed: r.failed,
        }],
    }
}

/// The driver's entry point: one workload, one pass.
fn bench(o: Options) -> Result<bool, String> {
    let [name] = o.workloads[..] else {
        return Err(format!("bench takes exactly one --workload\n{USAGE}"));
    };
    let mut checks = Checks::default();
    let budget = Duration::from_secs_f64(o.seconds);
    let report = if name == LIVE {
        let setups = if o.traced { 1 } else { MIN_SETUPS };
        let result = live::measure(o.seed, budget, setups, o.traced, &mut checks)
            .map_err(|e| format!("live_loopback: {e}"))?;
        live_report(result, o.traced)
    } else {
        let start = Instant::now();
        let mut b = SimBench::new(name, o.seed, &mut checks);
        if name == "diurnal_observed" {
            check_observers_only_observe(&b, None, &mut checks);
        }
        let mut report = WorkloadReport {
            name,
            fingerprint: Some(b.print.hex()),
            ..WorkloadReport::default()
        };
        if o.traced {
            let in_situ = budget.mul_f64(TRACED_IN_SITU_SHARE);
            report.per_layer = Some(sim_traced(&b, in_situ, &mut checks));
        } else {
            // The plain pass of a simulated workload is set-up after
            // set-up: each warm-up rep is the run whose outcome and heap
            // are reported (and must repeat), and set-up time is the one
            // host time reported. Another is started only while the
            // fastest so far still fits into `--seconds`.
            while b.setups() < MIN_SETUPS
                || start.elapsed().as_secs_f64() + b.fastest_setup_s() < o.seconds
            {
                b.set_up_again(&mut checks);
            }
            report.end_to_end = Some(b.end_to_end(&mut checks));
        }
        report.phases = sim_phases(&b);
        report
    };
    print!("{}", report.render());
    println!("{}", report.driver_line(checks.all_passed()));
    Ok(true)
}

/// The developer's entry point: every selected workload, both passes.
fn run(mut o: Options) -> Result<bool, String> {
    if o.workloads.is_empty() {
        o.workloads = spec::WORKLOADS.iter().map(|w| w.name).collect();
    }
    let mut checks = Checks::default();
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "skybench seed {} window {} s host parallelism {parallelism}",
        o.seed, o.seconds
    );

    // Set-ups, one workload after another.
    let sims: Vec<SimBench> = o
        .workloads
        .iter()
        .filter(|&&n| n != LIVE)
        .map(|&n| {
            let mut b = SimBench::new(n, o.seed, &mut checks);
            for _ in 1..MIN_SETUPS {
                b.set_up_again(&mut checks);
            }
            b
        })
        .collect();
    if let Some(observed) = sims.iter().find(|b| b.w.name == "diurnal_observed") {
        let plain = sims.iter().find(|b| b.w.name == "diurnal_day");
        check_observers_only_observe(observed, plain.map(|b| b.print), &mut checks);
    }

    // Traced pass, then the report.
    let in_situ = Duration::from_secs_f64(o.seconds * TRACED_IN_SITU_SHARE);
    let mut reports = Vec::new();
    for b in &sims {
        ttft_note(b);
        let report = WorkloadReport {
            name: b.w.name,
            end_to_end: Some(b.end_to_end(&mut checks)),
            per_layer: Some(sim_traced(b, in_situ, &mut checks)),
            fingerprint: Some(b.print.hex()),
            phases: sim_phases(b),
        };
        print!("{}", report.render());
        reports.push(report);
    }
    if o.workloads.contains(&LIVE) {
        let window = Duration::from_secs_f64(o.seconds);
        let live = |traced: bool, checks: &mut Checks| {
            live::measure(o.seed, window, 1, traced, checks)
                .map(|r| live_report(r, traced))
                .map_err(|e| format!("live_loopback: {e}"))
        };
        let plain = live(false, &mut checks)?;
        let traced = live(true, &mut checks)?;
        let report = WorkloadReport {
            per_layer: traced.per_layer,
            phases: [plain.phases.clone(), traced.phases].concat(),
            ..plain
        };
        print!("{}", report.render());
        reports.push(report);
    }

    let doc = json::obj([
        ("benchmark", json::Value::Str("skybench".to_string())),
        ("seed", json::Value::Num(o.seed as f64)),
        ("window_s", json::Value::Num(o.seconds)),
        ("host_parallelism", json::Value::Num(parallelism as f64)),
        (
            "workloads",
            json::Value::Obj(
                reports
                    .iter()
                    .map(|r| (r.name.to_string(), r.to_json()))
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(&o.out, doc.pretty()).map_err(|e| format!("{}: {e}", o.out))?;
    println!("wrote {}", o.out);
    for failure in &checks.failures {
        println!("CHECK FAILED: {failure}");
    }
    println!(
        "checks: {}",
        if checks.all_passed() {
            "all passed"
        } else {
            "FAILED"
        }
    );
    Ok(checks.all_passed())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_drivers_flags() {
        let o = Options::parse(&args("--workload tot_tree --seed 9 --seconds 12 --trace 1"));
        assert_eq!(
            o.unwrap(),
            Options {
                seed: 9,
                workloads: vec!["tot_tree"],
                seconds: 12.0,
                traced: true,
                out: "results.json".to_string(),
            }
        );
    }

    #[test]
    fn run_defaults_to_the_development_seed() {
        let o = Options::parse(&args("--workload kv_pressure --workload live_loopback")).unwrap();
        assert_eq!(o.seed, DEV_SEED);
        assert_eq!(o.workloads, ["kv_pressure", "live_loopback"]);
        assert_eq!(o.seconds, DEFAULT_WINDOW_S);
        assert!(!o.traced);
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seconds -3",
            "--trace 2",
            "--seed",
            "--frobnicate 1",
        ] {
            assert!(Options::parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
