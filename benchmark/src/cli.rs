//! Command line: one workload (the driver's mode), all eight in one
//! process, `--compare`, and `--write-reference`.

use serde_json::Value;

use crate::catalogue::{self, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::compare;
use crate::daemons::{self, Env};
use crate::harness::RunArgs;
use crate::report::Report;
use crate::runtime_workloads::{self, SPECS};
use crate::spans::Trace;
use crate::{probes, sim_workload, tenants};

const USAGE: &str = "usage: grout-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace 0|1 | --traced]
       grout-benchmark --compare <a.jsonl> <b.jsonl>
       grout-benchmark --write-reference

Without --workload all eight workloads run in turn, each printing its
table and one JSON line tagged with the workload; --traced then adds a
traced pass (per-layer metrics, benchmark/out/<workload>.trace.json).
With --workload, the last line of stdout is the untagged result object.
--compare reads files of tagged lines (several runs may be appended) and
prints one row per (workload, end-to-end metric).
--write-reference regenerates benchmark/reference/ from the current tree.";

enum Command {
    Run {
        workload: Option<String>,
        args: RunArgs,
    },
    Compare(String, String),
    WriteReference,
}

fn parse(argv: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut args = RunArgs {
        seed: 1,
        seconds: 8.0,
        traced: false,
    };
    let mut it = argv.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<'_, String>| {
        it.next().cloned().ok_or(format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(flag, &mut it)?;
                if catalogue::workload(&name).is_none() {
                    let known: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
                    return Err(format!(
                        "unknown workload `{name}`; one of {}",
                        known.join(", ")
                    ));
                }
                workload = Some(name);
            }
            "--seed" => {
                args.seed = value(flag, &mut it)?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?;
            }
            "--seconds" => {
                args.seconds = value(flag, &mut it)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                args.traced = match value(flag, &mut it)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--traced" => args.traced = true,
            "--compare" => {
                return Ok(Command::Compare(
                    value(flag, &mut it)?,
                    value(flag, &mut it)?,
                ))
            }
            "--write-reference" => return Ok(Command::WriteReference),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Command::Run { workload, args })
}

fn run_one(name: &str, args: &RunArgs, env: &Env) -> (Report, Trace) {
    if name == tenants::NAME {
        tenants::measure(args, env)
    } else if name == sim_workload::NAME {
        sim_workload::measure(args, env)
    } else {
        let spec = SPECS
            .iter()
            .find(|s| s.name == name)
            .expect("every catalogue workload has an implementation");
        runtime_workloads::measure(spec, args, env)
    }
}

/// Runs one workload once and prints its table; returns the result object.
fn run_and_print(name: &str, args: &RunArgs, env: &Env) -> (Value, bool) {
    let (report, trace) = run_one(name, args, env);
    // A hung rep may have left daemons behind; nothing outlives a run.
    daemons::kill_all();
    let declared: &[Metric] = if args.traced { &PER_LAYER } else { &END_TO_END };
    if args.traced {
        let path = env.out.join(format!("{name}.trace.json"));
        if let Err(e) = trace.write_chrome(&path) {
            eprintln!("grout-benchmark: cannot write {}: {e}", path.display());
        }
    }
    for why in &report.notes {
        eprintln!("grout-benchmark: {name}: FAILED: {why}");
    }
    report.print_table(name, declared);
    (report.to_json(declared), report.correct())
}

fn write_reference(env: &Env) -> Result<(), String> {
    let dir = env.root.join("benchmark/reference");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let write = |path: std::path::PathBuf, doc: Value| {
        let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
    };
    write(
        probes::paper_points_path(&env.root),
        probes::paper_points_json(),
    )?;
    write(
        sim_workload::reference_path(&env.root),
        sim_workload::reference_json(1..=16)?,
    )
}

/// Entry point; returns the process exit code.
pub fn main(argv: Vec<String>) -> i32 {
    let command = match parse(&argv) {
        Ok(c) => c,
        Err(why) => {
            eprintln!("grout-benchmark: {why}\n{USAGE}");
            return 2;
        }
    };
    if let Command::Compare(a, b) = &command {
        return match compare::run(a, b) {
            Ok(()) => 0,
            Err(why) => {
                eprintln!("grout-benchmark: {why}");
                2
            }
        };
    }
    let located = Env::locate().and_then(|mut env| {
        if matches!(command, Command::Run { .. }) {
            env.bins = Some(daemons::build_daemons(&env)?);
        }
        Ok(env)
    });
    let env = match located {
        Ok(env) => env,
        Err(why) => {
            eprintln!("grout-benchmark: {why}");
            return 2;
        }
    };
    match command {
        Command::WriteReference => match write_reference(&env) {
            Ok(()) => 0,
            Err(why) => {
                eprintln!("grout-benchmark: {why}");
                2
            }
        },
        Command::Run {
            workload: Some(name),
            args,
        } => {
            let (result, correct) = run_and_print(&name, &args, &env);
            println!(
                "{}",
                serde_json::to_string(&result).expect("a Value serializes")
            );
            i32::from(!correct)
        }
        Command::Run {
            workload: None,
            args,
        } => {
            println!(
                "# grout-benchmark: seed {}, {} s per run, {} CPUs",
                args.seed,
                args.seconds,
                std::thread::available_parallelism().map_or(0, usize::from)
            );
            let mut all_correct = true;
            let passes: &[bool] = if args.traced {
                &[false, true]
            } else {
                &[false]
            };
            for traced in passes {
                for (name, _) in WORKLOADS {
                    let args = RunArgs {
                        traced: *traced,
                        ..args.clone()
                    };
                    // One process hosts every workload here: restart the
                    // peak-RSS watermark so each reports its own (best
                    // effort; without it later workloads inherit the peak).
                    let _ = std::fs::write("/proc/self/clear_refs", "5");
                    let (result, correct) = run_and_print(name, &args, &env);
                    all_correct &= correct;
                    let Value::Object(mut fields) = result else {
                        unreachable!("the result is an object")
                    };
                    fields.insert(0, ("workload".into(), Value::String(name.into())));
                    fields.insert(1, ("seed".into(), Value::U64(args.seed)));
                    fields.insert(2, ("trace".into(), Value::U64(u64::from(*traced))));
                    println!(
                        "{}",
                        serde_json::to_string(&Value::Object(fields)).expect("a Value serializes")
                    );
                }
            }
            i32::from(!all_correct)
        }
        Command::Compare(..) => unreachable!("handled above"),
    }
}
