//! Rank-failure demonstration run: kill (or stall) ranks of the
//! threaded solver and prove bitwise recovery.
//!
//! Runs the same configuration twice — once clean, once under the
//! supplied fault plan — and compares the final `density_h`
//! fingerprints. With a checkpoint cadence and the restart policy, a
//! killed rank's run is replayed from the last checkpoint to the
//! identical result.
//!
//! ```text
//! cargo run --release -p bench --bin repro -- chaos_run \
//!     --fault-plan kill=1@5 \
//!     --ranks 3 --steps 12 --checkpoint-every 4 --on-fault restart
//! ```
//!
//! Plan grammar (see `coupled::FaultPlan::parse`): `kill=RANK@STEP`,
//! `stall=RANK@STEP/MILLIS`.

use coupled::{run_threaded, run_threaded_result, Dataset, FaultPlan, FaultPolicy, RunConfig};
use obs::fnv1a_f64;

struct Cli {
    plan: FaultPlan,
    ranks: usize,
    steps: usize,
    checkpoint_every: usize,
    on_fault: FaultPolicy,
    seed: u64,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        plan: FaultPlan::default().kill(1, 5),
        ranks: 3,
        steps: 12,
        checkpoint_every: 4,
        on_fault: FaultPolicy::RestartFromCheckpoint,
        seed: 4242,
    };
    // argv: the `repro` binary, this experiment's name, then ours
    let mut args = std::env::args().skip(2);
    while let Some(a) = args.next() {
        let mut val = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match a.as_str() {
            "--fault-plan" => cli.plan = FaultPlan::parse(&val("--fault-plan")?)?,
            "--ranks" => cli.ranks = val("--ranks")?.parse().map_err(|e| format!("ranks: {e}"))?,
            "--steps" => cli.steps = val("--steps")?.parse().map_err(|e| format!("steps: {e}"))?,
            "--checkpoint-every" => {
                cli.checkpoint_every = val("--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("checkpoint-every: {e}"))?
            }
            "--seed" => cli.seed = val("--seed")?.parse().map_err(|e| format!("seed: {e}"))?,
            "--on-fault" => {
                cli.on_fault = match val("--on-fault")?.as_str() {
                    "abort" => FaultPolicy::Abort,
                    "restart" => FaultPolicy::RestartFromCheckpoint,
                    other => return Err(format!("--on-fault abort|restart, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

pub fn run() {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("chaos_run: {e}");
            std::process::exit(2);
        }
    };
    let config = |plan: Option<FaultPlan>| {
        RunConfig::builder()
            .paper(Dataset::D1, 0.02)
            .ranks(cli.ranks)
            .seed(cli.seed)
            .steps(cli.steps)
            .rebalance(None)
            .checkpoint_every(cli.checkpoint_every)
            .on_fault(cli.on_fault)
            .fault_plan(plan)
            .build()
            .expect("valid run config")
    };

    println!("== clean run ==");
    let clean = run_threaded(&config(None));
    let clean_hash = fnv1a_f64(&clean.density_h);
    println!(
        "population={} density_h fnv1a={clean_hash:#018x}",
        clean.population
    );

    println!("== faulted run: {:?} ==", cli.plan);
    match run_threaded_result(&config(Some(cli.plan))) {
        Ok(r) => {
            let hash = fnv1a_f64(&r.density_h);
            println!("population={} density_h fnv1a={hash:#018x}", r.population);
            println!("recoveries={}", r.recoveries);
            if hash == clean_hash {
                println!("BITWISE MATCH: faulted run reproduced the clean result exactly");
            } else {
                println!("MISMATCH: faulted {hash:#018x} vs clean {clean_hash:#018x}");
                std::process::exit(1);
            }
        }
        Err(e) => {
            println!("run failed: {e}");
            std::process::exit(1);
        }
    }
}
