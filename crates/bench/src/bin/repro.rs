//! The one reproduction binary: every table/figure experiment of
//! EXPERIMENTS.md (and the rank-failure demonstration) behind one table.
//!
//! ```text
//! cargo run --release -p bench --bin repro -- list
//! cargo run --release -p bench --bin repro -- tab04_breakdown
//! cargo run --release -p bench --bin repro -- all
//! ```
//!
//! `all` runs the paper's experiments and then the extensions, in
//! table order, in this process. `chaos_run` takes its own arguments
//! after its name and is not part of `all`.

/// `[(name, paper reference, entry point)]` from `module: "reference"`
/// pairs — an experiment's name is its module's.
macro_rules! experiments {
    ($($name:ident: $reference:literal,)*) => {
        [$((stringify!($name), $reference, bench::experiments::$name::run as fn())),*]
    };
}

/// Every experiment, in `all` order.
const EXPERIMENTS: [(&str, &str, fn()); 17] = experiments![
    fig05_imbalance: "Fig. 5",
    fig08_contours: "Fig. 8",
    fig09_validation: "Fig. 9",
    tab02_strong_scaling: "Table II / Fig. 10",
    tab03_move_times: "Table III",
    tab04_breakdown: "Table IV",
    fig11_cc_vs_dc: "Fig. 11",
    tab05_km_overhead: "Table V",
    fig12_sweep_t: "Fig. 12",
    tab06_sweep_wcell: "Table VI",
    fig13_sweep_threshold: "Fig. 13",
    fig14_placement: "Fig. 14",
    fig15_portability: "Fig. 15",
    fig_hier_crossover: "extension, DESIGN.md §11",
    ablation_autotune: "§V-A",
    fig_scenario_imbalance: "extension, DESIGN.md §15",
    chaos_run: "DESIGN.md §12",
];

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    match name.as_str() {
        "list" => {
            for (name, reference, _) in EXPERIMENTS {
                println!("{name}\t{reference}");
            }
        }
        "all" => {
            for (name, _, run) in EXPERIMENTS {
                if name != "chaos_run" {
                    println!("\n================ {name} ================");
                    run();
                }
            }
            println!(
                "\nall experiments completed; CSVs in {}",
                bench::out_dir().display()
            );
        }
        _ => match EXPERIMENTS.iter().find(|(n, ..)| *n == name) {
            Some((_, _, run)) => run(),
            None => {
                eprintln!("repro: unknown experiment {name:?} — try `repro list`");
                std::process::exit(2);
            }
        },
    }
}
