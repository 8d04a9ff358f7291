//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! Usage: `repro [table2|table3|table4|table5|fig9|fig10|fig11|fig12|fig13|all]`
//!
//! Scale with `REPRO_SCALE` (default 1.0). The paper-versus-measured
//! record (`EXPERIMENTS.md`) is ROADMAP item 7's deliverable and does not
//! exist yet.

mod common;
mod fig10;
mod fig11;
mod fig12;
mod fig13;
mod fig9;
mod table2;
mod table3;
mod table4;
mod table5;

fn main() {
    let cmd = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let t0 = std::time::Instant::now();
    match cmd.as_str() {
        "table2" => table2::run(),
        "table3" => table3::run(),
        "table4" => table4::run(),
        "table5" => table5::run(),
        "fig9" => fig9::run(),
        "fig10" => fig10::run(),
        "fig11" => fig11::run(),
        "fig12" => fig12::run(),
        "fig13" => fig13::run(),
        "all" => {
            table2::run();
            table3::run();
            table4::run();
            table5::run();
            fig9::run();
            fig10::run();
            fig11::run();
            fig12::run();
            fig13::run();
        }
        other => {
            eprintln!(
                "unknown target {other:?}; expected one of: table2 table3 table4 table5 \
                 fig9 fig10 fig11 fig12 fig13 all"
            );
            std::process::exit(2);
        }
    }
    eprintln!(
        "\n[repro {cmd} finished in {:.1} s]",
        t0.elapsed().as_secs_f64()
    );
}
