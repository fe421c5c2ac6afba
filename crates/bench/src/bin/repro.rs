//! Regenerates every artifact of the paper's evaluation in one process:
//! Figures 2 and 7–12, Tables 1 and 3, §3.3, Appendix A.1, §4.1, the
//! placement-policy ablation, the rebalance-traffic sweep and
//! `BENCH_scaling.json`, every file under `--out`. Each training run trains
//! once, into a cache there; a second run into the same directory trains
//! nothing.
//!
//! ```text
//! cargo run --release -p symi-bench --bin repro -- [--iters N] [--out DIR]
//! ```
//!
//! Every artifact asserts the claims that hold here and the process exits
//! non-zero when one breaks.

use symi_bench::runs::{cli_args, Runs, SystemChoice};
use symi_bench::{comm, convergence};

fn main() {
    let (iters, out) = cli_args();

    comm::costmodel_validation();
    comm::ablation_partitioning(&out);
    comm::ablation_intra_rank();
    comm::rebalance_traffic(&out);
    comm::scaling_sweep(&out);

    let runs = Runs::load_or_train(&out, iters);
    let symi = runs.system(SystemChoice::Symi);
    convergence::fig2_popularity(&out, &runs.fig2);
    convergence::table1_capacity(&runs.capacity);
    convergence::fig7_loss(&out, &runs.systems);
    convergence::fig8_survival(&out, &runs.systems);
    convergence::fig9_replication(&out, runs.system(SystemChoice::DeepSpeed), symi);
    convergence::fig10_zoom(&out, symi);
    convergence::fig11_latency(&out, &runs.systems);
    convergence::fig12_breakdown(&out, &runs.systems);
    convergence::table3_convergence_time(&out, &runs.systems);
    convergence::ablation_policy(&out, symi);
}
