//! The paper's core claim measured in real bytes: sweeping the number of
//! moved replicas, SYMI's re-placement rides the weight update it already
//! pays, while FlexMoE's coupled state migrates to its classes' new hosts.
//! Both sides run the optimizer's own calls ([`Transition`]); the byte
//! totals are read back per phase from `IterationReport`s.

use std::sync::Arc;
use symi_bench::output::{write_csv, Table};
use symi_bench::Transition;
use symi_telemetry::{IterationReport, JsonlSink, Phase, Sink};

fn main() {
    let transition =
        Transition { nodes: 8, slots_per_rank: 4, expert_classes: 8, param_count: 4096 };
    let uniform = vec![4usize; 8];
    let out_dir = std::path::PathBuf::from("results");
    let jsonl: Arc<dyn Sink> = Arc::new(
        JsonlSink::create(out_dir.join("rebalance_traffic.jsonl"))
            .expect("results dir must be writable"),
    );

    println!("# Rebalance traffic sweep — decoupled (SYMI) vs coupled state\n");
    let mut t = Table::new(&[
        "replicas moved",
        "SYMI total",
        "SYMI weight_comm",
        "SYMI rebalance",
        "coupled total",
        "coupled rebalance",
        "coupled params moved",
        "coupled / SYMI",
    ]);
    let mut rows = Vec::new();
    for moved in [0usize, 1, 2, 4, 8, 12] {
        // Move `moved` replicas from the tail classes to class 0.
        let mut counts = uniform.clone();
        let mut left = moved;
        for c in (1..8).rev() {
            let take = left.min(counts[c] - 1);
            counts[c] -= take;
            counts[0] += take;
            left -= take;
            if left == 0 {
                break;
            }
        }
        let (symi, _) = transition.run(&uniform, &counts, false);
        let (coupled, transferred) = transition.run(&uniform, &counts, true);
        assert_eq!(symi.inter_node_bytes, transition.symi_schedule(&uniform, &counts));
        assert_eq!(symi.bytes_in_phase(Phase::Rebalance), 0, "SYMI's re-placement moves no state");
        assert_eq!(
            coupled.bytes_in_phase(Phase::Rebalance),
            12 * transferred,
            "the coupled migration ships fp32 [master | m | v] per transferred parameter"
        );
        assert!(moved > 0 || transferred == 0, "an unchanged placement migrates nothing");

        // Phase-attributed reports — the same schema the trainer emits, so
        // symi-top and the plot scripts can read this sweep too.
        for (system, report) in [("symi-decoupled", &symi), ("coupled-migration", &coupled)] {
            let mut r = IterationReport::new(system, moved as u64);
            r.placement_churn = moved as u64;
            r.phase_bytes = report.phase_bytes;
            jsonl.emit(&r);
        }

        let row = vec![
            moved.to_string(),
            symi.total_bytes().to_string(),
            symi.bytes_in_phase(Phase::WeightComm).to_string(),
            symi.bytes_in_phase(Phase::Rebalance).to_string(),
            coupled.total_bytes().to_string(),
            coupled.bytes_in_phase(Phase::Rebalance).to_string(),
            transferred.to_string(),
            format!("{:.2}", coupled.total_bytes() as f64 / symi.total_bytes() as f64),
        ];
        t.row(row.clone());
        rows.push(row);
    }
    jsonl.flush();
    write_csv(
        &out_dir,
        "rebalance_traffic.csv",
        &[
            "moved",
            "symi_bytes",
            "symi_weight_comm_bytes",
            "symi_rebalance_bytes",
            "coupled_bytes",
            "coupled_rebalance_bytes",
            "coupled_transferred_params",
            "ratio",
        ],
        &rows,
    );
    println!("{}", t.render());
    println!(
        "SYMI's bytes live in grad_comm and weight_comm — the re-placement\n\
         rides the weight update it already pays (rebalance bytes stay 0), and\n\
         the de-duplicated schedule ships one copy per (class, hosting rank),\n\
         so the column moves only with the placement's host sets. The coupled\n\
         rebalance column is 12 B (fp32 master, m, v) per parameter whose\n\
         owner changed: the contiguous re-layout shifts the host groups of\n\
         every class after the first one that grew, so even one moved\n\
         replica migrates state, which is why FlexMoE must rebalance rarely."
    );
}
