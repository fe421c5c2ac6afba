//! §3.3 validation: instantiates the analytic model with the paper's
//! GPT3-175B worked example (E=64, N=2048, s=2, G=W=3.375 GB, O=27 GB,
//! PCIe 64 GB/s, IB 400 Gbps) and reproduces every number the section
//! reports: the 1.7 TB/layer footprint, the 27 TB invariant data volume,
//! the 0.269 s vs 0.273 s per-rank costs, and the 1.52% overhead ratio —
//! and cross-checks them against bytes *measured* from the real collectives
//! at reduced scale.

use symi::{ExpertPlacement, SymiOptimizer};
use symi_bench::output::Table;
use symi_bench::Transition;
use symi_collectives::{Cluster, ClusterSpec};
use symi_netsim::topology::HardwareSpec;
use symi_netsim::{CommCostModel, SystemKind};
use symi_telemetry::{LinkClass, Phase};
use symi_tensor::AdamConfig;

fn main() {
    let gb = 1.0e9f64; // the paper's worked example uses decimal GB
    let model = CommCostModel {
        nodes: 2048,
        expert_classes: 64,
        slots_per_rank: 2,
        grad_bytes: 3.375 * gb,
        weight_bytes: 3.375 * gb,
        optimizer_bytes: 27.0 * gb,
        hw: HardwareSpec::paper_analysis_example(),
    };

    println!("# §3.3 analytic model validation (GPT3-175B worked example)\n");
    let mut t = Table::new(&["quantity", "computed", "paper"]);
    t.row(vec![
        "(I) optimizer footprint per layer".into(),
        format!("{:.2} TB", model.optimizer_footprint_bytes() / 1e12),
        "~1.7 TB".into(),
    ]);
    t.row(vec![
        "(II) total data per iteration (G+W phases)".into(),
        format!("{:.1} TB", (model.grad_data_bytes() + model.weight_data_bytes()) / 1e12),
        "27 TB".into(),
    ]);
    let static_costs = model.costs(SystemKind::StaticBaseline);
    let symi_costs = model.costs(SystemKind::Symi);
    t.row(vec![
        "(III) static per-rank comm cost".into(),
        format!("{:.4} s", static_costs.total()),
        "~0.269 s".into(),
    ]);
    t.row(vec![
        "(III) SYMI per-rank comm cost".into(),
        format!("{:.4} s", symi_costs.total()),
        "~0.273 s".into(),
    ]);
    t.row(vec![
        "(III) SYMI overhead ratio".into(),
        format!("{:.2}%", model.symi_overhead_ratio() * 100.0),
        "1.52%".into(),
    ]);
    t.row(vec![
        "§2.2 single-expert weight migration".into(),
        format!("{:.4} s", model.weight_bytes / model.hw.bw_net),
        "0.0675 s".into(),
    ]);
    t.row(vec![
        "§2.2 single-expert optimizer migration".into(),
        format!("{:.3} s", model.optimizer_bytes / model.hw.bw_net),
        "0.54 s".into(),
    ]);
    println!("{}", t.render());

    // ---- Measured cross-check at executable scale: the (II) identity. ----
    println!("## Measured re-placement traffic (real optimizer calls, 8 ranks)\n");
    let transition =
        Transition { nodes: 8, slots_per_rank: 2, expert_classes: 4, param_count: 1024 };
    let uniform = vec![4usize; 4];
    let mut m = Table::new(&["transition", "SYMI bytes", "coupled bytes", "coupled rebalance"]);
    for (label, counts) in [
        ("uniform -> uniform (no rebalance)", vec![4usize; 4]),
        ("uniform -> [13,1,1,1] (9 slots moved)", vec![13, 1, 1, 1]),
    ] {
        let (symi, _) = transition.run(&uniform, &counts, false);
        let (coupled, transferred) = transition.run(&uniform, &counts, true);
        // SYMI ships exactly the de-duplicated schedule, which stays under
        // the per-slot sN·W identity (sN fp16 copies of W, less each rank's
        // own chunk), and moves no optimizer state.
        let (n, w_bytes) = (transition.nodes as u64, 2 * transition.param_count as u64);
        let sn_w = transition.slots_per_rank as u64 * n * w_bytes * (n - 1) / n;
        let weight_bytes =
            symi.phase_bytes[Phase::WeightComm.index()][LinkClass::InterNode.index()];
        assert_eq!(symi.inter_node_bytes, transition.symi_schedule(&uniform, &counts), "{label}");
        assert!(weight_bytes <= sn_w, "{label}: {weight_bytes} B > sN·W");
        assert_eq!(symi.bytes_in_phase(Phase::Rebalance), 0, "{label}");
        // The coupled state pays fp32 [master | m | v] per moved parameter.
        let rebalance = coupled.bytes_in_phase(Phase::Rebalance);
        assert_eq!(rebalance, 12 * transferred, "{label}");
        m.row(vec![
            label.into(),
            symi.total_bytes().to_string(),
            coupled.total_bytes().to_string(),
            rebalance.to_string(),
        ]);
    }
    println!("{}", m.render());
    println!(
        "SYMI's bytes are exactly the de-duplicated schedule of each placement\n\
         and never exceed the §3.3-II sN·W identity; none of them is rebalance\n\
         traffic. The coupled design migrates 12 B of optimizer state per\n\
         parameter whose owner changed.\n"
    );

    // ---- Measured uniform-footprint check (§3.3-I). ----
    let (footprints, _) = Cluster::run(ClusterSpec::flat(8), |ctx| {
        let params: Vec<Vec<f32>> = (0..4).map(|_| vec![0.0f32; 1024]).collect();
        let opt = SymiOptimizer::new(ctx.rank(), 8, AdamConfig::default(), &params);
        opt.state_bytes()
    });
    let total: u64 = footprints.iter().sum();
    println!("## Measured optimizer footprint (8 ranks, 4 classes x 1024 params)\n");
    println!(
        "total = {} bytes (= E·O = 4 x 1024 x 16 = {}), per-rank spread max-min = {} bytes\n",
        total,
        4 * 1024 * 16,
        footprints.iter().max().unwrap() - footprints.iter().min().unwrap()
    );
    assert_eq!(total, 4 * 1024 * 16);

    // Sanity: a placement object agrees with the model's instance identity.
    let p = ExpertPlacement::from_counts(&[13, 1, 1, 1], 2);
    assert_eq!(p.total_slots(), 16);
    println!("All §3.3 identities validated.");
}
