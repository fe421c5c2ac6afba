//! §4.1 ablation: the intra+inter rank all-reduce.
//!
//! Two effects are quantified with the *real* collectives:
//! 1. packing replicas of one class onto few ranks shrinks the EDP ring
//!    and the inter-node bytes it moves;
//! 2. forbidding intra-rank replication (stock NCCL semantics) constrains
//!    the scheduler — each class can hold at most N replicas instead of
//!    sN — which costs token survival under skew (the paper measured up to
//!    20% more drops).

use symi::compute_placement;
use symi_bench::output::Table;
use symi_collectives::{Cluster, ClusterSpec};

/// Measured inter-node bytes to synchronize one expert-class tensor of `len`
/// floats whose replicas are packed onto `ranks_used` ranks. Co-located
/// replicas add into one gradient on their rank (backward sums their rows
/// as one batch), so the wire sees one ring over the `ranks_used` hosts
/// whatever the replica count.
fn sync_bytes(nodes: usize, ranks_used: usize, len: usize) -> u64 {
    assert!(ranks_used <= nodes && ranks_used >= 1);
    let (_, report) = Cluster::run(ClusterSpec::flat(nodes), move |ctx| {
        let rank = ctx.rank();
        if rank >= ranks_used {
            return;
        }
        let group = ctx.groups().range(0, ranks_used);
        let mut grad = vec![rank as f32; len];
        ctx.allreduce_sum(&group, 1, &mut grad).unwrap();
    });
    report.inter_node_bytes
}

fn main() {
    let nodes = 8usize;
    let slots_per_rank = 4usize;
    let instances = 8usize;
    let len = 4096usize;

    println!("# §4.1 ablation — intra+inter rank all-reduce\n");
    println!("## (1) Inter-node bytes vs packing (8 replicas of one class, 16 KiB tensor)\n");
    let mut t = Table::new(&["ranks used", "replicas per rank", "inter-node bytes", "vs spread"]);
    let spread = sync_bytes(nodes, 8, len);
    for ranks_used in [8usize, 4, 2, 1] {
        let bytes = sync_bytes(nodes, ranks_used, len);
        t.row(vec![
            ranks_used.to_string(),
            format!("{}", instances / ranks_used),
            bytes.to_string(),
            format!("{:.2}x", bytes as f64 / spread.max(1) as f64),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Packing all replicas on one rank eliminates inter-node traffic\n\
         entirely; Algorithm 1's contiguous assignment exploits exactly this.\n"
    );

    // (2) Scheduling constraint: cap replicas at N (no intra-rank EDP).
    println!("## (2) Token survival: unconstrained vs replicas-capped-at-N scheduling\n");
    let total_slots = nodes * slots_per_rank; // 32
    let e = 8usize;
    let slot_capacity = 1000.0f64 / total_slots as f64 * 1.0; // cf = 1.0, 1000 tokens
    let mut t2 = Table::new(&[
        "skew",
        "survival unconstrained (%)",
        "survival capped (%)",
        "drop increase (%)",
    ]);
    for (label, hot_share) in [("mild (2x)", 0.25), ("strong (8x)", 0.5), ("extreme", 0.8)] {
        let mut pop = vec![((1.0 - hot_share) * 1000.0 / (e as f64 - 1.0)) as u64; e];
        pop[0] = (hot_share * 1000.0) as u64;

        let survival = |counts: &[usize]| -> f64 {
            let survived: f64 = pop
                .iter()
                .zip(counts)
                .map(|(&p, &r)| (p as f64).min(slot_capacity * r as f64))
                .sum();
            survived / pop.iter().sum::<u64>() as f64
        };

        // Unconstrained: Algorithm 1.
        let free = compute_placement(&pop, total_slots);
        // Constrained: replicas per class can't exceed N; surplus is
        // redistributed to the next-most-popular classes.
        let mut capped = free.clone();
        let mut surplus = 0usize;
        for c in capped.iter_mut() {
            if *c > nodes {
                surplus += *c - nodes;
                *c = nodes;
            }
        }
        while surplus > 0 {
            let i = (0..e)
                .filter(|&i| capped[i] < nodes)
                .max_by_key(|&i| pop[i])
                .expect("capacity remains");
            capped[i] += 1;
            surplus -= 1;
        }

        let s_free = survival(&free) * 100.0;
        let s_capped = survival(&capped) * 100.0;
        let drop_increase = ((100.0 - s_capped) / (100.0 - s_free).max(1e-9) - 1.0) * 100.0;
        t2.row(vec![
            label.to_string(),
            format!("{s_free:.1}"),
            format!("{s_capped:.1}"),
            format!("{drop_increase:.0}"),
        ]);
    }
    println!("{}", t2.render());
    println!(
        "The paper reports the N-replica constraint can increase token drops by\n\
         up to 20%; removing it is what the intra+inter rank all-reduce buys."
    );
}
