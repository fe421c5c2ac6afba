//! Collective-communication benchmarks over the thread-per-rank runtime.
//!
//! Each measured iteration includes cluster spawn/teardown — these numbers
//! characterize the simulation substrate (useful when sizing experiments),
//! not real NIC performance.

use symi_bench::{bench, group};
use symi_collectives::hier::ReduceMode;
use symi_collectives::{Cluster, ClusterSpec};

fn bench_allreduce() {
    group("allreduce (includes cluster spawn)");
    for &(ranks, len) in &[(4usize, 1usize << 12), (8, 1 << 12), (8, 1 << 16)] {
        bench(&format!("allreduce/{ranks}r_{len}f"), || {
            Cluster::run(ClusterSpec::flat(ranks), |ctx| {
                let group = ctx.groups().world();
                let mut data = vec![1.0f32; len];
                ctx.allreduce_sum(&group, 1, &mut data).unwrap();
                data[0]
            })
        });
    }
}

fn bench_alltoall() {
    group("alltoallv (includes cluster spawn)");
    for &ranks in &[4usize, 8] {
        let per_peer = 1usize << 10;
        bench(&format!("alltoallv/{ranks}r_{per_peer}f_per_peer"), || {
            Cluster::run(ClusterSpec::flat(ranks), |ctx| {
                let group = ctx.groups().world();
                let bufs: Vec<Vec<f32>> = (0..ranks).map(|_| vec![0.5f32; per_peer]).collect();
                ctx.alltoallv_f32(&group, 2, bufs).unwrap().len()
            })
        });
    }
}

fn bench_hierarchical_vs_flat() {
    // §4.1: packed intra-rank replicas vs spread; same 8 instances.
    group("expert_allreduce, 8 instances");
    let len = 1usize << 14;
    bench("packed_2ranks_x4slots", || {
        Cluster::run(ClusterSpec::flat(8), |ctx| {
            if ctx.rank() < 2 {
                let group = ctx.groups().range(0, 2);
                let mut rep = vec![1.0f32; len];
                let siblings = vec![vec![1.0f32; len]; 3];
                let siblings = siblings.iter().map(Vec::as_slice);
                ctx.expert_allreduce(&group, 1, &mut rep, siblings, 8, ReduceMode::Sum).unwrap();
            }
        })
    });
    bench("spread_8ranks_x1slot", || {
        Cluster::run(ClusterSpec::flat(8), |ctx| {
            let group = ctx.groups().range(0, 8);
            let mut rep = vec![1.0f32; len];
            ctx.expert_allreduce(&group, 1, &mut rep, [], 8, ReduceMode::Sum).unwrap();
        })
    });
}

fn main() {
    bench_allreduce();
    bench_alltoall();
    bench_hierarchical_vs_flat();
}
