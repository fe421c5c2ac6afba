//! Collective-communication benchmarks over the thread-per-rank runtime.
//!
//! Each measured iteration includes cluster spawn/teardown — these numbers
//! characterize the simulation substrate (useful when sizing experiments),
//! not real NIC performance.

use symi_bench::{bench, group};
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

fn bench_packed_vs_spread() {
    // §4.1: 8 replicas of one class packed onto 2 ranks vs spread over 8 —
    // the ring spans the hosting ranks, not the replicas.
    group("§4.1 replica sync, 8 instances (includes cluster spawn)");
    let len = 1usize << 14;
    for ranks in [2usize, 8] {
        bench(&format!("allreduce/{ranks}_of_8r_{len}f"), || {
            Cluster::run(ClusterSpec::flat(8), |ctx| {
                if ctx.rank() < ranks {
                    let group = ctx.groups().range(0, ranks);
                    let mut grad = vec![1.0f32; len];
                    ctx.allreduce_sum(&group, 1, &mut grad).unwrap();
                }
            })
        });
    }
}

fn main() {
    bench_allreduce();
    bench_alltoall();
    bench_packed_vs_spread();
}
