//! The cost model's outputs, pinned to the bit.
//!
//! Netsim is pure `f64` arithmetic over a placement, so a refactor that
//! keeps its numbers keeps every bit of them. This test records, for each
//! simulated system at the paper's GPT-Small geometry (16 ranks, 4 slots,
//! 16 classes) on a skewed popularity and replica set, with and without a
//! rebalance: the iteration total, every component's seconds, the bytes
//! per tier, the peak GPU bytes and the survival fraction as
//! `f64::to_bits`, and the slot → class layout the system's placement
//! produced. Any change to a layout rule, or to the order of an `f64` sum,
//! shows here as a changed line.

use symi_netsim::iteration::{IterationBreakdown, RebalanceSpec, SimSystem};
use symi_netsim::{IterationSim, ModelCostConfig};

/// Replicas per class: skewed, one-replica floor, summing to sN = 64.
const REPLICAS: [usize; 16] = [12, 8, 6, 5, 4, 4, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2];

/// Relative popularity per class; scaled onto the model's token budget.
const POPULARITY: [f64; 16] =
    [40.0, 25.0, 18.0, 14.0, 11.0, 9.0, 7.0, 6.0, 5.0, 4.0, 3.0, 3.0, 2.0, 2.0, 1.0, 1.0];

fn record(b: &IterationBreakdown, prefix: &str, out: &mut Vec<String>) {
    let mut pin = |field: &str, v: f64| out.push(format!("{prefix} {field}={:016x}", v.to_bits()));
    pin("total", b.total_seconds());
    for c in &b.components {
        pin(c.name, c.seconds);
    }
    for (t, &bytes) in b.comm_bytes_by_tier.iter().enumerate() {
        pin(&format!("tier{t}_bytes"), bytes);
    }
    pin("gpu_peak_bytes", b.gpu_peak_bytes);
    pin("survived", b.survived_fraction);
}

fn outputs() -> Vec<String> {
    let sim = IterationSim::paper_eval(ModelCostConfig::gpt_small());
    let budget = sim.model.tokens_per_batch as f64;
    let sum: f64 = POPULARITY.iter().sum();
    let tokens: Vec<f64> = POPULARITY.iter().map(|p| p / sum * budget).collect();
    let systems = [
        ("symi", SimSystem::Symi),
        ("deepspeed", SimSystem::DeepSpeedStatic),
        ("flexmoe", SimSystem::FlexMoE),
    ];
    let mut out = Vec::new();
    for (name, system) in systems {
        let placement = sim.placement(&REPLICAS, system);
        let s = placement.slots_per_rank();
        for rank in 0..placement.ranks() {
            let classes: Vec<String> = (rank * s..(rank + 1) * s)
                .map(|k| placement.class_of_slot(k).to_string())
                .collect();
            out.push(format!("{name} rank{rank} {}", classes.join(",")));
        }
        for moved in [0, 3] {
            let spec = RebalanceSpec { moved_replicas_per_layer: moved };
            let b = sim.simulate(&tokens, &REPLICAS, system, spec);
            record(&b, &format!("{name} moved={moved}"), &mut out);
        }
    }
    out
}

/// Generated at the commit before `ExpertPlacement` replaced netsim's own
/// placement type; every later commit must reproduce it exactly. The two
/// `deepspeed … survived` lines were re-generated when survival came to be
/// priced on the placement built: DeepSpeed's uniform stripe keeps fewer
/// of these skewed tokens than the skewed counts passed in would.
const EXPECTED: &str = "\
    symi rank0 0,0,0,0\n\
    symi rank1 0,0,0,0\n\
    symi rank2 0,0,0,0\n\
    symi rank3 1,1,1,1\n\
    symi rank4 1,1,1,1\n\
    symi rank5 2,2,2,2\n\
    symi rank6 2,2,3,3\n\
    symi rank7 3,3,3,4\n\
    symi rank8 4,4,4,5\n\
    symi rank9 5,5,5,6\n\
    symi rank10 6,6,7,7\n\
    symi rank11 7,8,8,8\n\
    symi rank12 9,9,9,10\n\
    symi rank13 10,10,11,11\n\
    symi rank14 12,12,13,13\n\
    symi rank15 14,14,15,15\n\
    symi moved=0 total=3ff0d7f7121f9879\n\
    symi moved=0 dense_fwd=3fd365f25a4f37a6\n\
    symi moved=0 router_meta=3f69c1b41e36ee1b\n\
    symi moved=0 a2a_fwd=3f83be07c0f43b79\n\
    symi moved=0 expert_fwd=3f5e72b110cf7794\n\
    symi moved=0 dense_bwd=3fe365f25a4f37a6\n\
    symi moved=0 a2a_bwd=3f83be07c0f43b79\n\
    symi moved=0 expert_bwd=3f6e72b110cf7794\n\
    symi moved=0 edp_sync=3f930f95b6ee63ab\n\
    symi moved=0 grad_comm=3fa424cf3d208f1a\n\
    symi moved=0 opt_step=3f9291c175b90f35\n\
    symi moved=0 weight_comm=3fa424cf3d208f1a\n\
    symi moved=0 tier0_bytes=4211071380000000\n\
    symi moved=0 gpu_peak_bytes=41e1956800000000\n\
    symi moved=0 survived=3fea9cd239a47349\n\
    symi moved=3 total=3ff0d7f7121f9879\n\
    symi moved=3 dense_fwd=3fd365f25a4f37a6\n\
    symi moved=3 router_meta=3f69c1b41e36ee1b\n\
    symi moved=3 a2a_fwd=3f83be07c0f43b79\n\
    symi moved=3 expert_fwd=3f5e72b110cf7794\n\
    symi moved=3 dense_bwd=3fe365f25a4f37a6\n\
    symi moved=3 a2a_bwd=3f83be07c0f43b79\n\
    symi moved=3 expert_bwd=3f6e72b110cf7794\n\
    symi moved=3 edp_sync=3f930f95b6ee63ab\n\
    symi moved=3 grad_comm=3fa424cf3d208f1a\n\
    symi moved=3 opt_step=3f9291c175b90f35\n\
    symi moved=3 weight_comm=3fa424cf3d208f1a\n\
    symi moved=3 tier0_bytes=4211071380000000\n\
    symi moved=3 gpu_peak_bytes=41e1956800000000\n\
    symi moved=3 survived=3fea9cd239a47349\n\
    deepspeed rank0 0,1,2,3\n\
    deepspeed rank1 4,5,6,7\n\
    deepspeed rank2 8,9,10,11\n\
    deepspeed rank3 12,13,14,15\n\
    deepspeed rank4 0,1,2,3\n\
    deepspeed rank5 4,5,6,7\n\
    deepspeed rank6 8,9,10,11\n\
    deepspeed rank7 12,13,14,15\n\
    deepspeed rank8 0,1,2,3\n\
    deepspeed rank9 4,5,6,7\n\
    deepspeed rank10 8,9,10,11\n\
    deepspeed rank11 12,13,14,15\n\
    deepspeed rank12 0,1,2,3\n\
    deepspeed rank13 4,5,6,7\n\
    deepspeed rank14 8,9,10,11\n\
    deepspeed rank15 12,13,14,15\n\
    deepspeed moved=0 total=3ff0b9801f1d2e9c\n\
    deepspeed moved=0 dense_fwd=3fd365f25a4f37a6\n\
    deepspeed moved=0 router_meta=0000000000000000\n\
    deepspeed moved=0 a2a_fwd=3f83be07c0f43b79\n\
    deepspeed moved=0 expert_fwd=3f5e72b110cf7794\n\
    deepspeed moved=0 dense_bwd=3fe365f25a4f37a6\n\
    deepspeed moved=0 a2a_bwd=3f83be07c0f43b79\n\
    deepspeed moved=0 expert_bwd=3f6e72b110cf7794\n\
    deepspeed moved=0 edp_sync=3fad541ef4359430\n\
    deepspeed moved=0 grad_comm=3f6d03be47f127c3\n\
    deepspeed moved=0 opt_step=3f9291c175b90f35\n\
    deepspeed moved=0 weight_comm=3fa07a4b5e99dc94\n\
    deepspeed moved=0 tier0_bytes=4211732a00000000\n\
    deepspeed moved=0 gpu_peak_bytes=41e1956800000000\n\
    deepspeed moved=0 survived=3fe31cd239a47348\n\
    deepspeed moved=3 total=3ff0b9801f1d2e9c\n\
    deepspeed moved=3 dense_fwd=3fd365f25a4f37a6\n\
    deepspeed moved=3 router_meta=0000000000000000\n\
    deepspeed moved=3 a2a_fwd=3f83be07c0f43b79\n\
    deepspeed moved=3 expert_fwd=3f5e72b110cf7794\n\
    deepspeed moved=3 dense_bwd=3fe365f25a4f37a6\n\
    deepspeed moved=3 a2a_bwd=3f83be07c0f43b79\n\
    deepspeed moved=3 expert_bwd=3f6e72b110cf7794\n\
    deepspeed moved=3 edp_sync=3fad541ef4359430\n\
    deepspeed moved=3 grad_comm=3f6d03be47f127c3\n\
    deepspeed moved=3 opt_step=3f9291c175b90f35\n\
    deepspeed moved=3 weight_comm=3fa07a4b5e99dc94\n\
    deepspeed moved=3 tier0_bytes=4211732a00000000\n\
    deepspeed moved=3 gpu_peak_bytes=41e1956800000000\n\
    deepspeed moved=3 survived=3fe31cd239a47348\n\
    flexmoe rank0 0,1,4,9\n\
    flexmoe rank1 0,1,4,9\n\
    flexmoe rank2 0,1,4,9\n\
    flexmoe rank3 0,1,5,10\n\
    flexmoe rank4 0,2,5,10\n\
    flexmoe rank5 0,2,5,10\n\
    flexmoe rank6 0,2,5,11\n\
    flexmoe rank7 0,2,6,11\n\
    flexmoe rank8 0,2,6,12\n\
    flexmoe rank9 0,2,6,12\n\
    flexmoe rank10 0,3,7,13\n\
    flexmoe rank11 0,3,7,13\n\
    flexmoe rank12 1,3,7,14\n\
    flexmoe rank13 1,3,8,14\n\
    flexmoe rank14 1,3,8,15\n\
    flexmoe rank15 1,4,8,15\n\
    flexmoe moved=0 total=3ff0dd2b9624f711\n\
    flexmoe moved=0 dense_fwd=3fd365f25a4f37a6\n\
    flexmoe moved=0 router_meta=0000000000000000\n\
    flexmoe moved=0 a2a_fwd=3f8294f1967c4a24\n\
    flexmoe moved=0 expert_fwd=3f5b9766cfa83937\n\
    flexmoe moved=0 dense_bwd=3fe365f25a4f37a6\n\
    flexmoe moved=0 a2a_bwd=3f8294f1967c4a24\n\
    flexmoe moved=0 expert_bwd=3f6b9766cfa83937\n\
    flexmoe moved=0 edp_sync=3fb04eaabc906c5a\n\
    flexmoe moved=0 grad_comm=3f6d03be47f127c3\n\
    flexmoe moved=0 opt_step=3f9291c175b90f35\n\
    flexmoe moved=0 weight_comm=3fa27f9dc5ff4d5b\n\
    flexmoe moved=0 tier0_bytes=42113d1fd3eba7d8\n\
    flexmoe moved=0 gpu_peak_bytes=41e856d000000000\n\
    flexmoe moved=0 survived=3fea9cd239a47349\n\
    flexmoe moved=3 total=40098e34dd490256\n\
    flexmoe moved=3 dense_fwd=3fd365f25a4f37a6\n\
    flexmoe moved=3 router_meta=0000000000000000\n\
    flexmoe moved=3 a2a_fwd=3f8294f1967c4a24\n\
    flexmoe moved=3 expert_fwd=3f5b9766cfa83937\n\
    flexmoe moved=3 dense_bwd=3fe365f25a4f37a6\n\
    flexmoe moved=3 a2a_bwd=3f8294f1967c4a24\n\
    flexmoe moved=3 expert_bwd=3f6b9766cfa83937\n\
    flexmoe moved=3 edp_sync=3fb04eaabc906c5a\n\
    flexmoe moved=3 grad_comm=3f6d03be47f127c3\n\
    flexmoe moved=3 opt_step=3f9291c175b90f35\n\
    flexmoe moved=3 weight_comm=3fa27f9dc5ff4d5b\n\
    flexmoe moved=3 migration=40011f9f123686cd\n\
    flexmoe moved=3 tier0_bytes=421416b7b3eba7d8\n\
    flexmoe moved=3 gpu_peak_bytes=41eff06500000000\n\
    flexmoe moved=3 survived=3fea9cd239a47349\n\
";

#[test]
fn netsim_outputs_are_bit_identical_to_the_record() {
    let got = outputs();
    let want: Vec<&str> = EXPECTED.lines().collect();
    for (i, line) in got.iter().enumerate() {
        assert_eq!(Some(&line.as_str()), want.get(i), "line {i} moved");
    }
    assert_eq!(got.len(), want.len(), "record has {} lines, run has {}", want.len(), got.len());
}
