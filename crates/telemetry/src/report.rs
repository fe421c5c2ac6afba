//! The cluster-wide `IterationReport`: one record per training iteration,
//! identical schema for SYMI and every baseline so system comparisons are
//! apples-to-apples. Serializes to single-line JSON for JSONL sinks and
//! parses back (round-trip tested).

use crate::json::{Obj, Value};
use crate::phase::{LinkClass, Phase, LINK_CLASSES, NUM_LINK_CLASSES, NUM_PHASES, PHASES};

/// Per-iteration observability record merged across all ranks.
#[derive(Clone, Debug, PartialEq)]
pub struct IterationReport {
    /// System under test ("symi", "deepspeed", "flexmoe-100", ...).
    pub system: String,
    pub iteration: u64,
    /// Mean cross-entropy loss for the iteration.
    pub loss: f64,
    /// Global token count routed to each expert class this iteration.
    pub popularity: Vec<u64>,
    /// Token assignments per class that survived capacity limits.
    pub kept_per_class: Vec<u64>,
    /// Replica count per expert class under the active placement.
    pub replicas: Vec<u64>,
    /// Slots whose assigned expert changed when the placement was updated.
    pub placement_churn: u64,
    /// Nanoseconds spent per phase, per rank: `phase_ns[rank][phase]`.
    pub phase_ns: Vec<[u64; NUM_PHASES]>,
    /// Bytes moved per phase per link class: `phase_bytes[phase][class]`.
    pub phase_bytes: [[u64; NUM_LINK_CLASSES]; NUM_PHASES],
}

impl IterationReport {
    pub fn new(system: &str, iteration: u64) -> Self {
        Self {
            system: system.to_string(),
            iteration,
            loss: 0.0,
            popularity: Vec::new(),
            kept_per_class: Vec::new(),
            replicas: Vec::new(),
            placement_churn: 0,
            phase_ns: Vec::new(),
            phase_bytes: [[0; NUM_LINK_CLASSES]; NUM_PHASES],
        }
    }

    /// Shannon entropy (nats) of the popularity distribution. Uniform
    /// routing maximizes this at ln(num_classes); collapse drives it to 0.
    pub fn popularity_entropy(&self) -> f64 {
        let total: u64 = self.popularity.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mut h = 0.0;
        for &c in &self.popularity {
            if c > 0 {
                let p = c as f64 / total as f64;
                h -= p * p.ln();
            }
        }
        h
    }

    /// Fraction of this class's assignments dropped by capacity limits.
    pub fn drop_rate_per_class(&self) -> Vec<f64> {
        self.popularity
            .iter()
            .zip(self.kept_per_class.iter().chain(std::iter::repeat(&0)))
            .map(|(&assigned, &kept)| {
                if assigned == 0 {
                    0.0
                } else {
                    (assigned.saturating_sub(kept)) as f64 / assigned as f64
                }
            })
            .collect()
    }

    /// Aggregate drop rate across all classes.
    pub fn total_drop_rate(&self) -> f64 {
        let assigned: u64 = self.popularity.iter().sum();
        let kept: u64 = self.kept_per_class.iter().sum();
        if assigned == 0 {
            0.0
        } else {
            assigned.saturating_sub(kept) as f64 / assigned as f64
        }
    }

    /// Total ns one rank spent across all phases.
    pub(crate) fn rank_total_ns(&self, rank: usize) -> u64 {
        self.phase_ns.get(rank).map(|p| p.iter().sum()).unwrap_or(0)
    }

    /// Straggler spread: max − min of per-rank total phase time.
    pub fn straggler_spread_ns(&self) -> u64 {
        let totals: Vec<u64> = (0..self.phase_ns.len()).map(|r| self.rank_total_ns(r)).collect();
        match (totals.iter().max(), totals.iter().min()) {
            (Some(max), Some(min)) => max - min,
            _ => 0,
        }
    }

    /// Critical-path time of a phase: max across ranks.
    pub fn phase_ns_max(&self, phase: Phase) -> u64 {
        self.phase_ns.iter().map(|p| p[phase.index()]).max().unwrap_or(0)
    }

    /// Iteration wall time proxy: the slowest rank's total.
    pub fn iteration_ns(&self) -> u64 {
        (0..self.phase_ns.len()).map(|r| self.rank_total_ns(r)).max().unwrap_or(0)
    }

    /// Share of iteration time per phase (critical-path convention), in
    /// phase index order. Sums to ~1 when spans are disjoint.
    pub fn phase_shares(&self) -> [f64; NUM_PHASES] {
        let total: u64 = PHASES.iter().map(|&p| self.phase_ns_max(p)).sum();
        if total == 0 {
            return [0.0; NUM_PHASES];
        }
        std::array::from_fn(|i| self.phase_ns_max(PHASES[i]) as f64 / total as f64)
    }

    /// Total bytes for one link class summed over phases.
    pub fn bytes_for_class(&self, class: LinkClass) -> u64 {
        self.phase_bytes.iter().map(|row| row[class.index()]).sum()
    }

    /// Total bytes moved in one phase across all link classes.
    pub fn bytes_for_phase(&self, phase: Phase) -> u64 {
        self.phase_bytes[phase.index()].iter().sum()
    }

    pub fn to_json(&self) -> Value {
        let mut o = Obj::new();
        o.set("system", Value::str(&self.system));
        o.set("iteration", Value::u64(self.iteration));
        o.set("loss", Value::Num(self.loss));
        o.set("popularity", Value::arr_u64(&self.popularity));
        o.set("kept_per_class", Value::arr_u64(&self.kept_per_class));
        o.set("replicas", Value::arr_u64(&self.replicas));
        o.set("placement_churn", Value::u64(self.placement_churn));
        // Derived metrics are emitted too so downstream consumers (symi-top,
        // plotting) don't re-implement the formulas.
        o.set("popularity_entropy", Value::Num(self.popularity_entropy()));
        o.set("total_drop_rate", Value::Num(self.total_drop_rate()));
        o.set("straggler_spread_ns", Value::u64(self.straggler_spread_ns()));
        o.set("iteration_ns", Value::u64(self.iteration_ns()));

        let mut phases = Obj::new();
        for p in PHASES {
            let per_rank: Vec<u64> = self.phase_ns.iter().map(|r| r[p.index()]).collect();
            phases.set(p.name(), Value::arr_u64(&per_rank));
        }
        o.set("phase_ns", Value::Obj(phases));

        let mut bytes = Obj::new();
        for p in PHASES {
            if self.bytes_for_phase(p) == 0 {
                continue;
            }
            let mut row = Obj::new();
            for c in LINK_CLASSES {
                row.set(c.name(), Value::u64(self.phase_bytes[p.index()][c.index()]));
            }
            bytes.set(p.name(), Value::Obj(row));
        }
        o.set("phase_bytes", Value::Obj(bytes));
        Value::Obj(o)
    }

    /// One-line JSONL record.
    pub fn to_jsonl(&self) -> String {
        self.to_json().to_string()
    }

    pub fn from_json(v: &Value) -> Result<Self, String> {
        let system = v.get("system").as_str().ok_or("missing system")?.to_string();
        let iteration = v.get("iteration").as_u64().ok_or("missing iteration")?;
        let mut r = IterationReport::new(&system, iteration);
        r.loss = v.get("loss").as_f64().unwrap_or(0.0);
        r.popularity = v.get("popularity").u64_vec();
        r.kept_per_class = v.get("kept_per_class").u64_vec();
        r.replicas = v.get("replicas").u64_vec();
        r.placement_churn = v.get("placement_churn").as_u64().unwrap_or(0);

        if let Some(phases) = v.get("phase_ns").as_obj() {
            let ranks = PHASES
                .iter()
                .filter_map(|p| phases.get(p.name()))
                .map(|col| col.u64_vec().len())
                .max()
                .unwrap_or(0);
            r.phase_ns = vec![[0; NUM_PHASES]; ranks];
            for p in PHASES {
                if let Some(col) = phases.get(p.name()) {
                    for (rank, ns) in col.u64_vec().into_iter().enumerate() {
                        r.phase_ns[rank][p.index()] = ns;
                    }
                }
            }
        }
        if let Some(bytes) = v.get("phase_bytes").as_obj() {
            for p in PHASES {
                if let Some(row) = bytes.get(p.name()) {
                    for c in LINK_CLASSES {
                        r.phase_bytes[p.index()][c.index()] =
                            row.get(c.name()).as_u64().unwrap_or(0);
                    }
                }
            }
        }
        Ok(r)
    }

    pub fn parse_jsonl(line: &str) -> Result<Self, String> {
        Self::from_json(&Value::parse(line)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> IterationReport {
        let mut r = IterationReport::new("symi", 7);
        r.loss = 3.25;
        r.popularity = vec![100, 50, 0, 50];
        r.kept_per_class = vec![90, 50, 0, 25];
        r.replicas = vec![2, 1, 1, 1];
        r.placement_churn = 3;
        r.phase_ns = vec![
            {
                let mut p = [0u64; NUM_PHASES];
                p[Phase::Routing.index()] = 1000;
                p[Phase::ExpertFfn.index()] = 5000;
                p
            },
            {
                let mut p = [0u64; NUM_PHASES];
                p[Phase::Routing.index()] = 1500;
                p[Phase::ExpertFfn.index()] = 4000;
                p
            },
        ];
        r.phase_bytes[Phase::Dispatch.index()][LinkClass::InterNode.index()] = 4096;
        r.phase_bytes[Phase::Dispatch.index()][LinkClass::IntraNode.index()] = 1024;
        r
    }

    #[test]
    fn jsonl_round_trip() {
        let r = sample();
        let line = r.to_jsonl();
        assert!(!line.contains('\n'));
        let back = IterationReport::parse_jsonl(&line).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn derived_metrics() {
        let r = sample();
        // entropy of [100,50,0,50]/200
        let expect = -(0.5f64 * 0.5f64.ln() + 2.0 * 0.25 * 0.25f64.ln());
        assert!((r.popularity_entropy() - expect).abs() < 1e-12);
        let drops = r.drop_rate_per_class();
        assert!((drops[0] - 0.1).abs() < 1e-12);
        assert_eq!(drops[1], 0.0);
        assert_eq!(drops[2], 0.0);
        assert!((drops[3] - 0.5).abs() < 1e-12);
        assert!((r.total_drop_rate() - 35.0 / 200.0).abs() < 1e-12);
        // rank totals: 6000 vs 5500 -> spread 500
        assert_eq!(r.straggler_spread_ns(), 500);
        assert_eq!(r.iteration_ns(), 6000);
        assert_eq!(r.phase_ns_max(Phase::Routing), 1500);
        assert_eq!(r.bytes_for_phase(Phase::Dispatch), 5120);
        assert_eq!(r.bytes_for_class(LinkClass::InterNode), 4096);
        let shares = r.phase_shares();
        let sum: f64 = shares.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }
}
