//! D05 fixture — reduce floats in a fixed order (BTree key order here;
//! sorting a collected Vec first also works — see Summary::of).

use std::collections::BTreeMap;

fn mean_latency(samples: BTreeMap<u64, f64>) -> f64 {
    let total = samples.values().sum::<f64>();
    total / samples.len() as f64
}
