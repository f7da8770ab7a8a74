//! The layer table: which simulator layer each engine event kind belongs
//! to. Every `Ev` kind must map to a layer, so a new kind cannot go
//! unattributed (the unit test below and a check at start-up enforce it).

use tengig::Ev;

/// Layers, named after the modules that spend the time.
pub const LAYERS: [&str; 9] = [
    "sim", "hw", "nic", "net", "tcp", "tools", "lab", "shard", "obs",
];

/// Host time the outside trace cannot split by layer (a shard's window
/// execution, a whole `run_serve` call). Reported as `blind.share`, so the
/// layer shares plus this one add up to the traced total.
pub const BLIND: &str = "blind";

/// The layer an event kind's handler runs in, or `None` for a kind the
/// table does not know.
pub fn layer_of(kind: &str) -> Option<&'static str> {
    Some(match kind {
        "TxDma" | "AppRead" | "ReadDone" => "hw",
        "FrameArrival" | "RxDmaDone" | "CoalesceTimer" => "nic",
        "TxWire" => "net",
        "RxStack" | "ConnTimer" => "tcp",
        "StartFlow" | "PktgenTick" => "tools",
        "IngressDrain" => "lab",
        "ObsSample" => "obs",
        _ => return None,
    })
}

/// Event kinds the table does not place in a layer.
pub fn unmapped_kinds() -> Vec<&'static str> {
    Ev::NAMES
        .iter()
        .copied()
        .filter(|k| layer_of(k).is_none())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_event_kind_has_a_layer() {
        assert_eq!(unmapped_kinds(), Vec::<&str>::new());
    }

    #[test]
    fn every_mapped_layer_is_listed() {
        for kind in Ev::NAMES {
            let layer = layer_of(kind).expect("mapped");
            assert!(LAYERS.contains(&layer), "{kind} maps to unlisted {layer}");
        }
    }
}
