//! The configuration's knob census: every leaf field of the cluster
//! configuration is a knob some caller sets to more than one value, or a
//! parameter every run reads. A field nothing reads, or that only ever holds
//! its default, is a path through the engine that no run takes; deleting it
//! lowers the pin below, adding one raises it and has to say why.

/// The configuration sections a [`ClusterConfig`](primo_repro::ClusterConfig)
/// is made of; a field of one of these types is a section, not a knob.
const SECTIONS: [&str; 5] = [
    "ClusterConfig",
    "NetConfig",
    "WalConfig",
    "PrimoConfig",
    "TraceConfig",
];

/// Leaf `pub` fields across [`SECTIONS`].
const KNOBS: usize = 19;

/// The leaf `pub` fields of the section structs in `source`, in order.
fn leaf_fields(source: &str) -> Vec<String> {
    let (mut leaves, mut inside) = (Vec::new(), false);
    for line in source.lines().map(str::trim) {
        if let Some(name) = line.strip_prefix("pub struct ") {
            inside = SECTIONS.contains(&name.trim_end_matches(" {"));
        } else if line == "}" {
            inside = false;
        } else if let Some((field, ty)) = line.strip_prefix("pub ").and_then(|l| l.split_once(": "))
        {
            if inside && !SECTIONS.contains(&ty.trim_end_matches(',')) {
                leaves.push(field.to_string());
            }
        }
    }
    leaves
}

#[test]
fn the_knob_census_only_shrinks() {
    // The scanner counts leaves, skips sections and other structs.
    let sample = "pub struct NetConfig {\n    /// One way.\n    pub one_way_us: u64,\n}\n\
                  pub struct ClusterConfig {\n    pub net: NetConfig,\n    pub seed: u64,\n}\n\
                  pub struct Other {\n    pub x: u64,\n}\n";
    assert_eq!(leaf_fields(sample), ["one_way_us", "seed"]);

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/common/src/config.rs");
    let source = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    for section in SECTIONS {
        assert!(
            source.contains(&format!("pub struct {section} {{")),
            "{section} not found in {path:?}: wrong file?"
        );
    }
    let knobs = leaf_fields(&source);
    assert_eq!(
        knobs.len(),
        KNOBS,
        "the configuration has {} knobs, pinned at {KNOBS}: lower the pin when one goes, \
         and a new one needs a caller that sets it: {knobs:?}",
        knobs.len()
    );
}
