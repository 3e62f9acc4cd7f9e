//! The group-commit contract's census: every `fn` of the `GroupCommit`
//! trait is a call each of the four schemes has to answer, with its default
//! or an override. A call no caller needs, or one that only carries state a
//! scheme could take at construction, is contract that every scheme and
//! every reader pays for; deleting one lowers the pin below, adding one
//! raises it and has to say why.

/// `fn`s of [`GroupCommit`](primo_repro::wal::GroupCommit).
const TRAIT_FNS: usize = 19;

/// The names of the `fn`s declared in `trait`'s body in `source`, in order.
fn trait_fns(source: &str, name: &str) -> Vec<String> {
    let header = format!("pub trait {name}");
    let (mut fns, mut depth, mut inside) = (Vec::new(), 0usize, false);
    for line in source.lines().map(str::trim) {
        if !inside {
            inside = line.starts_with(&header);
            depth = usize::from(inside);
            continue;
        }
        if line.starts_with("//") {
            continue;
        }
        if let Some(rest) = line.strip_prefix("fn ").filter(|_| depth == 1) {
            let end = rest.find(['(', '<']).unwrap_or(rest.len());
            fns.push(rest[..end].to_string());
        }
        depth += line.matches('{').count();
        depth -= line.matches('}').count();
        if depth == 0 {
            break;
        }
    }
    fns
}

#[test]
fn the_group_commit_contract_only_shrinks() {
    // The scanner counts the trait's own `fn`s, not those of its default
    // bodies, of other items or of comments.
    let sample = "pub trait Other {\n    fn x(&self);\n}\n\
                  pub trait GroupCommit: Send {\n    /// fn not_this() {\n    \
                  fn a(&self) -> u64 {\n        fn inner() {}\n        0\n    }\n    \
                  fn b<T>(&self, _t: T);\n}\nfn after() {}\n";
    assert_eq!(trait_fns(sample, "GroupCommit"), ["a", "b"]);

    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/wal/src/group_commit.rs");
    let source = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let fns = trait_fns(&source, "GroupCommit");
    assert_eq!(
        fns.len(),
        TRAIT_FNS,
        "GroupCommit has {} fns, pinned at {TRAIT_FNS}: lower the pin when one goes; \
         a new one must be a question some scheme cannot answer at construction: {fns:?}",
        fns.len()
    );
}
