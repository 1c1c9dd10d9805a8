//! The root manifest's `default-members` must list every workspace member:
//! the plain `cargo test -q` at the root runs only the default members, so
//! a member missing there would silently drop out of the test run.

/// The quoted entries of the array that follows `key = [` in `manifest`.
fn string_array(manifest: &str, key: &str) -> Vec<String> {
    let start = manifest
        .lines()
        .position(|l| l.trim_start().starts_with(&format!("{key} = [")))
        .unwrap_or_else(|| panic!("`{key}` not found in Cargo.toml"));
    let mut out = Vec::new();
    for line in manifest.lines().skip(start + 1) {
        let line = line.trim();
        if line.starts_with(']') {
            return out;
        }
        if let Some(entry) = line.strip_prefix('"') {
            out.push(entry.trim_end_matches([',', '"']).to_string());
        }
    }
    panic!("`{key}` array is not closed");
}

#[test]
fn default_members_lists_every_member() {
    let manifest = include_str!("../Cargo.toml");
    let members = string_array(manifest, "members");
    assert!(members.len() > 1, "members parsed: {members:?}");
    assert_eq!(string_array(manifest, "default-members"), members);
}
