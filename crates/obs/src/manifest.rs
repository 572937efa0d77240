//! Run manifests: sidecar JSON documents describing how an artifact was
//! produced — seed, config hash, git revision, wall-clock per phase and
//! slots/sec — so every CSV/SVG in a results directory is reproducible
//! and attributable without consulting shell history.
//!
//! Serialization is hand-rolled (stable field order, `null` for
//! non-finite floats) because the offline build has no serde.

use std::fmt::Write as _;
use std::path::Path;

/// FNV-1a over a byte string: the same fixed, specified hash the
/// experiments harness uses for seeds — manifests must hash identically
/// on every toolchain.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Stable hash of a configuration's `Debug` representation. `Debug` for
/// the config types is derived field-by-field, so any config change
/// changes the hash.
///
/// The representation is canonicalized first: the *top-level* fields of
/// a struct-style repr (`Name { a: 1, b: 2 }`) are sorted by field name
/// before hashing, so reordering fields in a struct declaration — a
/// pure refactor that changes no configuration — does not invalidate
/// recorded hashes. Only the outermost level is sorted: a nested
/// struct's own field order is part of its (atomic) value text, which
/// keeps the canonicalization cheap and unambiguous. Values themselves
/// (including renames and nesting changes) still change the hash.
pub fn config_hash(debug_repr: &str) -> u64 {
    match canonicalize_debug(debug_repr) {
        Some(canonical) => fnv1a64(canonical.as_bytes()),
        None => fnv1a64(debug_repr.as_bytes()),
    }
}

/// Sorts the top-level `field: value` pairs of a struct-style `Debug`
/// repr by field name. Returns `None` for anything that doesn't look
/// like `Name { a: …, b: … }` (tuple structs, enums without fields,
/// malformed text) — those hash as-is.
fn canonicalize_debug(repr: &str) -> Option<String> {
    let open = repr.find('{')?;
    let close = repr.rfind('}')?;
    if close < open {
        return None;
    }
    let prefix = repr[..open].trim_end();
    let inner = repr[open + 1..close].trim();
    let suffix = repr[close + 1..].trim();
    if !suffix.is_empty() || inner.is_empty() {
        return None;
    }

    // Split on commas at nesting depth 0 (braces, brackets, parens all
    // nest — `b: Inner { x: 2 }` and `c: [1, 2]` are single fields).
    let mut fields: Vec<&str> = Vec::new();
    let (mut depth, mut start) = (0i32, 0usize);
    for (i, c) in inner.char_indices() {
        match c {
            '{' | '[' | '(' => depth += 1,
            '}' | ']' | ')' => depth -= 1,
            ',' if depth == 0 => {
                fields.push(inner[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    if depth != 0 {
        return None;
    }
    fields.push(inner[start..].trim());
    // Every piece must be `name: value`, or this isn't a struct repr.
    if fields.iter().any(|f| !f.contains(':')) {
        return None;
    }
    fields.sort_by_key(|f| f.split(':').next().unwrap_or(f).trim_end());
    Some(format!("{prefix} {{ {} }}", fields.join(", ")))
}

/// Best-effort current git revision: `GITHUB_SHA` when set (CI), else
/// `.git/HEAD` resolved one level (walking up from the working
/// directory). `None` outside a repository — manifests record it as
/// `null` rather than failing.
pub fn git_rev() -> Option<String> {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return Some(sha);
        }
    }
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let head = dir.join(".git/HEAD");
        if let Ok(content) = std::fs::read_to_string(&head) {
            let content = content.trim();
            if let Some(reference) = content.strip_prefix("ref: ") {
                let target = dir.join(".git").join(reference);
                if let Ok(sha) = std::fs::read_to_string(target) {
                    return Some(sha.trim().to_string());
                }
                // Packed ref: scan .git/packed-refs for the line.
                if let Ok(packed) = std::fs::read_to_string(dir.join(".git/packed-refs")) {
                    for line in packed.lines() {
                        if let Some(sha) = line.strip_suffix(reference) {
                            return Some(sha.trim().to_string());
                        }
                    }
                }
                return None;
            }
            return Some(content.to_string());
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Wall-clock timing of one named phase of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTiming {
    /// Phase name (e.g. `"pilot:priority-star"`).
    pub name: String,
    /// Wall-clock seconds spent in the phase.
    pub wall_secs: f64,
    /// Simulated slots executed during the phase, when meaningful —
    /// `slots_per_sec` is derived from it in the JSON.
    pub slots: Option<u64>,
}

/// A sidecar manifest for one experiments artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// The experiments command that produced the artifact.
    pub command: String,
    /// Base RNG seed of the run's configuration.
    pub seed: u64,
    /// [`config_hash`] of the run's configuration.
    pub config_hash: u64,
    /// [`git_rev`] at run time.
    pub git_rev: Option<String>,
    /// Unix timestamp (seconds) the manifest was created.
    pub unix_time_secs: u64,
    /// Per-phase wall-clock breakdown.
    pub phases: Vec<PhaseTiming>,
    /// Free-form string key/values (flags, estimates, notes).
    pub extra: Vec<(String, String)>,
}

/// Appends `s` to `out` with minimal JSON string escaping (quotes,
/// backslashes, control characters).
pub fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Appends a JSON number token: `Display` for finite floats (shortest
/// round-trip), `null` for NaN / infinities.
pub fn json_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

impl RunManifest {
    /// Fresh manifest stamped with the current time and git revision.
    pub fn new(command: &str, seed: u64, config_hash: u64) -> Self {
        let unix_time_secs = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        Self {
            command: command.to_string(),
            seed,
            config_hash,
            git_rev: git_rev(),
            unix_time_secs,
            phases: Vec::new(),
            extra: Vec::new(),
        }
    }

    /// Appends a timed phase.
    pub fn push_phase(&mut self, name: &str, wall_secs: f64, slots: Option<u64>) {
        self.phases.push(PhaseTiming {
            name: name.to_string(),
            wall_secs,
            slots,
        });
    }

    /// Appends a free-form key/value.
    pub fn push_extra(&mut self, key: &str, value: &str) {
        self.extra.push((key.to_string(), value.to_string()));
    }

    /// The manifest as one JSON object (no trailing newline). The field
    /// set is schema-stable: additions append, nothing is renamed.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str("{\"schema\":1,\"command\":\"");
        escape_json(&self.command, &mut s);
        let _ = write!(s, "\",\"seed\":{},", self.seed);
        let _ = write!(s, "\"config_hash\":\"{:016x}\",", self.config_hash);
        match &self.git_rev {
            Some(rev) => {
                s.push_str("\"git_rev\":\"");
                escape_json(rev, &mut s);
                s.push_str("\",");
            }
            None => s.push_str("\"git_rev\":null,"),
        }
        let _ = write!(s, "\"unix_time_secs\":{},", self.unix_time_secs);
        s.push_str("\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"name\":\"");
            escape_json(&p.name, &mut s);
            s.push_str("\",\"wall_secs\":");
            json_f64(p.wall_secs, &mut s);
            match p.slots {
                Some(n) => {
                    let _ = write!(s, ",\"slots\":{n},\"slots_per_sec\":");
                    let sps = if p.wall_secs > 0.0 {
                        n as f64 / p.wall_secs
                    } else {
                        f64::NAN
                    };
                    json_f64(sps, &mut s);
                }
                None => s.push_str(",\"slots\":null,\"slots_per_sec\":null"),
            }
            s.push('}');
        }
        s.push_str("],\"extra\":{");
        for (i, (k, v)) in self.extra.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            escape_json(k, &mut s);
            s.push_str("\":\"");
            escape_json(v, &mut s);
            s.push('"');
        }
        s.push_str("}}");
        s
    }

    /// Writes the manifest (one JSON object + newline) to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json() + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_known_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn config_hash_distinguishes_configs() {
        assert_ne!(config_hash("Cfg { a: 1 }"), config_hash("Cfg { a: 2 }"));
        assert_eq!(config_hash("same"), config_hash("same"));
    }

    #[test]
    fn config_hash_is_stable_across_field_reordering() {
        // Reordering struct fields is a refactor, not a config change.
        assert_eq!(
            config_hash("Cfg { a: 1, b: 2 }"),
            config_hash("Cfg { b: 2, a: 1 }")
        );
        // Nested struct and list values stay atomic under the top-level
        // sort (their commas sit at depth > 0).
        assert_eq!(
            config_hash("Cfg { a: Inner { y: 2, x: [1, 2] }, b: 3 }"),
            config_hash("Cfg { b: 3, a: Inner { y: 2, x: [1, 2] } }")
        );
        // ... but a *nested* reorder is a different value text: only the
        // outermost level is canonicalized.
        assert_ne!(
            config_hash("Cfg { a: Inner { x: 1, y: 2 } }"),
            config_hash("Cfg { a: Inner { y: 2, x: 1 } }")
        );
    }

    #[test]
    fn config_hash_reordering_still_distinguishes_real_changes() {
        // Same field names, different values.
        assert_ne!(
            config_hash("Cfg { a: 1, b: 2 }"),
            config_hash("Cfg { a: 2, b: 1 }")
        );
        // Field renames and struct renames change the hash.
        assert_ne!(config_hash("Cfg { a: 1 }"), config_hash("Cfg { aa: 1 }"));
        assert_ne!(config_hash("Cfg { a: 1 }"), config_hash("Cfg2 { a: 1 }"));
    }

    #[test]
    fn config_hash_non_struct_reprs_hash_verbatim() {
        // Tuple structs, bare enums, and malformed text fall back to
        // hashing the raw bytes.
        assert_eq!(config_hash("Kind(3)"), fnv1a64(b"Kind(3)"));
        assert_eq!(config_hash("North"), fnv1a64(b"North"));
        assert_eq!(config_hash("Bad { a: 1"), fnv1a64(b"Bad { a: 1"));
        assert_eq!(config_hash(""), fnv1a64(b""));
    }

    #[test]
    fn canonicalize_debug_shapes() {
        assert_eq!(
            canonicalize_debug("Cfg { b: 2, a: 1 }").as_deref(),
            Some("Cfg { a: 1, b: 2 }")
        );
        // Whitespace variants normalize to one canonical spelling.
        assert_eq!(
            canonicalize_debug("Cfg {a: 1,b: 2}").as_deref(),
            Some("Cfg { a: 1, b: 2 }")
        );
        assert_eq!(canonicalize_debug("Cfg {}"), None);
        assert_eq!(canonicalize_debug("Cfg { 1, 2 }"), None);
        assert_eq!(canonicalize_debug("Cfg { a: 1 } trailing"), None);
    }

    #[test]
    fn manifest_json_is_schema_stable() {
        let mut m = RunManifest::new("profile", 42, 0xdead_beef);
        m.git_rev = Some("abc123".into());
        m.unix_time_secs = 1_700_000_000;
        m.push_phase("pilot", 0.5, Some(10_000));
        m.push_phase("plot", 0.1, None);
        m.push_extra("smoke", "false");
        let json = m.to_json();
        assert_eq!(
            json,
            "{\"schema\":1,\"command\":\"profile\",\"seed\":42,\
             \"config_hash\":\"00000000deadbeef\",\"git_rev\":\"abc123\",\
             \"unix_time_secs\":1700000000,\"phases\":[\
             {\"name\":\"pilot\",\"wall_secs\":0.5,\"slots\":10000,\"slots_per_sec\":20000},\
             {\"name\":\"plot\",\"wall_secs\":0.1,\"slots\":null,\"slots_per_sec\":null}],\
             \"extra\":{\"smoke\":\"false\"}}"
        );
    }

    #[test]
    fn manifest_handles_missing_rev_and_bad_floats() {
        let mut m = RunManifest::new("x", 0, 0);
        m.git_rev = None;
        m.push_phase("p", 0.0, Some(5));
        let json = m.to_json();
        assert!(json.contains("\"git_rev\":null"));
        // Zero wall time yields a null slots_per_sec, not inf.
        assert!(json.contains("\"slots_per_sec\":null"));
    }

    #[test]
    fn manifest_writes_file() {
        let dir = std::env::temp_dir().join("pstar-obs-manifest-test");
        std::fs::create_dir_all(&dir).unwrap();
        let m = RunManifest::new("unit", 7, 9);
        let path = dir.join("unit.manifest.json");
        m.write(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("{\"schema\":1,"));
        assert!(body.ends_with("}\n"));
    }
}
