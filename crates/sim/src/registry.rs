//! The predictor registry: the single construction API for every
//! predictor in the workspace.
//!
//! Each predictor crate registers a **name**, a **default parameter
//! set**, and a **builder** once (see `bfbp_predictors::register`,
//! `bfbp_tage::register`, `bfbp_core::register`, composed by
//! `bfbp::default_registry`). Harnesses then construct predictors from
//! data — a [`PredictorSpec`] naming a registered predictor plus
//! parameter overrides — instead of hand-rolling
//! `Box<dyn ConditionalPredictor>` factory closures in every binary.
//!
//! Parameters are validated against the registered defaults: a key that
//! is not in the default set is rejected ([`BuildError::UnknownParam`]),
//! so typos fail loudly instead of silently running the default
//! configuration.
//!
//! ```
//! use bfbp_sim::registry::{Params, PredictorRegistry, PredictorSpec};
//!
//! let registry = PredictorRegistry::with_builtins();
//! let p = registry.build("static-taken", &Params::new()).unwrap();
//! assert_eq!(p.name(), "static-taken");
//!
//! let spec = PredictorSpec::parse("static-not-taken").unwrap();
//! assert!(registry.build_spec(&spec).is_ok());
//! ```

use std::collections::BTreeMap;
use std::fmt;

use crate::json::{json_string, Object};
use crate::predictor::{ConditionalPredictor, PredictorCaps, StaticPredictor};

/// A typed parameter value.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// A signed integer (table counts, log2 sizes, depths).
    Int(i64),
    /// A flag (e.g. `sc`, `folded-hist`).
    Bool(bool),
    /// A free-form string (e.g. `history-mode`).
    Str(String),
}

impl ParamValue {
    /// Parses from text: `true`/`false`, then integer, then plain
    /// string. Used by [`PredictorSpec::parse`].
    pub fn parse(text: &str) -> ParamValue {
        match text {
            "true" => ParamValue::Bool(true),
            "false" => ParamValue::Bool(false),
            _ => text
                .parse()
                .map_or_else(|_| ParamValue::Str(text.to_owned()), ParamValue::Int),
        }
    }

    /// The type name used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            ParamValue::Int(_) => "int",
            ParamValue::Bool(_) => "bool",
            ParamValue::Str(_) => "string",
        }
    }

    /// Renders the value as a JSON literal: ints and bools bare,
    /// strings quoted and escaped.
    pub fn to_json(&self) -> String {
        match self {
            ParamValue::Int(i) => i.to_string(),
            ParamValue::Bool(b) => b.to_string(),
            ParamValue::Str(s) => json_string(s),
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Int(i) => write!(f, "{i}"),
            ParamValue::Bool(b) => write!(f, "{b}"),
            ParamValue::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for ParamValue {
    fn from(v: i64) -> Self {
        ParamValue::Int(v)
    }
}
impl From<i32> for ParamValue {
    fn from(v: i32) -> Self {
        ParamValue::Int(i64::from(v))
    }
}
impl From<u32> for ParamValue {
    fn from(v: u32) -> Self {
        ParamValue::Int(i64::from(v))
    }
}
impl From<usize> for ParamValue {
    fn from(v: usize) -> Self {
        ParamValue::Int(v as i64)
    }
}
impl From<bool> for ParamValue {
    fn from(v: bool) -> Self {
        ParamValue::Bool(v)
    }
}
impl From<&str> for ParamValue {
    fn from(v: &str) -> Self {
        ParamValue::Str(v.to_owned())
    }
}
impl From<String> for ParamValue {
    fn from(v: String) -> Self {
        ParamValue::Str(v)
    }
}

/// An ordered key → value parameter set.
///
/// Ordering (BTreeMap) keeps summaries and JSON output deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Params {
    values: BTreeMap<String, ParamValue>,
}

impl Params {
    /// An empty parameter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style insertion.
    pub fn set(mut self, key: &str, value: impl Into<ParamValue>) -> Self {
        self.insert(key, value);
        self
    }

    /// Inserts (or replaces) a parameter.
    pub fn insert(&mut self, key: &str, value: impl Into<ParamValue>) {
        self.values.insert(key.to_owned(), value.into());
    }

    /// Looks up a parameter.
    pub fn get(&self, key: &str) -> Option<&ParamValue> {
        self.values.get(key)
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates parameters in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ParamValue)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Renders the set as one JSON object in key order, each value
    /// through [`ParamValue::to_json`]: the `params` of the sweep and
    /// frontier documents.
    pub fn to_json(&self) -> String {
        let object: Object = self
            .iter()
            .map(|(key, value)| (key, value.to_json()))
            .collect();
        object.to_string()
    }

    /// All parameter keys in order, for error messages and search-space
    /// validation.
    pub fn keys(&self) -> Vec<String> {
        self.values.keys().cloned().collect()
    }

    fn required(&self, key: &str) -> Result<&ParamValue, BuildError> {
        self.get(key).ok_or_else(|| BuildError::UnknownParam {
            param: key.to_owned(),
            known: self.keys(),
        })
    }

    /// Reads an integer parameter as `usize`.
    pub fn usize(&self, key: &str) -> Result<usize, BuildError> {
        match self.required(key)? {
            ParamValue::Int(i) if *i >= 0 => Ok(*i as usize),
            other => Err(BuildError::invalid(
                key,
                format!(
                    "expected a non-negative int, got {other} ({})",
                    other.type_name()
                ),
            )),
        }
    }

    /// Reads an integer parameter as `u32`.
    pub fn u32(&self, key: &str) -> Result<u32, BuildError> {
        let v = self.usize(key)?;
        u32::try_from(v).map_err(|_| BuildError::invalid(key, format!("{v} out of range for u32")))
    }

    /// Reads a boolean parameter.
    pub fn bool(&self, key: &str) -> Result<bool, BuildError> {
        match self.required(key)? {
            ParamValue::Bool(b) => Ok(*b),
            other => Err(BuildError::invalid(
                key,
                format!("expected true/false, got {other} ({})", other.type_name()),
            )),
        }
    }

    /// Reads a string parameter.
    pub fn str(&self, key: &str) -> Result<&str, BuildError> {
        match self.required(key)? {
            ParamValue::Str(s) => Ok(s),
            other => Err(BuildError::invalid(
                key,
                format!("expected a string, got {other} ({})", other.type_name()),
            )),
        }
    }

    /// Overlays `overrides` on `self` (the defaults). Every override key
    /// must already exist in the defaults — that is the registry's
    /// unknown-parameter check.
    pub fn merged_with(&self, overrides: &Params) -> Result<Params, BuildError> {
        let mut merged = self.clone();
        for (key, value) in overrides.iter() {
            if !merged.values.contains_key(key) {
                return Err(BuildError::UnknownParam {
                    param: key.to_owned(),
                    known: self.keys(),
                });
            }
            merged.values.insert(key.to_owned(), value.clone());
        }
        Ok(merged)
    }

    /// A compact `k=v,k=v` rendering (deterministic key order).
    pub fn summary(&self) -> String {
        self.iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// Why a predictor could not be built from a spec.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// The spec names a predictor that is not registered.
    UnknownPredictor {
        /// The requested name.
        name: String,
        /// All registered names, for the error message.
        known: Vec<String>,
    },
    /// A parameter key is not accepted by the predictor (or is missing
    /// from its defaults).
    UnknownParam {
        /// The offending key.
        param: String,
        /// Every key the predictor accepts (its declared defaults), so
        /// the error names the valid alternatives.
        known: Vec<String>,
    },
    /// A parameter value is out of range or of the wrong type.
    InvalidValue {
        /// The offending key.
        param: String,
        /// Human-readable reason.
        reason: String,
    },
    /// A spec string could not be parsed.
    Malformed {
        /// Human-readable reason.
        reason: String,
    },
}

impl BuildError {
    /// Convenience constructor for [`BuildError::InvalidValue`].
    pub fn invalid(param: &str, reason: impl Into<String>) -> Self {
        BuildError::InvalidValue {
            param: param.to_owned(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownPredictor { name, known } => {
                write!(
                    f,
                    "unknown predictor {name:?}; registered: {}",
                    known.join(", ")
                )
            }
            BuildError::UnknownParam { param, known } => {
                if known.is_empty() {
                    write!(f, "unknown parameter {param:?}; takes no parameters")
                } else {
                    write!(
                        f,
                        "unknown parameter {param:?}; accepted: {}",
                        known.join(", ")
                    )
                }
            }
            BuildError::InvalidValue { param, reason } => {
                write!(f, "invalid value for {param:?}: {reason}")
            }
            BuildError::Malformed { reason } => {
                write!(f, "malformed predictor spec: {reason}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// A predictor configuration as data: a registered name, optional
/// display label, and parameter overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictorSpec {
    predictor: String,
    label: Option<String>,
    params: Params,
}

impl PredictorSpec {
    /// A spec for `predictor` with default parameters.
    pub fn new(predictor: &str) -> Self {
        Self {
            predictor: predictor.to_owned(),
            label: None,
            params: Params::new(),
        }
    }

    /// Builder-style parameter override.
    pub fn with(mut self, key: &str, value: impl Into<ParamValue>) -> Self {
        self.params.insert(key, value);
        self
    }

    /// Sets the display label used in tables and result series.
    pub fn labeled(mut self, label: &str) -> Self {
        self.label = Some(label.to_owned());
        self
    }

    /// The registered predictor name.
    pub fn predictor(&self) -> &str {
        &self.predictor
    }

    /// The parameter overrides (not including registry defaults).
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The display label: the explicit one, else the predictor name
    /// (with an `{k=v,...}` suffix when overrides are present).
    pub fn label(&self) -> String {
        match &self.label {
            Some(l) => l.clone(),
            None if self.params.is_empty() => self.predictor.clone(),
            None => format!("{}{{{}}}", self.predictor, self.params.summary()),
        }
    }

    /// Parses `[label=]name[:key=value,key=value,...]`.
    ///
    /// Values parse as bool, then int, then string:
    /// `TAGE=isl-tage:tables=15,sc=false`.
    pub fn parse(text: &str) -> Result<Self, BuildError> {
        let (head, params_text) = match text.split_once(':') {
            Some((h, p)) => (h, Some(p)),
            None => (text, None),
        };
        let (label, name) = match head.split_once('=') {
            Some((l, n)) => (Some(l), n),
            None => (None, head),
        };
        if name.is_empty() {
            return Err(BuildError::Malformed {
                reason: format!("empty predictor name in {text:?}"),
            });
        }
        let mut spec = PredictorSpec::new(name);
        if let Some(label) = label {
            spec = spec.labeled(label);
        }
        if let Some(params_text) = params_text {
            for pair in params_text.split(',').filter(|p| !p.is_empty()) {
                let Some((key, value)) = pair.split_once('=') else {
                    return Err(BuildError::Malformed {
                        reason: format!("parameter {pair:?} is not key=value"),
                    });
                };
                spec.params.insert(key, ParamValue::parse(value));
            }
        }
        Ok(spec)
    }
}

/// The builder signature every predictor registers: defaults have
/// already been merged in, so every declared key is present.
pub type PredictorBuilder =
    Box<dyn Fn(&Params) -> Result<Box<dyn ConditionalPredictor>, BuildError> + Send + Sync>;

struct RegistryEntry {
    description: String,
    defaults: Params,
    builder: PredictorBuilder,
}

/// The registry mapping predictor names to builders.
#[derive(Default)]
pub struct PredictorRegistry {
    entries: BTreeMap<String, RegistryEntry>,
}

impl fmt::Debug for PredictorRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PredictorRegistry")
            .field("names", &self.names())
            .finish()
    }
}

impl PredictorRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry pre-populated with this crate's trivial baselines
    /// (`static-taken`, `static-not-taken`).
    pub fn with_builtins() -> Self {
        let mut registry = Self::new();
        registry.register(
            "static-taken",
            "always predicts taken (baseline floor)",
            Params::new(),
            |_| Ok(Box::new(StaticPredictor::always_taken())),
        );
        registry.register(
            "static-not-taken",
            "always predicts not-taken (baseline floor)",
            Params::new(),
            |_| Ok(Box::new(StaticPredictor::always_not_taken())),
        );
        registry
    }

    /// Registers a predictor. `defaults` declares every accepted
    /// parameter with its default value.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered — each predictor registers
    /// exactly once.
    pub fn register<F>(&mut self, name: &str, description: &str, defaults: Params, builder: F)
    where
        F: Fn(&Params) -> Result<Box<dyn ConditionalPredictor>, BuildError> + Send + Sync + 'static,
    {
        let previous = self.entries.insert(
            name.to_owned(),
            RegistryEntry {
                description: description.to_owned(),
                defaults,
                builder: Box::new(builder),
            },
        );
        assert!(previous.is_none(), "predictor {name:?} registered twice");
    }

    /// Builds a predictor by name, overlaying `overrides` on its
    /// registered defaults.
    pub fn build(
        &self,
        name: &str,
        overrides: &Params,
    ) -> Result<Box<dyn ConditionalPredictor>, BuildError> {
        let entry = self
            .entries
            .get(name)
            .ok_or_else(|| BuildError::UnknownPredictor {
                name: name.to_owned(),
                known: self.names().iter().map(|s| s.to_string()).collect(),
            })?;
        let merged = entry.defaults.merged_with(overrides)?;
        (entry.builder)(&merged)
    }

    /// Builds a predictor from a [`PredictorSpec`].
    pub fn build_spec(
        &self,
        spec: &PredictorSpec,
    ) -> Result<Box<dyn ConditionalPredictor>, BuildError> {
        self.build(spec.predictor(), spec.params())
    }

    /// The effective (defaults + overrides) parameters for a spec.
    pub fn effective_params(&self, spec: &PredictorSpec) -> Result<Params, BuildError> {
        let entry =
            self.entries
                .get(spec.predictor())
                .ok_or_else(|| BuildError::UnknownPredictor {
                    name: spec.predictor().to_owned(),
                    known: self.names().iter().map(|s| s.to_string()).collect(),
                })?;
        entry.defaults.merged_with(spec.params())
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// All registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// The one-line description registered for `name`.
    pub fn describe(&self, name: &str) -> Option<&str> {
        self.entries.get(name).map(|e| e.description.as_str())
    }

    /// Probes the capability descriptor of `name` by building it with
    /// its registered defaults and asking the instance. Used by the
    /// `sweep --list` table and the serve HELLO handshake; capabilities
    /// are a property of the configuration, so default-parameter probing
    /// answers for the family.
    pub fn capabilities(&self, name: &str) -> Result<PredictorCaps, BuildError> {
        let mut predictor = self.build(name, &Params::new())?;
        Ok(predictor.capabilities())
    }

    /// The hardware storage breakdown of `name` built with `overrides`
    /// overlaid on its defaults — what the `sweep --list` budget column
    /// and the tuner's feasibility check read without running a trace.
    pub fn storage(
        &self,
        name: &str,
        overrides: &Params,
    ) -> Result<crate::storage::StorageBreakdown, BuildError> {
        Ok(self.build(name, overrides)?.storage())
    }

    /// The default parameters registered for `name`.
    pub fn defaults(&self, name: &str) -> Option<&Params> {
        self.entries.get(name).map(|e| &e.defaults)
    }

    /// Number of registered predictors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_build_and_name_correctly() {
        let registry = PredictorRegistry::with_builtins();
        assert_eq!(registry.names(), vec!["static-not-taken", "static-taken"]);
        let p = registry.build("static-taken", &Params::new()).unwrap();
        assert_eq!(p.name(), "static-taken");
        assert!(registry.describe("static-taken").unwrap().contains("taken"));
    }

    #[test]
    fn unknown_predictor_lists_known_names() {
        let registry = PredictorRegistry::with_builtins();
        let err = registry.build("nope", &Params::new()).err().unwrap();
        let msg = err.to_string();
        assert!(
            msg.contains("nope") && msg.contains("static-taken"),
            "{msg}"
        );
    }

    #[test]
    fn unknown_param_is_rejected() {
        let registry = PredictorRegistry::with_builtins();
        let err = registry
            .build("static-taken", &Params::new().set("tables", 4))
            .err()
            .unwrap();
        assert_eq!(
            err,
            BuildError::UnknownParam {
                param: "tables".into(),
                known: vec![]
            }
        );
        assert!(err.to_string().contains("takes no parameters"));
    }

    #[test]
    fn duplicate_registration_panics() {
        let result = std::panic::catch_unwind(|| {
            let mut registry = PredictorRegistry::with_builtins();
            registry.register("static-taken", "dup", Params::new(), |_| {
                Ok(Box::new(StaticPredictor::always_taken()))
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn params_merge_and_typed_reads() {
        let defaults = Params::new().set("tables", 10).set("sc", true);
        let merged = defaults
            .merged_with(&Params::new().set("tables", 4).set("sc", false))
            .unwrap();
        assert_eq!(merged.usize("tables").unwrap(), 4);
        assert!(!merged.bool("sc").unwrap());
        assert!(merged.str("tables").is_err());
        assert!(defaults
            .merged_with(&Params::new().set("tablez", 4))
            .is_err());
    }

    #[test]
    fn spec_parse_roundtrip() {
        let spec = PredictorSpec::parse("TAGE=isl-tage:tables=15,sc=false").unwrap();
        assert_eq!(spec.predictor(), "isl-tage");
        assert_eq!(spec.label(), "TAGE");
        assert_eq!(spec.params().get("tables"), Some(&ParamValue::Int(15)));
        assert_eq!(spec.params().get("sc"), Some(&ParamValue::Bool(false)));

        let plain = PredictorSpec::parse("bf-neural").unwrap();
        assert_eq!(plain.label(), "bf-neural");

        let auto = PredictorSpec::new("isl-tage").with("tables", 7);
        assert_eq!(auto.label(), "isl-tage{tables=7}");

        assert!(PredictorSpec::parse(":tables=4").is_err());
        assert!(PredictorSpec::parse("tage:tables").is_err());
    }

    #[test]
    fn registry_probes_capabilities() {
        let registry = PredictorRegistry::with_builtins();
        let caps = registry.capabilities("static-taken").unwrap();
        assert!(caps.batch_preferred);
        assert!(caps.checkpointable);
        assert!(caps.provenance);
        assert_eq!(caps.flags(), "BC-P");
        for name in registry.names() {
            assert!(
                registry.capabilities(name).unwrap().batch_preferred,
                "{name}"
            );
        }
        assert!(registry.capabilities("no-such").is_err());
    }

    #[test]
    fn param_value_parse_types() {
        assert_eq!(ParamValue::parse("true"), ParamValue::Bool(true));
        assert_eq!(ParamValue::parse("15"), ParamValue::Int(15));
        assert_eq!(ParamValue::parse("0.5"), ParamValue::Str("0.5".into()));
        assert_eq!(
            ParamValue::parse("recency-stack"),
            ParamValue::Str("recency-stack".into())
        );
    }
}
