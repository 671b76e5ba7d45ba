//! Run recipes: a TOML subset describing one end-to-end pipeline run.
//!
//! `qcluster run <recipe.toml>` reads a declarative spec — corpus
//! shape, feature kind, serving topology, eval protocol, quality gate —
//! and executes synth → ingest → build → serve → eval in one command.
//! The workspace vendors no TOML crate, so this module hand-rolls the
//! subset the recipes need: `[section]` headers, `key = value` pairs
//! with string / integer / float / boolean values, `#` comments, and
//! blank lines. Unknown sections or keys are **errors** (with line
//! numbers), so a typo'd recipe fails loudly instead of silently
//! running defaults.

use crate::error::CliError;
use crate::eval::EvalOptions;
use crate::ingest::{parse_feature_kind, IngestConfig};
use crate::synth::SynthImagesConfig;
use std::path::Path;

/// One parsed scalar value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
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

/// One `key = value` with its source line (for error context).
#[derive(Debug, Clone)]
struct Entry {
    section: String,
    key: String,
    value: Value,
    line: usize,
}

/// The full pipeline recipe `qcluster run` executes.
#[derive(Debug, Clone, PartialEq)]
pub struct Recipe {
    /// Synthetic corpus shape (`[corpus]`).
    pub corpus: SynthImagesConfig,
    /// Ingest settings (`[ingest]`).
    pub ingest: IngestConfig,
    /// Serving topology (`[serve]`, minus scrape options which are
    /// per-invocation flags).
    pub nodes: usize,
    /// Eval protocol (`[eval]`).
    pub eval: EvalOptions,
    /// Max |served − offline| mean precision per iteration.
    pub epsilon: f64,
}

impl Default for Recipe {
    fn default() -> Self {
        Recipe {
            corpus: SynthImagesConfig::default(),
            ingest: IngestConfig::default(),
            nodes: 1,
            eval: EvalOptions::default(),
            epsilon: 0.05,
        }
    }
}

fn parse_value(raw: &str) -> Option<Value> {
    let raw = raw.trim();
    if let Some(inner) = raw.strip_prefix('"').and_then(|r| r.strip_suffix('"')) {
        // The recipes need no escapes; reject embedded quotes outright.
        if inner.contains('"') {
            return None;
        }
        return Some(Value::Str(inner.to_string()));
    }
    match raw {
        "true" => return Some(Value::Bool(true)),
        "false" => return Some(Value::Bool(false)),
        _ => {}
    }
    if let Ok(i) = raw.parse::<i64>() {
        return Some(Value::Int(i));
    }
    if let Ok(f) = raw.parse::<f64>() {
        return Some(Value::Float(f));
    }
    None
}

fn strip_comment(line: &str) -> &str {
    // `#` starts a comment unless inside a quoted string.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_entries(text: &str, path: &Path) -> Result<Vec<Entry>, CliError> {
    let err = |line: usize, detail: String| CliError::Recipe {
        path: path.to_path_buf(),
        line: Some(line),
        detail,
    };
    let mut section = String::new();
    let mut entries = Vec::new();
    for (i, raw_line) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[') {
            let Some(name) = name.strip_suffix(']') else {
                return Err(err(
                    line_no,
                    format!("unterminated section header {line:?}"),
                ));
            };
            section = name.trim().to_string();
            if section.is_empty() {
                return Err(err(line_no, "empty section name".into()));
            }
            continue;
        }
        let Some((key, raw_value)) = line.split_once('=') else {
            return Err(err(
                line_no,
                format!("expected `key = value`, got {line:?}"),
            ));
        };
        let key = key.trim();
        if key.is_empty() {
            return Err(err(line_no, "empty key".into()));
        }
        if section.is_empty() {
            return Err(err(line_no, format!("key {key:?} before any [section]")));
        }
        let Some(value) = parse_value(raw_value) else {
            return Err(err(
                line_no,
                format!(
                    "unsupported value {:?} (string/int/float/bool only)",
                    raw_value.trim()
                ),
            ));
        };
        entries.push(Entry {
            section: section.clone(),
            key: key.to_string(),
            value,
            line: line_no,
        });
    }
    Ok(entries)
}

fn as_usize(e: &Entry, path: &Path) -> Result<usize, CliError> {
    match e.value {
        Value::Int(i) if i >= 0 => Ok(i as usize),
        _ => Err(CliError::Recipe {
            path: path.to_path_buf(),
            line: Some(e.line),
            detail: format!(
                "{}.{} must be a non-negative integer, got {}",
                e.section,
                e.key,
                e.value.type_name()
            ),
        }),
    }
}

fn as_u64(e: &Entry, path: &Path) -> Result<u64, CliError> {
    as_usize(e, path).map(|v| v as u64)
}

fn as_f64(e: &Entry, path: &Path) -> Result<f64, CliError> {
    match e.value {
        Value::Float(f) => Ok(f),
        Value::Int(i) => Ok(i as f64),
        _ => Err(CliError::Recipe {
            path: path.to_path_buf(),
            line: Some(e.line),
            detail: format!("{}.{} must be a number", e.section, e.key),
        }),
    }
}

fn as_str<'a>(e: &'a Entry, path: &Path) -> Result<&'a str, CliError> {
    match &e.value {
        Value::Str(s) => Ok(s),
        _ => Err(CliError::Recipe {
            path: path.to_path_buf(),
            line: Some(e.line),
            detail: format!("{}.{} must be a string", e.section, e.key),
        }),
    }
}

impl Recipe {
    /// Parses recipe `text` (from `path`, used for error context).
    ///
    /// # Errors
    ///
    /// [`CliError::Recipe`] with a line number for syntax errors,
    /// unknown sections/keys, or type mismatches.
    pub fn parse(text: &str, path: &Path) -> Result<Recipe, CliError> {
        let mut recipe = Recipe::default();
        for e in parse_entries(text, path)? {
            let unknown = |what: &str| CliError::Recipe {
                path: path.to_path_buf(),
                line: Some(e.line),
                detail: format!("unknown {what}"),
            };
            match (e.section.as_str(), e.key.as_str()) {
                ("corpus", "categories") => recipe.corpus.categories = as_usize(&e, path)?,
                ("corpus", "images_per_category") => {
                    recipe.corpus.images_per_category = as_usize(&e, path)?;
                }
                ("corpus", "image_size") => recipe.corpus.image_size = as_usize(&e, path)?,
                ("corpus", "categories_per_super") => {
                    recipe.corpus.categories_per_super = as_usize(&e, path)?;
                }
                ("corpus", "seed") => recipe.corpus.seed = as_u64(&e, path)?,
                ("ingest", "features") => {
                    recipe.ingest.features =
                        parse_feature_kind(as_str(&e, path)?).map_err(|err| CliError::Recipe {
                            path: path.to_path_buf(),
                            line: Some(e.line),
                            detail: err.to_string(),
                        })?;
                }
                ("ingest", "workers") => recipe.ingest.workers = as_usize(&e, path)?,
                ("serve", "nodes") => recipe.nodes = as_usize(&e, path)?.max(1),
                ("eval", "k") => recipe.eval.k = as_usize(&e, path)?,
                ("eval", "rounds") => recipe.eval.rounds = as_usize(&e, path)?,
                ("eval", "queries") => recipe.eval.queries = as_usize(&e, path)?,
                ("eval", "seed") => recipe.eval.seed = as_u64(&e, path)?,
                ("eval", "epsilon") => recipe.epsilon = as_f64(&e, path)?,
                ("corpus" | "ingest" | "serve" | "eval", _) => {
                    return Err(unknown(&format!("key `{}.{}`", e.section, e.key)));
                }
                _ => return Err(unknown(&format!("section `[{}]`", e.section))),
            }
        }
        recipe.validate(path)?;
        Ok(recipe)
    }

    /// Loads and parses a recipe file.
    ///
    /// # Errors
    ///
    /// I/O failures and everything [`Recipe::parse`] rejects.
    pub fn load(path: &Path) -> Result<Recipe, CliError> {
        let text = std::fs::read_to_string(path).map_err(|e| CliError::io(path, e))?;
        Recipe::parse(&text, path)
    }

    fn validate(&self, path: &Path) -> Result<(), CliError> {
        let bad = |detail: String| CliError::Recipe {
            path: path.to_path_buf(),
            line: None,
            detail,
        };
        if self.corpus.categories == 0 || self.corpus.images_per_category == 0 {
            return Err(bad("corpus must have categories and images".into()));
        }
        if self.corpus.image_size < 4 {
            return Err(bad("corpus.image_size must be at least 4".into()));
        }
        self.eval.check(Some(self.epsilon), "eval.").map_err(bad)?;
        let n = self.corpus.categories * self.corpus.images_per_category;
        if self.nodes > n {
            return Err(bad(format!(
                "serve.nodes = {} exceeds the {n}-image corpus",
                self.nodes
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcluster_imaging::FeatureKind;
    use std::path::PathBuf;

    fn p() -> PathBuf {
        PathBuf::from("test.toml")
    }

    #[test]
    fn full_recipe_parses() {
        let text = r#"
# paper reproduction
[corpus]
categories = 10        # inline comment
images_per_category = 8
image_size = 16
categories_per_super = 5
seed = 7

[ingest]
features = "texture"
workers = 2

[serve]
nodes = 3

[eval]
k = 10
rounds = 2
queries = 12
seed = 17
epsilon = 0.1
"#;
        let r = Recipe::parse(text, &p()).unwrap();
        assert_eq!(r.corpus.categories, 10);
        assert_eq!(r.corpus.images_per_category, 8);
        assert_eq!(r.ingest.features, FeatureKind::CooccurrenceTexture);
        assert_eq!(r.ingest.workers, 2);
        assert_eq!(r.nodes, 3);
        assert_eq!(r.eval.k, 10);
        assert!((r.epsilon - 0.1).abs() < 1e-12);
    }

    #[test]
    fn defaults_fill_missing_sections() {
        let r = Recipe::parse("[eval]\nqueries = 5\n", &p()).unwrap();
        assert_eq!(r.eval.queries, 5);
        assert_eq!(r.eval.k, EvalOptions::default().k);
        assert_eq!(r.corpus, SynthImagesConfig::default());
        assert_eq!(r.nodes, 1);
    }

    #[test]
    fn unknown_keys_and_sections_fail_with_line_numbers() {
        let err = Recipe::parse("[corpus]\nvolume = 11\n", &p()).unwrap_err();
        assert!(err.to_string().contains("test.toml:2"), "{err}");
        assert!(err.to_string().contains("corpus.volume"), "{err}");
        let err = Recipe::parse("[corpse]\ncategories = 3\n", &p()).unwrap_err();
        assert!(err.to_string().contains("[corpse]"), "{err}");
    }

    #[test]
    fn syntax_errors_carry_context() {
        let err = Recipe::parse("[corpus\n", &p()).unwrap_err();
        assert!(err.to_string().contains("unterminated"), "{err}");
        let err = Recipe::parse("[corpus]\nseed 7\n", &p()).unwrap_err();
        assert!(err.to_string().contains("key = value"), "{err}");
        let err = Recipe::parse("seed = 7\n", &p()).unwrap_err();
        assert!(err.to_string().contains("before any"), "{err}");
        let err = Recipe::parse("[eval]\nk = \"many\"\n", &p()).unwrap_err();
        assert!(err.to_string().contains("non-negative integer"), "{err}");
    }

    #[test]
    fn values_parse_all_scalar_types() {
        assert_eq!(parse_value("\"hi\""), Some(Value::Str("hi".into())));
        assert_eq!(parse_value("42"), Some(Value::Int(42)));
        assert_eq!(parse_value("-3"), Some(Value::Int(-3)));
        assert_eq!(parse_value("0.05"), Some(Value::Float(0.05)));
        assert_eq!(parse_value("true"), Some(Value::Bool(true)));
        assert_eq!(parse_value("[1, 2]"), None);
    }

    #[test]
    fn validation_rejects_nonsense() {
        let err = Recipe::parse("[eval]\nepsilon = 0\n", &p()).unwrap_err();
        assert!(err.to_string().contains("epsilon"), "{err}");
        let err = Recipe::parse(
            "[corpus]\ncategories = 2\nimages_per_category = 2\n[serve]\nnodes = 9\n",
            &p(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("nodes"), "{err}");
    }
}
