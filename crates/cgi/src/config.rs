//! The gateway's one configuration surface: every `DBGW_*` variable, parsed
//! and validated once at boot, the way the paper's `db2www` read the CGI
//! environment once per invocation.
//!
//! The boot sites (`db2www`, `examples/serve`, `examples/crash_recovery`)
//! call [`Config::from_env`] and pass the parts down
//! ([`Config::open_database`], [`crate::Gateway::configured`],
//! [`crate::HttpServer::start_from_config`]); library constructors mean their
//! `Default` and never look at the process environment. A name is accepted
//! only if it is a deployment setting an operator chooses per site — a path,
//! a capacity limit, a durability or observability switch. Ablation switches
//! and tuning values are fields of the typed structs, for benches and tests
//! to set; naming one in the environment is an error that says where it went.

use crate::gateway::TraceOptions;
use crate::http::ServerConfig;
use dbgw_cache::CacheConfig;
use dbgw_obs::slo::SloConfig;
use minisql::{Database, DurabilityConfig, SqlResult};
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

/// Every variable [`Config::from_lookup`] accepts, in display order, and how
/// the field it governs ([`Config::apply`]) is shown back.
type Show = fn(&Config) -> String;
const SETTINGS: [(&str, Show); 14] = [
    ("DBGW_DATA_DIR", |c| {
        shown(c.data_dir.as_ref().map(|p| p.display()))
    }),
    ("DBGW_FSYNC", |c| (c.durability.fsync as u8).to_string()),
    ("DBGW_WORKERS", |c| c.server.workers.to_string()),
    ("DBGW_QUEUE", |c| c.server.queue.to_string()),
    ("DBGW_MAX_CONNS", |c| c.server.max_conns.to_string()),
    ("DBGW_MAX_BODY", |c| c.server.max_body.to_string()),
    ("DBGW_KEEPALIVE_MS", |c| {
        c.server.keepalive.as_millis().to_string()
    }),
    ("DBGW_DEADLINE_MS", |c| shown(c.deadline_ms)),
    ("DBGW_CACHE_BYTES", |c| c.cache.max_bytes.to_string()),
    ("DBGW_TRACE", |c| (c.trace.annotate as u8).to_string()),
    ("DBGW_TRACE_FILE", |c| {
        shown(c.trace.trace_file.as_ref().map(|p| p.display()))
    }),
    ("DBGW_SLOW_MS", |c| shown(c.trace.slow_ms)),
    ("DBGW_SLO_P99_MS", |c| shown(c.slo.p99_target_ms)),
    ("DBGW_SLO_ERROR_BUDGET", |c| shown(c.slo.error_budget)),
];

/// Names that used to be read from the environment, and what replaced them.
const REMOVED: [(&[&str], &str); 7] = [
    (
        &["HASH_JOIN", "PUSHDOWN", "INDEX_PATHS", "TOPK", "REORDER"],
        "planner switches are `minisql::PlanOptions` fields, set in a bench or test",
    ),
    (
        &["STATS", "STATS_REFRESH", "STATS_BUCKETS", "DIGEST_MAX"],
        "statistics are always maintained, and their sizes are constants",
    ),
    (&["DIGESTS"], "call `dbgw_obs::digests().set_enabled`"),
    (
        &["SAMPLE_MS", "SAMPLE_CAP"],
        "pass a `Sampler::new(interval, capacity)` to `Gateway::with_sampler`",
    ),
    (
        &["STREAM_WATERMARK", "MAX_REQUESTS"],
        "it is a `ServerConfig` field",
    ),
    (
        &["GROUP_COMMIT_US", "CHECKPOINT_BYTES"],
        "it is a `DurabilityConfig` field",
    ),
    (
        &["CACHE", "CACHE_TTL_MS"],
        "the result cache is always on; ETag revalidation replaces max-age",
    ),
];

/// The gateway's effective configuration, composed of the typed structs each
/// layer already takes. The fields a variable does not reach keep their
/// defaults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Config {
    /// `DBGW_DATA_DIR`: where the database persists; `None` keeps it purely
    /// in memory.
    pub data_dir: Option<PathBuf>,
    /// `DBGW_FSYNC`.
    pub durability: DurabilityConfig,
    /// `DBGW_WORKERS`, `DBGW_QUEUE`, `DBGW_MAX_CONNS`, `DBGW_MAX_BODY`,
    /// `DBGW_KEEPALIVE_MS`.
    pub server: ServerConfig,
    /// `DBGW_CACHE_BYTES`.
    pub cache: CacheConfig,
    /// `DBGW_DEADLINE_MS`: per-request wall-clock deadline; 0 disables.
    pub deadline_ms: Option<u64>,
    /// `DBGW_TRACE`, `DBGW_TRACE_FILE`, `DBGW_SLOW_MS`.
    pub trace: TraceOptions,
    /// `DBGW_SLO_P99_MS`, `DBGW_SLO_ERROR_BUDGET`.
    pub slo: SloConfig,
    /// The accepted names the lookup carried a value for.
    set: Vec<&'static str>,
}

impl Config {
    /// Parse the process environment. The rest of the (CGI) environment may
    /// not even be UTF-8, so only our prefix is converted.
    pub fn from_env() -> Result<Config, String> {
        let ours = std::env::vars_os().filter(|(k, _)| k.to_string_lossy().starts_with("DBGW_"));
        Config::from_lookup(ours.map(|(k, v)| {
            (
                k.to_string_lossy().into_owned(),
                v.to_string_lossy().into_owned(),
            )
        }))
    }

    /// Parse `(name, value)` pairs. Names without the `DBGW_` prefix are
    /// ignored and an empty value counts as unset; an unknown `DBGW_*` name,
    /// or a value that does not parse or is out of range, is an error that
    /// starts with the variable's name.
    pub fn from_lookup(
        vars: impl IntoIterator<Item = (impl AsRef<str>, impl AsRef<str>)>,
    ) -> Result<Config, String> {
        let mut config = Config::default();
        for (name, value) in vars {
            let (name, value) = (name.as_ref(), value.as_ref().trim());
            let Some(suffix) = name.strip_prefix("DBGW_") else {
                continue;
            };
            let Some(&(known, _)) = SETTINGS.iter().find(|(n, _)| *n == name) else {
                let removed = REMOVED.iter().find(|(old, _)| old.contains(&suffix));
                return Err(match removed {
                    Some((_, now)) => format!("{name}: no longer an environment variable: {now}"),
                    None => format!("{name}: not a variable the gateway knows"),
                });
            };
            if !value.is_empty() {
                config
                    .apply(known, value)
                    .map_err(|expected| format!("{name}: expected {expected}, got {value:?}"))?;
                config.set.push(known);
            }
        }
        Ok(config)
    }

    /// Store `value` in the field `name` governs; `Err` says what the value
    /// should have been.
    fn apply(&mut self, name: &str, value: &str) -> Result<(), &'static str> {
        match name {
            "DBGW_DATA_DIR" => self.data_dir = Some(value.into()),
            "DBGW_FSYNC" => self.durability.fsync = switch(value)?,
            "DBGW_WORKERS" => self.server.workers = at_least_one(value)?,
            "DBGW_QUEUE" => self.server.queue = at_least_one(value)?,
            "DBGW_MAX_CONNS" => self.server.max_conns = at_least_one(value)?,
            "DBGW_MAX_BODY" => self.server.max_body = number(value)?,
            "DBGW_KEEPALIVE_MS" => self.server.keepalive = Duration::from_millis(number(value)?),
            "DBGW_DEADLINE_MS" => self.deadline_ms = Some(number(value)?).filter(|&ms| ms > 0),
            "DBGW_CACHE_BYTES" => self.cache.max_bytes = number(value)?,
            "DBGW_TRACE" => self.trace.annotate = switch(value)?,
            "DBGW_TRACE_FILE" => self.trace.trace_file = Some(value.into()),
            "DBGW_SLOW_MS" => self.trace.slow_ms = Some(number(value)?),
            "DBGW_SLO_P99_MS" => {
                self.slo.p99_target_ms = Some(up_to(f64::MAX, value, "a positive number")?)
            }
            "DBGW_SLO_ERROR_BUDGET" => {
                self.slo.error_budget = Some(up_to(1.0, value, "an error fraction in (0, 1]")?)
            }
            _ => unreachable!("{name} is in SETTINGS but has no field"),
        }
        Ok(())
    }

    /// Every accepted name in display order, as `(name, effective value, set
    /// by the environment?)`.
    pub fn settings(&self) -> impl Iterator<Item = (&'static str, String, bool)> + '_ {
        SETTINGS
            .iter()
            .map(|(name, show)| (*name, show(self), self.set.contains(name)))
    }

    /// Open the database this configuration describes: durable under
    /// `data_dir` (recovering any prior log), purely in memory otherwise.
    pub fn open_database(&self) -> SqlResult<Database> {
        match &self.data_dir {
            Some(dir) => Database::open_with_config(dir, &self.durability, &self.cache),
            None => Ok(Database::with_cache_config(&self.cache)),
        }
    }
}

/// One line: `config: NAME=value (set) NAME=value (default) …`.
impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("config:")?;
        for (name, value, set) in self.settings() {
            let origin = if set { "set" } else { "default" };
            write!(f, " {name}={value} ({origin})")?;
        }
        Ok(())
    }
}

fn shown<T: ToString>(value: Option<T>) -> String {
    value.map_or("-".to_owned(), |v| v.to_string())
}

fn switch(value: &str) -> Result<bool, &'static str> {
    match value {
        "1" | "on" | "true" => Ok(true),
        "0" | "off" | "false" => Ok(false),
        _ => Err("0 or 1"),
    }
}

fn number<T: FromStr>(value: &str) -> Result<T, &'static str> {
    value.parse().map_err(|_| "a non-negative number")
}

fn up_to(max: f64, value: &str, expected: &'static str) -> Result<f64, &'static str> {
    let in_range = |v: &f64| *v > 0.0 && *v <= max;
    number(value).ok().filter(in_range).ok_or(expected)
}

fn at_least_one(value: &str) -> Result<usize, &'static str> {
    number(value)
        .ok()
        .filter(|&n| n >= 1)
        .ok_or("an integer of at least 1")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_lookup_accepts_validates_and_ignores() {
        let parse = |name: &str, value: &str| Config::from_lookup([(name, value)]);
        let no_vars: [(&str, &str); 0] = [];
        assert_eq!(Config::from_lookup(no_vars), Ok(Config::default()));

        // Every accepted name lands a non-default value in its own field and,
        // alone, shows it back marked as set beside thirteen defaults.
        type Landed = fn(&Config) -> bool;
        let landings: [(&str, &str, Landed); 14] = [
            ("DBGW_DATA_DIR", "/var/dbgw", |c| {
                c.data_dir == Some("/var/dbgw".into())
            }),
            ("DBGW_FSYNC", "0", |c| !c.durability.fsync),
            ("DBGW_WORKERS", "9", |c| c.server.workers == 9),
            ("DBGW_QUEUE", "7", |c| c.server.queue == 7),
            ("DBGW_MAX_CONNS", "123", |c| c.server.max_conns == 123),
            ("DBGW_MAX_BODY", "4096", |c| c.server.max_body == 4096),
            ("DBGW_KEEPALIVE_MS", "250", |c| {
                c.server.keepalive == Duration::from_millis(250)
            }),
            ("DBGW_DEADLINE_MS", "1500", |c| c.deadline_ms == Some(1500)),
            ("DBGW_CACHE_BYTES", "65536", |c| c.cache.max_bytes == 65_536),
            ("DBGW_TRACE", "1", |c| c.trace.annotate),
            ("DBGW_TRACE_FILE", "/tmp/t.jsonl", |c| {
                c.trace.trace_file == Some("/tmp/t.jsonl".into())
            }),
            ("DBGW_SLOW_MS", "40", |c| c.trace.slow_ms == Some(40)),
            ("DBGW_SLO_P99_MS", "350", |c| {
                c.slo.p99_target_ms == Some(350.0)
            }),
            ("DBGW_SLO_ERROR_BUDGET", "0.01", |c| {
                c.slo.error_budget == Some(0.01)
            }),
        ];
        let accepted = SETTINGS.iter().map(|row| row.0);
        assert!(
            accepted.eq(landings.iter().map(|row| row.0)),
            "one row per name"
        );
        for (name, value, landed) in landings {
            let config = parse(name, value).unwrap();
            assert!(landed(&config) && !landed(&Config::default()), "{name}");
            for (shown, shown_value, set) in config.settings() {
                assert_eq!(set, shown == name, "{shown}");
                assert!(shown != name || shown_value == value, "{shown}");
            }
        }
        let line = parse("DBGW_WORKERS", "2").unwrap().to_string();
        assert!(line.starts_with("config: DBGW_DATA_DIR=- (default) "));
        assert!(line.contains(" DBGW_WORKERS=2 (set) ") && !line.contains('\n'));

        // Zero switches a deadline off; an empty value is no value.
        assert_eq!(parse("DBGW_DEADLINE_MS", "0").unwrap().deadline_ms, None);
        assert_eq!(parse("DBGW_WORKERS", ""), Ok(Config::default()));

        // Bad values, unknown names and removed names are errors that start
        // with the variable and say what is wrong.
        for (name, value, needle) in [
            ("DBGW_WORKERS", "abc", "at least 1"),
            ("DBGW_WORKERS", "0", "at least 1"),
            ("DBGW_SLO_ERROR_BUDGET", "-1", "(0, 1]"),
            ("DBGW_SLO_ERROR_BUDGET", "1.5", "(0, 1]"),
            ("DBGW_SLO_P99_MS", "inf", "positive"),
            ("DBGW_TRACE", "maybe", "0 or 1"),
            ("DBGW_MAX_BODY", "-5", "non-negative"),
            ("DBGW_BOGUS", "1", "not a variable the gateway knows"),
            ("DBGW_HASH_JOIN", "0", "PlanOptions"),
            ("DBGW_STATS", "0", "always maintained"),
            ("DBGW_STREAM_WATERMARK", "1", "ServerConfig"),
            ("DBGW_CACHE", "0", "always on"),
            ("DBGW_CACHE_TTL_MS", "2500", "ETag revalidation"),
        ] {
            let err = parse(name, value).unwrap_err();
            assert!(err.starts_with(&format!("{name}: ")), "{err}");
            assert!(err.contains(needle), "{err}");
        }
        let removed: Vec<_> = REMOVED.iter().flat_map(|(names, _)| *names).collect();
        assert_eq!(removed.len(), 18);
        for suffix in removed {
            let err = parse(&format!("DBGW_{suffix}"), "1").unwrap_err();
            assert!(err.contains("no longer an environment variable"), "{err}");
        }

        // The CGI variables db2www lives among are not ours to judge.
        let config = Config::from_lookup([
            ("REQUEST_METHOD", "GET"),
            ("DTW_MACRO_DIR", "./macros"),
            ("DBGW", "1"),
            ("DBGW_QUEUE", "3"),
        ]);
        assert_eq!(config.unwrap().server.queue, 3);
    }
}
