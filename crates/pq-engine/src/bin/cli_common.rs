//! Flag-parsing and command plumbing shared by the `pqsh` and `pqd`
//! binaries (pulled in via `#[path] mod`, not compiled as a binary — see
//! `autobins = false`).
//!
//! Both front-ends load the same data, construct the same engine and
//! expose the same insert command, so the `--data`/`--servers`/`--seed`
//! flags and the validate/encode/apply insert pipeline live here once:
//! same validation, same error style, one place to extend.

use pq_engine::{ClusterConfig, Delta, ExecBackend, FallbackPolicy, RetryPolicy, Session};
use pq_relation::Value;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

/// The flags every pq-engine front-end accepts.
pub struct CommonArgs {
    /// `--data` paths (repeatable).
    pub data: Vec<PathBuf>,
    /// `--servers`: default server budget for new sessions.
    pub servers: usize,
    /// `--seed`: default router hash seed for new sessions.
    pub seed: u64,
    /// `--cluster` worker addresses (repeatable and/or comma-separated):
    /// when non-empty, plans execute on these `pqd --worker` processes
    /// instead of the in-process simulator.
    pub cluster: Vec<String>,
    /// `--cluster-retries`: extra attempts after a failed cluster run
    /// (each on a freshly rebuilt topology).
    pub cluster_retries: u32,
    /// `--cluster-deadline-ms`: per-query wall-clock budget over all
    /// attempts, backoff pauses included.
    pub cluster_deadline_ms: u64,
    /// `--cluster-fallback`: what to do when the cluster stays unhealthy
    /// past its retry budget (`error` or `simulator`).
    pub cluster_fallback: FallbackPolicy,
    /// `--threads`: executor-pool parallelism (worker threads plus the
    /// helping caller; `1` runs queries fully inline). Defaults to the
    /// `PQ_THREADS` environment variable, then `available_parallelism`.
    pub threads: usize,
}

impl CommonArgs {
    /// Defaults shared by both binaries (`--servers 64 --seed 7`,
    /// simulator backend; 2 cluster retries, 30 s deadline, fallback
    /// `error`).
    pub fn new() -> Self {
        CommonArgs {
            data: Vec::new(),
            servers: 64,
            seed: 7,
            cluster: Vec::new(),
            cluster_retries: RetryPolicy::default().retries,
            cluster_deadline_ms: 30_000,
            cluster_fallback: FallbackPolicy::default(),
            threads: pq_exec::default_threads(),
        }
    }

    /// Try to consume `arg` as one of the shared flags, pulling its value
    /// from `args`. Returns `Ok(true)` when the flag was handled here,
    /// `Ok(false)` when it is the caller's to interpret.
    pub fn consume(
        &mut self,
        arg: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        match arg {
            "--data" => {
                self.data.push(PathBuf::from(value_of("--data", args)?));
                Ok(true)
            }
            "--servers" => {
                self.servers = parse_number("--servers", &value_of("--servers", args)?)?;
                if self.servers < 2 {
                    return Err(format!(
                        "--servers: the planner needs p ≥ 2, got {}",
                        self.servers
                    ));
                }
                Ok(true)
            }
            "--seed" => {
                self.seed = parse_number("--seed", &value_of("--seed", args)?)?;
                Ok(true)
            }
            "--cluster" => {
                let value = value_of("--cluster", args)?;
                for address in value.split(',').map(str::trim).filter(|a| !a.is_empty()) {
                    self.cluster.push(address.to_string());
                }
                if self.cluster.is_empty() {
                    return Err("--cluster needs at least one host:port address".into());
                }
                Ok(true)
            }
            "--cluster-retries" => {
                self.cluster_retries =
                    parse_number("--cluster-retries", &value_of("--cluster-retries", args)?)?;
                Ok(true)
            }
            "--cluster-deadline-ms" => {
                self.cluster_deadline_ms = parse_number(
                    "--cluster-deadline-ms",
                    &value_of("--cluster-deadline-ms", args)?,
                )?;
                if self.cluster_deadline_ms == 0 {
                    return Err("--cluster-deadline-ms must be positive".into());
                }
                Ok(true)
            }
            "--cluster-fallback" => {
                let value = value_of("--cluster-fallback", args)?;
                self.cluster_fallback = FallbackPolicy::parse(&value).ok_or_else(|| {
                    format!("--cluster-fallback: `{value}` is not `error` or `simulator`")
                })?;
                Ok(true)
            }
            "--threads" => {
                self.threads = parse_number("--threads", &value_of("--threads", args)?)?;
                if self.threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// The cluster configuration the flags describe (addresses, retry
    /// budget, deadline).
    pub fn cluster_config(&self) -> ClusterConfig {
        ClusterConfig::new(self.cluster.clone())
            .with_retry(RetryPolicy::with_retries(self.cluster_retries))
            .with_deadline(Duration::from_millis(self.cluster_deadline_ms))
    }

    /// The execution backend the `--cluster` flags selected (the
    /// simulator when `--cluster` was absent).
    pub fn backend(&self) -> ExecBackend {
        if self.cluster.is_empty() {
            ExecBackend::Simulator
        } else {
            ExecBackend::cluster_with_fallback(self.cluster_config(), self.cluster_fallback)
        }
    }

    /// Final validation once every argument is parsed.
    pub fn finish(self) -> Result<Self, String> {
        if self.data.is_empty() {
            return Err(
                "no data given; pass --data FILE_OR_DIR at least once (see --help)".into(),
            );
        }
        Ok(self)
    }
}

/// The value following a flag, or a readable error.
pub fn value_of(flag: &str, args: &mut impl Iterator<Item = String>) -> Result<String, String> {
    args.next()
        .ok_or_else(|| format!("{flag} needs a value (see --help)"))
}

/// Parse a flag value into any integer type, rejecting (rather than
/// truncating) out-of-range input — `--port 70000` must be an error, not
/// a silent bind to port 4464.
pub fn parse_number<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: `{value}` is not a valid number for this flag"))
}

/// Split a `v1,...,vk` value list on unescaped commas, resolving the wire
/// escapes `\\` → `\` and `\,` → `,` — the inverse of the escaping `pqd`
/// applies to ROW output, shared by the `INSERT`/`insert` commands of both
/// front-ends. Empty input is zero values (a nullary row); empty tokens
/// between commas are legal (the empty string is a value like any other).
pub fn split_values(input: &str) -> Vec<String> {
    if input.is_empty() {
        return Vec::new();
    }
    let mut values = vec![String::new()];
    let mut chars = input.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => values
                .last_mut()
                .expect("never empty")
                .push(chars.next().unwrap_or('\\')),
            ',' => values.push(String::new()),
            other => values.last_mut().expect("never empty").push(other),
        }
    }
    values
}

/// Split a `row1;row2;…` batch on unescaped semicolons, leaving every
/// escape sequence intact for [`split_values`] to resolve per row (so `\;`
/// inside a value survives the row split and becomes a literal `;` after
/// the value split). Empty input is one empty row — the single-row path
/// for nullary relations.
pub fn split_rows(input: &str) -> Vec<String> {
    let mut rows = vec![String::new()];
    let mut chars = input.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => {
                let row = rows.last_mut().expect("never empty");
                row.push('\\');
                if let Some(escaped) = chars.next() {
                    row.push(escaped);
                }
            }
            ';' => rows.push(String::new()),
            other => rows.last_mut().expect("never empty").push(other),
        }
    }
    rows
}

/// One `insert <relation> <row1>;<row2>;…` request (each row
/// `v1,...,vk`), shared by `pqd`'s `INSERT` and `pqsh`'s `insert`:
/// validate **every** row against the current snapshot before encoding
/// anything (so typos don't grow the dictionary and a half-bad batch
/// inserts nothing), then apply the whole batch as **one** [`Delta`] — one
/// WAL record, one statistics fold, one plan-cache invalidation, however
/// many rows. `usage` is the front-end's syntax hint for an empty relation
/// name; `encode` maps one row's split tokens to domain values under
/// whatever locking the front-end uses around its dictionary.
pub fn insert_rows(
    session: &Session,
    rest: &str,
    usage: &str,
    mut encode: impl FnMut(&[String]) -> Vec<Value>,
) -> Result<String, String> {
    let (relation, values_text) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
    if relation.is_empty() {
        return Err(usage.to_string());
    }
    let row_tokens: Vec<Vec<String>> = split_rows(values_text.trim())
        .iter()
        .map(|row| split_values(row.trim()))
        .collect();
    let snapshot = session.engine().snapshot();
    let arity = match snapshot.database().relation(relation) {
        None => {
            return Err(format!(
                "relation `{relation}` is not loaded (available: {})",
                snapshot.database().relation_names().join(", ")
            ))
        }
        Some(stored) => stored.arity(),
    };
    for (i, tokens) in row_tokens.iter().enumerate() {
        if tokens.len() != arity {
            return Err(if row_tokens.len() == 1 {
                format!(
                    "relation `{relation}` has {arity} column(s) but {} value(s) were given",
                    tokens.len()
                )
            } else {
                format!(
                    "relation `{relation}` has {arity} column(s) but row {} has {} value(s); \
                     no row inserted",
                    i + 1,
                    tokens.len()
                )
            });
        }
    }
    let rows: Vec<Vec<Value>> = row_tokens.iter().map(|tokens| encode(tokens)).collect();
    let inserted = rows.len();
    match session.engine().apply(Delta::insert(relation, rows)) {
        Ok(next) => Ok(format!(
            "inserted {inserted} row{} into {relation} ({} rows)",
            if inserted == 1 { "" } else { "s" },
            next.database().expect_relation(relation).len()
        )),
        Err(e) => Err(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::{split_rows, split_values};

    #[test]
    fn splits_on_unescaped_commas_only() {
        assert_eq!(split_values("a,b,c"), vec!["a", "b", "c"]);
        assert_eq!(split_values(r"a\,b,c"), vec!["a,b", "c"]);
        assert_eq!(split_values(r"a\\,b"), vec![r"a\", "b"]);
        assert_eq!(split_values("a,,b"), vec!["a", "", "b"]);
        assert_eq!(split_values(""), Vec::<String>::new());
        // A trailing lone backslash survives as a literal.
        assert_eq!(split_values(r"a\"), vec![r"a\"]);
    }

    #[test]
    fn row_lines_round_trip_through_the_insert_parser() {
        // What `pqd` writes after `ROW ` is what `INSERT` takes back.
        let tokens = ["plain", "a,b", r"c\d", r"\,", "", r",\", "é,ü"];
        let mut dictionary = pq_relation::ValueDictionary::new();
        let row: Vec<pq_relation::Value> = tokens.iter().map(|t| dictionary.encode(t)).collect();
        let mut line = Vec::new();
        pq_engine::reply::write_rows(
            &mut line,
            &mut std::iter::once(row.as_slice()),
            &dictionary,
            usize::MAX,
        );
        let text = String::from_utf8(line).unwrap();
        let values = text.strip_prefix("ROW ").and_then(|t| t.strip_suffix('\n')).unwrap();
        assert_eq!(split_values(values), tokens);
    }

    #[test]
    fn splits_rows_on_unescaped_semicolons_keeping_escapes() {
        assert_eq!(split_rows("a,b;c,d"), vec!["a,b", "c,d"]);
        assert_eq!(split_rows("a,b"), vec!["a,b"]);
        assert_eq!(split_rows(""), vec![""]);
        // `\;` stays escaped for split_values to resolve into a literal `;`.
        assert_eq!(split_rows(r"a\;b;c"), vec![r"a\;b", "c"]);
        assert_eq!(split_values(r"a\;b"), vec!["a;b"]);
        // `\\` consumes its pair, so the following `;` still splits.
        assert_eq!(split_rows(r"a\\;b"), vec![r"a\\", "b"]);
        assert_eq!(split_rows("a;;b"), vec!["a", "", "b"]);
    }
}
