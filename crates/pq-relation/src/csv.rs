//! Loading relations from CSV/TSV files.
//!
//! The query engine's CLI (`pqsh`) feeds on plain delimited text files: the
//! first row names the columns, every following row is one tuple. Values are
//! arbitrary tokens — they are mapped to the `u64` domain the algorithms
//! work over through a [`ValueDictionary`] shared by every relation of a
//! database, so equal tokens in different files join correctly and query
//! answers can be decoded back to the original text.
//!
//! The delimiter is sniffed from the header line (a tab makes the file TSV,
//! otherwise it is comma-separated), so `.csv` and `.tsv` files can be mixed
//! freely in one load.

use crate::database::Database;
use crate::dictionary::ValueDictionary;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Value;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Errors raised while loading delimited files.
#[derive(Debug)]
pub enum CsvError {
    /// The file could not be read.
    Io {
        /// Path of the offending file.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The file content is malformed (bad header, ragged row, …).
    Malformed {
        /// Path of the offending file.
        path: PathBuf,
        /// 1-based line number of the problem.
        line: usize,
        /// Human-readable description.
        message: String,
    },
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io { path, source } => {
                write!(f, "cannot read `{}`: {source}", path.display())
            }
            CsvError::Malformed {
                path,
                line,
                message,
            } => write!(f, "{}:{line}: {message}", path.display()),
        }
    }
}

impl std::error::Error for CsvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CsvError::Io { source, .. } => Some(source),
            CsvError::Malformed { .. } => None,
        }
    }
}

/// Parse delimited text into a relation named `name`, encoding every value
/// through `dictionary`. The first non-empty line is the header naming the
/// columns; the delimiter is a tab when the header contains one, a comma
/// otherwise. `path` is used in error messages only.
pub fn parse_relation_text(
    name: &str,
    text: &str,
    path: &Path,
    dictionary: &mut ValueDictionary,
) -> Result<Relation, CsvError> {
    let malformed = |line: usize, message: String| CsvError::Malformed {
        path: path.to_path_buf(),
        line,
        message,
    };
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim_end_matches('\r')))
        .filter(|(_, l)| !l.trim().is_empty());
    let (header_line, header) = lines
        .next()
        .ok_or_else(|| malformed(1, "empty file: expected a header row".to_string()))?;
    let delimiter = delimiter_of(header);
    let columns: Vec<String> = header
        .split(delimiter)
        .map(|c| c.trim().to_string())
        .collect();
    for (i, c) in columns.iter().enumerate() {
        if c.is_empty() {
            return Err(malformed(
                header_line,
                format!("empty name for column {}", i + 1),
            ));
        }
        if columns[..i].contains(c) {
            return Err(malformed(
                header_line,
                format!("duplicate column name `{c}`"),
            ));
        }
    }
    let schema = Schema::new(name, columns);
    let arity = schema.arity();
    let mut values: Vec<Value> = Vec::new();
    let mut rows = 0usize;
    for (line_no, line) in lines {
        let mut fields = 0usize;
        for field in line.split(delimiter) {
            fields += 1;
            if fields <= arity {
                values.push(dictionary.encode(field.trim()));
            }
        }
        if fields != arity {
            return Err(malformed(
                line_no,
                format!("expected {arity} fields, found {fields}"),
            ));
        }
        rows += 1;
    }
    let mut relation = Relation::from_values(schema, rows, values);
    relation.dedup();
    Ok(relation)
}

/// The delimiter a header line announces: a tab when it holds one, a comma
/// otherwise.
fn delimiter_of(header: &str) -> char {
    if header.contains('\t') {
        '\t'
    } else {
        ','
    }
}

/// An upper bound on the fields of delimited `text`: every line, the header
/// included, counted as wide as the header.
fn field_bound(text: &str) -> usize {
    let Some(header) = text.lines().find(|l| !l.trim().is_empty()) else {
        return 0;
    };
    let arity = header.matches(delimiter_of(header)).count() + 1;
    let lines = text.bytes().filter(|&b| b == b'\n').count() + 1;
    lines.saturating_mul(arity)
}

/// Read one CSV/TSV file: the relation name its stem gives, and its text.
fn read_relation_file(path: &Path) -> Result<(String, String), CsvError> {
    let text = std::fs::read_to_string(path).map_err(|source| CsvError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .filter(|s| !s.is_empty())
        .ok_or_else(|| CsvError::Malformed {
            path: path.to_path_buf(),
            line: 0,
            message: "cannot derive a relation name from the file name".to_string(),
        })?
        .to_string();
    Ok((name, text))
}

/// Load one CSV/TSV file as a relation named after the file stem, encoding
/// values through `dictionary`.
pub fn load_relation_csv(
    path: &Path,
    dictionary: &mut ValueDictionary,
) -> Result<Relation, CsvError> {
    let (name, text) = read_relation_file(path)?;
    parse_relation_text(&name, &text, path, dictionary)
}

/// Load a set of CSV/TSV files into one database over a shared dictionary.
/// Directory entries are expanded to their `.csv`/`.tsv` children (sorted by
/// name, so loads are deterministic); plain files are taken as given.
///
/// Every file is read before the first field is encoded, so the dictionary
/// is sized once, as if every field were a new token: the load never grows
/// its table, and ids still follow first sight in file order.
pub fn load_database_files(
    paths: &[PathBuf],
) -> Result<(Database, ValueDictionary), CsvError> {
    let mut files: Vec<PathBuf> = Vec::new();
    for path in paths {
        if path.is_dir() {
            let mut children: Vec<PathBuf> = std::fs::read_dir(path)
                .map_err(|source| CsvError::Io {
                    path: path.clone(),
                    source,
                })?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| {
                    matches!(
                        p.extension().and_then(|e| e.to_str()),
                        Some("csv") | Some("tsv")
                    )
                })
                .collect();
            children.sort();
            files.extend(children);
        } else {
            files.push(path.clone());
        }
    }
    let mut texts = Vec::with_capacity(files.len());
    let mut sources: HashMap<String, &PathBuf> = HashMap::new();
    for file in &files {
        let (name, text) = read_relation_file(file)?;
        if let Some(first) = sources.get(&name) {
            // Database::insert replaces by name; loading two files with the
            // same stem would silently drop one, so reject it instead.
            return Err(CsvError::Malformed {
                path: file.clone(),
                line: 0,
                message: format!(
                    "relation `{name}` was already loaded from `{}`; rename one file",
                    first.display()
                ),
            });
        }
        sources.insert(name.clone(), file);
        texts.push((name, text));
    }
    let mut dictionary = ValueDictionary::new();
    dictionary.reserve(
        texts.iter().map(|(_, text)| field_bound(text)).sum(),
        texts.iter().map(|(_, text)| text.len()).sum(),
    );
    let mut relations = Vec::with_capacity(files.len());
    for ((name, text), file) in texts.into_iter().zip(&files) {
        relations.push(parse_relation_text(&name, &text, file, &mut dictionary)?);
    }
    let mut db = Database::new((dictionary.len() as u64).max(2));
    for r in relations {
        db.insert(r);
    }
    Ok((db, dictionary))
}

/// Load every `.csv`/`.tsv` file of a directory into one database over a
/// shared dictionary (convenience wrapper around [`load_database_files`]).
pub fn load_database_dir(dir: &Path) -> Result<(Database, ValueDictionary), CsvError> {
    load_database_files(std::slice::from_ref(&dir.to_path_buf()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(name: &str, text: &str, dict: &mut ValueDictionary) -> Relation {
        parse_relation_text(name, text, Path::new("test.csv"), dict).expect("parses")
    }

    #[test]
    fn parses_comma_separated_values_with_header() {
        let mut dict = ValueDictionary::new();
        let r = parse("R", "x,y\na,b\nc,b\n", &mut dict);
        assert_eq!(r.name(), "R");
        assert_eq!(r.schema().attributes(), &["x".to_string(), "y".to_string()]);
        assert_eq!(r.len(), 2);
        assert_eq!(dict.tokens().collect::<Vec<_>>(), ["a", "b", "c"]);
    }

    #[test]
    fn sniffs_tabs_and_trims_crlf() {
        let mut dict = ValueDictionary::new();
        let r = parse("S", "x\ty\r\n1\t2\r\n", &mut dict);
        assert_eq!(r.arity(), 2);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn shared_dictionary_joins_tokens_across_relations() {
        let mut dict = ValueDictionary::new();
        let r = parse("R", "x,y\nann,bob\n", &mut dict);
        let s = parse("S", "y,z\nbob,carl\n", &mut dict);
        let j = crate::join::natural_join(&r, &s);
        assert_eq!(j.len(), 1);
        let decoded: Vec<String> = j
            .row(0)
            .iter()
            .map(|&v| dict.decode_or_number(v))
            .collect();
        assert_eq!(decoded, vec!["ann", "bob", "carl"]);
    }

    #[test]
    fn duplicate_rows_are_deduplicated() {
        let mut dict = ValueDictionary::new();
        let r = parse("R", "x\n7\n7\n8\n", &mut dict);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn ragged_row_is_reported_with_line_number() {
        let mut dict = ValueDictionary::new();
        let err = parse_relation_text("R", "x,y\n1,2\n3\n", Path::new("r.csv"), &mut dict)
            .expect_err("ragged");
        let msg = err.to_string();
        assert!(msg.contains("r.csv:3"), "{msg}");
        assert!(msg.contains("expected 2 fields"), "{msg}");
    }

    #[test]
    fn duplicate_and_empty_column_names_are_rejected() {
        let mut dict = ValueDictionary::new();
        let err = parse_relation_text("R", "x,x\n1,2\n", Path::new("r.csv"), &mut dict)
            .expect_err("duplicate");
        assert!(err.to_string().contains("duplicate column name"), "{err}");
        let err = parse_relation_text("R", "x,,z\n1,2,3\n", Path::new("r.csv"), &mut dict)
            .expect_err("empty");
        assert!(err.to_string().contains("empty name"), "{err}");
    }

    #[test]
    fn empty_file_is_rejected() {
        let mut dict = ValueDictionary::new();
        let err = parse_relation_text("R", "  \n", Path::new("r.csv"), &mut dict)
            .expect_err("empty file");
        assert!(err.to_string().contains("header"), "{err}");
    }

    #[test]
    fn loads_a_directory_into_one_database() {
        let dir = std::env::temp_dir().join(format!("pq_csv_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("R.csv"), "x,y\n1,2\n").unwrap();
        std::fs::write(dir.join("S.tsv"), "y\tz\n2\t3\n").unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let (db, dict) = load_database_dir(&dir).expect("loads");
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(db.num_relations(), 2);
        assert_eq!(db.relation_names(), vec!["R".to_string(), "S".to_string()]);
        // `2` is shared between R.y and S.y through the dictionary.
        let r = db.expect_relation("R");
        let s = db.expect_relation("S");
        assert_eq!(r.row(0)[1], s.row(0)[0]);
        assert_eq!(dict.len(), 3);
        assert!(db.domain_size() >= dict.len() as u64);
    }

    #[test]
    fn the_presized_bulk_load_equals_file_by_file_encoding() {
        let dir = std::env::temp_dir().join(format!("pq_csv_bulk_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rows = |seed: u64| -> String {
            let mut text = String::from("x,y\n");
            for i in 0..500u64 {
                text.push_str(&format!("v{:07x},v{:07x}\n", i * seed % 701, i % 97));
            }
            text
        };
        for (name, seed) in [("A.csv", 3), ("B.csv", 7), ("C.csv", 11)] {
            std::fs::write(dir.join(name), rows(seed)).unwrap();
        }
        let (db, bulk) = load_database_dir(&dir).expect("loads");
        let mut incremental = ValueDictionary::new();
        for name in ["A.csv", "B.csv", "C.csv"] {
            let relation = load_relation_csv(&dir.join(name), &mut incremental).unwrap();
            assert_eq!(db.expect_relation(relation.name()).values(), relation.values());
        }
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(bulk, incremental);
        assert_eq!(field_bound(&rows(3)), 502 * 2);
        assert_eq!(field_bound("  \n"), 0);
    }

    #[test]
    fn duplicate_relation_names_across_files_are_rejected() {
        let dir = std::env::temp_dir().join(format!("pq_csv_dup_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("R.csv"), "x,y\n1,2\n").unwrap();
        std::fs::write(dir.join("R.tsv"), "x\ty\n3\t4\n").unwrap();
        let err = load_database_dir(&dir).expect_err("duplicate stem");
        std::fs::remove_dir_all(&dir).ok();
        assert!(err.to_string().contains("already loaded"), "{err}");
    }

    #[test]
    fn decode_or_number_falls_back_to_digits() {
        let dict = ValueDictionary::new();
        assert_eq!(dict.decode_or_number(42), "42");
        assert!(dict.is_empty());
    }
}
