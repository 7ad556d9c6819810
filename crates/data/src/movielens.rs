//! Loader for MovieLens-format interaction files.
//!
//! The paper evaluates on MovieLens-100K/1M and Amazon Digital Music. This
//! repository substitutes synthetic data (the [crate docs](crate) say
//! why), but the loader below makes the library directly usable with the
//! *real* files when they are available:
//!
//! - **ML-100K `u.data`**: tab-separated `user_id  item_id  rating  timestamp`
//! - **ML-1M `ratings.dat`**: `user_id::item_id::rating::timestamp`
//! - generic CSV with the same four columns
//!
//! Ids are remapped to dense `0..n` ranges (MovieLens ids are 1-based and
//! sparse); ratings at or above [`LoadOptions::min_rating`] count as implicit
//! positive feedback (the standard implicit-ization used by NCF \[16\] and the
//! FRS attack literature).

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;

use crate::dataset::Dataset;

/// Parsing options.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Column separator: `'\t'` for u.data, `':'`+`':'` handled via
    /// [`Self::double_colon`], `','` for CSVs.
    pub separator: char,
    /// ML-1M uses `::` as separator; set this instead of `separator`.
    pub double_colon: bool,
    /// Minimum rating that counts as an interaction (inclusive). MovieLens
    /// ratings are 1–5; the usual implicit threshold is 1.0 (every rating
    /// counts, as in the NCF evaluation protocol).
    pub min_rating: f32,
    /// Drop users with fewer than this many interactions after thresholding
    /// (leave-one-out needs ≥ 2).
    pub min_interactions_per_user: usize,
}

impl Default for LoadOptions {
    fn default() -> Self {
        Self {
            separator: '\t',
            double_colon: false,
            min_rating: 1.0,
            min_interactions_per_user: 2,
        }
    }
}

impl LoadOptions {
    /// Options for ML-100K `u.data`.
    pub fn ml100k() -> Self {
        Self::default()
    }

    /// Options for ML-1M `ratings.dat`.
    pub fn ml1m() -> Self {
        Self {
            double_colon: true,
            ..Self::default()
        }
    }
}

/// Errors from the loader.
#[derive(Debug)]
pub enum LoadError {
    Io(std::io::Error),
    /// Line number (1-based) and description.
    Parse(usize, String),
    /// No interactions survived filtering.
    Empty,
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "io error: {e}"),
            LoadError::Parse(line, msg) => write!(f, "line {line}: {msg}"),
            LoadError::Empty => write!(f, "no interactions after filtering"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

/// Dense-id remapping produced by the loader, so callers can translate
/// model outputs back to original MovieLens ids.
#[derive(Debug, Clone, Default)]
pub struct IdMaps {
    /// `original user id → dense index`.
    /// Ordered so consumers that iterate (reports, ID dumps) see a
    /// deterministic sequence — user numbering once followed `HashMap`
    /// iteration order here and broke seeded replay (see PR 4).
    pub user_to_dense: BTreeMap<u64, usize>,
    /// `dense item index → original item id`.
    pub item_from_dense: Vec<u64>,
}

/// Loads a MovieLens-format file from disk.
pub fn load_path(path: &Path, options: &LoadOptions) -> Result<(Dataset, IdMaps), LoadError> {
    let file = File::open(path)?;
    load_reader(BufReader::new(file), options)
}

/// Loads from any reader (exercised in tests with in-memory fixtures).
pub fn load_reader<R: Read>(
    reader: R,
    options: &LoadOptions,
) -> Result<(Dataset, IdMaps), LoadError> {
    let mut user_to_dense: BTreeMap<u64, usize> = BTreeMap::new();
    let mut item_to_dense: BTreeMap<u64, usize> = BTreeMap::new();
    let mut item_from_dense: Vec<u64> = Vec::new();
    let mut per_user: Vec<Vec<u32>> = Vec::new();

    let buf = BufReader::new(reader);
    for (idx, line) in buf.lines().enumerate() {
        let line_no = idx + 1;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = if options.double_colon {
            trimmed.split("::").collect()
        } else {
            trimmed.split(options.separator).collect()
        };
        if fields.len() < 3 {
            return Err(LoadError::Parse(
                line_no,
                format!("expected ≥3 fields, got {}", fields.len()),
            ));
        }
        let user: u64 = fields[0]
            .trim()
            .parse()
            .map_err(|_| LoadError::Parse(line_no, format!("bad user id {:?}", fields[0])))?;
        let item: u64 = fields[1]
            .trim()
            .parse()
            .map_err(|_| LoadError::Parse(line_no, format!("bad item id {:?}", fields[1])))?;
        let rating: f32 = fields[2]
            .trim()
            .parse()
            .map_err(|_| LoadError::Parse(line_no, format!("bad rating {:?}", fields[2])))?;
        if rating < options.min_rating {
            continue;
        }
        let u = *user_to_dense.entry(user).or_insert_with(|| {
            per_user.push(Vec::new());
            per_user.len() - 1
        });
        let next_item = item_to_dense.len();
        let j = *item_to_dense.entry(item).or_insert_with(|| {
            item_from_dense.push(item);
            next_item
        });
        let j = u32::try_from(j).map_err(|_| {
            LoadError::Parse(line_no, "item catalog exceeds the u32 id space".to_string())
        })?;
        per_user[u].push(j);
    }

    // Drop users below the interaction floor. Survivors keep their dense
    // ids in *file appearance order* — iterating the id map here would make
    // the user numbering depend on HashMap iteration order, and with it
    // every downstream seeded computation (splits, targets, training).
    let keep: Vec<bool> = per_user
        .iter()
        .map(|items| {
            let mut distinct = items.clone();
            distinct.sort_unstable();
            distinct.dedup();
            distinct.len() >= options.min_interactions_per_user
        })
        .collect();
    let mut new_index: Vec<Option<usize>> = vec![None; per_user.len()];
    let mut final_lists = Vec::new();
    for (dense, items) in per_user.iter().enumerate() {
        if keep[dense] {
            new_index[dense] = Some(final_lists.len());
            final_lists.push(items.clone());
        }
    }
    let final_user_map: BTreeMap<u64, usize> = user_to_dense
        .iter()
        .filter_map(|(orig, &dense)| new_index[dense].map(|n| (*orig, n)))
        .collect();
    if final_lists.iter().all(|l| l.is_empty()) {
        return Err(LoadError::Empty);
    }

    let dataset = Dataset::from_user_items(item_from_dense.len(), final_lists);
    Ok((
        dataset,
        IdMaps {
            user_to_dense: final_user_map,
            item_from_dense,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const U_DATA: &str = "\
196\t242\t3\t881250949
186\t302\t3\t891717742
196\t377\t1\t878887116
22\t377\t1\t878887116
244\t51\t2\t880606923
";

    #[test]
    fn parses_ml100k_format() {
        let (data, maps) = load_reader(Cursor::new(U_DATA), &LoadOptions::ml100k()).unwrap();
        // Users 196 (2 ints), 186 (1), 22 (1), 244 (1); floor=2 keeps only 196.
        assert_eq!(data.n_users(), 1);
        assert_eq!(data.n_items(), 4);
        assert_eq!(data.n_interactions(), 2);
        assert!(maps.user_to_dense.contains_key(&196));
    }

    #[test]
    fn rating_threshold_filters() {
        let opts = LoadOptions {
            min_rating: 3.0,
            min_interactions_per_user: 1,
            ..LoadOptions::ml100k()
        };
        let (data, _) = load_reader(Cursor::new(U_DATA), &opts).unwrap();
        // Only the two rating-3 lines survive.
        assert_eq!(data.n_interactions(), 2);
    }

    #[test]
    fn parses_ml1m_double_colon() {
        let input = "1::1193::5::978300760\n1::661::3::978302109\n2::1193::4::978298413\n";
        let opts = LoadOptions {
            min_interactions_per_user: 1,
            ..LoadOptions::ml1m()
        };
        let (data, maps) = load_reader(Cursor::new(input), &opts).unwrap();
        assert_eq!(data.n_users(), 2);
        assert_eq!(data.n_items(), 2);
        assert_eq!(maps.item_from_dense.len(), 2);
        // Item 1193 was seen by both users.
        let dense_1193 = maps
            .item_from_dense
            .iter()
            .position(|&i| i == 1193)
            .unwrap();
        assert_eq!(data.item_popularity()[dense_1193], 2);
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let input = "# header\n\n1\t2\t5\t0\n1\t3\t5\t0\n";
        let opts = LoadOptions {
            min_interactions_per_user: 1,
            ..LoadOptions::ml100k()
        };
        let (data, _) = load_reader(Cursor::new(input), &opts).unwrap();
        assert_eq!(data.n_interactions(), 2);
    }

    #[test]
    fn reports_parse_errors_with_line_numbers() {
        let input = "1\t2\t5\t0\nnot-a-user\t2\t5\t0\n";
        let err = load_reader(Cursor::new(input), &LoadOptions::ml100k()).unwrap_err();
        match err {
            LoadError::Parse(line, msg) => {
                assert_eq!(line, 2);
                assert!(msg.contains("bad user id"), "{msg}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn short_lines_rejected() {
        let err = load_reader(Cursor::new("1\t2\n"), &LoadOptions::ml100k()).unwrap_err();
        assert!(matches!(err, LoadError::Parse(1, _)));
    }

    #[test]
    fn empty_input_is_an_error() {
        let err = load_reader(Cursor::new(""), &LoadOptions::ml100k()).unwrap_err();
        assert!(matches!(err, LoadError::Empty));
    }

    #[test]
    fn duplicate_interactions_are_merged() {
        let input = "1\t2\t5\t0\n1\t2\t4\t1\n1\t3\t5\t0\n";
        let opts = LoadOptions {
            min_interactions_per_user: 1,
            ..LoadOptions::ml100k()
        };
        let (data, _) = load_reader(Cursor::new(input), &opts).unwrap();
        assert_eq!(data.n_interactions(), 2, "dup (1,2) merged by Dataset");
    }

    #[test]
    fn load_path_roundtrip() {
        let dir = std::env::temp_dir();
        let path = dir.join("pieck_frs_test_u.data");
        std::fs::write(&path, U_DATA).unwrap();
        let (data, _) = load_path(&path, &LoadOptions::ml100k()).unwrap();
        assert_eq!(data.n_users(), 1);
        std::fs::remove_file(&path).ok();
    }
}
