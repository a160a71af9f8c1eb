//! Property tests: the chunked/streaming data path is bit-identical to the
//! materialized path — same `DataFrame`, same `DatasetProfile`, same split
//! partitions — for any chunk size, including pathological CSV inputs
//! (CRLF line endings, quoted fields with embedded commas and quotes,
//! missing-value tokens).

#![allow(
    clippy::unwrap_used,
    reason = "integration tests fail by panicking; the library panic-hygiene lints do not apply"
)]

use std::io::Cursor;

use fairprep_data::chunked::{read_csv_chunked, train_val_test_split_chunked, ChunkedFrame, Tee};
use fairprep_data::csv::{read_csv, DEFAULT_MISSING_TOKENS};
use fairprep_data::prelude::*;
use fairprep_data::profile::{DatasetProfile, ProfileSketch};
use fairprep_data::split::SplitSpec;
use proptest::prelude::*;

/// Chunk sizes exercised for every generated input: degenerate (one row
/// per chunk), prime (chunks never align with anything), and larger than
/// any generated input (single chunk).
const CHUNK_SIZES: [usize; 3] = [1, 7, 4096];

/// Category strings chosen to stress RFC-4180 quoting: embedded commas,
/// embedded quotes, and both at once.
const CATEGORIES: [&str; 5] = ["plain", "cook, senior", "say \"hi\"", "a,b\"c\"", "zed"];

const KINDS: [(&str, ColumnKind); 4] = [
    ("num", ColumnKind::Numeric),
    ("cat", ColumnKind::Categorical),
    ("group", ColumnKind::Categorical),
    ("label", ColumnKind::Categorical),
];

/// Quotes a CSV field the way RFC 4180 requires when it contains commas
/// or quotes.
fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Renders one deterministic CSV document from per-row entropy words.
/// Two fixed rows pin both protected groups so the materialized dataset
/// constructor never rejects the input.
fn render_csv(rows: &[u64], crlf: bool) -> String {
    let eol = if crlf { "\r\n" } else { "\n" };
    let mut text = format!("num,cat,group,label{eol}");
    text.push_str(&format!("1.5,plain,a,yes{eol}"));
    text.push_str(&format!("2.5,zed,b,no{eol}"));
    for &r in rows {
        let num = if r % 7 == 0 {
            if r % 2 == 0 { "?" } else { "NA" }.to_string()
        } else {
            // Eighths are exact in binary, so the round-trip is lossless.
            format!("{}", (r % 1000) as f64 / 8.0)
        };
        let cat = if r % 5 == 0 {
            String::new()
        } else {
            escape(CATEGORIES[(r / 7) as usize % CATEGORIES.len()])
        };
        let group = if r & 1 == 0 { "a" } else { "b" };
        let label = if (r >> 1) & 1 == 0 { "yes" } else { "no" };
        text.push_str(&format!("{num},{cat},{group},{label}{eol}"));
    }
    text
}

fn schema() -> Schema {
    Schema::new()
        .numeric_feature("num")
        .categorical_feature("cat")
        .metadata("group", ColumnKind::Categorical)
        .label("label")
}

fn protected() -> ProtectedAttribute {
    ProtectedAttribute::categorical("group", &["a"])
}

fn ingest(text: &str, chunk_rows: usize) -> (ChunkedFrame, ProfileSketch) {
    let mut frame = ChunkedFrame::new();
    let mut sketch = ProfileSketch::new(&schema(), &protected(), "yes").unwrap();
    read_csv_chunked(
        Cursor::new(text),
        &KINDS,
        DEFAULT_MISSING_TOKENS,
        chunk_rows,
        &mut Tee(&mut sketch, &mut frame),
    )
    .unwrap();
    (frame, sketch)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Chunked ingest assembles to the exact frame `read_csv` produces,
    /// and the streamed profile sketch finishes to the exact profile of
    /// the materialized dataset — for every chunk size and line ending.
    #[test]
    fn chunked_ingest_matches_materialized_read(
        rows in prop::collection::vec(any::<u64>(), 1..60),
        crlf in any::<bool>(),
    ) {
        let text = render_csv(&rows, crlf);
        let reference = read_csv(Cursor::new(text.as_str()), &KINDS, DEFAULT_MISSING_TOKENS)
            .unwrap();
        let reference_profile = DatasetProfile::compute(
            &BinaryLabelDataset::new(reference.clone(), schema(), protected(), "yes").unwrap(),
        );
        for chunk_rows in CHUNK_SIZES {
            let (frame, sketch) = ingest(&text, chunk_rows);
            prop_assert_eq!(
                frame.to_frame().unwrap(),
                reference.clone(),
                "frame mismatch at chunk_rows={}",
                chunk_rows
            );
            prop_assert_eq!(
                sketch.finish(),
                reference_profile.clone(),
                "profile mismatch at chunk_rows={}",
                chunk_rows
            );
        }
    }

    /// The chunked split produces partitions equal (by `PartialEq`, which
    /// covers frame contents, labels, masks, and weights) to the
    /// materialized split, with the same indices and provenance tags.
    #[test]
    fn chunked_split_matches_materialized_split(
        rows in prop::collection::vec(any::<u64>(), 4..60),
        crlf in any::<bool>(),
        seed in 0_u64..1000,
    ) {
        let text = render_csv(&rows, crlf);
        let reference = read_csv(Cursor::new(text.as_str()), &KINDS, DEFAULT_MISSING_TOKENS)
            .unwrap();
        let dataset =
            BinaryLabelDataset::new(reference, schema(), protected(), "yes").unwrap();
        let spec = SplitSpec::paper_default();
        let materialized = train_val_test_split(&dataset, spec, seed).unwrap();
        for chunk_rows in CHUNK_SIZES {
            let (frame, _) = ingest(&text, chunk_rows);
            let chunked =
                train_val_test_split_chunked(&frame, &schema(), &protected(), "yes", spec, seed)
                    .unwrap();
            prop_assert_eq!(&chunked.indices, &materialized.indices);
            prop_assert_eq!(&chunked.train, &materialized.train);
            prop_assert_eq!(&chunked.validation, &materialized.validation);
            prop_assert_eq!(&chunked.test, &materialized.test);
            prop_assert_eq!(chunked.train.provenance(), Provenance::Train);
            prop_assert_eq!(chunked.validation.provenance(), Provenance::Derived);
            prop_assert_eq!(chunked.test.provenance(), Provenance::Test);
        }
    }

    /// Streaming complete-case filtering keeps the same rows (same global
    /// indices) and assembles to the same frame as the materialized filter,
    /// dictionaries included.
    #[test]
    fn chunked_retain_complete_matches_materialized_filter(
        rows in prop::collection::vec(any::<u64>(), 1..60),
        crlf in any::<bool>(),
    ) {
        let text = render_csv(&rows, crlf);
        let reference = read_csv(Cursor::new(text.as_str()), &KINDS, DEFAULT_MISSING_TOKENS)
            .unwrap();
        let (ref_filtered, ref_kept) = reference.filter(|i| !reference.row_has_missing(i));
        for chunk_rows in CHUNK_SIZES {
            let (frame, _) = ingest(&text, chunk_rows);
            let (filtered, kept) = frame.retain_complete();
            prop_assert_eq!(&kept, &ref_kept, "kept rows differ at chunk_rows={}", chunk_rows);
            prop_assert_eq!(
                filtered.to_frame().unwrap(),
                ref_filtered.clone(),
                "filtered frame mismatch at chunk_rows={}",
                chunk_rows
            );
        }
    }
}
