//! Out-of-core chunked data path: fixed-size column chunks behind the
//! [`DataFrame`] API, streaming CSV ingest, and chunk-at-a-time variants
//! of the raw → `train_split` lifecycle boundary.
//!
//! The FairPrep lifecycle materializes partitions for learning — a model
//! must see its training matrix — but nothing *before* the partition
//! boundary needs the whole file in memory. This module makes everything
//! up to that boundary streamable:
//!
//! * [`read_csv_chunked`] drives the same typed record reader as
//!   [`read_csv`](crate::csv::read_csv) (same record splitter, header
//!   resolution, missing-token matching, and cell typing) and hands
//!   fixed-size [`DataFrame`] chunks to a [`ChunkSink`]. Peak memory is
//!   bounded by the chunk size and whatever the sink retains — a counting
//!   sink like [`ChunkStats`] or a streaming
//!   [`ProfileSketch`](crate::profile::ProfileSketch) keeps ingest memory
//!   independent of row count.
//! * [`ChunkedFrame`] collects chunks and supports global-index row
//!   gathers ([`ChunkedFrame::take`]), complete-case filtering
//!   ([`ChunkedFrame::retain_complete`]), and assembly into a single
//!   frame ([`ChunkedFrame::to_frame`]).
//! * [`train_val_test_split_chunked`] runs the seeded split directly on a
//!   chunked frame, gathering each partition chunk-at-a-time.
//!
//! ## The bit-identity invariant
//!
//! Every operation here is bit-identical to its materialized counterpart,
//! for any chunk size — goldens and manifests are the referee, so chunking
//! must change *no observable value*. The load-bearing fact is dictionary
//! order: categorical columns intern categories in first-encounter order,
//! and appending the per-chunk dictionaries of a row-ordered partitioning
//! (in chunk order) reproduces the global first-encounter order of a
//! single-pass read. [`Column::append`] interns the *whole* source
//! dictionary — including categories no surviving row references — so the
//! invariant also holds after per-chunk filtering, where a dropped row's
//! category must still appear in the assembled dictionary exactly where
//! the materialized filter would have kept it.

use std::io::BufRead;

use crate::column::{Column, ColumnKind};
use crate::csv::TypedCsvReader;
use crate::dataset::BinaryLabelDataset;
use crate::error::{Error, Result};
use crate::frame::{DataFrame, FrameBuilder};
use crate::provenance::Provenance;
use crate::schema::{ProtectedAttribute, Schema};
use crate::split::{split_row_indices, SplitSpec, TrainValTest};

/// Default number of rows per chunk: large enough to amortize per-chunk
/// overhead, small enough that a resident chunk is a few hundred KB.
pub const DEFAULT_CHUNK_ROWS: usize = 4096;

/// Receives the chunks of a streaming ingest, in row order.
///
/// A sink decides the memory profile of the stream: [`ChunkedFrame`]
/// retains everything, [`ChunkStats`] and
/// [`ProfileSketch`](crate::profile::ProfileSketch) retain only
/// fixed-size (respectively per-column) state.
pub trait ChunkSink {
    /// Consumes the next chunk. Chunks arrive in row order; all chunks
    /// have the same columns.
    fn chunk(&mut self, chunk: DataFrame) -> Result<()>;
}

/// Feeds each chunk to two sinks (cloning for the first). Lets one stream
/// both collect chunks and update a profile sketch in a single pass.
pub struct Tee<'a, A: ChunkSink, B: ChunkSink>(pub &'a mut A, pub &'a mut B);

impl<A: ChunkSink, B: ChunkSink> ChunkSink for Tee<'_, A, B> {
    fn chunk(&mut self, chunk: DataFrame) -> Result<()> {
        self.0.chunk(chunk.clone())?;
        self.1.chunk(chunk)
    }
}

/// A bounded-memory sink: per-column row/missing tallies and nothing else.
/// Its state is `O(columns)` regardless of how many rows stream through —
/// the honest baseline for "ingest memory grows with chunk size, not row
/// count" measurements.
#[derive(Debug, Clone, Default)]
pub struct ChunkStats {
    /// Total rows seen.
    pub rows: u64,
    /// Total chunks seen.
    pub chunks: u64,
    /// Column names, captured from the first chunk.
    pub columns: Vec<String>,
    /// Missing-cell count per column, aligned with `columns`.
    pub missing: Vec<u64>,
}

impl ChunkSink for ChunkStats {
    fn chunk(&mut self, chunk: DataFrame) -> Result<()> {
        if self.columns.is_empty() {
            self.columns = chunk.column_names().to_vec();
            self.missing = vec![0; self.columns.len()];
        }
        for (name, slot) in self.columns.iter().zip(&mut self.missing) {
            *slot += chunk.column(name)?.missing_count() as u64;
        }
        self.rows += chunk.n_rows() as u64;
        self.chunks += 1;
        Ok(())
    }
}

/// Summary of one streaming ingest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestStats {
    /// Data rows delivered (blank lines excluded).
    pub rows: u64,
    /// Chunks delivered to the sink.
    pub chunks: u64,
}

/// Streaming CSV ingest: reads typed records through the same
/// [`TypedCsvReader`] as [`read_csv`](crate::csv::read_csv) and delivers
/// them to `sink` in [`DataFrame`] chunks of at most `chunk_rows` rows.
///
/// The resulting chunk sequence assembles (via [`ChunkedFrame::to_frame`]
/// or [`DataFrame::append`]) into a frame bit-identical to what
/// `read_csv` returns on the same input, for any `chunk_rows >= 1` —
/// including CRLF line endings, quoted fields, and missing tokens, which
/// are all handled by the shared reader before chunking is even visible.
pub fn read_csv_chunked<R: BufRead, S: ChunkSink>(
    reader: R,
    kinds: &[(&str, ColumnKind)],
    missing_tokens: &[&str],
    chunk_rows: usize,
    sink: &mut S,
) -> Result<IngestStats> {
    if chunk_rows == 0 {
        return Err(Error::InvalidParameter {
            name: "chunk_rows",
            message: "chunk size must be at least 1".to_string(),
        });
    }
    let mut records = TypedCsvReader::new(reader, kinds, missing_tokens)?;
    let spec = records.spec();
    let spec_refs: Vec<(&str, ColumnKind)> = spec.iter().map(|(n, k)| (n.as_str(), *k)).collect();
    let mut builder = FrameBuilder::new(&spec_refs);
    let mut in_chunk = 0usize;
    let mut stats = IngestStats { rows: 0, chunks: 0 };
    while let Some(row) = records.next_row() {
        builder.push_row(row?)?;
        in_chunk += 1;
        stats.rows += 1;
        if in_chunk == chunk_rows {
            let full = std::mem::replace(&mut builder, FrameBuilder::new(&spec_refs));
            sink.chunk(full.finish()?)?;
            stats.chunks += 1;
            in_chunk = 0;
        }
    }
    if in_chunk > 0 {
        sink.chunk(builder.finish()?)?;
        stats.chunks += 1;
    }
    Ok(stats)
}

/// A frame stored as a sequence of row chunks with identical columns.
///
/// Chunks are typically uniform at some target size with a smaller final
/// chunk, but any sizes (including empty chunks, which still carry their
/// categorical dictionaries) are accepted — row order across chunks is
/// the only structural invariant.
#[derive(Debug, Clone, Default)]
pub struct ChunkedFrame {
    spec: Vec<(String, ColumnKind)>,
    chunks: Vec<DataFrame>,
    /// Cumulative end row (exclusive) of each chunk.
    offsets: Vec<usize>,
}

impl ChunkedFrame {
    /// Creates an empty chunked frame; the column spec is captured from
    /// the first chunk pushed.
    #[must_use]
    pub fn new() -> Self {
        ChunkedFrame::default()
    }

    /// Total rows across all chunks.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.offsets.last().copied().unwrap_or(0)
    }

    /// Number of chunks.
    #[must_use]
    pub fn n_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// The chunks, in row order.
    #[must_use]
    pub fn chunks(&self) -> &[DataFrame] {
        &self.chunks
    }

    /// The column spec (name, kind) in column order; empty before the
    /// first chunk arrives.
    #[must_use]
    pub fn spec(&self) -> &[(String, ColumnKind)] {
        &self.spec
    }

    /// Appends a chunk. All chunks must share the same column names and
    /// kinds (checked against the first chunk).
    pub fn push_chunk(&mut self, chunk: DataFrame) -> Result<()> {
        let chunk_spec: Vec<(String, ColumnKind)> = chunk
            .column_names()
            .iter()
            .map(|n| {
                #[expect(
                    clippy::expect_used,
                    reason = "iterating the chunk's own column names, so every lookup succeeds"
                )]
                let kind = chunk.column(n).expect("column exists").kind();
                (n.clone(), kind)
            })
            .collect();
        if self.chunks.is_empty() {
            self.spec = chunk_spec;
        } else if self.spec != chunk_spec {
            return Err(Error::InvalidParameter {
                name: "push_chunk",
                message: "chunk columns differ from the first chunk".to_string(),
            });
        }
        self.offsets.push(self.n_rows() + chunk.n_rows());
        self.chunks.push(chunk);
        Ok(())
    }

    /// Locates global `row` as `(chunk index, offset within chunk)`.
    fn locate(&self, row: usize) -> Result<(usize, usize)> {
        if row >= self.n_rows() {
            return Err(Error::InvalidParameter {
                name: "row",
                message: format!("row {row} out of bounds for {} rows", self.n_rows()),
            });
        }
        // First chunk whose exclusive end exceeds `row`; empty chunks have
        // `end == previous end` and are skipped by the strict comparison.
        let c = self.offsets.partition_point(|&end| end <= row);
        let start = if c == 0 { 0 } else { self.offsets[c - 1] };
        Ok((c, row - start))
    }

    /// Assembles all chunks into one frame, bit-identical to a single-pass
    /// build of the same rows (see the module docs for the dictionary
    /// argument). Linear in the total row count.
    pub fn to_frame(&self) -> Result<DataFrame> {
        let spec_refs: Vec<(&str, ColumnKind)> =
            self.spec.iter().map(|(n, k)| (n.as_str(), *k)).collect();
        let mut out = FrameBuilder::new(&spec_refs).finish()?;
        for chunk in &self.chunks {
            out.append(chunk)?;
        }
        Ok(out)
    }

    /// Gathers the rows at global `indices` (duplicates allowed, order
    /// preserved) into one materialized frame — bit-identical to
    /// `self.to_frame()?.take(indices)`, without materializing the
    /// intermediate full frame.
    ///
    /// Categorical output columns carry the full merged dictionary (all
    /// chunks, in chunk order), exactly as a materialized `take` preserves
    /// the global dictionary.
    pub fn take(&self, indices: &[usize]) -> Result<DataFrame> {
        let mut out = DataFrame::new();
        for (name, kind) in &self.spec {
            let per_chunk: Vec<&Column> = self
                .chunks
                .iter()
                .map(|chunk| chunk.column(name))
                .collect::<Result<_>>()?;
            let column = match kind {
                ColumnKind::Numeric => {
                    let mut values = Vec::with_capacity(indices.len());
                    for &i in indices {
                        let (c, off) = self.locate(i)?;
                        values.push(per_chunk[c].as_numeric()?[off]);
                    }
                    Column::Numeric(values)
                }
                ColumnKind::Categorical => {
                    let mut merged = crate::column::CategoricalData::new();
                    // Chunk-local code → merged-dictionary code.
                    let mut remaps = Vec::with_capacity(per_chunk.len());
                    for col in &per_chunk {
                        let cat = col.as_categorical()?;
                        let remap: Vec<u32> =
                            cat.categories().iter().map(|c| merged.intern(c)).collect();
                        remaps.push(remap);
                    }
                    for &i in indices {
                        let (c, off) = self.locate(i)?;
                        let code = per_chunk[c].as_categorical()?.codes()[off];
                        merged.push_code(code.map(|code| remaps[c][code as usize]))?;
                    }
                    Column::Categorical(merged)
                }
            };
            out.add_column(name, column)?;
        }
        Ok(out)
    }

    /// Streaming complete-case filter: drops every row with a missing cell,
    /// chunk at a time, and returns the filtered chunked frame plus the
    /// kept **global** row indices.
    ///
    /// Per-chunk filtering preserves each chunk's dictionary (like
    /// [`Column::take`]), and empty filtered chunks are kept for their
    /// dictionaries, so the assembled result is bit-identical to the
    /// materialized `frame.filter(|i| !frame.row_has_missing(i))`.
    #[must_use]
    pub fn retain_complete(&self) -> (ChunkedFrame, Vec<usize>) {
        let mut out = ChunkedFrame::new();
        let mut kept_global = Vec::new();
        let mut base = 0usize;
        for chunk in &self.chunks {
            let (filtered, kept) = chunk.filter(|i| !chunk.row_has_missing(i));
            kept_global.extend(kept.iter().map(|&i| base + i));
            base += chunk.n_rows();
            #[expect(
                clippy::expect_used,
                reason = "filtered chunks keep the source chunk's schema, which push_chunk already accepted"
            )]
            out.push_chunk(filtered).expect("schema preserved");
        }
        (out, kept_global)
    }
}

impl ChunkSink for ChunkedFrame {
    fn chunk(&mut self, chunk: DataFrame) -> Result<()> {
        self.push_chunk(chunk)
    }
}

/// Seeded train/validation/test split over a chunked frame: computes the
/// same shuffled partition indices as
/// [`train_val_test_split`](crate::split::train_val_test_split) (identical
/// RNG consumption from the `"splitter"` component stream), then gathers
/// each partition chunk-at-a-time with [`ChunkedFrame::take`].
///
/// The partitions are materialized [`BinaryLabelDataset`]s — learners need
/// their training matrix — carrying the same provenance tags as the
/// materialized split (`Train` / `Derived` / `Test`). The result is
/// bit-identical to materializing the whole frame first and splitting it.
pub fn train_val_test_split_chunked(
    frame: &ChunkedFrame,
    schema: &Schema,
    protected: &ProtectedAttribute,
    favorable_label: &str,
    spec: SplitSpec,
    seed: u64,
) -> Result<TrainValTest> {
    // Validate the whole stream exactly as `BinaryLabelDataset::new` would
    // validate the materialized frame: every label binarized, every
    // protected cell evaluated, group presence checked once globally.
    // Partitions are then assembled without re-validation — matching the
    // materialized split, where `take` never re-checks group presence.
    schema.validate()?;
    let label_name = schema.label_name()?.to_string();
    let n = frame.n_rows();
    let mut labels = Vec::with_capacity(n);
    let mut mask = Vec::with_capacity(n);
    let mut base = 0usize;
    for chunk in frame.chunks() {
        let label_col = chunk.column(&label_name)?;
        let protected_col = chunk.column(&protected.name)?;
        for i in 0..chunk.n_rows() {
            labels.push(crate::dataset::binarize_label(
                label_col.get(i),
                favorable_label,
                base + i,
            )?);
            mask.push(crate::dataset::row_privileged(
                protected,
                protected_col.get(i),
                base + i,
            )?);
        }
        base += chunk.n_rows();
    }
    crate::dataset::validate_group_presence(&mask)?;

    let indices = split_row_indices(n, spec, seed)?;
    let partition = |idx: &[usize], tag: Provenance| -> Result<BinaryLabelDataset> {
        let mut ds = BinaryLabelDataset::from_validated_parts(
            frame.take(idx)?,
            schema.clone(),
            protected.clone(),
            favorable_label,
            idx.iter().map(|&i| labels[i]).collect(),
            idx.iter().map(|&i| mask[i]).collect(),
        );
        ds.set_provenance(tag);
        Ok(ds)
    };
    let train = partition(&indices.train, Provenance::Train)?;
    // Validation stays `Derived` for the same reason as the materialized
    // split: postprocessors legitimately fit on validation predictions.
    let validation = partition(&indices.validation, Provenance::Derived)?;
    let test = partition(&indices.test, Provenance::Test)?;
    Ok(TrainValTest {
        train,
        validation,
        test,
        indices,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Value;
    use std::io::Cursor;

    const SAMPLE: &str = "age,job,income\n25,clerk,low\n?,\"cook, senior\",high\n40,,low\n64,clerk,high\n33,maid,low\n";

    fn kinds() -> Vec<(&'static str, ColumnKind)> {
        vec![
            ("age", ColumnKind::Numeric),
            ("job", ColumnKind::Categorical),
            ("income", ColumnKind::Categorical),
        ]
    }

    fn ingest(chunk_rows: usize) -> ChunkedFrame {
        let mut frame = ChunkedFrame::new();
        read_csv_chunked(
            Cursor::new(SAMPLE),
            &kinds(),
            crate::csv::DEFAULT_MISSING_TOKENS,
            chunk_rows,
            &mut frame,
        )
        .unwrap();
        frame
    }

    #[test]
    fn chunked_ingest_assembles_to_read_csv_result() {
        let reference = crate::csv::read_csv(
            Cursor::new(SAMPLE),
            &kinds(),
            crate::csv::DEFAULT_MISSING_TOKENS,
        )
        .unwrap();
        for chunk_rows in [1, 2, 3, 4096] {
            let chunked = ingest(chunk_rows);
            assert_eq!(chunked.n_rows(), 5);
            assert_eq!(
                chunked.to_frame().unwrap(),
                reference,
                "chunk_rows={chunk_rows}"
            );
        }
    }

    #[test]
    fn chunk_sizes_are_bounded_by_target() {
        let chunked = ingest(2);
        assert_eq!(chunked.n_chunks(), 3);
        let sizes: Vec<usize> = chunked.chunks().iter().map(DataFrame::n_rows).collect();
        assert_eq!(sizes, vec![2, 2, 1]);
    }

    #[test]
    fn zero_chunk_rows_rejected() {
        let mut sink = ChunkStats::default();
        assert!(read_csv_chunked(Cursor::new(SAMPLE), &kinds(), &[], 0, &mut sink).is_err());
    }

    #[test]
    fn stats_sink_counts_without_retaining() {
        let mut stats = ChunkStats::default();
        read_csv_chunked(
            Cursor::new(SAMPLE),
            &kinds(),
            crate::csv::DEFAULT_MISSING_TOKENS,
            2,
            &mut stats,
        )
        .unwrap();
        assert_eq!(stats.rows, 5);
        assert_eq!(stats.chunks, 3);
        assert_eq!(stats.columns, vec!["age", "job", "income"]);
        assert_eq!(stats.missing, vec![1, 1, 0]);
    }

    #[test]
    fn tee_feeds_both_sinks() {
        let mut frame = ChunkedFrame::new();
        let mut stats = ChunkStats::default();
        read_csv_chunked(
            Cursor::new(SAMPLE),
            &kinds(),
            crate::csv::DEFAULT_MISSING_TOKENS,
            2,
            &mut Tee(&mut stats, &mut frame),
        )
        .unwrap();
        assert_eq!(stats.rows, 5);
        assert_eq!(frame.n_rows(), 5);
    }

    #[test]
    fn take_matches_materialized_take() {
        let chunked = ingest(2);
        let reference = chunked.to_frame().unwrap();
        let indices = vec![4, 0, 4, 2, 1];
        assert_eq!(chunked.take(&indices).unwrap(), reference.take(&indices));
        // Out-of-bounds rows are an error, not a panic.
        assert!(chunked.take(&[99]).is_err());
    }

    #[test]
    fn retain_complete_matches_materialized_filter() {
        let chunked = ingest(2);
        let reference = chunked.to_frame().unwrap();
        let (filtered, kept) = chunked.retain_complete();
        let (ref_filtered, ref_kept) = reference.filter(|i| !reference.row_has_missing(i));
        assert_eq!(kept, ref_kept);
        assert_eq!(filtered.to_frame().unwrap(), ref_filtered);
        assert_eq!(filtered.n_rows(), 3);
    }

    #[test]
    fn mismatched_chunk_schema_rejected() {
        let mut frame = ingest(2);
        let stray = DataFrame::new()
            .with_column("other", Column::from_f64([1.0]))
            .unwrap();
        assert!(frame.push_chunk(stray).is_err());
    }

    #[test]
    fn values_survive_chunking() {
        let chunked = ingest(1);
        let assembled = chunked.to_frame().unwrap();
        assert_eq!(
            assembled.value(1, "job").unwrap(),
            Value::Categorical("cook, senior")
        );
        assert_eq!(assembled.value(2, "job").unwrap(), Value::Missing);
        assert_eq!(assembled.value(3, "age").unwrap(), Value::Numeric(64.0));
    }
}
