//! The append-only binary segment format for vector corpora.
//!
//! **Format v2** is columnar and tile-native: the exact values are laid
//! out as the 8-point transposed tiles the scan kernels consume (see
//! `qcluster_linalg::vecops::transpose_tile`), with a u8
//! scalar-quantized sibling column and the per-dimension quantization
//! parameters persisted alongside. Loading a v2 segment hands the scan
//! its working memory layout directly — no transpose, no re-fit, no
//! per-record allocation:
//!
//! ```text
//! ┌────────────────────── header (16 B) ──────────────────────┐
//! │ magic "QSEG" │ version u32 (= 2) │ dim u32 │ reserved u32  │
//! ├──────────────────── params (dim × 24 B) ──────────────────┤
//! │ per dimension: min f64 │ delta f64 │ max_err f64           │
//! ├──────────────── exact column (ntiles × dim × 64 B) ───────┤
//! │ tile-major f64: tile t, dim j, lane l at (t·dim + j)·8 + l │
//! │ (final tile zero-padded past `count`)                      │
//! ├──────────────── code column (ntiles × dim × 8 B) ─────────┤
//! │ same tile-major shape, one u8 code per value               │
//! ├────────────────────── footer (20 B) ──────────────────────┤
//! │ count u64 │ dim u32 │ CRC-32 of params+exact+codes │ "SEGF"│
//! └───────────────────────────────────────────────────────────┘
//! ```
//!
//! Version 2 is the only format: any other version in the header is a
//! typed `unsupported segment version` error at open.
//!
//! Writers stage into a `.tmp` sibling and atomically rename when they
//! seal ([`write_segment`], [`SegmentWriter::finish`]), so a crash
//! mid-write never leaves a half-segment under the real name. [`SegmentReader::open`] validates
//! the header, footer, file length, and column CRC before returning.

use crate::codec::{read_exact_or_eof, Crc32};
use crate::error::{Result, StoreError};
use qcluster_index::QuantParams;
use qcluster_linalg::vecops::TILE_LANES;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"QSEG";
const FOOTER_MAGIC: &[u8; 4] = b"SEGF";
/// Tile-native columnar with u8 code sibling column.
pub const VERSION_V2: u32 = 2;
const HEADER_LEN: u64 = 16;
const FOOTER_LEN: u64 = 20;
/// Bytes per dimension in the v2 params block (min, delta, max_err).
const PARAM_ENTRY_LEN: u64 = 24;
/// Streaming I/O chunk for CRC validation and bulk reads.
const IO_CHUNK: usize = 64 * 1024;

/// Default records per [`SegmentReader`] page.
pub const DEFAULT_PAGE_RECORDS: usize = 1024;

/// Durably syncs the directory containing `path`, so a rename into it
/// survives a crash. Best-effort on platforms where directories cannot
/// be opened for sync.
pub(crate) fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
}

/// The staged file of one segment: the header at creation, then the
/// CRC'd body in file order (params, exact column, code column), then
/// [`Staged::seal`].
#[derive(Debug)]
struct Staged {
    file: BufWriter<File>,
    tmp_path: PathBuf,
    final_path: PathBuf,
    dim: usize,
    crc: Crc32,
    /// Body bytes converted but not yet CRC'd and written.
    pending: Vec<u8>,
}

impl Staged {
    fn create(path: &Path, dim: usize) -> Result<Self> {
        if dim == 0 {
            return Err(zero_dim());
        }
        let mut tmp_path = path.as_os_str().to_owned();
        tmp_path.push(".tmp");
        let tmp_path = PathBuf::from(tmp_path);
        let mut file = BufWriter::new(File::create(&tmp_path)?);
        file.write_all(MAGIC)?;
        file.write_all(&VERSION_V2.to_le_bytes())?;
        let dim32 = u32::try_from(dim).expect("dim fits u32");
        file.write_all(&dim32.to_le_bytes())?;
        file.write_all(&0u32.to_le_bytes())?;
        Ok(Staged {
            file,
            tmp_path,
            final_path: path.to_path_buf(),
            dim,
            crc: Crc32::new(),
            // A chunk plus the largest single append, one tile's codes.
            pending: Vec::with_capacity(IO_CHUNK + dim * TILE_LANES),
        })
    }

    fn flush_pending(&mut self) -> Result<()> {
        self.crc.update(&self.pending);
        self.file.write_all(&self.pending)?;
        self.pending.clear();
        Ok(())
    }

    fn put_f64s(&mut self, values: &[f64]) -> Result<()> {
        for v in values {
            self.pending.extend_from_slice(&v.to_le_bytes());
            if self.pending.len() >= IO_CHUNK {
                self.flush_pending()?;
            }
        }
        Ok(())
    }

    fn put_params(&mut self, params: &QuantParams) -> Result<()> {
        for j in 0..self.dim {
            self.put_f64s(&[params.min()[j], params.delta()[j], params.max_err()[j]])?;
        }
        Ok(())
    }

    /// Writes the body — params, the exact column, then the code column —
    /// and seals. `fill(t, tile)` overwrites `tile` with tile `t`,
    /// zero-padded past the last point; it runs twice per tile, once per
    /// column, so neither column is ever held whole here: the code column
    /// is coded and written one tile at a time like the exact one.
    fn seal_columns(
        mut self,
        params: &QuantParams,
        count: u64,
        mut fill: impl FnMut(usize, &mut [f64]),
    ) -> Result<u64> {
        self.put_params(params)?;
        let ntiles = (count as usize).div_ceil(TILE_LANES);
        let mut tile = vec![0.0f64; self.dim * TILE_LANES];
        for t in 0..ntiles {
            fill(t, &mut tile);
            self.put_f64s(&tile)?;
        }
        let mut codes = vec![0u8; tile.len()];
        for t in 0..ntiles {
            fill(t, &mut tile);
            params.encode_tiles(&tile, &mut codes);
            self.pending.extend_from_slice(&codes);
            if self.pending.len() >= IO_CHUNK {
                self.flush_pending()?;
            }
        }
        self.seal(count)
    }

    /// Writes the footer, fsyncs, and atomically renames the staged file
    /// into place. On failure the `.tmp` file is left behind for
    /// debugging (and ignored by [`SegmentReader`] and the store).
    fn seal(mut self, count: u64) -> Result<u64> {
        self.flush_pending()?;
        let dim32 = u32::try_from(self.dim).expect("dim fits u32");
        self.file.write_all(&count.to_le_bytes())?;
        self.file.write_all(&dim32.to_le_bytes())?;
        self.file.write_all(&self.crc.finish().to_le_bytes())?;
        self.file.write_all(FOOTER_MAGIC)?;
        self.file.flush()?;
        // Failpoint `segment.finish`: fail the seal before the staged
        // file is published — the `.tmp` stays behind, the final path
        // never appears, and recovery must not see a half segment.
        if let Some(action) = qcluster_failpoint::evaluate_sleepy("segment.finish") {
            return Err(crate::wal::injected_io("segment.finish", action).into());
        }
        self.file.get_ref().sync_all()?;
        std::fs::rename(&self.tmp_path, &self.final_path)?;
        sync_parent_dir(&self.final_path);
        Ok(count)
    }
}

fn zero_dim() -> StoreError {
    StoreError::InvalidArg("segment dim must be positive".into())
}

fn dim_mismatch(got: usize, dim: usize) -> StoreError {
    StoreError::InvalidArg(format!("vector dim {got} but segment dim {dim}"))
}

/// Column-major scatter of `vector` into lane `lane` of `tile`.
fn scatter(tile: &mut [f64], lane: usize, vector: &[f64]) {
    for (j, &v) in vector.iter().enumerate() {
        tile[j * TILE_LANES + lane] = v;
    }
}

/// Incremental writer sealing one v2 segment file, for callers that do
/// not hold all their vectors up front.
///
/// Appends scatter straight into the tile-major staging column (no
/// intermediate row buffer); [`SegmentWriter::finish`] fits the
/// quantization parameters over the staged tiles and writes the file,
/// coding the code column one tile at a time. The staging
/// column is a second copy of every vector: a caller that has them all
/// in memory uses [`write_segment`], which stages one tile.
#[derive(Debug)]
pub struct SegmentWriter {
    staged: Staged,
    count: u64,
    /// Tile-major exact staging: grows one zeroed tile per 8 appends.
    tiles: Vec<f64>,
}

impl SegmentWriter {
    /// Starts a segment at `path` (staged as `path` + `.tmp`).
    ///
    /// # Errors
    ///
    /// `InvalidArg` for `dim == 0`, otherwise I/O failures.
    pub fn create(path: &Path, dim: usize) -> Result<Self> {
        Ok(SegmentWriter {
            staged: Staged::create(path, dim)?,
            count: 0,
            tiles: Vec::new(),
        })
    }

    /// Records appended so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Appends one vector: a single length check, then a column-major
    /// scatter into the staging tile.
    ///
    /// # Errors
    ///
    /// `InvalidArg` on dimensionality mismatch.
    pub fn append(&mut self, vector: &[f64]) -> Result<()> {
        let tile = self.staged.dim * TILE_LANES;
        if vector.len() != self.staged.dim {
            return Err(dim_mismatch(vector.len(), self.staged.dim));
        }
        let lane = (self.count as usize) % TILE_LANES;
        if lane == 0 {
            self.tiles.resize(self.tiles.len() + tile, 0.0);
        }
        let base = self.tiles.len() - tile;
        scatter(&mut self.tiles[base..], lane, vector);
        self.count += 1;
        Ok(())
    }

    /// Fits quantization parameters, writes params + exact tiles +
    /// codes + footer, fsyncs, and atomically renames the staged file
    /// into place. Returns the record count.
    ///
    /// # Errors
    ///
    /// `InvalidArg` for a non-finite component, otherwise I/O failures;
    /// the staged `.tmp` file is left behind for debugging on failure
    /// (and ignored by [`SegmentReader`] and the store).
    pub fn finish(self) -> Result<u64> {
        let SegmentWriter {
            staged,
            count,
            tiles,
        } = self;
        let params = finite(QuantParams::fit_tiles(&tiles, staged.dim, count as usize))?;
        staged.seal_columns(&params, count, |t, tile| {
            tile.copy_from_slice(&tiles[t * tile.len()..(t + 1) * tile.len()]);
        })
    }
}

/// `params` when the values they were fitted over are all finite.
fn finite(params: QuantParams) -> Result<QuantParams> {
    if params.is_finite() {
        Ok(params)
    } else {
        Err(StoreError::InvalidArg(
            "segment vector components must be finite".into(),
        ))
    }
}

/// Writes `vectors` as one (v2) segment file in a single call — the same
/// bytes [`SegmentWriter`] seals, without its staging column: the
/// parameters are fitted over the rows, then each 8-point tile is
/// transposed and written as it is made, and transposed again, coded and
/// written for the code column that follows. No buffer is larger than
/// one tile.
///
/// # Errors
///
/// `InvalidArg` for `dim == 0`, a dimensionality mismatch or a
/// non-finite component — no file is created then — otherwise I/O
/// failures.
pub fn write_segment(path: &Path, dim: usize, vectors: &[Vec<f64>]) -> Result<u64> {
    if dim == 0 {
        return Err(zero_dim());
    }
    if let Some(bad) = vectors.iter().find(|v| v.len() != dim) {
        return Err(dim_mismatch(bad.len(), dim));
    }
    let params = finite(QuantParams::fit_rows(vectors, dim))?;
    Staged::create(path, dim)?.seal_columns(&params, vectors.len() as u64, |t, tile| {
        tile.fill(0.0);
        let group = &vectors[t * TILE_LANES..vectors.len().min((t + 1) * TILE_LANES)];
        for (lane, vector) in group.iter().enumerate() {
            scatter(tile, lane, vector);
        }
    })
}

/// Validating, paged reader over one segment file.
#[derive(Debug)]
pub struct SegmentReader {
    file: File,
    path: PathBuf,
    dim: usize,
    count: u64,
    page_records: usize,
    params: QuantParams,
}

impl SegmentReader {
    /// Opens and fully validates a segment: magic, version, length
    /// arithmetic, header/footer dim agreement, and the column CRC
    /// (one streaming pass).
    ///
    /// # Errors
    ///
    /// `Corrupt` with the offending path and detail, or I/O failures.
    pub fn open(path: &Path) -> Result<Self> {
        Self::open_with_page_size(path, DEFAULT_PAGE_RECORDS)
    }

    /// [`SegmentReader::open`] with an explicit page size (records per
    /// page, ≥ 1).
    ///
    /// # Errors
    ///
    /// See [`SegmentReader::open`]; `InvalidArg` for a zero page size.
    pub fn open_with_page_size(path: &Path, page_records: usize) -> Result<Self> {
        if page_records == 0 {
            return Err(StoreError::InvalidArg(
                "page_records must be positive".into(),
            ));
        }
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < HEADER_LEN + FOOTER_LEN {
            return Err(StoreError::corrupt(
                path,
                "file shorter than header + footer",
            ));
        }

        let mut reader = BufReader::new(&file);
        let mut header = [0u8; HEADER_LEN as usize];
        reader.read_exact(&mut header)?;
        if &header[0..4] != MAGIC {
            return Err(StoreError::corrupt(path, "bad segment magic"));
        }
        let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if version != VERSION_V2 {
            return Err(StoreError::corrupt(
                path,
                format!("unsupported segment version {version}"),
            ));
        }
        let dim = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes")) as usize;
        if dim == 0 {
            return Err(StoreError::corrupt(path, "zero dimensionality"));
        }

        let mut footer = [0u8; FOOTER_LEN as usize];
        reader.seek(SeekFrom::End(-(FOOTER_LEN as i64)))?;
        reader.read_exact(&mut footer)?;
        if &footer[16..20] != FOOTER_MAGIC {
            return Err(StoreError::corrupt(path, "bad footer magic"));
        }
        let count = u64::from_le_bytes(footer[0..8].try_into().expect("8 bytes"));
        let footer_dim = u32::from_le_bytes(footer[8..12].try_into().expect("4 bytes")) as usize;
        let stored_crc = u32::from_le_bytes(footer[12..16].try_into().expect("4 bytes"));
        if footer_dim != dim {
            return Err(StoreError::corrupt(
                path,
                format!("header dim {dim} disagrees with footer dim {footer_dim}"),
            ));
        }
        let body_bytes = count
            .div_ceil(TILE_LANES as u64)
            .checked_mul(dim as u64)
            .and_then(|n| n.checked_mul(TILE_LANES as u64 * 9)) // 8B exact + 1B code
            .and_then(|n| n.checked_add(dim as u64 * PARAM_ENTRY_LEN))
            .ok_or_else(|| StoreError::corrupt(path, "column byte count overflows"))?;
        if file_len != HEADER_LEN + body_bytes + FOOTER_LEN {
            return Err(StoreError::corrupt(
                path,
                format!("file length {file_len} inconsistent with {count} records of dim {dim}"),
            ));
        }

        // Streaming CRC pass over the body (params + exact + codes).
        reader.seek(SeekFrom::Start(HEADER_LEN))?;
        let mut crc = Crc32::new();
        let mut remaining = body_bytes;
        let mut chunk = [0u8; IO_CHUNK];
        while remaining > 0 {
            let take = remaining.min(chunk.len() as u64) as usize;
            reader.read_exact(&mut chunk[..take])?;
            crc.update(&chunk[..take]);
            remaining -= take as u64;
        }
        if crc.finish() != stored_crc {
            return Err(StoreError::corrupt(path, "segment CRC mismatch"));
        }

        reader.seek(SeekFrom::Start(HEADER_LEN))?;
        let mut entry = [0u8; PARAM_ENTRY_LEN as usize];
        let mut min = Vec::with_capacity(dim);
        let mut delta = Vec::with_capacity(dim);
        let mut max_err = Vec::with_capacity(dim);
        for _ in 0..dim {
            reader.read_exact(&mut entry)?;
            min.push(f64::from_le_bytes(entry[0..8].try_into().expect("8 bytes")));
            delta.push(f64::from_le_bytes(
                entry[8..16].try_into().expect("8 bytes"),
            ));
            max_err.push(f64::from_le_bytes(
                entry[16..24].try_into().expect("8 bytes"),
            ));
        }
        let params = QuantParams::from_parts(min, delta, max_err);

        Ok(SegmentReader {
            file,
            path: path.to_path_buf(),
            dim,
            count,
            page_records,
            params,
        })
    }

    /// Segment format version (always [`VERSION_V2`]: `open` rejects
    /// everything else).
    pub fn version(&self) -> u32 {
        VERSION_V2
    }

    /// Record dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of records.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of pages [`Self::read_all_flat`] reads through.
    fn num_pages(&self) -> usize {
        (self.count as usize).div_ceil(self.page_records)
    }

    /// Offset of the exact (tile) column.
    fn exact_offset(&self) -> u64 {
        HEADER_LEN + self.dim as u64 * PARAM_ENTRY_LEN
    }

    /// Reads `bytes` from `offset` into `buf` (resized to fit),
    /// translating a short read into `Corrupt`.
    fn read_span(&mut self, offset: u64, bytes: usize, buf: &mut Vec<u8>) -> Result<()> {
        buf.resize(bytes, 0);
        self.file.seek(SeekFrom::Start(offset))?;
        let mut reader = BufReader::new(&self.file);
        if !read_exact_or_eof(&mut reader, buf)? {
            return Err(StoreError::corrupt(&self.path, "segment shrank after open"));
        }
        Ok(())
    }

    /// Appends page `page < num_pages()` of records, row-major, onto
    /// `out`.
    fn append_page_flat(&mut self, page: usize, out: &mut Vec<f64>) -> Result<()> {
        let start = page * self.page_records;
        let len = self.page_records.min(self.count as usize - start);
        out.reserve(len * self.dim);
        // Read the covering tile range once, then gather each record's
        // strided lane.
        let mut buf = Vec::new();
        let t0 = start / TILE_LANES;
        let t1 = (start + len - 1) / TILE_LANES;
        let tile_f64 = self.dim * TILE_LANES;
        let offset = self.exact_offset() + (t0 * tile_f64 * 8) as u64;
        self.read_span(offset, (t1 - t0 + 1) * tile_f64 * 8, &mut buf)?;
        let word =
            |idx: usize| f64::from_le_bytes(buf[idx * 8..idx * 8 + 8].try_into().expect("8 bytes"));
        for r in start..start + len {
            let (t, l) = (r / TILE_LANES - t0, r % TILE_LANES);
            for j in 0..self.dim {
                out.push(word(t * tile_f64 + j * TILE_LANES + l));
            }
        }
        Ok(())
    }

    /// Reads every record into one flat row-major buffer — ready for
    /// `LinearScan::from_flat` without further copying.
    ///
    /// # Errors
    ///
    /// `Corrupt` on a short read (the file shrank after open), or I/O
    /// failures.
    pub fn read_all_flat(&mut self) -> Result<Vec<f64>> {
        let mut out = Vec::with_capacity(self.count as usize * self.dim);
        for page in 0..self.num_pages() {
            self.append_page_flat(page, &mut out)?;
        }
        Ok(out)
    }

    /// Reads every record, page by page.
    ///
    /// # Errors
    ///
    /// See [`SegmentReader::read_all_flat`].
    pub fn read_all(&mut self) -> Result<Vec<Vec<f64>>> {
        let flat = self.read_all_flat()?;
        Ok(flat.chunks_exact(self.dim).map(<[f64]>::to_vec).collect())
    }

    /// Loads the columns verbatim: the tile-major exact column, the
    /// tile-major code column, and the quantization parameters — the
    /// zero-transpose path into `qcluster_index::QuantizedScan::from_parts`.
    ///
    /// # Errors
    ///
    /// `Corrupt` on a short read, or I/O failures.
    pub fn load_quantized(&mut self) -> Result<(Vec<f64>, Vec<u8>, QuantParams)> {
        let ntiles = (self.count as usize).div_ceil(TILE_LANES);
        let tile_f64 = self.dim * TILE_LANES;
        let mut buf = Vec::new();
        self.read_span(self.exact_offset(), ntiles * tile_f64 * 8, &mut buf)?;
        let tiles: Vec<f64> = buf
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().expect("8 bytes")))
            .collect();
        let codes_off = self.exact_offset() + (ntiles * tile_f64 * 8) as u64;
        let mut codes = Vec::new();
        self.read_span(codes_off, ntiles * tile_f64, &mut codes)?;
        Ok((tiles, codes, self.params.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcluster_index::QuantizedScan;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qstore_segment_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn vectors(n: usize, dim: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..dim)
                    .map(|d| (i * dim + d) as f64 * 0.123 - 3.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn write_reopen_bitwise_equal() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("seg.qseg");
        let vecs = vectors(2500, 7); // spans multiple default pages
        write_segment(&path, 7, &vecs).unwrap();
        let mut reader = SegmentReader::open(&path).unwrap();
        assert_eq!(reader.version(), VERSION_V2);
        assert_eq!(reader.dim(), 7);
        assert_eq!(reader.count(), 2500);
        let back = reader.read_all().unwrap();
        assert_eq!(back.len(), vecs.len());
        for (a, b) in back.iter().zip(vecs.iter()) {
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "bitwise-equal round trip");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quantized_columns_round_trip_to_an_identical_scan() {
        let dir = tmp_dir("quant");
        let path = dir.join("seg.qseg");
        let vecs = vectors(100, 4);
        write_segment(&path, 4, &vecs).unwrap();
        let mut reader = SegmentReader::open(&path).unwrap();
        let (tiles, codes, params) = reader.load_quantized().unwrap();
        // The persisted columns must match an in-memory build exactly.
        let flat: Vec<f64> = vecs.iter().flatten().copied().collect();
        let fresh = QuantizedScan::from_flat(&flat, 4);
        assert_eq!(&tiles, fresh.corpus().tiles());
        assert_eq!(&codes, fresh.codes());
        assert_eq!(&params, fresh.params());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The one-call writer streams tile by tile; the incremental one
    /// stages the whole column. Same file, byte for byte — ragged last
    /// tile, body longer than one I/O chunk, and empty included.
    #[test]
    fn streamed_and_staged_writers_seal_the_same_bytes() {
        let dir = tmp_dir("samebytes");
        for (n, dim) in [(0, 3), (1, 3), (8, 3), (13, 5), (2500, 7)] {
            let vecs = vectors(n, dim);
            let streamed = dir.join(format!("streamed-{n}.qseg"));
            write_segment(&streamed, dim, &vecs).unwrap();
            let staged = dir.join(format!("staged-{n}.qseg"));
            let mut w = SegmentWriter::create(&staged, dim).unwrap();
            for v in &vecs {
                w.append(v).unwrap();
            }
            assert_eq!(w.finish().unwrap(), n as u64);
            let (a, b) = (std::fs::read(&streamed), std::fs::read(&staged));
            assert_eq!(a.unwrap(), b.unwrap(), "n={n} dim={dim}");
        }
        let ragged = [vec![1.0, 2.0], vec![3.0]];
        let path = dir.join("ragged.qseg");
        assert!(matches!(
            write_segment(&path, 2, &ragged),
            Err(StoreError::InvalidArg(_))
        ));
        assert!(!path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn any_other_version_is_a_typed_error_at_open() {
        let dir = tmp_dir("version");
        let path = dir.join("seg.qseg");
        write_segment(&path, 3, &vectors(10, 3)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        for version in [0u32, 1, 3] {
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            match SegmentReader::open(&path) {
                Err(StoreError::Corrupt { detail, .. }) => {
                    assert_eq!(detail, format!("unsupported segment version {version}"))
                }
                other => panic!("version {version}: {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_bit_is_detected_on_open() {
        let dir = tmp_dir("crc");
        let path = dir.join("seg.qseg");
        write_segment(&path, 4, &vectors(64, 4)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SegmentReader::open(&path),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_code_column_is_detected_on_open() {
        let dir = tmp_dir("codecrc");
        let path = dir.join("seg.qseg");
        write_segment(&path, 4, &vectors(64, 4)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // The code column is the last body section before the footer.
        let idx = bytes.len() - FOOTER_LEN as usize - 3;
        bytes[idx] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SegmentReader::open(&path),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_segment_is_rejected() {
        let dir = tmp_dir("trunc");
        let path = dir.join("seg.qseg");
        write_segment(&path, 4, &vectors(64, 4)).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
        assert!(matches!(
            SegmentReader::open(&path),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unfinished_writer_leaves_no_segment() {
        let dir = tmp_dir("atomic");
        let path = dir.join("seg.qseg");
        let mut w = SegmentWriter::create(&path, 2).unwrap();
        w.append(&[1.0, 2.0]).unwrap();
        drop(w); // simulated crash before finish()
        assert!(!path.exists(), "only finish() publishes the segment");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_segment_round_trips() {
        let dir = tmp_dir("empty");
        let path = dir.join("seg.qseg");
        write_segment(&path, 5, &[]).unwrap();
        let mut reader = SegmentReader::open(&path).unwrap();
        assert_eq!(reader.count(), 0);
        assert_eq!(reader.num_pages(), 0);
        assert!(reader.read_all().unwrap().is_empty());
        assert!(reader.read_all_flat().unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
