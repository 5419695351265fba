//! Plain-CSV import and export of trajectory databases.
//!
//! The format is one sample per line, `object_id,t,x,y`, with an optional
//! header line. This is deliberately minimal: it is the least-common-
//! denominator shape of the GPS logs the paper's datasets come from (object
//! identifier, timestamp, longitude/latitude or projected coordinates), so a
//! user with access to the real Truck/Cattle/Car/Taxi data can drop it in
//! without format gymnastics.

// Malformed input must surface as `TrajectoryError`, never a panic: this
// module ingests untrusted files and live stdin feeds.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use trajectory::{ObjectId, Result, TrajectoryBuilder, TrajectoryDatabase, TrajectoryError};

/// Writes a database to CSV (`object_id,t,x,y`, with a header line).
pub fn write_csv<W: Write>(db: &TrajectoryDatabase, mut writer: W) -> std::io::Result<()> {
    writeln!(writer, "object_id,t,x,y")?;
    for (id, traj) in db.iter() {
        for p in traj.points() {
            writeln!(writer, "{},{},{},{}", id.0, p.t, p.x, p.y)?;
        }
    }
    Ok(())
}

/// Writes a database to a CSV file at `path`.
pub fn write_csv_file<P: AsRef<Path>>(db: &TrajectoryDatabase, path: P) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    write_csv(db, std::io::BufWriter::new(file))
}

/// Parses one CSV line into an `(object_id, t, x, y)` sample.
///
/// Returns `Ok(None)` for skippable lines: blanks, `#` comments, and a
/// header on line 1 (recognized only when *no* field parses numerically, so
/// a malformed first data row is an error rather than a silent skip). Lines
/// may end in CRLF. The fields are split without allocating — this runs once
/// per sample on the live-feed ingest path. Exposed so line-at-a-time
/// consumers — the CLI's stdin streaming mode — share the exact grammar of
/// [`read_csv`].
pub fn parse_csv_line(line: &str, line_no: usize) -> Result<Option<(ObjectId, i64, f64, f64)>> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let mut fields = trimmed.split(',').map(str::trim);
    let (Some(id_field), Some(t_field), Some(x_field), Some(y_field), None) = (
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
    ) else {
        return Err(TrajectoryError::Parse {
            line: line_no,
            message: format!("expected 4 fields, found {}", trimmed.split(',').count()),
        });
    };
    // Header detection: only line 1 qualifies, and only when every field is
    // non-numeric. A first data row with one bad field (say, a mistyped
    // timestamp next to a valid object id) falls through to the per-field
    // errors below instead of vanishing as a pretend header.
    if line_no == 1
        && [id_field, t_field, x_field, y_field]
            .iter()
            .all(|f| f.parse::<f64>().is_err())
    {
        return Ok(None);
    }
    let parse_err = |what: &str| TrajectoryError::Parse {
        line: line_no,
        message: format!("cannot parse {what}"),
    };
    let id: u64 = id_field.parse().map_err(|_| parse_err("object_id"))?;
    let t: i64 = t_field.parse().map_err(|_| parse_err("t"))?;
    let x: f64 = x_field.parse().map_err(|_| parse_err("x"))?;
    let y: f64 = y_field.parse().map_err(|_| parse_err("y"))?;
    Ok(Some((ObjectId(id), t, x, y)))
}

/// Reads a database from CSV (`object_id,t,x,y`). A header on line 1 (no
/// field numeric) is skipped; CRLF line endings are accepted. Samples may
/// appear in any order.
///
/// **Duplicate `(object, t)` samples keep the last occurrence** ("later fix
/// wins", see [`TrajectoryBuilder::build`]). This deliberately differs from
/// the streaming path: a live feed *rejects* a duplicate timestamp
/// ([`trajectory::FeedError::DuplicateTimestamp`]), because by the time the
/// duplicate arrives the first sample may already have been consumed
/// downstream and cannot be retracted. Batch ingest sees the whole file before building, so it can honor the
/// later correction. `convoy convert` reports how many samples a file lost
/// to this collapsing so the divergence is visible.
pub fn read_csv<R: Read>(reader: R) -> Result<TrajectoryDatabase> {
    Ok(read_csv_counting(reader)?.0)
}

/// [`read_csv`] plus the number of data samples parsed *before* duplicate
/// `(object, t)` collapsing — the count backing
/// [`crate::source::CsvSource`]'s scan statistics.
pub(crate) fn read_csv_counting<R: Read>(reader: R) -> Result<(TrajectoryDatabase, u64)> {
    let mut reader = BufReader::new(reader);
    let mut builders: BTreeMap<ObjectId, TrajectoryBuilder> = BTreeMap::new();

    // One reused line buffer: `BufReader::lines()` would allocate a fresh
    // `String` per line, and this loop runs once per sample at 100M-point
    // conversion scale.
    let mut line = String::new();
    let mut line_no = 0usize;
    let mut records = 0u64;
    loop {
        line.clear();
        let read = reader
            .read_line(&mut line)
            .map_err(|e| TrajectoryError::Io {
                path: String::new(),
                message: e.to_string(),
            })?;
        if read == 0 {
            break;
        }
        line_no = line_no.saturating_add(1);
        if let Some((id, t, x, y)) = parse_csv_line(&line, line_no)? {
            records = records.saturating_add(1);
            builders.entry(id).or_default().add(x, y, t);
        }
    }

    let mut db = TrajectoryDatabase::new();
    for (id, builder) in builders {
        db.insert(id, builder.build()?);
    }
    Ok((db, records))
}

/// Reads a database from a CSV file at `path`. A missing or unreadable file
/// is a [`TrajectoryError::Io`], not a parse error — there is no line to
/// point at.
pub fn read_csv_file<P: AsRef<Path>>(path: P) -> Result<TrajectoryDatabase> {
    let file = std::fs::File::open(&path).map_err(|e| TrajectoryError::Io {
        path: path.as_ref().display().to_string(),
        message: e.to_string(),
    })?;
    read_csv(file)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic on bad fixtures
mod tests {
    use super::*;
    use crate::{generate, DatasetProfile};

    #[test]
    fn round_trip_preserves_the_database() {
        let dataset = generate(&DatasetProfile::truck().scaled(0.01), 3);
        let mut buffer = Vec::new();
        write_csv(&dataset.database, &mut buffer).unwrap();
        let restored = read_csv(buffer.as_slice()).unwrap();
        assert_eq!(restored, dataset.database);
    }

    #[test]
    fn header_comments_and_blank_lines_are_skipped() {
        let csv = "object_id,t,x,y\n# comment\n\n1,0,0.5,1.5\n1,1,1.0,2.0\n2,0,9.0,9.0\n";
        let db = read_csv(csv.as_bytes()).unwrap();
        assert_eq!(db.len(), 2);
        assert_eq!(db.get(ObjectId(1)).unwrap().len(), 2);
        assert_eq!(db.get(ObjectId(2)).unwrap().len(), 1);
    }

    #[test]
    fn out_of_order_and_duplicate_samples_are_normalised() {
        let csv = "1,5,5.0,0.0\n1,1,1.0,0.0\n1,5,6.0,0.0\n";
        let db = read_csv(csv.as_bytes()).unwrap();
        let traj = db.get(ObjectId(1)).unwrap();
        assert_eq!(traj.len(), 2);
        assert_eq!(traj.start_time(), 1);
        // Last occurrence of the duplicate timestamp wins.
        assert_eq!(traj.sample_at(5).unwrap().x, 6.0);
    }

    #[test]
    fn malformed_lines_are_reported_with_line_numbers() {
        let err = read_csv("1,0,0.0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TrajectoryError::Parse { line: 1, .. }));
        let err = read_csv("1,0,0.0,1.0\n1,zap,0.0,1.0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TrajectoryError::Parse { line: 2, .. }));
        let err = read_csv("1,0,NOPE,1.0\n".as_bytes()).unwrap_err();
        match err {
            TrajectoryError::Parse { line, message } => {
                assert_eq!(line, 1);
                assert!(message.contains('x'));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn file_round_trip() {
        let dataset = generate(&DatasetProfile::taxi().scaled(0.02), 9);
        let dir = std::env::temp_dir().join("convoy-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("taxi.csv");
        write_csv_file(&dataset.database, &path).unwrap();
        let restored = read_csv_file(&path).unwrap();
        assert_eq!(restored, dataset.database);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_a_parse_error() {
        // Historically this *was* reported as `Parse { line: 0 }` — a parse
        // error at a line that does not exist. It is an I/O error, and the
        // message must name the path, not a pretend line number.
        let err = read_csv_file("/nonexistent/convoy.csv").unwrap_err();
        match &err {
            TrajectoryError::Io { path, message } => {
                assert_eq!(path, "/nonexistent/convoy.csv");
                assert!(!message.is_empty());
            }
            other => panic!("expected an Io error, got {other:?}"),
        }
        let text = err.to_string();
        assert!(
            text.contains("cannot read /nonexistent/convoy.csv"),
            "{text}"
        );
        assert!(!text.contains("line"), "{text}");
    }

    #[test]
    fn batch_ingest_keeps_the_last_duplicate_as_documented() {
        // Batch `read_csv` collapses the duplicate `(object, t)` sample
        // keeping the LAST occurrence; a live feed (`convoy-stream`) rejects
        // the duplicate and keeps the FIRST. Both behaviors are intended (see
        // the docs on `read_csv` and `FeedError::DuplicateTimestamp`); the
        // stream's tests pin its half on the same file.
        let csv = "1,0,1.0,0.0\n1,1,2.0,0.0\n1,1,9.0,0.0\n2,1,5.0,5.0\n";

        let db = read_csv(csv.as_bytes()).unwrap();
        assert_eq!(db.total_points(), 3);
        // Batch: the later fix wins.
        assert_eq!(db.get(ObjectId(1)).unwrap().sample_at(1).unwrap().x, 9.0);

        // And the pre-dedup count that `convoy convert` reports: 4 parsed,
        // 3 survive, 1 duplicate.
        let (counted_db, records) = read_csv_counting(csv.as_bytes()).unwrap();
        assert_eq!(records, 4);
        assert_eq!(counted_db.total_points(), 3);
    }

    #[test]
    fn parse_csv_line_handles_all_line_shapes() {
        assert_eq!(
            parse_csv_line("3, 7, 1.5, -2.5", 4).unwrap(),
            Some((ObjectId(3), 7, 1.5, -2.5))
        );
        assert_eq!(parse_csv_line("", 2).unwrap(), None);
        assert_eq!(parse_csv_line("# comment", 2).unwrap(), None);
        // A header skips only on line 1.
        assert_eq!(parse_csv_line("object_id,t,x,y", 1).unwrap(), None);
        assert!(parse_csv_line("object_id,t,x,y", 2).is_err());
        assert!(parse_csv_line("1,2,3", 5).is_err());
        assert!(parse_csv_line("1,2,3.0,4.0,5", 5).is_err());
    }

    #[test]
    fn malformed_first_data_row_is_an_error_not_a_header() {
        // One numeric field is enough to rule out a header: a first data row
        // with a mistyped timestamp must be reported, not swallowed.
        let err = parse_csv_line("1,09:15:00,2.0,3.0", 1).unwrap_err();
        match err {
            TrajectoryError::Parse { line, message } => {
                assert_eq!(line, 1);
                assert_eq!(message, "cannot parse t");
            }
            other => panic!("unexpected error {other:?}"),
        }
        // A real header — no numeric field anywhere — still skips.
        assert_eq!(parse_csv_line("id,timestamp,lon,lat", 1).unwrap(), None);
    }

    #[test]
    fn crlf_line_endings_parse_like_lf() {
        assert_eq!(
            parse_csv_line("3,7,1.5,-2.5\r", 4).unwrap(),
            Some((ObjectId(3), 7, 1.5, -2.5))
        );
        assert_eq!(parse_csv_line("object_id,t,x,y\r", 1).unwrap(), None);
        let csv = "object_id,t,x,y\r\n1,0,0.5,1.5\r\n1,1,1.0,2.0\r\n2,0,9.0,9.0\r\n";
        let db = read_csv(csv.as_bytes()).unwrap();
        assert_eq!(db.len(), 2);
        assert_eq!(db.get(ObjectId(1)).unwrap().len(), 2);
        assert_eq!(db.get(ObjectId(2)).unwrap().len(), 1);
    }
}
