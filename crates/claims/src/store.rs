//! Plain-text persistence for claims datasets.
//!
//! A simple line-oriented TSV-ish format so simulated datasets can be
//! exported, inspected with standard tools, and re-imported. Format (one
//! dataset per file):
//!
//! ```text
//! #mic-claims v1
//! start <year> <month>
//! dims <n_diseases> <n_medicines>
//! month <t> <n_records>
//! r <patient> <hospital>|<d>:<count> ...|<m> ...|<truth> ...
//! ```
//!
//! Truth links use `?` for [`crate::filter::UNKNOWN_DISEASE`].

use crate::filter::UNKNOWN_DISEASE;
use crate::ids::{DiseaseId, HospitalId, MedicineId, Month, PatientId, YearMonth};
use crate::record::{ClaimsDataset, MicRecord, MonthlyDataset};
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};

/// Errors raised while reading a stored dataset.
#[derive(Debug)]
pub enum StoreError {
    Io(io::Error),
    /// Malformed content, with a line number and description.
    Parse {
        line: usize,
        message: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Parse { .. } => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

fn parse_err(line: usize, message: impl Into<String>) -> StoreError {
    StoreError::Parse {
        line,
        message: message.into(),
    }
}

/// Serialise a dataset to a writer.
pub fn write_dataset<W: Write>(ds: &ClaimsDataset, mut w: W) -> io::Result<()> {
    writeln!(w, "#mic-claims v1")?;
    writeln!(w, "start {} {}", ds.start.year, ds.start.month)?;
    writeln!(w, "dims {} {}", ds.n_diseases, ds.n_medicines)?;
    let mut line = String::new();
    for month in &ds.months {
        writeln!(w, "month {} {}", month.month.0, month.records.len())?;
        for r in &month.records {
            line.clear();
            let _ = write!(line, "r {} {}|", r.patient.0, r.hospital.0);
            for (i, &(d, n)) in r.diseases.iter().enumerate() {
                if i > 0 {
                    line.push(' ');
                }
                let _ = write!(line, "{}:{}", d.0, n);
            }
            line.push('|');
            for (i, &m) in r.medicines.iter().enumerate() {
                if i > 0 {
                    line.push(' ');
                }
                let _ = write!(line, "{}", m.0);
            }
            line.push('|');
            for (i, &t) in r.truth_links.iter().enumerate() {
                if i > 0 {
                    line.push(' ');
                }
                if t == UNKNOWN_DISEASE {
                    line.push('?');
                } else {
                    let _ = write!(line, "{}", t.0);
                }
            }
            writeln!(w, "{line}")?;
        }
    }
    Ok(())
}

/// Deserialise a dataset from a reader.
pub fn read_dataset<R: BufRead>(r: R) -> Result<ClaimsDataset, StoreError> {
    let mut lines = r.lines().enumerate();
    let mut next = || -> Result<Option<(usize, String)>, StoreError> {
        match lines.next() {
            Some((i, Ok(l))) => Ok(Some((i + 1, l))),
            Some((_, Err(e))) => Err(StoreError::Io(e)),
            None => Ok(None),
        }
    };

    let (ln, header) = next()?.ok_or_else(|| parse_err(0, "empty file"))?;
    if header.trim() != "#mic-claims v1" {
        return Err(parse_err(ln, format!("bad header {header:?}")));
    }
    let (ln, start_line) = next()?.ok_or_else(|| parse_err(ln, "missing start line"))?;
    let parts: Vec<&str> = start_line.split_whitespace().collect();
    if parts.len() != 3 || parts[0] != "start" {
        return Err(parse_err(ln, "expected `start <year> <month>`"));
    }
    let year: i32 = parts[1].parse().map_err(|_| parse_err(ln, "bad year"))?;
    let month: u8 = parts[2].parse().map_err(|_| parse_err(ln, "bad month"))?;
    if !(1..=12).contains(&month) {
        return Err(parse_err(ln, "calendar month out of range"));
    }
    let start = YearMonth::new(year, month);

    let (ln, dims_line) = next()?.ok_or_else(|| parse_err(ln, "missing dims line"))?;
    let parts: Vec<&str> = dims_line.split_whitespace().collect();
    if parts.len() != 3 || parts[0] != "dims" {
        return Err(parse_err(ln, "expected `dims <n_diseases> <n_medicines>`"));
    }
    let n_diseases: usize = parts[1]
        .parse()
        .map_err(|_| parse_err(ln, "bad n_diseases"))?;
    let n_medicines: usize = parts[2]
        .parse()
        .map_err(|_| parse_err(ln, "bad n_medicines"))?;
    if n_diseases == 0 || n_medicines == 0 {
        return Err(parse_err(ln, "dims must be positive"));
    }

    let mut months: Vec<MonthlyDataset> = Vec::new();
    let mut expected_records = 0usize;
    while let Some((ln, line)) = next()? {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("month ") {
            if expected_records != 0 {
                return Err(parse_err(ln, "previous month has missing records"));
            }
            let parts: Vec<&str> = rest.split_whitespace().collect();
            if parts.len() != 2 {
                return Err(parse_err(ln, "expected `month <t> <n_records>`"));
            }
            let t: u32 = parts[0]
                .parse()
                .map_err(|_| parse_err(ln, "bad month index"))?;
            expected_records = parts[1]
                .parse()
                .map_err(|_| parse_err(ln, "bad record count"))?;
            if t as usize != months.len() {
                return Err(parse_err(ln, format!("month {t} out of order")));
            }
            months.push(MonthlyDataset {
                month: Month(t),
                records: Vec::with_capacity(expected_records),
            });
        } else if let Some(rest) = line.strip_prefix("r ") {
            let month = months
                .last_mut()
                .ok_or_else(|| parse_err(ln, "record before any month"))?;
            if expected_records == 0 {
                return Err(parse_err(ln, "more records than declared"));
            }
            month
                .records
                .push(parse_record(rest, ln, n_diseases, n_medicines)?);
            expected_records -= 1;
        } else {
            return Err(parse_err(ln, format!("unrecognised line {line:?}")));
        }
    }
    if expected_records != 0 {
        return Err(parse_err(0, "file truncated: records missing"));
    }
    Ok(ClaimsDataset {
        start,
        months,
        n_diseases,
        n_medicines,
    })
}

/// Parse one `r …` line; every disease, medicine and truth id must lie
/// below the declared dims.
fn parse_record(
    rest: &str,
    ln: usize,
    n_diseases: usize,
    n_medicines: usize,
) -> Result<MicRecord, StoreError> {
    let id = |tok: &str, what: &str, dim: usize| -> Result<u32, StoreError> {
        let id: u32 = tok
            .parse()
            .map_err(|_| parse_err(ln, format!("bad {what} id")))?;
        if id as usize >= dim {
            return Err(parse_err(
                ln,
                format!("{what} id {id} out of range (dims allow < {dim})"),
            ));
        }
        Ok(id)
    };
    let sections: Vec<&str> = rest.split('|').collect();
    if sections.len() != 4 {
        return Err(parse_err(ln, "record needs 4 |-sections"));
    }
    let head: Vec<&str> = sections[0].split_whitespace().collect();
    if head.len() != 2 {
        return Err(parse_err(ln, "record head needs patient and hospital"));
    }
    let patient = PatientId(
        head[0]
            .parse()
            .map_err(|_| parse_err(ln, "bad patient id"))?,
    );
    let hospital = HospitalId(
        head[1]
            .parse()
            .map_err(|_| parse_err(ln, "bad hospital id"))?,
    );
    let mut diseases = Vec::new();
    for tok in sections[1].split_whitespace() {
        let (d, n) = tok
            .split_once(':')
            .ok_or_else(|| parse_err(ln, "bad disease token"))?;
        diseases.push((
            DiseaseId(id(d, "disease", n_diseases)?),
            n.parse().map_err(|_| parse_err(ln, "bad disease count"))?,
        ));
    }
    let mut medicines = Vec::new();
    for tok in sections[2].split_whitespace() {
        medicines.push(MedicineId(id(tok, "medicine", n_medicines)?));
    }
    let mut truth_links = Vec::new();
    for tok in sections[3].split_whitespace() {
        truth_links.push(if tok == "?" {
            UNKNOWN_DISEASE
        } else {
            DiseaseId(id(tok, "truth", n_diseases)?)
        });
    }
    if truth_links.len() != medicines.len() {
        return Err(parse_err(ln, "truth/medicine count mismatch"));
    }
    Ok(MicRecord {
        patient,
        hospital,
        diseases,
        medicines,
        truth_links,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::Simulator;
    use crate::world::WorldSpec;

    #[test]
    fn round_trip_simulated_dataset() {
        let world = WorldSpec::tiny().generate();
        let ds = Simulator::new(&world, 3).run();
        let mut buf = Vec::new();
        write_dataset(&ds, &mut buf).unwrap();
        let back = read_dataset(&buf[..]).unwrap();
        assert_eq!(back.start, ds.start);
        assert_eq!(back.n_diseases, ds.n_diseases);
        assert_eq!(back.n_medicines, ds.n_medicines);
        assert_eq!(back.months.len(), ds.months.len());
        for (a, b) in ds.months.iter().zip(&back.months) {
            assert_eq!(a.records, b.records);
        }
    }

    #[test]
    fn unknown_truth_round_trips() {
        let ds = ClaimsDataset {
            start: YearMonth::paper_start(),
            months: vec![MonthlyDataset {
                month: Month(0),
                records: vec![MicRecord {
                    patient: PatientId(1),
                    hospital: HospitalId(2),
                    diseases: vec![(DiseaseId(0), 1)],
                    medicines: vec![MedicineId(3)],
                    truth_links: vec![UNKNOWN_DISEASE],
                }],
            }],
            n_diseases: 1,
            n_medicines: 4,
        };
        let mut buf = Vec::new();
        write_dataset(&ds, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains('?'));
        let back = read_dataset(&buf[..]).unwrap();
        assert_eq!(back.months[0].records[0].truth_links[0], UNKNOWN_DISEASE);
    }

    #[test]
    fn rejects_bad_header() {
        let err = read_dataset("not a dataset\n".as_bytes()).unwrap_err();
        assert!(matches!(err, StoreError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn rejects_truncated_file() {
        let world = WorldSpec::tiny().generate();
        let ds = Simulator::new(&world, 3).run();
        let mut buf = Vec::new();
        write_dataset(&ds, &mut buf).unwrap();
        // Chop off the last line.
        let text = String::from_utf8(buf).unwrap();
        let cut = text.trim_end().rfind('\n').unwrap();
        let err = read_dataset(&text.as_bytes()[..cut]).unwrap_err();
        assert!(err.to_string().contains("truncated") || err.to_string().contains("missing"));
    }

    #[test]
    fn rejects_record_count_mismatch() {
        let input = "#mic-claims v1\nstart 2013 3\ndims 1 1\nmonth 0 0\nr 0 0|0:1|0|0\n";
        let err = read_dataset(input.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("more records"));
    }

    #[test]
    fn rejects_out_of_order_month() {
        let input = "#mic-claims v1\nstart 2013 3\ndims 1 1\nmonth 1 0\n";
        let err = read_dataset(input.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("out of order"));
    }

    /// The error for a one-record month with the given dims and record line.
    fn bad_record_error(dims: &str, record: &str) -> String {
        let input = format!("#mic-claims v1\nstart 2013 3\ndims {dims}\nmonth 0 1\n{record}\n");
        read_dataset(input.as_bytes()).unwrap_err().to_string()
    }

    #[test]
    fn rejects_disease_id_beyond_dims() {
        let err = bad_record_error("2 2", "r 0 0|7:1|0|7");
        assert_eq!(
            err,
            "parse error at line 5: disease id 7 out of range (dims allow < 2)"
        );
    }

    #[test]
    fn rejects_medicine_id_beyond_dims() {
        let err = bad_record_error("2 2", "r 0 0|0:1|9|0");
        assert_eq!(
            err,
            "parse error at line 5: medicine id 9 out of range (dims allow < 2)"
        );
    }

    #[test]
    fn rejects_truth_id_beyond_dims_but_keeps_unknown() {
        let err = bad_record_error("2 2", "r 0 0|0:1|1|5");
        assert_eq!(
            err,
            "parse error at line 5: truth id 5 out of range (dims allow < 2)"
        );
        let ok = "#mic-claims v1\nstart 2013 3\ndims 2 2\nmonth 0 1\nr 0 0|0:1|1|?\n";
        assert!(read_dataset(ok.as_bytes()).is_ok());
    }

    #[test]
    fn rejects_zero_dims() {
        for dims in ["0 0", "0 3", "3 0"] {
            let err = bad_record_error(dims, "r 0 0|0:1|0|0");
            assert_eq!(
                err, "parse error at line 3: dims must be positive",
                "{dims}"
            );
        }
    }

    #[test]
    fn error_display_readable() {
        let e = parse_err(7, "boom");
        assert_eq!(e.to_string(), "parse error at line 7: boom");
    }
}
