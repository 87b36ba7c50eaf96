//! A small RFC-4180-style CSV reader and writer.
//!
//! Supports quoted fields (embedded commas, quotes doubled as `""`, and
//! newlines inside quotes), CRLF and LF line endings.  No external
//! dependency — the offline crate policy of this workspace.
//!
//! **Reading** is one byte-level state machine, [`for_each_record`]: it
//! streams records to a callback and borrows every unquoted field as a
//! slice of the input, so only a field that opens a quote allocates.  One
//! field vector is reused across records.  [`parse`] is a collect over
//! it.  The dialect: blank lines are skipped, a bare CR (not followed by
//! LF) is an error, a quote may only open a field, and text after a
//! closing quote is appended to the field (`"ab"cd` reads `abcd`).
//! Syntax errors cite the 1-based physical line.
//!
//! **Writing** appends to one buffer: a field is quoted (through
//! [`escape_field`]) only when it holds a quote, comma or line break, and
//! each record ends in LF.  [`render`] writes rows this way, and so does
//! `registry_csv::save_registry`, which formats ids and numbers straight
//! into its buffer.

use crate::error::IoError;
use std::borrow::Cow;

/// Streams the records of CSV `text` to `each`, in file order, with the
/// record's 0-based index (a multi-line quoted field does not advance
/// it).  `context` names the source for error messages.
///
/// Unquoted fields borrow from `text`; a quoted field is unescaped into
/// an owned string.  The first error wins, whether a syntax error here or
/// one returned by `each`, so a defect is reported in file order.
///
/// # Example
///
/// ```
/// let mut widths = Vec::new();
/// tpiin_io::csv::for_each_record("a,\"b,c\"\nd,e\n", "inline", |index, fields| {
///     widths.push((index, fields.len(), fields[1].to_string()));
///     Ok(())
/// })
/// .unwrap();
/// assert_eq!(widths, [(0, 2, "b,c".to_string()), (1, 2, "e".to_string())]);
/// ```
pub fn for_each_record<'t>(
    text: &'t str,
    context: &str,
    mut each: impl FnMut(usize, &[Cow<'t, str>]) -> Result<(), IoError>,
) -> Result<(), IoError> {
    let bytes = text.as_bytes();
    let mut fields: Vec<Cow<'t, str>> = Vec::new();
    // The unescaped quoted section of the current field, if it opened one;
    // the unquoted run after the closing quote is appended when it ends.
    let mut quoted: Option<String> = None;
    let mut start = 0; // first byte of the field's current unquoted run
    let mut started = false; // the record has seen a comma or a quote
    let mut line = 1;
    let mut index = 0;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b',' => {
                fields.push(take_field(text, start, i, &mut quoted));
                started = true;
                i += 1;
                start = i;
            }
            b'"' => {
                // A quote opens only an empty field.  Right after a closing
                // quote a `"` would have been read as a doubled one, so a
                // stray quote past a quoted section always has `i > start`.
                if i > start {
                    return Err(IoError::parse(
                        context,
                        line,
                        "unexpected quote inside field",
                    ));
                }
                started = true;
                let mut field = String::new();
                i += 1;
                let mut run = i;
                loop {
                    match bytes.get(i) {
                        None => {
                            return Err(IoError::parse(context, line, "unterminated quoted field"))
                        }
                        Some(b'"') => {
                            field.push_str(&text[run..i]);
                            i += 1;
                            if bytes.get(i) != Some(&b'"') {
                                break;
                            }
                            // A doubled quote: the second one starts the next run.
                            run = i;
                            i += 1;
                        }
                        Some(b'\n') => {
                            line += 1;
                            i += 1;
                        }
                        Some(_) => i += 1,
                    }
                }
                quoted = Some(field);
                start = i;
            }
            b'\r' if bytes.get(i + 1) != Some(&b'\n') => {
                return Err(IoError::parse(context, line, "bare carriage return"));
            }
            terminator @ (b'\r' | b'\n') => {
                if started || i > start {
                    fields.push(take_field(text, start, i, &mut quoted));
                    each(index, &fields)?;
                    fields.clear();
                    index += 1;
                }
                started = false;
                line += 1;
                i += if terminator == b'\r' { 2 } else { 1 };
                start = i;
            }
            _ => i += 1,
        }
    }
    if started || bytes.len() > start {
        fields.push(take_field(text, start, bytes.len(), &mut quoted));
        each(index, &fields)?;
    }
    Ok(())
}

/// Ends the current field at `end`: a slice of `text`, or the quoted
/// prefix plus whatever followed its closing quote.
fn take_field<'t>(
    text: &'t str,
    start: usize,
    end: usize,
    quoted: &mut Option<String>,
) -> Cow<'t, str> {
    let run = &text[start..end];
    match quoted.take() {
        None => Cow::Borrowed(run),
        Some(mut field) => {
            field.push_str(run);
            Cow::Owned(field)
        }
    }
}

/// Parses CSV `text` into records of fields: [`for_each_record`],
/// collected into owned strings.
///
/// Empty trailing lines are skipped; an entirely empty input yields no
/// records.  `context` names the source for error messages.
///
/// # Example
///
/// ```
/// let rows = tpiin_io::csv::parse("a,\"b,c\"\n", "inline").unwrap();
/// assert_eq!(rows, vec![vec!["a".to_string(), "b,c".to_string()]]);
/// ```
pub fn parse(text: &str, context: &str) -> Result<Vec<Vec<String>>, IoError> {
    let mut records = Vec::new();
    for_each_record(text, context, |_, fields| {
        records.push(fields.iter().map(|f| f.to_string()).collect());
        Ok(())
    })?;
    Ok(records)
}

fn needs_quotes(field: &str) -> bool {
    field.contains(['"', ',', '\n', '\r'])
}

/// Escapes one field for CSV output (quotes only when needed).
pub fn escape_field(field: &str) -> String {
    if needs_quotes(field) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Appends one field to `out`, escaping it only when it needs quotes.
pub(crate) fn push_field(out: &mut String, field: &str) {
    if needs_quotes(field) {
        out.push_str(&escape_field(field));
    } else {
        out.push_str(field);
    }
}

/// Renders records as CSV text with LF line endings.
pub fn render(records: &[Vec<String>]) -> String {
    let mut out = String::new();
    for record in records {
        for (i, field) in record.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_field(&mut out, field);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_rows() {
        let rows = parse("a,b,c\nd,e,f\n", "t").unwrap();
        assert_eq!(rows, vec![vec!["a", "b", "c"], vec!["d", "e", "f"]]);
    }

    #[test]
    fn quoted_fields_with_commas_quotes_and_newlines() {
        let text = "name,desc\n\"Li, Wei\",\"said \"\"hi\"\"\"\n\"multi\nline\",x\n";
        let rows = parse(text, "t").unwrap();
        assert_eq!(rows[1], vec!["Li, Wei", "said \"hi\""]);
        assert_eq!(rows[2], vec!["multi\nline", "x"]);
    }

    #[test]
    fn crlf_line_endings() {
        let rows = parse("a,b\r\nc,d\r\n", "t").unwrap();
        assert_eq!(rows, vec![vec!["a", "b"], vec!["c", "d"]]);
    }

    #[test]
    fn empty_fields_and_trailing_comma() {
        let rows = parse("a,,c\n,,\n", "t").unwrap();
        assert_eq!(rows[0], vec!["a", "", "c"]);
        assert_eq!(rows[1], vec!["", "", ""]);
    }

    #[test]
    fn missing_final_newline() {
        let rows = parse("a,b", "t").unwrap();
        assert_eq!(rows, vec![vec!["a", "b"]]);
    }

    #[test]
    fn empty_input_yields_no_records() {
        assert!(parse("", "t").unwrap().is_empty());
        assert!(parse("\n\n", "t").unwrap().is_empty());
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        let err = parse("\"abc", "file.csv").unwrap_err();
        assert!(err.to_string().contains("unterminated"));
    }

    #[test]
    fn stray_quote_is_an_error() {
        assert!(parse("ab\"c\n", "t").is_err());
    }

    #[test]
    fn roundtrip() {
        let records = vec![
            vec!["plain".to_string(), "with,comma".to_string()],
            vec!["with\"quote".to_string(), "multi\nline".to_string()],
        ];
        let text = render(&records);
        let parsed = parse(&text, "t").unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn escape_only_when_needed() {
        assert_eq!(escape_field("plain"), "plain");
        assert_eq!(escape_field("a,b"), "\"a,b\"");
        assert_eq!(escape_field("a\"b"), "\"a\"\"b\"");
    }

    #[test]
    fn only_quoted_fields_allocate() {
        let text = "plain,\"quo\"\"ted\",\"a\"fter\n";
        let mut seen = 0;
        for_each_record(text, "t", |_, fields| {
            assert!(matches!(fields[0], Cow::Borrowed("plain")));
            assert!(matches!(&fields[1], Cow::Owned(s) if s == "quo\"ted"));
            assert!(matches!(&fields[2], Cow::Owned(s) if s == "after"));
            seen += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, 1);
    }

    #[test]
    fn record_index_counts_records_not_lines() {
        let mut indices = Vec::new();
        for_each_record("h\n\n\"two\nlines\"\n\nlast", "t", |index, _| {
            indices.push(index);
            Ok(())
        })
        .unwrap();
        assert_eq!(indices, [0, 1, 2]);
    }

    #[test]
    fn callback_error_stops_the_stream_before_a_later_syntax_error() {
        let err = for_each_record("a\nb\n\"open", "t", |index, _| {
            if index == 1 {
                Err(IoError::parse("t", index + 1, "rejected"))
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "t:2: rejected");
    }
}
