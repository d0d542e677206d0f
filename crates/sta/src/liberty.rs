//! A Liberty-subset reader and writer for [`CellLibrary`].
//!
//! Production STA tools consume NLDM data from Liberty (`.lib`) files.
//! This module supports a compact, self-consistent subset of that format —
//! enough to round-trip every field of [`CellLibrary`]:
//!
//! ```text
//! library (typical) {
//!   input_slew : 20;
//!   output_load : 2;
//!   wire_res : 0.4;
//!   cell (NAND2) {
//!     input_cap : 1.3;
//!     clk_to_q : 0;
//!     setup : 0;
//!     lut (delay_rise) {
//!       slew_axis : "5, 10, 20";
//!       load_axis : "0.5, 1, 2";
//!       values : "12.1, 13.0, 14.8, 12.5, 13.4, 15.2, 13.2, 14.1, 15.9";
//!     }
//!     /* delay_fall, slew_rise, slew_fall likewise */
//!   }
//! }
//! ```
//!
//! Group braces, `name : value;` attributes, quoted number lists, `//` and
//! `/* */` comments follow Liberty conventions; everything else of the real
//! grammar (operating conditions, power, `pin` groups) is out of scope.

use crate::library::{ArcTables, CellKind, CellLibrary, CellTiming, Lut2D};
use std::error::Error;
use std::fmt;

/// Error produced by [`parse_liberty`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ParseLibertyError {
    /// Lexing or structural failure at a line.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A cell group used a name that is not a known [`CellKind`].
    UnknownCell {
        /// The unrecognised cell name.
        name: String,
    },
    /// A cell is missing one of its four required tables.
    MissingTable {
        /// The cell.
        cell: String,
        /// The missing table name.
        table: String,
    },
    /// The library block is missing cells for some [`CellKind`]s.
    MissingCells {
        /// How many of the kinds were not found.
        missing: usize,
    },
}

impl fmt::Display for ParseLibertyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseLibertyError::Syntax { line, message } => {
                write!(f, "liberty syntax error at line {line}: {message}")
            }
            ParseLibertyError::UnknownCell { name } => write!(f, "unknown cell `{name}`"),
            ParseLibertyError::MissingTable { cell, table } => {
                write!(f, "cell `{cell}` is missing table `{table}`")
            }
            ParseLibertyError::MissingCells { missing } => {
                write!(f, "library is missing {missing} required cells")
            }
        }
    }
}

impl Error for ParseLibertyError {}

/// Render `library` in the Liberty subset (lossless for this library
/// model).
pub fn write_liberty(library: &CellLibrary, name: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("library ({name}) {{\n"));
    out.push_str(&format!("  input_slew : {};\n", library.input_slew_ps));
    out.push_str(&format!("  output_load : {};\n", library.output_load_ff));
    out.push_str(&format!("  wire_res : {};\n", library.wire_res_ps_per_ff));
    for &kind in CellKind::all() {
        let cell = library.cell(kind);
        out.push_str(&format!("  cell ({kind}) {{\n"));
        out.push_str(&format!("    input_cap : {};\n", cell.input_cap_ff));
        out.push_str(&format!("    clk_to_q : {};\n", cell.clk_to_q_ps));
        out.push_str(&format!("    setup : {};\n", cell.setup_ps));
        for (table_name, lut) in [
            ("delay_rise", &cell.tables.delay_rise),
            ("delay_fall", &cell.tables.delay_fall),
            ("slew_rise", &cell.tables.slew_rise),
            ("slew_fall", &cell.tables.slew_fall),
        ] {
            out.push_str(&format!("    lut ({table_name}) {{\n"));
            out.push_str(&format!(
                "      slew_axis : \"{}\";\n",
                join(lut.slew_axis())
            ));
            out.push_str(&format!(
                "      load_axis : \"{}\";\n",
                join(lut.load_axis())
            ));
            out.push_str(&format!("      values : \"{}\";\n", join(lut.values())));
            out.push_str("    }\n");
        }
        out.push_str("  }\n");
    }
    out.push_str("}\n");
    out
}

fn join(xs: &[f32]) -> String {
    xs.iter().map(f32::to_string).collect::<Vec<_>>().join(", ")
}

/// A parsed `name : value;` or group event from the tokenizer.
enum Event {
    GroupOpen { keyword: String, name: String },
    GroupClose,
    Attribute { name: String, value: String },
}

/// Strip comments and split into line-accurate events.
fn lex(text: &str) -> Result<Vec<(usize, Event)>, ParseLibertyError> {
    // Remove /* */ comments first (may span lines), preserving newlines so
    // line numbers stay correct.
    let mut cleaned = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(start) = rest.find("/*") {
        let (head, tail) = rest.split_at(start);
        cleaned.push_str(head);
        match tail.find("*/") {
            Some(end) => {
                for c in tail[..end + 2].chars().filter(|&c| c == '\n') {
                    cleaned.push(c);
                }
                rest = &tail[end + 2..];
            }
            None => {
                rest = "";
            }
        }
    }
    cleaned.push_str(rest);

    let mut events = Vec::new();
    for (i, raw_line) in cleaned.lines().enumerate() {
        let line_no = i + 1;
        let line = raw_line.split("//").next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        // A line may end with `{` (group open), be `}` (close), or be an
        // attribute `name : value ;`.
        if line == "}" {
            events.push((line_no, Event::GroupClose));
        } else if let Some(head) = line.strip_suffix('{') {
            let head = head.trim();
            let (keyword, name) = match head.find('(') {
                Some(p) => {
                    let keyword = head[..p].trim().to_owned();
                    let name = head[p + 1..].trim_end_matches(')').trim().to_owned();
                    (keyword, name)
                }
                None => (head.to_owned(), String::new()),
            };
            if keyword.is_empty() {
                return Err(ParseLibertyError::Syntax {
                    line: line_no,
                    message: "group without a keyword".into(),
                });
            }
            events.push((line_no, Event::GroupOpen { keyword, name }));
        } else if let Some(body) = line.strip_suffix(';') {
            let mut parts = body.splitn(2, ':');
            let name = parts.next().unwrap_or("").trim().to_owned();
            let value = parts
                .next()
                .ok_or_else(|| ParseLibertyError::Syntax {
                    line: line_no,
                    message: format!("attribute `{name}` has no value"),
                })?
                .trim()
                .trim_matches('"')
                .to_owned();
            events.push((line_no, Event::Attribute { name, value }));
        } else {
            return Err(ParseLibertyError::Syntax {
                line: line_no,
                message: format!("unrecognised construct `{line}`"),
            });
        }
    }
    Ok(events)
}

/// A finite number: a NaN or infinite delay, cap or resistance would turn
/// every arrival it reaches into ±inf, which the slack folds report as
/// timing met.
fn parse_f32(line: usize, name: &str, value: &str) -> Result<f32, ParseLibertyError> {
    match value.parse::<f32>() {
        Ok(x) if x.is_finite() => Ok(x),
        _ => Err(ParseLibertyError::Syntax {
            line,
            message: format!("attribute `{name}`: `{value}` is not a finite number"),
        }),
    }
}

fn parse_list(line: usize, name: &str, value: &str) -> Result<Vec<f32>, ParseLibertyError> {
    value
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|tok| parse_f32(line, name, tok))
        .collect()
}

/// A table axis: at least one point, strictly increasing — what
/// [`Lut2D::new`] requires.
fn parse_axis(line: usize, name: &str, value: &str) -> Result<Vec<f32>, ParseLibertyError> {
    let axis = parse_list(line, name, value)?;
    if axis.is_empty() || !axis.windows(2).all(|w| w[0] < w[1]) {
        return Err(ParseLibertyError::Syntax {
            line,
            message: format!("attribute `{name}`: `{value}` is not a strictly increasing axis"),
        });
    }
    Ok(axis)
}

/// Parse the Liberty subset back into a [`CellLibrary`].
///
/// # Errors
///
/// Returns [`ParseLibertyError`] on malformed input, unknown cells, or an
/// incomplete library (every [`CellKind`] needs a cell with all four
/// tables).
pub fn parse_liberty(text: &str) -> Result<CellLibrary, ParseLibertyError> {
    let events = lex(text)?;

    // Defaults inherited from the typical library, overridden by the file.
    let mut library = CellLibrary::typical();
    let mut found = vec![false; CellKind::all().len()];

    #[derive(Default)]
    struct LutDraft {
        slew_axis: Option<Vec<f32>>,
        load_axis: Option<Vec<f32>>,
        values: Option<Vec<f32>>,
    }
    struct CellDraft {
        kind: CellKind,
        input_cap: Option<f32>,
        clk_to_q: Option<f32>,
        setup: Option<f32>,
        tables: [Option<Lut2D>; 4],
    }

    let mut cell: Option<CellDraft> = None;
    let mut lut: Option<(usize, String, LutDraft)> = None; // (table idx, name, draft)
    let mut depth = 0usize;

    for (line, event) in events {
        match event {
            Event::GroupOpen { keyword, name } => {
                depth += 1;
                match (keyword.as_str(), depth) {
                    ("library", 1) => {}
                    ("cell", 2) => {
                        let kind = CellKind::from_name(&name)
                            .ok_or(ParseLibertyError::UnknownCell { name: name.clone() })?;
                        cell = Some(CellDraft {
                            kind,
                            input_cap: None,
                            clk_to_q: None,
                            setup: None,
                            tables: [None, None, None, None],
                        });
                    }
                    ("lut", 3) => {
                        let idx = ["delay_rise", "delay_fall", "slew_rise", "slew_fall"]
                            .iter()
                            .position(|&t| t == name)
                            .ok_or_else(|| ParseLibertyError::Syntax {
                                line,
                                message: format!("unknown table `{name}`"),
                            })?;
                        lut = Some((idx, name, LutDraft::default()));
                    }
                    _ => {
                        return Err(ParseLibertyError::Syntax {
                            line,
                            message: format!("unexpected group `{keyword}` at depth {depth}"),
                        })
                    }
                }
            }
            Event::GroupClose => {
                match depth {
                    3 => {
                        // Close a lut.
                        let (idx, name, draft) =
                            lut.take().ok_or_else(|| ParseLibertyError::Syntax {
                                line,
                                message: "unmatched `}`".into(),
                            })?;
                        let missing = |what: &str| ParseLibertyError::Syntax {
                            line,
                            message: format!("table `{name}` missing `{what}`"),
                        };
                        let slew = draft.slew_axis.ok_or_else(|| missing("slew_axis"))?;
                        let load = draft.load_axis.ok_or_else(|| missing("load_axis"))?;
                        let values = draft.values.ok_or_else(|| missing("values"))?;
                        if values.len() != slew.len() * load.len() {
                            return Err(ParseLibertyError::Syntax {
                                line,
                                message: format!(
                                    "table `{name}`: {} values for a {}x{} grid",
                                    values.len(),
                                    slew.len(),
                                    load.len()
                                ),
                            });
                        }
                        let cell_ref = cell.as_mut().ok_or_else(|| ParseLibertyError::Syntax {
                            line,
                            message: "lut outside a cell".into(),
                        })?;
                        cell_ref.tables[idx] = Some(Lut2D::new(slew, load, values));
                    }
                    2 => {
                        // Close a cell.
                        let draft = cell.take().ok_or_else(|| ParseLibertyError::Syntax {
                            line,
                            message: "unmatched `}`".into(),
                        })?;
                        let cell_name = draft.kind.to_string();
                        let [delay_rise, delay_fall, slew_rise, slew_fall] = draft.tables;
                        let require = |t: Option<Lut2D>, table: &str| {
                            t.ok_or_else(|| ParseLibertyError::MissingTable {
                                cell: cell_name.clone(),
                                table: table.to_owned(),
                            })
                        };
                        let timing = CellTiming {
                            input_cap_ff: draft.input_cap.unwrap_or(1.0),
                            tables: ArcTables {
                                delay_rise: require(delay_rise, "delay_rise")?,
                                delay_fall: require(delay_fall, "delay_fall")?,
                                slew_rise: require(slew_rise, "slew_rise")?,
                                slew_fall: require(slew_fall, "slew_fall")?,
                            },
                            clk_to_q_ps: draft.clk_to_q.unwrap_or(0.0),
                            setup_ps: draft.setup.unwrap_or(0.0),
                        };
                        let idx = CellKind::all()
                            .iter()
                            .position(|&k| k == draft.kind)
                            .ok_or_else(|| ParseLibertyError::Syntax {
                                line,
                                message: format!("cell `{cell_name}` missing from CellKind::all()"),
                            })?;
                        library.set_cell(draft.kind, timing);
                        found[idx] = true;
                    }
                    1 => {}
                    _ => {
                        return Err(ParseLibertyError::Syntax {
                            line,
                            message: "unmatched `}`".into(),
                        })
                    }
                }
                depth = depth.saturating_sub(1);
            }
            Event::Attribute { name, value } => {
                // Structural invariant (any depth-2/3 open that is not a
                // cell/lut errors above), but surfaced as a parse error
                // rather than a panic so a malformed file can never take
                // the process down.
                fn in_cell(
                    c: &mut Option<CellDraft>,
                    line: usize,
                ) -> Result<&mut CellDraft, ParseLibertyError> {
                    c.as_mut().ok_or(ParseLibertyError::Syntax {
                        line,
                        message: "attribute outside a cell".into(),
                    })
                }
                fn in_lut(
                    l: &mut Option<(usize, String, LutDraft)>,
                    line: usize,
                ) -> Result<&mut LutDraft, ParseLibertyError> {
                    l.as_mut()
                        .map(|l| &mut l.2)
                        .ok_or(ParseLibertyError::Syntax {
                            line,
                            message: "attribute outside a table".into(),
                        })
                }
                match (depth, name.as_str()) {
                    (1, "input_slew") => library.input_slew_ps = parse_f32(line, &name, &value)?,
                    (1, "output_load") => library.output_load_ff = parse_f32(line, &name, &value)?,
                    (1, "wire_res") => library.wire_res_ps_per_ff = parse_f32(line, &name, &value)?,
                    (2, "input_cap") => {
                        in_cell(&mut cell, line)?.input_cap = Some(parse_f32(line, &name, &value)?)
                    }
                    (2, "clk_to_q") => {
                        in_cell(&mut cell, line)?.clk_to_q = Some(parse_f32(line, &name, &value)?)
                    }
                    (2, "setup") => {
                        in_cell(&mut cell, line)?.setup = Some(parse_f32(line, &name, &value)?)
                    }
                    (3, "slew_axis") => {
                        in_lut(&mut lut, line)?.slew_axis = Some(parse_axis(line, &name, &value)?)
                    }
                    (3, "load_axis") => {
                        in_lut(&mut lut, line)?.load_axis = Some(parse_axis(line, &name, &value)?)
                    }
                    (3, "values") => {
                        in_lut(&mut lut, line)?.values = Some(parse_list(line, &name, &value)?)
                    }
                    _ => {
                        return Err(ParseLibertyError::Syntax {
                            line,
                            message: format!("unexpected attribute `{name}` at depth {depth}"),
                        })
                    }
                }
            }
        }
    }

    let missing = found.iter().filter(|&&f| !f).count();
    if missing > 0 {
        return Err(ParseLibertyError::MissingCells { missing });
    }
    Ok(library)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_typical_library() {
        let lib = CellLibrary::typical();
        let text = write_liberty(&lib, "typical");
        let back = parse_liberty(&text).expect("own output parses");
        assert_eq!(lib, back);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let lib = CellLibrary::typical();
        let mut text = String::from("// header comment\n/* block\ncomment */\n");
        text.push_str(&write_liberty(&lib, "t"));
        let back = parse_liberty(&text).expect("comments stripped");
        assert_eq!(lib, back);
    }

    #[test]
    fn overrides_scalar_attributes() {
        let lib = CellLibrary::typical();
        let text = write_liberty(&lib, "t").replace("input_slew : 20;", "input_slew : 35.5;");
        let back = parse_liberty(&text).expect("parses");
        assert_eq!(back.input_slew_ps, 35.5);
    }

    #[test]
    fn unknown_cell_rejected() {
        let text = "library (t) {\n  cell (FROB) {\n  }\n}\n";
        assert!(matches!(
            parse_liberty(text),
            Err(ParseLibertyError::UnknownCell { .. })
        ));
    }

    #[test]
    fn missing_table_rejected() {
        let lib = CellLibrary::typical();
        // Remove one lut group from INV by renaming it to a second
        // delay_rise (leaving delay_fall missing).
        let text = write_liberty(&lib, "t").replacen("lut (delay_fall)", "lut (delay_rise)", 1);
        assert!(matches!(
            parse_liberty(&text),
            Err(ParseLibertyError::MissingTable { .. })
        ));
    }

    #[test]
    fn bad_value_count_rejected() {
        let text = r#"library (t) {
  cell (INV) {
    lut (delay_rise) {
      slew_axis : "1, 2";
      load_axis : "1";
      values : "1, 2, 3";
    }
  }
}
"#;
        match parse_liberty(text) {
            Err(ParseLibertyError::Syntax { message, .. }) => {
                assert!(message.contains("3 values"), "{message}");
            }
            other => panic!("expected syntax error, got {other:?}"),
        }
    }

    #[test]
    fn a_malformed_axis_or_number_is_a_syntax_error_at_its_line() {
        let text = write_liberty(&CellLibrary::typical(), "t");
        for (attribute, bad) in [
            ("slew_axis", "\"320, 160, 80, 40, 20, 10, 5\""),
            ("slew_axis", "\"\""),
            ("slew_axis", "\"5, NaN, 20, 40, 80, 160, 320\""),
            ("load_axis", "\"0.5, 1, 1, 4, 8, 16, 32\""),
            ("wire_res", "NaN"),
            ("setup", "inf"),
        ] {
            let at = |l: &&str| l.trim().starts_with(&format!("{attribute} :"));
            let first = text.lines().position(|l| at(&l)).expect("attribute");
            let good = text.lines().find(at).expect("line").trim();
            let text = text.replacen(good, &format!("{attribute} : {bad};"), 1);
            match parse_liberty(&text) {
                Err(ParseLibertyError::Syntax { line, message }) => {
                    assert_eq!(line, first + 1, "{bad}: {message}");
                    assert!(message.contains(attribute), "{message}");
                }
                other => panic!("{attribute} {bad}: expected a syntax error, got {other:?}"),
            }
        }
    }

    #[test]
    fn incomplete_library_rejected() {
        let lib = CellLibrary::typical();
        let full = write_liberty(&lib, "t");
        // Drop the last cell block entirely.
        let cut = full.rfind("  cell (").expect("has cells");
        let truncated = format!("{}}}\n", &full[..cut]);
        assert!(matches!(
            parse_liberty(&truncated),
            Err(ParseLibertyError::MissingCells { missing: 1 })
        ));
    }

    #[test]
    fn syntax_error_reports_line() {
        let text = "library (t) {\n  what is this\n}\n";
        match parse_liberty(text) {
            Err(ParseLibertyError::Syntax { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected syntax error, got {other:?}"),
        }
    }

    #[test]
    fn errors_display_cleanly() {
        let e = ParseLibertyError::MissingTable {
            cell: "INV".into(),
            table: "slew_rise".into(),
        };
        assert!(e.to_string().contains("INV"));
        assert!(e.to_string().contains("slew_rise"));
    }
}
