//! Adversarial hardening for the interchange parsers: `parse_verilog`,
//! `parse_liberty`, and `apply_sdc` must return `Err` — never panic, hang,
//! or overflow the stack — on truncated, interleaved, and garbage input.
//!
//! The round-trip suites (`tests/proptest_io.rs`, the in-crate sdc tests)
//! pin what the parsers *accept*; this suite pins how they *fail*. The
//! vendored proptest stub has no string strategies, so malformed text is
//! assembled from token tables indexed by generated integers — which also
//! keeps every case within the parsers' own lexical alphabet, where bugs
//! hide (pure binary garbage dies in the lexer immediately).

use gpasta::sta::{
    apply_sdc, parse_liberty, parse_verilog, write_liberty, write_sdc, write_verilog, CellKind,
    CellLibrary, NetlistBuilder, ParseLibertyError, Timer,
};
use proptest::prelude::*;

/// Every lexical token the Verilog reader knows, plus near-miss garbage.
const VERILOG_TOKENS: &[&str] = &[
    "module",
    "endmodule",
    "input",
    "output",
    "wire",
    "(",
    ")",
    ";",
    ",",
    "m",
    "a",
    "b",
    "y",
    "w0",
    "u1",
    "nand2",
    "inv",
    "dff",
    "//",
    "/*",
    "*/",
    ".",
    "0",
    "1'b0",
    "%",
    "modul",
    "énd",
    "\n",
];

/// Liberty grammar tokens plus malformed numbers and stray structure.
const LIBERTY_TOKENS: &[&str] = &[
    "library",
    "cell",
    "pin",
    "timing",
    "lu_table_template",
    "(",
    ")",
    "{",
    "}",
    ":",
    ";",
    ",",
    "\"",
    "values",
    "index_1",
    "index_2",
    "cell_rise",
    "rise_transition",
    "direction",
    "1.5",
    "-3e99",
    "nan",
    "l",
    "c",
    "A",
    "Z",
    "..",
    "\n",
];

/// SDC command fragments, valid and broken.
const SDC_TOKENS: &[&str] = &[
    "create_clock",
    "-period",
    "set_input_delay",
    "set_output_delay",
    "set_input_slew",
    "set_load",
    "[get_ports",
    "]",
    "a",
    "y",
    "no_such_port",
    "12.5",
    "-7",
    "1e999",
    "#",
    "\n",
];

/// Join table tokens into a text blob; the joiner alternates so tokens are
/// sometimes glued together (lexer stress) and sometimes separated.
fn assemble(table: &[&str], picks: &[usize]) -> String {
    let mut out = String::new();
    for (i, &p) in picks.iter().enumerate() {
        out.push_str(table[p % table.len()]);
        if i % 3 != 2 {
            out.push(' ');
        }
    }
    out
}

/// Clamp a byte offset down to a char boundary so truncation is valid UTF-8.
fn truncate_at(text: &str, mut cut: usize) -> &str {
    cut = cut.min(text.len());
    while !text.is_char_boundary(cut) {
        cut -= 1;
    }
    &text[..cut]
}

/// A well-formed netlist to truncate and corrupt.
fn valid_verilog() -> String {
    let mut nb = NetlistBuilder::new();
    let a = nb.add_primary_input("a");
    let b = nb.add_primary_input("b");
    let y = nb.add_primary_output("y");
    let g0 = nb.add_gate("u0", CellKind::Nand2);
    let g1 = nb.add_gate("u1", CellKind::Inv);
    nb.connect_to_gate(a, g0, 0).expect("valid");
    nb.connect_to_gate(b, g0, 1).expect("valid");
    nb.connect_gates(g0, g1, 0).expect("valid");
    nb.connect_to_output(g1, y).expect("valid");
    write_verilog(&nb.build().expect("well-formed"), "top")
}

/// A one-gate design for `apply_sdc`, rebuilt per case (the parser mutates
/// the timer, so cases must not share state).
fn tiny_timer() -> Timer {
    let mut nb = NetlistBuilder::new();
    let a = nb.add_primary_input("a");
    let g = nb.add_gate("u1", CellKind::Inv);
    let y = nb.add_primary_output("y");
    nb.connect_to_gate(a, g, 0).expect("valid");
    nb.connect_to_output(g, y).expect("valid");
    Timer::new(nb.build().expect("well-formed"), CellLibrary::typical())
}

/// Case count: `default`, unless `PROPTEST_CASES` overrides it (the
/// nightly CI job raises it).
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(48)))]

    // --- garbage token streams: any outcome but a panic ---------------

    #[test]
    fn verilog_never_panics_on_token_soup(
        picks in proptest::collection::vec(0usize..VERILOG_TOKENS.len(), 0..200),
    ) {
        let _ = parse_verilog(&assemble(VERILOG_TOKENS, &picks));
    }

    #[test]
    fn liberty_never_panics_on_token_soup(
        picks in proptest::collection::vec(0usize..LIBERTY_TOKENS.len(), 0..200),
    ) {
        let _ = parse_liberty(&assemble(LIBERTY_TOKENS, &picks));
    }

    #[test]
    fn sdc_never_panics_on_token_soup(
        picks in proptest::collection::vec(0usize..SDC_TOKENS.len(), 0..120),
    ) {
        let mut timer = tiny_timer();
        let _ = apply_sdc(&mut timer, &assemble(SDC_TOKENS, &picks));
    }

    // --- truncation: every prefix of valid output parses or errs ------

    #[test]
    fn verilog_never_panics_on_truncated_valid_input(cut in 0usize..4096) {
        let text = valid_verilog();
        let _ = parse_verilog(truncate_at(&text, cut % (text.len() + 1)));
    }

    #[test]
    fn liberty_never_panics_on_truncated_valid_input(cut in 0usize..65536) {
        let text = write_liberty(&CellLibrary::typical(), "typ");
        let _ = parse_liberty(truncate_at(&text, cut % (text.len() + 1)));
    }

    #[test]
    fn sdc_never_panics_on_truncated_valid_input(cut in 0usize..4096) {
        let text = {
            let timer = tiny_timer();
            write_sdc(&timer)
        };
        let mut timer = tiny_timer();
        let _ = apply_sdc(&mut timer, truncate_at(&text, cut % (text.len() + 1)));
    }

    // --- interleaving: garbage spliced into valid text -----------------

    #[test]
    fn verilog_never_panics_on_interleaved_garbage(
        at in 0usize..4096,
        picks in proptest::collection::vec(0usize..VERILOG_TOKENS.len(), 1..12),
    ) {
        let text = valid_verilog();
        let cut = {
            let mut c = at % (text.len() + 1);
            while !text.is_char_boundary(c) {
                c -= 1;
            }
            c
        };
        let spliced = format!(
            "{} {} {}",
            &text[..cut],
            assemble(VERILOG_TOKENS, &picks),
            &text[cut..]
        );
        let _ = parse_verilog(&spliced);
    }

    #[test]
    fn liberty_never_panics_on_interleaved_garbage(
        at in 0usize..65536,
        picks in proptest::collection::vec(0usize..LIBERTY_TOKENS.len(), 1..12),
    ) {
        let text = write_liberty(&CellLibrary::typical(), "typ");
        let cut = {
            let mut c = at % (text.len() + 1);
            while !text.is_char_boundary(c) {
                c -= 1;
            }
            c
        };
        let spliced = format!(
            "{} {} {}",
            &text[..cut],
            assemble(LIBERTY_TOKENS, &picks),
            &text[cut..]
        );
        let _ = parse_liberty(&spliced);
    }
}

/// `points` malformed as `form` picks: reversed, empty, or with the point
/// at `at` replaced by NaN.
fn malformed_axis(points: &str, form: u8, at: usize) -> String {
    let mut points: Vec<&str> = points.split(", ").collect();
    match form {
        0 => points.reverse(),
        1 => points.clear(),
        _ => {
            let i = at % points.len();
            points[i] = "NaN";
        }
    }
    points.join(", ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(64)))]

    /// Any one axis of a valid library made reversed, empty or NaN is a
    /// syntax error at that axis's line, not a panic.
    #[test]
    fn liberty_rejects_a_malformed_axis_at_its_line(
        which in 0usize..1024,
        form in 0u8..3,
        at in 0usize..16,
    ) {
        let text = write_liberty(&CellLibrary::typical(), "typ");
        let axes: Vec<usize> = (text.lines().enumerate())
            .filter(|(_, l)| l.contains("_axis :"))
            .map(|(i, _)| i)
            .collect();
        let line = axes[which % axes.len()];
        let bad: Vec<String> = (text.lines().enumerate())
            .map(|(i, l)| match l.split_once('"') {
                Some((head, points)) if i == line => {
                    let points = points.trim_end_matches("\";");
                    format!("{head}\"{}\";", malformed_axis(points, form, at))
                }
                _ => l.to_owned(),
            })
            .collect();
        match parse_liberty(&bad.join("\n")) {
            Err(ParseLibertyError::Syntax { line: got, .. }) => prop_assert_eq!(got, line + 1),
            other => prop_assert!(false, "expected a syntax error, got {:?}", other),
        }
    }
}

// --- deeply repeated tokens: no recursion blow-ups --------------------

#[test]
fn verilog_survives_deeply_nested_parens() {
    assert!(parse_verilog(&"(".repeat(100_000)).is_err());
    assert!(parse_verilog(&"( )".repeat(50_000)).is_err());
}

#[test]
fn verilog_survives_huge_flat_bodies() {
    let text = format!("module m;\n{}\nendmodule\n", "wire w;\n".repeat(50_000));
    // Duplicate wire declarations are tolerated or rejected — just not a
    // crash; a huge but well-formed body must stay linear-time.
    let _ = parse_verilog(&text);
}

#[test]
fn liberty_survives_deeply_nested_braces() {
    assert!(parse_liberty(&"{".repeat(100_000)).is_err());
    assert!(parse_liberty(&format!("library (l) {{ {}", "cell (c) { ".repeat(40_000))).is_err());
}

#[test]
fn liberty_survives_unterminated_string() {
    let mut text = write_liberty(&CellLibrary::typical(), "typ");
    text.push('"');
    let _ = parse_liberty(&text);
}

#[test]
fn sdc_survives_huge_line_and_huge_file() {
    let mut timer = tiny_timer();
    assert!(apply_sdc(&mut timer, &"[get_ports ".repeat(50_000)).is_err());
    let many = "create_clock -period 1000\n".repeat(50_000);
    apply_sdc(&mut timer, &many).expect("repeated valid commands apply");
}

#[test]
fn parser_errors_carry_actionable_context() {
    // Errors are part of the CLI surface (`gpasta sta` prints them
    // verbatim): they must name the offending construct.
    let err =
        parse_verilog("module m(a); input a; not u1(y, a); endmodule").expect_err("unknown cell");
    assert!(err.to_string().contains("not"), "err was: {err}");
    let mut timer = tiny_timer();
    let err = apply_sdc(&mut timer, "set_input_delay 5 [get_ports zz]").expect_err("unknown port");
    assert!(err.to_string().contains("zz"), "err was: {err}");
}
