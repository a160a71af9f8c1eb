//! Lexer edge cases as an executable fixture: every lint trigger below
//! sits inside a raw string, byte string, nested block comment, or char
//! literal, so a correct lexer reports exactly ONE violation in this
//! file — the real `bytes[0]` at the end — at exactly the right line,
//! even after multi-line literals.

fn raw_string_is_opaque() -> &'static str {
    r#"x[0]; model.fit(test_frame); y == 0.5"#
}

fn raw_hash_string_is_opaque() -> &'static str {
    r##"nested "quote # inside" y[1] impl TestSetVault"##
}

fn byte_string_is_opaque() -> &'static [u8] {
    b"q[2] != 1.5 vault.fit(0)"
}

fn raw_byte_string_is_opaque() -> &'static [u8] {
    br#"a == b as f64 plus data[0]"#
}

fn multiline_raw_keeps_line_numbers() -> &'static str {
    r#"line one
z[3]
line three"#
}

/* outer comment /* nested: q[4] and model.fit(holdout) */ still inside
   the outer comment, so still inert: w == 2.5 */

fn lifetime_is_not_a_char_literal(c: char) -> bool {
    let held: Option<&'static str> = None;
    c == 'a' && held.is_none()
}

fn the_one_real_violation(bytes: &[u8]) -> u8 {
    bytes[0]
}
