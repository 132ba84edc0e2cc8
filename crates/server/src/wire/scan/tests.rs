//! The lexer's string scan and row walk against the loops they replaced.

use super::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The byte-at-a-time loop the word-at-a-time string scan replaced: the
/// oracle it must agree with. `quote` is the opening quote's position;
/// the scanned string and the position after its closing quote, or the
/// flaw and its byte.
fn string_bytewise(text: &str, quote: usize) -> Result<(RawStr<'_>, usize), Flaw> {
    let bytes = text.as_bytes();
    let start = quote + 1;
    let (mut pos, mut escaped) = (start, false);
    let flaw = |what, at| Err(Flaw { what, at });
    loop {
        match bytes.get(pos) {
            None => return flaw("unterminated string", pos),
            Some(b'"') => break,
            Some(b'\\') => {
                escaped = true;
                match escape(bytes, pos + 1) {
                    Some((_, next)) => pos = next,
                    None => return flaw("invalid escape", pos),
                }
            }
            Some(0..=0x1f) => return flaw("raw control byte in a string", pos),
            Some(_) => pos += 1,
        }
    }
    let content = &text[start..pos];
    Ok((RawStr { content, escaped }, pos + 1))
}

/// What a string body is made of: mostly plain ASCII, in runs long and
/// short, and now and then a quote, a valid or an invalid escape, a raw
/// control byte or a multibyte character.
fn pieces() -> Vec<String> {
    let esc = |rest: &str| format!("{}{rest}", '\\');
    let mut pieces: Vec<String> = ["a", "zip", "EH8 4AH", "a longer plain run of text", " "]
        .iter()
        .flat_map(|plain| std::iter::repeat_n(plain.to_string(), 6))
        .collect();
    pieces.extend(["\"", "é", "🦀", "中文", "\u{7f}"].map(String::from));
    // Valid escapes: every letter, a code unit, a surrogate pair.
    for rest in ["\"", "\\", "/", "b", "f", "n", "r", "t", "u0041", "u00e9"] {
        pieces.push(esc(rest));
    }
    pieces.push(esc("ud83e") + &esc("udd80"));
    // Invalid ones: an unknown letter, short or non-hex digits, lone or
    // mismatched surrogate halves, a backslash at the very end.
    for rest in ["q", "u12", "u12G4", "ud800", "udc00", "U0041", ""] {
        pieces.push(esc(rest));
    }
    pieces.push(esc("ud800") + &esc("u0041"));
    // Raw control bytes.
    for byte in [0u8, b'\t', b'\n', 0x1f] {
        pieces.push(char::from(byte).to_string());
    }
    pieces
}

/// The word-at-a-time scan accepts and rejects exactly as the byte loop
/// does — same content, same end, same flaw at the same byte — on random
/// bodies whose opening quote sits at every offset from 0 to 15, so each
/// byte of a body is met at every position inside a word.
#[test]
fn word_at_a_time_strings_agree_with_the_byte_loop() {
    let pieces = pieces();
    let mut rng = StdRng::seed_from_u64(0x0571_31A6);
    // Accepted, unterminated, invalid escape, raw control byte.
    let mut verdicts = [0usize; 4];
    for _ in 0..3000 {
        let mut body = String::new();
        for _ in 0..rng.gen_range(0..24) {
            body.push_str(&pieces[rng.gen_range(0..pieces.len())]);
        }
        for offset in 0..16 {
            let text = format!("{}\"{body}", " ".repeat(offset));
            let mut lexer = Lexer::new(&text);
            lexer.pos = offset;
            let scanned = lexer.string().map(|s| (s, lexer.pos));
            let oracle = string_bytewise(&text, offset);
            assert_eq!(scanned, oracle, "{text:?}");
            if offset == 0 {
                verdicts[match oracle {
                    Ok(_) => 0,
                    Err(Flaw { what, .. }) => match what {
                        "unterminated string" => 1,
                        "invalid escape" => 2,
                        _ => 3,
                    },
                }] += 1;
            }
        }
    }
    assert!(verdicts.iter().all(|&n| n >= 100), "{verdicts:?}");
}

/// The plain-run skip stops exactly at the first quote, backslash or
/// control byte, whichever byte of a word it is, and leaves fewer than
/// eight bytes to the byte loop.
#[test]
fn a_plain_run_stops_at_the_first_special_byte() {
    for special in [b'"', b'\\', 0, b'\t', 0x1f] {
        for at in 0..20 {
            let mut bytes = vec![b'x'; 20];
            bytes[at] = special;
            // Bytes that look special to a careless test do not stop it.
            bytes[(at + 1) % 20] = 0x7f;
            let stop = plain_run(&bytes, 0);
            assert_eq!(stop, at.min(16), "{special:#x} at {at}");
        }
    }
    assert_eq!(plain_run("é🦀 plain and long".as_bytes(), 0), 16);
    assert_eq!(plain_run(b"short", 0), 0);
}

/// A row walked in place hands out the cells a second scanner over the
/// row's span reads, and leaves the rows' scanner where stepping over the
/// row would: at the next row, or at a flaw reported at the same byte.
#[test]
fn next_array_reads_what_a_scanner_over_the_span_reads() {
    let texts = [
        r#"[["a","b\"c",1,null],[],[true,[1,{"x":[]}],{"y":2}],"s",7,{"k":[1]}, [ "sp" , 2 ] ]"#,
        r#"[["a"],["b",]]"#,
        r#"[["a"],["b" "c"]]"#,
        r#"[["a"],["b"],]"#,
        r#"[[1,2],[3"#,
    ];
    for text in texts {
        let (mut walked, mut scanned) = (
            ArrayScanner::new(text).unwrap(),
            ArrayScanner::new(text).unwrap(),
        );
        loop {
            let mut cells = Vec::new();
            let row = walked.next_array(|cell| {
                cells.push(cell);
                Ok::<(), ()>(())
            });
            let value = scanned.next_value();
            match (row, value) {
                (None, None) => break,
                (Some(Ok(true)), Some(RawValue::Arr(span))) => {
                    let mut over_span = ArrayScanner::new(span).unwrap();
                    let expected: Vec<_> = std::iter::from_fn(|| over_span.next_value()).collect();
                    assert_eq!(cells, expected, "{text}");
                }
                (Some(Ok(false)), Some(value)) => {
                    assert!(!matches!(value, RawValue::Arr(_)), "{text}");
                    assert!(cells.is_empty(), "{text}");
                }
                (row, value) => panic!("{text}: walked {row:?}, scanned {value:?}"),
            }
        }
        assert_eq!(walked.finish(), scanned.finish(), "{text}");
    }
    // A refused cell stops the row, and the walk goes on at the next one.
    let mut rows = ArrayScanner::new(r#"[[1,[2,3],4],[5]]"#).unwrap();
    let refused = rows.next_array(|cell| match cell {
        RawValue::Arr(span) => Err(span),
        _ => Ok(()),
    });
    assert_eq!(refused, Some(Err("[2,3]")));
    let mut next = Vec::new();
    let row = rows.next_array(|cell| {
        next.push(cell);
        Ok::<(), ()>(())
    });
    assert_eq!((row, next), (Some(Ok(true)), vec![RawValue::Num(5.0)]));
    assert_eq!(rows.next_array(|_| Ok::<(), ()>(())), None);
    assert_eq!(rows.finish(), Ok(()));
}
