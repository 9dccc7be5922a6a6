//! The JSON codec on generated input. A deterministic generator built
//! on `tta_base::hash::mix` draws value trees with every escape, every
//! control byte, multi-byte UTF-8, the integer extremes and
//! shortest-round-trip floats, nested down to the depth limit; then:
//!
//! * printing then parsing returns the original value;
//! * every truncation and every single-bit flip of a rendering parses
//!   or fails with an in-range offset, and never panics;
//! * parsing is linear: a 1 MiB document parses in well under a second
//!   even in a debug build.

use std::time::{Duration, Instant};
use tta_base::hash::mix;
use tta_base::json::Json;

/// A deterministic SplitMix64 stream.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// A short string over plain ASCII, the characters with short escapes,
/// every control byte 0x00–0x1F, and 2-, 3- and 4-byte UTF-8.
fn string(g: &mut Gen) -> String {
    (0..g.below(12))
        .map(|_| match g.below(4) {
            0 => char::from(g.below(0x20) as u8),
            1 => g.pick(&['"', '\\', '/', ' ']),
            2 => g.pick(&['é', 'ß', '€', '\u{2028}', '\u{FFFF}', '😀']),
            _ => char::from(b'a' + g.below(26) as u8),
        })
        .collect()
}

/// A finite float that reads back in the float lane. Whole values that
/// fit an integer lane (±0 included) render as integer tokens and read
/// back as integers; the codec's unit tests pin that separately.
fn float(g: &mut Gen) -> f64 {
    loop {
        let x = match g.below(3) {
            // Any bit pattern: subnormals, tiny and huge magnitudes.
            0 => f64::from_bits(g.next()),
            1 => (g.next() >> 11) as f64 / (1u64 << 53) as f64 * 1000.0 - 500.0,
            _ => g.pick(&[0.1, 1.0 / 3.0, -2.5e-10, 5e-324, 1e300, f64::MAX, 0.015_625]),
        };
        if x.is_finite() && (x.fract() != 0.0 || x.abs() >= 2f64.powi(64)) {
            return x;
        }
    }
}

fn number(g: &mut Gen) -> Json {
    match g.below(5) {
        0 => Json::UInt(g.pick(&[0, 1, u64::MAX, 1 << 53, (1 << 53) + 1])),
        1 => Json::UInt(g.next()),
        // The signed lane holds negative tokens only.
        2 => Json::Int(g.pick(&[i64::MIN, i64::MIN + 1, -1])),
        3 => Json::Int(-((g.next() >> 1) as i64) - 1),
        _ => Json::Float(float(g)),
    }
}

/// A random tree, containers nesting at most `6 - depth` levels deeper.
fn value(g: &mut Gen, depth: usize) -> Json {
    let kind = if depth < 6 && g.below(3) == 0 {
        6 + g.below(2)
    } else {
        g.below(6)
    };
    match kind {
        0 => Json::Null,
        1 => Json::Bool(g.below(2) == 0),
        2 | 3 => number(g),
        4 | 5 => Json::Str(string(g)),
        6 => Json::Arr((0..g.below(5)).map(|_| value(g, depth + 1)).collect()),
        _ => Json::Obj(
            (0..g.below(5))
                .map(|_| (string(g), value(g, depth + 1)))
                .collect(),
        ),
    }
}

/// `depth` containers, alternately arrays and objects, around a
/// number: the number sits at nesting depth `depth`.
fn nested(g: &mut Gen, depth: usize) -> Json {
    (0..depth).fold(number(g), |inner, level| {
        if level % 2 == 0 {
            Json::Arr(vec![Json::Null, inner])
        } else {
            Json::Obj(vec![(string(g), inner)])
        }
    })
}

/// The deepest nesting the parser accepts.
const DEPTH_LIMIT: usize = 64;

#[test]
fn generated_trees_round_trip() {
    let mut g = Gen(0x7A);
    for _ in 0..2_000 {
        let tree = value(&mut g, 0);
        assert_eq!(Json::parse(&tree.render()), Ok(tree.clone()));
        assert_eq!(Json::parse(&tree.render_pretty()), Ok(tree));
    }
}

#[test]
fn nesting_round_trips_down_to_the_depth_limit() {
    let mut g = Gen(0xDE);
    for depth in 0..=DEPTH_LIMIT {
        let tree = nested(&mut g, depth);
        assert_eq!(
            Json::parse(&tree.render()),
            Ok(tree.clone()),
            "depth {depth}"
        );
        assert_eq!(
            Json::parse(&tree.render_pretty()),
            Ok(tree),
            "depth {depth}"
        );
    }
    let too_deep = nested(&mut g, DEPTH_LIMIT + 1).render();
    let error = Json::parse(&too_deep).unwrap_err();
    assert_eq!(error.message, "value nested too deeply");
}

#[test]
fn generated_floats_render_shortest_and_round_trip() {
    let mut g = Gen(0xF1);
    for _ in 0..10_000 {
        let x = float(&mut g);
        let rendered = Json::Float(x).render();
        assert_eq!(rendered, x.to_string(), "shortest round-trip digits");
        assert_eq!(Json::parse(&rendered), Ok(Json::Float(x)));
    }
}

/// Parses `text` and checks that a failure points inside the input.
fn parse_contained(text: &str) -> Result<Json, ()> {
    Json::parse(text).map_err(|e| {
        assert!(e.offset <= text.len(), "{e} beyond {} bytes", text.len());
    })
}

#[test]
fn every_truncation_and_bit_flip_parses_or_errs() {
    let mut g = Gen(0xB17);
    let mut checked = 0usize;
    let mut total = 0;
    while total < 16 << 10 {
        let tree = Json::Arr((0..6).map(|_| value(&mut g, 0)).collect());
        let text = tree.render();
        total += text.len();
        for cut in (0..text.len()).filter(|&cut| text.is_char_boundary(cut)) {
            // A strict prefix of an array is never a whole document.
            assert!(parse_contained(&text[..cut]).is_err(), "{cut}");
        }
        let mut bytes = text.into_bytes();
        for at in 0..bytes.len() {
            for bit in 0..8 {
                bytes[at] ^= 1 << bit;
                // The parser takes `&str`: flips that break UTF-8
                // cannot reach it.
                if let Ok(flipped) = std::str::from_utf8(&bytes) {
                    let _ = parse_contained(flipped);
                    checked += 1;
                }
                bytes[at] ^= 1 << bit;
            }
        }
    }
    assert!(checked > 64 << 10, "only {checked} flips were valid UTF-8");
}

#[test]
#[cfg_attr(miri, ignore)]
fn parsing_is_linear_time() {
    const MIB: usize = 1 << 20;
    let mut g = Gen(0x11);
    let mut strings = String::from("[");
    while strings.len() < MIB {
        if strings.len() > 1 {
            strings.push(',');
        }
        let item = format!("trial-{} é✓\t{}", g.below(10_000), g.below(100));
        strings.push_str(&Json::str(item).render());
    }
    strings.push(']');
    let long = Json::str("x€".repeat(MIB / 4)).render();
    for text in [strings, long] {
        let started = Instant::now();
        let parsed = Json::parse(&text);
        let took = started.elapsed();
        assert!(parsed.is_ok());
        assert!(
            took < Duration::from_secs(1),
            "{} bytes took {took:?} to parse",
            text.len()
        );
    }
}
