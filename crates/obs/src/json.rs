//! The workspace's one JSON writer and one JSON parser.
//!
//! The workspace deliberately carries no serde (DESIGN.md §6). Every JSON
//! document the exporters and the admin plane emit is built with
//! [`Writer`]; everything that reads JSON back (span-file merging, tests,
//! `jsonv`, the perf ledger) goes through [`parse`], a strict-enough
//! recursive-descent parser for machine-generated JSON: objects, arrays,
//! strings with `\uXXXX` escapes, numbers, booleans, null. Neither is
//! meant as a general-purpose JSON library.
//!
//! **The number rule.** Integers are written as integers and never pass
//! through `f64`; a non-negative integer lexeme that fits `u64` parses to
//! [`Json::UInt`] and round-trips exactly over the whole range. An `f64` is
//! written with Rust's shortest round-trip `Display` (no exponent, no
//! fixed precision); non-finite values are written as `null` and negative
//! zero — what an empty `f64` sum yields — as `0`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::str::Chars;

/// Builds one JSON document in a `String`: keys in call order, commas
/// placed by the writer, strings escaped per RFC 8259, numbers per the
/// module's number rule.
#[derive(Debug, Default)]
pub struct Writer(String);

impl Writer {
    /// The newline-terminated document made of the one value `body` writes.
    pub fn document(body: impl FnOnce(&mut Writer)) -> String {
        let mut w = Writer::default();
        body(&mut w);
        w.0.push('\n');
        w.0
    }

    /// The document that is one object with `members`.
    pub fn object(members: impl FnOnce(&mut Writer)) -> String {
        Writer::document(|w| w.obj(members))
    }

    /// The buffer, positioned for the next value: a comma is due unless
    /// the value opens its container, follows its key, or starts a line.
    /// Strings end in `"` and scalars in a digit or letter, so the last
    /// byte alone tells.
    fn item(&mut self) -> &mut String {
        if !matches!(self.0.as_bytes().last(), None | Some(b'{' | b'[' | b':' | b'\n')) {
            self.0.push(',');
        }
        &mut self.0
    }

    /// Puts the next value on a line of its own (one record per line in
    /// the file exports).
    pub fn line(&mut self) {
        self.item().push('\n');
    }

    /// An object whose members `members` writes as `key(..)` + value.
    pub fn obj(&mut self, members: impl FnOnce(&mut Writer)) {
        self.item().push('{');
        members(self);
        self.0.push('}');
    }

    /// An array whose elements `items` writes.
    pub fn arr(&mut self, items: impl FnOnce(&mut Writer)) {
        self.item().push('[');
        items(self);
        self.0.push(']');
    }

    /// An array of strings.
    pub fn strs<S: AsRef<str>>(&mut self, items: impl IntoIterator<Item = S>) {
        self.arr(|w| items.into_iter().for_each(|s| w.str(s.as_ref())));
    }

    /// A member key; the member's value must follow.
    pub fn key(&mut self, key: &str) -> &mut Writer {
        self.str(key);
        self.0.push(':');
        self
    }

    /// A string value.
    pub fn str(&mut self, s: &str) {
        let out = self.item();
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// An integer of any width, exact.
    pub fn int(&mut self, v: impl Into<i128>) {
        let _ = write!(self.item(), "{}", v.into());
    }

    /// A float: shortest round-trip digits, `null` when not finite, `0`
    /// for either zero.
    pub fn f64(&mut self, v: f64) {
        if v == 0.0 {
            self.int(0);
        } else if v.is_finite() {
            let _ = write!(self.item(), "{v}");
        } else {
            self.null();
        }
    }

    /// `true` / `false`.
    pub fn bool(&mut self, v: bool) {
        let _ = write!(self.item(), "{v}");
    }

    /// `null`.
    pub fn null(&mut self) {
        self.item().push_str("null");
    }
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer that fits `u64`, kept exact.
    UInt(u64),
    /// Any other number (parsed as `f64`).
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key order not preserved).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The key/value members if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The numeric value as u64 if this is a non-negative integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }
}

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser { it: input.chars(), peeked: None, pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    match p.peek() {
        None => Ok(v),
        Some(c) => Err(format!("trailing input at byte {}: {c:?}", p.pos)),
    }
}

struct Parser<'a> {
    it: Chars<'a>,
    peeked: Option<char>,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&mut self) -> Option<char> {
        if self.peeked.is_none() {
            self.peeked = self.it.next();
        }
        self.peeked
    }

    fn next(&mut self) -> Option<char> {
        let c = self.peek();
        self.peeked = None;
        if let Some(c) = c {
            self.pos += c.len_utf8();
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.next();
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        match self.next() {
            Some(c) if c == want => Ok(()),
            got => Err(format!("expected {want:?} at byte {}, got {got:?}", self.pos)),
        }
    }

    fn expect_word(&mut self, word: &str, value: Json) -> Result<Json, String> {
        for want in word.chars() {
            self.expect(want)?;
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some('{') => self.object(),
            Some('[') => self.array(),
            Some('"') => self.string().map(Json::Str),
            Some('t') => self.expect_word("true", Json::Bool(true)),
            Some('f') => self.expect_word("false", Json::Bool(false)),
            Some('n') => self.expect_word("null", Json::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            got => Err(format!("unexpected {got:?} at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect('{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.next();
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.next() {
                Some(',') => continue,
                Some('}') => return Ok(Json::Obj(map)),
                got => {
                    return Err(format!("expected ',' or '}}' at byte {}, got {got:?}", self.pos))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.next();
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.next() {
                Some(',') => continue,
                Some(']') => return Ok(Json::Arr(items)),
                got => {
                    return Err(format!("expected ',' or ']' at byte {}, got {got:?}", self.pos))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".into()),
                Some('"') => return Ok(out),
                Some('\\') => match self.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('b') => out.push('\u{0008}'),
                    Some('f') => out.push('\u{000C}'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d =
                                self.next().and_then(|c| c.to_digit(16)).ok_or("bad \\u escape")?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    got => return Err(format!("bad escape {got:?}")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let mut text = String::new();
        if self.peek() == Some('-') {
            text.push(self.next().unwrap());
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || "+-.eE".contains(c)) {
            text.push(self.next().unwrap());
        }
        // An all-digit lexeme that fits stays an exact integer; anything
        // else (sign, fraction, exponent, overflow) is an `f64`.
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::UInt(n));
        }
        text.parse::<f64>().map(Json::Num).map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("-2.5e2").unwrap(), Json::Num(-250.0));
        assert_eq!(parse(r#""a\nbA""#).unwrap(), Json::Str("a\nbA".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v =
            parse(r#"{"traceEvents":[{"ph":"X","ts":1.5,"args":{"n":7}},[]],"k":null}"#).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[0].get("ts").unwrap().as_f64(), Some(1.5));
        assert_eq!(events[0].get("args").unwrap().get("n").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("k"), Some(&Json::Null));
        assert_eq!(parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Json::Obj(BTreeMap::new()));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("12 34").is_err());
        assert!(parse(r#""unterminated"#).is_err());
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(parse("3").unwrap().as_u64(), Some(3));
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
    }

    #[test]
    fn integer_lexemes_are_exact_over_the_whole_u64_range() {
        for n in [0, (1 << 53) + 1, u64::MAX - 1, u64::MAX] {
            let v = parse(&n.to_string()).unwrap();
            assert_eq!(v.as_u64(), Some(n));
            assert_eq!(v.as_f64(), Some(n as f64), "as_f64 still answers for integers");
        }
        // One past the range, or any other spelling, is an `f64` as before.
        assert_eq!(parse("18446744073709551616").unwrap(), Json::Num(18446744073709551616.0));
        assert_eq!(parse("3.0").unwrap().as_u64(), Some(3));
        assert_eq!(parse("1e3").unwrap().as_u64(), Some(1000));
        assert_eq!(parse("-0").unwrap(), Json::Num(-0.0));
    }

    #[test]
    fn writer_places_commas_lines_and_escapes() {
        let written = Writer::document(|w| {
            w.obj(|w| {
                w.key("s").str("a\"b\\c\n\u{1}");
                w.key("n").arr(|w| {
                    w.int(u64::MAX);
                    w.int(-7);
                    w.f64(0.5);
                    w.f64(3.0);
                    w.f64(-0.0);
                    w.f64(f64::NAN);
                    w.f64(f64::NEG_INFINITY);
                });
                w.key("rows").arr(|w| {
                    for id in ["x", "y"] {
                        w.line();
                        w.obj(|w| w.key("id").str(id));
                    }
                });
                w.key("names").strs(["p", "q"]);
                w.key("empty").obj(|_| {});
                w.key("flag").bool(true);
            })
        });
        assert_eq!(
            written,
            "{\"s\":\"a\\\"b\\\\c\\n\\u0001\",\"n\":[18446744073709551615,-7,0.5,3,0,null,null],\
             \"rows\":[\n{\"id\":\"x\"},\n{\"id\":\"y\"}],\"names\":[\"p\",\"q\"],\"empty\":{},\"flag\":true}\n"
        );
    }

    /// Test-local walker: any `Json` value through the public writer calls.
    fn write(w: &mut Writer, v: &Json) {
        match v {
            Json::Null => w.null(),
            Json::Bool(b) => w.bool(*b),
            Json::UInt(n) => w.int(*n),
            Json::Num(n) => w.f64(*n),
            Json::Str(s) => w.str(s),
            Json::Arr(items) => w.arr(|w| items.iter().for_each(|i| write(w, i))),
            Json::Obj(members) => w.obj(|w| members.iter().for_each(|(k, m)| write(w.key(k), m))),
        }
    }

    fn text() -> BoxedStrategy<String> {
        let ch = prop_oneof![
            Just('"'),
            Just('\\'),
            Just('/'),
            Just('\n'),
            Just('\u{0}'),
            Just('\u{1f}'),
            Just('\u{7f}'),
            Just('é'),
            Just('\u{2028}'),
            Just('\u{1F980}'),
            (0x20u32..0x7f).prop_map(|c| char::from_u32(c).expect("ascii")),
        ];
        proptest::collection::vec(ch, 0..8).prop_map(|cs| cs.into_iter().collect()).boxed()
    }

    /// Values in the form the parser produces them: a number is `UInt`
    /// exactly when it is a non-negative integer below 2^64.
    fn value(depth: u32) -> BoxedStrategy<Json> {
        let number = any::<f64>().prop_map(|x| {
            let integral = x.fract() == 0.0 && (0.0..u64::MAX as f64).contains(&x);
            if integral {
                Json::UInt(x as u64)
            } else {
                Json::Num(x)
            }
        });
        let leaf = prop_oneof![
            Just(Json::Null),
            any::<bool>().prop_map(Json::Bool),
            any::<u64>().prop_map(Json::UInt),
            Just(Json::UInt(u64::MAX)),
            (-1000i64..0).prop_map(|n| Json::Num(n as f64)),
            (1i64..1000).prop_map(|n| Json::Num(n as f64 + 0.5)),
            number,
            text().prop_map(Json::Str),
        ];
        if depth == 0 {
            return leaf.boxed();
        }
        let inner = || value(depth - 1);
        prop_oneof![
            leaf,
            proptest::collection::vec(inner(), 0..4).prop_map(Json::Arr),
            proptest::collection::vec((text(), inner()), 0..4)
                .prop_map(|members| Json::Obj(members.into_iter().collect())),
        ]
        .boxed()
    }

    proptest! {
        #[test]
        fn whatever_the_writer_writes_the_parser_reads_back(v in value(3)) {
            let written = Writer::document(|w| write(w, &v));
            prop_assert_eq!(parse(&written), Ok(v), "{}", written);
        }
    }
}
