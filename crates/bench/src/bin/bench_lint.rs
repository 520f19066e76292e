//! Lints the committed `BENCH_*.json` records at the repository root.
//!
//! Every benchmark record must parse as JSON and carry the four keys
//! the before/after convention requires — `name`, `before`, `after`,
//! `units` — so a reader (or a future regression gate) can always tell
//! what was measured, in what unit, and what it is being compared
//! against. Run by the CI lint stage (`./ci.sh lint`); exits non-zero
//! listing every malformed record.
//!
//! The parser is a minimal recursive-descent JSON reader written here
//! on purpose: the workspace builds offline with no serde dependency,
//! and the linter only needs well-formedness plus top-level key
//! extraction.

use std::fmt;

/// A parsed JSON value; only the shape the linter needs.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, kept as text (the linter never does arithmetic).
    Number(String),
    /// A string literal, unescaped.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in source order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key of an object; `None` for non-objects.
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// A parse failure with its byte offset.
#[derive(Debug)]
struct ParseError {
    at: usize,
    msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: {}", self.at, self.msg)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.to_owned(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn expect_literal(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {lit}")))
        }
    }

    fn parse_document(&mut self) -> Result<Json, ParseError> {
        self.skip_ws();
        let v = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing content after JSON value"));
        }
        Ok(v)
    }

    fn parse_value(&mut self) -> Result<Json, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::String(self.parse_string()?)),
            Some(b't') => self.expect_literal("true", Json::Bool(true)),
            Some(b'f') => self.expect_literal("false", Json::Bool(false)),
            Some(b'n') => self.expect_literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(entries));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates only appear in pairs; the linter
                            // doesn't need them, so reject rather than
                            // mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy the full UTF-8 sequence starting here.
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|b| b & 0b1100_0000 == 0b1000_0000)
                    {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_from = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_from {
            return Err(self.err("number has no digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_from {
                return Err(self.err("number has no fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_from {
                return Err(self.err("number has no exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        Ok(Json::Number(text.to_owned()))
    }
}

/// Keys every benchmark record must carry at the top level.
const REQUIRED_KEYS: [&str; 4] = ["name", "before", "after", "units"];

/// Numeric keys every row of a multi-row scaling curve
/// (`e9c_shard_scale`) must carry.
const CURVE_ROW_KEYS: [&str; 5] = [
    "shards",
    "devices",
    "events",
    "events_per_sec",
    "barrier_stall_ns",
];

/// Validates one `e9c_shard_scale` scaling-curve value, wherever it
/// appears in a record: it must be an array of at least two rows (one
/// point is not a curve), every row an object carrying the numeric
/// [`CURVE_ROW_KEYS`], with `shards` strictly increasing down the
/// sweep.
fn lint_scaling_curve(at: &str, curve: &Json) -> Vec<String> {
    let Json::Array(rows) = curve else {
        return vec![format!("{at}: e9c_shard_scale must be an array")];
    };
    let mut problems = Vec::new();
    if rows.len() < 2 {
        problems.push(format!(
            "{at}: e9c_shard_scale needs at least 2 rows to be a scaling curve (has {})",
            rows.len()
        ));
    }
    let mut prev_shards: Option<f64> = None;
    for (i, row) in rows.iter().enumerate() {
        if !matches!(row, Json::Object(_)) {
            problems.push(format!("{at}: e9c_shard_scale[{i}] is not an object"));
            continue;
        }
        for key in CURVE_ROW_KEYS {
            match row.get(key) {
                Some(Json::Number(_)) => {}
                Some(_) => problems.push(format!(
                    "{at}: e9c_shard_scale[{i}] key {key:?} is not a number"
                )),
                None => problems.push(format!(
                    "{at}: e9c_shard_scale[{i}] missing required key {key:?}"
                )),
            }
        }
        if let Some(Json::Number(text)) = row.get("shards") {
            if let Ok(shards) = text.parse::<f64>() {
                if prev_shards.is_some_and(|prev| shards <= prev) {
                    problems.push(format!(
                        "{at}: e9c_shard_scale[{i}] shard counts must be strictly increasing \
                         ({} after {})",
                        shards,
                        prev_shards.expect("checked")
                    ));
                }
                prev_shards = Some(shards);
            }
        }
    }
    problems
}

/// Validates one `trace_loss` value from the observability record: an
/// object carrying the retention policy name plus the retained/lost
/// span counts the before/after comparison is about.
fn lint_trace_loss(at: &str, loss: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    if !matches!(loss, Json::Object(_)) {
        return vec![format!("{at}: trace_loss must be an object")];
    }
    match loss.get("mode") {
        Some(Json::String(s)) if !s.is_empty() => {}
        Some(_) => problems.push(format!(
            "{at}: trace_loss \"mode\" must be a non-empty string"
        )),
        None => problems.push(format!("{at}: trace_loss missing required key \"mode\"")),
    }
    for key in ["retained", "lost"] {
        match loss.get(key) {
            Some(Json::Number(_)) => {}
            Some(_) => problems.push(format!("{at}: trace_loss key {key:?} is not a number")),
            None => problems.push(format!("{at}: trace_loss missing required key {key:?}")),
        }
    }
    problems
}

/// Validates one `attrib` value from the observability record: an
/// object carrying the side's mode label and the measured wall-clock
/// overhead ratio; the `after` side (attribution on) must also carry
/// the budget the perf gate enforces.
fn lint_attrib(at: &str, attrib: &Json, is_after: bool) -> Vec<String> {
    let mut problems = Vec::new();
    if !matches!(attrib, Json::Object(_)) {
        return vec![format!("{at}: attrib must be an object")];
    }
    match attrib.get("mode") {
        Some(Json::String(s)) if !s.is_empty() => {}
        Some(_) => problems.push(format!("{at}: attrib \"mode\" must be a non-empty string")),
        None => problems.push(format!("{at}: attrib missing required key \"mode\"")),
    }
    match attrib.get("overhead_ratio") {
        Some(Json::Number(_)) => {}
        Some(_) => problems.push(format!(
            "{at}: attrib key \"overhead_ratio\" is not a number"
        )),
        None => problems.push(format!(
            "{at}: attrib missing required key \"overhead_ratio\""
        )),
    }
    if is_after && !matches!(attrib.get("budget_ratio"), Some(Json::Number(_))) {
        problems.push(format!(
            "{at}: attrib \"after\" side must carry a numeric \"budget_ratio\""
        ));
    }
    problems
}

/// Numeric keys both sides of the perf_dir record's `e12_delta_gossip`
/// A/B row must carry.
const GOSSIP_ROW_KEYS: [&str; 5] = [
    "runtimes",
    "steady_bytes",
    "join_convergence_ms",
    "leave_convergence_ms",
    "final_entries",
];

/// Validates one side of the perf_dir record: an `e12_delta_gossip`
/// object with the A/B's numeric keys and a `mode` label; the `after`
/// side must additionally carry the headline `steady_bytes_ratio` and
/// the `e12_lookup_scale` object with the gated lookup and binding
/// numbers.
fn lint_dir_side(at: &str, side: &Json, is_after: bool) -> Vec<String> {
    let mut problems = Vec::new();
    match side.get("e12_delta_gossip") {
        Some(row @ Json::Object(_)) => {
            if !matches!(row.get("mode"), Some(Json::String(s)) if !s.is_empty()) {
                problems.push(format!(
                    "{at}: e12_delta_gossip \"mode\" must be a non-empty string"
                ));
            }
            for key in GOSSIP_ROW_KEYS {
                match row.get(key) {
                    Some(Json::Number(_)) => {}
                    Some(_) => problems.push(format!(
                        "{at}: e12_delta_gossip key {key:?} is not a number"
                    )),
                    None => problems.push(format!(
                        "{at}: e12_delta_gossip missing required key {key:?}"
                    )),
                }
            }
        }
        Some(_) => problems.push(format!("{at}: e12_delta_gossip must be an object")),
        None => problems.push(format!(
            "perf_dir record: {at:?} must carry an \"e12_delta_gossip\" object"
        )),
    }
    if is_after {
        if !matches!(side.get("steady_bytes_ratio"), Some(Json::Number(_))) {
            problems.push(format!(
                "{at}: perf_dir record must carry a numeric \"steady_bytes_ratio\""
            ));
        }
        match side.get("e12_lookup_scale") {
            Some(lk @ Json::Object(_)) => {
                for key in ["total_ports", "p99_ns", "bind_p99_ns", "scan_fallbacks"] {
                    match lk.get(key) {
                        Some(Json::Number(_)) => {}
                        Some(_) => problems.push(format!(
                            "{at}: e12_lookup_scale key {key:?} is not a number"
                        )),
                        None => problems.push(format!(
                            "{at}: e12_lookup_scale missing required key {key:?}"
                        )),
                    }
                }
            }
            Some(_) => problems.push(format!("{at}: e12_lookup_scale must be an object")),
            None => problems.push(format!(
                "perf_dir record: {at:?} must carry an \"e12_lookup_scale\" object"
            )),
        }
    }
    problems
}

/// Validates one record's content; returns every problem found.
fn lint_record(text: &str) -> Vec<String> {
    let doc = match Parser::new(text).parse_document() {
        Ok(doc) => doc,
        Err(e) => return vec![format!("does not parse as JSON ({e})")],
    };
    if !matches!(doc, Json::Object(_)) {
        return vec!["top level is not a JSON object".to_owned()];
    }
    let mut problems = Vec::new();
    for key in REQUIRED_KEYS {
        match doc.get(key) {
            None => problems.push(format!("missing required key {key:?}")),
            Some(Json::Null) => problems.push(format!("required key {key:?} is null")),
            Some(_) => {}
        }
    }
    if let Some(v) = doc.get("name") {
        if !matches!(v, Json::String(s) if !s.is_empty()) {
            problems.push("key \"name\" must be a non-empty string".to_owned());
        }
    }
    // Scaling-curve convention: wherever a record carries an
    // `e9c_shard_scale` value (top level or inside the before/after
    // snapshots), it must be shaped like a multi-row curve.
    let mut curve_sites = vec![("top level", &doc)];
    for key in ["before", "after"] {
        if let Some(v) = doc.get(key) {
            curve_sites.push((key, v));
        }
    }
    for (at, holder) in curve_sites {
        if let Some(curve) = holder.get("e9c_shard_scale") {
            problems.extend(lint_scaling_curve(at, curve));
        }
    }
    // Observability convention: the record's before/after comparison is
    // the trace-loss A/B (drop-on-full vs flight recorder) plus the
    // attribution-overhead A/B (fold off vs on), so both sides must
    // carry well-formed `trace_loss` and `attrib` objects.
    if matches!(doc.get("name"), Some(Json::String(s)) if s == "observability") {
        for key in ["before", "after"] {
            match doc.get(key).and_then(|side| side.get("trace_loss")) {
                Some(loss) => problems.extend(lint_trace_loss(key, loss)),
                None => problems.push(format!(
                    "observability record: {key:?} must carry a \"trace_loss\" object"
                )),
            }
            match doc.get(key).and_then(|side| side.get("attrib")) {
                Some(attrib) => problems.extend(lint_attrib(key, attrib, key == "after")),
                None => problems.push(format!(
                    "observability record: {key:?} must carry an \"attrib\" object"
                )),
            }
        }
    }
    // Directory-federation convention: the perf_dir record's before/after
    // comparison is the full-refresh vs delta-gossip A/B, and the gated
    // lookup numbers ride on the `after` side.
    if matches!(doc.get("name"), Some(Json::String(s)) if s == "perf_dir") {
        for key in ["before", "after"] {
            if let Some(side) = doc.get(key) {
                problems.extend(lint_dir_side(key, side, key == "after"));
            }
        }
    }
    problems
}

fn main() {
    let root = std::env::args().nth(1).unwrap_or_else(|| ".".to_owned());
    let mut records: Vec<std::path::PathBuf> = std::fs::read_dir(&root)
        .unwrap_or_else(|e| panic!("cannot read {root}: {e}"))
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    records.sort();
    if records.is_empty() {
        eprintln!("bench_lint: no BENCH_*.json records found under {root}");
        std::process::exit(1);
    }

    let mut failures = 0usize;
    for path in &records {
        let display = path.display();
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench_lint: {display}: unreadable ({e})");
                failures += 1;
                continue;
            }
        };
        let problems = lint_record(&text);
        if problems.is_empty() {
            println!("bench_lint: {display}: ok");
        } else {
            for p in &problems {
                eprintln!("bench_lint: {display}: {p}");
            }
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!(
            "bench_lint: {failures} of {} record(s) malformed",
            records.len()
        );
        std::process::exit(1);
    }
    println!("bench_lint: {} record(s) ok", records.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = Parser::new(
            r#"{"name": "x", "units": {"t": "ns"}, "before": [1, 2.5, -3e2], "after": {"a": null, "b": [true, false, "qA\n"]}}"#,
        )
        .parse_document()
        .expect("valid json");
        assert_eq!(doc.get("name"), Some(&Json::String("x".to_owned())));
        let Some(Json::Array(before)) = doc.get("before") else {
            panic!("before is an array");
        };
        assert_eq!(before.len(), 3);
        let after = doc.get("after").expect("after present");
        assert_eq!(after.get("a"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "{\"a\": 1,}",
            "[1 2]",
            "{\"a\": 01x}",
            "\"unterminated",
            "{\"a\": 1} trailing",
        ] {
            assert!(
                Parser::new(bad).parse_document().is_err(),
                "should reject {bad:?}"
            );
        }
    }

    #[test]
    fn lint_requires_all_keys() {
        let ok = r#"{"name": "n", "units": "ns", "before": 1, "after": 2}"#;
        assert!(lint_record(ok).is_empty());
        let missing = r#"{"name": "n", "before": 1, "after": 2}"#;
        assert_eq!(
            lint_record(missing),
            vec!["missing required key \"units\"".to_owned()]
        );
        let null_key = r#"{"name": "n", "units": null, "before": 1, "after": 2}"#;
        assert_eq!(
            lint_record(null_key),
            vec!["required key \"units\" is null".to_owned()]
        );
        let bad_name = r#"{"name": "", "units": "ns", "before": 1, "after": 2}"#;
        assert_eq!(
            lint_record(bad_name),
            vec!["key \"name\" must be a non-empty string".to_owned()]
        );
    }

    #[test]
    fn lint_enforces_observability_trace_loss() {
        let ok = r#"{"name": "observability", "units": "spans",
            "before": {"trace_loss": {"mode": "drop-on-full", "retained": 256, "lost": 90, "tail_survives": false},
                       "attrib": {"mode": "attribution-off", "overhead_ratio": 1.0}},
            "after": {"trace_loss": {"mode": "flight-recorder", "retained": 256, "lost": 90, "tail_survives": true},
                      "attrib": {"mode": "attribution-on", "overhead_ratio": 1.004, "budget_ratio": 1.03}}}"#;
        assert_eq!(lint_record(ok), Vec::<String>::new());

        let missing_side = r#"{"name": "observability", "units": "spans",
            "before": {"trace_loss": {"mode": "drop-on-full", "retained": 1, "lost": 2},
                       "attrib": {"mode": "attribution-off", "overhead_ratio": 1.0}},
            "after": {"snapshot": {},
                      "attrib": {"mode": "attribution-on", "overhead_ratio": 1.0, "budget_ratio": 1.03}}}"#;
        assert_eq!(
            lint_record(missing_side),
            vec!["observability record: \"after\" must carry a \"trace_loss\" object".to_owned()]
        );

        let bad_fields = r#"{"name": "observability", "units": "spans",
            "before": {"trace_loss": {"mode": "", "retained": 1, "lost": 2},
                       "attrib": {"mode": "attribution-off", "overhead_ratio": 1.0}},
            "after": {"trace_loss": {"mode": "flight-recorder", "retained": "many"},
                      "attrib": {"mode": "attribution-on", "overhead_ratio": 1.0, "budget_ratio": 1.03}}}"#;
        assert_eq!(
            lint_record(bad_fields),
            vec![
                "before: trace_loss \"mode\" must be a non-empty string".to_owned(),
                "after: trace_loss key \"retained\" is not a number".to_owned(),
                "after: trace_loss missing required key \"lost\"".to_owned(),
            ]
        );

        // Non-observability records are exempt from the convention.
        let other = r#"{"name": "n", "units": "ns", "before": 1, "after": 2}"#;
        assert!(lint_record(other).is_empty());
    }

    #[test]
    fn lint_enforces_observability_attrib_shape() {
        let loss = r#""trace_loss": {"mode": "m", "retained": 1, "lost": 2}"#;

        let missing = format!(
            r#"{{"name": "observability", "units": "ns",
                "before": {{{loss}}}, "after": {{{loss}}}}}"#
        );
        assert_eq!(
            lint_record(&missing),
            vec![
                "observability record: \"before\" must carry an \"attrib\" object".to_owned(),
                "observability record: \"after\" must carry an \"attrib\" object".to_owned(),
            ]
        );

        let bad = format!(
            r#"{{"name": "observability", "units": "ns",
                "before": {{{loss}, "attrib": {{"mode": "", "overhead_ratio": "fast"}}}},
                "after": {{{loss}, "attrib": {{"overhead_ratio": 1.0}}}}}}"#
        );
        assert_eq!(
            lint_record(&bad),
            vec![
                "before: attrib \"mode\" must be a non-empty string".to_owned(),
                "before: attrib key \"overhead_ratio\" is not a number".to_owned(),
                "after: attrib missing required key \"mode\"".to_owned(),
                "after: attrib \"after\" side must carry a numeric \"budget_ratio\"".to_owned(),
            ]
        );

        let not_object = format!(
            r#"{{"name": "observability", "units": "ns",
                "before": {{{loss}, "attrib": 7}},
                "after": {{{loss}, "attrib": {{"mode": "on", "overhead_ratio": 1.0, "budget_ratio": 1.03}}}}}}"#
        );
        assert_eq!(
            lint_record(&not_object),
            vec!["before: attrib must be an object".to_owned()]
        );
    }

    #[test]
    fn lint_enforces_perf_dir_ab_shape() {
        let ok = r#"{"name": "perf_dir", "units": "bytes",
            "before": {"e12_delta_gossip": {"mode": "full-refresh", "runtimes": 100, "steady_bytes": 946800,
                       "join_convergence_ms": 0, "leave_convergence_ms": 192, "final_entries": 1000}},
            "after": {"e12_delta_gossip": {"mode": "delta", "runtimes": 100, "steady_bytes": 37200,
                      "join_convergence_ms": 0, "leave_convergence_ms": 15, "final_entries": 1000},
                      "steady_bytes_ratio": 25.5,
                      "e12_lookup_scale": {"total_ports": 1000000, "p99_ns": 441199, "bind_p99_ns": 902311, "scan_fallbacks": 0}}}"#;
        assert_eq!(lint_record(ok), Vec::<String>::new());

        let broken = r#"{"name": "perf_dir", "units": "bytes",
            "before": {"e12_delta_gossip": {"mode": "full-refresh", "runtimes": 100, "steady_bytes": 946800,
                       "join_convergence_ms": 0, "final_entries": 1000}},
            "after": {"e12_delta_gossip": {"mode": "", "runtimes": 100, "steady_bytes": 37200,
                      "join_convergence_ms": 0, "leave_convergence_ms": 15, "final_entries": 1000},
                      "e12_lookup_scale": {"total_ports": 1000000, "p99_ns": 441199, "bind_p99_ns": 902311}}}"#;
        assert_eq!(
            lint_record(broken),
            vec![
                "before: e12_delta_gossip missing required key \"leave_convergence_ms\"".to_owned(),
                "after: e12_delta_gossip \"mode\" must be a non-empty string".to_owned(),
                "after: perf_dir record must carry a numeric \"steady_bytes_ratio\"".to_owned(),
                "after: e12_lookup_scale missing required key \"scan_fallbacks\"".to_owned(),
            ]
        );

        // Non-perf_dir records are exempt from the convention.
        let other = r#"{"name": "n", "units": "ns", "before": 1, "after": 2}"#;
        assert!(lint_record(other).is_empty());
    }

    #[test]
    fn lint_accepts_well_formed_scaling_curve() {
        let ok = r#"{"name": "n", "units": "ns", "before": 1, "after": {
            "e9c_shard_scale": [
                {"shards": 1, "devices": 10000, "wings": 16, "events": 9, "wall_secs": 1.0,
                 "events_per_sec": 9.0, "p99_dispatch_ns": 5, "barrier_stall_ns": 0, "windows": 3},
                {"shards": 4, "devices": 10000, "wings": 16, "events": 9, "wall_secs": 0.5,
                 "events_per_sec": 18.0, "p99_dispatch_ns": 5, "barrier_stall_ns": 7, "windows": 3}
            ]}}"#;
        assert_eq!(lint_record(ok), Vec::<String>::new());
    }

    #[test]
    fn lint_rejects_malformed_scaling_curves() {
        let one_row = r#"{"name": "n", "units": "ns", "before": 1, "after": {
            "e9c_shard_scale": [{"shards": 1, "devices": 2, "events": 3,
                                 "events_per_sec": 4, "barrier_stall_ns": 5}]}}"#;
        assert_eq!(
            lint_record(one_row),
            vec![
                "after: e9c_shard_scale needs at least 2 rows to be a scaling curve (has 1)"
                    .to_owned()
            ]
        );

        let missing_key = r#"{"name": "n", "units": "ns", "before": 1, "after": {
            "e9c_shard_scale": [
                {"shards": 1, "devices": 2, "events": 3, "events_per_sec": 4, "barrier_stall_ns": 5},
                {"shards": 4, "devices": 2, "events": 3, "events_per_sec": 4}
            ]}}"#;
        assert_eq!(
            lint_record(missing_key),
            vec!["after: e9c_shard_scale[1] missing required key \"barrier_stall_ns\"".to_owned()]
        );

        let not_increasing = r#"{"name": "n", "units": "ns", "before": 1, "after": {
            "e9c_shard_scale": [
                {"shards": 4, "devices": 2, "events": 3, "events_per_sec": 4, "barrier_stall_ns": 5},
                {"shards": 2, "devices": 2, "events": 3, "events_per_sec": 4, "barrier_stall_ns": 5}
            ]}}"#;
        assert_eq!(
            lint_record(not_increasing),
            vec![
                "after: e9c_shard_scale[1] shard counts must be strictly increasing (2 after 4)"
                    .to_owned()
            ]
        );

        let not_array =
            r#"{"name": "n", "units": "ns", "before": {"e9c_shard_scale": 7}, "after": 2}"#;
        assert_eq!(
            lint_record(not_array),
            vec!["before: e9c_shard_scale must be an array".to_owned()]
        );
    }
}
