use super::oracle::{self, Value};
use super::*;
use std::collections::BTreeMap;

#[test]
fn string_escapes_between_unescaped_runs() {
    let raw = "a\u{1}b\"c\\d\ne\rf\tgé€😀";
    let out = to_string(raw).unwrap();
    assert_eq!(out, "\"a\\u0001b\\\"c\\\\d\\ne\\rf\\tgé€😀\"");
    assert_eq!(from_str::<String>(&out).unwrap(), raw);
    let escaped = "\"x\\/\\b\\f\\u00e9\\ud83d\\ude00y\"";
    assert_eq!(from_str::<String>(escaped).unwrap(), "x/\u{8}\u{c}é😀y");
    assert!(from_str::<String>("\"open").is_err());
    assert!(from_str::<String>("\"bad\\q\"").is_err());
}

#[test]
fn compact_output_no_spaces() {
    let mut map = BTreeMap::new();
    map.insert("resourceType".to_string(), "Patient".to_string());
    assert_eq!(to_string(&map).unwrap(), "{\"resourceType\":\"Patient\"}");
}

#[test]
fn whole_floats_reparse_as_floats() {
    assert_eq!(to_string(&3.0f64).unwrap(), "3.0");
    assert_eq!(from_str::<f64>("3.0").unwrap(), 3.0);
    assert_eq!(to_string(&1e15f64).unwrap(), "1000000000000000");
    assert_eq!(
        to_string(&[f64::NAN, f64::INFINITY]).unwrap(),
        "[null,null]"
    );
    // Floats accept integers; integers reject floats.
    assert_eq!(from_str::<f64>("-4").unwrap(), -4.0);
    assert!(from_str::<u8>("4.0").is_err());
    assert!(from_str::<i8>("4e0").is_err());
}

#[test]
fn typed_round_trip_through_api() {
    let v: Vec<(u64, String)> = vec![(1, "a".into()), (2, "b".into())];
    let json = to_string(&v).unwrap();
    let back: Vec<(u64, String)> = from_str(&json).unwrap();
    assert_eq!(back, v);
    assert_eq!(to_vec(&v).unwrap(), json.into_bytes());
}

#[test]
fn malformed_input_is_an_error() {
    assert!(from_str::<u32>("{").is_err());
    assert!(from_str::<u32>("12 34").is_err());
    assert!(from_slice::<u32>(&[0xFF, 0xFE]).is_err());
}

// ------------------------------------------------ derived shapes under test

#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct Coding {
    system: String,
    code: String,
    display: String,
}

#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct Amount {
    value: f64,
    unit: String,
}

#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct Day(u32);

#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
enum Sex {
    Female,
    Male,
}

#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct Person {
    id: String,
    names: Vec<String>,
    sex: Sex,
    born: Option<u32>,
    phone: Option<String>,
    coding: Option<Coding>,
}

#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct Reading {
    id: String,
    subject: String,
    code: Coding,
    value: Amount,
    effective: Day,
}

/// Internally tagged like the FHIR `Resource`, plus the other variant
/// forms the derive supports for that shape. `Flag`'s field `kind`
/// shares the tag's name.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(tag = "kind")]
enum Entry {
    Person(Person),
    Reading(Reading),
    Flag {
        id: String,
        on: bool,
        kind: Option<String>,
    },
    Marker,
}

#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct Doc {
    kind: Sex,
    entries: Vec<Entry>,
}

/// Externally tagged, like `Principal`.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
enum Actor {
    User(u64),
    Service(String),
    Pair(u8, i16),
    Named { id: u32 },
    Nobody,
}

#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct Event {
    record: u128,
    hash: [u8; 4],
    actor: Actor,
    delta: i64,
    detail: String,
}

/// Reads any well-formed value and keeps nothing.
#[derive(Debug, serde::Deserialize)]
struct Anything;

// ------------------------------------------------ named cases

#[test]
fn missing_unknown_and_duplicate_keys() {
    let c = r#"{"system":"s","code":"c","display":"d"}"#;
    assert!(from_str::<Coding>(c).is_ok());
    let err = from_str::<Coding>(r#"{"system":"s","code":"c"}"#).unwrap_err();
    assert_eq!(
        err.to_string(),
        "JSON error: deserialization error: missing field `display`"
    );
    // A missing `Option` is `None`; `null` is `None` too.
    let p: Person = from_str(r#"{"id":"p","names":[],"sex":"Male","born":null}"#).unwrap();
    assert_eq!((p.born, p.phone, p.coding), (None, None, None));
    // Unknown keys are skipped, but must still be well formed.
    let noisy = r#"{"x":{"y":[1,-0,2.5e3,"é😀",true,null]},"system":"s","code":"c","display":"d"}"#;
    assert!(from_str::<Coding>(noisy).is_ok());
    assert!(from_str::<Coding>(r#"{"x":01.2.3,"system":"s","code":"c","display":"d"}"#).is_err());
    assert!(from_str::<Coding>(r#"{"x":"\q","system":"s","code":"c","display":"d"}"#).is_err());
    assert!(from_str::<Coding>(r#"{"x":nul,"system":"s","code":"c","display":"d"}"#).is_err());
    assert!(
        from_str::<Coding>(r#"{"x":1e999999999999,"system":"s","code":"c","display":"d"}"#).is_ok()
    );
    // An integer past `u128` reads as a float, so it skips like one.
    assert!(from_str::<Coding>(
        r#"{"x":340282366920938463463374607431768211456,"system":"s","code":"c","display":"d"}"#
    )
    .is_ok());
    // The last of repeated keys wins, whatever shape the earlier ones had.
    let dup = r#"{"system":1,"code":"c","display":"d","system":"last"}"#;
    assert_eq!(from_str::<Coding>(dup).unwrap().system, "last");
    assert!(from_str::<Coding>(r#"{"system":"s","code":"c","display":"d","system":1}"#).is_err());
}

#[test]
fn tag_first_middle_last_and_repeated() {
    let flag = Entry::Flag {
        id: "f".into(),
        on: true,
        kind: None,
    };
    let read_flag = Entry::Flag {
        id: "f".into(),
        on: true,
        kind: Some("Flag".into()),
    };
    for text in [
        r#"{"kind":"Flag","id":"f","on":true}"#,
        r#"{"id":"f","kind":"Flag","on":true}"#,
        r#"{"id":"f","on":true,"kind":"Flag"}"#,
        r#"{"kind":"Marker","id":"f","on":true,"kind":"Flag"}"#,
    ] {
        // `kind` is also a field of `Flag`, so it reads the tag's value.
        let back: Entry = from_str(text).unwrap();
        assert_eq!(back, read_flag, "{text}");
    }
    // On writing, the tag replaces the field of the same name.
    assert_eq!(
        to_string(&flag).unwrap(),
        r#"{"id":"f","kind":"Flag","on":true}"#
    );
    let marker = r#"{"a":[1,{}],"kind":"Marker"}"#;
    assert_eq!(from_str::<Entry>(marker).unwrap(), Entry::Marker);
    assert_eq!(to_string(&Entry::Marker).unwrap(), r#"{"kind":"Marker"}"#);
    let err = |text: &str| from_str::<Entry>(text).unwrap_err().to_string();
    assert!(err(r#"{"id":"f","on":true}"#).contains("missing tag `kind` for Entry"));
    assert!(err(r#"{"kind":7}"#).contains("tag `kind` of Entry must be a string"));
    assert!(err(r#"{"kind":"Ghost"}"#).contains("unknown Entry variant `Ghost`"));
    // A malformed value anywhere is a syntax error, even past the tag.
    assert!(err(r#"{"kind":"Marker","x":[1,]}"#).contains("unexpected character `]`"));
}

#[test]
fn tag_under_a_nested_key_is_not_the_tag() {
    // Only the object's own keys name the variant: a nested object's
    // `kind`, a string holding brackets and quotes, and an array of
    // objects are skipped whole.
    for text in [
        r#"{"a":{"kind":"Flag"},"kind":"Marker"}"#,
        r#"{"kind":"Marker","a":{"kind":"Flag","b":[{"kind":1}]}}"#,
        r#"{"a":["}\"{[",{"kind":"Flag"},-1.5e3,true],"kind":"Marker","z":{}}"#,
        r#"{ "a" : { "kind" : "Flag" } , "kind" : "Marker" }"#,
    ] {
        assert_eq!(from_str::<Entry>(text).unwrap(), Entry::Marker, "{text}");
    }
    let err = |text: &str| from_str::<Entry>(text).unwrap_err().to_string();
    assert!(err(r#"{"a":{"kind":"Marker"}}"#).contains("missing tag `kind` for Entry"));
    // Damage the scan skips over is still found, and named as the
    // oracle names it.
    for text in [
        r#"{"a":{"kind":1.2.3},"kind":"Marker"}"#,
        r#"{"a":[1,],"kind":"Marker"}"#,
        r#"{"a":{"b":"\q"},"kind":"Marker"}"#,
        r#"{"a":{"kind":nul},"kind":"Marker"}"#,
        r#"{"a":1,"kind":"Marker""#,
        r#"{"a":[1,2,"kind":"Marker"}"#,
        r#"{"a":[1,2}],"kind":"Marker"}"#,
        r#"{"a":"open,"kind":"Marker"}"#,
    ] {
        let expected = oracle::parse(text).unwrap_err().to_string();
        assert_eq!(err(text), expected, "{text}");
    }
}

#[test]
fn tag_merges_into_the_newtype_payload_in_key_order() {
    let reading = Reading {
        id: "r".into(),
        subject: "p".into(),
        code: Coding {
            system: "s".into(),
            code: "c".into(),
            display: "d".into(),
        },
        value: Amount {
            value: 6.0,
            unit: "%".into(),
        },
        effective: Day(3),
    };
    let json = to_string(&Entry::Reading(reading.clone())).unwrap();
    assert_eq!(
        json,
        r#"{"code":{"code":"c","display":"d","system":"s"},"effective":3,"id":"r","kind":"Reading","subject":"p","value":{"unit":"%","value":6.0}}"#
    );
    assert_eq!(from_str::<Entry>(&json).unwrap(), Entry::Reading(reading));
}

#[test]
fn negative_zero_and_128_bit_extremes() {
    assert_eq!(from_str::<u8>("-0").unwrap(), 0);
    assert_eq!(from_str::<i64>("-0").unwrap(), 0);
    assert_eq!(from_str::<f64>("-0").unwrap().to_bits(), 0.0f64.to_bits());
    assert_eq!(to_string(&u128::MAX).unwrap(), u128::MAX.to_string());
    assert_eq!(from_str::<u128>(&u128::MAX.to_string()).unwrap(), u128::MAX);
    assert!(from_str::<u128>("340282366920938463463374607431768211456").is_err());
    assert_eq!(
        from_str::<i128>(&(i128::MIN + 1).to_string()).unwrap(),
        i128::MIN + 1
    );
    assert_eq!(to_string(&i128::MIN).unwrap(), i128::MIN.to_string());
    assert_eq!(from_str::<i128>(&i128::MIN.to_string()).unwrap(), i128::MIN);
    assert_eq!(
        oracle::parse(&i128::MIN.to_string()).unwrap(),
        Value::Int(i128::MIN)
    );
    // Whole floats past the 128-bit range are written without a point
    // and read back as floats.
    for f in [1e39, -2.5e300, f64::MAX] {
        let json = to_string(&f).unwrap();
        assert!(!json.contains(['.', 'e']), "{json}");
        assert_eq!(from_str::<f64>(&json).unwrap(), f);
        assert_eq!(oracle::parse(&json).unwrap(), Value::Float(f));
    }
    assert!(from_str::<u8>("256").is_err());
    assert!(from_str::<i8>("-129").is_err());
    assert_eq!(from_str::<i8>("-128").unwrap(), -128);
}

#[test]
fn surrogates_trailing_data_and_invalid_utf8() {
    assert_eq!(from_str::<String>(r#""😀""#).unwrap(), "😀");
    for bad in [
        r#""\ud83d""#,
        r#""\ud83dx""#,
        r#""\ude00""#,
        r#""\u12""#,
        r#""\uzzzz""#,
        // A high surrogate needs a low one next.
        r#""\ud800\u0041""#,
        r#""\ud800\ud800""#,
        // Exactly four hex digits: no sign.
        r#""\u+041""#,
    ] {
        assert!(from_str::<String>(bad).is_err(), "{bad}");
        assert!(from_str::<Anything>(bad).is_err(), "{bad}");
        assert!(oracle::parse(bad).is_err(), "{bad}");
    }
    assert_eq!(
        from_str::<u32>("12 ]").unwrap_err().to_string(),
        "JSON error: trailing data at byte 3"
    );
    assert!(from_str::<Anything>("{} {}").is_err());
    assert!(from_str::<u32>(" 12 \n").is_ok());
    assert!(from_slice::<String>(b"\"\xff\"")
        .unwrap_err()
        .to_string()
        .contains("invalid UTF-8"));
    assert!(from_slice::<String>("\"é\"".as_bytes()).is_ok());
}

#[test]
fn single_key_externally_tagged_enum() {
    let cases = [
        (Actor::User(7), r#"{"User":7}"#),
        (Actor::Service("ingest".into()), r#"{"Service":"ingest"}"#),
        (Actor::Pair(1, -2), r#"{"Pair":[1,-2]}"#),
        (Actor::Named { id: 3 }, r#"{"Named":{"id":3}}"#),
        (Actor::Nobody, r#""Nobody""#),
    ];
    for (actor, json) in cases {
        assert_eq!(to_string(&actor).unwrap(), json);
        assert_eq!(from_str::<Actor>(json).unwrap(), actor);
    }
    // A repeated key is still one key; its last payload wins.
    assert_eq!(
        from_str::<Actor>(r#"{"User":"x","User":9}"#).unwrap(),
        Actor::User(9)
    );
    for bad in [
        r#"{}"#,
        r#"{"User":7,"Service":"s"}"#,
        r#"{"Nobody":null}"#,
        r#""User""#,
        r#"{"Pair":[1]}"#,
        r#"{"Pair":[1,2,3]}"#,
        r#"7"#,
    ] {
        assert!(from_str::<Actor>(bad).is_err(), "{bad}");
    }
}

// ------------------------------------------------ differential against the oracle

/// SplitMix64: the property tests' deterministic case generator.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }

    fn text(&mut self) -> String {
        const PIECES: [&str; 10] = ["a", "Zq", " ", "\"", "\\", "/", "é", "€", "😀", "\n"];
        let mut s = String::new();
        for _ in 0..self.below(5) {
            if self.below(6) == 0 {
                s.push(char::from(self.below(0x20) as u8));
            } else {
                s.push_str(PIECES[self.below(PIECES.len())]);
            }
        }
        s
    }

    fn float(&mut self) -> f64 {
        match self.below(4) {
            0 => self.below(1000) as f64,
            1 => -(self.below(1 << 20) as f64) / 64.0,
            2 => 1e15 * (1 + self.below(50)) as f64,
            _ => (self.next() >> 11) as f64 / (1u64 << 40) as f64,
        }
    }

    fn coding(&mut self) -> Coding {
        Coding {
            system: self.text(),
            code: self.text(),
            display: self.text(),
        }
    }

    fn entry(&mut self) -> Entry {
        match self.below(4) {
            0 => Entry::Person(Person {
                id: self.text(),
                names: (0..self.below(3)).map(|_| self.text()).collect(),
                sex: if self.coin() { Sex::Female } else { Sex::Male },
                born: self.coin().then(|| self.next() as u32),
                phone: self.coin().then(|| self.text()),
                coding: self.coin().then(|| self.coding()),
            }),
            1 => Entry::Reading(Reading {
                id: self.text(),
                subject: self.text(),
                code: self.coding(),
                value: Amount {
                    value: self.float(),
                    unit: self.text(),
                },
                effective: Day(self.next() as u32),
            }),
            2 => Entry::Flag {
                id: self.text(),
                on: self.coin(),
                kind: Some("Flag".into()),
            },
            _ => Entry::Marker,
        }
    }

    fn doc(&mut self) -> Doc {
        Doc {
            kind: if self.coin() { Sex::Female } else { Sex::Male },
            entries: (0..self.below(5)).map(|_| self.entry()).collect(),
        }
    }

    fn event(&mut self) -> Event {
        let wide = u128::from(self.next()) << 64 | u128::from(self.next());
        Event {
            record: wide,
            hash: (self.next() as u32).to_le_bytes(),
            actor: match self.below(5) {
                0 => Actor::User(self.next()),
                1 => Actor::Service(self.text()),
                2 => Actor::Pair(self.next() as u8, self.next() as i16),
                3 => Actor::Named {
                    id: self.next() as u32,
                },
                _ => Actor::Nobody,
            },
            delta: self.next() as i64,
            detail: self.text(),
        }
    }

    /// One byte-level edit: replace, insert, delete, duplicate a span,
    /// truncate, or the edits that often keep a document well formed:
    /// insert whitespace, or overwrite with a letter or digit.
    fn mutate(&mut self, doc: &mut Vec<u8>) {
        const BYTES: &[u8] = b"\"\\{}[]:,-.e+0 9ntfu\xff\xc3\xa9\x01";
        const MILD: &[u8] = b"az09";
        let at = self.below(doc.len() + 1);
        let byte = if self.coin() {
            BYTES[self.below(BYTES.len())]
        } else {
            self.next() as u8
        };
        match self.below(8) {
            5 | 6 if at < doc.len() => doc[at] = MILD[self.below(MILD.len())],
            7 => doc.insert(at, b' '),
            0 if at < doc.len() => doc[at] = byte,
            1 => doc.insert(at, byte),
            2 if at < doc.len() => {
                doc.remove(at);
            }
            3 => {
                let end = (at + 1 + self.below(12)).min(doc.len());
                let span = doc[at..end].to_vec();
                let to = self.below(doc.len() + 1);
                doc.splice(to..to, span);
            }
            _ => doc.truncate(at),
        }
    }
}

/// The shape a type reads, for typing an oracle tree the way a
/// tree-based codec types it: fields by name, absent options as `None`,
/// the tag looked up in the whole object.
#[derive(Clone)]
enum Schema {
    U(u128),
    I(i128, i128),
    F,
    Str,
    Bool,
    Opt(Box<Schema>),
    Seq(Box<Schema>),
    Tuple(Vec<Schema>),
    Struct(Vec<(&'static str, Schema)>),
    /// Internally tagged: `(variant, None)` is a unit variant.
    Tagged(&'static str, Vec<(&'static str, Option<Schema>)>),
    /// Externally tagged: `(variant, None)` is a unit variant.
    External(Vec<(&'static str, Option<Schema>)>),
}

fn opt(s: Schema) -> Schema {
    Schema::Opt(Box::new(s))
}

fn seq(s: Schema) -> Schema {
    Schema::Seq(Box::new(s))
}

fn coding_schema() -> Schema {
    Schema::Struct(vec![
        ("system", Schema::Str),
        ("code", Schema::Str),
        ("display", Schema::Str),
    ])
}

fn sex_schema() -> Schema {
    Schema::External(vec![("Female", None), ("Male", None)])
}

fn doc_schema() -> Schema {
    let person = Schema::Struct(vec![
        ("id", Schema::Str),
        ("names", seq(Schema::Str)),
        ("sex", sex_schema()),
        ("born", opt(Schema::U(u32::MAX.into()))),
        ("phone", opt(Schema::Str)),
        ("coding", opt(coding_schema())),
    ]);
    let reading = Schema::Struct(vec![
        ("id", Schema::Str),
        ("subject", Schema::Str),
        ("code", coding_schema()),
        (
            "value",
            Schema::Struct(vec![("value", Schema::F), ("unit", Schema::Str)]),
        ),
        ("effective", Schema::U(u32::MAX.into())),
    ]);
    let flag = Schema::Struct(vec![
        ("id", Schema::Str),
        ("on", Schema::Bool),
        ("kind", opt(Schema::Str)),
    ]);
    let entry = Schema::Tagged(
        "kind",
        vec![
            ("Person", Some(person)),
            ("Reading", Some(reading)),
            ("Flag", Some(flag)),
            ("Marker", None),
        ],
    );
    Schema::Struct(vec![("kind", sex_schema()), ("entries", seq(entry))])
}

fn event_schema() -> Schema {
    let actor = Schema::External(vec![
        ("User", Some(Schema::U(u64::MAX.into()))),
        ("Service", Some(Schema::Str)),
        (
            "Pair",
            Some(Schema::Tuple(vec![
                Schema::U(255),
                Schema::I(-32768, 32767),
            ])),
        ),
        (
            "Named",
            Some(Schema::Struct(vec![("id", Schema::U(u32::MAX.into()))])),
        ),
        ("Nobody", None),
    ]);
    Schema::Struct(vec![
        ("record", Schema::U(u128::MAX)),
        ("hash", Schema::Tuple(vec![Schema::U(255); 4])),
        ("actor", actor),
        ("delta", Schema::I(i64::MIN.into(), i64::MAX.into())),
        ("detail", Schema::Str),
    ])
}

/// Types `value` as `schema`, returning the tree the typed value writes
/// back (declared fields only, absent options as `null`), or `None`
/// where a tree-based codec would fail to type it.
fn project(value: &Value, schema: &Schema) -> Option<Value> {
    Some(match (schema, value) {
        (Schema::U(max), Value::Uint(u)) if u <= max => Value::Uint(*u),
        (Schema::I(_, max), Value::Uint(u)) if i128::try_from(*u).is_ok_and(|i| i <= *max) => {
            Value::Uint(*u)
        }
        (Schema::I(min, _), Value::Int(i)) if i >= min => Value::Int(*i),
        (Schema::F, Value::Float(f)) => Value::Float(*f),
        (Schema::F, Value::Uint(u)) => Value::Float(*u as f64),
        (Schema::F, Value::Int(i)) => Value::Float(*i as f64),
        (Schema::Str, Value::Str(s)) => Value::Str(s.clone()),
        (Schema::Bool, Value::Bool(b)) => Value::Bool(*b),
        (Schema::Opt(_), Value::Null) => Value::Null,
        (Schema::Opt(inner), v) => project(v, inner)?,
        (Schema::Seq(inner), Value::Array(items)) => Value::Array(
            items
                .iter()
                .map(|v| project(v, inner))
                .collect::<Option<_>>()?,
        ),
        (Schema::Tuple(elems), Value::Array(items)) if items.len() == elems.len() => Value::Array(
            items
                .iter()
                .zip(elems)
                .map(|(v, s)| project(v, s))
                .collect::<Option<_>>()?,
        ),
        (Schema::Struct(fields), Value::Object(map)) => Value::Object(project_fields(map, fields)?),
        (Schema::Tagged(tag, variants), Value::Object(map)) => {
            let Some(Value::Str(name)) = map.get(*tag) else {
                return None;
            };
            let (_, payload) = variants.iter().find(|(v, _)| v == name)?;
            let mut out = match payload {
                Some(Schema::Struct(fields)) => project_fields(map, fields)?,
                _ => BTreeMap::new(),
            };
            out.insert(tag.to_string(), Value::Str(name.clone()));
            Value::Object(out)
        }
        (Schema::External(variants), Value::Str(s)) => {
            variants.iter().find(|(v, p)| v == s && p.is_none())?;
            Value::Str(s.clone())
        }
        (Schema::External(variants), Value::Object(map)) if map.len() == 1 => {
            let (name, payload) = map.iter().next()?;
            let (_, Some(schema)) = variants.iter().find(|(v, _)| v == name)? else {
                return None;
            };
            Value::Object(BTreeMap::from([(name.clone(), project(payload, schema)?)]))
        }
        _ => return None,
    })
}

fn project_fields(
    map: &BTreeMap<String, Value>,
    fields: &[(&'static str, Schema)],
) -> Option<BTreeMap<String, Value>> {
    fields
        .iter()
        .map(|(name, schema)| {
            let value = match (map.get(*name), schema) {
                (Some(v), _) => project(v, schema)?,
                (None, Schema::Opt(_)) => Value::Null,
                (None, _) => return None,
            };
            Some((name.to_string(), value))
        })
        .collect()
}

/// What the oracle makes of `bytes` typed as `schema`: the JSON the
/// typed value writes, or the oracle's error.
fn oracle_read(bytes: &[u8], schema: &Schema) -> Result<Option<String>, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("JSON error: invalid UTF-8: {e}"))?;
    let value = oracle::parse(text).map_err(|e| e.to_string())?;
    Ok(project(&value, schema).map(|v| {
        let mut out = String::new();
        oracle::emit(&v, &mut out);
        out
    }))
}

/// Checks the codec against the oracle on one document: the untyped
/// read accepts exactly what the oracle parses, with the same syntax
/// error; the typed read accepts exactly what the oracle could type, and
/// writes back what the oracle would. Returns which of those three
/// outcomes the document had.
fn check_against_oracle<T: Serialize + Deserialize + fmt::Debug>(
    bytes: &[u8],
    schema: &Schema,
) -> usize {
    let shown = String::from_utf8_lossy(bytes);
    let expected = oracle_read(bytes, schema);
    let untyped = from_slice::<Anything>(bytes).map_err(|e| e.to_string());
    match &expected {
        Ok(_) => assert!(
            untyped.is_ok(),
            "untyped read rejected {shown}: {untyped:?}"
        ),
        Err(e) => assert_eq!(untyped.as_ref().unwrap_err(), e, "on {shown}"),
    }
    let typed = from_slice::<T>(bytes);
    match (&expected, typed) {
        (Err(expected), Err(e)) => assert_eq!(&e.to_string(), expected, "on {shown}"),
        (Ok(None), Err(e)) => assert!(!e.to_string().is_empty()),
        (Ok(Some(json)), Ok(value)) => assert_eq!(&to_string(&value).unwrap(), json, "on {shown}"),
        (expected, typed) => {
            panic!("codec and oracle disagree on {shown}: oracle {expected:?}, codec {typed:?}")
        }
    }
    match expected {
        Err(_) => 0,
        Ok(None) => 1,
        Ok(Some(_)) => 2,
    }
}

#[test]
fn writer_matches_the_oracle_emitter() {
    let mut gen = Gen(0x0ddba11);
    for _ in 0..300 {
        let doc = gen.doc();
        let json = to_string(&doc).unwrap();
        assert_eq!(
            oracle_read(json.as_bytes(), &doc_schema()),
            Ok(Some(json.clone()))
        );
        assert_eq!(from_str::<Doc>(&json).unwrap(), doc);
        let event = gen.event();
        let json = to_string(&event).unwrap();
        assert_eq!(
            oracle_read(json.as_bytes(), &event_schema()),
            Ok(Some(json.clone()))
        );
        assert_eq!(from_str::<Event>(&json).unwrap(), event);
    }
}

#[test]
fn reader_agrees_with_the_oracle_on_mutated_documents() {
    let mut gen = Gen(0x5eed);
    let (doc_schema, event_schema) = (doc_schema(), event_schema());
    // Documents by outcome: malformed, of the wrong shape, accepted.
    let mut outcomes = [0; 3];
    for case in 0..6000 {
        let mut bytes = if case % 2 == 0 {
            to_vec(&gen.doc()).unwrap()
        } else {
            to_vec(&gen.event()).unwrap()
        };
        for _ in 0..=gen.below(2) {
            gen.mutate(&mut bytes);
        }
        let outcome = if case % 2 == 0 {
            check_against_oracle::<Doc>(&bytes, &doc_schema)
        } else {
            check_against_oracle::<Event>(&bytes, &event_schema)
        };
        outcomes[outcome] += 1;
    }
    assert!(
        outcomes.iter().all(|&n| n >= 300),
        "too few of some outcome: {outcomes:?}"
    );
}
