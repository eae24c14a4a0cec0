//! Offline shim of serde's `#[derive(Serialize, Deserialize)]`.
//!
//! The build environment has no crates.io access, so `syn`/`quote` are
//! unavailable; this macro parses the item's `TokenStream` by hand and
//! emits impl code as a formatted string. It supports the shapes the
//! workspace actually derives: named structs, tuple/newtype structs,
//! and enums with unit / newtype / tuple / struct variants, in the
//! default externally-tagged form or the internally-tagged
//! `#[serde(tag = "...")]` form. Generic types are rejected. The
//! generated impls call the JSON writer and reader of the `serde` shim
//! directly; no intermediate document is built.

use proc_macro::{Delimiter, Group, TokenStream, TokenTree};
use std::iter::Peekable;

type TokenIter = Peekable<proc_macro::token_stream::IntoIter>;

struct Item {
    name: String,
    tag: Option<String>,
    kind: ItemKind,
}

enum ItemKind {
    NamedStruct(Vec<String>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Newtype,
    Tuple(usize),
    Struct(Vec<String>),
}

/// Derives `serde::Serialize`: writes the value as compact JSON, with
/// object keys in ascending byte order.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("serde shim generated invalid Serialize impl")
}

/// Derives `serde::Deserialize`: reads the value from JSON, skipping
/// unknown keys and keeping the last of repeated ones.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("serde shim generated invalid Deserialize impl")
}

// ---------------------------------------------------------------- parsing

fn parse_item(input: TokenStream) -> Item {
    let mut iter: TokenIter = input.into_iter().peekable();
    let mut tag = None;

    // Leading attributes (doc comments arrive as `#[doc = ...]`) and
    // visibility, capturing `#[serde(tag = "...")]` along the way.
    loop {
        match iter.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                iter.next();
                if let Some(TokenTree::Group(g)) = iter.next() {
                    if let Some(t) = serde_tag_attr(&g) {
                        tag = Some(t);
                    }
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                iter.next();
                if matches!(
                    iter.peek(),
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
                ) {
                    iter.next();
                }
            }
            _ => break,
        }
    }

    let keyword = expect_ident(&mut iter, "`struct` or `enum`");
    let name = expect_ident(&mut iter, "type name");
    if matches!(iter.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive does not support generic type `{name}`");
    }

    let kind = match keyword.as_str() {
        "struct" => match iter.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                ItemKind::NamedStruct(parse_named_fields(&g))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                ItemKind::TupleStruct(count_tuple_fields(&g))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => ItemKind::UnitStruct,
            other => panic!("unexpected token after `struct {name}`: {other:?}"),
        },
        "enum" => match iter.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                ItemKind::Enum(parse_variants(&g))
            }
            other => panic!("unexpected token after `enum {name}`: {other:?}"),
        },
        other => panic!("serde shim derive supports structs and enums, got `{other}`"),
    };

    Item { name, tag, kind }
}

/// Extracts `tag = "..."` from a `#[serde(...)]` attribute group body.
fn serde_tag_attr(attr_body: &Group) -> Option<String> {
    if attr_body.delimiter() != Delimiter::Bracket {
        return None;
    }
    let mut iter = attr_body.stream().into_iter();
    match iter.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return None,
    }
    let Some(TokenTree::Group(args)) = iter.next() else {
        return None;
    };
    let mut args = args.stream().into_iter();
    while let Some(tok) = args.next() {
        if matches!(&tok, TokenTree::Ident(id) if id.to_string() == "tag") {
            match (args.next(), args.next()) {
                (Some(TokenTree::Punct(eq)), Some(TokenTree::Literal(lit)))
                    if eq.as_char() == '=' =>
                {
                    return Some(unquote(&lit.to_string()));
                }
                _ => return None,
            }
        }
    }
    None
}

fn unquote(lit: &str) -> String {
    lit.trim_matches('"').to_string()
}

fn expect_ident(iter: &mut TokenIter, what: &str) -> String {
    match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("expected {what}, got {other:?}"),
    }
}

/// Skips `#[...]` attributes and a `pub` / `pub(...)` visibility prefix.
fn skip_attrs_and_vis(iter: &mut TokenIter) {
    loop {
        match iter.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                iter.next();
                iter.next();
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                iter.next();
                if matches!(
                    iter.peek(),
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
                ) {
                    iter.next();
                }
            }
            _ => return,
        }
    }
}

/// Consumes one type, tracking `<`/`>` nesting so commas inside generic
/// arguments don't end the field early; stops after the field's
/// trailing comma (or at end of stream).
fn skip_type(iter: &mut TokenIter) {
    let mut angle_depth = 0i32;
    for tok in iter.by_ref() {
        match tok {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => return,
            _ => {}
        }
    }
}

fn parse_named_fields(body: &Group) -> Vec<String> {
    let mut iter: TokenIter = body.stream().into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        skip_attrs_and_vis(&mut iter);
        match iter.next() {
            Some(TokenTree::Ident(id)) => {
                fields.push(id.to_string());
                match iter.next() {
                    Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
                    other => panic!("expected `:` after field, got {other:?}"),
                }
                skip_type(&mut iter);
            }
            None => break,
            Some(other) => panic!("unexpected token in field list: {other:?}"),
        }
    }
    fields
}

fn count_tuple_fields(body: &Group) -> usize {
    let mut iter: TokenIter = body.stream().into_iter().peekable();
    let mut count = 0;
    loop {
        skip_attrs_and_vis(&mut iter);
        if iter.peek().is_none() {
            break;
        }
        count += 1;
        skip_type(&mut iter);
    }
    count
}

fn parse_variants(body: &Group) -> Vec<Variant> {
    let mut iter: TokenIter = body.stream().into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        skip_attrs_and_vis(&mut iter);
        let name = match iter.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            Some(other) => panic!("unexpected token in variant list: {other:?}"),
        };
        let kind = match iter.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(&g.clone());
                iter.next();
                VariantKind::Struct(fields)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let arity = count_tuple_fields(&g.clone());
                iter.next();
                if arity == 1 {
                    VariantKind::Newtype
                } else {
                    VariantKind::Tuple(arity)
                }
            }
            _ => VariantKind::Unit,
        };
        variants.push(Variant { name, kind });
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            None => break,
            Some(other) => panic!("expected `,` after variant, got {other:?}"),
        }
    }
    variants
}

// ---------------------------------------------------------------- codegen
//
// Generated code names everything through `::serde::__private`, so it
// needs nothing in scope. Struct fields and variant payloads are written
// in ascending byte order of their names, sorted here at expansion time.

const P: &str = "::serde::__private";

fn sorted(fields: &[String]) -> Vec<&String> {
    let mut sorted: Vec<&String> = fields.iter().collect();
    sorted.sort();
    sorted
}

/// Statements writing the named fields to the object writer `__obj`;
/// `access` turns a field name into an expression borrowing its value.
fn write_fields(fields: &[String], access: impl Fn(&str) -> String) -> String {
    sorted(fields)
        .into_iter()
        .map(|f| format!("__obj.field(\"{f}\", {});\n", access(f)))
        .collect()
}

/// Statements writing the values `exprs` as one array to `__out`.
fn write_array(exprs: &[String]) -> String {
    let mut out = String::from("let mut __arr = __out.array();\n");
    for e in exprs {
        out.push_str(&format!("__arr.element({e});\n"));
    }
    out.push_str("__arr.end();\n");
    out
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let mut tagged = None;
    let body = match &item.kind {
        ItemKind::NamedStruct(fields) => {
            let writes = write_fields(fields, |f| format!("&self.{f}"));
            tagged = Some(format!(
                "#[allow(unused_mut)]\n\
                 let mut __obj = __out.tagged_object(__tag, __variant);\n{writes}__obj.end();"
            ));
            format!("#[allow(unused_mut)]\nlet mut __obj = __out.object();\n{writes}__obj.end();")
        }
        ItemKind::TupleStruct(1) => {
            tagged = Some(format!(
                "{P}::Serialize::serialize_tagged(&self.0, __out, __tag, __variant)"
            ));
            format!("{P}::Serialize::serialize(&self.0, __out)")
        }
        ItemKind::TupleStruct(n) => {
            let exprs: Vec<String> = (0..*n).map(|i| format!("&self.{i}")).collect();
            write_array(&exprs)
        }
        ItemKind::UnitStruct => "__out.null()".to_string(),
        ItemKind::Enum(variants) => gen_serialize_enum(name, item.tag.as_deref(), variants),
    };
    let tagged = tagged
        .map(|body| {
            format!(
                "fn serialize_tagged(&self, __out: &mut {P}::Writer, __tag: &str, __variant: &str) {{\n\
                     {body}\n\
                 }}\n"
            )
        })
        .unwrap_or_default();
    format!(
        "impl {P}::Serialize for {name} {{\n\
             fn serialize(&self, __out: &mut {P}::Writer) {{\n{body}\n}}\n\
             {tagged}\
         }}"
    )
}

fn gen_serialize_enum(name: &str, tag: Option<&str>, variants: &[Variant]) -> String {
    let mut arms = String::new();
    for v in variants {
        let vn = &v.name;
        let arm = match (&v.kind, tag) {
            (VariantKind::Unit, None) => format!("{name}::{vn} => __out.str(\"{vn}\"),\n"),
            (VariantKind::Unit, Some(tag)) => {
                format!("{name}::{vn} => __out.tagged_object(\"{tag}\", \"{vn}\").end(),\n")
            }
            (VariantKind::Newtype, None) => format!(
                "{name}::{vn}(__f0) => {{\n\
                     let mut __obj = __out.object();\n\
                     __obj.field(\"{vn}\", __f0);\n\
                     __obj.end();\n\
                 }}\n"
            ),
            (VariantKind::Newtype, Some(tag)) => format!(
                "{name}::{vn}(__f0) => {P}::Serialize::serialize_tagged(__f0, __out, \"{tag}\", \"{vn}\"),\n"
            ),
            // An internally tagged enum cannot read a tuple variant back,
            // but writes one in the external form.
            (VariantKind::Tuple(n), _) => {
                let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                format!(
                    "{name}::{vn}({}) => {{\n\
                         let mut __obj = __out.object();\n\
                         __obj.field_with(\"{vn}\", |__out| {{\n{}}});\n\
                         __obj.end();\n\
                     }}\n",
                    binds.join(", "),
                    write_array(&binds)
                )
            }
            (VariantKind::Struct(fields), None) => format!(
                "{name}::{vn} {{ {} }} => {{\n\
                     let mut __outer = __out.object();\n\
                     __outer.field_with(\"{vn}\", |__out| {{\n\
                         #[allow(unused_mut)]\n\
                         let mut __obj = __out.object();\n\
                         {}__obj.end();\n\
                     }});\n\
                     __outer.end();\n\
                 }}\n",
                fields.join(", "),
                write_fields(fields, str::to_string)
            ),
            (VariantKind::Struct(fields), Some(tag)) => format!(
                "{name}::{vn} {{ {} }} => {{\n\
                     #[allow(unused_mut)]\n\
                     let mut __obj = __out.tagged_object(\"{tag}\", \"{vn}\");\n\
                     {}__obj.end();\n\
                 }}\n",
                fields.join(", "),
                write_fields(fields, str::to_string)
            ),
        };
        arms.push_str(&arm);
    }
    format!("match self {{\n{arms}}}")
}

/// An expression reading a named-field object from `__in` into
/// `Ok(ctor { .. })`. Each field's last value is kept in an `Option`
/// slot whose type the struct literal infers; a missing key takes the
/// field type's absent value, and fields are checked in declaration
/// order.
fn read_fields(ctor: &str, fields: &[String]) -> String {
    let mut out = String::from("{\n");
    for i in 0..fields.len() {
        out.push_str(&format!("let mut __f{i} = ::std::option::Option::None;\n"));
    }
    out.push_str("__in.object(|__in, __key| match __key {\n");
    for (i, f) in fields.iter().enumerate() {
        out.push_str(&format!(
            "\"{f}\" => {{\n\
                 __f{i} = ::std::option::Option::Some(__in.read_field()?);\n\
                 ::std::result::Result::Ok(())\n\
             }}\n"
        ));
    }
    out.push_str("_ => __in.skip_value(),\n})?;\n");
    out.push_str(&format!("::std::result::Result::Ok({ctor} {{\n"));
    for (i, f) in fields.iter().enumerate() {
        out.push_str(&format!("{f}: {P}::field(__f{i}, \"{f}\")?,\n"));
    }
    out.push_str("})\n}");
    out
}

/// An expression reading an array of exactly `n` elements from `__in`
/// into `Ok(ctor(..))`.
fn read_tuple(ctor: &str, n: usize) -> String {
    let mut out = String::from("{\n");
    for i in 0..n {
        out.push_str(&format!("let mut __f{i} = ::std::option::Option::None;\n"));
    }
    out.push_str("let mut __len = 0usize;\n__in.array(|__in| {\nmatch __len {\n");
    for i in 0..n {
        out.push_str(&format!(
            "{i} => __f{i} = ::std::option::Option::Some({P}::Deserialize::deserialize(__in)?),\n"
        ));
    }
    out.push_str(&format!(
        "_ => __in.skip_value()?,\n}}\n__len += 1;\n::std::result::Result::Ok(())\n}})?;\n\
         let __wrong_len = || {P}::DeError::msg(format!(\"{ctor} expects {n} elements, got {{}}\", __len));\n\
         if __len != {n} {{\n\
             return ::std::result::Result::Err(__wrong_len());\n\
         }}\n\
         ::std::result::Result::Ok({ctor}(\n"
    ));
    for i in 0..n {
        out.push_str(&format!("__f{i}.ok_or_else(__wrong_len)?,\n"));
    }
    out.push_str("))\n}");
    out
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let mut absent = None;
    let body = match &item.kind {
        ItemKind::NamedStruct(fields) => read_fields(name, fields),
        ItemKind::TupleStruct(1) => {
            absent = Some(format!("{P}::Deserialize::absent().map({name})"));
            format!("{P}::Deserialize::deserialize(__in).map({name})")
        }
        ItemKind::TupleStruct(n) => read_tuple(name, *n),
        // Any value reads as a unit struct, and so does an absent one.
        ItemKind::UnitStruct => {
            absent = Some(format!("::std::option::Option::Some({name})"));
            format!("__in.skip_value()?;\n::std::result::Result::Ok({name})")
        }
        ItemKind::Enum(variants) => match item.tag.as_deref() {
            Some(tag) => gen_deserialize_tagged_enum(name, tag, variants),
            None => gen_deserialize_plain_enum(name, variants),
        },
    };
    let absent = absent
        .map(|body| {
            format!("fn absent() -> ::std::option::Option<Self> {{\n{body}\n}}\n")
        })
        .unwrap_or_default();
    format!(
        "impl {P}::Deserialize for {name} {{\n\
             fn deserialize(__in: &mut {P}::Reader<'_>) -> ::std::result::Result<Self, {P}::DeError> {{\n\
                 {body}\n\
             }}\n\
             {absent}\
         }}"
    )
}

/// Reads the externally tagged form: a unit variant is its name as a
/// string, any other variant an object with its name as the one key.
fn gen_deserialize_plain_enum(name: &str, variants: &[Variant]) -> String {
    let mut unit_arms = String::new();
    let mut payload_arms = String::new();
    for v in variants {
        let vn = &v.name;
        let ctor = format!("{name}::{vn}");
        let read = match &v.kind {
            VariantKind::Unit => {
                unit_arms.push_str(&format!("\"{vn}\" => ::std::result::Result::Ok({ctor}),\n"));
                continue;
            }
            VariantKind::Newtype => format!("{P}::Deserialize::deserialize(__in).map({ctor})"),
            VariantKind::Tuple(n) => read_tuple(&ctor, *n),
            VariantKind::Struct(fields) => read_fields(&ctor, fields),
        };
        payload_arms.push_str(&format!(
            "\"{vn}\" => {{\n\
                 __value = ::std::option::Option::Some(__in.read_field_with(|__in| {read})?);\n\
                 ::std::result::Result::Ok(())\n\
             }}\n"
        ));
    }
    // A repeated key keeps its last payload; a second distinct key makes
    // the object no variant at all.
    format!(
        "if __in.peek()? == b'\"' {{\n\
             let __s = __in.str()?;\n\
             return match &*__s {{\n\
                 {unit_arms}\
                 __other => ::std::result::Result::Err({P}::unknown_variant(\"{name}\", __other)),\n\
             }};\n\
         }}\n\
         let mut __first: ::std::option::Option<::std::string::String> = ::std::option::Option::None;\n\
         let mut __one_key = true;\n\
         let mut __value: ::std::option::Option<::std::result::Result<Self, {P}::DeError>> = ::std::option::Option::None;\n\
         __in.object(|__in, __key| {{\n\
             match &__first {{\n\
                 ::std::option::Option::None => __first = ::std::option::Option::Some(__key.to_owned()),\n\
                 ::std::option::Option::Some(__k) if __k != __key => __one_key = false,\n\
                 _ => {{}}\n\
             }}\n\
             if !__one_key {{\n\
                 return __in.skip_value();\n\
             }}\n\
             match __key {{\n\
                 {payload_arms}\
                 __other => {{\n\
                     __in.skip_value()?;\n\
                     __value = ::std::option::Option::Some(::std::result::Result::Err({P}::unknown_variant(\"{name}\", __other)));\n\
                     ::std::result::Result::Ok(())\n\
                 }}\n\
             }}\n\
         }})?;\n\
         match __value {{\n\
             ::std::option::Option::Some(__result) if __one_key => __result,\n\
             _ => ::std::result::Result::Err({P}::DeError::msg(\n\
                 \"expected {name} as a string or an object with one key\")),\n\
         }}"
    )
}

/// Reads the internally tagged form: a scan ahead finds the variant
/// under `tag`, then the variant reads the whole object, skipping the
/// tag as an unknown key.
fn gen_deserialize_tagged_enum(name: &str, tag: &str, variants: &[Variant]) -> String {
    let mut arms = String::new();
    for v in variants {
        let vn = &v.name;
        let ctor = format!("{name}::{vn}");
        let read = match &v.kind {
            VariantKind::Unit => format!("__in.skip_value()?;\n::std::result::Result::Ok({ctor})"),
            VariantKind::Newtype => format!("{P}::Deserialize::deserialize(__in).map({ctor})"),
            VariantKind::Tuple(_) => {
                panic!("internally tagged enum {name} cannot hold tuple variant {vn}")
            }
            VariantKind::Struct(fields) => read_fields(&ctor, fields),
        };
        arms.push_str(&format!("\"{vn}\" => {{\n{read}\n}}\n"));
    }
    format!(
        "let __tag = __in.tag(\"{tag}\", \"{name}\")?;\n\
         match &*__tag {{\n\
             {arms}\
             __other => ::std::result::Result::Err({P}::unknown_variant(\"{name}\", __other)),\n\
         }}"
    )
}
